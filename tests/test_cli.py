"""Command-line front end: bad inputs exit with code 2, fit artifacts."""

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from geoattn import attnfield, cli, gatv2, geostat, pipeline, simgen


@pytest.fixture
def dataset_csv(tmp_path):
    data = simgen.simulate(simgen.SimConfig(n_times=2, locs_per_time=(10, 10), seed=3))
    path = tmp_path / "dataset.csv"
    simgen.write_dataset_csv(data, path)
    return path


@pytest.fixture
def fit_config(tmp_path):
    path = tmp_path / "fit.json"
    path.write_text(json.dumps({
        "version": 1, "n_draws": 50,
        "optimizer": {"max_iter": 2, "bounds": {"log_sigma2": [-3.0, 1.0]}},
    }))
    return path


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # every command pays for what the CLI imports; only fits need the optimizer
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, geoattn.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def rewrite_row(path, row, edit):
    lines = path.read_text().splitlines()
    lines[row] = edit(lines[row].split(","))
    path.write_text("\n".join(lines) + "\n")


def fit_mbg(dataset, config, out):
    return cli.main([
        "fit", "--kind", "mbg", "--dataset", str(dataset),
        "--config", str(config), "--out", str(out),
    ])


def fit_gat_then_hybrid(tmp_path, gat_dataset, hybrid_dataset, edit_checkpoint=None,
                        widths=(4,)):
    """``fit gat_only`` on one dataset, then ``fit hybrid`` with its checkpoint."""
    gat_config = tmp_path / "gat.json"
    # a graph other than the default, which the hybrid fit must take from the checkpoint
    gat_config.write_text(json.dumps({
        "version": 1, "graph": {"k_neighbors": 5, "time_scale": 0.5},
        "gat": {"epochs": 3, "widths": list(widths)},
    }))
    assert cli.main([
        "fit", "--kind", "gat_only", "--dataset", str(gat_dataset),
        "--config", str(gat_config), "--out", str(tmp_path / "gat"),
    ]) == cli.EXIT_OK
    checkpoint = tmp_path / "gat" / "checkpoint.json"
    if edit_checkpoint is not None:
        payload = json.loads(checkpoint.read_text())
        edit_checkpoint(payload)
        checkpoint.write_text(json.dumps(payload))
    hybrid_config = tmp_path / "hybrid.json"
    hybrid_config.write_text(json.dumps({
        "version": 1, "seed": 5, "n_draws": 50,
        "optimizer": {"max_iter": 2, "bounds": {"theta2": [-15.0, 15.0]}},
    }))
    code = cli.main([
        "fit", "--kind", "hybrid", "--dataset", str(hybrid_dataset),
        "--config", str(hybrid_config), "--out", str(tmp_path / "hybrid"),
        "--gat-checkpoint", str(checkpoint), "--export-field",
    ])
    return code, checkpoint, hybrid_config


class TestBadInputExitsTwo:
    def test_zero_trials_record(self, tmp_path, dataset_csv, fit_config, capsys):
        header = dataset_csv.read_text().splitlines()[0].split(",")
        col = {name: i for i, name in enumerate(header)}

        def zero_trials(fields):
            fields[col["n_tested"]] = "0"
            fields[col["n_pos"]] = "0"
            return ",".join(fields)

        rewrite_row(dataset_csv, 4, zero_trials)
        assert fit_mbg(dataset_csv, fit_config, tmp_path / "out") == cli.EXIT_VALIDATION
        assert "n_tested >= 1" in capsys.readouterr().err

    def test_short_dataset_row(self, tmp_path, dataset_csv, fit_config, capsys):
        rewrite_row(dataset_csv, 3, lambda fields: ",".join(fields[:4]))
        assert fit_mbg(dataset_csv, fit_config, tmp_path / "out") == cli.EXIT_VALIDATION
        assert "row 3 has 4 fields" in capsys.readouterr().err

    def test_prediction_csv_without_rows(self, tmp_path, dataset_csv, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("id,mean,lo95,hi95,sd_linpred\n")
        code = cli.main([
            "evaluate", "--pred", f"m={pred}", "--dataset", str(dataset_csv),
            "--mode", "truth", "--out", str(tmp_path / "eval"),
        ])
        assert code == cli.EXIT_VALIDATION
        assert "no rows" in capsys.readouterr().err

    def test_repeated_dataset_id(self, tmp_path, dataset_csv, fit_config, capsys):
        rewrite_row(dataset_csv, 7, lambda fields: ",".join(["2"] + fields[1:]))
        assert fit_mbg(dataset_csv, fit_config, tmp_path / "out") == cli.EXIT_VALIDATION
        assert "dataset CSV rows 3 and 7 repeat id 2" in capsys.readouterr().err

    @pytest.mark.parametrize("record_id", ["0.9", "1e3", "nan"])
    def test_non_integer_prediction_id(self, record_id, tmp_path, dataset_csv, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("id,mean,lo95,hi95,sd_linpred\n"
                        f"1,0.2,0.1,0.3,0.5\n{record_id},0.2,0.1,0.3,0.5\n")
        code = cli.main([
            "evaluate", "--pred", f"m={pred}", "--dataset", str(dataset_csv),
            "--mode", "truth", "--out", str(tmp_path / "eval"),
        ])
        assert code == cli.EXIT_VALIDATION
        assert f"prediction CSV row 2: invalid literal for int() with base 10: '{record_id}'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("1,nan,0.1,0.3,0.5", "prediction CSV row 2 has a non-finite value"),
        ("1,0.2,0.3,0.1,0.5", "prediction CSV row 2 has lo95 > hi95"),
    ], ids=["nan_mean", "reversed_interval"])
    def test_bad_prediction_value(self, row, message, tmp_path, dataset_csv, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text(f"id,mean,lo95,hi95,sd_linpred\n0,0.2,0.1,0.3,0.5\n{row}\n")
        code = cli.main([
            "evaluate", "--pred", f"m={pred}", "--dataset", str(dataset_csv),
            "--mode", "truth", "--out", str(tmp_path / "eval"),
        ])
        assert code == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, column, value", [
        ("mbg", "cov_1", "nan"),
        ("gat_only", "x", "inf"),
        ("mbg", "y", "NaN"),
        ("cv", "true_p", "nan"),
        ("evaluate", "true_S", "-inf"),
    ])
    def test_non_finite_dataset_value(self, command, column, value, tmp_path, dataset_csv,
                                      fit_config, capsys):
        header = dataset_csv.read_text().splitlines()[0].split(",")

        def poison(fields):
            fields[header.index(column)] = value
            return ",".join(fields)

        rewrite_row(dataset_csv, 4, poison)
        out = str(tmp_path / "out")
        if command == "cv":
            specs = tmp_path / "specs.json"
            specs.write_text(json.dumps({"version": 1, "specs": [{"name": "m", "kind": "mbg"}]}))
            argv = ["cv", "--specs", str(specs), "--k", "2"]
        elif command == "evaluate":
            pred = tmp_path / "pred.csv"
            pred.write_text("id,mean,lo95,hi95,sd_linpred\n0,0.2,0.1,0.3,0.5\n")
            argv = ["evaluate", "--pred", f"m={pred}", "--mode", "truth"]
        else:
            argv = ["fit", "--kind", command, "--config", str(fit_config)]
        assert cli.main([*argv, "--dataset", str(dataset_csv), "--out", out]) == cli.EXIT_VALIDATION
        assert f"dataset CSV row 4, column '{column}': '{value}' is not finite" \
            in capsys.readouterr().err

    def test_repeated_prediction_id(self, tmp_path, dataset_csv, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("id,mean,lo95,hi95,sd_linpred\n"
                        "0,0.2,0.1,0.3,0.5\n1,0.2,0.1,0.3,0.5\n0,0.4,0.3,0.5,0.5\n")
        code = cli.main([
            "evaluate", "--pred", f"m={pred}", "--dataset", str(dataset_csv),
            "--mode", "truth", "--out", str(tmp_path / "eval"),
        ])
        assert code == cli.EXIT_VALIDATION
        assert "prediction CSV rows 1 and 3 repeat id 0" in capsys.readouterr().err


class TestBadArgumentsExitTwo:
    @pytest.fixture
    def specs_json(self, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps({"version": 1, "specs": [
            {"name": "m", "kind": "mbg", "n_draws": 20, "optimizer": {"max_iter": 0}},
        ]}))
        return path

    def cv(self, tmp_path, dataset_csv, specs_json, *extra):
        return cli.main([
            "cv", "--dataset", str(dataset_csv), "--specs", str(specs_json),
            "--out", str(tmp_path / "cv"), *extra,
        ])

    def test_cv_workers_two(self, tmp_path, dataset_csv, specs_json, capsys):
        with pytest.raises(SystemExit) as exit_info:
            self.cv(tmp_path, dataset_csv, specs_json, "--k", "2", "--workers", "2")
        assert exit_info.value.code == cli.EXIT_VALIDATION
        assert "--workers: invalid choice: 2" in capsys.readouterr().err

    def test_cv_zero_folds(self, tmp_path, dataset_csv, specs_json, capsys):
        code = self.cv(tmp_path, dataset_csv, specs_json, "--k", "0")
        assert code == cli.EXIT_VALIDATION
        assert "need k >= 2 folds" in capsys.readouterr().err

    def test_cv_bound_not_free_for_the_spec(self, tmp_path, dataset_csv, capsys):
        specs = tmp_path / "bad_specs.json"
        specs.write_text(json.dumps({"version": 1, "specs": [
            {"name": "m", "kind": "mbg", "optimizer": {"bounds": {"theta2": [-1, 1]}}},
        ]}))
        code = self.cv(tmp_path, dataset_csv, specs, "--k", "2")
        assert code == cli.EXIT_VALIDATION
        assert "spec 'm': bounds names 'theta2'" in capsys.readouterr().err
        assert not (tmp_path / "cv" / "cv_report.json").exists()

    def test_cv_more_folds_than_locations(self, tmp_path, dataset_csv, specs_json, capsys):
        code = self.cv(tmp_path, dataset_csv, specs_json, "--k", "50")
        assert code == cli.EXIT_VALIDATION
        assert "--k 50: k=50 exceeds the 20 distinct coordinates" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["mbg", "gat_only"])
    def test_checkpoint_outside_hybrid(self, kind, tmp_path, dataset_csv, fit_config, capsys):
        code = cli.main([
            "fit", "--kind", kind, "--dataset", str(dataset_csv), "--config", str(fit_config),
            "--out", str(tmp_path / "out"), "--gat-checkpoint", str(tmp_path / "unread.json"),
        ])
        assert code == cli.EXIT_VALIDATION
        assert f"--gat-checkpoint applies to hybrid fits only, not {kind}" in capsys.readouterr().err

    def test_export_field_outside_hybrid(self, tmp_path, dataset_csv, fit_config, capsys):
        code = cli.main([
            "fit", "--kind", "mbg", "--dataset", str(dataset_csv), "--config", str(fit_config),
            "--out", str(tmp_path / "out"), "--export-field",
        ])
        assert code == cli.EXIT_VALIDATION
        assert "--export-field applies to hybrid fits only, not mbg" in capsys.readouterr().err


BAD_MODEL_CONFIGS = {
    "zero_draws": ({"n_draws": 0}, "n_draws must be >= 1"),
    "level_above_one": ({"level": 1.5}, "level must lie in (0, 1)"),
    "empty_bound": (
        {"optimizer": {"bounds": {"log_sigma2": [1.0, 1.0]}}}, "lo < hi",
    ),
    "matern_nu_without_closed_form": (
        {"kernel": {"family": "matern", "nu": 1.0}}, "matern nu must be one of",
    ),
    "empty_bounds": ({"optimizer": {"bounds": {}}}, "bounds is empty"),
    "bound_on_a_hybrid_parameter": (
        {"optimizer": {"bounds": {"theta2": [-1, 1]}}},
        "bounds names 'theta2', which is not a free parameter of mbg with a gneiting kernel",
    ),
    "bound_on_another_family_parameter": (
        {"optimizer": {"bounds": {"log_sigma2": [-2, 1], "log_rho": [-2, 1]}}},
        "bounds names 'log_rho'",
    ),
    "zero_epochs": ({"gat": {"epochs": 0}}, "epochs must be >= 1"),
    "negative_epochs": ({"gat": {"epochs": -3}}, "epochs must be >= 1"),
    "zero_width_layer": ({"gat": {"widths": [0]}}, "layer widths must be >= 1"),
    "negative_learning_rate": (
        {"gat": {"learning_rate": -1.0}}, "learning_rate must be positive",
    ),
    "zero_neighbors": ({"graph": {"k_neighbors": 0}}, "k_neighbors must be >= 1"),
    "nan_time_scale": ({"graph": {"time_scale": float("nan")}}, "time_scale must be finite"),
    "negative_max_iter": ({"optimizer": {"max_iter": -1}}, "max_iter must be >= 0"),
    "negative_restarts": ({"optimizer": {"restarts": -2}}, "restarts must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_MODEL_CONFIGS))
def test_bad_model_config_exits_two(case, tmp_path, dataset_csv, capsys):
    edit, message = BAD_MODEL_CONFIGS[case]
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"version": 1, "n_draws": 50, **edit}))
    assert fit_mbg(dataset_csv, config, tmp_path / "out") == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


SIM_CONFIG = {"version": 1, "seed": 3, "n_times": 2, "locs_per_time": [10, 10]}

# values the hand-written conversions once truncated, coerced or crashed on
MISTYPED_CONFIGS = {
    "widths_string": ("fit", {"gat": {"widths": "16"}}, "fit config.gat.widths must be a list"),
    "fractional_epochs": ("fit", {"gat": {"epochs": 2.7}}, "fit config.gat.epochs must be an integer"),
    "float_epochs": ("fit", {"gat": {"epochs": 2.0}}, "fit config.gat.epochs must be an integer"),
    "boolean_heads": ("fit", {"gat": {"heads": True}}, "fit config.gat.heads must be an integer"),
    "fractional_seed": ("fit", {"seed": 1.9}, "fit config.seed must be an integer"),
    "string_neighbors": (
        "fit", {"graph": {"k_neighbors": "3"}}, "fit config.graph.k_neighbors must be an integer",
    ),
    "fractional_draws": ("fit", {"n_draws": 50.9}, "fit config.n_draws must be an integer"),
    "gat_not_an_object": ("fit", {"gat": [1, 2]}, "fit config.gat must be a JSON object"),
    "fractional_times": (
        "simulate", {"n_times": 2.9}, "simulation config.n_times must be an integer",
    ),
    "locs_string": (
        "simulate", {"locs_per_time": "55"},
        "simulation config.locs_per_time must be a list of 2 items",
    ),
    "nan_phi_s": ("simulate", {"phi_s": float("nan")}, "simulation config.phi_s must be finite, got NaN"),
    "nan_kernel_sigma2": (
        "fit", {"kernel": {"sigma2": float("nan")}}, "fit config.kernel.sigma2 must be finite, got NaN",
    ),
    "infinite_time_scale": (
        "fit", {"graph": {"time_scale": float("inf")}},
        "fit config.graph.time_scale must be finite, got Infinity",
    ),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_CONFIGS))
def test_mistyped_config_value_exits_two(case, tmp_path, dataset_csv, capsys):
    command, edit, message = MISTYPED_CONFIGS[case]
    config = tmp_path / "bad.json"
    out = tmp_path / "out"
    if command == "fit":
        config.write_text(json.dumps({"version": 1, "n_draws": 50, **edit}))
        code = fit_mbg(dataset_csv, config, out)
    else:
        config.write_text(json.dumps({**SIM_CONFIG, **edit}))
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_one_record_simulation_exits_two(tmp_path, capsys):
    # a single record has no sample std to standardize its covariates by
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({**SIM_CONFIG, "n_times": 1, "locs_per_time": [1, 1]}))
    code = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_VALIDATION
    assert "n_times * locs_per_time[0] must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["simulate", "fit", "env", "cv"])
def test_negative_seed_exits_two(where, tmp_path, dataset_csv, fit_config, monkeypatch, capsys):
    out = str(tmp_path / "out")
    if where == "simulate":
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({**SIM_CONFIG, "seed": -1}))
        code = cli.main(["simulate", "--config", str(config), "--out", out])
    elif where == "cv":
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps({"version": 1, "specs": [{"name": "m", "kind": "mbg"}]}))
        code = cli.main(["cv", "--dataset", str(dataset_csv), "--specs", str(specs),
                         "--k", "2", "--seed", "-1", "--out", out])
    else:
        if where == "env":
            monkeypatch.setenv("GEOATTN_SEED", "-2")
        else:
            fit_config.write_text(json.dumps({"version": 1, "seed": -4}))
        code = fit_mbg(dataset_csv, fit_config, out)
    assert code == cli.EXIT_VALIDATION
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("where, seed", [
    ("simulate", 2**70), ("env", 2**63), ("cv", 2**64 - 1),
])
def test_seed_from_2_63_exits_two(where, seed, tmp_path, dataset_csv, fit_config,
                                  monkeypatch, capsys):
    # fold seeds seed + fold_id must fit the uint64 key of the random streams
    out = str(tmp_path / "out")
    if where == "simulate":
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({**SIM_CONFIG, "seed": seed}))
        code = cli.main(["simulate", "--config", str(config), "--out", out])
    elif where == "cv":
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps({"version": 1, "specs": [{"name": "m", "kind": "mbg"}]}))
        code = cli.main(["cv", "--dataset", str(dataset_csv), "--specs", str(specs),
                         "--k", "2", "--seed", str(seed), "--out", out])
    else:
        monkeypatch.setenv("GEOATTN_SEED", str(seed))
        code = fit_mbg(dataset_csv, fit_config, out)
    assert code == cli.EXIT_VALIDATION
    assert f"seed must be >= 0 and < 2**63, got {seed}" in capsys.readouterr().err


def test_cv_runs_every_fold_at_the_largest_seed(tmp_path, dataset_csv):
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps({"version": 1, "specs": [
        {"name": "m", "kind": "mbg", "n_draws": 20, "optimizer": {"max_iter": 0}},
    ]}))
    out = tmp_path / "cv"
    assert cli.main(["cv", "--dataset", str(dataset_csv), "--specs", str(specs), "--k", "3",
                     "--seed", str(2**63 - 1), "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "cv_report.json").read_text())
    assert report["m"]["complete"] is True


@pytest.mark.parametrize("kind, config_kind", [
    ("mbg", "gat_only"), ("gat_only", "mbg"), ("mbg", "mbg"),
])
def test_kind_key_in_fit_config_exits_two(kind, config_kind, tmp_path, dataset_csv, capsys):
    # fit --kind sets the kind; the config may not give it a second time
    config = tmp_path / "fit.json"
    config.write_text(json.dumps({"version": 1, "kind": config_kind}))
    code = cli.main(["fit", "--kind", kind, "--dataset", str(dataset_csv),
                     "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "unknown key(s) in fit config: kind" in err
    assert "Traceback" not in err


BAD_CV_SPECS = {
    "no_kind": ({}, "spec 'm': field 'kind' is required"),
    "unknown_top_key": ({"kind": "mbg", "epochs": 3}, "unknown key(s) in spec 'm': epochs"),
    "unknown_graph_key": (
        {"kind": "mbg", "graph": {"k": 3}}, "unknown key(s) in spec 'm'.graph: k",
    ),
    "seed_in_gat": ({"kind": "mbg", "gat": {"seed": 3}}, "unknown key(s) in spec 'm'.gat: seed"),
    "unknown_kernel_key": (
        {"kind": "mbg", "kernel": {"range": 1.0}}, "unknown key(s) in spec 'm'.kernel: range",
    ),
    "unknown_attention_start_key": (
        {"kind": "hybrid", "attention_start": {"tau": 1.0}},
        "unknown key(s) in spec 'm'.attention_start: tau",
    ),
    "unknown_optimizer_key": (
        {"kind": "mbg", "optimizer": {"maxiter": 2}},
        "unknown key(s) in spec 'm'.optimizer: maxiter",
    ),
    "unknown_bound_name": (
        {"kind": "mbg", "optimizer": {"bounds": {"log_tau": [0, 1]}}},
        "spec 'm': unknown bound name 'log_tau'",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CV_SPECS))
def test_bad_cv_spec_exits_two(case, tmp_path, dataset_csv, capsys):
    edit, message = BAD_CV_SPECS[case]
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps({"version": 1, "specs": [{"name": "m", **edit}]}))
    code = cli.main(["cv", "--dataset", str(dataset_csv), "--specs", str(specs),
                     "--k", "2", "--out", str(tmp_path / "cv")])
    assert code == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    pipeline.PipelineModelSpec(name="m", kind="hybrid"),
    pipeline.PipelineModelSpec(
        name="m", kind="mbg", gat=gatv2.GatConfig(seed=7),
        optimizer=geostat.OptimizerConfig(bounds={"log_sigma2": (-3.0, 1.0)}),
    ),
], ids=["defaults", "seed_and_bounds"])
def test_config_fields_round_trip_as_json_keys(spec):
    # every field is the JSON key of its own name, except the caller-set gat.seed
    obj = json.loads(json.dumps(asdict(spec)))
    obj["seed"] = obj["gat"].pop("seed")
    assert cli.parse_model_config(obj) == spec
    sim = simgen.SimConfig()
    assert cli.parse_sim_config(json.loads(json.dumps({"version": 1, **asdict(sim)}))) == sim


@pytest.mark.parametrize("write", [
    lambda out: cli.write_manifest(out, "simulate", {}, 0, {}, time.time()),
    lambda out: out.write_text("dataset.csv", "id\n"),
], ids=["manifest", "output"])
def test_failed_write_leaves_no_temp_file(write, tmp_path, monkeypatch):
    out = cli.OutputDir(tmp_path / "out")

    def disk_full(path, text):
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", disk_full)
    with pytest.raises(OSError, match="disk full"):
        write(out)
    assert list(out.root.iterdir()) == []


class TestFitArtifacts:
    def test_mbg_fit_json_records_optimizer_trace(self, tmp_path, dataset_csv, fit_config):
        out = tmp_path / "out"
        assert fit_mbg(dataset_csv, fit_config, out) == cli.EXIT_OK
        fit = json.loads((out / "fit.json").read_text())
        trace = fit["optimizer"]["trace"]
        assert len(trace) == fit["optimizer"]["n_evaluations"] >= 2
        for entry in trace:
            assert set(entry) == {"params", "logml", "newton_iterations", "converged"}
            assert entry["converged"] is True
            assert 1 <= entry["newton_iterations"] < 20
        assert fit["converged"] is True

    def test_gat_only_writes_loss_trace(self, tmp_path, dataset_csv):
        config = tmp_path / "gat.json"
        config.write_text(json.dumps({"version": 1, "gat": {"epochs": 5, "widths": [4]}}))
        out = tmp_path / "out"
        code = cli.main([
            "fit", "--kind", "gat_only", "--dataset", str(dataset_csv),
            "--config", str(config), "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        rows = (out / "loss_trace.csv").read_text().splitlines()
        assert rows[0] == "epoch,loss"
        epochs, losses = zip(*(row.split(",") for row in rows[1:]))
        assert epochs == tuple(str(e) for e in range(5))
        fit = json.loads((out / "fit.json").read_text())
        assert float(losses[0]) == fit["initial_loss"]
        assert float(losses[-1]) == fit["final_loss"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert "loss_trace.csv" in manifest["outputs"]


class TestBadCheckpointExitsTwo:
    def test_checkpoint_from_wider_covariates(self, tmp_path, dataset_csv, capsys):
        narrow = simgen.simulate(simgen.SimConfig(
            n_times=2, locs_per_time=(10, 10), n_covariates=5, seed=4,
        ))
        narrow_csv = tmp_path / "narrow.csv"
        simgen.write_dataset_csv(narrow, narrow_csv)
        code, _, _ = fit_gat_then_hybrid(tmp_path, dataset_csv, narrow_csv)
        assert code == cli.EXIT_VALIDATION
        assert "checkpoint expects 13 node features, the dataset gives 8" in capsys.readouterr().err

    def test_checkpoint_with_zero_neighbors(self, tmp_path, dataset_csv, capsys):
        def zero_neighbors(payload):
            payload["extra"]["k_neighbors"] = 0

        code, _, _ = fit_gat_then_hybrid(tmp_path, dataset_csv, dataset_csv, zero_neighbors)
        assert code == cli.EXIT_VALIDATION
        assert "k_neighbors must be >= 1" in capsys.readouterr().err

    def test_checkpoint_with_fractional_neighbors(self, tmp_path, dataset_csv, capsys):
        def fractional_neighbors(payload):
            payload["extra"]["k_neighbors"] = 7.9

        code, _, _ = fit_gat_then_hybrid(tmp_path, dataset_csv, dataset_csv, fractional_neighbors)
        assert code == cli.EXIT_VALIDATION
        assert "checkpoint extra.k_neighbors must be an integer, got 7.9" in capsys.readouterr().err

    def test_checkpoint_with_non_finite_params(self, tmp_path, dataset_csv, capsys):
        def nan_param(payload):
            payload["params"][0] = float("nan")

        code, _, _ = fit_gat_then_hybrid(tmp_path, dataset_csv, dataset_csv, nan_param)
        assert code == cli.EXIT_VALIDATION
        assert "cannot load checkpoint: checkpoint params must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg.update(dropout=0.5), "are not the GatConfig fields"),
        (lambda cfg: cfg.pop("heads"), "are not the GatConfig fields"),
        (lambda cfg: cfg.update(heads="2"), 'checkpoint config.heads must be an integer, got "2"'),
        (lambda cfg: cfg.update(epochs=2.5), "checkpoint config.epochs must be an integer, got 2.5"),
    ], ids=["unknown_key", "missing_key", "string_heads", "fractional_epochs"])
    def test_checkpoint_config_not_a_gat_config(self, edit, message, tmp_path, dataset_csv, capsys):
        code, _, _ = fit_gat_then_hybrid(
            tmp_path, dataset_csv, dataset_csv, lambda payload: edit(payload["config"]),
        )
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "cannot load checkpoint" in err and message in err


    # each reshape keeps the parameter count, so the flat params still load
    @pytest.mark.parametrize("widths, layer, heads, width", [
        ((4,), 0, 8, 2),
        ((4, 4), 1, 2, 8),
    ], ids=["layer0_8x2", "layer1_2x8"])
    def test_checkpoint_shapes_not_its_config(self, widths, layer, heads, width,
                                              tmp_path, dataset_csv, capsys):
        def reshape_layer(payload):
            sh = payload["shapes"]["layers"][layer]
            sh["w"][:2] = sh["v"][:2] = sh["a"] = [heads, width]

        code, _, _ = fit_gat_then_hybrid(tmp_path, dataset_csv, dataset_csv, reshape_layer, widths)
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"cannot load checkpoint: checkpoint layer {layer} has shapes" in err
        assert "Traceback" not in err


class TestHybridFitMatchesInlineReference:
    def test_predictions_and_exported_field(self, tmp_path):
        data = simgen.simulate(simgen.SimConfig(n_times=3, locs_per_time=(15, 15), seed=8))
        assert len(data) == 45
        dataset = tmp_path / "dataset.csv"
        simgen.write_dataset_csv(data, dataset)
        code, checkpoint, config = fit_gat_then_hybrid(tmp_path, dataset, dataset)
        assert code == cli.EXIT_OK
        out = tmp_path / "hybrid"

        # the hybrid fit as the command wired it before it went through the pipeline
        data = simgen.read_dataset_csv(dataset)
        spec = cli.parse_model_config(json.loads(config.read_text()), name="hybrid", kind="hybrid")
        model, extra = gatv2.load_checkpoint(checkpoint)
        graph = gatv2.build_graph(data, gatv2.GraphConfig(
            k_neighbors=int(extra["k_neighbors"]), time_scale=float(extra["time_scale"]),
        ))
        preds, export, _ = gatv2.forward(model, graph)
        field = attnfield.build_field(export, len(data))
        template = geostat.ModelSpec(
            kind="hybrid", kernel=spec.kernel, offset=gatv2.logit_offset(preds),
            attention=(field, spec.attention_start),
        )
        result = geostat.optimize_hyperparameters(data, template, spec.optimizer, seed=5)
        want = geostat.predict_insample(result.fit, n_draws=spec.n_draws, seed=5, level=spec.level)

        got = geostat.read_prediction_csv(out / "predictions.csv")
        np.testing.assert_array_equal(got.ids, want.ids)
        for name in ("mean", "lo", "hi", "sd_linpred"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        attention = np.loadtxt(out / "attention.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(attention[:, 2], export.alpha_mean)
        np.testing.assert_array_equal(
            np.loadtxt(out / "field_structure.csv", delimiter=","), field.c,
        )
        np.testing.assert_array_equal(
            np.loadtxt(out / "field_degrees.csv", delimiter=","), field.degrees,
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["lambda_max"] == field.lam_max
        assert manifest["converged"] == bool(result.fit.converged)
        for name in ("field_structure.csv", "field_degrees.csv", "attention.csv",
                     "predictions.csv", "fit.json"):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert manifest["outputs"][name] == digest
