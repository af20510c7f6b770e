"""Command-line front end: bad inputs exit with code 2, fit artifacts."""

import json

import pytest

from geoattn import cli, simgen


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


def rewrite_row(path, row, edit):
    lines = path.read_text().splitlines()
    lines[row] = edit(lines[row].split(","))
    path.write_text("\n".join(lines) + "\n")


def fit_mbg(dataset, config, out):
    return cli.main([
        "fit", "--kind", "mbg", "--dataset", str(dataset),
        "--config", str(config), "--out", str(out),
    ])


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


BAD_MODEL_CONFIGS = {
    "zero_draws": ({"n_draws": 0}, "n_draws must be >= 1"),
    "level_above_one": ({"level": 1.5}, "level must lie in (0, 1)"),
    "empty_bound": (
        {"optimizer": {"bounds": {"log_sigma2": [1.0, 1.0]}}}, "lo < hi",
    ),
    "matern_nu_without_closed_form": (
        {"kernel": {"family": "matern", "nu": 1.0}}, "matern nu must be one of",
    ),
    "zero_epochs": ({"gat": {"epochs": 0}}, "epochs must be >= 1"),
    "negative_epochs": ({"gat": {"epochs": -3}}, "epochs must be >= 1"),
    "zero_width_layer": ({"gat": {"widths": [0]}}, "layer widths must be >= 1"),
    "negative_learning_rate": (
        {"gat": {"learning_rate": -1.0}}, "learning_rate must be positive",
    ),
    "zero_neighbors": ({"graph": {"k_neighbors": 0}}, "k_neighbors must be >= 1"),
    "nan_time_scale": ({"graph": {"time_scale": float("nan")}}, "time_scale must be finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_MODEL_CONFIGS))
def test_bad_model_config_exits_two(case, tmp_path, dataset_csv, capsys):
    edit, message = BAD_MODEL_CONFIGS[case]
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"version": 1, "n_draws": 50, **edit}))
    assert fit_mbg(dataset_csv, config, tmp_path / "out") == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


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
