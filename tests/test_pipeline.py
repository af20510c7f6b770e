"""The one fit path: held-out fits and CV against the inline wiring, traced names."""

import importlib
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from geoattn import attnfield, cli, evalkit, gatv2, geostat, numkit, pipeline, simgen

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def specs():
    gat = gatv2.GatConfig(widths=(4,), epochs=3)
    common = dict(n_draws=50, gat=gat)
    return [
        pipeline.PipelineModelSpec(
            name="mbg", kind="mbg", **common,
            optimizer=geostat.OptimizerConfig(max_iter=2, bounds={"log_sigma2": (-3.0, 1.0)}),
        ),
        pipeline.PipelineModelSpec(
            name="hybrid", kind="hybrid", **common,
            optimizer=geostat.OptimizerConfig(max_iter=2, bounds={"theta2": (-15.0, 15.0)}),
        ),
        pipeline.PipelineModelSpec(
            name="gat_only", kind="gat_only", **common,
            optimizer=geostat.OptimizerConfig(max_iter=2),
        ),
    ]


def reference_fit_and_predict(train, test, spec, seed=0):
    """The mbg and hybrid branches of the held-out fit before the paths merged."""
    n_tr, n_te = len(train), len(test)

    def optimize(template):
        return geostat.optimize_hyperparameters(train, template, spec.optimizer, seed=seed)

    if spec.kind == "mbg":
        template = geostat.ModelSpec(
            kernel=spec.kernel, design=geostat.build_design(train),
        )
        result = optimize(template)
        pred = geostat.predict(result.fit, test, n_draws=spec.n_draws, seed=seed, level=spec.level)
        return pipeline.PipelineRun(prediction=pred, optimize=result)

    joint = pipeline.concat_datasets(train, test)
    mask = np.zeros(n_tr + n_te, dtype=bool)
    mask[:n_tr] = True
    graph = gatv2.build_graph(joint, spec.graph, train_mask=mask)
    model, _ = gatv2.train(graph, joint.empirical_prevalence, replace(spec.gat, seed=seed))
    preds, export, _ = gatv2.forward(model, graph)
    if spec.kind == "gat_only":
        return pipeline.PipelineRun(prediction=pipeline.gat_only_prediction(test.ids, preds[n_tr:]))

    joint_field = attnfield.build_field(export, n_tr + n_te)
    template = geostat.ModelSpec(
        kernel=spec.kernel, offset=gatv2.logit_offset(preds),
        attention=(joint_field, spec.attention_start),
    )
    result = optimize(template)
    pred = geostat.predict(result.fit, test, n_draws=spec.n_draws, seed=seed, level=spec.level)
    return pipeline.PipelineRun(prediction=pred, optimize=result)


def assert_same_prediction(got, want):
    for name in ("ids", "mean", "lo", "hi", "sd_linpred"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestHeldOutFitsMatchInlineReference:
    def make(self):
        data = simgen.simulate(simgen.SimConfig(n_times=3, locs_per_time=(17, 17), seed=21))
        assert len(data) == 51
        folds = evalkit.kmeans_spatial(np.column_stack([data.x, data.y]), 3, seed=2)
        return data, folds

    def test_one_split_every_kind(self):
        data, folds = self.make()
        test_mask = folds.cluster == 0
        train, test = data.subset(~test_mask), data.subset(test_mask)
        for spec in specs():
            got = pipeline.fit_and_predict(train, test, spec, seed=4)
            want = reference_fit_and_predict(train, test, spec, seed=4)
            assert_same_prediction(got.prediction, want.prediction)

    def test_held_out_hybrid_fits_the_joint_fields_marginal(self, monkeypatch):
        # one attention prior: the fit's A block is the leading block of the
        # joint field's Q^-1, from the one eigh that builds the joint field
        data, folds = self.make()
        test_mask = folds.cluster == 0
        train, test = data.subset(~test_mask), data.subset(test_mask)
        calls, eigh = [], attnfield.eigh

        def counted(a):
            calls.append(len(a))
            return eigh(a)

        monkeypatch.setattr(attnfield, "eigh", counted)
        run = pipeline.fit_and_predict(train, test, specs()[1], seed=4)
        n_tr = len(train)
        assert run.field.n_nodes == len(data)
        fit = run.optimize.fit
        sigma_a = geostat.prior_cov(fit.spec, train) - geostat.kernel_cov(fit.spec.kernel, train)
        sigma_a[np.diag_indices(n_tr)] -= numkit.DEFAULT_KERNEL_JITTER
        want = np.linalg.inv(attnfield.precision(run.field, fit.spec.attention[1]))[:n_tr, :n_tr]
        assert np.linalg.norm(sigma_a - want) <= 1e-10 * np.linalg.norm(want)
        assert calls == [len(data)]

    def test_cv_command_matches_reference_runner(self, tmp_path):
        data, folds = self.make()
        dataset = tmp_path / "dataset.csv"
        simgen.write_dataset_csv(data, dataset)
        spec_list = tmp_path / "specs.json"
        spec_list.write_text(json.dumps({"version": 1, "specs": [
            {"name": "mbg", "kind": "mbg", "n_draws": 50,
             "optimizer": {"max_iter": 2, "bounds": {"log_sigma2": [-3.0, 1.0]}}},
            {"name": "hybrid", "kind": "hybrid", "n_draws": 50,
             "gat": {"epochs": 3, "widths": [4]},
             "optimizer": {"max_iter": 2, "bounds": {"theta2": [-15.0, 15.0]}}},
            # the hybrid spec's network, so the command trains it once per fold
            {"name": "gat_only", "kind": "gat_only", "n_draws": 50,
             "gat": {"epochs": 3, "widths": [4]}},
        ]}))
        out = tmp_path / "cv"
        assert cli.main([
            "cv", "--dataset", str(dataset), "--specs", str(spec_list), "--k", "3",
            "--seed", "2", "--out", str(out),
        ]) == cli.EXIT_OK

        # the command reads the CSV back, so the reference does too; the
        # reference trains a network for every spec
        data = simgen.read_dataset_csv(dataset)
        reports = evalkit.spatial_cv(
            data, specs(), folds, runner=reference_fit_and_predict, seed=2,
        )
        for fold_id in range(3):
            written = json.loads((out / f"fold_{fold_id}_report.json").read_text())
            assert set(written) == {"mbg", "hybrid", "gat_only"}
            for rep in reports:
                assert written[rep.name] == rep.fold_entry(fold_id)
            # the fits that search parameters say whether the search converged
            assert {"newton_converged", "search_converged"} <= set(written["hybrid"])
            assert {"newton_converged", "search_converged"} <= set(written["mbg"])
            assert "search_converged" not in written["gat_only"]

    @pytest.mark.parametrize("edit, trainings", [
        ({}, 3),
        ({"gat": gatv2.GatConfig(widths=(4,), epochs=4)}, 6),
        ({"graph": gatv2.GraphConfig(k_neighbors=5)}, 6),
    ], ids=["same_network", "other_epochs", "other_neighbors"])
    def test_cv_trains_each_network_once_per_fold(self, edit, trainings, monkeypatch):
        data, folds = self.make()
        calls = []
        train = gatv2.train

        def counting_train(graph, targets, config):
            calls.append(config.seed)
            return train(graph, targets, config)

        monkeypatch.setattr(gatv2, "train", counting_train)
        mbg, hybrid, gat_only = specs()
        reports = evalkit.spatial_cv(
            data, [mbg, hybrid, replace(gat_only, **edit)], folds, seed=2,
        )
        assert all(rep.complete for rep in reports)
        assert len(calls) == trainings
        # each fold trains with its own seed
        assert sorted(set(calls)) == [2, 3, 4]


def test_cv_shares_each_fold_network_pass(monkeypatch):
    """The hybrid spec reads the gat_only spec's pass: one graph per fold,
    and the same predictions as a runner that rebuilds the graph."""
    data = simgen.simulate(simgen.SimConfig(n_times=3, locs_per_time=(17, 17), seed=21))
    folds = evalkit.kmeans_spatial(np.column_stack([data.x, data.y]), 3, seed=2)
    _, hybrid, gat_only = specs()
    builds = []
    build_graph = gatv2.build_graph

    def counting_build_graph(*args, **kwargs):
        builds.append(1)
        return build_graph(*args, **kwargs)

    monkeypatch.setattr(gatv2, "build_graph", counting_build_graph)
    runs = []
    fit_and_predict = pipeline.fit_and_predict

    def recording_fit_and_predict(*args, **kwargs):
        runs.append(fit_and_predict(*args, **kwargs))
        return runs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "fit_and_predict", recording_fit_and_predict)
        shared = evalkit.spatial_cv(data, [gat_only, hybrid], folds, seed=2)
    assert len(builds) == 3
    shared_runs = runs[3:]
    runs.clear()

    def rebuilding_runner(train, test, spec, seed):
        runs.append(fit_and_predict(train, test, spec, seed=seed))
        return runs[-1]

    rebuilt = evalkit.spatial_cv(data, [gat_only, hybrid], folds, runner=rebuilding_runner, seed=2)
    assert len(builds) == 3 + 6
    for got, want in zip(shared_runs, runs[3:], strict=True):
        assert_same_prediction(got.prediction, want.prediction)
    for got, want in zip(shared, rebuilt, strict=True):
        for fold_id in range(3):
            assert got.fold_entry(fold_id) == want.fold_entry(fold_id)


@pytest.mark.parametrize("kind, bounds, message", [
    ("mbg", {"theta2": (-1.0, 1.0)}, "bounds names 'theta2'"),
    ("hybrid", {}, "bounds is empty"),
    ("gat_only", {"log_tau": (-1.0, 1.0)}, "unknown bound name 'log_tau'"),
    ("gat_only", {"theta2": (1.0, 1.0)}, "bound 'theta2' must be finite with lo < hi"),
    ("mbg", {"log_sigma2": (-1.0, float("inf"))}, "bound 'log_sigma2' must be finite"),
])
def test_spec_checks_its_bounds(kind, bounds, message):
    with pytest.raises(ValueError, match=message):
        pipeline.PipelineModelSpec(
            name="m", kind=kind, optimizer=geostat.OptimizerConfig(bounds=bounds),
        )


def test_gat_only_spec_takes_any_known_bound():
    # a gat_only fit searches no parameter, so its bounds go unused
    optimizer = geostat.OptimizerConfig(bounds={"theta2": (-1.0, 1.0)})
    spec = pipeline.PipelineModelSpec(name="m", kind="gat_only", optimizer=optimizer)
    assert spec.optimizer.bounds == {"theta2": (-1.0, 1.0)}


def test_every_traced_name_is_a_callable():
    """The benchmark's tracer looks up each traced name with getattr."""
    loader = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    assert spans.TRACED
    for qual in spans.TRACED:
        module, attr = qual.split(".")
        value = getattr(importlib.import_module(f"geoattn.{module}"), attr, None)
        assert callable(value), qual
