"""Metrics, clustering, and the cross-validation harness."""

import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoattn import evalkit, simgen
from geoattn.errors import LengthMismatch, TooFewPoints, ZeroVariance
from geoattn.evalkit import (
    FoldAssignment,
    brier,
    coverage,
    kmeans_spatial,
    mae,
    pearson,
    rank_reports,
    rbs,
    score_predictions,
    spatial_cv,
)


def within_cluster_ss(coords, assign: FoldAssignment) -> float:
    """k-means objective: squared distances of the points to their cluster means."""
    total = 0.0
    for j in range(assign.n_clusters):
        pts = coords[assign.cluster == j]
        total += float(np.sum((pts - pts.mean(axis=0)) ** 2))
    return total


class TestMetricUnits:
    def test_perfect_prediction(self):
        y = np.array([0.1, 0.4, 0.9])
        assert brier(y, y) == 0.0
        assert mae(y, y) == 0.0
        assert rbs(y, y) == 0.0
        assert pearson(y, y) == pytest.approx(1.0)

    def test_constant_half_against_binary(self):
        y = np.array([0, 1, 1, 0, 1], dtype=float)
        assert brier(np.full(5, 0.5), y) == pytest.approx(0.25)

    def test_shift_invariance_of_pearson(self):
        y = np.array([0.2, 0.5, 0.8, 0.3])
        assert mae(y + 0.1, y) == pytest.approx(0.1)
        assert pearson(y + 0.1, y) == pytest.approx(1.0)

    def test_rbs_is_sqrt_brier(self):
        rng = np.random.default_rng(0)
        p, y = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
        assert rbs(p, y) ** 2 == pytest.approx(brier(p, y), abs=1e-12)

    def test_coverage_full_and_partial(self):
        y = np.array([0.2, 0.5, 0.8])
        assert coverage(np.zeros(3), np.ones(3), y) == 1.0
        assert coverage(np.array([0.0, 0.6, 0.0]), np.ones(3), y) == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            brier(np.zeros(3), np.zeros(4))
        with pytest.raises(LengthMismatch):
            coverage(np.zeros(3), np.zeros(3), np.zeros(2))

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            pearson(np.ones(5), np.arange(5.0))

    def test_lo_above_hi_rejected(self):
        with pytest.raises(ValueError):
            coverage(np.array([0.9]), np.array([0.1]), np.array([0.5]))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        p, y = rng.uniform(0, 1, 30), rng.uniform(0, 1, 30)
        perm = rng.permutation(30)
        assert brier(p, y) == pytest.approx(brier(p[perm], y[perm]), abs=1e-15)
        assert mae(p, y) == pytest.approx(mae(p[perm], y[perm]), abs=1e-15)
        assert pearson(p, y) == pytest.approx(pearson(p[perm], y[perm]), abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.3))
    @settings(max_examples=50, deadline=None)
    def test_coverage_monotone_in_width(self, seed, widen):
        rng = np.random.default_rng(seed)
        y = rng.uniform(0, 1, 40)
        lo = y - rng.uniform(0, 0.2, 40)
        hi = y + rng.uniform(0, 0.2, 40) - rng.uniform(0, 0.25, 40)
        hi = np.maximum(hi, lo)
        base = coverage(lo, hi, y)
        assert coverage(lo - widen, hi + widen, y) >= base


class TestScoreReport:
    def test_report_fields_and_per_time(self):
        rng = np.random.default_rng(3)
        t = np.repeat([1, 2, 3], 30)
        truth = rng.uniform(0.1, 0.4, 90)
        pred = truth + rng.normal(0, 0.02, 90)
        lo, hi = pred - 0.05, pred + 0.05
        rep = score_predictions(pred, truth, t=t, lo=lo, hi=hi)
        assert rep.rbs ** 2 == pytest.approx(rep.brier, abs=1e-12)
        assert set(rep.per_time) == {1, 2, 3}
        assert 0 <= rep.coverage95 <= 1
        assert rep.n_records == 90
        d = rep.to_dict()
        assert d["per_time"]["1"]["brier"] >= 0

    def test_zero_variance_prediction_yields_none_r(self):
        rep = score_predictions(np.full(4, 0.3), np.array([0.1, 0.2, 0.3, 0.4]))
        assert rep.pearson_r is None


class TestKmeans:
    def test_single_cluster(self):
        coords = np.random.default_rng(0).uniform(0, 1, (25, 2))
        out = kmeans_spatial(coords, 1, seed=3)
        assert out.n_clusters == 1
        assert np.all(out.cluster == 0)

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(5)
        a = rng.normal([0, 0], 0.05, (40, 2))
        b = rng.normal([5, 5], 0.05, (40, 2))
        coords = np.vstack([a, b])
        out = kmeans_spatial(coords, 2, seed=1)
        # brute-force check: every point is nearest its own centroid
        for i, c in enumerate(out.cluster):
            dists = np.linalg.norm(out.centroids - coords[i], axis=1)
            assert c == np.argmin(dists)
        # blob purity
        assert len(set(out.cluster[:40])) == 1
        assert len(set(out.cluster[40:])) == 1
        assert out.cluster[0] != out.cluster[40]

    def test_determinism(self):
        coords = np.random.default_rng(7).uniform(0, 1, (60, 2))
        a = kmeans_spatial(coords, 5, seed=11)
        b = kmeans_spatial(coords, 5, seed=11)
        np.testing.assert_array_equal(a.cluster, b.cluster)

    def test_too_few_points(self):
        coords = np.zeros((10, 2))
        with pytest.raises(TooFewPoints):
            kmeans_spatial(coords, 2, seed=0)

    def test_objective_nonincreasing(self):
        # run with increasing iteration caps; WCSS must not increase
        coords = np.random.default_rng(13).uniform(0, 1, (80, 2))
        values = [
            within_cluster_ss(coords, kmeans_spatial(coords, 4, seed=2, max_iter=it))
            for it in (1, 2, 3, 5, 10, 50)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_records_at_same_location_share_fold(self):
        coords = np.array([[0.1, 0.1], [0.9, 0.9], [0.1, 0.1], [0.5, 0.5]])
        out = kmeans_spatial(coords, 2, seed=0)
        assert out.cluster[0] == out.cluster[2]


class FakeSpec:
    def __init__(self, name, bias=0.0, fail_fold=None, tag=""):
        self.name = name
        self.tag = tag
        self.bias = bias
        self.fail_fold = fail_fold


def fake_runner(train, test, spec, seed=0):
    if spec.fail_fold is not None and seed % 100 == spec.fail_fold:
        raise RuntimeError("synthetic failure")
    from geoattn.evalkit import Prediction

    mean = np.clip(test.empirical_prevalence + spec.bias, 0, 1)
    return SimpleNamespace(optimize=None, prediction=Prediction(
        ids=test.ids, mean=mean, lo=mean, hi=mean, sd_linpred=np.zeros(len(test)),
    ))


class ConstSpec:
    """A spec whose runner predicts ``mean`` with the interval [lo, hi] everywhere."""

    name, tag = "const", ""

    def __init__(self, mean, lo=None, hi=None):
        self.mean = mean
        self.lo = mean if lo is None else lo
        self.hi = mean if hi is None else hi


def const_runner(train, test, spec, seed=0):
    from geoattn.evalkit import Prediction

    full = lambda value: np.full(len(test), value)
    return SimpleNamespace(optimize=None, prediction=Prediction(
        ids=test.ids, mean=full(spec.mean), lo=full(spec.lo), hi=full(spec.hi),
        sd_linpred=full(0.0),
    ))


class TestSpatialCv:
    def make(self, seed=0):
        data = simgen.simulate(
            simgen.SimConfig(n_times=3, locs_per_time=(30, 40), seed=seed)
        )
        folds = kmeans_spatial(np.column_stack([data.x, data.y]), 5, seed=1)
        return data, folds

    def test_partition_accounting(self):
        data, folds = self.make()
        reports = spatial_cv(
            data, [FakeSpec("perfect"), FakeSpec("biased", bias=0.05)],
            folds, runner=fake_runner,
        )
        for rep in reports:
            assert rep.pooled_records == len(data)
            assert rep.complete
        by_name = {r.name: r for r in reports}
        assert by_name["perfect"].pooled.rbs == pytest.approx(0.0, abs=1e-12)
        assert by_name["biased"].pooled.rbs == pytest.approx(0.05, abs=1e-6)

    def test_failed_fold_marks_incomplete(self):
        data, folds = self.make()
        reports = spatial_cv(
            data, [FakeSpec("flaky", fail_fold=2), FakeSpec("solid")],
            folds, runner=fake_runner,
        )
        by_name = {r.name: r for r in reports}
        assert not by_name["flaky"].complete
        assert 2 in by_name["flaky"].errors
        assert by_name["flaky"].pooled_records < len(data)
        assert by_name["solid"].complete

    def test_ranking_sorted_and_tagged(self):
        data, folds = self.make()
        reports = spatial_cv(
            data,
            [
                FakeSpec("worse", bias=0.1, tag="coarse"),
                FakeSpec("better", bias=0.01, tag="fine"),
            ],
            folds, runner=fake_runner,
        )
        rows = rank_reports(reports)
        assert [r["spec"] for r in rows] == ["better", "worse"]
        assert rows[0]["rank_rbs"] == 1 and rows[1]["rank_rbs"] == 2
        assert rows[0]["tag"] == "fine"

    def test_csv_outputs_quote_names_with_commas(self, tmp_path):
        data, folds = self.make()
        reports = spatial_cv(
            data, [FakeSpec("m,bg", bias=0.01, tag="a,b"), FakeSpec("plain", bias=0.1)],
            folds, runner=fake_runner,
        )
        rows = rank_reports(reports)
        path = tmp_path / "ranking.csv"
        evalkit.write_ranking_csv(rows, path)
        with path.open(newline="") as fh:
            back = list(csv.DictReader(fh))
        assert [(r["spec"], r["tag"], r["rank_rbs"]) for r in back] == [
            ("m,bg", "a,b", "1"), ("plain", "", "2"),
        ]
        assert float(back[0]["rbs"]) == rows[0]["rbs"]
        # fields that need no quoting are written as before
        plain = rows[1]
        assert path.read_text().splitlines()[2] == f"plain,,{plain['rbs']!r},{plain['mae']!r},2,2,1"

        pooled = reports[0].pooled
        text = evalkit.csv_text(
            [evalkit.METRICS_CSV_HEADER, *evalkit.report_csv_rows("m,bg", "-", pooled)],
        )
        back = list(csv.DictReader(io.StringIO(text)))
        assert len(back) == 1 + len(pooled.per_time)
        assert {r["spec"] for r in back} == {"m,bg"}
        assert float(back[0]["rbs"]) == pooled.rbs
        assert [r["pearson_r"] for r in back[1:]] == [""] * len(pooled.per_time)

    def test_noise_floor_on_constant_prevalence(self):
        # delta = 0, beta = 0: truth is flat, so a constant predictor's rbs
        # against empirical prevalence is pure binomial sampling noise
        data = simgen.simulate(simgen.SimConfig(
            n_times=3, locs_per_time=(40, 50), seed=9,
            delta=0.0, beta=(0.0,) * 10,
        ))
        p0 = float(data.true_p[0])
        folds = kmeans_spatial(np.column_stack([data.x, data.y]), 2, seed=3)
        reports = spatial_cv(data, [ConstSpec(p0)], folds, runner=const_runner)
        floor = np.sqrt(p0 * (1 - p0) / data.n_tested.mean())
        assert reports[0].pooled.rbs == pytest.approx(floor, rel=0.2)

    def test_intervals_are_scored_per_fold_and_pooled(self):
        data, folds = self.make()
        reports = spatial_cv(data, [ConstSpec(0.3, lo=0.2, hi=0.4)], folds, runner=const_runner)
        emp = data.empirical_prevalence
        inside = (emp >= 0.2) & (emp <= 0.4)
        assert 0 < inside.mean() < 1
        rep = reports[0]
        assert rep.pooled.coverage95 == pytest.approx(inside.mean())
        assert set(rep.per_fold) == set(range(folds.n_clusters))
        for fold_id, fold in rep.per_fold.items():
            held_out = inside[folds.cluster == fold_id]
            assert fold.coverage95 == pytest.approx(held_out.mean())
            assert fold.to_dict()["coverage95"] == pytest.approx(held_out.mean())
