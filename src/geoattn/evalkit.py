"""Predictions and their CSV files, evaluation metrics, spatial clustering
and spatial cross-validation.

This module loads numpy alone, so ``geoattn evaluate`` runs without scipy.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import LengthMismatch, TooFewPoints, ZeroVariance
from .numkit import RngStream
from .simgen import Dataset, check_unique_ids

_STREAM_KMEANS = 301  # stream id reserved for clustering initialization


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------

@dataclass
class Prediction:
    """Per-record predictive summaries of prevalence."""

    ids: np.ndarray
    mean: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    sd_linpred: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def write_prediction_csv(pred: Prediction, path: str | Path) -> None:
    lines = ["id,mean,lo95,hi95,sd_linpred"]
    for i in range(len(pred)):
        lines.append(
            f"{int(pred.ids[i])},{repr(float(pred.mean[i]))},{repr(float(pred.lo[i]))},"
            f"{repr(float(pred.hi[i]))},{repr(float(pred.sd_linpred[i]))}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_prediction_csv(path: str | Path) -> Prediction:
    """Prediction from a CSV written by :func:`write_prediction_csv`.

    Raises ValueError naming the data row (1-based, after the header) that
    has the wrong number of fields, a value that does not parse, a
    non-finite value or lo95 > hi95, and both rows when two rows share an id.
    """
    rows = Path(path).read_text().strip().splitlines()
    if not rows or rows[0] != "id,mean,lo95,hi95,sd_linpred":
        raise ValueError("not a prediction CSV")
    if len(rows) == 1:
        raise ValueError("prediction CSV has no rows")
    ids = np.empty(len(rows) - 1, dtype=int)
    data = np.empty((len(rows) - 1, 4))
    for k, row in enumerate(rows[1:], start=1):
        fields = row.split(",")
        if len(fields) != 5:
            raise ValueError(f"prediction CSV row {k} has {len(fields)} fields, expected 5")
        try:
            ids[k - 1] = int(fields[0])
            data[k - 1] = [float(v) for v in fields[1:]]
        except ValueError as err:
            raise ValueError(f"prediction CSV row {k}: {err}") from None
        if not np.all(np.isfinite(data[k - 1])):
            raise ValueError(f"prediction CSV row {k} has a non-finite value")
        if data[k - 1, 1] > data[k - 1, 2]:
            raise ValueError(f"prediction CSV row {k} has lo95 > hi95")
    check_unique_ids(ids, "prediction CSV")
    return Prediction(
        ids=ids, mean=data[:, 0], lo=data[:, 1],
        hi=data[:, 2], sd_linpred=data[:, 3],
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _paired(pred, truth):
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise LengthMismatch(f"length mismatch: {pred.shape} vs {truth.shape}")
    return pred, truth


def brier(pred, truth) -> float:
    """Mean squared error of probabilistic predictions."""
    pred, truth = _paired(pred, truth)
    return float(np.mean((pred - truth) ** 2))


def rbs(pred, truth) -> float:
    """Root Brier score: same scale as the observations."""
    return float(np.sqrt(brier(pred, truth)))


def mae(pred, truth) -> float:
    pred, truth = _paired(pred, truth)
    return float(np.mean(np.abs(pred - truth)))


def pearson(pred, truth) -> float:
    pred, truth = _paired(pred, truth)
    pc = pred - pred.mean()
    tc = truth - truth.mean()
    denom = np.sqrt((pc @ pc) * (tc @ tc))
    if denom == 0.0:
        raise ZeroVariance("correlation undefined: an input has zero variance")
    return float(pc @ tc / denom)


def coverage(lo, hi, truth) -> float:
    """Fraction of truth values falling inside [lo, hi]."""
    lo, truth = _paired(lo, truth)
    hi, _ = _paired(hi, truth)
    if np.any(lo > hi):
        raise ValueError("need lo <= hi elementwise")
    return float(np.mean((truth >= lo) & (truth <= hi)))


@dataclass
class MetricReport:
    """Scores for one prediction set, with a per-time breakdown."""

    brier: float
    rbs: float
    mae: float
    coverage95: float | None
    pearson_r: float | None
    per_time: dict[int, dict[str, float]] = field(default_factory=dict)
    n_records: int = 0

    def to_dict(self) -> dict:
        return {
            "brier": self.brier,
            "rbs": self.rbs,
            "mae": self.mae,
            "coverage95": self.coverage95,
            "pearson_r": self.pearson_r,
            "n_records": self.n_records,
            "per_time": {str(k): v for k, v in sorted(self.per_time.items())},
        }


def score_predictions(
    pred_mean: np.ndarray,
    truth: np.ndarray,
    t: np.ndarray | None = None,
    lo: np.ndarray | None = None,
    hi: np.ndarray | None = None,
) -> MetricReport:
    """All metrics at once; interval and correlation parts are optional."""
    b = brier(pred_mean, truth)
    cov = None if lo is None or hi is None else coverage(lo, hi, truth)
    try:
        r = pearson(pred_mean, truth)
    except ZeroVariance:
        r = None
    per_time = {}
    if t is not None:
        for ti in np.unique(t):
            sel = t == ti
            entry = {
                "brier": brier(pred_mean[sel], truth[sel]),
                "rbs": rbs(pred_mean[sel], truth[sel]),
                "mae": mae(pred_mean[sel], truth[sel]),
            }
            if cov is not None:
                entry["coverage95"] = coverage(lo[sel], hi[sel], truth[sel])
            per_time[int(ti)] = entry
    return MetricReport(
        brier=b,
        rbs=float(np.sqrt(b)),
        mae=mae(pred_mean, truth),
        coverage95=cov,
        pearson_r=r,
        per_time=per_time,
        n_records=len(np.asarray(pred_mean)),
    )


# ---------------------------------------------------------------------------
# Spatial clustering
# ---------------------------------------------------------------------------

@dataclass
class FoldAssignment:
    cluster: np.ndarray  # (n,) int cluster id per record
    n_clusters: int
    centroids: np.ndarray | None = None

    def __post_init__(self):
        counts = np.bincount(self.cluster, minlength=self.n_clusters)
        if np.any(counts == 0):
            raise ValueError("every cluster must be nonempty")


def kmeans_spatial(
    coords: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
) -> FoldAssignment:
    """Lloyd's algorithm on (x, y) with seeded kmeans++ initialization.

    Time is deliberately ignored: folds partition locations, so records
    sharing a location land in the same fold. Empty clusters are repaired
    by splitting the largest cluster at its farthest member. Deterministic
    given the seed.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError("coords must be (n, 2)")
    n = len(coords)
    distinct = len(np.unique(coords, axis=0))
    if k < 1:
        raise TooFewPoints(f"k={k}: need at least one cluster")
    if k > distinct:
        raise TooFewPoints(f"k={k} exceeds the {distinct} distinct coordinates")

    rng = RngStream(seed, _STREAM_KMEANS)

    # kmeans++ seeding
    centroids = np.empty((k, 2))
    first = int(rng.integers(0, n - 1))
    centroids[0] = coords[first]
    d2 = np.sum((coords - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = coords[int(rng.integers(0, n - 1))]
        else:
            r = rng.uniform(0.0, 1.0) * total
            centroids[j] = coords[int(np.searchsorted(np.cumsum(d2), r))]
        d2 = np.minimum(d2, np.sum((coords - centroids[j]) ** 2, axis=1))

    assign = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        dists = np.sum((coords[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(dists, axis=1)

        # repair empty clusters: move the farthest point out of the largest
        counts = np.bincount(new_assign, minlength=k)
        for empty in np.where(counts == 0)[0]:
            big = int(np.argmax(counts))
            members = np.where(new_assign == big)[0]
            far = members[np.argmax(dists[members, big])]
            new_assign[far] = empty
            counts = np.bincount(new_assign, minlength=k)

        for j in range(k):
            centroids[j] = coords[new_assign == j].mean(axis=0)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return FoldAssignment(cluster=assign, n_clusters=k, centroids=centroids)


# ---------------------------------------------------------------------------
# Spatial cross-validation
# ---------------------------------------------------------------------------

@dataclass
class CvSpecReport:
    """Per-fold and pooled scores for one model spec."""

    name: str
    tag: str
    per_fold: dict[int, MetricReport]
    pooled: MetricReport | None
    complete: bool
    errors: dict[int, str] = field(default_factory=dict)
    pooled_records: int = 0
    convergence: dict[int, dict[str, bool]] = field(default_factory=dict)  # fold -> flags

    def fold_entry(self, fold_id: int) -> dict | None:
        """The fold's report entry: its metrics and, for a fold whose fit
        searched parameters, the convergence flags; its error when it
        failed; None when this spec has no such fold."""
        if fold_id in self.per_fold:
            return {**self.per_fold[fold_id].to_dict(), **self.convergence.get(fold_id, {})}
        if fold_id in self.errors:
            return {"error": self.errors[fold_id]}
        return None


def spatial_cv(
    data: Dataset,
    specs: list,
    folds: FoldAssignment,
    runner=None,
    seed: int = 0,
) -> list[CvSpecReport]:
    """Fit each spec on out-of-fold records and score held-out predictions.

    Specs and folds run one at a time, in spec order and then fold order.
    Scores use the held-out records' empirical prevalence (truth columns are
    never consulted here); ``coverage95`` is that of the predictions'
    ``lo``/``hi`` intervals, zero-width ones included. ``runner(train, test,
    spec, seed)`` must return a run like :class:`pipeline.PipelineRun`: its
    ``prediction`` has ``ids``, ``mean``, ``lo`` and ``hi`` aligned to the
    test records, and its ``optimize`` is the parameter search's result, or
    None for a fit that searched nothing. The default runner is the full
    pipeline. A failed fold marks that spec's report incomplete instead of
    aborting the run.

    The default runner runs each fold's network once per distinct network
    setting (its ``gat`` and ``graph`` configs): it builds the fold's graph,
    trains the network and runs it forward. Every other gat_only or hybrid
    spec with the same setting reuses that pass, its model, predictions and
    attention export, and builds no graph. The fold seed ``seed + fold_id``
    replaces the ``gat`` seed, as in training, so it also identifies the
    fold's training and held-out records within the call.
    """
    if runner is None:
        from .pipeline import fit_and_predict  # avoids an import cycle

        passes = {}  # (gat config with the fold seed, graph config) -> GatArtifacts

        def runner(train, test, spec, seed):
            # mbg ignores the pass and runs no network, so it stores nothing
            key = (replace(spec.gat, seed=seed), spec.graph)
            run = fit_and_predict(train, test, spec, seed=seed, gat=passes.get(key))
            if run.gat is not None:
                passes[key] = run.gat
            return run

    if len(folds.cluster) != len(data):
        raise ValueError("fold assignment must cover every record")

    reports = []
    for spec in specs:
        per_fold: dict[int, MetricReport] = {}
        errors: dict[int, str] = {}
        convergence: dict[int, dict[str, bool]] = {}
        scored = []  # score_predictions' (mean, truth, t, lo, hi) of each scored fold
        for fold_id in range(folds.n_clusters):
            test_mask = folds.cluster == fold_id
            test = data.subset(test_mask)
            try:
                run = runner(data.subset(~test_mask), test, spec, seed=seed + fold_id)
            except Exception as err:  # noqa: BLE001 - per-fold failures are recorded
                errors[fold_id] = f"{type(err).__name__}: {err}"
                continue
            pred = run.prediction
            if run.optimize is not None:
                convergence[fold_id] = run.optimize.convergence()
            del run  # a fit holds dense n x n arrays: free them before the next fold
            scored.append((pred.mean, test.empirical_prevalence, test.t, pred.lo, pred.hi))
            per_fold[fold_id] = score_predictions(*scored[-1])
        pooled = None
        n_pooled = 0
        if scored:
            pooled = score_predictions(*(np.concatenate(col) for col in zip(*scored)))
            n_pooled = pooled.n_records
        reports.append(CvSpecReport(
            name=spec.name,
            tag=getattr(spec, "tag", ""),
            per_fold=per_fold,
            pooled=pooled,
            complete=not errors,
            errors=errors,
            pooled_records=n_pooled,
            convergence=convergence,
        ))
    return reports


def rank_reports(reports: list[CvSpecReport]) -> list[dict]:
    """Ranking rows sorted by pooled rbs (ties by mae, then name)."""
    scored = [r for r in reports if r.pooled is not None]
    by_rbs = sorted(scored, key=lambda r: (r.pooled.rbs, r.pooled.mae, r.name))
    by_mae = sorted(scored, key=lambda r: (r.pooled.mae, r.pooled.rbs, r.name))
    mae_rank = {r.name: i + 1 for i, r in enumerate(by_mae)}
    rows = []
    for i, rep in enumerate(by_rbs):
        rows.append({
            "spec": rep.name,
            "tag": rep.tag,
            "rbs": rep.pooled.rbs,
            "mae": rep.pooled.mae,
            "rank_rbs": i + 1,
            "rank_mae": mae_rank[rep.name],
            "complete": rep.complete,
        })
    return rows


def csv_text(rows) -> str:
    """CSV of ``rows`` (lists of fields), quoting fields that need it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def write_ranking_csv(rows: list[dict], path: str | Path) -> None:
    lines = [("spec", "tag", "rbs", "mae", "rank_rbs", "rank_mae", "complete")]
    lines += [
        (row["spec"], row["tag"], repr(float(row["rbs"])), repr(float(row["mae"])),
         row["rank_rbs"], row["rank_mae"], int(row["complete"]))
        for row in rows
    ]
    Path(path).write_text(csv_text(lines))


METRICS_CSV_HEADER = ("spec", "fold", "time", "brier", "rbs", "mae", "coverage95", "pearson_r")


def report_csv_rows(spec_name: str, fold: str, report: MetricReport) -> list[tuple]:
    """Metrics CSV rows, one per (spec, fold, time) plus an all-times row."""
    def fmt(v):
        return "" if v is None else repr(float(v))

    rows = [(spec_name, fold, "all", fmt(report.brier), fmt(report.rbs),
             fmt(report.mae), fmt(report.coverage95), fmt(report.pearson_r))]
    for t, entry in sorted(report.per_time.items()):
        rows.append((spec_name, fold, t, fmt(entry.get("brier")), fmt(entry.get("rbs")),
                     fmt(entry.get("mae")), fmt(entry.get("coverage95")), ""))
    return rows
