"""End-to-end wiring: graph + network training + attention field + fits.

One :class:`PipelineModelSpec` describes everything needed to fit one model
kind on a training slice and predict held-out records; cross-validation and
the command-line front end both run through :func:`fit_and_predict` /
:func:`run_insample`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import attnfield, gatv2, geostat
from .simgen import Dataset


@dataclass(frozen=True)
class PipelineModelSpec:
    """Named configuration for one model in a comparison or CV run."""

    name: str
    kind: str  # 'mbg' | 'gat_only' | 'hybrid'
    tag: str = ""
    k_neighbors: int = gatv2.DEFAULT_K_NEIGHBORS
    time_scale: float = gatv2.DEFAULT_TIME_SCALE
    gat: gatv2.GatConfig = field(default_factory=gatv2.GatConfig)
    kernel: geostat.KernelSpec = field(default_factory=geostat.KernelSpec)
    attn_start: attnfield.AttnHyper = field(default_factory=attnfield.AttnHyper)
    bounds: dict | None = None
    restarts: int = 1
    nm_max_iter: int = 150
    n_draws: int = 2000
    level: float = 0.95

    def __post_init__(self):
        if self.kind not in geostat.MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if not (np.isfinite(self.time_scale) and self.time_scale >= 0):
            raise ValueError("time_scale must be finite and >= 0")
        if self.n_draws < 1:
            raise ValueError("n_draws must be >= 1")
        if not (0.0 < self.level < 1.0):
            raise ValueError("level must lie in (0, 1)")


def concat_datasets(a: Dataset, b: Dataset) -> Dataset:
    """Stack two slices of the same dataset (train first, then predict)."""
    if a.n_cov != b.n_cov:
        raise ValueError("covariate dimension mismatch")
    cat = np.concatenate
    take = lambda fa, fb: None if fa is None or fb is None else cat([fa, fb])
    return Dataset(
        ids=cat([a.ids, b.ids]),
        x=cat([a.x, b.x]),
        y=cat([a.y, b.y]),
        t=cat([a.t, b.t]),
        n_tested=cat([a.n_tested, b.n_tested]),
        n_pos=cat([a.n_pos, b.n_pos]),
        covariates=np.vstack([a.covariates, b.covariates]),
        true_p=take(a.true_p, b.true_p),
        true_s=take(a.true_s, b.true_s),
        beta=a.beta,
    )


@dataclass
class GatArtifacts:
    model: gatv2.GatModel
    graph: gatv2.GraphSpec
    preds: np.ndarray
    export: gatv2.AttentionExport
    loss_trace: np.ndarray


def train_gat(
    joint: Dataset,
    train_mask: np.ndarray,
    spec: PipelineModelSpec,
    seed: int,
) -> GatArtifacts:
    """Transductive training: predict-role nodes join message passing only."""
    graph = gatv2.build_graph(
        joint, k_neighbors=spec.k_neighbors, time_scale=spec.time_scale,
        train_mask=train_mask,
    )
    config = replace(spec.gat, seed=seed)
    model, trace = gatv2.train(graph, joint.empirical_prevalence, config)
    preds, export, _ = gatv2.forward(model, graph)
    return GatArtifacts(model=model, graph=graph, preds=preds, export=export, loss_trace=trace)


def _optimize(data, template, spec: PipelineModelSpec, seed: int):
    return geostat.optimize_hyperparameters(
        data, template,
        bounds=spec.bounds,
        restarts=spec.restarts,
        seed=seed,
        max_iter=spec.nm_max_iter,
    )


def fit_and_predict(
    train: Dataset,
    test: Dataset,
    spec: PipelineModelSpec,
    seed: int = 0,
) -> geostat.Prediction:
    """Fit on ``train`` and predict prevalence at ``test`` records."""
    n_tr, n_te = len(train), len(test)
    if spec.kind == "mbg":
        template = geostat.ModelSpec(
            kind="mbg", kernel=spec.kernel, design=geostat.build_design(train),
        )
        result = _optimize(train, template, spec, seed)
        return geostat.predict(
            result.fit, test, n_draws=spec.n_draws, seed=seed, level=spec.level,
        )

    joint = concat_datasets(train, test)
    mask = np.zeros(n_tr + n_te, dtype=bool)
    mask[:n_tr] = True
    gat = train_gat(joint, mask, spec, seed)

    if spec.kind == "gat_only":
        return geostat.gat_only_prediction(test.ids, gat.preds[n_tr:])

    joint_field = attnfield.build_field(gat.export, n_tr + n_te)
    train_field = attnfield.restrict_field(joint_field, np.arange(n_tr))
    offsets = gatv2.logit_offset(gat.preds)
    template = geostat.ModelSpec(
        kind="hybrid",
        kernel=spec.kernel,
        offset=offsets[:n_tr],
        attention=(train_field, spec.attn_start),
    )
    result = _optimize(train, template, spec, seed)
    return geostat.predict(
        result.fit, test,
        n_draws=spec.n_draws, seed=seed, level=spec.level,
        new_offsets=offsets[n_tr:],
        joint_field=joint_field,
        obs_nodes=np.arange(n_tr),
        new_nodes=np.arange(n_tr, n_tr + n_te),
    )


@dataclass
class InsampleRun:
    """Fit on the whole dataset with predictions at the fitted records."""

    spec: PipelineModelSpec
    prediction: geostat.Prediction
    fit: geostat.FitResult | None = None
    optimize: geostat.OptimizeResult | None = None
    gat: GatArtifacts | None = None
    field: attnfield.AttentionField | None = None


def run_insample(data: Dataset, spec: PipelineModelSpec, seed: int = 0) -> InsampleRun:
    """Full-data fit of one model with predictions at the observed records."""
    n = len(data)
    if spec.kind == "mbg":
        template = geostat.ModelSpec(
            kind="mbg", kernel=spec.kernel, design=geostat.build_design(data),
        )
        result = _optimize(data, template, spec, seed)
        pred = geostat.predict_insample(
            result.fit, n_draws=spec.n_draws, seed=seed, level=spec.level,
        )
        return InsampleRun(spec=spec, prediction=pred, fit=result.fit, optimize=result)

    gat = train_gat(data, np.ones(n, dtype=bool), spec, seed)
    if spec.kind == "gat_only":
        pred = geostat.gat_only_prediction(data.ids, gat.preds)
        return InsampleRun(spec=spec, prediction=pred, gat=gat)

    fld = attnfield.build_field(gat.export, n)
    offsets = gatv2.logit_offset(gat.preds)
    template = geostat.ModelSpec(
        kind="hybrid", kernel=spec.kernel, offset=offsets,
        attention=(fld, spec.attn_start),
    )
    result = _optimize(data, template, spec, seed)
    pred = geostat.predict_insample(
        result.fit, n_draws=spec.n_draws, seed=seed, level=spec.level,
    )
    return InsampleRun(
        spec=spec, prediction=pred, fit=result.fit, optimize=result, gat=gat, field=fld,
    )
