"""End-to-end wiring: graph + network training + attention field + fits.

One :class:`PipelineModelSpec` describes everything needed to fit one model
kind. :func:`fit_and_predict` is the only place a spec becomes a fit: it
trains the GATv2 network (or runs a given trained one), turns its
predictions into a logit offset and its attention into a GMRF prior, fits
the latent Gaussian model, and predicts at held-out records or, with none,
at the training records. Cross-validation calls it once per fold; the
command-line ``fit`` goes through :func:`run_insample`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import attnfield, gatv2, geostat
from .simgen import Dataset


MODEL_KINDS = ("mbg", "gat_only", "hybrid")


@dataclass(frozen=True)
class PipelineModelSpec:
    """Named configuration for one model in a comparison or CV run."""

    name: str
    kind: str  # 'mbg' | 'gat_only' | 'hybrid'
    tag: str = ""
    graph: gatv2.GraphConfig = field(default_factory=gatv2.GraphConfig)
    gat: gatv2.GatConfig = field(default_factory=gatv2.GatConfig)
    kernel: geostat.KernelSpec = field(default_factory=geostat.KernelSpec)
    attention_start: attnfield.AttnHyper = field(default_factory=attnfield.AttnHyper)
    optimizer: geostat.OptimizerConfig = field(default_factory=geostat.OptimizerConfig)
    n_draws: int = 2000
    level: float = 0.95

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {', '.join(MODEL_KINDS)}, got {self.kind!r}")
        if self.n_draws < 1:
            raise ValueError("n_draws must be >= 1")
        if not (0.0 < self.level < 1.0):
            raise ValueError("level must lie in (0, 1)")
        # bad bounds are refused before anything is fitted
        geostat.searched_params(self.optimizer.bounds, self.kind, self.kernel.family)


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
    loss_trace: np.ndarray | None  # None when a trained model was given


def train_gat(
    joint: Dataset,
    train_mask: np.ndarray,
    spec: PipelineModelSpec,
    seed: int,
    model: gatv2.GatModel | None = None,
) -> GatArtifacts:
    """Transductive training: predict-role nodes join message passing only.

    A given trained ``model`` is run on the graph instead of training one.
    """
    graph = gatv2.build_graph(joint, spec.graph, train_mask=train_mask)
    trace = None
    if model is None:
        config = replace(spec.gat, seed=seed)
        model, trace = gatv2.train(graph, joint.empirical_prevalence, config)
    preds, export, _ = gatv2.forward(model, graph)
    return GatArtifacts(model=model, graph=graph, preds=preds, export=export, loss_trace=trace)


def gat_only_prediction(ids: np.ndarray, preds: np.ndarray) -> geostat.Prediction:
    """Degenerate-interval prediction for a bare network regressor."""
    p = gatv2.clamp_prevalence(np.asarray(preds, float))
    return geostat.Prediction(
        ids=np.asarray(ids), mean=p, lo=p.copy(), hi=p.copy(),
        sd_linpred=np.zeros(len(p)),
    )


@dataclass
class PipelineRun:
    """One fit: the predictions and what was fitted on the way to them."""

    prediction: geostat.Prediction
    optimize: geostat.OptimizeResult | None = None  # mbg and hybrid
    gat: GatArtifacts | None = None                 # gat_only and hybrid
    field: attnfield.AttentionField | None = None   # hybrid: over train + test records


def fit_and_predict(
    train: Dataset,
    test: Dataset | None,
    spec: PipelineModelSpec,
    seed: int = 0,
    model: gatv2.GatModel | None = None,
) -> PipelineRun:
    """Fit on ``train`` and predict prevalence at ``test`` records.

    With ``test`` None the predictions are at the ``train`` records. A given
    trained ``model`` stands in for training the network (mbg has none).
    """
    n_tr = len(train)
    gat = fld = offsets = None
    if spec.kind == "mbg":
        template = geostat.ModelSpec(
            kind="mbg", kernel=spec.kernel, design=geostat.build_design(train),
        )
    else:
        joint = train if test is None else concat_datasets(train, test)
        n_joint = len(joint)
        gat = train_gat(joint, np.arange(n_joint) < n_tr, spec, seed, model)
        if spec.kind == "gat_only":
            new = slice(None) if test is None else slice(n_tr, None)
            pred = gat_only_prediction(joint.ids[new], gat.preds[new])
            return PipelineRun(prediction=pred, gat=gat)
        fld = attnfield.build_field(gat.export, n_joint)
        train_field = fld if test is None else attnfield.restrict_field(fld, np.arange(n_tr))
        offsets = gatv2.logit_offset(gat.preds)
        template = geostat.ModelSpec(
            kind="hybrid",
            kernel=spec.kernel,
            offset=offsets[:n_tr],
            attention=(train_field, spec.attention_start),
        )
    result = geostat.optimize_hyperparameters(train, template, spec.optimizer, seed=seed)
    if test is None:
        pred = geostat.predict_insample(
            result.fit, n_draws=spec.n_draws, seed=seed, level=spec.level,
        )
    else:
        pred = geostat.predict(
            result.fit, test,
            n_draws=spec.n_draws, seed=seed, level=spec.level,
            new_offsets=None if offsets is None else offsets[n_tr:],
            joint_field=fld,
        )
    return PipelineRun(prediction=pred, optimize=result, gat=gat, field=fld)


def run_insample(
    data: Dataset,
    spec: PipelineModelSpec,
    seed: int = 0,
    model: gatv2.GatModel | None = None,
) -> PipelineRun:
    """Full-data fit of one model with predictions at the observed records.

    This is :func:`fit_and_predict` with no held-out records. It stays a
    function of its own because the benchmark's tracer
    (``perfbench/spans.py``) looks up every traced name, this one included,
    with ``getattr``: removing or renaming a traced function breaks every
    traced benchmark run.
    """
    return fit_and_predict(data, None, spec, seed=seed, model=model)
