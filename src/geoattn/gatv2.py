"""From-scratch GATv2 regression on spatio-temporal graphs.

Implements dynamic multi-head attention (the score nonlinearity precedes the
attention dot product), exact analytic backpropagation, full-batch MSE
training, and export of per-edge mean attention coefficients. All tensor
work is plain numpy. The score weights W act on [h_dst ; h_src], so every
layer projects node features once per node (n rows) and gathers the results
onto edges; backward scatters the edge gradients to nodes first and then
takes the weight and input gradients as node-level GEMMs. Only the
elementwise score, softmax and message weighting run per edge.
Per-destination reductions work over a canonical edge ordering so results
are bit-reproducible and independent of the caller's edge-list order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import NonFiniteActivation
from .jsonconfig import typed_dataclass
from .numkit import RngStream
from .simgen import Dataset

DEFAULT_K_NEIGHBORS = 8
DEFAULT_TIME_SCALE = 0.1

PREVALENCE_CLAMP = 1e-6  # predictions clamped to [eps, 1-eps] before logit

_KNN_BLOCK_ROWS = 256  # rows of the distance matrix held at once in build_graph


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

@dataclass
class GraphSpec:
    """Directed graph with node features and train/predict roles.

    Edges are stored canonically sorted by (dst, src) and deduplicated, so
    any permutation of the input edge list yields an identical object.
    Every node must carry a self-loop (guaranteeing at least one incoming
    edge per node, which the softmax needs).
    """

    n_nodes: int
    features: np.ndarray           # (n, d0)
    src: np.ndarray                # (E,) int
    dst: np.ndarray                # (E,) int
    train_mask: np.ndarray         # (n,) bool; False = predict-role

    # segment bookkeeping, derived in __post_init__
    dst_starts: np.ndarray = field(init=False, repr=False)
    _sum_dst: sp.csr_matrix = field(init=False, repr=False)
    _sum_src: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        src = np.asarray(self.src, dtype=np.int64)
        dst = np.asarray(self.dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src/dst length mismatch")
        if len(src) and (src.min() < 0 or src.max() >= self.n_nodes
                         or dst.min() < 0 or dst.max() >= self.n_nodes):
            raise ValueError("edge endpoint out of range")
        order = np.lexsort((src, dst))
        src, dst = src[order], dst[order]
        keep = np.ones(len(src), dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        self.src, self.dst = src[keep], dst[keep]
        self.features = np.asarray(self.features, dtype=float)
        self.train_mask = np.asarray(self.train_mask, dtype=bool)
        if self.features.shape[0] != self.n_nodes or len(self.train_mask) != self.n_nodes:
            raise ValueError("features/train_mask must have one row per node")

        in_deg = np.bincount(self.dst, minlength=self.n_nodes)
        if np.any(in_deg == 0):
            raise ValueError("every node needs an incoming edge (missing self-loop?)")
        has_self = np.zeros(self.n_nodes, dtype=bool)
        has_self[self.src[self.src == self.dst]] = True
        if not has_self.all():
            raise ValueError("every node needs a self-loop")

        self.dst_starts = np.searchsorted(self.dst, np.arange(self.n_nodes))
        n_e = len(self.src)
        ones = np.ones(n_e)
        arange = np.arange(n_e)
        self._sum_dst = sp.csr_matrix((ones, (self.dst, arange)), shape=(self.n_nodes, n_e))
        self._sum_src = sp.csr_matrix((ones, (self.src, arange)), shape=(self.n_nodes, n_e))

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def scatter_dst(self, per_edge: np.ndarray) -> np.ndarray:
        """Sum per-edge values into their destination node."""
        flat = per_edge.reshape(len(per_edge), -1)
        return (self._sum_dst @ flat).reshape((self.n_nodes,) + per_edge.shape[1:])

    def scatter_src(self, per_edge: np.ndarray) -> np.ndarray:
        """Sum per-edge values into their source node."""
        flat = per_edge.reshape(len(per_edge), -1)
        return (self._sum_src @ flat).reshape((self.n_nodes,) + per_edge.shape[1:])


def graph_features(records: Dataset) -> np.ndarray:
    """Node features: standardized covariates plus (x, y, t / t_max)."""
    t_max = max(int(records.t.max()), 1)
    return np.column_stack(
        [records.covariates, records.x, records.y, records.t / t_max]
    )


def build_graph(
    records: Dataset,
    k_neighbors: int = DEFAULT_K_NEIGHBORS,
    time_scale: float = DEFAULT_TIME_SCALE,
    train_mask: np.ndarray | None = None,
) -> GraphSpec:
    """Symmetrized k-nearest-neighbour graph over space-time records.

    Distances are sqrt(d_s^2 + (time_scale * d_t)^2). Each node's k nearest
    neighbours (ties broken toward lower id) contribute edges in both
    directions, and every node gets a self-loop, so in-degree >= k + 1
    wherever n > k.
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    if not (np.isfinite(time_scale) and time_scale >= 0):
        raise ValueError("time_scale must be finite and >= 0")
    n = len(records)
    if n == 0:
        raise ValueError("empty record set")
    k = min(k_neighbors, n - 1)
    # self-loops; the mirrored copies below are deduplicated by GraphSpec
    node_parts, neigh_parts = [np.arange(n)], [np.arange(n)]
    # row blocks keep memory at O(block * n) instead of O(n^2)
    for start in range(0, n if k > 0 else 0, _KNN_BLOCK_ROWS):
        rows = np.arange(start, min(start + _KNN_BLOCK_ROWS, n))
        dx = records.x[rows, None] - records.x[None, :]
        dy = records.y[rows, None] - records.y[None, :]
        dt = records.t[rows, None].astype(float) - records.t[None, :]
        dist = np.sqrt(dx * dx + dy * dy + (time_scale * dt) ** 2)
        local = np.arange(len(rows))
        dist[local, rows] = np.inf
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
        below = dist < kth
        tie = dist == kth
        tie[local, rows] = False
        # fill the remaining slots from the ties in ascending id
        missing = k - below.sum(axis=1, keepdims=True)
        chosen = below | (tie & (np.cumsum(tie, axis=1) <= missing))
        node, neigh = np.nonzero(chosen)
        node_parts.append(rows[node])
        neigh_parts.append(neigh)

    nodes = np.concatenate(node_parts)
    neighs = np.concatenate(neigh_parts)
    mask = np.ones(n, dtype=bool) if train_mask is None else np.asarray(train_mask, bool)
    return GraphSpec(
        n_nodes=n,
        features=graph_features(records),
        src=np.concatenate([neighs, nodes]),
        dst=np.concatenate([nodes, neighs]),
        train_mask=mask,
    )


# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GatConfig:
    # full-batch descent at 0.01 is still far from converged after the
    # default epoch budget on ~2000-node problems; 0.1 trains stably
    widths: tuple[int, ...] = (16, 16)
    heads: int = 4
    leaky_slope: float = 0.2
    learning_rate: float = 0.1
    epochs: int = 2000
    weight_init_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if len(self.widths) < 1:
            raise ValueError("need at least one layer")
        if min(self.widths) < 1:
            raise ValueError("layer widths must be >= 1")
        if self.heads < 1:
            raise ValueError("need at least one head")
        if not (0.0 < self.leaky_slope < 1.0):
            raise ValueError("leaky_slope must lie in (0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class LayerParams:
    """One attention layer: stacked per-head score weights, attention
    vectors, and value projections."""

    w: np.ndarray  # (K, d, 2 * d_in) applied to [h_dst ; h_src]
    a: np.ndarray  # (K, d)
    v: np.ndarray  # (K, d, d_in)


@dataclass
class GatModel:
    layers: list[LayerParams]
    w_out: np.ndarray  # (d_L,)
    b_out: float
    config: GatConfig

    def flatten(self) -> np.ndarray:
        parts = []
        for lay in self.layers:
            parts += [lay.w.ravel(), lay.a.ravel(), lay.v.ravel()]
        parts += [self.w_out.ravel(), np.array([self.b_out])]
        return np.concatenate(parts)

    def set_flat(self, theta: np.ndarray) -> None:
        pos = 0
        for lay in self.layers:
            for arr in (lay.w, lay.a, lay.v):
                arr[...] = theta[pos:pos + arr.size].reshape(arr.shape)
                pos += arr.size
        self.w_out[...] = theta[pos:pos + self.w_out.size]
        pos += self.w_out.size
        self.b_out = float(theta[pos])
        pos += 1
        if pos != len(theta):
            raise ValueError("flat parameter vector has wrong length")

    @property
    def n_params(self) -> int:
        return sum(l.w.size + l.a.size + l.v.size for l in self.layers) + self.w_out.size + 1


_STREAM_INIT = 101  # stream id reserved for weight initialization


def init_model(d_in: int, config: GatConfig) -> GatModel:
    """Seeded uniform(-s, s) initialization with s = scale / sqrt(fan_in)."""
    rng = RngStream(config.seed, _STREAM_INIT)
    layers = []
    cur = d_in
    k = config.heads
    for li, d in enumerate(config.widths):
        s_w = config.weight_init_scale / np.sqrt(2 * cur)
        s_a = config.weight_init_scale / np.sqrt(d)
        s_v = config.weight_init_scale / np.sqrt(cur)
        layers.append(LayerParams(
            w=rng.uniform(-s_w, s_w, (k, d, 2 * cur)),
            a=rng.uniform(-s_a, s_a, (k, d)),
            v=rng.uniform(-s_v, s_v, (k, d, cur)),
        ))
        is_final = li == len(config.widths) - 1
        cur = d if is_final else k * d
    s_o = config.weight_init_scale / np.sqrt(cur)
    return GatModel(
        layers=layers,
        w_out=rng.uniform(-s_o, s_o, cur),
        b_out=0.0,
        config=config,
    )


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _leaky_factor(pos: np.ndarray, slope: float) -> np.ndarray:
    """LeakyReLU slope per entry, exactly 1.0 where ``pos`` and ``slope``
    elsewhere. Multiplying by it is bit-identical to ``np.maximum(z, slope*z)``
    forward and ``np.where(pos, d, slope*d)`` backward, and avoids their slow
    branching on unpredictable sign masks."""
    return pos * (1.0 - slope) + slope


def _elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def _elu_grad(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))


@dataclass
class AttentionExport:
    """Mean-over-heads attention of the final layer, one row per edge."""

    src: np.ndarray
    dst: np.ndarray
    alpha_mean: np.ndarray

    def __len__(self) -> int:
        return len(self.src)


@dataclass
class _LayerCache:
    h_in: np.ndarray     # (n, d_in) layer input
    u: np.ndarray        # (E, K*d) LeakyReLU(z)
    pos: np.ndarray      # (E, K*d) bool, z > 0
    msg: np.ndarray      # (E, K*d) value-projected source features
    alpha: np.ndarray    # (E, K)
    agg: np.ndarray      # (n, K, d) pre-activation head outputs


@dataclass
class ForwardCache:
    layers: list[_LayerCache]
    h_final: np.ndarray
    preds: np.ndarray
    alphas: list[np.ndarray]  # per-layer (E, K), for invariant checks


def _layer_forward(graph: GraphSpec, lay: LayerParams, h: np.ndarray,
                   slope: float, is_final: bool):
    k, d, two_din = lay.w.shape
    din = two_din // 2
    w_flat = lay.w.reshape(k * d, two_din)
    v_flat = lay.v.reshape(k * d, din)

    # z = W [h_dst ; h_src]: project each node once, then gather onto edges
    z = (h @ w_flat[:, :din].T)[graph.dst]
    z += (h @ w_flat[:, din:].T)[graph.src]
    pos = z > 0
    u = z * _leaky_factor(pos, slope)
    scores = np.einsum("ekd,kd->ek", u.reshape(-1, k, d), lay.a)

    smax = np.maximum.reduceat(scores, graph.dst_starts, axis=0)
    ex = np.exp(scores - smax[graph.dst])
    denom = graph.scatter_dst(ex)
    alpha = ex / denom[graph.dst]

    msg = (h @ v_flat.T)[graph.src]
    weighted = msg.reshape(-1, k, d) * alpha[:, :, None]
    agg = graph.scatter_dst(weighted.reshape(-1, k * d)).reshape(graph.n_nodes, k, d)

    if is_final:
        out = _elu(agg.mean(axis=1))
    else:
        out = _elu(agg).reshape(graph.n_nodes, k * d)
    cache = _LayerCache(h_in=h, u=u, pos=pos, msg=msg, alpha=alpha, agg=agg)
    return out, cache


def forward(model: GatModel, graph: GraphSpec):
    """Run the network; returns (predictions, attention export, cache).

    Raises :class:`NonFiniteActivation` if any output is non-finite.
    """
    slope = model.config.leaky_slope
    h = graph.features
    caches, alphas = [], []
    n_layers = len(model.layers)
    for li, lay in enumerate(model.layers):
        h, cache = _layer_forward(graph, lay, h, slope, is_final=li == n_layers - 1)
        caches.append(cache)
        alphas.append(cache.alpha)
    preds = h @ model.w_out + model.b_out
    if not np.all(np.isfinite(preds)):
        raise NonFiniteActivation()
    export = AttentionExport(
        src=graph.src.copy(),
        dst=graph.dst.copy(),
        alpha_mean=caches[-1].alpha.mean(axis=1),
    )
    return preds, export, ForwardCache(layers=caches, h_final=h, preds=preds, alphas=alphas)


def mse_loss(preds: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> float:
    r = preds[mask] - targets[mask]
    return float(r @ r / r.size)


def _layer_backward(graph: GraphSpec, lay: LayerParams, cache: _LayerCache,
                    d_out: np.ndarray, slope: float, is_final: bool,
                    need_input_grad: bool = True):
    k, d, two_din = lay.w.shape
    din = two_din // 2
    w_flat = lay.w.reshape(k * d, two_din)
    v_flat = lay.v.reshape(k * d, din)

    if is_final:
        d_pre = (d_out * _elu_grad(cache.agg.mean(axis=1))) / k
        d_agg = np.broadcast_to(d_pre[:, None, :], (graph.n_nodes, k, d))
        d_agg = np.ascontiguousarray(d_agg).reshape(graph.n_nodes, k * d)
    else:
        d_agg = (d_out.reshape(graph.n_nodes, k, d) * _elu_grad(cache.agg))
        d_agg = d_agg.reshape(graph.n_nodes, k * d)

    d_weighted = d_agg[graph.dst]                            # (E, K*d)
    d_weighted3 = d_weighted.reshape(-1, k, d)
    msg3 = cache.msg.reshape(-1, k, d)
    d_alpha = np.einsum("ekd,ekd->ek", d_weighted3, msg3)
    d_msg = (d_weighted3 * cache.alpha[:, :, None]).reshape(-1, k * d)
    # every projection is per node, so scatter the edge gradients to nodes
    # once and take the weight and input gradients as node-level gemms
    h = cache.h_in
    s_msg = graph.scatter_src(d_msg)                         # (n, K*d)
    d_v = (s_msg.T @ h).reshape(k, d, din)

    # softmax backward per (destination, head)
    s_node = graph.scatter_dst(cache.alpha * d_alpha)
    d_score = cache.alpha * (d_alpha - s_node[graph.dst])

    d_a = np.einsum("ek,ekd->kd", d_score, cache.u.reshape(-1, k, d))
    d_u = (d_score[:, :, None] * lay.a[None]).reshape(-1, k * d)
    d_z = d_u * _leaky_factor(cache.pos, slope)
    z_dst = graph.scatter_dst(d_z)                           # (n, K*d)
    z_src = graph.scatter_src(d_z)                           # (n, K*d)

    d_w = np.empty((k * d, two_din))
    d_w[:, :din] = z_dst.T @ h
    d_w[:, din:] = z_src.T @ h

    d_h = None
    if need_input_grad:
        d_h = s_msg @ v_flat + z_dst @ w_flat[:, :din] + z_src @ w_flat[:, din:]

    return LayerParams(w=d_w.reshape(k, d, two_din), a=d_a, v=d_v), d_h


def gradient(
    model: GatModel,
    graph: GraphSpec,
    targets: np.ndarray,
    cache: ForwardCache | None = None,
) -> GatModel:
    """Exact gradients of the train-node MSE for every parameter, shaped
    like ``model`` (``flatten`` lines them up with ``model.flatten``)."""
    if cache is None:
        _, _, cache = forward(model, graph)
    mask = graph.train_mask
    n_train = int(mask.sum())
    d_pred = np.zeros(graph.n_nodes)
    d_pred[mask] = 2.0 * (cache.preds[mask] - targets[mask]) / n_train

    d_w_out = cache.h_final.T @ d_pred
    d_b_out = float(d_pred.sum())
    d_h = np.outer(d_pred, model.w_out)

    slope = model.config.leaky_slope
    grads: list[LayerParams] = [None] * len(model.layers)  # type: ignore[list-item]
    n_layers = len(model.layers)
    for li in range(n_layers - 1, -1, -1):
        grads[li], d_h = _layer_backward(
            graph, model.layers[li], cache.layers[li], d_h, slope,
            is_final=li == n_layers - 1,
            need_input_grad=li > 0,
        )
    return GatModel(layers=grads, w_out=d_w_out, b_out=d_b_out, config=model.config)


def train(
    graph: GraphSpec,
    targets: np.ndarray,
    config: GatConfig,
) -> tuple[GatModel, np.ndarray]:
    """Full-batch gradient descent on train-node MSE.

    ``targets`` has one entry per node; entries at predict-role nodes are
    ignored. Returns the trained model and the per-epoch loss trace.
    Deterministic given ``config.seed``.
    """
    targets = np.asarray(targets, dtype=float)
    if len(targets) != graph.n_nodes:
        raise ValueError("targets must have one entry per node")
    if not graph.train_mask.any():
        raise ValueError("no train-role nodes")
    model = init_model(graph.features.shape[1], config)
    trace = np.empty(config.epochs)
    lr = config.learning_rate
    for epoch in range(config.epochs):
        try:
            _, _, cache = forward(model, graph)
        except NonFiniteActivation as err:
            raise NonFiniteActivation(epoch=epoch) from err
        loss = mse_loss(cache.preds, targets, graph.train_mask)
        if not np.isfinite(loss):
            raise NonFiniteActivation("non-finite loss", epoch=epoch)
        trace[epoch] = loss
        g = gradient(model, graph, targets, cache)
        for lay, glay in zip(model.layers, g.layers):
            lay.w -= lr * glay.w
            lay.a -= lr * glay.a
            lay.v -= lr * glay.v
        model.w_out -= lr * g.w_out
        model.b_out -= lr * g.b_out
    return model, trace


def clamp_prevalence(preds: np.ndarray) -> np.ndarray:
    return np.clip(preds, PREVALENCE_CLAMP, 1.0 - PREVALENCE_CLAMP)


def logit_offset(preds: np.ndarray) -> np.ndarray:
    """Clamped predictions on the logit scale, for use as a fixed offset."""
    p = clamp_prevalence(preds)
    return np.log(p / (1.0 - p))


# ---------------------------------------------------------------------------
# Checkpoint / export files
# ---------------------------------------------------------------------------

def save_checkpoint(model: GatModel, path: str | Path, extra: dict | None = None) -> None:
    """Model checkpoint as JSON: config, shapes, and flat parameters."""
    payload = {
        "format_version": 1,
        "config": asdict(model.config),
        "shapes": {
            "layers": [
                {"w": list(l.w.shape), "a": list(l.a.shape), "v": list(l.v.shape)}
                for l in model.layers
            ],
            "w_out": [int(model.w_out.size)],
        },
        "params": [float(v) for v in model.flatten()],
        "extra": extra or {},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> tuple[GatModel, dict]:
    """Model and ``extra`` of a :func:`save_checkpoint` file; ValueError unless
    its config holds exactly the GatConfig fields, and ValidationFailure
    unless each holds a value of its field's type."""
    payload = json.loads(Path(path).read_text())
    cfg = payload["config"]
    if set(cfg) != {f.name for f in fields(GatConfig)}:
        raise ValueError(f"checkpoint config keys {sorted(cfg)} are not the GatConfig fields")
    config = typed_dataclass(cfg, GatConfig, "checkpoint config")
    layers = [
        LayerParams(
            w=np.zeros(tuple(sh["w"])),
            a=np.zeros(tuple(sh["a"])),
            v=np.zeros(tuple(sh["v"])),
        )
        for sh in payload["shapes"]["layers"]
    ]
    model = GatModel(
        layers=layers,
        w_out=np.zeros(payload["shapes"]["w_out"][0]),
        b_out=0.0,
        config=config,
    )
    model.set_flat(np.asarray(payload["params"], dtype=float))
    return model, payload.get("extra", {})


def write_attention_csv(export: AttentionExport, path: str | Path) -> None:
    lines = ["src,dst,alpha_mean"]
    lines += [
        f"{int(s)},{int(d)},{repr(float(a))}"
        for s, d, a in zip(export.src, export.dst, export.alpha_mean)
    ]
    Path(path).write_text("\n".join(lines) + "\n")
