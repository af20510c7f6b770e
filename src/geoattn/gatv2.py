"""From-scratch GATv2 regression on spatio-temporal graphs.

Implements dynamic multi-head attention (the score nonlinearity precedes the
attention dot product), exact analytic backpropagation, full-batch MSE
training, and export of per-edge mean attention coefficients. All tensor
work is plain numpy and scipy.sparse. The score weights W act on
[h_dst ; h_src], so every layer projects node features once per node (n
rows) and gathers the results onto edges; backward scatters the edge
gradients to nodes first and then takes the weight and input gradients as
node-level GEMMs. Forward forms no per-edge messages: the K heads aggregate
together through one Kn x Kn block-diagonal CSR matrix, which holds head
k's attention at (k n + dst, k n + src) and multiplies the value projection
h Vᵀ laid out head by head. Backward sends the value gradient to source
nodes through the same matrix's transpose and gathers h Vᵀ onto edges only
for the attention gradient. The score gradient reaches z as one GEMM with
the (K, K d) block-diagonal of the attention vectors.

The per-edge arrays of a layer are u = LeakyReLU(z), written over the score
pre-activation z, and the attention alpha, kept both per edge and per head
(the data of the block-diagonal matrix). Backward recovers the LeakyReLU
slope factor from the sign of u, so it is not stored. Scratch for gathers
and softmax terms, and the index arrays of the block-diagonal matrix, are
shared by all layers. Forward writes the per-layer arrays into a set of
edge buffers and backward reads them from the cache, writing only the
scratch. :func:`train` allocates one set and rewrites it every epoch; a
:func:`forward` call without one gets its own, so the arrays it returns
belong to the caller. Per-destination reductions work over a canonical edge
ordering so results are bit-reproducible and independent of the caller's
edge-list order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import NonFiniteActivation
from .jsonconfig import typed, typed_dataclass
from .numkit import RngStream
from .simgen import Dataset

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


@dataclass(frozen=True)
class GraphConfig:
    """The k-nearest-neighbour graph: k and the weight of time in distances."""

    k_neighbors: int = 8
    time_scale: float = 0.1

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if not (np.isfinite(self.time_scale) and self.time_scale >= 0):
            raise ValueError("time_scale must be finite and >= 0")


def build_graph(
    records: Dataset,
    config: GraphConfig = GraphConfig(),
    train_mask: np.ndarray | None = None,
) -> GraphSpec:
    """Symmetrized k-nearest-neighbour graph over space-time records.

    Distances are sqrt(d_s^2 + (time_scale * d_t)^2). Each node's k nearest
    neighbours (ties broken toward lower id) contribute edges in both
    directions, and every node gets a self-loop, so in-degree >= k + 1
    wherever n > k.
    """
    n = len(records)
    if n == 0:
        raise ValueError("empty record set")
    k = min(config.k_neighbors, n - 1)
    # self-loops; the mirrored copies below are deduplicated by GraphSpec
    node_parts, neigh_parts = [np.arange(n)], [np.arange(n)]
    # row blocks keep memory at O(block * n) instead of O(n^2)
    for start in range(0, n if k > 0 else 0, _KNN_BLOCK_ROWS):
        rows = np.arange(start, min(start + _KNN_BLOCK_ROWS, n))
        dx = records.x[rows, None] - records.x[None, :]
        dy = records.y[rows, None] - records.y[None, :]
        dt = records.t[rows, None].astype(float) - records.t[None, :]
        dist = np.sqrt(dx * dx + dy * dy + (config.time_scale * dt) ** 2)
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


def _layer_shapes(d_in: int, config: GatConfig) -> tuple[list[dict[str, tuple[int, ...]]], int]:
    """The w, a and v shapes of each layer of a network on ``d_in`` node
    features, and the width of its output: hidden layers concatenate their
    K heads, the final layer averages them."""
    k, shapes, cur = config.heads, [], d_in
    for li, d in enumerate(config.widths):
        shapes.append({"w": (k, d, 2 * cur), "a": (k, d), "v": (k, d, cur)})
        cur = d if li == len(config.widths) - 1 else k * d
    return shapes, cur


def init_model(d_in: int, config: GatConfig) -> GatModel:
    """Seeded uniform(-s, s) initialization with s = scale / sqrt(fan_in),
    the fan-in being the last axis of each parameter."""
    rng = RngStream(config.seed, _STREAM_INIT)

    def draw(shape):
        s = config.weight_init_scale / np.sqrt(shape[-1])
        return rng.uniform(-s, s, shape)

    shapes, d_out = _layer_shapes(d_in, config)
    layers = [LayerParams(**{name: draw(shape) for name, shape in sh.items()}) for sh in shapes]
    return GatModel(layers=layers, w_out=draw((d_out,)), b_out=0.0, config=config)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

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
class _EdgeBuffers:
    """The edge-sized arrays of one layer. ``u``, ``alpha`` and ``alpha_t``
    carry values from the layer's forward pass to its backward pass. The
    block-diagonal index arrays and the scratch arrays are shared by all
    layers; the scratch holds nothing between layer calls."""

    u: np.ndarray        # (E, K*d) z, then LeakyReLU(z) in place
    alpha: np.ndarray    # (E, K) attention
    alpha_t: np.ndarray  # (K, E) attention per head: the data of the block-diagonal matrix
    bd_indices: np.ndarray  # (K*E,) column k n + src of head k's edges
    bd_indptr: np.ndarray   # (K*n + 1,) row k n + i starts at k E + dst_starts[i]
    scratch_kd: np.ndarray   # (E, K*d)
    scratch_kd2: np.ndarray  # (E, K*d)
    scratch_k: np.ndarray    # (E, K)
    scratch_k2: np.ndarray   # (E, K)


def _edge_buffers(graph: GraphSpec, layers: list[LayerParams]) -> list[_EdgeBuffers]:
    """Uninitialised edge buffers for every layer of a network."""
    n, n_e, k = graph.n_nodes, graph.n_edges, layers[0].a.shape[0]
    widths = [lay.a.size for lay in layers]  # K*d per layer
    wide, wide2 = np.empty(n_e * max(widths)), np.empty(n_e * max(widths))
    narrow, narrow2 = np.empty((n_e, k)), np.empty((n_e, k))
    # scipy's own index dtype, so that building the matrix never copies them
    idx = np.int32 if k * max(n_e, n) < np.iinfo(np.int32).max else np.int64
    heads = np.arange(k)[:, None]
    bd_indices = (graph.src + n * heads).astype(idx).ravel()
    bd_indptr = np.append(graph.dst_starts + n_e * heads, k * n_e).astype(idx)
    return [
        _EdgeBuffers(
            u=np.empty((n_e, kd)), alpha=np.empty((n_e, k)), alpha_t=np.empty((k, n_e)),
            bd_indices=bd_indices, bd_indptr=bd_indptr,
            scratch_kd=wide[:n_e * kd].reshape(n_e, kd),
            scratch_kd2=wide2[:n_e * kd].reshape(n_e, kd),
            scratch_k=narrow, scratch_k2=narrow2,
        )
        for kd in widths
    ]


def _heads_first(x: np.ndarray, k: int) -> np.ndarray:
    """(n, K*d) node rows as a new (K*n, d) array, head k in rows k n to k n + n - 1."""
    n = len(x)
    return x.reshape(n, k, -1).transpose(1, 0, 2).reshape(k * n, -1)


@dataclass
class _LayerCache:
    """What one layer's forward pass leaves for its backward pass."""

    h_in: np.ndarray      # (n, d_in) layer input: graph features or the previous layer's output
    hv: np.ndarray        # (n, K*d) value projection h Vᵀ; backward gathers it onto edges
    agg: np.ndarray       # (n, K, d) pre-activation head outputs
    attn: sp.csr_matrix   # (K*n, K*n) block-diagonal attention; its data is edges.alpha_t
    edges: _EdgeBuffers   # this pass's per-edge u, alpha and alpha_t; owned by
                          # train() for all its epochs, else by the forward() call

    @property
    def alpha(self) -> np.ndarray:
        return self.edges.alpha


@dataclass
class ForwardCache:
    layers: list[_LayerCache]
    h_final: np.ndarray
    preds: np.ndarray
    alphas: list[np.ndarray]  # per-layer (E, K), for invariant checks


def _layer_forward(graph: GraphSpec, lay: LayerParams, h: np.ndarray,
                   slope: float, is_final: bool, buf: _EdgeBuffers):
    k, d, two_din = lay.w.shape
    din = two_din // 2
    n, dst, src = graph.n_nodes, graph.dst, graph.src
    w_flat = lay.w.reshape(k * d, two_din)
    v_flat = lay.v.reshape(k * d, din)

    # z = W [h_dst ; h_src]: project each node once, then gather onto edges;
    # u = LeakyReLU(z) = max(z, slope z) overwrites z, as 0 < slope < 1.
    # Every take uses mode="clip" (the indices are in range) because the
    # default mode still allocates a temporary.
    z = np.take(h @ w_flat[:, :din].T, dst, axis=0, out=buf.u, mode="clip")
    z += np.take(h @ w_flat[:, din:].T, src, axis=0, out=buf.scratch_kd, mode="clip")
    u = np.maximum(z, np.multiply(z, slope, out=buf.scratch_kd), out=z)
    scores = np.einsum("ekd,kd->ek", u.reshape(-1, k, d), lay.a, out=buf.scratch_k)

    smax = np.maximum.reduceat(scores, graph.dst_starts, axis=0)
    ex = np.take(smax, dst, axis=0, out=buf.scratch_k2, mode="clip")
    np.exp(np.subtract(scores, ex, out=ex), out=ex)
    alpha = np.take(graph.scatter_dst(ex), dst, axis=0, out=buf.alpha, mode="clip")
    np.divide(ex, alpha, out=alpha)
    buf.alpha_t[...] = alpha.T
    attn = sp.csr_matrix((buf.alpha_t.reshape(-1), buf.bd_indices, buf.bd_indptr),
                         shape=(k * n, k * n))

    # head k aggregates A_k @ (h V_kᵀ), A_k holding alpha[:, k] at (dst, src):
    # all heads at once as attn @ (h Vᵀ laid out head by head)
    hv = h @ v_flat.T
    agg = np.empty((n, k, d))
    agg[...] = (attn @ _heads_first(hv, k)).reshape(k, n, d).transpose(1, 0, 2)

    if is_final:
        out = _elu(agg.mean(axis=1))
    else:
        out = _elu(agg).reshape(n, k * d)
    return out, _LayerCache(h_in=h, hv=hv, agg=agg, attn=attn, edges=buf)


def forward(model: GatModel, graph: GraphSpec, _buffers: list[_EdgeBuffers] | None = None,
            _export: bool = True):
    """Run the network; returns (predictions, attention export, cache).

    Raises :class:`NonFiniteActivation` if any output is non-finite.
    ``_buffers`` and ``_export`` are for :func:`train`, which rewrites the
    same edge buffers every epoch and has no use for the export: with
    ``_export`` False the export is None and no edge-sized array is made
    for it. Without ``_buffers`` each call gets its own.
    """
    if _buffers is None:
        _buffers = _edge_buffers(graph, model.layers)
    slope = model.config.leaky_slope
    h = graph.features
    caches, alphas = [], []
    n_layers = len(model.layers)
    for li, (lay, buf) in enumerate(zip(model.layers, _buffers)):
        h, cache = _layer_forward(graph, lay, h, slope, li == n_layers - 1, buf)
        caches.append(cache)
        alphas.append(cache.alpha)
    preds = h @ model.w_out + model.b_out
    if not np.all(np.isfinite(preds)):
        raise NonFiniteActivation()
    export = None
    if _export:
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
    n, dst, src = graph.n_nodes, graph.dst, graph.src
    w_flat = lay.w.reshape(k * d, two_din)
    v_flat = lay.v.reshape(k * d, din)
    buf = cache.edges

    if is_final:
        d_pre = (d_out * _elu_grad(cache.agg.mean(axis=1))) / k
        d_agg = np.broadcast_to(d_pre[:, None, :], (n, k, d))
        d_agg = np.ascontiguousarray(d_agg).reshape(n, k * d)
    else:
        d_agg = (d_out.reshape(n, k, d) * _elu_grad(cache.agg))
        d_agg = d_agg.reshape(n, k * d)

    # every projection is per node, so sum the edge gradients into nodes
    # first and take the weight and input gradients as node-level gemms;
    # the value gradient reaches source nodes through the attention's transpose
    s_msg = cache.attn.T @ _heads_first(d_agg, k)
    s_msg = s_msg.reshape(k, n, d).transpose(1, 0, 2).reshape(n, k * d)
    h = cache.h_in
    d_v = (s_msg.T @ h).reshape(k, d, din)

    d_weighted = np.take(d_agg, dst, axis=0, out=buf.scratch_kd, mode="clip")
    msg = np.take(cache.hv, src, axis=0, out=buf.scratch_kd2, mode="clip")
    d_alpha = np.einsum("ekd,ekd->ek", d_weighted.reshape(-1, k, d),
                        msg.reshape(-1, k, d), out=buf.scratch_k)

    # softmax backward per (destination, head)
    alpha = buf.alpha
    s_node = graph.scatter_dst(np.multiply(alpha, d_alpha, out=buf.scratch_k2))
    d_score = np.take(s_node, dst, axis=0, out=buf.scratch_k2, mode="clip")
    np.subtract(d_alpha, d_score, out=d_score)
    d_score *= alpha

    d_a = np.einsum("ek,ekd->kd", d_score, buf.u.reshape(-1, k, d))
    # d_u = d_score times a, head by head: one gemm with the (K, K*d)
    # block-diagonal of a, whose zeros add nothing to the products
    a_bd = np.zeros((k, k * d))
    a_bd.reshape(k, k, d)[np.arange(k), np.arange(k)] = lay.a
    d_z = np.matmul(d_score, a_bd, out=buf.scratch_kd)
    # LeakyReLU's slope factor, max(u > 0, slope): 1 where u > 0, slope elsewhere
    leaky = np.greater(buf.u, 0.0, out=buf.scratch_kd2)
    d_z *= np.maximum(leaky, slope, out=leaky)
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
    like ``model`` (``flatten`` lines them up with ``model.flatten``).
    Only the scratch part of ``cache``'s edge buffers is written."""
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
    Deterministic given ``config.seed``. Every epoch rewrites one set of
    edge buffers, allocated here, and builds no attention export.
    """
    targets = np.asarray(targets, dtype=float)
    if len(targets) != graph.n_nodes:
        raise ValueError("targets must have one entry per node")
    if not graph.train_mask.any():
        raise ValueError("no train-role nodes")
    model = init_model(graph.features.shape[1], config)
    buffers = _edge_buffers(graph, model.layers)
    trace = np.empty(config.epochs)
    lr = config.learning_rate
    for epoch in range(config.epochs):
        try:
            _, _, cache = forward(model, graph, _buffers=buffers, _export=False)
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
    its config holds exactly the GatConfig fields, its shapes are those its
    config gives on its first layer's input width, and its params are finite;
    ValidationFailure unless each config field holds a value of its type."""
    payload = json.loads(Path(path).read_text())
    cfg = payload["config"]
    if set(cfg) != {f.name for f in fields(GatConfig)}:
        raise ValueError(f"checkpoint config keys {sorted(cfg)} are not the GatConfig fields")
    config = typed_dataclass(cfg, GatConfig, "checkpoint config")
    file_shapes = payload["shapes"]
    if len(file_shapes["layers"]) != len(config.widths):
        raise ValueError(f"checkpoint has {len(file_shapes['layers'])} layers, "
                         f"its config gives {len(config.widths)}")
    d_in = typed(file_shapes["layers"][0]["v"], tuple[int, int, int],
                 "checkpoint shapes.layers[0].v")[2]
    shapes, d_out = _layer_shapes(d_in, config)
    for li, (got, want) in enumerate(zip(file_shapes["layers"], shapes)):
        got = {name: tuple(got[name]) for name in want}
        if got != want:
            raise ValueError(f"checkpoint layer {li} has shapes {got}, its config gives {want}")
    if tuple(file_shapes["w_out"]) != (d_out,):
        raise ValueError(f"checkpoint w_out has shape {tuple(file_shapes['w_out'])}, "
                         f"its config gives {(d_out,)}")
    model = GatModel(
        layers=[LayerParams(**{name: np.zeros(shape) for name, shape in sh.items()})
                for sh in shapes],
        w_out=np.zeros(d_out),
        b_out=0.0,
        config=config,
    )
    params = np.asarray(payload["params"], dtype=float)
    if not np.all(np.isfinite(params)):
        raise ValueError("checkpoint params must be finite")
    model.set_flat(params)
    return model, payload.get("extra", {})


def write_attention_csv(export: AttentionExport, path: str | Path) -> None:
    lines = ["src,dst,alpha_mean"]
    lines += [
        f"{int(s)},{int(d)},{repr(float(a))}"
        for s, d, a in zip(export.src, export.dst, export.alpha_mean)
    ]
    Path(path).write_text("\n".join(lines) + "\n")
