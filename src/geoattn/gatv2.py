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

The per-edge arrays of a layer are u = LeakyReLU(z) and the attention
alpha, kept per head (the data of the block-diagonal matrix). The per-edge
chains that touch K d values per edge run over consecutive blocks of
``_EDGE_BLOCK_ROWS`` edges, so their intermediates stay in cache: forward's
gather, add, LeakyReLU and score; backward's gathers for the attention
gradient and its dot product; and backward's slope factor and d_z. Every
row of these chains depends on its own edge only, so blocking moves no
arithmetic. What sums across edges runs on whole arrays, so no summation
order depends on the block size: the segment softmax, both sparse attention
products, the gradient of the attention vectors, which reads all of a
layer's u before d_z overwrites it, and the scatters of d_z to nodes.

At most one E x K d array is held, and only for a backward pass. A layer's
forward keeps u one block at a time, in block-sized scratch, except the
last layer's in a training pass, which it writes into the one wide array
that pass makes; a :func:`gradient` call on a prediction pass makes its own.
Backward runs the layers last to first through that array: it reads the
last layer's u there, if forward stored it, and recomputes every other u
into it, by the same take, add and LeakyReLU in the same order, before that
layer's attention-vector gradient. Backward recovers LeakyReLU's slope
factor from the sign of u, then writes d_z over it. So the recomputed
values, and all results, are those of storing every u, bit for bit; the
cost is each earlier layer's two node projections and its blocked chain
once more. A prediction :func:`forward` holds no E x K d array at all: its
edge-sized arrays are each layer's (K, E) attention and, during one layer
call, two (E, K) arrays. Each layer call allocates its own scratch, which
holds nothing past that call, so every array a pass returns belongs to the
caller. Per-destination reductions work over a canonical edge ordering so
results are bit-reproducible and independent of the caller's edge-list
order.

Each layer runs on a set of edges: :func:`forward` gives every layer all of
the graph's, while :func:`train` gives each layer only the edges whose
destination a later step reads, the L-hop computation graph of the
train-role nodes (as in GraphSAGE). The last layer keeps its edges into
train-role nodes; each earlier layer keeps its edges into the sources of
the next layer's kept edges. A kept destination keeps all its in-edges, in
the graph's order, and node arrays keep all n rows. So every per-destination
sum, softmax and node-level gemm sees the same nonzero operands in the same
order as on the whole graph: the dropped edges only ever fed nodes whose
values the loss never reads, and whose gradients are exactly zero. Losses,
weights, and the predictions and attention of the final full-graph forward
are bit-identical to training on every edge. When every node is train-role,
every edge is kept, and training runs on the graph's own arrays.

The network computes in float32 (``_DTYPE``), the standard precision for
training such networks: the parameters, as :func:`init_model` draws them and
:func:`load_checkpoint` reads them; the graph's node features and the data
of its sum matrices; every node and edge array of forward and backward; the
attention and the block-diagonal matrix that holds it; and the gradients.
With every operand float32, no product is promoted to float64, and the
GEMMs and sparse products move half the bytes. What needs exact ties or
leaves the module stays float64: :func:`build_graph`'s distances, whose
ties decide the kNN edges; the targets, the loss and the loss trace, and
the loss's derivative, which is rounded to float32 as backward starts; and
the predictions and attention that :func:`forward` returns, so the fits
downstream see float64. A checkpoint writes each float32 parameter exactly
as a JSON double. Against the same network in float64, 300 epochs on 120
records moved predictions by at most 1.4e-7, attention by 2.4e-8 and the
loss trace by 2.0e-7 relative; 2,000 epochs on 400 records moved
predictions by at most 1.1e-7 and attention by 5e-8. At n = 2,200 an epoch of training
takes about a third less time than in float64, and a training pass holds
half the bytes.
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

# rows of the distance matrix held at once in build_graph: at n = 2,200 its
# blocks peak at about 8 MiB under tracemalloc (32 MiB at 256 rows)
_KNN_BLOCK_ROWS = 64
# edges per block of a layer's per-edge chains (see the module docstring);
# of 256, 512 and 1024, 512 trained fastest on 22,834 edges (n = 2,200)
_EDGE_BLOCK_ROWS = 512
# the network's float type (see the module docstring)
_DTYPE = np.float32


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
        self.features = np.asarray(self.features, dtype=_DTYPE)
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
        self._sum_dst = _sum_matrix(self.dst, self.n_nodes)
        self._sum_src = _sum_matrix(self.src, self.n_nodes)

    @property
    def n_edges(self) -> int:
        return len(self.src)


def _sum_matrix(node: np.ndarray, n: int) -> sp.csr_matrix:
    """(n, E) ones at (node[e], e): its product sums per-edge rows into nodes,
    each node's edges in edge order."""
    n_e = len(node)
    return sp.csr_matrix((np.ones(n_e, dtype=_DTYPE), (node, np.arange(n_e))), shape=(n, n_e))


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
        if not (np.isfinite(self.weight_init_scale) and self.weight_init_scale > 0):
            raise ValueError("weight_init_scale must be finite and > 0")


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
    b_out: np.floating  # a scalar of the parameters' float type
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
        self.b_out = self.w_out.dtype.type(theta[pos])
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
    the fan-in being the last axis of each parameter; double-precision
    draws rounded to the network's float type."""
    rng = RngStream(config.seed, _STREAM_INIT)

    def draw(shape):
        s = config.weight_init_scale / np.sqrt(shape[-1])
        return rng.uniform(-s, s, shape).astype(_DTYPE)

    shapes, d_out = _layer_shapes(d_in, config)
    layers = [LayerParams(**{name: draw(shape) for name, shape in sh.items()}) for sh in shapes]
    return GatModel(layers=layers, w_out=draw((d_out,)), b_out=_DTYPE(0.0), config=config)


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
class _LayerEdges:
    """The edges one layer runs on, in the graph's (dst, src) order: all of
    the graph's, or all those into a subset of the nodes. Node arrays keep
    all n rows; a node with no edge here aggregates nothing."""

    n_nodes: int
    src: np.ndarray         # (E,)
    dst: np.ndarray         # (E,)
    seg_starts: np.ndarray  # (S,) first edge into each destination that has edges
    seg: np.ndarray         # (E,) each edge's destination as an index into seg_starts
    sum_dst: sp.csr_matrix  # (n, E) ones at (dst, edge)
    sum_src: sp.csr_matrix  # (n, E) ones at (src, edge)
    bd_indices: np.ndarray  # (K*E,) column k n + src of head k's edges
    bd_indptr: np.ndarray   # (K*n + 1,) row k n + i starts at k E + (first edge into i)

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def scatter_dst(self, per_edge: np.ndarray) -> np.ndarray:
        """Sum per-edge values into their destination node."""
        flat = per_edge.reshape(len(per_edge), -1)
        return (self.sum_dst @ flat).reshape((self.n_nodes,) + per_edge.shape[1:])

    def scatter_src(self, per_edge: np.ndarray) -> np.ndarray:
        """Sum per-edge values into their source node."""
        flat = per_edge.reshape(len(per_edge), -1)
        return (self.sum_src @ flat).reshape((self.n_nodes,) + per_edge.shape[1:])


def _layer_edges(graph: GraphSpec, heads: int, keep: np.ndarray | None = None) -> _LayerEdges:
    """The graph's edges where ``keep`` is True; with ``keep`` None, all of
    them, as the graph's own arrays rather than copies."""
    n = graph.n_nodes
    if keep is None:
        src, dst, starts = graph.src, graph.dst, graph.dst_starts
        seg_starts, seg = starts, dst
        sum_dst, sum_src = graph._sum_dst, graph._sum_src
    else:
        src, dst = graph.src[keep], graph.dst[keep]
        starts = np.searchsorted(dst, np.arange(n))
        _, seg_starts, seg = np.unique(dst, return_index=True, return_inverse=True)
        sum_dst, sum_src = _sum_matrix(dst, n), _sum_matrix(src, n)
    n_e = len(src)
    # scipy's own index dtype, so that building the matrix never copies them
    idx = np.int32 if heads * max(n_e, n) < np.iinfo(np.int32).max else np.int64
    head = np.arange(heads)[:, None]
    return _LayerEdges(
        n_nodes=n, src=src, dst=dst, seg_starts=seg_starts, seg=seg,
        sum_dst=sum_dst, sum_src=sum_src,
        bd_indices=(src + n * head).astype(idx).ravel(),
        bd_indptr=np.append(starts + n_e * head, heads * n_e).astype(idx),
    )


def _training_edges(graph: GraphSpec, n_layers: int, heads: int) -> list[_LayerEdges]:
    """Per layer, the edges whose destination a later step of the train-node
    loss reads: the last layer's into the train-role nodes, each earlier
    layer's into the sources of the next layer's."""
    edges, need = [], graph.train_mask
    for _ in range(n_layers):
        keep = need[graph.dst]
        if keep.all():
            # self-loops make each layer's set contain the next one's, so
            # the earlier layers keep every edge too: one full set for all
            return [_layer_edges(graph, heads)] * (n_layers - len(edges)) + edges
        edges.insert(0, _layer_edges(graph, heads, keep))
        need = np.zeros(graph.n_nodes, dtype=bool)
        need[graph.src[keep]] = True
    return edges


def _wide_views(edges: list[_LayerEdges], layers: list[LayerParams]) -> list[np.ndarray]:
    """Each layer's (E, K d) view of one new array, sized for the widest."""
    shapes = [(e.n_edges, lay.a.size) for e, lay in zip(edges, layers)]
    wide = np.empty(max(n_e * kd for n_e, kd in shapes), dtype=_DTYPE)
    return [wide[:n_e * kd].reshape(n_e, kd) for n_e, kd in shapes]


def _edge_blocks(n_edges: int):
    """Consecutive (rows, size) blocks of at most ``_EDGE_BLOCK_ROWS`` edges."""
    for start in range(0, n_edges, _EDGE_BLOCK_ROWS):
        stop = min(start + _EDGE_BLOCK_ROWS, n_edges)
        yield slice(start, stop), stop - start


def _block_scratch(n_edges: int, kd: int) -> np.ndarray:
    """An uninitialised (rows, K d) array for one block of a layer's edges."""
    return np.empty((min(n_edges, _EDGE_BLOCK_ROWS), kd), dtype=_DTYPE)


def _u_blocks(edges: _LayerEdges, lay: LayerParams, h: np.ndarray, slope: float,
              u: np.ndarray | None):
    """u = LeakyReLU(W [h_dst ; h_src]) block by block: yields (rows, u
    block), the block written into ``u[rows]``, or into block scratch when
    ``u`` is None. Forward and backward's recompute both run it, so a
    recomputed u equals the forward's bit for bit."""
    k, d, two_din = lay.w.shape
    din = two_din // 2
    w_flat = lay.w.reshape(k * d, two_din)
    # project each node once, then gather onto edges; LeakyReLU(z) =
    # max(z, slope z) overwrites z, as 0 < slope < 1. Every take uses
    # mode="clip" (the indices are in range) because the default mode
    # still allocates a temporary.
    p_dst, p_src = h @ w_flat[:, :din].T, h @ w_flat[:, din:].T
    tmp_block = _block_scratch(edges.n_edges, k * d)
    out_block = _block_scratch(edges.n_edges, k * d) if u is None else None
    for rows, m in _edge_blocks(edges.n_edges):
        out = out_block[:m] if u is None else u[rows]
        tmp = tmp_block[:m]
        z = np.take(p_dst, edges.dst[rows], axis=0, out=out, mode="clip")
        z += np.take(p_src, edges.src[rows], axis=0, out=tmp, mode="clip")
        yield rows, np.maximum(z, np.multiply(z, slope, out=tmp), out=z)


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
    attn: sp.csr_matrix   # (K*n, K*n) block-diagonal attention; its data is alpha_t
    alpha_t: np.ndarray   # (K, E) attention per head
    u: np.ndarray | None  # (E, K*d) u, if forward stored it; else backward recomputes it

    @property
    def alpha(self) -> np.ndarray:
        """(E, K) attention, a view of ``alpha_t``."""
        return self.alpha_t.T


@dataclass
class ForwardCache:
    layers: list[_LayerCache]  # a training pass's are dropped as backward passes them
    edges: list[_LayerEdges]   # the edges each layer ran on
    wide: list[np.ndarray] | None  # a training pass's (E, K*d) views of its one wide array
    h_final: np.ndarray
    preds: np.ndarray
    alphas: list[np.ndarray]  # per-layer (E, K), for invariant checks


def _layer_forward(edges: _LayerEdges, lay: LayerParams, h: np.ndarray,
                   slope: float, is_final: bool, u: np.ndarray | None = None):
    """One layer on ``edges``; with ``u``, an (E, K d) array, its u is
    stored there for backward, else kept one block at a time."""
    k, d, two_din = lay.w.shape
    din = two_din // 2
    n, dst = edges.n_nodes, edges.dst
    v_flat = lay.v.reshape(k * d, din)

    scores = np.empty((edges.n_edges, k), dtype=_DTYPE)
    for rows, u_blk in _u_blocks(edges, lay, h, slope, u):
        np.einsum("ekd,kd->ek", u_blk.reshape(-1, k, d), lay.a, out=scores[rows])

    # alpha overwrites the scores, which the exponentials have read
    smax = np.maximum.reduceat(scores, edges.seg_starts, axis=0)
    ex = np.take(smax, edges.seg, axis=0, out=np.empty_like(scores), mode="clip")
    np.exp(np.subtract(scores, ex, out=ex), out=ex)
    alpha = np.take(edges.scatter_dst(ex), dst, axis=0, out=scores, mode="clip")
    np.divide(ex, alpha, out=alpha)
    # each (E, K) array goes once read: they set a prediction pass's peak
    del ex
    alpha_t = np.ascontiguousarray(alpha.T)
    del alpha, scores
    attn = sp.csr_matrix((alpha_t.reshape(-1), edges.bd_indices, edges.bd_indptr),
                         shape=(k * n, k * n))

    # head k aggregates A_k @ (h V_kᵀ), A_k holding alpha[:, k] at (dst, src):
    # all heads at once as attn @ (h Vᵀ laid out head by head)
    hv = h @ v_flat.T
    agg = np.empty((n, k, d), dtype=_DTYPE)
    agg[...] = (attn @ _heads_first(hv, k)).reshape(k, n, d).transpose(1, 0, 2)

    if is_final:
        out = _elu(agg.mean(axis=1))
    else:
        out = _elu(agg).reshape(n, k * d)
    return out, _LayerCache(h_in=h, hv=hv, agg=agg, attn=attn, alpha_t=alpha_t, u=u)


def forward(model: GatModel, graph: GraphSpec, _edges: list[_LayerEdges] | None = None):
    """Run the network; returns (predictions, attention export, cache).

    Raises :class:`NonFiniteActivation` if any output is non-finite.
    Without ``_edges`` this is a prediction pass: every layer runs on all
    of the graph's edges, and no E x K d array is made, since each layer's
    u lives one block of edges at a time. ``_edges``, each layer's training
    edges, makes a training pass for :func:`train`: it makes one E x K d
    array, where the last layer stores its u for :func:`gradient`, and its
    export is None, as training has no use for one.
    """
    n_layers = len(model.layers)
    training = _edges is not None
    if not training:
        _edges = [_layer_edges(graph, model.config.heads)] * n_layers
    wide = _wide_views(_edges, model.layers) if training else None
    slope = model.config.leaky_slope
    h = graph.features
    caches = []
    for li, (lay, edges) in enumerate(zip(model.layers, _edges)):
        is_final = li == n_layers - 1
        h, cache = _layer_forward(edges, lay, h, slope, is_final,
                                  wide[li] if training and is_final else None)
        caches.append(cache)
    preds = h @ model.w_out + model.b_out
    if not np.all(np.isfinite(preds)):
        raise NonFiniteActivation()
    export = None
    if not training:
        export = AttentionExport(
            src=graph.src.copy(),
            dst=graph.dst.copy(),
            # mean over a C-ordered copy, in double precision: the same
            # summation as over rows
            alpha_mean=np.ascontiguousarray(caches[-1].alpha).mean(axis=1, dtype=np.float64),
        )
    return preds.astype(np.float64), export, ForwardCache(
        layers=caches, edges=_edges, wide=wide, h_final=h, preds=preds,
        alphas=[c.alpha for c in caches])


def mse_loss(preds: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> float:
    r = preds[mask] - targets[mask]
    return float(r @ r / r.size)


def _layer_backward(edges: _LayerEdges, lay: LayerParams, cache: _LayerCache,
                    d_out: np.ndarray, slope: float, is_final: bool, u: np.ndarray,
                    need_input_grad: bool = True):
    """Gradients of one layer, and of its input with ``need_input_grad``.
    The layer's u is the one its forward stored, ``cache.u``, or else is
    recomputed into ``u``, an (E, K d) array; then d_z is written over it."""
    k, d, two_din = lay.w.shape
    din = two_din // 2
    n, dst, src = edges.n_nodes, edges.dst, edges.src
    w_flat = lay.w.reshape(k * d, two_din)
    v_flat = lay.v.reshape(k * d, din)

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
    # d_h = (s_msg V + z_dst W_dst) + z_src W_src, summed in place as each
    # term's operand is formed, so no two of them are held at once
    d_h = s_msg @ v_flat if need_input_grad else None
    del s_msg

    d_alpha = np.empty((edges.n_edges, k), dtype=_DTYPE)
    block, block2 = _block_scratch(edges.n_edges, k * d), _block_scratch(edges.n_edges, k * d)
    for rows, m in _edge_blocks(edges.n_edges):
        d_weighted = np.take(d_agg, dst[rows], axis=0, out=block[:m], mode="clip")
        msg = np.take(cache.hv, src[rows], axis=0, out=block2[:m], mode="clip")
        np.einsum("ekd,ekd->ek", d_weighted.reshape(m, k, d), msg.reshape(m, k, d),
                  out=d_alpha[rows])
    del d_agg

    # softmax backward per (destination, head)
    alpha = cache.alpha
    d_score = np.multiply(alpha, d_alpha, out=np.empty_like(d_alpha))
    s_node = edges.scatter_dst(d_score)
    np.take(s_node, dst, axis=0, out=d_score, mode="clip")
    np.subtract(d_alpha, d_score, out=d_score)
    d_score *= alpha

    if cache.u is None:
        for _ in _u_blocks(edges, lay, h, slope, u):
            pass
    else:
        u = cache.u
    d_a = np.einsum("ek,ekd->kd", d_score, u.reshape(-1, k, d))
    # d_u = d_score times a, head by head: a gemm with the (K, K*d)
    # block-diagonal of a, whose zeros add nothing to the products. Each
    # block reads its rows of u for LeakyReLU's slope factor, max(u > 0,
    # slope), then writes d_z over them: d_a above has read all of u.
    a_bd = np.zeros((k, k * d), dtype=_DTYPE)
    a_bd.reshape(k, k, d)[np.arange(k), np.arange(k)] = lay.a
    d_z = u
    for rows, m in _edge_blocks(edges.n_edges):
        d_z_rows = d_z[rows]
        leaky = np.greater(d_z_rows, 0.0, out=block[:m])
        np.matmul(d_score[rows], a_bd, out=d_z_rows)
        d_z_rows *= np.maximum(leaky, slope, out=leaky)
    d_w = np.empty((k * d, two_din), dtype=_DTYPE)
    halves = ((slice(None, din), edges.scatter_dst), (slice(din, None), edges.scatter_src))
    for half, scatter in halves:
        z_half = scatter(d_z)                                # (n, K*d)
        d_w[:, half] = z_half.T @ h
        if need_input_grad:
            d_h += z_half @ w_flat[:, half]
        del z_half

    return LayerParams(w=d_w.reshape(k, d, two_din), a=d_a, v=d_v), d_h


def gradient(
    model: GatModel,
    graph: GraphSpec,
    targets: np.ndarray,
    cache: ForwardCache | None = None,
) -> GatModel:
    """Exact gradients of the train-node MSE for every parameter, shaped
    like ``model`` (``flatten`` lines them up with ``model.flatten``).

    Backward runs the layers last to first through one E x K d array. The
    last layer's u is read from it when a training pass stored it there;
    every other layer's u is recomputed into it, by the same operations as
    in forward, before its attention-vector gradient; then each layer's d_z
    is written over it. A prediction pass's cache stored no u: this call
    makes its own wide array, leaves the cache as it was, and the cache
    serves any number of calls. A training pass's cache serves one: its
    wide array is written over, and each layer's node arrays are dropped
    once that layer's backward has run. Predictions and attention are left
    alone either way."""
    if cache is None:
        _, _, cache = forward(model, graph)
    mask = graph.train_mask
    n_train = int(mask.sum())
    # the loss's derivative in double precision, like the loss, then rounded
    d_pred = np.zeros(graph.n_nodes)
    d_pred[mask] = 2.0 * (cache.preds[mask] - targets[mask]) / n_train
    d_pred = d_pred.astype(_DTYPE)

    d_w_out = cache.h_final.T @ d_pred
    d_b_out = d_pred.sum()
    d_h = np.outer(d_pred, model.w_out)

    slope = model.config.leaky_slope
    training = cache.wide is not None
    us = cache.wide if training else _wide_views(cache.edges, model.layers)
    grads: list[LayerParams] = [None] * len(model.layers)  # type: ignore[list-item]
    n_layers = len(model.layers)
    for li in range(n_layers - 1, -1, -1):
        grads[li], d_h = _layer_backward(
            cache.edges[li], model.layers[li], cache.layers[li], d_h, slope,
            is_final=li == n_layers - 1, u=us[li],
            need_input_grad=li > 0,
        )
        if training:
            cache.layers[li] = None
    return GatModel(layers=grads, w_out=d_w_out, b_out=d_b_out, config=model.config)


def train(
    graph: GraphSpec,
    targets: np.ndarray,
    config: GatConfig,
) -> tuple[GatModel, np.ndarray]:
    """Full-batch gradient descent on train-node MSE.

    ``targets`` has one entry per node; entries at predict-role nodes are
    ignored. Returns the trained model and the per-epoch loss trace.
    Deterministic given ``config.seed``. Every epoch runs one training
    pass, :func:`forward` on each layer's training edges, and its
    :func:`gradient`, and drops both before the next epoch. The pass builds
    no attention export and holds one E x K d array, shared by all layers:
    the last layer's forward writes its u there, and backward reads it,
    writes d_z over it, and then recomputes each earlier layer's u into it.
    Every other layer's forward keeps its u one block of edges at a time.
    Each layer also keeps its (K, E) attention.

    Each layer trains only on the edges whose destination a later step
    reads (see the module docstring): the last layer on its edges into
    train-role nodes, each earlier layer on its edges into the sources of
    the next layer's. The loss, the gradients and so the trained weights are
    those of training on every edge, bit for bit. With every node
    train-role every edge is kept, on the graph's own arrays. Raises
    :class:`NonFiniteActivation`, with the epoch, when an output the loss
    reads is non-finite; outputs at the other nodes are not computed here,
    so a network whose predict-role outputs overflow trains, and the
    full-graph :func:`forward` that predicts there raises instead.
    """
    targets = np.asarray(targets, dtype=float)
    if len(targets) != graph.n_nodes:
        raise ValueError("targets must have one entry per node")
    if not graph.train_mask.any():
        raise ValueError("no train-role nodes")
    model = init_model(graph.features.shape[1], config)
    edges = _training_edges(graph, len(config.widths), config.heads)
    trace = np.empty(config.epochs)
    lr = config.learning_rate
    for epoch in range(config.epochs):
        try:
            _, _, cache = forward(model, graph, _edges=edges)
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
        del cache, g  # so the next forward does not run beside this epoch's pass
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
    config gives on its first layer's input width, and its params are finite
    in the network's float type;
    ValidationFailure unless each config field holds a value of its type.
    The params are rounded to the network's float type: a file this module
    wrote loads exactly, and float64 params, such as an older file's, load
    rounded to float32."""
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
        layers=[LayerParams(**{name: np.zeros(shape, dtype=_DTYPE) for name, shape in sh.items()})
                for sh in shapes],
        w_out=np.zeros(d_out, dtype=_DTYPE),
        b_out=_DTYPE(0.0),
        config=config,
    )
    params = np.asarray(payload["params"], dtype=float)
    # not np.isfinite: a finite double beyond float32's range would load as inf
    if not np.all(np.abs(params) <= np.finfo(_DTYPE).max):
        raise ValueError("checkpoint params must be finite in the network's float type")
    model.set_flat(params)
    return model, payload.get("extra", {})


def write_attention_csv(export: AttentionExport, path: str | Path) -> None:
    lines = ["src,dst,alpha_mean"]
    lines += [
        f"{int(s)},{int(d)},{repr(float(a))}"
        for s, d, a in zip(export.src, export.dst, export.alpha_mean)
    ]
    Path(path).write_text("\n".join(lines) + "\n")
