"""Graph attention network: forward oracle, exact gradients, training."""

import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from geoattn import gatv2, simgen
from geoattn.errors import NonFiniteActivation
from geoattn.gatv2 import (
    AttentionExport,
    GatConfig,
    GatModel,
    GraphConfig,
    GraphSpec,
    LayerParams,
    build_graph,
    forward,
    gradient,
    init_model,
    mse_loss,
    train,
)


def ring_graph(n, d0=2, seed=0, train_frac=1.0):
    """Ring + self-loops with random features; small and connected."""
    rng = np.random.default_rng(seed)
    src = np.concatenate([np.arange(n), np.arange(n), np.arange(n)])
    dst = np.concatenate([np.arange(n), (np.arange(n) + 1) % n, (np.arange(n) - 1) % n])
    mask = np.ones(n, dtype=bool)
    if train_frac < 1.0:
        mask[int(n * train_frac):] = False
    return GraphSpec(
        n_nodes=n,
        features=rng.standard_normal((n, d0)),
        src=src,
        dst=dst,
        train_mask=mask,
    )


def two_node_model():
    """1 layer, 1 head, hand-settable small-integer weights."""
    config = GatConfig(widths=(2,), heads=1, seed=0)
    model = init_model(2, config)
    model.layers[0].w[0] = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, -1.0, -1.0, 0.0]])
    model.layers[0].a[0] = np.array([1.0, -1.0])
    model.layers[0].v[0] = np.array([[1.0, 2.0], [3.0, 4.0]])
    model.w_out = np.array([1.0, 1.0])
    model.b_out = 0.5
    return model


# Edge blocks this small leave a ragged last block on every edge set the
# block-boundary tests run on; every test graph has fewer edges than one
# block of the default size.
SMALL_BLOCK = 9


def assert_ragged(n_edges):
    assert n_edges > SMALL_BLOCK and n_edges % SMALL_BLOCK
    assert n_edges < gatv2._EDGE_BLOCK_ROWS


class TestForward:
    def test_two_node_hand_value(self):
        # worked by hand: scores per destination are (1.2, 2.0) and (0.4, 1.2),
        # both give the self/other softmax weight 1/(1 + e^0.8), and the
        # readout reduces to 6.5 - 2/(1 + e^0.8). The negative score entries
        # pin LeakyReLU being applied before the attention dot product.
        graph = GraphSpec(
            n_nodes=2,
            features=np.eye(2),
            src=np.array([0, 1, 0, 1]),
            dst=np.array([0, 0, 1, 1]),
            train_mask=np.ones(2, dtype=bool),
        )
        preds, export, _ = forward(two_node_model(), graph)
        expected = 6.5 - 2.0 / (1.0 + np.exp(0.8))
        np.testing.assert_allclose(preds, [expected, expected], atol=1e-12)
        # per-destination softmax of the hand scores; note the self edge is
        # preferred at node 1 but not at node 0 (destination-dependent ranking)
        low = 1.0 / (1.0 + np.exp(0.8))
        edge_alpha = {
            (s, d): a for s, d, a in zip(export.src, export.dst, export.alpha_mean)
        }
        assert edge_alpha[(0, 0)] == pytest.approx(low, abs=1e-12)
        assert edge_alpha[(1, 0)] == pytest.approx(1 - low, abs=1e-12)
        assert edge_alpha[(0, 1)] == pytest.approx(low, abs=1e-12)
        assert edge_alpha[(1, 1)] == pytest.approx(1 - low, abs=1e-12)

    def test_single_node_softmax_is_one(self):
        graph = GraphSpec(
            n_nodes=1, features=np.array([[0.3, -2.0]]),
            src=np.array([0]), dst=np.array([0]), train_mask=np.ones(1, bool),
        )
        model = init_model(2, GatConfig(widths=(3,), heads=2, seed=4))
        _, export, _ = forward(model, graph)
        assert export.alpha_mean[0] == pytest.approx(1.0, abs=1e-15)

    def test_equal_scores_give_uniform_attention(self):
        # zero attention vector makes every score equal; 4 in-edges -> 0.25
        graph = GraphSpec(
            n_nodes=4, features=np.random.default_rng(0).standard_normal((4, 3)),
            src=np.array([0, 1, 2, 3] * 4),
            dst=np.repeat(np.arange(4), 4),
            train_mask=np.ones(4, bool),
        )
        model = init_model(3, GatConfig(widths=(2,), heads=2, seed=1))
        for lay in model.layers:
            lay.a[:] = 0.0
        _, export, _ = forward(model, graph)
        np.testing.assert_allclose(export.alpha_mean, 0.25, atol=1e-15)

    def test_attention_rows_sum_to_one_every_layer_and_head(self):
        graph = ring_graph(9, d0=3, seed=2)
        model = init_model(3, GatConfig(widths=(4, 3), heads=3, seed=5))
        _, _, cache = forward(model, graph)
        for alpha in cache.alphas:
            sums = np.add.reduceat(alpha, graph.dst_starts, axis=0)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_edge_permutation_invariance(self):
        graph = ring_graph(8, d0=2, seed=3)
        rng = np.random.default_rng(9)
        perm = rng.permutation(graph.n_edges)
        shuffled = GraphSpec(
            n_nodes=graph.n_nodes,
            features=graph.features,
            src=graph.src[perm],
            dst=graph.dst[perm],
            train_mask=graph.train_mask,
        )
        model = init_model(2, GatConfig(widths=(3, 2), heads=2, seed=7))
        a, _, _ = forward(model, graph)
        b, _, _ = forward(model, shuffled)
        np.testing.assert_array_equal(a, b)

    def test_nonfinite_detection(self):
        graph = ring_graph(4, d0=2, seed=0)
        model = init_model(2, GatConfig(widths=(2,), heads=1, seed=0))
        model.w_out[:] = np.inf
        with pytest.raises(NonFiniteActivation):
            forward(model, graph)


def fd_gradient(model, graph, targets, step=1e-5):
    theta = model.flatten()
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        for sign in (+1, -1):
            theta[i] += sign * step
            model.set_flat(theta)
            preds, _, _ = forward(model, graph)
            grad[i] += sign * mse_loss(preds, targets, graph.train_mask)
            theta[i] -= sign * step
    model.set_flat(theta)
    return grad / (2 * step)


def max_rel_error(analytic, numeric):
    scale = np.maximum(np.abs(numeric), 1e-6)
    return np.max(np.abs(analytic - numeric) / scale)


class TestGradient:
    def test_zero_residuals_give_zero_gradient(self):
        graph = ring_graph(5, d0=2, seed=1)
        model = init_model(2, GatConfig(widths=(2,), heads=1, seed=2))
        preds, _, _ = forward(model, graph)
        grads = gradient(model, graph, preds.copy())
        assert np.abs(grads.flatten()).max() == 0.0

    def test_bias_gradient_closed_form(self):
        graph = ring_graph(6, d0=2, seed=4)
        model = init_model(2, GatConfig(widths=(3,), heads=2, seed=3))
        rng = np.random.default_rng(0)
        targets = rng.uniform(0, 1, 6)
        preds, _, _ = forward(model, graph)
        grads = gradient(model, graph, targets)
        assert grads.b_out == pytest.approx(2.0 * np.mean(preds - targets), rel=1e-12)

    def test_final_layer_matches_finite_differences(self):
        # <= 50 parameters on a 6-node graph, per the acceptance contract
        graph = ring_graph(6, d0=2, seed=5)
        model = init_model(2, GatConfig(widths=(3,), heads=1, seed=6))
        assert model.n_params <= 50
        targets = np.random.default_rng(1).uniform(0, 1, 6)
        analytic = gradient(model, graph, targets).flatten()
        numeric = fd_gradient(model, graph, targets)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_stacked_layers_match_finite_differences(self):
        # exercises both layer types: concat intermediate + averaged final
        graph = ring_graph(7, d0=2, seed=8)
        model = init_model(2, GatConfig(widths=(2, 2), heads=2, seed=9))
        targets = np.random.default_rng(2).uniform(0, 1, 7)
        analytic = gradient(model, graph, targets).flatten()
        numeric = fd_gradient(model, graph, targets)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_gradient_with_predict_nodes(self):
        # predict-role nodes join message passing but not the loss
        graph = ring_graph(8, d0=2, seed=3, train_frac=0.5)
        model = init_model(2, GatConfig(widths=(2,), heads=2, seed=1))
        targets = np.random.default_rng(3).uniform(0, 1, 8)
        analytic = gradient(model, graph, targets).flatten()
        numeric = fd_gradient(model, graph, targets)
        assert max_rel_error(analytic, numeric) <= 1e-4


def random_graph(n, seed):
    """Random in-edges plus self-loops; about 30% of nodes are predict-role."""
    rng = np.random.default_rng(seed)
    src = np.concatenate([np.arange(n), rng.integers(0, n, 5 * n)])
    dst = np.concatenate([np.arange(n), rng.integers(0, n, 5 * n)])
    mask = rng.uniform(size=n) < 0.7
    mask[0] = True
    graph = GraphSpec(n_nodes=n, features=rng.standard_normal((n, 3)),
                      src=src, dst=dst, train_mask=mask)
    assert not mask.all()  # predict-role nodes pass messages only
    return graph, rng.uniform(0, 1, n)


def per_edge_layer_forward(edges, lay, h, slope, is_final, buf):
    """Reference layer: gather features onto edges, then project per edge.
    It allocates every array itself and ignores the edge buffers ``buf``."""
    k, d, two_din = lay.w.shape
    din = two_din // 2
    w = lay.w.reshape(k * d, two_din)
    h_dst, h_src = h[edges.dst], h[edges.src]
    z = h_dst @ w[:, :din].T + h_src @ w[:, din:].T
    u = np.maximum(z, slope * z)
    scores = np.einsum("ekd,kd->ek", u.reshape(-1, k, d), lay.a)
    ex = np.exp(scores - np.maximum.reduceat(scores, edges.seg_starts)[edges.seg])
    alpha = ex / edges.scatter_dst(ex)[edges.dst]
    msg = h_src @ lay.v.reshape(k * d, din).T
    weighted = (msg.reshape(-1, k, d) * alpha[:, :, None]).reshape(-1, k * d)
    agg = edges.scatter_dst(weighted).reshape(-1, k, d)
    out = gatv2._elu(agg.mean(axis=1)) if is_final else gatv2._elu(agg).reshape(len(h), -1)
    return out, SimpleNamespace(h_dst=h_dst, h_src=h_src, z=z, u=u, msg=msg,
                                alpha=alpha, agg=agg)


def per_edge_layer_backward(edges, lay, c, d_out, slope, is_final, u=None, need_input_grad=True):
    """Reference backward: every weight and input gradient is a GEMM over edges.
    It ignores the wide array ``u``."""
    k, d, two_din = lay.w.shape
    din = two_din // 2
    w, v = lay.w.reshape(k * d, two_din), lay.v.reshape(k * d, din)
    if is_final:
        d_pre = d_out * gatv2._elu_grad(c.agg.mean(axis=1)) / k
        d_agg = np.repeat(d_pre[:, None, :], k, axis=1)
    else:
        d_agg = d_out.reshape(-1, k, d) * gatv2._elu_grad(c.agg)
    d_weighted = d_agg[edges.dst]
    d_alpha = np.einsum("ekd,ekd->ek", d_weighted, c.msg.reshape(-1, k, d))
    d_msg = (d_weighted * c.alpha[:, :, None]).reshape(-1, k * d)
    d_score = c.alpha * (d_alpha - edges.scatter_dst(c.alpha * d_alpha)[edges.dst])
    d_u = (d_score[:, :, None] * lay.a[None]).reshape(-1, k * d)
    d_z = np.where(c.z > 0, d_u, slope * d_u)
    grads = LayerParams(
        w=np.hstack([d_z.T @ c.h_dst, d_z.T @ c.h_src]).reshape(k, d, two_din),
        a=np.einsum("ek,ekd->kd", d_score, c.u.reshape(-1, k, d)),
        v=(d_msg.T @ c.h_src).reshape(k, d, din),
    )
    d_h = None
    if need_input_grad:
        d_h = (edges.scatter_src(d_msg @ v) + edges.scatter_dst(d_z @ w[:, :din])
               + edges.scatter_src(d_z @ w[:, din:]))
    return grads, d_h


def scatter_layer_forward(edges, lay, h, slope, is_final, buf):
    """The layer as it was before the sparse aggregation: messages formed per
    edge, weighted and scattered to destinations. Same arithmetic, so the
    results must match bit for bit. Ignores the edge buffers ``buf``."""
    k, d, two_din = lay.w.shape
    din = two_din // 2
    w_flat, v_flat = lay.w.reshape(k * d, two_din), lay.v.reshape(k * d, din)
    z = (h @ w_flat[:, :din].T)[edges.dst]
    z += (h @ w_flat[:, din:].T)[edges.src]
    pos = z > 0
    u = z * (pos * (1.0 - slope) + slope)
    scores = np.einsum("ekd,kd->ek", u.reshape(-1, k, d), lay.a)
    ex = np.exp(scores - np.maximum.reduceat(scores, edges.seg_starts, axis=0)[edges.seg])
    alpha = ex / edges.scatter_dst(ex)[edges.dst]
    msg = (h @ v_flat.T)[edges.src]
    weighted = msg.reshape(-1, k, d) * alpha[:, :, None]
    agg = edges.scatter_dst(weighted.reshape(-1, k * d)).reshape(len(h), k, d)
    out = gatv2._elu(agg.mean(axis=1)) if is_final else gatv2._elu(agg).reshape(len(h), -1)
    return out, SimpleNamespace(h_in=h, u=u, pos=pos, msg=msg, alpha=alpha, agg=agg)


def scatter_layer_backward(edges, lay, c, d_out, slope, is_final, u=None, need_input_grad=True):
    """Backward of :func:`scatter_layer_forward`, with per-edge ``d_msg``.
    Ignores the wide array ``u``."""
    k, d, two_din = lay.w.shape
    din = two_din // 2
    n = edges.n_nodes
    w_flat, v_flat = lay.w.reshape(k * d, two_din), lay.v.reshape(k * d, din)
    if is_final:
        d_pre = (d_out * gatv2._elu_grad(c.agg.mean(axis=1))) / k
        d_agg = np.ascontiguousarray(np.broadcast_to(d_pre[:, None, :], (n, k, d)))
    else:
        d_agg = d_out.reshape(n, k, d) * gatv2._elu_grad(c.agg)
    d_weighted3 = d_agg.reshape(n, k * d)[edges.dst].reshape(-1, k, d)
    d_alpha = np.einsum("ekd,ekd->ek", d_weighted3, c.msg.reshape(-1, k, d))
    d_msg = (d_weighted3 * c.alpha[:, :, None]).reshape(-1, k * d)
    s_msg = edges.scatter_src(d_msg)
    d_score = c.alpha * (d_alpha - edges.scatter_dst(c.alpha * d_alpha)[edges.dst])
    d_u = (d_score[:, :, None] * lay.a[None]).reshape(-1, k * d)
    d_z = d_u * (c.pos * (1.0 - slope) + slope)
    z_dst, z_src = edges.scatter_dst(d_z), edges.scatter_src(d_z)
    d_w = np.empty((k * d, two_din))
    d_w[:, :din] = z_dst.T @ c.h_in
    d_w[:, din:] = z_src.T @ c.h_in
    grads = LayerParams(w=d_w.reshape(k, d, two_din),
                        a=np.einsum("ek,ekd->kd", d_score, c.u.reshape(-1, k, d)),
                        v=(s_msg.T @ c.h_in).reshape(k, d, din))
    d_h = None
    if need_input_grad:
        d_h = s_msg @ v_flat + z_dst @ w_flat[:, :din] + z_src @ w_flat[:, din:]
    return grads, d_h


class TestPerEdgeReference:
    def test_forward_and_gradient_match_per_edge_layers(self, monkeypatch):
        graph, targets = random_graph(30, seed=31)
        # (5,) with one head: the sparse aggregation where the first layer is the final one
        for widths, heads in [((4, 3), 3), ((5,), 1)]:
            model = init_model(3, GatConfig(widths=widths, heads=heads, seed=8))

            def run():
                preds, export, cache = forward(model, graph)
                grads = gradient(model, graph, targets, cache)
                return preds, export.alpha_mean, cache.alphas, grads.flatten()

            preds, alpha, alphas, grads = run()
            with monkeypatch.context() as patch:
                patch.setattr(gatv2, "_layer_forward", per_edge_layer_forward)
                patch.setattr(gatv2, "_layer_backward", per_edge_layer_backward)
                ref_preds, ref_alpha, ref_alphas, ref_grads = run()

            np.testing.assert_allclose(preds, ref_preds, rtol=1e-12, atol=0)
            np.testing.assert_allclose(alpha, ref_alpha, rtol=1e-12, atol=0)
            assert len(alphas) == len(widths)
            for got, want in zip(alphas, ref_alphas):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            # entries near zero are held to 1e-12 of the largest gradient entry
            np.testing.assert_allclose(grads, ref_grads, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref_grads).max())

    def test_sparse_aggregation_equals_edge_scatter_layers(self, monkeypatch):
        graph, targets = random_graph(30, seed=37)
        assert_ragged(graph.n_edges)
        # (16, 16) with 4 heads is the default network; slope 0.9 checks the
        # LeakyReLU forms max(z, slope z) and max(u > 0, slope) near slope 1;
        # from 8 heads on, numpy's mean over a row sums pairwise, which a mean
        # over the strided (E, K) view of the attention would not do
        for widths, heads, slope in [((4, 3), 3, 0.2), ((5,), 1, 0.2),
                                     ((16, 16), 4, 0.2), ((4, 3), 3, 0.9), ((2, 2), 8, 0.2)]:
            model = init_model(3, GatConfig(widths=widths, heads=heads, leaky_slope=slope, seed=4))

            def run():
                preds, export, cache = forward(model, graph)
                grads = gradient(model, graph, targets, cache)
                return [preds, export.alpha_mean, *cache.alphas, grads.flatten()]

            got = run()
            with monkeypatch.context() as patch:
                patch.setattr(gatv2, "_EDGE_BLOCK_ROWS", SMALL_BLOCK)
                got_in_blocks = run()
            with monkeypatch.context() as patch:
                patch.setattr(gatv2, "_layer_forward", scatter_layer_forward)
                patch.setattr(gatv2, "_layer_backward", scatter_layer_backward)
                want = run()
            for g, b, w in zip(got, got_in_blocks, want, strict=True):
                np.testing.assert_array_equal(g, w)
                np.testing.assert_array_equal(b, w)


def wide_bases(buffers, n_wide):
    """The distinct arrays of at least ``n_wide`` entries under the edge
    buffers' arrays, by id."""
    wide = {}
    for buf in buffers:
        for f in fields(buf):
            arr = getattr(buf, f.name)
            if f.name == "edges" or arr is None:
                continue
            base = arr if arr.base is None else arr.base
            if base.size >= n_wide:
                wide[id(base)] = base
    return wide


@pytest.fixture(scope="class")
def n2200():
    """The benchmark's n = 2,200 records and their graph."""
    data = simgen.simulate(simgen.SimConfig(n_times=10, locs_per_time=(220, 220), seed=1))
    return data, build_graph(data, GraphConfig())


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEdgeBuffers:
    def test_train_holds_one_wide_array_and_prediction_none(self, monkeypatch):
        # E x K*d arrays dominate a pass's memory: training keeps one, shared
        # by all layers, and a prediction pass none; all layers share the
        # block-sized scratch
        graph, targets = random_graph(150, seed=41)
        config = GatConfig(widths=(4, 4, 4), heads=3, epochs=1)
        edges = gatv2._training_edges(graph, 3, heads=3)
        sizes = [e.n_edges for e in edges]
        assert min(sizes) > gatv2._EDGE_BLOCK_ROWS and len(set(sizes)) > 1
        seen = []
        edge_buffers = gatv2._edge_buffers

        def recording_edge_buffers(*args, **kwargs):
            seen.append(edge_buffers(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(gatv2, "_edge_buffers", recording_edge_buffers)
        model, _ = train(graph, targets, config)
        _, _, cache = forward(model, graph)
        bufs, pred_bufs = seen
        assert pred_bufs is cache.buffers

        n_wide = min(sizes) * 3 * 4
        (wide,) = wide_bases(bufs, n_wide).values()
        assert wide.size == max(sizes) * 3 * 4
        for buf in bufs:
            assert buf.u.shape == (buf.edges.n_edges, 3 * 4) and buf.u.base is wide
        assert wide_bases(pred_bufs, n_wide) == {}
        assert all(buf.u is None for buf in pred_bufs)
        for group in (bufs, pred_bufs):
            for buf in group:
                block = (gatv2._EDGE_BLOCK_ROWS, 3 * 4)
                assert buf.scratch_kd.shape == buf.scratch_kd2.shape == block
                assert buf.scratch_kd.base is group[0].scratch_kd.base
                assert buf.scratch_kd2.base is group[0].scratch_kd2.base

    def test_training_peak_is_few_edge_wide_arrays(self, n2200):
        # the benchmark's n = 2,200 graph: two E x K*d scratch arrays besides
        # each layer's u put the peak at 5.6 E*K*d*8 bytes, block scratch at
        # 3.9, dropping each epoch's cache and gradient before the next
        # forward at 3.6, and one shared u recomputed in backward, with the
        # backward's node arrays trimmed, at 2.2
        data, graph = n2200
        config = GatConfig(epochs=2)
        wide_bytes = graph.n_edges * config.heads * config.widths[-1] * 8
        peak = traced_peak(lambda: train(graph, data.empirical_prevalence, config))
        assert peak < 2.3 * wide_bytes

    def test_prediction_forward_peak_holds_no_edge_wide_array(self, n2200):
        # each layer's u lives one block of edges at a time: 1.0 E*K*d*8
        # bytes at n = 2,200, 3.3 when every layer kept its own
        data, graph = n2200
        config = GatConfig()
        wide_bytes = graph.n_edges * config.heads * config.widths[-1] * 8
        model = init_model(graph.features.shape[1], config)
        forward(model, graph)  # warm-up, so no first-call allocation counts
        assert traced_peak(lambda: forward(model, graph)) < 1.25 * wide_bytes

    def test_build_graph_peak_is_small_distance_blocks(self, n2200):
        # 64-row distance blocks: 0.75 E*K*d*8 bytes at n = 2,200, 2.9 at 256 rows
        data, graph = n2200
        config = GatConfig()
        wide_bytes = graph.n_edges * config.heads * config.widths[-1] * 8
        assert traced_peak(lambda: build_graph(data, GraphConfig())) < 0.85 * wide_bytes


def split_graph(n_layers):
    """A kNN graph whose east side is predict-role: deep inside it lie nodes
    more than ``n_layers`` hops from every train-role node."""
    data = simgen.simulate(simgen.SimConfig(n_times=2, locs_per_time=(60, 60), seed=3))
    graph = build_graph(data, GraphConfig(k_neighbors=3), train_mask=data.x < 0.45)
    return graph, data.empirical_prevalence


def receptive_edges(graph, n_layers):
    """Brute force: layer l's edges into nodes from which a walk of
    n_layers - 1 - l edges reaches a train-role node."""
    n = graph.n_nodes
    step = np.zeros((n, n), dtype=int)
    step[graph.dst, graph.src] = 1  # step[i, j]: edge j -> i
    reach = np.eye(n, dtype=int)[graph.train_mask]  # walks of 0 edges from train nodes
    kept = []
    for _ in range(n_layers):
        into = reach.any(axis=0)
        kept.append({(s, d) for s, d in zip(graph.src.tolist(), graph.dst.tolist()) if into[d]})
        reach = np.minimum(reach @ step, 1)
    return kept[::-1]


def full_graph_epoch_loop(graph, targets, config):
    """Training with a fresh full-graph forward and gradient every epoch."""
    model = init_model(graph.features.shape[1], config)
    trace = np.empty(config.epochs)
    lr = config.learning_rate
    for epoch in range(config.epochs):
        preds, _, _ = forward(model, graph)
        trace[epoch] = mse_loss(preds, targets, graph.train_mask)
        g = gradient(model, graph, targets)
        for lay, glay in zip(model.layers, g.layers):
            lay.w -= lr * glay.w
            lay.a -= lr * glay.a
            lay.v -= lr * glay.v
        model.w_out -= lr * g.w_out
        model.b_out -= lr * g.b_out
    return model, trace


def stored_u_epoch_loop(graph, targets, config, monkeypatch):
    """Training as it ran before backward recomputed u: every layer's
    forward stores its u in an E x K*d array of its own, and its backward
    reads it there and writes d_z over it."""
    model = init_model(graph.features.shape[1], config)
    edges = gatv2._training_edges(graph, len(config.widths), config.heads)
    trace = np.empty(config.epochs)
    lr = config.learning_rate
    with monkeypatch.context() as patch:
        patch.setattr(gatv2, "_keeps_u", lambda buf, is_final: True)
        for epoch in range(config.epochs):
            bufs = gatv2._edge_buffers(edges, model.layers)
            for buf in bufs:
                buf.u = np.empty_like(buf.u)
            _, _, cache = forward(model, graph, _buffers=bufs, _export=False)
            trace[epoch] = mse_loss(cache.preds, targets, graph.train_mask)
            g = gradient(model, graph, targets, cache)
            for lay, glay in zip(model.layers, g.layers):
                lay.w -= lr * glay.w
                lay.a -= lr * glay.a
                lay.v -= lr * glay.v
            model.w_out -= lr * g.w_out
            model.b_out -= lr * g.b_out
    return model, trace


class TestRecomputedU:
    @pytest.mark.parametrize("widths", [(16,), (8, 8), (8, 8, 8)], ids=["1", "2", "3"])
    @pytest.mark.parametrize("masked", [False, True], ids=["all_train", "split"])
    def test_train_equals_the_stored_u_loop(self, widths, masked, monkeypatch):
        graph, targets = split_graph(len(widths))
        if not masked:
            graph = replace(graph, train_mask=np.ones(graph.n_nodes, bool))
        config = GatConfig(widths=widths, heads=2, epochs=4, seed=3)
        for block in (gatv2._EDGE_BLOCK_ROWS, SMALL_BLOCK):
            with monkeypatch.context() as patch:
                patch.setattr(gatv2, "_EDGE_BLOCK_ROWS", block)
                want, want_trace = stored_u_epoch_loop(graph, targets, config, monkeypatch)
                got, trace = train(graph, targets, config)
            np.testing.assert_array_equal(trace, want_trace)
            np.testing.assert_array_equal(got.flatten(), want.flatten())

    def test_prediction_cache_gradient_equals_the_training_pass(self):
        # a prediction forward stores no u, so its gradient recomputes every
        # layer's and overwrites nothing in the cache: it serves two calls
        graph, targets = split_graph(3)
        config = GatConfig(widths=(8, 8, 8), heads=2, seed=4)
        model = init_model(graph.features.shape[1], config)
        bufs = gatv2._edge_buffers(gatv2._training_edges(graph, 3, config.heads), model.layers)
        _, _, train_cache = forward(model, graph, _buffers=bufs, _export=False)
        want = gradient(model, graph, targets, train_cache).flatten()
        _, _, cache = forward(model, graph)
        alphas = [a.copy() for a in cache.alphas]
        for _ in range(2):
            np.testing.assert_array_equal(gradient(model, graph, targets, cache).flatten(), want)
        for got, kept in zip(cache.alphas, alphas, strict=True):
            np.testing.assert_array_equal(got, kept)


class TestTrainingEdges:
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_each_layer_keeps_the_receptive_field(self, n_layers):
        graph, _ = split_graph(n_layers)
        edges = gatv2._training_edges(graph, n_layers, heads=2)
        want = receptive_edges(graph, n_layers)
        assert len(edges) == n_layers
        for got, kept in zip(edges, want, strict=True):
            assert set(zip(got.src.tolist(), got.dst.tolist())) == kept
            assert got.n_edges == len(kept) < graph.n_edges
            # the graph's (dst, src) order, and segments over the kept destinations
            order = np.lexsort((got.src, got.dst))
            np.testing.assert_array_equal(order, np.arange(got.n_edges))
            np.testing.assert_array_equal(got.dst[got.seg_starts], np.unique(got.dst))
            np.testing.assert_array_equal(got.dst[got.seg_starts[got.seg]], got.dst)

    @pytest.mark.parametrize("widths, slope", [
        ((4,), 0.2), ((4, 3), 0.2), ((3, 3, 2), 0.2), ((4, 3), 0.9),
    ], ids=["1_layer", "2_layers", "3_layers", "slope_0.9"])
    def test_train_equals_the_full_graph_epoch_loop(self, widths, slope, monkeypatch):
        graph, targets = split_graph(len(widths))
        first = gatv2._training_edges(graph, len(widths), heads=2)[0]
        # nodes outside every layer's receptive field: no edge into them is trained
        assert len(np.unique(first.dst)) < graph.n_nodes
        config = GatConfig(widths=widths, heads=2, leaky_slope=slope, epochs=5, seed=6)
        want, want_trace = full_graph_epoch_loop(graph, targets, config)
        got, trace = train(graph, targets, config)
        np.testing.assert_array_equal(trace, want_trace)
        np.testing.assert_array_equal(got.flatten(), want.flatten())
        # the pruned layers' edge sets, in many blocks with a ragged last one
        for e in gatv2._training_edges(graph, len(widths), heads=2):
            assert_ragged(e.n_edges)
        with monkeypatch.context() as patch:
            patch.setattr(gatv2, "_EDGE_BLOCK_ROWS", SMALL_BLOCK)
            got, trace = train(graph, targets, config)
        np.testing.assert_array_equal(trace, want_trace)
        np.testing.assert_array_equal(got.flatten(), want.flatten())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_the_loss_never_reads_fails_only_the_full_forward(self):
        # a predict-role ring with huge features, linked to no train-role node
        n = 6
        ring = np.arange(n)
        src = np.concatenate([ring, ring, np.roll(ring, 1)])
        dst = np.concatenate([ring, np.roll(ring, 1), ring])
        features = np.random.default_rng(2).standard_normal((2 * n, 2))
        features[n:] = 1e308
        graph = GraphSpec(n_nodes=2 * n, features=features, src=np.concatenate([src, src + n]),
                          dst=np.concatenate([dst, dst + n]), train_mask=np.arange(2 * n) < n)
        config = GatConfig(widths=(3,), heads=2, epochs=3, weight_init_scale=8.0, seed=1)
        with pytest.raises(NonFiniteActivation):
            forward(init_model(2, config), graph)
        model, trace = train(graph, np.full(2 * n, 0.5), config)
        assert np.all(np.isfinite(trace)) and np.all(np.isfinite(model.flatten()))
        with pytest.raises(NonFiniteActivation):
            forward(model, graph)

    def test_all_train_graph_trains_on_its_own_arrays(self, monkeypatch):
        # with nothing to drop, training copies no edge array of the graph
        graph = ring_graph(12, d0=3, seed=4)
        seen = []
        edge_buffers = gatv2._edge_buffers

        def recording_edge_buffers(edges, layers):
            seen.append(edges)
            return edge_buffers(edges, layers)

        monkeypatch.setattr(gatv2, "_edge_buffers", recording_edge_buffers)
        train(graph, np.full(12, 0.5), GatConfig(widths=(3, 2), heads=2, epochs=2))
        (edges,) = seen
        assert len(edges) == 2 and edges[0] is edges[1]
        assert edges[0].src is graph.src and edges[0].dst is graph.dst
        assert edges[0].seg_starts is graph.dst_starts and edges[0].seg is graph.dst
        assert edges[0].sum_dst is graph._sum_dst and edges[0].sum_src is graph._sum_src


class TestTrain:
    def test_matches_epoch_loop_without_reused_buffers(self, monkeypatch):
        # the epoch loop as written before train() kept its edge buffers:
        # a fresh forward and gradient every epoch, then the same SGD step
        graph, targets = random_graph(40, seed=13)
        config = GatConfig(widths=(4, 3), heads=3, epochs=6, seed=5)
        model = init_model(graph.features.shape[1], config)
        want_trace = np.empty(config.epochs)
        lr = config.learning_rate
        for epoch in range(config.epochs):
            preds, _, _ = forward(model, graph)
            want_trace[epoch] = mse_loss(preds, targets, graph.train_mask)
            g = gradient(model, graph, targets)
            for lay, glay in zip(model.layers, g.layers):
                lay.w -= lr * glay.w
                lay.a -= lr * glay.a
                lay.v -= lr * glay.v
            model.w_out -= lr * g.w_out
            model.b_out -= lr * g.b_out

        got, trace = train(graph, targets, config)
        np.testing.assert_array_equal(trace, want_trace)
        np.testing.assert_array_equal(got.flatten(), model.flatten())
        for e in gatv2._training_edges(graph, len(config.widths), config.heads):
            assert_ragged(e.n_edges)
        with monkeypatch.context() as patch:
            patch.setattr(gatv2, "_EDGE_BLOCK_ROWS", SMALL_BLOCK)
            got, trace = train(graph, targets, config)
        np.testing.assert_array_equal(trace, want_trace)
        np.testing.assert_array_equal(got.flatten(), model.flatten())

    def test_later_calls_leave_forward_results_alone(self):
        graph, targets = random_graph(30, seed=17)
        config = GatConfig(widths=(4, 3), heads=3, epochs=3, seed=2)
        preds, export, cache = forward(init_model(3, config), graph)
        kept = (preds.copy(), export.alpha_mean.copy(), [a.copy() for a in cache.alphas])

        forward(init_model(3, replace(config, seed=9)), graph)
        train(graph, targets, config)
        np.testing.assert_array_equal(preds, kept[0])
        np.testing.assert_array_equal(export.alpha_mean, kept[1])
        for got, want in zip(cache.alphas, kept[2]):
            np.testing.assert_array_equal(got, want)

    def test_constant_targets(self):
        graph = ring_graph(12, d0=3, seed=6)
        config = GatConfig(widths=(4,), heads=2, epochs=200, learning_rate=0.1, seed=1)
        targets = np.full(12, 0.37)
        model, trace = train(graph, targets, config)
        preds, _, _ = forward(model, graph)
        assert trace[-1] <= trace[0]
        assert np.abs(preds - 0.37).max() <= 0.05

    def test_beats_mean_predictor_on_simulated_data(self):
        data = simgen.simulate(simgen.SimConfig(n_times=3, locs_per_time=(30, 40), seed=21))
        graph = build_graph(data, GraphConfig(k_neighbors=6))
        targets = data.empirical_prevalence
        config = GatConfig(epochs=300, seed=2)
        model, trace = train(graph, targets, config)
        assert trace[-1] < np.var(targets)

    def test_seeded_determinism(self):
        graph = ring_graph(10, d0=2, seed=7)
        targets = np.random.default_rng(5).uniform(0, 1, 10)
        config = GatConfig(widths=(3,), heads=2, epochs=50, seed=11)
        _, trace_a = train(graph, targets, config)
        _, trace_b = train(graph, targets, config)
        np.testing.assert_array_equal(trace_a, trace_b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_reports_epoch(self):
        graph = ring_graph(6, d0=2, seed=1)
        targets = np.random.default_rng(1).uniform(0, 1, 6)
        config = GatConfig(widths=(4,), heads=2, epochs=3000, learning_rate=2e4, seed=3)
        with pytest.raises(NonFiniteActivation) as exc:
            train(graph, targets, config)
        assert exc.value.epoch is not None

    def test_dynamic_attention_counterexample(self):
        # orthogonal features on a complete graph, target = partner's value:
        # solving the regression forces destination-dependent attention,
        # which constant-ranking (static) attention cannot express
        n = 4
        values = np.array([0.1, 0.9, 0.3, 0.7])
        perm = np.array([1, 0, 3, 2])
        targets = values[perm]
        src = np.tile(np.arange(n), n)
        dst = np.repeat(np.arange(n), n)
        graph = GraphSpec(
            n_nodes=n, features=np.eye(n), src=src, dst=dst,
            train_mask=np.ones(n, bool),
        )
        config = GatConfig(widths=(8,), heads=1, epochs=4000, learning_rate=0.1, seed=3)
        model, trace = train(graph, targets, config)
        assert trace[-1] < 1e-3
        _, export, _ = forward(model, graph)
        argmax_by_dst = {}
        for d in range(n):
            sel = export.dst == d
            argmax_by_dst[d] = export.src[sel][np.argmax(export.alpha_mean[sel])]
        assert len(set(argmax_by_dst.values())) >= 2


class TestBuildGraph:
    def small_dataset(self, x, y, t=None):
        n = len(x)
        t = np.ones(n, dtype=int) if t is None else np.asarray(t)
        return simgen.Dataset(
            ids=np.arange(n), x=np.asarray(x, float), y=np.asarray(y, float), t=t,
            n_tested=np.full(n, 10), n_pos=np.full(n, 2),
            covariates=np.zeros((n, 3)),
        )

    def test_single_node_self_loop(self):
        graph = build_graph(self.small_dataset([0.5], [0.5]), GraphConfig(k_neighbors=3))
        assert graph.n_edges == 1
        assert graph.src[0] == graph.dst[0] == 0

    def test_collinear_tie_break_is_deterministic(self):
        # node 1 ties between nodes 0 and 2 at distance 0.5; flanking nodes
        # 3 and 4 absorb the mutualized edges of 0 and 2, so the (0, 1) pair
        # appears only through node 1's own tie-broken choice
        data = self.small_dataset(
            [0.0, 0.5, 1.0, -0.01, 1.01], [0.0, 0.0, 0.0, 0.0, 0.0],
        )
        a = build_graph(data, GraphConfig(k_neighbors=1))
        b = build_graph(data, GraphConfig(k_neighbors=1))
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.dst, b.dst)
        edges = set(zip(a.src.tolist(), a.dst.tolist()))
        assert (1, 0) in edges and (0, 1) in edges  # lower id won the tie
        assert (1, 2) not in edges and (2, 1) not in edges

    def test_in_degree_with_mutual_knn(self):
        rng = np.random.default_rng(17)
        data = self.small_dataset(rng.uniform(0, 1, 200), rng.uniform(0, 1, 200))
        graph = build_graph(data, GraphConfig(k_neighbors=8))
        in_deg = np.bincount(graph.dst, minlength=200)
        assert in_deg.min() >= 9
        # brute-force oracle: each node's 8 nearest must appear as in-edges
        edge_set = set(zip(graph.src.tolist(), graph.dst.tolist()))
        coords = np.column_stack([data.x, data.y])
        for i in range(0, 200, 23):
            d = np.linalg.norm(coords - coords[i], axis=1)
            d[i] = np.inf
            for j in np.argsort(d)[:8]:
                assert (j, i) in edge_set and (i, j) in edge_set

    @pytest.mark.parametrize("time_scale", [0.0, 1.0 / 7.0])
    def test_matches_brute_force_on_tied_grid(self, time_scale):
        # 8 x 8 grid repeated over 5 times: 320 nodes (more than one row
        # block) with many exactly equal distances, all zero at time_scale 0
        side = np.arange(8) * 0.125
        gx, gy = np.meshgrid(side, side)
        n_times, k = 5, 8
        data = self.small_dataset(
            np.tile(gx.ravel(), n_times), np.tile(gy.ravel(), n_times),
            t=np.repeat(np.arange(1, n_times + 1), gx.size),
        )
        n = len(data)
        assert n > gatv2._KNN_BLOCK_ROWS
        src, dst = [np.arange(n)], [np.arange(n)]
        for i in range(n):
            dx, dy = data.x[i] - data.x, data.y[i] - data.y
            dt = float(data.t[i]) - data.t
            dist = np.sqrt(dx * dx + dy * dy + (time_scale * dt) ** 2)
            order = np.argsort(dist, kind="stable")
            neigh = order[order != i][:k]
            src += [neigh, np.full(k, i)]
            dst += [np.full(k, i), neigh]
        want = GraphSpec(n_nodes=n, features=np.zeros((n, 1)), src=np.concatenate(src),
                         dst=np.concatenate(dst), train_mask=np.ones(n, bool))
        got = build_graph(data, GraphConfig(k_neighbors=k, time_scale=time_scale))
        np.testing.assert_array_equal(got.src, want.src)
        np.testing.assert_array_equal(got.dst, want.dst)

    def test_features_include_scaled_time(self):
        data = self.small_dataset([0.1, 0.2], [0.3, 0.4], t=[1, 2])
        graph = build_graph(data, GraphConfig(k_neighbors=1))
        np.testing.assert_allclose(graph.features[:, -1], [0.5, 1.0])

    def test_requires_self_loops(self):
        with pytest.raises(ValueError):
            GraphSpec(
                n_nodes=2, features=np.eye(2),
                src=np.array([0, 1]), dst=np.array([1, 0]),
                train_mask=np.ones(2, bool),
            )


class TestCheckpointAndExport:
    def test_checkpoint_roundtrip(self, tmp_path):
        # every field off its default, so a field lost on save or load shows
        config = GatConfig(widths=(3, 2), heads=2, leaky_slope=0.3, learning_rate=0.05,
                           epochs=7, weight_init_scale=0.5, seed=12)
        model = init_model(3, config)
        path = tmp_path / "model.json"
        gatv2.save_checkpoint(model, path, extra={"k_neighbors": 8})
        back, extra = gatv2.load_checkpoint(path)
        np.testing.assert_array_equal(back.flatten(), model.flatten())
        assert back.config == model.config
        assert extra["k_neighbors"] == 8

    def test_attention_csv_roundtrip(self, tmp_path):
        export = AttentionExport(
            src=np.array([0, 1, 2]), dst=np.array([0, 0, 2]),
            alpha_mean=np.array([0.25, 0.75, 1.0]),
        )
        path = tmp_path / "attn.csv"
        gatv2.write_attention_csv(export, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "src,dst,alpha_mean"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back[:, 0], export.src)
        np.testing.assert_array_equal(back[:, 1], export.dst)
        np.testing.assert_array_equal(back[:, 2], export.alpha_mean)

    def test_logit_offset_clamps(self):
        offs = gatv2.logit_offset(np.array([-0.2, 0.5, 1.7]))
        assert np.isfinite(offs).all()
        assert offs[0] == pytest.approx(np.log(1e-6 / (1 - 1e-6)))
