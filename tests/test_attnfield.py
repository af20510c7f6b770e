"""Attention-derived GMRF structure: symmetrization, Laplacian, precision."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoattn import attnfield, geostat, numkit, simgen
from geoattn.attnfield import AttentionField, AttnHyper, build_field, precision
from conftest import random_export
from geoattn.gatv2 import AttentionExport


def export_from_edges(edges, n):
    src = np.array([e[0] for e in edges])
    dst = np.array([e[1] for e in edges])
    alpha = np.array([e[2] for e in edges])
    return AttentionExport(src=src, dst=dst, alpha_mean=alpha), n


class TestSymmetrize:
    def test_one_directed_edge_halves(self):
        export, n = export_from_edges([(0, 0, 0.4), (1, 1, 1.0), (1, 0, 0.6)], 2)
        w = attnfield.symmetrize(export, n)
        assert w[0, 1] == pytest.approx(0.3)
        assert w[1, 0] == pytest.approx(0.3)

    def test_symmetric_input_is_fixed_point(self):
        export, n = export_from_edges(
            [(0, 1, 0.25), (1, 0, 0.25), (1, 2, 0.5), (2, 1, 0.5)], 3
        )
        w = attnfield.symmetrize(export, n)
        assert w[0, 1] == pytest.approx(0.25)
        assert w[1, 2] == pytest.approx(0.5)

    def test_exact_symmetry(self):
        export = random_export(17, seed=4)
        w = attnfield.symmetrize(export, 17)
        np.testing.assert_array_equal(w, w.T)

    def test_self_attention_dropped(self):
        export, n = export_from_edges([(0, 0, 0.9), (1, 1, 0.8), (0, 1, 0.2)], 2)
        w = attnfield.symmetrize(export, n)
        assert w[0, 0] == 0.0 and w[1, 1] == 0.0


class TestLaplacian:
    def test_unit_triangle(self):
        w = np.ones((3, 3)) - np.eye(3)
        lap, deg = attnfield.laplacian(w)
        np.testing.assert_array_equal(deg, [2, 2, 2])
        np.testing.assert_array_equal(lap, 2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3)))

    def test_rows_sum_to_zero(self):
        w = attnfield.symmetrize(random_export(12, seed=1), 12)
        lap, _ = attnfield.laplacian(w)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)

    def test_weighted_path_degrees(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        w[1, 2] = w[2, 1] = 2.0
        _, deg = attnfield.laplacian(w)
        np.testing.assert_array_equal(deg, [1, 3, 2])


class TestHyper:
    def test_transforms(self):
        h = AttnHyper(theta1=np.log(2.0), theta2=0.0)
        assert h.tau == pytest.approx(2.0)
        assert h.beta == pytest.approx(0.5)

    @given(st.floats(-30, 30), st.floats(-30, 30))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, theta1, theta2):
        h = AttnHyper(theta1, theta2)
        back = AttnHyper.from_tau_beta(h.tau, h.beta)
        assert back.theta1 == pytest.approx(theta1, abs=1e-12, rel=1e-12)
        # theta2 itself cannot round-trip through a rounded beta deep in the
        # tails (the 1 - beta cancellation loses e^|theta| * eps), so the
        # inversion contract is checked on the beta scale, where it is exact
        # to floating precision everywhere on [-30, 30]
        assert back.beta == pytest.approx(h.beta, abs=1e-12)
        if abs(theta2) <= 8.0:
            assert back.theta2 == pytest.approx(theta2, abs=1e-12, rel=1e-12)

    def test_from_tau_beta_validates(self):
        with pytest.raises(ValueError):
            AttnHyper.from_tau_beta(-1.0, 0.5)
        with pytest.raises(ValueError):
            AttnHyper.from_tau_beta(1.0, 1.0)


class TestPrecision:
    def two_node_field(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        return AttentionField(
            n_nodes=2, w_sym=np.array([[0.0, 1.0], [1.0, 0.0]]),
            degrees=np.array([1.0, 1.0]), c=lap, lam_max=2.0, c_eigh=np.linalg.eigh(lap),
        )

    def test_hand_value(self):
        hyper = AttnHyper.from_tau_beta(1.0, 0.5)
        q = precision(self.two_node_field(), hyper)
        np.testing.assert_allclose(q, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)

    def test_beta_to_zero_limit(self):
        q = precision(self.two_node_field(), AttnHyper(theta1=0.0, theta2=-40.0))
        np.testing.assert_allclose(q, np.eye(2), atol=1e-12)

    def test_degenerate_field_gives_scaled_identity(self):
        field = AttentionField(
            n_nodes=3, w_sym=np.zeros((3, 3)), degrees=np.zeros(3),
            c=np.zeros((3, 3)), lam_max=0.0, c_eigh=np.linalg.eigh(np.zeros((3, 3))),
        )
        assert field.degenerate
        q = precision(field, AttnHyper(theta1=np.log(4.0), theta2=0.0))
        np.testing.assert_allclose(q, 4.0 * np.eye(3))

    def test_tau_homogeneity(self):
        field = build_field(random_export(15, seed=8), 15)
        q1 = precision(field, AttnHyper.from_tau_beta(1.3, 0.4))
        q2 = precision(field, AttnHyper.from_tau_beta(2.6, 0.4))
        np.testing.assert_allclose(q2, 2.0 * q1, atol=1e-12)

    def test_spd_without_jitter_and_eigenvalue_floor(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            n = int(rng.integers(5, 60))
            field = build_field(random_export(n, seed=100 + trial), n)
            tau = float(np.exp(rng.uniform(-2, 3)))
            beta = float(rng.uniform(0.01, 0.999))
            q = precision(field, AttnHyper.from_tau_beta(tau, beta))
            numkit.cholesky(q, jitter=0.0)  # must succeed with no jitter
            min_eig = np.linalg.eigvalsh(q).min()
            assert min_eig >= tau * (1 - beta) - 1e-9


class TestCovarianceBlock:
    """covariance(field, hyper, n) is the field's marginal over its first n
    nodes, the leading block of Q^{-1}, from the field's one eigh."""

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    def test_leading_block_of_the_inverse_precision(self, beta):
        field = build_field(random_export(23, seed=12), 23)
        hyper = AttnHyper.from_tau_beta(1.7, beta)
        full = np.linalg.inv(precision(field, hyper))
        for n in (1, field.n_nodes // 2, field.n_nodes):
            got = attnfield.covariance(field, hyper, n)
            want = full[:n, :n]
            assert got.shape == (n, n)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_degenerate_field_gives_scaled_identity(self):
        # self-attention only: W is empty, so C = 0 and lam_max = 0
        export, n = export_from_edges([(i, i, 1.0) for i in range(4)], 4)
        field = build_field(export, n)
        assert field.degenerate
        hyper = AttnHyper.from_tau_beta(4.0, 0.5)
        for m in (1, 2, 4):
            np.testing.assert_array_equal(attnfield.covariance(field, hyper, m), np.eye(m) / 4.0)


class TestCovarianceAfter:
    """covariance_after(field, hyper, n) is the two blocks of Q^{-1} past the
    first n nodes, from the same eigh as covariance."""

    @pytest.mark.parametrize("beta", [0.1, 0.9])
    def test_blocks_of_the_inverse_precision(self, beta):
        field = build_field(random_export(23, seed=12), 23)
        hyper = AttnHyper.from_tau_beta(1.7, beta)
        full = np.linalg.inv(precision(field, hyper))
        for n in (1, 15, 22):
            cross, rest = attnfield.covariance_after(field, hyper, n)
            for got, want in ((cross, full[:n, n:]), (rest, full[n:, n:])):
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        # the fit's leading block and these come from one factor: together
        # they are the whole inverse
        cross, rest = attnfield.covariance_after(field, hyper, 15)
        whole = np.block([[attnfield.covariance(field, hyper, 15), cross], [cross.T, rest]])
        np.testing.assert_allclose(whole, attnfield.covariance(field, hyper), rtol=0,
                                   atol=1e-14 * np.abs(whole).max())

    def test_degenerate_field_gives_zero_and_scaled_identity(self):
        export, n = export_from_edges([(i, i, 1.0) for i in range(4)], 4)
        field = build_field(export, n)
        cross, rest = attnfield.covariance_after(field, AttnHyper.from_tau_beta(4.0, 0.5), 1)
        np.testing.assert_array_equal(cross, np.zeros((1, 3)))
        np.testing.assert_array_equal(rest, np.eye(3) / 4.0)


def two_rings(n=10, scale=1 + 1e-4):
    """Two disjoint n-node rings, attention 0.5 per edge, the second scaled."""
    src, dst, alpha = [], [], []
    for offset, s in ((0, 1.0), (n, scale)):
        for i in range(n):
            a, b = offset + i, offset + (i + 1) % n
            src += [a, a, b]
            dst += [a, b, a]
            alpha += [0.0, 0.5 * s, 0.5 * s]
    return AttentionExport(src=np.array(src), dst=np.array(dst), alpha_mean=np.array(alpha))


class TestBuildField:
    def test_builds_consistent_structure(self):
        export = random_export(20, seed=5)
        field = build_field(export, 20)
        assert field.n_nodes == 20
        np.testing.assert_allclose(field.c, np.diag(field.degrees) - field.w_sym, atol=1e-12)
        # lam_max is the top eigenvalue of C, on the built field and on a
        # restriction, and agrees with the power iteration it replaced
        keep = np.random.default_rng(5).permutation(20)[:12]
        for fld in (field, attnfield.restrict_field(field, keep)):
            truth = np.linalg.eigvalsh(fld.c).max()
            assert fld.lam_max == pytest.approx(truth, rel=1e-12)
            old = numkit.power_iteration_max_eig(fld.c).lam_max
            assert fld.lam_max == pytest.approx(old, rel=1e-9)
            assert not fld.degenerate

    def test_restrict_field_recomputes(self):
        export = random_export(20, seed=6)
        field = build_field(export, 20)
        keep = np.arange(12)
        sub = attnfield.restrict_field(field, keep)
        assert sub.n_nodes == 12
        np.testing.assert_array_equal(sub.w_sym, field.w_sym[:12, :12])
        assert sub.degrees.shape == (12,)
        # degrees and lam_max come from the subgraph, not sliced from the parent
        assert not np.allclose(sub.degrees, field.degrees[:12])

    def test_unlinked_restriction_is_degenerate(self):
        # nodes 0 and 2 are linked only through node 1
        export, n = export_from_edges([(0, 1, 0.4), (1, 0, 0.6), (1, 2, 0.2), (2, 1, 0.8)], 3)
        field = build_field(export, n)
        assert not field.degenerate
        sub = attnfield.restrict_field(field, np.array([0, 2]))
        assert sub.degenerate
        hyper = AttnHyper.from_tau_beta(3.0, 0.5)
        np.testing.assert_allclose(precision(sub, hyper), 3.0 * np.eye(2), rtol=1e-15)
        np.testing.assert_allclose(attnfield.covariance(sub, hyper), np.eye(2) / 3.0, rtol=1e-15)
        data = simgen.simulate(simgen.SimConfig(n_times=1, locs_per_time=(3, 3), seed=2))
        spec = geostat.ModelSpec(
            kernel=geostat.KernelSpec(), offset=np.zeros(2), attention=(sub, hyper),
        )
        fit = geostat.laplace_fit(data.subset(np.array([0, 2])), spec)
        assert fit.converged and np.isfinite(fit.logml)

    def test_mostly_isolated_restriction_is_not_degenerate(self):
        # a path 0-1-...-9 kept at {0, 1, 3, 5, 7, 9}: one linked pair and
        # four isolated nodes, so the median degree is 0
        edges = [(i, i + 1, 0.5) for i in range(9)] + [(i + 1, i, 0.5) for i in range(9)]
        export, n = export_from_edges(edges, 10)
        keep = np.array([0, 1, 3, 5, 7, 9])
        sub = attnfield.restrict_field(build_field(export, n), keep)
        np.testing.assert_array_equal(sub.degrees, [0.5, 0.5, 0, 0, 0, 0])
        assert not sub.degenerate
        assert sub.lam_max == pytest.approx(np.linalg.eigvalsh(sub.c)[-1], rel=1e-12, abs=1e-12)
        data = simgen.simulate(simgen.SimConfig(n_times=1, locs_per_time=(10, 10), seed=2))
        spec = geostat.ModelSpec(
            kernel=geostat.KernelSpec(), offset=np.zeros(len(keep)),
            attention=(sub, AttnHyper.from_tau_beta(2.0, 0.9)),
        )
        fit = geostat.laplace_fit(data.subset(keep), spec)
        assert fit.converged and np.isfinite(fit.logml)

    def test_same_prior_as_the_median_scaled_laplacian(self):
        # Q and Q^{-1} see C only through C / lam_max, so the field built
        # on L = D - W gives the prior of the field built on L / median(D)
        full = build_field(random_export(20, seed=5), 20)
        keep = np.random.default_rng(5).permutation(20)[:12]
        for fld in (full, attnfield.restrict_field(full, keep)):
            scaled = (np.diag(fld.degrees) - fld.w_sym) / np.median(fld.degrees)
            c_eigh = numkit.eigh(scaled)
            old = AttentionField(
                n_nodes=fld.n_nodes, w_sym=fld.w_sym, degrees=fld.degrees, c=scaled,
                lam_max=float(c_eigh[0][-1]), c_eigh=c_eigh,
            )
            for beta in (0.1, 0.5, 0.9):
                hyper = AttnHyper.from_tau_beta(1.7, beta)
                for build in (precision, attnfield.covariance):
                    new_m, old_m = build(fld, hyper), build(old, hyper)
                    assert np.linalg.norm(new_m - old_m) <= 1e-12 * np.linalg.norm(old_m)

    def test_near_tied_spectrum(self):
        # the two rings' top eigenvalues differ by 1e-4 relative, which
        # stalled power iteration (NonConvergence after 10,000 iterations)
        field = build_field(two_rings(), 20)
        truth = np.linalg.eigvalsh(field.c).max()
        assert field.lam_max == pytest.approx(truth, rel=1e-12)
