"""Numerical kernel: factorizations, power iteration, sampling, RNG streams."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from geoattn import numkit, simgen
from geoattn.errors import NonConvergence, NotPositiveDefinite


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(numkit.cholesky(np.eye(2)), np.eye(2))

    def test_hand_factor(self):
        # L @ L.T reproduces [[4, 2], [2, 3]] with L = [[2, 0], [1, sqrt(2)]]
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        lower = numkit.cholesky(a)
        np.testing.assert_allclose(lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], atol=1e-15)
        np.testing.assert_allclose(lower @ lower.T, a, atol=1e-14)

    def test_indefinite_reports_pivot_row(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            numkit.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.row == 1

    def test_jitter_rescues_singular(self):
        a = np.ones((3, 3))
        with pytest.raises(NotPositiveDefinite):
            numkit.cholesky(a)
        lower = numkit.cholesky(a, jitter=1e-8)
        np.testing.assert_allclose(lower @ lower.T, a + 1e-8 * np.eye(3), atol=1e-12)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            numkit.cholesky(np.eye(2), jitter=-1.0)

    def test_copies_unless_told_to_overwrite(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 8))
        a = m @ m.T
        kept = a.copy()
        lower = numkit.cholesky(a, jitter=1e-3)
        np.testing.assert_array_equal(a, kept)
        np.testing.assert_allclose(lower @ lower.T, a + 1e-3 * np.eye(6), rtol=1e-13)
        f = np.asfortranarray(a)
        in_place = numkit.cholesky(f, jitter=1e-3, overwrite_a=True)
        assert np.shares_memory(in_place, f)
        np.testing.assert_array_equal(in_place, lower)


class TestSyrk:
    # 300 rows cross the 256-row blocks that mirror the computed triangle
    @pytest.mark.parametrize("n", [5, 300])
    def test_product_is_symmetric_in_full(self, n):
        a = np.random.default_rng(n).standard_normal((n, 4))
        c = numkit.syrk(a)
        np.testing.assert_array_equal(c, c.T)
        np.testing.assert_allclose(c, a @ a.T, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("n", [5, 300])
    def test_out_takes_the_sum_in_place(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, 3))
        m = rng.standard_normal((n, n))
        out = m + m.T
        want = out + 7.0 * (a @ a.T)
        got = numkit.syrk(a, alpha=7.0, out=out)
        assert got is out or np.shares_memory(got, out)
        np.testing.assert_array_equal(got, got.T)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-12)


class TestMatmul:
    """numkit.matmul, scipy's dgemv and dgemm, against numpy's @."""

    def operands(self):
        rng = np.random.default_rng(17)
        q = rng.standard_normal((70, 70))
        b = rng.standard_normal((50, 9))
        return {
            "c_ordered": (q[:50, :50].copy(), b),
            "fortran_ordered": (np.asfortranarray(q[:50, :50]), np.asfortranarray(b)),
            # a block of a larger C-ordered matrix, as predict takes of Q
            "non_contiguous": (q[20:, :50], b),
            "vector_rhs": (q[:50, :50].copy(), b[:, 0].copy()),
            "transposed_vector_rhs": (q[:50, :9].T, b[:, 0].copy()),
        }

    @pytest.mark.parametrize("layout", [
        "c_ordered", "fortran_ordered", "non_contiguous", "vector_rhs", "transposed_vector_rhs",
    ])
    def test_matches_numpy(self, layout):
        a, b = self.operands()[layout]
        want = a @ b
        got = numkit.matmul(a, b)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def test_matrix_product_is_c_ordered(self):
        a, b = self.operands()["fortran_ordered"]
        assert numkit.matmul(a, b).flags.c_contiguous

    def test_copies_no_contiguous_operand(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((1000, 1000))
        b = rng.standard_normal((1000, 200))
        numkit.matmul(a[:2, :2], b[:2, :2])  # loads scipy's BLAS outside the count
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = numkit.matmul(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 ** 20


class TestEigh:
    def test_matches_numpy_eigh(self):
        a = np.random.default_rng(4).standard_normal((40, 40))
        s = a + a.T
        lam, vec = numkit.eigh(s)
        want_lam, want_vec = np.linalg.eigh(s)
        np.testing.assert_allclose(lam, want_lam, rtol=1e-12, atol=1e-12)
        # eigenvectors agree up to sign
        np.testing.assert_allclose(np.abs(vec.T @ want_vec), np.eye(40), atol=1e-10)


ONE_POOL_MODULES = ("geostat.py", "attnfield.py", "pipeline.py")


@pytest.mark.parametrize("module", ONE_POOL_MODULES)
def test_fitting_modules_reach_blas_only_through_numkit(module):
    """The fitting modules import no scipy.linalg and name no numpy BLAS or
    LAPACK entry point, so a fit's dense products stay in one BLAS pool."""
    source = Path(numkit.__file__).with_name(module)
    found = []
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("scipy.linalg")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.linalg"):
                found.append(node.module)
            elif node.module == "scipy":
                found += [f"scipy.{a.name}" for a in node.names if a.name == "linalg"]
            elif node.module == "numpy":
                found += [f"numpy.{a.name}" for a in node.names
                          if a.name in ("linalg", "dot", "matmul")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy") and node.attr in ("linalg", "dot", "matmul")):
            found.append(f"{node.value.id}.{node.attr}")
    assert not found, f"{module} reaches BLAS or LAPACK past numkit: {found}"


class TestSolveSpd:
    """SPD solves through a Cholesky factor: solve_chol(cholesky(a), b)."""

    def test_identity(self):
        b = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(numkit.solve_chol(numkit.cholesky(np.eye(3)), b), b)

    def test_diagonal(self):
        x = numkit.solve_chol(numkit.cholesky(np.diag([2.0, 4.0])), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-15)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((10, 10))
        spd = a @ a.T + 10 * np.eye(10)
        b = rng.standard_normal((10, 3))
        x = numkit.solve_chol(numkit.cholesky(spd), b)
        residual = np.linalg.norm(spd @ x - b) / np.linalg.norm(b)
        assert residual <= 1e-10

    def test_roundtrip_property(self):
        # chol + solve reproduces the right-hand side for random SPD inputs
        rng = np.random.default_rng(5)
        for n in (2, 7, 25):
            a = rng.standard_normal((n, n))
            spd = a @ a.T + n * np.eye(n)
            b = rng.standard_normal(n)
            x = numkit.solve_chol(numkit.cholesky(spd), b)
            err = np.abs(spd @ x - b).max() / np.abs(b).max()
            assert err <= 1e-9


class TestPowerIteration:
    def test_diagonal(self):
        res = numkit.power_iteration_max_eig(np.diag([1.0, 2.0, 3.0]))
        assert res.lam_max == pytest.approx(3.0, abs=1e-9)
        assert not res.degenerate

    def test_zero_matrix_flags_degenerate(self):
        res = numkit.power_iteration_max_eig(np.zeros((4, 4)))
        assert res.lam_max == 0.0
        assert res.degenerate

    def test_path_laplacian_vs_dense_oracle(self):
        # all-ones start lies in the Laplacian null space; the fallback must kick in
        n = 50
        lap = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        lap[0, 0] = lap[-1, -1] = 1.0
        res = numkit.power_iteration_max_eig(lap)
        truth = np.linalg.eigvalsh(lap).max()
        assert abs(res.lam_max - truth) <= 1e-8

    def test_psd_bounds_property(self):
        # result never exceeds trace(C) and never goes negative for PSD C
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = int(rng.integers(2, 40))
            a = rng.standard_normal((m, m))
            s = a @ a.T
            res = numkit.power_iteration_max_eig(s)
            assert -1e-12 <= res.lam_max <= np.trace(s) + 1e-9

    def test_error_within_tol_contract(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(3, 60))
            a = rng.standard_normal((m, m))
            s = a @ a.T
            res = numkit.power_iteration_max_eig(s, tol=1e-10)
            truth = np.linalg.eigvalsh(s).max()
            assert abs(res.lam_max - truth) <= 1e-10 * truth + 1e-14

    def test_nonconvergence_raises(self):
        lap = np.diag([1.0, 0.999])
        with pytest.raises(NonConvergence):
            numkit.power_iteration_max_eig(lap, tol=1e-16, max_iter=2)


class TestRngStream:
    def test_replay(self):
        a = numkit.RngStream(123, 7).standard_normal(10)
        b = numkit.RngStream(123, 7).standard_normal(10)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = numkit.RngStream(123, 0).standard_normal(10)
        b = numkit.RngStream(123, 1).standard_normal(10)
        assert not np.allclose(a, b)

    def test_integers_inclusive(self):
        draws = numkit.RngStream(0, 0).integers(3, 5, size=2000)
        assert set(np.unique(draws)) == {3, 4, 5}


class TestMvnSample:
    def test_deterministic(self):
        a = numkit.mvn_sample(np.zeros(5), np.eye(5), numkit.RngStream(9, 1), jitter=0.0)
        b = numkit.mvn_sample(np.zeros(5), np.eye(5), numkit.RngStream(9, 1), jitter=0.0)
        np.testing.assert_array_equal(a, b)

    def test_variance_monte_carlo(self):
        sigma2 = 2.5
        rng = numkit.RngStream(4, 2)
        draws = np.array([
            numkit.mvn_sample(np.zeros(2), sigma2 * np.eye(2), rng)
            for _ in range(10_000)
        ])
        assert np.allclose(draws.var(axis=0), sigma2, rtol=0.05)

    def test_mean_monte_carlo(self):
        rng = numkit.RngStream(8, 3)
        mean = np.array([5.0, 5.0])
        draws = np.array([
            numkit.mvn_sample(mean, np.eye(2), rng) for _ in range(10_000)
        ])
        assert np.abs(draws.mean(axis=0) - mean).max() <= 0.05

    def test_correlated_covariance(self):
        cov = np.array([[2.0, 1.2], [1.2, 1.0]])
        rng = numkit.RngStream(15, 4)
        draws = np.array([
            numkit.mvn_sample(np.zeros(2), cov, rng) for _ in range(20_000)
        ])
        emp = np.cov(draws.T)
        assert np.abs(emp - cov).max() <= 0.08

    def test_indefinite_reports_pivot_row(self):
        # numpy's factor names no pivot; the error still does
        with pytest.raises(NotPositiveDefinite) as exc:
            numkit.mvn_sample(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]),
                              numkit.RngStream(0, 0))
        assert exc.value.row == 1

    def test_factor_matches_cholesky_on_a_gneiting_kernel(self):
        class Columns:
            """A stream whose draw is the identity, so mvn_sample returns its factor."""

            def standard_normal(self, n):
                return np.eye(n)

        rng = numkit.RngStream(11, 0)
        x, y = rng.uniform(0.0, 1.0, 400), rng.uniform(0.0, 1.0, 400)
        t = np.repeat(np.arange(1, 11), 40)
        cfg = simgen.SimConfig()
        sigma = simgen.gneiting_cov(*simgen.pair_distances(x, y, t), cfg.phi_s, cfg.phi_t, cfg.gamma)
        jitter = numkit.DEFAULT_KERNEL_JITTER
        factor = numkit.mvn_sample(np.zeros(400), sigma, Columns(), jitter=jitter)
        want = numkit.cholesky(sigma, jitter)
        assert np.linalg.norm(factor - want) <= 1e-12 * np.linalg.norm(want)
        np.testing.assert_array_equal(np.triu(factor, 1), 0.0)
