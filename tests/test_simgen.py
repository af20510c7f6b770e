"""Simulation design: covariance, covariates, sampling, and file round trips."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoattn import numkit, simgen
from geoattn.errors import DomainError


class TestGneitingCov:
    def test_zero_lag(self):
        assert simgen.gneiting_cov(0.0, 0.0, 0.25, 0.25, 0.75) == 1.0

    def test_hand_value(self):
        # d_s/phi_s + d_t/phi_t + gamma*d_s*d_t = 1 + 4 + 0.1875 = 5.1875
        val = simgen.gneiting_cov(0.25, 1.0, 0.25, 0.25, 0.75)
        assert val == pytest.approx(np.exp(-5.1875))
        assert val == pytest.approx(5.58e-3, rel=2e-3)

    def test_separable_limit(self):
        d_s, d_t = 0.13, 2.0
        joint = simgen.gneiting_cov(d_s, d_t, 0.3, 0.7, 0.0)
        product = np.exp(-d_s / 0.3) * np.exp(-d_t / 0.7)
        assert joint == pytest.approx(product, rel=1e-15)

    def test_negative_distance_rejected(self):
        with pytest.raises(DomainError):
            simgen.gneiting_cov(-0.1, 0.0, 0.25, 0.25, 0.75)
        with pytest.raises(DomainError):
            simgen.gneiting_cov(0.1, -1.0, 0.25, 0.25, 0.75)

    @given(
        d_s=st.floats(0.0, 10.0),
        d_t=st.floats(0.0, 10.0),
        gamma=st.floats(0.0, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_range_property(self, d_s, d_t, gamma):
        val = simgen.gneiting_cov(d_s, d_t, 0.25, 0.25, gamma)
        assert 0.0 < val <= 1.0


class TestKernelMatrix:
    """kernel_matrix, built a block of rows at a time, is the whole-matrix
    form sigma2 * gneiting_cov(*pair_distances(...)) to the bit."""

    @pytest.mark.parametrize("gamma", [0.0, 0.75])
    @pytest.mark.parametrize("square", [True, False], ids=["square", "cross"])
    def test_equals_the_whole_matrix_form(self, square, gamma):
        rng = np.random.default_rng(8)
        # neither set is a multiple of the block size, so each has a ragged last block
        n, m = 2 * simgen._KERNEL_BLOCK_ROWS + 7, simgen._KERNEL_BLOCK_ROWS + 3
        rows = (rng.uniform(0, 1, n), rng.uniform(0, 1, n), rng.integers(1, 6, n))
        cols = None if square else (rng.uniform(0, 1, m), rng.uniform(0, 1, m), rng.integers(1, 6, m))
        want = simgen.gneiting_cov(*simgen.pair_distances(*rows, *(cols or ())), 0.3, 0.6, gamma)
        want *= 1.7
        got = simgen.kernel_matrix(rows, cols, 0.3, 0.6, gamma, sigma2=1.7)
        np.testing.assert_array_equal(got, want)


class TestLogistic:
    def test_matches_the_two_branch_formula_in_place(self):
        # the reference: 1 / (1 + exp(-eta)) on eta >= 0 and e / (1 + e),
        # e = exp(eta), below, each computed on a copy of its own half
        rng = np.random.default_rng(3)
        eta = np.concatenate([
            rng.standard_normal(5000) * 6, rng.standard_normal(500) * 400,
            [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 709.8, -745.2],
        ]).reshape(-1, 2)
        want = np.empty_like(eta)
        pos = eta >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
        e = np.exp(eta[~pos])
        want[~pos] = e / (1.0 + e)
        np.testing.assert_array_equal(simgen.logistic(eta), want)
        got = simgen.logistic(eta, out=eta)
        assert got is eta
        np.testing.assert_array_equal(eta, want)
        assert simgen.logistic(0.0) == 0.5


class TestBuildCovariates:
    def coords(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        return np.column_stack([
            rng.uniform(0, 1, n),
            rng.uniform(0, 1, n),
            rng.integers(1, 11, n).astype(float),
        ])

    def test_standardization_contract(self):
        mat = simgen.build_covariates(self.coords(), 10, numkit.RngStream(1, 0))
        assert np.abs(mat.mean(axis=0)).max() <= 1e-12
        assert np.abs(mat.std(axis=0, ddof=1) - 1.0).max() <= 1e-12

    def test_group_split_for_p10(self):
        assert simgen.covariate_split(10) == (4, 2, 4)
        coords = self.coords()
        mat = simgen.build_covariates(coords, 10, numkit.RngStream(1, 0))
        assert mat.shape == (len(coords), 10)
        x, y, t = coords[:, 0], coords[:, 1], coords[:, 2]
        generators = [
            np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
            (x - 0.5) ** 2,
            x * y,
            np.exp(-3.0 * ((x - 0.3) ** 2 + (y - 0.7) ** 2)),
            t / t.max(),
            np.sin(2 * np.pi * t / t.max()),
        ]
        for j, gen in enumerate(generators):
            r = np.corrcoef(mat[:, j], gen)[0, 1]
            assert abs(r) >= 0.999999
        # noise columns are uncorrelated with the spatial generators
        for j in range(6, 10):
            r = np.corrcoef(mat[:, j], generators[0])[0, 1]
            assert abs(r) < 0.3

    def test_determinism(self):
        coords = self.coords()
        a = simgen.build_covariates(coords, 8, numkit.RngStream(5, 2))
        b = simgen.build_covariates(coords, 8, numkit.RngStream(5, 2))
        np.testing.assert_array_equal(a, b)

    def test_minimum_three_columns(self):
        mat = simgen.build_covariates(self.coords(50), 3, numkit.RngStream(0, 0))
        assert mat.shape[1] == 3
        with pytest.raises(ValueError):
            simgen.build_covariates(self.coords(50), 2, numkit.RngStream(0, 0))


class TestSimulate:
    def default_config(self, **kw):
        base = dict(n_times=10, locs_per_time=(100, 300), seed=20240811)
        base.update(kw)
        return simgen.SimConfig(**base)

    def test_record_count_range(self):
        data = simgen.simulate(self.default_config())
        assert 1000 <= len(data) <= 3000
        assert set(np.unique(data.t)) == set(range(1, 11))

    def test_constant_prevalence_limit(self):
        # delta = 0 and zero coefficients force p = logistic(-1.75) everywhere
        cfg = self.default_config(
            n_times=3, locs_per_time=(20, 30), delta=0.0, beta=(0.0,) * 10,
        )
        data = simgen.simulate(cfg)
        expected = 1.0 / (1.0 + np.exp(1.75))
        np.testing.assert_allclose(data.true_p, expected, atol=1e-12)
        assert expected == pytest.approx(0.148, abs=5e-4)

    def test_binomial_consistency(self):
        data = simgen.simulate(self.default_config(seed=5))
        emp = data.empirical_prevalence.mean()
        assert abs(emp - data.true_p.mean()) <= 0.01

    def test_bounds_invariants(self):
        data = simgen.simulate(self.default_config(seed=3, n_times=4, locs_per_time=(30, 60)))
        assert np.all(data.n_pos >= 0)
        assert np.all(data.n_pos <= data.n_tested)
        assert np.all((data.true_p > 0) & (data.true_p < 1))
        assert np.all((data.x >= 0) & (data.x <= 1))
        assert np.all((data.y >= 0) & (data.y <= 1))
        assert np.all((data.n_tested >= 30) & (data.n_tested <= 80))

    def test_determinism(self):
        cfg = self.default_config(n_times=3, locs_per_time=(10, 20), seed=77)
        a, b = simgen.simulate(cfg), simgen.simulate(cfg)
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.n_pos, b.n_pos)
        np.testing.assert_array_equal(a.true_s, b.true_s)

    def test_fixed_beta_is_used(self):
        beta = tuple(float(v) for v in np.linspace(-1, 1, 10))
        cfg = self.default_config(n_times=2, locs_per_time=(10, 15), beta=beta)
        data = simgen.simulate(cfg)
        np.testing.assert_array_equal(data.beta, beta)

    def test_covariance_is_psd_with_jitter(self):
        cfg = self.default_config(n_times=4, locs_per_time=(40, 60), seed=9)
        data = simgen.simulate(cfg)
        d_s, d_t = simgen.pair_distances(data.x, data.y, data.t)
        sigma = simgen.gneiting_cov(d_s, d_t, cfg.phi_s, cfg.phi_t, cfg.gamma)
        numkit.cholesky(sigma, jitter=1e-8)  # must not raise

    def test_pair_distances_match_the_direct_formula(self):
        rng = np.random.default_rng(4)
        xa, ya, ta = rng.uniform(0, 1, 30), rng.uniform(0, 1, 30), rng.integers(1, 6, 30)
        xb, yb, tb = rng.uniform(0, 1, 20), rng.uniform(0, 1, 20), rng.integers(1, 6, 20)
        for b in (None, (xb, yb, tb)):
            d_s, d_t = simgen.pair_distances(xa, ya, ta, *(b or ()))
            xo, yo, to = b or (xa, ya, ta)
            dx = xa[:, None] - xo[None, :]
            dy = ya[:, None] - yo[None, :]
            np.testing.assert_array_equal(d_s, np.sqrt(dx * dx + dy * dy))
            np.testing.assert_array_equal(d_t, np.abs(ta[:, None].astype(float) - to[None, :]))

    def test_gamma_zero_factorizes(self):
        # separability check: the joint matrix equals the elementwise product
        # of the spatial-only and temporal-only exponential matrices
        rng = np.random.default_rng(0)
        x, y = rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)
        t = rng.integers(1, 6, 40)
        d_s, d_t = simgen.pair_distances(x, y, t)
        joint = simgen.gneiting_cov(d_s, d_t, 0.25, 0.25, 0.0)
        spatial = simgen.gneiting_cov(d_s, 0.0, 0.25, 1.0, 0.0)
        temporal = simgen.gneiting_cov(0.0, d_t, 1.0, 0.25, 0.0)
        np.testing.assert_allclose(joint, spatial * temporal, atol=1e-12)


class TestConfigValidation:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            simgen.SimConfig(locs_per_time=(10, 5))
        with pytest.raises(ValueError):
            simgen.SimConfig(trials_range=(0, 10))
        with pytest.raises(ValueError):
            simgen.SimConfig(phi_s=0.0)
        with pytest.raises(ValueError):
            simgen.SimConfig(gamma=-0.1)
        with pytest.raises(ValueError):
            simgen.SimConfig(n_times=0)
        with pytest.raises(ValueError, match=r"n_times \* locs_per_time\[0\] must be >= 2"):
            simgen.SimConfig(n_times=1, locs_per_time=(1, 1))
        with pytest.raises(ValueError):
            simgen.SimConfig(beta=(1.0, 2.0))


class TestCsvRoundTrip:
    def test_roundtrip_preserves_values(self, tmp_path):
        cfg = simgen.SimConfig(n_times=2, locs_per_time=(5, 10), seed=13)
        data = simgen.simulate(cfg)
        path = tmp_path / "data.csv"
        simgen.write_dataset_csv(data, path)
        back = simgen.read_dataset_csv(path)
        np.testing.assert_array_equal(back.ids, data.ids)
        np.testing.assert_array_equal(back.x, data.x)  # repr round-trips exactly
        np.testing.assert_array_equal(back.covariates, data.covariates)
        np.testing.assert_array_equal(back.n_pos, data.n_pos)
        np.testing.assert_array_equal(back.true_p, data.true_p)

    def test_truth_can_be_withheld(self, tmp_path):
        cfg = simgen.SimConfig(n_times=2, locs_per_time=(5, 8), seed=1)
        data = simgen.simulate(cfg)
        path = tmp_path / "obs.csv"
        simgen.write_dataset_csv(data, path, include_truth=False)
        back = simgen.read_dataset_csv(path)
        assert not back.has_truth

    def test_manifest_replays_beta(self, tmp_path):
        cfg = simgen.SimConfig(n_times=2, locs_per_time=(5, 8), seed=2)
        data = simgen.simulate(cfg)
        manifest = simgen.simulation_manifest(cfg, data)
        cfg2 = replace(cfg, beta=tuple(manifest["beta"]))
        data2 = simgen.simulate(cfg2)
        np.testing.assert_array_equal(data.beta, data2.beta)
        np.testing.assert_array_equal(data.n_pos, data2.n_pos)
