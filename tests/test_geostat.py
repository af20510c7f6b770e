"""Inference engine: kernels, Laplace fit oracles, optimization, prediction."""

import numpy as np
import pytest

from geoattn import attnfield, evalkit, geostat, numkit, pipeline, simgen
from geoattn.attnfield import AttnHyper, build_field
from geoattn.errors import AllRestartsFailed, NewtonDivergence
from geoattn.geostat import (
    Binomial,
    KernelSpec,
    ModelSpec,
    OptimizerConfig,
    build_design,
    kernel_cov,
    laplace_fit,
    optimize_hyperparameters,
    predict,
    predict_insample,
    prior_cov,
)
from conftest import random_export


def make_data(n_times=4, locs=(20, 30), seed=0, **kw):
    return simgen.simulate(
        simgen.SimConfig(n_times=n_times, locs_per_time=locs, seed=seed, **kw)
    )


class TestKernelMatrix:
    def test_spd_across_optimizer_bounds(self):
        data = make_data(n_times=3, locs=(15, 25), seed=5)
        rng = np.random.default_rng(7)
        for _ in range(25):
            sigma2 = float(np.exp(rng.uniform(*geostat.DEFAULT_BOUNDS["log_sigma2"])))
            phi_s = float(np.exp(rng.uniform(*geostat.DEFAULT_BOUNDS["log_phi_s"])))
            phi_t = float(np.exp(rng.uniform(*geostat.DEFAULT_BOUNDS["log_phi_t"])))
            kernel = KernelSpec(sigma2=sigma2, phi_s=phi_s, phi_t=phi_t)
            numkit.cholesky(kernel_cov(kernel, data), jitter=1e-8)

    def test_builder_matches_direct_evaluation(self):
        data = make_data(n_times=2, locs=(8, 12), seed=3)
        kernel = KernelSpec(sigma2=1.7, phi_s=0.3, phi_t=0.5, gamma=0.4)
        d_s = np.sqrt(
            (data.x[:, None] - data.x[None, :]) ** 2
            + (data.y[:, None] - data.y[None, :]) ** 2
        )
        d_t = np.abs(data.t[:, None] - data.t[None, :]).astype(float)
        direct = 1.7 * np.exp(-(d_s / 0.3 + d_t / 0.5 + 0.4 * d_s * d_t))
        np.testing.assert_allclose(kernel_cov(kernel, data), direct, rtol=1e-13)


class TestModelSpecValidation:
    """A model carries exactly one of design (mbg) and attention (hybrid),
    and an offset if and only if it carries attention."""

    def test_mbg_requires_design(self):
        with pytest.raises(ValueError, match="exactly one of design"):
            ModelSpec(kernel=KernelSpec())

    def test_hybrid_requires_offset_and_attention(self):
        data = make_data(n_times=2, locs=(5, 6), seed=1)
        hybrid = hybrid_spec(data)
        with pytest.raises(ValueError, match="an offset comes with attention"):
            ModelSpec(kernel=KernelSpec(), design=build_design(data), offset=hybrid.offset)
        with pytest.raises(ValueError, match="an offset comes with attention"):
            ModelSpec(kernel=KernelSpec(), attention=hybrid.attention)

    def test_design_and_attention_together_refused(self):
        data = make_data(n_times=2, locs=(5, 6), seed=1)
        hybrid = hybrid_spec(data)
        with pytest.raises(ValueError, match="exactly one of design"):
            ModelSpec(kernel=KernelSpec(), design=build_design(data),
                      offset=hybrid.offset, attention=hybrid.attention)


    def test_offset_needs_one_entry_per_field_node(self):
        data = make_data(n_times=2, locs=(5, 6), seed=1)
        hybrid = hybrid_spec(data)
        for offset in (hybrid.offset[:-1], np.zeros(len(data) + 1)):
            with pytest.raises(ValueError, match="one entry per attention field node"):
                ModelSpec(kernel=KernelSpec(), offset=offset, attention=hybrid.attention)

    def test_fit_refuses_a_field_smaller_than_its_data(self):
        data = make_data(n_times=2, locs=(10, 10), seed=1)
        assert len(data) == 20
        spec = hybrid_spec(data.subset(np.arange(17)))
        with pytest.raises(ValueError, match="field has 17 nodes, fewer than the 20 records"):
            laplace_fit(data, spec)


def hybrid_spec(data, seed=0, theta1=0.0, theta2=0.0, sigma2=1.0):
    field = build_field(random_export(len(data), seed=seed), len(data))
    offset = np.zeros(len(data))
    return ModelSpec(
        kernel=KernelSpec(sigma2=sigma2),
        offset=offset,
        attention=(field, AttnHyper(theta1, theta2)),
    )


class Gaussian:
    """y_i ~ N(eta_i, sd^2): a test double for :class:`Binomial`, with the
    same two methods, under which the Laplace mode has the closed
    GLS/kriging form."""

    def __init__(self, y, sd):
        self.y, self.inv_var = y, 1.0 / sd ** 2
        self.log_norm = len(y) * np.log(sd * np.sqrt(2 * np.pi))

    def loglik(self, eta):
        r = self.y - eta
        return float(-0.5 * self.inv_var * r @ r - self.log_norm)

    def grad_w(self, eta):
        return (self.y - eta) * self.inv_var, np.full(len(eta), self.inv_var)


class NanLikelihood(Gaussian):
    """A likelihood whose log density is NaN everywhere."""

    def loglik(self, eta):
        return float("nan")


class TestBinomial:
    def counts(self, n_records):
        rng = np.random.default_rng(5)
        n = rng.integers(1, 60, n_records)
        z = rng.integers(0, n + 1)
        z[:2], n[:2] = 0, (1, 40)     # no positives, one and many trials
        z[2:4] = n[2:4]               # all positive
        return Binomial.of(simgen.Dataset(
            ids=np.arange(n_records), x=np.zeros(n_records), y=np.zeros(n_records),
            t=np.ones(n_records, dtype=int), n_tested=n, n_pos=z,
            covariates=np.zeros((n_records, 0)),
        ))

    def test_loglik_matches_scipy_binomial_pmf(self):
        from scipy.stats import binom

        lik = self.counts(40)
        eta = np.linspace(-8.0, 8.0, 40)
        oracle = np.sum(binom.logpmf(lik.z, lik.n, simgen.logistic(eta)))
        assert lik.loglik(eta) == pytest.approx(oracle, rel=1e-10)

    def test_grad_w_matches_central_differences(self):
        # eta out to +-30 runs the stable softplus far into both tails; each
        # record's loglik is differenced alone so the sum's rounding stays out
        lik = self.counts(31)
        eta = np.linspace(-30.0, 30.0, 31)
        h = 1e-5
        g, w = lik.grad_w(eta)
        g_fd = np.empty(len(eta))
        for i in range(len(eta)):
            one = Binomial(lik.z[[i]], lik.n[[i]], lik.log_choose[[i]])
            g_fd[i] = (one.loglik(eta[[i]] + h) - one.loglik(eta[[i]] - h)) / (2 * h)
        w_fd = -(lik.grad_w(eta + h)[0] - lik.grad_w(eta - h)[0]) / (2 * h)
        np.testing.assert_allclose(g, g_fd, rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(w, w_fd, rtol=1e-7, atol=1e-8)


class TestLaplaceFit:
    def test_gaussian_hook_matches_kriging_oracle(self):
        # closed-form GLS/kriging on the same prior, via an independent solve
        data = make_data(n_times=2, locs=(50, 50), seed=11)
        assert len(data) == 100
        kernel = KernelSpec(sigma2=0.8, phi_s=0.3, phi_t=0.4)
        spec = ModelSpec(kernel=kernel, design=build_design(data))
        rng = np.random.default_rng(2)
        y = rng.standard_normal(len(data))
        obs_sd = 0.7
        fit = laplace_fit(data, spec, likelihood=Gaussian(y, obs_sd))

        sigma_u = (
            geostat.FIXED_EFFECT_SD ** 2 * (spec.design @ spec.design.T)
            + kernel_cov(kernel, data)
            + 1e-8 * np.eye(len(data))
        )
        oracle = sigma_u @ np.linalg.solve(sigma_u + obs_sd ** 2 * np.eye(len(data)), y)
        assert np.abs(fit.u_mode - oracle).max() <= 1e-8

    def test_large_trials_consistency_on_grid(self):
        # z/n = logistic(eta*) almost exactly; the mode must sit near eta*
        g = np.linspace(0.05, 0.95, 50)
        eta_star = 1.5 * np.sin(2 * np.pi * g) - 0.5
        n_i = 1_000_000
        p_star = 1.0 / (1.0 + np.exp(-eta_star))
        data = simgen.Dataset(
            ids=np.arange(50), x=g, y=g[::-1].copy(), t=np.ones(50, dtype=int),
            n_tested=np.full(50, n_i), n_pos=np.round(n_i * p_star).astype(int),
            covariates=np.zeros((50, 0)),
        )
        # every record shares t, so this kernel is the spatial exponential
        kernel = KernelSpec(sigma2=4.0, phi_s=0.5)
        spec = ModelSpec(kernel=kernel, design=np.ones((50, 1)))
        fit = laplace_fit(data, spec)
        assert fit.converged
        assert np.abs(fit.u_mode - eta_star).max() <= 0.05

    def test_zero_variance_kernel_matches_ridge_logistic_oracle(self):
        data = make_data(n_times=3, locs=(40, 50), seed=13)
        kernel = KernelSpec(sigma2=1e-10, phi_s=0.25, phi_t=0.25)
        design = build_design(data)
        spec = ModelSpec(kernel=kernel, design=design)
        fit = laplace_fit(data, spec)

        # independent iteratively-reweighted oracle for the same penalized mode
        prior_prec = 1.0 / geostat.FIXED_EFFECT_SD ** 2
        beta = np.zeros(design.shape[1])
        z, trials = data.n_pos, data.n_tested
        for _ in range(200):
            eta = design @ beta
            p = 1.0 / (1.0 + np.exp(-eta))
            w = trials * p * (1 - p)
            grad = design.T @ (z - trials * p) - prior_prec * beta
            hess = design.T @ (w[:, None] * design) + prior_prec * np.eye(len(beta))
            step = np.linalg.solve(hess, grad)
            beta = beta + step
            if np.abs(step).max() < 1e-13:
                break
        assert np.abs(fit.beta_hat - beta).max() <= 1e-3

    def test_objective_trace_is_nondecreasing(self):
        data = make_data(n_times=3, locs=(20, 30), seed=17)
        spec = ModelSpec(
            kernel=KernelSpec(sigma2=0.5),
            design=build_design(data),
        )
        fit = laplace_fit(data, spec)
        trace = np.array(fit.psi_trace)
        assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))
        assert fit.converged

    def test_hybrid_fit_converges(self):
        data = make_data(n_times=2, locs=(25, 30), seed=19)
        spec = hybrid_spec(data, seed=3)
        fit = laplace_fit(data, spec)
        assert fit.converged
        assert np.isfinite(fit.logml)

    def test_mbg_stops_at_the_mode(self):
        # the sqrt(1000) fixed-effect prior sd puts an absolute step test
        # below round-off; the decrement test must still stop early
        data = make_data(n_times=8, locs=(125, 125), seed=2)
        assert len(data) == 1000
        spec = ModelSpec(
            kernel=KernelSpec(), design=build_design(data),
        )
        fit = laplace_fit(data, spec)
        assert fit.converged
        assert fit.newton_iterations < 20

    def test_mode_is_a_fixed_point(self):
        # restarting at the reported mode (warm start by a = Sigma_u^-1 u)
        # must stop at once with the same marginal likelihood, to the stop
        # rule's own 1e-10 relative tolerance: the rule only fires at the mode
        data = make_data(n_times=4, locs=(50, 60), seed=7)
        spec = ModelSpec(
            kernel=KernelSpec(sigma2=0.6),
            design=build_design(data),
        )
        fit = laplace_fit(data, spec)
        again = laplace_fit(data, spec, warm_a=fit.a_mode)
        assert fit.converged and again.converged
        assert again.newton_iterations == 1
        assert abs(again.logml - fit.logml) <= 1e-10 * abs(fit.logml)

    def test_requires_positive_trials(self):
        data = make_data(n_times=2, locs=(5, 6), seed=1)
        data.n_tested[0] = 0
        spec = ModelSpec(
            kernel=KernelSpec(), design=build_design(data),
        )
        with pytest.raises(ValueError, match="all records need n_tested >= 1"):
            laplace_fit(data, spec)

    def test_non_finite_start_raises(self):
        data = make_data(n_times=2, locs=(5, 6), seed=1)
        spec = ModelSpec(kernel=KernelSpec(), design=build_design(data))
        nan = NanLikelihood(np.zeros(len(data)), 1.0)
        with pytest.raises(NewtonDivergence, match="non-finite at the starting point"):
            laplace_fit(data, spec, likelihood=nan)


class TestOptimize:
    def test_one_parameter_matches_grid_search(self):
        data = make_data(n_times=2, locs=(40, 50), seed=23)
        template = ModelSpec(
            kernel=KernelSpec(sigma2=0.3, phi_s=0.25, phi_t=0.25),
            design=build_design(data),
        )
        lo, hi = np.log(1e-3), np.log(9.0)
        result = optimize_hyperparameters(
            data, template, OptimizerConfig(max_iter=200, bounds={"log_sigma2": (lo, hi)}), seed=0,
        )
        grid = np.linspace(lo, hi, 200)
        logml = []
        from dataclasses import replace
        for g in grid:
            spec_g = replace(template, kernel=replace(template.kernel, sigma2=float(np.exp(g))))
            logml.append(laplace_fit(data, spec_g).logml)
        best_grid = grid[int(np.argmax(logml))]
        cell = grid[1] - grid[0]
        assert abs(np.log(result.fit.spec.kernel.sigma2) - best_grid) <= cell

    def test_range_recovery_within_factor_two(self):
        # simulation oracle: phi_s = phi_t = 0.25 generated the data. The
        # spatial range is identifiable and must come back within a factor
        # of two. The temporal range is identifiable only from above here
        # (adjacent times are already decorrelated: exp(-1/0.25) ~ 0.018, so
        # the likelihood is flat below ~0.1); it must come back within the
        # factor-two band from above, and anywhere below only if the fit is
        # at least as supported as the generating value (flatness).
        from dataclasses import replace

        data = make_data(n_times=10, locs=(60, 100), seed=29)
        assert len(data) >= 600
        template = ModelSpec(
            kernel=KernelSpec(sigma2=1.0, phi_s=0.1, phi_t=0.1, gamma=0.75),
            design=build_design(data),
        )
        result = optimize_hyperparameters(data, template, OptimizerConfig(max_iter=120), seed=1)
        k = result.fit.spec.kernel
        assert 0.125 <= k.phi_s <= 0.5
        assert k.phi_t <= 0.5
        if k.phi_t < 0.125:
            at_truth = replace(result.fit.spec, kernel=replace(k, phi_t=0.25))
            logml_truth = laplace_fit(data, at_truth).logml
            assert result.fit.logml >= logml_truth - 1.0

    def test_identical_seeds_identical_traces(self):
        data = make_data(n_times=2, locs=(15, 20), seed=31)
        template = ModelSpec(
            kernel=KernelSpec(), design=build_design(data),
        )
        optimizer = OptimizerConfig(restarts=2, max_iter=25)
        a = optimize_hyperparameters(data, template, optimizer, seed=5)
        b = optimize_hyperparameters(data, template, optimizer, seed=5)
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert ra["params"] == rb["params"]
            assert ra["logml"] == rb["logml"]

    def test_returns_the_best_evaluation(self):
        # the fit handed back is the best trace entry's own, not a refit
        data = make_data(n_times=2, locs=(15, 20), seed=31)
        template = ModelSpec(
            kernel=KernelSpec(), design=build_design(data),
        )
        bounds = {name: geostat.DEFAULT_BOUNDS[name] for name in ("log_sigma2", "log_phi_s")}
        result = optimize_hyperparameters(
            data, template, OptimizerConfig(restarts=2, max_iter=10, bounds=bounds), seed=5,
        )
        best = max(result.trace, key=lambda e: e["logml"])  # the first one on ties
        assert result.fit.logml == best["logml"]
        names = list(best["params"])
        at_best = geostat._spec_from_params(template, names, np.array(list(best["params"].values())))
        assert result.fit.spec.kernel == at_best.kernel
        assert result.fit.converged == best["converged"]
        assert result.fit.newton_iterations == best["newton_iterations"]

    def test_unknown_bound_name_rejected(self):
        data = make_data(n_times=2, locs=(5, 8), seed=1)
        template = ModelSpec(
            kernel=KernelSpec(), design=build_design(data),
        )
        with pytest.raises(ValueError, match="unknown bound name 'log_rho'"):
            optimize_hyperparameters(data, template, OptimizerConfig(bounds={"log_rho": (0, 1)}))
        with pytest.raises(ValueError, match="bounds is empty"):
            optimize_hyperparameters(data, template, OptimizerConfig(bounds={}))

    def test_all_restarts_failed(self):
        data = make_data(n_times=2, locs=(5, 8), seed=1)
        template = ModelSpec(
            kernel=KernelSpec(), design=build_design(data),
        )
        data.n_tested[:] = 1
        data.n_pos[:] = 0
        # poison the objective through non-finite bounds instead of data
        with pytest.raises(ValueError):
            optimize_hyperparameters(
                data, template, OptimizerConfig(bounds={"log_sigma2": (0.0, np.inf)}),
            )


class TestPredict:
    def fitted_mbg(self, seed=37, locs=(25, 35), n_times=3):
        data = make_data(n_times=n_times, locs=locs, seed=seed)
        spec = ModelSpec(
            kernel=KernelSpec(sigma2=0.6, phi_s=0.25, phi_t=0.25),
            design=build_design(data),
        )
        fit = laplace_fit(data, spec)
        return data, spec, fit

    def test_insample_matches_mode_roughly(self):
        data, spec, fit = self.fitted_mbg()
        pred = predict_insample(fit, n_draws=3000, seed=0)
        mode_prev = simgen.logistic(fit.u_mode)
        assert np.abs(pred.mean - mode_prev).max() <= 0.08
        assert np.all((pred.lo <= pred.mean) & (pred.mean <= pred.hi))

    def test_interpolation_consistency_at_observed_location(self):
        data, spec, fit = self.fitted_mbg()
        j = 7
        new = data.subset(np.array([j]))
        pred = predict(fit, new, n_draws=4000, seed=3)
        fitted_prev = simgen.logistic(fit.u_mode[j])
        sd_prev = pred.sd_linpred[0] * fitted_prev * (1 - fitted_prev)
        assert abs(pred.mean[0] - fitted_prev) <= max(2 * sd_prev, 0.02)

    def test_monte_carlo_interval_stability(self):
        data, spec, fit = self.fitted_mbg()
        new = data.subset(np.arange(0, len(data), 3))
        a = predict(fit, new, n_draws=4000, seed=101)
        b = predict(fit, new, n_draws=4000, seed=202)
        assert np.abs(a.lo - b.lo).max() <= 0.01
        assert np.abs(a.hi - b.hi).max() <= 0.01

    def test_nested_quantile_levels(self):
        data, spec, fit = self.fitted_mbg(seed=41, locs=(15, 20))
        pred95 = predict_insample(fit, n_draws=2000, seed=7, level=0.95)
        pred90 = predict_insample(fit, n_draws=2000, seed=7, level=0.90)
        assert np.all(pred90.lo >= pred95.lo - 1e-12)
        assert np.all(pred90.hi <= pred95.hi + 1e-12)

    def test_hybrid_offset_passthrough(self):
        # sigma2 -> 0 and tau -> +inf zero both latent fields
        data = make_data(n_times=2, locs=(20, 25), seed=43)
        n = len(data)
        field = build_field(random_export(n, seed=9), n)
        rng = np.random.default_rng(5)
        offset = rng.uniform(-2.0, 0.5, n)
        spec = ModelSpec(
            kernel=KernelSpec(sigma2=1e-12),
            offset=offset,
            attention=(field, AttnHyper(theta1=18.0, theta2=0.0)),
        )
        train = data.subset(np.arange(n - 5))
        test = data.subset(np.arange(n - 5, n))
        fit = laplace_fit(train, spec)
        pred = predict(fit, test, n_draws=4000, seed=11)
        expected = simgen.logistic(offset[n - 5:])
        assert np.abs(pred.mean - expected).max() <= 2e-3

    def test_joint_field_must_hold_fitted_then_new_records(self):
        data = make_data(n_times=2, locs=(10, 12), seed=43)
        n = len(data)
        # the field and offsets cover the fitted records and 4 new ones
        spec = hybrid_spec(data.subset(np.arange(n - 1)), seed=9)
        fit = laplace_fit(data.subset(np.arange(n - 5)), spec)
        with pytest.raises(ValueError, match=f"field has {n - 1} nodes, expected {n - 5} fitted"):
            predict(fit, data.subset(np.arange(n - 5, n)), n_draws=10)

    def test_gat_only_prediction_degenerate_intervals(self):
        pred = pipeline.gat_only_prediction(np.arange(3), np.array([0.2, -0.1, 1.2]))
        assert np.all(pred.lo == pred.mean) and np.all(pred.hi == pred.mean)
        assert pred.mean[1] == pytest.approx(1e-6)
        assert pred.mean[2] == pytest.approx(1 - 1e-6)

    def test_prediction_csv_roundtrip(self, tmp_path):
        data, spec, fit = self.fitted_mbg(seed=47, locs=(10, 12), n_times=2)
        pred = predict_insample(fit, n_draws=500, seed=1)
        path = tmp_path / "pred.csv"
        evalkit.write_prediction_csv(pred, path)
        back = evalkit.read_prediction_csv(path)
        np.testing.assert_array_equal(back.ids, pred.ids)
        np.testing.assert_array_equal(back.mean, pred.mean)
        np.testing.assert_array_equal(back.hi, pred.hi)


class TestFitResultMatchesInlineAlgebra:
    """The fitted model's beta summaries and conditionals against the algebra they replaced."""

    def test_beta_conditional_matches_inline_formulas(self):
        data, spec, fit = TestPredict().fitted_mbg()
        sd2 = geostat.FIXED_EFFECT_SD ** 2
        d = spec.design
        sigma_u = prior_cov(spec, data)
        chol_su = numkit.cholesky(sigma_u, jitter=1e-10)
        # the two-sided posterior covariance, which posterior_cov's
        # triangular solve and rank-n update reproduce to round-off
        t_mat = fit.sq_w[:, None] * sigma_u
        post_cov_u = sigma_u - t_mat.T @ numkit.solve_chol(fit.chol_b, t_mat)
        # beta_hat, and beta_sd as it was: Var(beta | z) = C + R V_u R'
        siu_d = numkit.solve_chol(chol_su, d)
        c_beta = sd2 * np.eye(d.shape[1]) - sd2 ** 2 * (d.T @ siu_d)
        r_mat = sd2 * siu_d.T
        post = c_beta + r_mat @ post_cov_u @ r_mat.T
        np.testing.assert_array_equal(fit.beta_hat, sd2 * (d.T @ fit.a_mode))
        # both forms cancel terms near sd2 = 1000 down to variances near 0.01,
        # so they agree only to about 1e-10 relative (measured 1.3e-10)
        np.testing.assert_allclose(
            fit.beta_sd, np.sqrt(np.maximum(np.diag(post), 0.0)), rtol=1e-9, atol=0,
        )
        # the cancellation-free form (I / sd2 + D' (Sigma_S + nugget I + W^-1)^-1 D)^-1
        # (measured 1.7e-11)
        sigma_s = kernel_cov(spec.kernel, data)
        m = sigma_s + np.diag(numkit.DEFAULT_KERNEL_JITTER + 1.0 / fit.sq_w ** 2)
        prec = np.eye(d.shape[1]) / sd2 + d.T @ np.linalg.solve(m, d)
        np.testing.assert_allclose(
            fit.beta_sd, np.sqrt(np.diag(np.linalg.inv(prec))), rtol=1e-10, atol=0,
        )
        # Sigma_u - (...) cancels from entries near sd2 to entries near 1, so
        # round-off is relative to the largest entry, not to each one: the
        # two-sided formula is itself asymmetric by about 1e-11 of it
        post_cov = fit.posterior_cov(sigma_u, sigma_u)
        np.testing.assert_allclose(post_cov, post_cov_u, rtol=0, atol=1e-10 * np.abs(post_cov).max())

    @pytest.mark.parametrize("kind, names", [
        ("mbg", ["log_sigma2", "log_phi_s", "log_phi_t"]),
        ("hybrid", ["log_sigma2", "log_phi_s", "log_phi_t", "theta1", "theta2"]),
    ], ids=["mbg-gneiting", "hybrid-gneiting"])
    def test_nelder_mead_parameter_order(self, kind, names):
        # the order sets the Nelder-Mead vector, so every optimized output
        data = make_data(n_times=2, locs=(5, 6), seed=1)
        spec = hybrid_spec(data) if kind == "hybrid" else ModelSpec(
            kernel=KernelSpec(), design=build_design(data),
        )
        assert geostat.free_param_names(spec.kind) == names

    def test_params_round_trip_through_the_spec(self):
        from dataclasses import replace

        data = make_data(n_times=2, locs=(5, 6), seed=1)
        spec = hybrid_spec(data, theta1=1.5, theta2=-2.0, sigma2=0.7)
        names = geostat.free_param_names(spec.kind)
        values = np.array([np.log(0.7), np.log(0.3), np.log(0.6), 0.5, 4.0])
        out = geostat._spec_from_params(spec, names, values)
        k = out.kernel
        assert (k.sigma2, k.phi_s, k.phi_t) == pytest.approx((0.7, 0.3, 0.6), rel=1e-15)
        assert replace(k, sigma2=1.0, phi_s=1.0, phi_t=1.0) == replace(
            spec.kernel, sigma2=1.0, phi_s=1.0, phi_t=1.0,
        )
        assert out.attention[0] is spec.attention[0]
        assert out.attention[1] == AttnHyper(0.5, 4.0)
        np.testing.assert_allclose(geostat._start_values(out, names), values, rtol=1e-15)
        assert spec.attention[1] == AttnHyper(1.5, -2.0)


def count_factorizations(monkeypatch):
    """The list that each numkit.cholesky call appends to from now on."""
    calls, cholesky = [], numkit.cholesky

    def counted(*args, **kwargs):
        calls.append(1)
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(numkit, "cholesky", counted)
    monkeypatch.setattr(geostat, "cholesky", counted)
    return calls


class TestFitResultIsAValue:
    """A fit holds only what laplace_fit gave it, and using it changes nothing."""

    def fitted_hybrid(self):
        data = make_data(n_times=2, locs=(20, 25), seed=43)
        n = len(data)
        field = build_field(random_export(n, seed=9), n)
        offset = np.random.default_rng(5).uniform(-2.0, 0.5, n)
        spec = ModelSpec(
            kernel=KernelSpec(sigma2=0.5), offset=offset, attention=(field, AttnHyper(0.0, 0.0)),
        )
        fit = laplace_fit(data.subset(np.arange(n - 5)), spec)
        return fit, data.subset(np.arange(n - 5, n))

    def test_frozen_with_only_init_fields(self):
        import dataclasses

        assert geostat.FitResult.__dataclass_params__.frozen
        assert all(f.init for f in dataclasses.fields(geostat.FitResult))
        _, _, fit = TestPredict().fitted_mbg(seed=41, locs=(15, 20))
        with pytest.raises(dataclasses.FrozenInstanceError):
            fit.chol_b = None

    def test_summary_factors_nothing(self, monkeypatch):
        _, _, fit = TestPredict().fitted_mbg(seed=41, locs=(15, 20))
        calls = count_factorizations(monkeypatch)
        fit.summary()
        assert len(calls) == 0

    @pytest.mark.parametrize("kind", ["mbg", "hybrid"])
    def test_predicting_leaves_the_fit_untouched(self, kind):
        if kind == "mbg":
            data, _, fit = TestPredict().fitted_mbg(seed=41, locs=(15, 20))
            new = data.subset(np.arange(0, len(data), 4))
        else:
            fit, new = self.fitted_hybrid()
        names = ("chol_b", "sq_w", "a_mode")
        before = {name: getattr(fit, name).copy() for name in names}
        first = predict_insample(fit, n_draws=200, seed=3)
        predict(fit, new, n_draws=200, seed=3)
        fit.summary()
        second = predict_insample(fit, n_draws=200, seed=3)
        for name in names:
            np.testing.assert_array_equal(getattr(fit, name), before[name], err_msg=name)
        for name in ("mean", "lo", "hi", "sd_linpred"):
            np.testing.assert_array_equal(getattr(first, name), getattr(second, name))


class TestSummarizeDraws:
    def test_in_place_summary_equals_the_copying_form(self):
        # _summarize_draws overwrites its draws: sd first, then p in place,
        # the mean before the quantiles partially sort the rows
        eta = np.random.default_rng(4).standard_normal((40, 301)) * 3.0 - 1.0
        p = simgen.logistic(eta)
        alpha = 1.0 - 0.9
        lo, hi = np.quantile(p, [alpha / 2, 1.0 - alpha / 2], axis=1)
        got = geostat._summarize_draws(np.arange(40), eta.copy(), 0.9)
        for name, want in (("mean", p.mean(axis=1)), ("lo", lo), ("hi", hi),
                           ("sd_linpred", eta.std(axis=1))):
            np.testing.assert_array_equal(getattr(got, name), want, err_msg=name)


class TestMemory:
    def test_search_and_insample_predict_hold_three_n_by_n_arrays(self):
        # the search's best fit holds B's factor while the next evaluation
        # builds Sigma_u and factors B, and predict_insample holds the fit's
        # factor, the rebuilt Sigma_u and V': three n x n arrays, plus
        # blocks and the draws (200 draws are a third of one)
        import tracemalloc

        optimizer = OptimizerConfig(max_iter=0, bounds={"log_sigma2": geostat.DEFAULT_BOUNDS["log_sigma2"]})
        # a small run first, so the scipy modules it imports are not counted
        small = make_data(n_times=2, locs=(10, 10), seed=2)
        fit = optimize_hyperparameters(small, ModelSpec(kernel=KernelSpec(), design=build_design(small)),
                                       optimizer).fit
        predict_insample(fit, n_draws=10)
        data = make_data(n_times=4, locs=(150, 150), seed=2)
        n = len(data)
        spec = ModelSpec(kernel=KernelSpec(), design=build_design(data))
        tracemalloc.start()
        try:
            fit = optimize_hyperparameters(data, spec, optimizer).fit
            predict_insample(fit, n_draws=200, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured: 3.42 n^2 8-byte words; 6.06 with Sigma_u kept in the fit
        # and two n x n distance matrices cached for the search
        assert peak < 4 * n * n * 8


def parent_laplace_fit(data, spec, warm_u=None):
    """laplace_fit as it was when warm starts went by u and the optimizer
    refitted at its best point: a = Sigma_u^-1 u by a factor of Sigma_u, a
    fresh B every iteration, and the two-sided posterior covariance of u."""
    n = len(data)
    sigma_s = kernel_cov(spec.kernel, data)
    if spec.kind == "mbg":
        sigma_u = sigma_s + geostat.FIXED_EFFECT_SD ** 2 * (spec.design @ spec.design.T)
    else:
        sigma_u = sigma_s + attnfield.covariance(*spec.attention, n)
    sigma_u[np.diag_indices(n)] += 1e-8
    offset = np.zeros(n) if spec.offset is None else spec.offset[:n]
    lik = Binomial.of(data)

    def psi_of(u, a):
        return lik.loglik(offset + u) - 0.5 * a @ u

    def operators(u):
        g, w = lik.grad_w(offset + u)
        sq_w = np.sqrt(w)
        return g, w, sq_w, numkit.cholesky(sq_w[:, None] * sigma_u * sq_w[None, :] + np.eye(n))

    if warm_u is None:
        u, a = np.zeros(n), np.zeros(n)
    else:
        u = warm_u.copy()
        a = numkit.solve_chol(numkit.cholesky(sigma_u, jitter=1e-10), u)
    psi, converged = psi_of(u, a), False
    for it in range(1, geostat.NEWTON_MAX_ITER + 1):
        g, w, sq_w, chol_b = operators(u)
        rhs = w * u + g
        a_new = rhs - sq_w * numkit.solve_chol(chol_b, sq_w * (sigma_u @ rhs))
        u_new = sigma_u @ a_new
        decrement = 0.5 * (g - a) @ (u_new - u)
        tol = 1e-10 * max(1.0, abs(psi))
        step = 1.0
        for _ in range(31):
            u_try, a_try = u + step * (u_new - u), a + step * (a_new - a)
            psi_try = psi_of(u_try, a_try)
            if psi_try >= psi - tol:
                break
            step *= 0.5
        else:
            break
        u, a, psi = u_try, a_try, psi_try
        if decrement <= tol:
            converged = True
            break
    _, _, sq_w, chol_b = operators(u)
    return TwoSidedFit(
        spec=spec, data=data, u_mode=u, a_mode=a,
        logml=psi - np.sum(np.log(np.diag(chol_b))), converged=converged,
        newton_iterations=it, chol_b=chol_b,
        sq_w=sq_w, offset=offset, psi_trace=[],
    )


class TwoSidedFit(geostat.FitResult):
    """A fit whose posterior covariances are the two-sided formula."""

    def posterior_cov(self, cross, prior):
        t_mat = self.sq_w[:, None] * cross
        return prior - t_mat.T @ numkit.solve_chol(self.chol_b, t_mat)


def two_sided_calls(monkeypatch):
    """The list that each call of TwoSidedFit.posterior_cov appends to from now on."""
    calls, posterior_cov = [], TwoSidedFit.posterior_cov

    def counted(self, cross, prior):
        calls.append(1)
        return posterior_cov(self, cross, prior)

    monkeypatch.setattr(TwoSidedFit, "posterior_cov", counted)
    return calls


def parent_optimize(data, template, bounds, max_iter):
    """One Nelder-Mead restart warm-started by u, then a refit at its best point."""
    from scipy.optimize import minimize

    names = list(bounds)
    lo, hi = np.array(list(bounds.values())).T
    best = {"logml": -np.inf, "u": None, "warm_u": None}

    def objective(theta):
        spec = geostat._spec_from_params(template, names, theta)
        fit = parent_laplace_fit(data, spec, best["warm_u"])
        best["warm_u"] = fit.u_mode
        if fit.logml > best["logml"]:
            best["logml"], best["u"] = fit.logml, fit.u_mode
        return -fit.logml

    x0 = np.clip(geostat._start_values(template, names), lo + 1e-6, hi - 1e-6)
    res = minimize(objective, x0, method="Nelder-Mead", bounds=list(zip(lo, hi)),
                   options={"maxiter": max_iter, "xatol": 2e-3, "fatol": 1e-2})
    return parent_laplace_fit(data, geostat._spec_from_params(template, names, res.x), best["u"])


class TestMatchesRefitPath:
    """The kept best fit, warm starts by a and the triangular-solve posterior
    covariance against the refit path they replaced, to stated tolerances."""

    def check(self, got, want, pred_got, pred_want):
        assert abs(got.logml - want.logml) <= 1e-9 * abs(want.logml)
        assert got.spec.kernel == want.spec.kernel
        if got.spec.kind == "mbg":
            assert np.abs(got.beta_hat - want.beta_hat).max() <= 1e-7
        for name in ("mean", "lo", "hi"):
            assert np.abs(getattr(pred_got, name) - getattr(pred_want, name)).max() <= 1e-7

    def test_mbg(self, monkeypatch):
        data = make_data(n_times=3, locs=(30, 40), seed=53)
        template = ModelSpec(
            kernel=KernelSpec(sigma2=0.5),
            design=build_design(data),
        )
        bounds = {name: geostat.DEFAULT_BOUNDS[name] for name in ("log_sigma2", "log_phi_s")}
        got = optimize_hyperparameters(
            data, template, OptimizerConfig(max_iter=6, bounds=bounds),
        ).fit
        want = parent_optimize(data, template, bounds, max_iter=6)
        calls = two_sided_calls(monkeypatch)
        pred_want = predict_insample(want, n_draws=300, seed=2)
        # the reference draws from its own two-sided covariance
        assert len(calls) == 1
        self.check(got, want, predict_insample(got, n_draws=300, seed=2), pred_want)

    def test_hybrid(self, monkeypatch):
        data = make_data(n_times=2, locs=(30, 35), seed=59)
        n, n_fit = len(data), len(data) - 8
        field = build_field(random_export(n, seed=4), n)
        offset = np.random.default_rng(6).uniform(-2.0, 0.5, n)
        template = ModelSpec(
            kernel=KernelSpec(sigma2=0.5), offset=offset, attention=(field, AttnHyper(0.0, 0.0)),
        )
        fitted, new = data.subset(np.arange(n_fit)), data.subset(np.arange(n_fit, n))
        bounds = {name: geostat.DEFAULT_BOUNDS[name] for name in ("log_sigma2", "theta2")}
        got = optimize_hyperparameters(
            fitted, template, OptimizerConfig(max_iter=6, bounds=bounds),
        ).fit
        want = parent_optimize(fitted, template, bounds, max_iter=6)
        calls = two_sided_calls(monkeypatch)
        preds = [predict(fit, new, n_draws=300, seed=2) for fit in (got, want)]
        # only the reference's predict reaches the two-sided covariance
        assert len(calls) == 1
        self.check(got, want, *preds)


def parent_beta_given_u(fit):
    """(R, C) of beta | u ~ N(R u, C) for mbg, as the fit once gave them:
    R = sd2 D' Sigma_u^-1 and C = sd2 I - sd2^2 D' Sigma_u^-1 D."""
    sd2 = geostat.FIXED_EFFECT_SD ** 2
    d = fit.spec.design
    siu_d = numkit.solve_chol(numkit.cholesky(prior_cov(fit.spec, fit.data), jitter=1e-10), d)
    return sd2 * siu_d.T, sd2 * np.eye(d.shape[1]) - sd2 ** 2 * (d.T @ siu_d)


def per_block_law(fit, new_data):
    """(M, C) of u_new | u ~ N(M u, C) as predict once drew it, one block at a
    time: beta | u from parent_beta_given_u, S = u - D beta kriged to the new
    records, and eta_new = D_new beta + S_new for mbg; S | u, A = u - S
    extended by the field's GMRF conditional, and S kriged, for the hybrid.
    Each draw's factorization jitter is kept in its covariance."""
    data, spec = fit.data, fit.spec
    n_obs, n_new = len(data), len(new_data)
    sigma_s = kernel_cov(spec.kernel, data)
    k_cross = kernel_cov(spec.kernel, new_data, data)
    k_new = kernel_cov(spec.kernel, new_data)
    krig = np.linalg.solve(sigma_s + 1e-8 * np.eye(n_obs), k_cross.T).T
    c_krig = k_new - krig @ k_cross.T + 1e-8 * np.eye(n_new)
    if spec.kind == "mbg":
        r_beta, c_beta = parent_beta_given_u(fit)
        # eta_new = D_new beta + krig (u - D beta) + S_new's kriging noise
        g = build_design(new_data) - krig @ spec.design
        c_beta = c_beta + 1e-12 * np.eye(len(c_beta))
        return krig + g @ r_beta, g @ c_beta @ g.T + c_krig
    r_s = np.linalg.solve(prior_cov(spec, data) + 1e-10 * np.eye(n_obs), sigma_s).T
    c_s = sigma_s - r_s @ sigma_s + 1e-10 * np.eye(n_obs)
    q = attnfield.precision(*spec.attention)
    q_nn_inv = np.linalg.inv(q[n_obs:, n_obs:])
    # eta_new - offset = h (u - S) + krig S + the two conditional noises
    h = -q_nn_inv @ q[n_obs:, :n_obs]
    g = krig - h
    return h + g @ r_s, g @ c_s @ g.T + q_nn_inv + c_krig


def joint_law(fit, new_data):
    """(M, C) of the one conditional of u_new given u under the model's prior
    Sigma over the fitted records and then the new ones, written out with
    numpy: M = Sigma_no Sigma_u^-1, C = Sigma_nn - M Sigma_on, each with the
    jitter predict factors it with."""
    data, spec = fit.data, fit.spec
    n_obs = len(data)
    joint = [np.concatenate([getattr(data, a), getattr(new_data, a)]) for a in ("x", "y", "t")]
    k = spec.kernel
    sigma = simgen.kernel_matrix(joint, None, k.phi_s, k.phi_t, k.gamma, k.sigma2)
    if spec.kind == "mbg":
        d = np.vstack([spec.design, build_design(new_data)])
        sigma += geostat.FIXED_EFFECT_SD ** 2 * d @ d.T
    else:
        sigma += np.linalg.inv(attnfield.precision(*spec.attention))
    m = np.linalg.solve(prior_cov(spec, data) + 1e-10 * np.eye(n_obs), sigma[:n_obs, n_obs:]).T
    c = sigma[n_obs:, n_obs:] - m @ sigma[:n_obs, n_obs:]
    return m, c + numkit.DEFAULT_KERNEL_JITTER * np.eye(len(new_data))


def law_case(kind):
    """A fit and new records: the hybrid fixture's 5 held-out records, or,
    for mbg, 18 records at locations the fit has not seen."""
    if kind == "hybrid":
        return TestFitResultIsAValue().fitted_hybrid()
    _, _, fit = TestPredict().fitted_mbg()
    return fit, make_data(n_times=3, locs=(6, 6), seed=38)


class TestPredictLaw:
    """predict's Laplace predictive against the per-block law and the joint
    conditional it replaced: the same law, and predict's draws follow it."""

    @pytest.mark.parametrize("kind", ["hybrid", "mbg"])
    def test_laws_agree(self, kind):
        fit, new = law_case(kind)
        m_block, c_block = per_block_law(fit, new)
        m_joint, c_joint = joint_law(fit, new)

        def rel(a, b):
            return np.linalg.norm(a - b) / np.linalg.norm(b)

        # measured: maps 1.5e-8 (hybrid) and 2.9e-10 (mbg), covariances 7.5e-10 and 1.2e-10
        assert rel(m_joint, m_block) <= 1e-7
        assert rel(c_joint, c_block) <= 1e-7

    @pytest.mark.parametrize("kind", ["hybrid", "mbg"])
    def test_draws_follow_the_per_block_law(self, kind):
        fit, new = law_case(kind)
        m, c = per_block_law(fit, new)
        sigma_u = prior_cov(fit.spec, fit.data)
        want = np.sqrt(np.diag(m @ fit.posterior_cov(sigma_u, sigma_u) @ m.T + c))
        got = predict(fit, new, n_draws=20_000, seed=1).sd_linpred
        # a sd from 20,000 draws has a relative standard error near 0.5%
        np.testing.assert_allclose(got, want, rtol=0.03, atol=0)

    @pytest.mark.parametrize("kind", ["hybrid", "mbg"])
    def test_predictive_is_the_joint_conditional_marginal(self, kind, monkeypatch):
        fit, new = law_case(kind)
        m, c = joint_law(fit, new)
        # V_u by the two-sided formula, not by FitResult.posterior_cov
        sigma_u = prior_cov(fit.spec, fit.data)
        t_mat = fit.sq_w[:, None] * sigma_u
        v_u = sigma_u - t_mat.T @ numkit.solve_chol(fit.chol_b, t_mat)
        laws, draw = [], geostat._draw

        def recorded(mean, cov, jitter, n_draws, seed):
            laws.append((mean.copy(), cov + jitter * np.eye(len(cov))))
            return draw(mean, cov, jitter, n_draws, seed)

        monkeypatch.setattr(geostat, "_draw", recorded)
        predict(fit, new, n_draws=10)
        (mean, cov), = laws

        def rel(a, b):
            return np.linalg.norm(a - b) / np.linalg.norm(b)

        # measured: means 4.0e-11 (hybrid) and 3.3e-11 (mbg), covariances 2.6e-12 and 7.0e-11
        assert rel(mean, m @ fit.u_mode) <= 1e-9
        assert rel(cov, m @ v_u @ m.T + c) <= 1e-9

    @pytest.mark.parametrize("kind", ["hybrid", "mbg"])
    def test_prior_blocks_are_those_of_the_joint_prior(self, kind):
        # the joint prior over the fitted then the new records, built whole,
        # against the two blocks of it that predict builds alone
        fit, new = law_case(kind)
        data, spec = fit.data, fit.spec
        n_obs = len(data)
        joint = tuple(np.concatenate([getattr(data, a), getattr(new, a)]) for a in ("x", "y", "t"))
        k = spec.kernel
        sigma = simgen.kernel_matrix(joint, None, k.phi_s, k.phi_t, k.gamma, k.sigma2)
        if kind == "mbg":
            numkit.syrk(np.vstack([spec.design, build_design(new)]),
                        alpha=geostat.FIXED_EFFECT_SD ** 2, out=sigma)
        else:
            sigma += attnfield.covariance(*spec.attention)
        sigma_on, sigma_nn = geostat._prior_blocks(spec, data, new)
        for got, want in ((sigma_on, sigma[:n_obs, n_obs:]), (sigma_nn, sigma[n_obs:, n_obs:])):
            assert got.shape == want.shape
            # measured: 0 (hybrid) and 1.2e-16 (mbg) of the largest entry
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("kind", ["hybrid", "mbg"])
    @pytest.mark.parametrize("insample", [False, True], ids=["predict", "predict_insample"])
    def test_one_factorization(self, insample, kind, monkeypatch):
        fit, new = law_case(kind)
        calls = count_factorizations(monkeypatch)
        if insample:
            predict_insample(fit, n_draws=10)
        else:
            predict(fit, new, n_draws=10)
        # the covariance drawn from, and no factor of Sigma_u
        assert len(calls) == 1


class TestBetaRecovery:
    def test_beta_hat_within_three_posterior_sd(self):
        # probabilistic contract: averaged over 5 seeds, >= 4/5 of the
        # coefficient coverage events hold per run on average
        fractions = []
        for seed in range(5):
            data = make_data(n_times=5, locs=(25, 35), seed=100 + seed)
            template = ModelSpec(
                kernel=KernelSpec(sigma2=0.6, phi_s=0.25, phi_t=0.25),
                design=build_design(data),
            )
            result = optimize_hyperparameters(
                data, template, OptimizerConfig(max_iter=60), seed=seed,
            )
            fit = result.fit
            true_beta = np.concatenate([[simgen.SimConfig().beta0], data.beta])
            inside = np.abs(fit.beta_hat - true_beta) <= 3 * fit.beta_sd
            fractions.append(inside.mean())
        assert np.mean(fractions) >= 0.8
