"""Latent-Gaussian-model engine.

Covariance kernels, the binomial observation model, Laplace-approximation
fitting of the combined latent field, empirical-Bayes hyperparameter
optimization by Nelder-Mead on the approximate log marginal likelihood, and
posterior prediction with Monte Carlo intervals.

A :class:`FitResult` is the one fitted-model object: it holds the
:class:`ModelSpec` and ``Dataset`` that :func:`laplace_fit` fitted and the
operators at the mode, and the fixed-effect summaries and both predict
functions read everything from it. Hybrid prediction conditions on a joint
attention field whose nodes are the fitted records, then the new ones.

The fit works on the combined zero-mean latent u = D beta + S + A (only the
blocks a model kind declares). The likelihood touches the latent state only
through eta = offset + u, so fixed effects and both random fields can be
marginalized into a single n-dimensional Gaussian prior with covariance
Sigma_u = sd^2 D D' + Sigma_S + Q^{-1}. The inner Newton solver follows the
standard B = I + W^{1/2} Sigma W^{1/2} reformulation, which stays stable
when Sigma_u is nearly singular. Component posteriors (beta, S, A) are
recovered exactly afterwards by Gaussian conditioning on u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import minimize
from scipy.special import gammaln

from .attnfield import AttentionField, AttnHyper, covariance as attention_cov, precision
from .errors import (
    AllRestartsFailed,
    NewtonDivergence,
    NotPositiveDefinite,
    UnsupportedSmoothness,
)
from .numkit import DEFAULT_KERNEL_JITTER, RngStream, cholesky, solve_chol, syrk
from .simgen import Dataset, check_unique_ids, gneiting_cov, logistic, pair_distances

DEFAULT_FIXED_EFFECT_SD = math.sqrt(1000.0)

NEWTON_MAX_ITER = 100

_STREAM_PREDICT = 201  # stream id reserved for predictive draws


# ---------------------------------------------------------------------------
# Covariance kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Covariance family with its parameters.

    ``matern`` is a purely spatial kernel (variance sigma2, range rho,
    half-integer smoothness nu). ``gneiting`` is the space-time exponential
    family with ranges (phi_s, phi_t) and interaction gamma; gamma = 0 is
    the separable product.
    """

    family: str = "gneiting"
    sigma2: float = 1.0
    rho: float = 0.25
    nu: float = 1.5
    phi_s: float = 0.25
    phi_t: float = 0.25
    gamma: float = 0.0

    def __post_init__(self):
        if self.family not in ("matern", "gneiting"):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.family == "matern" and self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.family == "matern" and self.nu not in _MATERN_SCALE:
            raise ValueError(f"matern nu must be one of 0.5, 1.5, 2.5, got {self.nu}")
        if self.family == "gneiting" and (self.phi_s <= 0 or self.phi_t <= 0 or self.gamma < 0):
            raise ValueError("need phi_s, phi_t > 0 and gamma >= 0")


_MATERN_SCALE = {0.5: 1.0, 1.5: math.sqrt(3.0), 2.5: math.sqrt(5.0)}


def matern_cov(d, sigma2: float, rho: float, nu: float):
    """Matern covariance with half-integer smoothness.

    Uses the range convention with scaled argument s = sqrt(2 nu) d / rho,
    so nu = 0.5 is sigma2 * exp(-d / rho) and nu = 1.5 evaluates to
    sigma2 * (1 + sqrt(3) d / rho) * exp(-sqrt(3) d / rho). Only
    nu in {0.5, 1.5, 2.5} is supported.
    """
    if sigma2 <= 0 or rho <= 0:
        raise ValueError("sigma2 and rho must be positive")
    if nu not in _MATERN_SCALE:
        raise UnsupportedSmoothness(f"no closed form for nu={nu}; use 0.5, 1.5 or 2.5")
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be non-negative")
    s = _MATERN_SCALE[nu] * d / rho
    if nu == 0.5:
        poly = 1.0
    elif nu == 1.5:
        poly = 1.0 + s
    else:
        poly = 1.0 + s + s * s / 3.0
    out = sigma2 * poly * np.exp(-s)
    return out if out.ndim else float(out)


class CovarianceBuilder:
    """Kernel matrices over fixed point sets with cached distances.

    Rebuilding the matrix for new kernel parameters is O(n^2) exp calls,
    which keeps hyperparameter search cheap.
    """

    def __init__(self, xa, ya, ta, xb=None, yb=None, tb=None):
        self.d_s, self.d_t = pair_distances(
            np.asarray(xa, float), np.asarray(ya, float), np.asarray(ta),
            None if xb is None else np.asarray(xb, float),
            None if xb is None else np.asarray(yb, float),
            None if xb is None else np.asarray(tb),
        )

    def __call__(self, kernel: KernelSpec) -> np.ndarray:
        if kernel.family == "matern":
            return matern_cov(self.d_s, kernel.sigma2, kernel.rho, kernel.nu)
        return kernel.sigma2 * gneiting_cov(
            self.d_s, self.d_t, kernel.phi_s, kernel.phi_t, kernel.gamma
        )


# ---------------------------------------------------------------------------
# Model specification
# ---------------------------------------------------------------------------

@dataclass
class ModelSpec:
    """Which latent blocks an mbg or hybrid model carries and their prior parameters."""

    kind: str
    kernel: KernelSpec | None = None
    design: np.ndarray | None = None          # (n, q) incl. intercept column; mbg only
    offset: np.ndarray | None = None          # logit-scale fixed offset; hybrid only
    attention: tuple[AttentionField, AttnHyper] | None = None  # hybrid only
    fixed_effect_sd: float = DEFAULT_FIXED_EFFECT_SD

    def __post_init__(self):
        if self.kind == "mbg":
            if self.design is None or self.kernel is None:
                raise ValueError("mbg needs a design matrix and a kernel")
            if self.offset is not None or self.attention is not None:
                raise ValueError("mbg takes neither offset nor attention")
        elif self.kind == "hybrid":
            if self.offset is None or self.attention is None or self.kernel is None:
                raise ValueError("hybrid needs offset, attention and a kernel")
            if self.design is not None:
                raise ValueError("hybrid carries no design matrix")
        else:
            raise ValueError(f"unknown model kind {self.kind!r}; geostat fits mbg and hybrid")


def build_design(data: Dataset) -> np.ndarray:
    """Intercept column plus the standardized covariates."""
    return np.column_stack([np.ones(len(data)), data.covariates])


# ---------------------------------------------------------------------------
# Likelihood pieces
# ---------------------------------------------------------------------------

def _binom_loglik(eta, z, n):
    # z*eta - n*log(1 + e^eta) + log C(n, z), stable for large |eta|
    softplus = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
    const = gammaln(n + 1) - gammaln(z + 1) - gammaln(n - z + 1)
    return float(np.sum(z * eta - n * softplus + const))


def _binom_grad_w(eta, z, n):
    p = logistic(eta)
    return z - n * p, n * p * (1.0 - p)


# ---------------------------------------------------------------------------
# Laplace fit
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    """A fitted model: the Gaussian approximation at the posterior mode of u.

    It keeps the spec and data it was fitted on (not copies) and the dense
    operators at the mode, so posterior recovery and prediction need nothing
    else. The Cholesky factor of Sigma_u, the posterior covariance of u and
    the beta | u conditional are built on first use and kept, so a fit and
    its predictions share them.
    """

    spec: ModelSpec
    data: Dataset
    u_mode: np.ndarray
    a_mode: np.ndarray           # Sigma_u^{-1} u_mode
    logml: float
    converged: bool
    newton_iterations: int
    sigma_u: np.ndarray = field(repr=False)
    sigma_s: np.ndarray = field(repr=False)
    chol_b: np.ndarray = field(repr=False)   # B = I + W^1/2 Sigma_u W^1/2 at the mode
    sq_w: np.ndarray = field(repr=False)
    offset: np.ndarray = field(repr=False)
    psi_trace: list[float] = field(repr=False)
    chol_sigma_u: np.ndarray | None = field(default=None, repr=False)
    _post_cov_u: np.ndarray | None = field(default=None, init=False, repr=False)
    _beta_given_u: tuple | None = field(default=None, init=False, repr=False)

    def chol_su(self) -> np.ndarray:
        if self.chol_sigma_u is None:
            self.chol_sigma_u = cholesky(self.sigma_u, jitter=1e-10)
        return self.chol_sigma_u

    def posterior_cov_u(self) -> np.ndarray:
        """V_u = Sigma_u - Sigma_u W^1/2 B^{-1} W^1/2 Sigma_u."""
        if self._post_cov_u is None:
            t_mat = self.sq_w[:, None] * self.sigma_u
            self._post_cov_u = self.sigma_u - t_mat.T @ solve_chol(self.chol_b, t_mat)
        return self._post_cov_u

    def beta_given_u(self) -> tuple[np.ndarray, np.ndarray]:
        """(R, C) of beta | u ~ N(R u, C) for mbg: R = sd2 D' Sigma_u^-1, C = sd2 (I - R D)."""
        if self._beta_given_u is None:
            sd2 = self.spec.fixed_effect_sd ** 2
            d = self.spec.design
            siu_d = solve_chol(self.chol_su(), d)
            c_beta = sd2 * np.eye(d.shape[1]) - sd2 ** 2 * (d.T @ siu_d)
            self._beta_given_u = (sd2 * siu_d.T, c_beta)
        return self._beta_given_u

    @property
    def beta_hat(self) -> np.ndarray | None:
        """Posterior mean of the fixed effects, sd2 D' a_mode (= R u_mode); None for hybrid."""
        if self.spec.design is None:
            return None
        return self.spec.fixed_effect_sd ** 2 * (self.spec.design.T @ self.a_mode)

    @property
    def beta_sd(self) -> np.ndarray | None:
        """Posterior sd of the fixed effects from Var(beta | z) = C + R V_u R'; None for hybrid."""
        if self.spec.design is None:
            return None
        r_mat, c_beta = self.beta_given_u()
        post = c_beta + r_mat @ self.posterior_cov_u() @ r_mat.T
        return np.sqrt(np.maximum(np.diag(post), 0.0))

    def summary(self) -> dict:
        spec, k = self.spec, self.spec.kernel
        out = {
            "kind": spec.kind,
            "log_marginal_likelihood": self.logml,
            "converged": bool(self.converged),
            "newton_iterations": self.newton_iterations,
            "kernel": {"family": k.family, "sigma2": k.sigma2},
        }
        if k.family == "matern":
            out["kernel"].update({"rho": k.rho, "nu": k.nu})
        else:
            out["kernel"].update({"phi_s": k.phi_s, "phi_t": k.phi_t, "gamma": k.gamma})
        if spec.attention is not None:
            h = spec.attention[1]
            out["attention"] = {
                "theta1": h.theta1, "theta2": h.theta2, "tau": h.tau, "beta": h.beta,
            }
        if spec.design is not None:
            out["beta_hat"] = [float(v) for v in self.beta_hat]
            out["beta_sd"] = [float(v) for v in self.beta_sd]
        return out


def laplace_fit(
    data: Dataset,
    spec: ModelSpec,
    *,
    gaussian_response: np.ndarray | None = None,
    gaussian_obs_sd: float | None = None,
    warm_u: np.ndarray | None = None,
    sigma_builder: CovarianceBuilder | None = None,
) -> FitResult:
    """The fitted model of ``spec`` on ``data`` at fixed hyperparameters.

    The observation model is z_i ~ Binomial(n_i, logistic(offset_i + u_i))
    with u ~ N(0, Sigma_u). Passing ``gaussian_response`` (with
    ``gaussian_obs_sd``) swaps in y_i ~ N(offset_i + u_i, sd^2), which is a
    test hook: the mode then has the closed GLS/kriging form. The returned
    :class:`FitResult` holds ``spec``, ``data`` and the operators at the
    mode, so it can be summarized and predicted from as it is.

    Each Newton iteration computes the full step u_new - u and its Newton
    decrement ½ (g - a)·(u_new - u), the gain in the objective psi that the
    full step predicts (Boyd & Vandenberghe, 2004, §9.5.1). The step is
    taken with step halving, which keeps psi non-decreasing. The loop then
    stops with ``converged=True`` if the decrement was at most
    1e-10 · max(1, |psi|): no step can raise psi beyond round-off, so the
    mode has been found. The test is affine-invariant, so it holds whatever
    the scale of the prior (such as the fixed-effect sd) or of the counts.
    ``converged`` is False when the loop reaches 100 iterations or the line
    search finds no ascent.
    """
    if np.any(data.n_tested < 1):
        raise ValueError("all records need n_tested >= 1")

    n = len(data)
    if sigma_builder is None:
        sigma_builder = CovarianceBuilder(data.x, data.y, data.t)
    sigma_s = sigma_builder(spec.kernel)
    sigma_u = sigma_s.copy()
    if spec.kind == "mbg":
        sigma_u += spec.fixed_effect_sd ** 2 * syrk(spec.design)
    else:
        sigma_u += attention_cov(*spec.attention)
    # numerical nugget: kernel matrices on near-duplicate points are singular
    sigma_u[np.diag_indices_from(sigma_u)] += DEFAULT_KERNEL_JITTER
    offset = np.zeros(n) if spec.offset is None else np.asarray(spec.offset, float)

    if gaussian_response is not None:
        if gaussian_obs_sd is None or gaussian_obs_sd <= 0:
            raise ValueError("gaussian_response requires a positive gaussian_obs_sd")
        y = np.asarray(gaussian_response, float)
        inv_var = 1.0 / gaussian_obs_sd ** 2

        def loglik(eta):
            r = y - eta
            return float(-0.5 * inv_var * r @ r - n * math.log(gaussian_obs_sd * math.sqrt(2 * math.pi)))

        def grad_w(eta):
            return (y - eta) * inv_var, np.full(n, inv_var)
    else:
        z = data.n_pos.astype(float)
        trials = data.n_tested.astype(float)

        def loglik(eta):
            return _binom_loglik(eta, z, trials)

        def grad_w(eta):
            return _binom_grad_w(eta, z, trials)

    chol_su_warm = None
    if warm_u is not None and np.any(warm_u):
        u = np.asarray(warm_u, float).copy()
        chol_su_warm = cholesky(sigma_u, jitter=1e-10)
        a = solve_chol(chol_su_warm, u)
    else:
        u = np.zeros(n)
        a = np.zeros(n)

    psi = loglik(offset + u) - 0.5 * a @ u
    if not np.isfinite(psi):
        raise NewtonDivergence("objective non-finite at the starting point")
    psi_trace = [float(psi)]

    converged = False
    it = 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        eta = offset + u
        g, w = grad_w(eta)
        sq_w = np.sqrt(w)
        b_mat = sq_w[:, None] * sigma_u * sq_w[None, :]
        b_mat[np.diag_indices_from(b_mat)] += 1.0
        chol_b = cholesky(b_mat)
        rhs = w * u + g
        t_vec = sigma_u @ rhs
        a_new = rhs - sq_w * solve_chol(chol_b, sq_w * t_vec)
        u_new = sigma_u @ a_new
        decrement = 0.5 * float((g - a) @ (u_new - u))
        tol = 1e-10 * max(1.0, abs(psi))

        # step halving keeps the objective non-decreasing
        step = 1.0
        accepted = False
        for _ in range(31):
            u_try = u + step * (u_new - u)
            a_try = a + step * (a_new - a)
            psi_try = loglik(offset + u_try) - 0.5 * a_try @ u_try
            if np.isfinite(psi_try) and psi_try >= psi - tol:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            if not np.isfinite(psi_try):
                raise NewtonDivergence(f"non-finite objective at iteration {it}")
            break  # no ascent direction left; treat current point as the mode

        u, a, psi = u_try, a_try, psi_try
        psi_trace.append(float(psi))
        if decrement <= tol:
            converged = True
            break

    eta = offset + u
    g, w = grad_w(eta)
    sq_w = np.sqrt(w)
    b_mat = sq_w[:, None] * sigma_u * sq_w[None, :]
    b_mat[np.diag_indices_from(b_mat)] += 1.0
    chol_b = cholesky(b_mat)
    logml = psi - float(np.sum(np.log(np.diag(chol_b))))

    return FitResult(
        spec=spec,
        data=data,
        u_mode=u,
        a_mode=a,
        logml=logml,
        converged=converged,
        newton_iterations=it,
        sigma_u=sigma_u,
        sigma_s=sigma_s,
        chol_b=chol_b,
        sq_w=sq_w,
        offset=offset,
        psi_trace=psi_trace,
        chol_sigma_u=chol_su_warm,
    )


# ---------------------------------------------------------------------------
# Hyperparameter optimization
# ---------------------------------------------------------------------------

DEFAULT_BOUNDS = {
    "log_sigma2": (math.log(1e-4), math.log(25.0)),
    "log_rho": (math.log(0.01), math.log(10.0)),
    "log_phi_s": (math.log(0.01), math.log(10.0)),
    "log_phi_t": (math.log(0.01), math.log(10.0)),
    "theta1": (-6.0, 10.0),
    "theta2": (-15.0, 15.0),
}

_PENALTY = 1e12


# Free parameter -> (block of the spec it sets, field of that block, the
# kernel families or model kinds that free it). A "log_" parameter is the
# log of its field. Row order is the order of the Nelder-Mead vector.
_FREE_PARAMS = {
    "log_sigma2": ("kernel", "sigma2", ("matern", "gneiting")),
    "log_rho": ("kernel", "rho", ("matern",)),
    "log_phi_s": ("kernel", "phi_s", ("gneiting",)),
    "log_phi_t": ("kernel", "phi_t", ("gneiting",)),
    "theta1": ("attention", "theta1", ("hybrid",)),
    "theta2": ("attention", "theta2", ("hybrid",)),
}


def _param_names(spec: ModelSpec) -> list[str]:
    tags = {spec.kernel.family, spec.kind}
    return [name for name, (_, _, by) in _FREE_PARAMS.items() if tags.intersection(by)]


def _spec_from_params(spec: ModelSpec, names: list[str], values: np.ndarray) -> ModelSpec:
    updates = {"kernel": {}, "attention": {}}
    for name, value in zip(names, values):
        block, attr, _ = _FREE_PARAMS[name]
        updates[block][attr] = math.exp(value) if name.startswith("log_") else value
    attention = spec.attention
    if attention is not None:
        attention = (attention[0], replace(attention[1], **updates["attention"]))
    return replace(spec, kernel=replace(spec.kernel, **updates["kernel"]), attention=attention)


def _start_values(spec: ModelSpec, names: list[str]) -> np.ndarray:
    values = []
    for name in names:
        block, attr, _ = _FREE_PARAMS[name]
        value = getattr(spec.kernel if block == "kernel" else spec.attention[1], attr)
        values.append(math.log(value) if name.startswith("log_") else value)
    return np.array(values)


@dataclass
class OptimizeResult:
    fit: FitResult
    trace: list[dict]
    best_restart: int
    n_evaluations: int


def optimize_hyperparameters(
    data: Dataset,
    spec_template: ModelSpec,
    bounds: dict[str, tuple[float, float]] | None = None,
    restarts: int = 1,
    seed: int = 0,
    max_iter: int = 200,
) -> OptimizeResult:
    """Maximize the Laplace log marginal likelihood over the free parameters.

    Free parameters are the keys of ``bounds`` (all the model's natural
    parameters when ``bounds`` is None): logs of the kernel parameters plus
    the attention (theta1, theta2) for hybrid fits. Runs Nelder-Mead from
    the template values and ``restarts - 1`` additional seeded starts drawn
    uniformly inside the bounds. Every evaluation lands in the trace with its
    ``params``, ``logml``, ``newton_iterations`` and ``converged``; an
    evaluation whose fit failed numerically scores ``logml`` = -1e12 and
    records ``newton_iterations`` None. The final refit at the best point
    starts from the mode that the best evaluation found; its
    :class:`FitResult` (``result.fit``, whose ``spec`` is the best spec) is
    the fitted model to summarize and predict from.
    """
    all_names = _param_names(spec_template)
    if bounds is None:
        names = all_names
        box = {n: DEFAULT_BOUNDS[n] for n in names}
    else:
        unknown = set(bounds) - set(all_names)
        if unknown:
            raise ValueError(f"not parameters of this model: {sorted(unknown)}")
        names = [n for n in all_names if n in bounds]
        box = dict(bounds)
    lo = np.array([box[n][0] for n in names])
    hi = np.array([box[n][1] for n in names])
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo < hi)):
        raise ValueError("bounds must be finite with lo < hi")

    builder = CovarianceBuilder(data.x, data.y, data.t)
    trace: list[dict] = []
    # "u" warm-starts the next evaluation; "best_u" is the mode at the best
    # point so far, which warm-starts the final refit there
    warm: dict = {"u": None, "best_logml": -np.inf, "best_u": None}

    def objective(theta: np.ndarray) -> float:
        spec = _spec_from_params(spec_template, names, theta)
        iterations, converged = None, False
        try:
            fit = laplace_fit(data, spec, warm_u=warm["u"], sigma_builder=builder)
            value = fit.logml
            iterations, converged = fit.newton_iterations, bool(fit.converged)
            warm["u"] = fit.u_mode
            if value > warm["best_logml"]:
                warm["best_logml"], warm["best_u"] = value, fit.u_mode
        except (NotPositiveDefinite, NewtonDivergence):
            value = -_PENALTY
        trace.append({
            "params": dict(zip(names, map(float, theta))),
            "logml": float(value),
            "newton_iterations": iterations,
            "converged": converged,
        })
        return -value

    best = None
    for restart in range(max(1, restarts)):
        if restart == 0:
            x0 = np.clip(_start_values(spec_template, names), lo + 1e-6, hi - 1e-6)
        else:
            rng = RngStream(seed, 1000 + restart)
            x0 = rng.uniform(lo, hi)
        warm["u"] = None
        res = minimize(
            objective, x0,
            method="Nelder-Mead",
            bounds=list(zip(lo, hi)),
            options={"maxiter": max_iter, "xatol": 2e-3, "fatol": 1e-2},
        )
        if np.isfinite(res.fun) and -res.fun > -_PENALTY / 2:
            if best is None or res.fun < best[0]:
                best = (res.fun, res.x.copy(), restart)
    if best is None:
        raise AllRestartsFailed("no restart produced a finite marginal likelihood")

    _, x_best, best_restart = best
    fit = laplace_fit(
        data, _spec_from_params(spec_template, names, x_best),
        warm_u=warm["best_u"], sigma_builder=builder,
    )
    return OptimizeResult(
        fit=fit,
        trace=trace,
        best_restart=best_restart,
        n_evaluations=len(trace),
    )


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

@dataclass
class Prediction:
    """Per-record predictive summaries of prevalence."""

    ids: np.ndarray
    mean: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    sd_linpred: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def _summarize_draws(ids, eta_draws: np.ndarray, level: float) -> Prediction:
    p_draws = logistic(eta_draws)
    alpha = 1.0 - level
    lo, hi = np.quantile(p_draws, [alpha / 2, 1.0 - alpha / 2], axis=1)
    return Prediction(
        ids=np.asarray(ids),
        mean=p_draws.mean(axis=1),
        lo=lo,
        hi=hi,
        sd_linpred=eta_draws.std(axis=1),
    )


def _draw_u(fit: FitResult, n_draws: int, rng: RngStream) -> np.ndarray:
    chol_v = cholesky(fit.posterior_cov_u(), jitter=1e-10)
    z = rng.standard_normal((len(fit.u_mode), n_draws))
    return fit.u_mode[:, None] + chol_v @ z


def predict_insample(
    fit: FitResult,
    n_draws: int = 2000,
    seed: int = 0,
    level: float = 0.95,
) -> Prediction:
    """Predictive summaries at the fitted records themselves."""
    rng = RngStream(seed, _STREAM_PREDICT)
    u_draws = _draw_u(fit, n_draws, rng)
    eta = fit.offset[:, None] + u_draws
    return _summarize_draws(fit.data.ids, eta, level)


def predict(
    fit: FitResult,
    new_data: Dataset,
    n_draws: int = 2000,
    seed: int = 0,
    level: float = 0.95,
    new_offsets: np.ndarray | None = None,
    joint_field: AttentionField | None = None,
) -> Prediction:
    """Joint-conditioning prediction at new records.

    The spatial field is kriged from its posterior draws at the fitted
    records. For mbg the fixed effects are drawn from beta | u, the
    conditional that ``fit.beta_sd`` also reads. For hybrid fits
    ``new_offsets`` supplies the new records' logit-scale offsets and the
    attention process is conditioned through the precision of
    ``joint_field``, the graph over the fitted records and then
    ``new_data``'s, each in order (the layout ``pipeline.concat_datasets``
    builds).
    """
    data = fit.data
    n_obs = len(data)
    n_new = len(new_data)
    rng = RngStream(seed, _STREAM_PREDICT)

    u_draws = _draw_u(fit, n_draws, rng)

    # spatial field: component draws at observed points, then kriging
    kernel = fit.spec.kernel
    k_cross = CovarianceBuilder(new_data.x, new_data.y, new_data.t, data.x, data.y, data.t)(kernel)
    k_new = CovarianceBuilder(new_data.x, new_data.y, new_data.t)(kernel)
    chol_s_obs = cholesky(fit.sigma_s, jitter=DEFAULT_KERNEL_JITTER)
    krig = solve_chol(chol_s_obs, k_cross.T).T            # (n_new, n_obs)
    cond_cov = k_new - krig @ k_cross.T
    chol_cond = cholesky(cond_cov, jitter=DEFAULT_KERNEL_JITTER)

    if fit.spec.kind == "mbg":
        r_beta, c_beta = fit.beta_given_u()
        q = len(c_beta)
        chol_cbeta = cholesky(c_beta, jitter=1e-12)
        beta_draws = r_beta @ u_draws + chol_cbeta @ rng.standard_normal((q, n_draws))
        s_draws = u_draws - fit.spec.design @ beta_draws
        eta_new = build_design(new_data) @ beta_draws
    else:
        if new_offsets is None or joint_field is None:
            raise ValueError("hybrid prediction needs new_offsets and joint_field")
        if joint_field.n_nodes != n_obs + n_new:
            raise ValueError(
                f"joint_field has {joint_field.n_nodes} nodes, expected "
                f"{n_obs} fitted + {n_new} new records"
            )
        sigma_s = fit.sigma_s
        r_s = solve_chol(fit.chol_su(), sigma_s).T         # Sigma_S Sigma_u^{-1}
        c_s = sigma_s - r_s @ sigma_s
        chol_cs = cholesky(c_s, jitter=1e-10)
        s_draws = r_s @ u_draws + chol_cs @ rng.standard_normal((n_obs, n_draws))
        a_draws = u_draws - s_draws

        q_joint = precision(joint_field, fit.spec.attention[1])
        chol_qnn = cholesky(q_joint[n_obs:, n_obs:])
        cond_mean = -solve_chol(chol_qnn, q_joint[n_obs:, :n_obs] @ a_draws)
        noise = solve_triangular(
            chol_qnn.T, rng.standard_normal((n_new, n_draws)), lower=False
        )
        eta_new = np.asarray(new_offsets, float)[:, None] + cond_mean + noise

    s_new = krig @ s_draws + chol_cond @ rng.standard_normal((n_new, n_draws))
    eta_new = eta_new + s_new
    return _summarize_draws(new_data.ids, eta_new, level)


def write_prediction_csv(pred: Prediction, path: str | Path) -> None:
    lines = ["id,mean,lo95,hi95,sd_linpred"]
    for i in range(len(pred)):
        lines.append(
            f"{int(pred.ids[i])},{repr(float(pred.mean[i]))},{repr(float(pred.lo[i]))},"
            f"{repr(float(pred.hi[i]))},{repr(float(pred.sd_linpred[i]))}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_prediction_csv(path: str | Path) -> Prediction:
    """Prediction from a CSV written by :func:`write_prediction_csv`.

    Raises ValueError naming the data row (1-based, after the header) that
    has the wrong number of fields, a value that does not parse, a
    non-finite value or lo95 > hi95, and both rows when two rows share an id.
    """
    rows = Path(path).read_text().strip().splitlines()
    if not rows or rows[0] != "id,mean,lo95,hi95,sd_linpred":
        raise ValueError("not a prediction CSV")
    if len(rows) == 1:
        raise ValueError("prediction CSV has no rows")
    ids = np.empty(len(rows) - 1, dtype=int)
    data = np.empty((len(rows) - 1, 4))
    for k, row in enumerate(rows[1:], start=1):
        fields = row.split(",")
        if len(fields) != 5:
            raise ValueError(f"prediction CSV row {k} has {len(fields)} fields, expected 5")
        try:
            ids[k - 1] = int(fields[0])
            data[k - 1] = [float(v) for v in fields[1:]]
        except ValueError as err:
            raise ValueError(f"prediction CSV row {k}: {err}") from None
        if not np.all(np.isfinite(data[k - 1])):
            raise ValueError(f"prediction CSV row {k} has a non-finite value")
        if data[k - 1, 1] > data[k - 1, 2]:
            raise ValueError(f"prediction CSV row {k} has lo95 > hi95")
    check_unique_ids(ids, "prediction CSV")
    return Prediction(
        ids=ids, mean=data[:, 0], lo=data[:, 1],
        hi=data[:, 2], sd_linpred=data[:, 3],
    )
