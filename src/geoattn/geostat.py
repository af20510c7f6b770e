"""Latent-Gaussian-model engine.

Covariance kernels, the binomial observation model :class:`Binomial`,
Laplace-approximation fitting of the combined latent field, empirical-Bayes
hyperparameter optimization by Nelder-Mead on the approximate log marginal
likelihood, and posterior prediction with Monte Carlo intervals.

A :class:`FitResult` is the one fitted-model object: it holds the
:class:`ModelSpec` and ``Dataset`` that :func:`laplace_fit` fitted and the
factor L_B at the mode; Sigma_u is rebuilt from spec and data
(:func:`prior_cov`) when it is needed. The fixed-effect summaries and both
predict functions read everything from it. A hybrid fits and predicts from one
attention field over the fitted records and then the new ones.

The fit works on the combined zero-mean latent u = D beta + S + A (only the
blocks a :class:`ModelSpec` declares). The likelihood touches the latent
state only through eta = offset + u, and the fit reads it only through
:meth:`Binomial.loglik` and :meth:`Binomial.grad_w`. So fixed effects and
both random fields can be marginalized into a single n-dimensional Gaussian
prior with covariance Sigma_u = sd^2 D D' + Sigma_S + Q^{-1}. The inner
Newton solver follows the standard B = I + W^{1/2} Sigma W^{1/2}
reformulation, which stays stable when Sigma_u is nearly singular, and
searches in a = Sigma_u^{-1} u (Rasmussen & Williams, 2006, Alg. 3.1-3.2).
So nothing factors Sigma_u: a warm start takes u = Sigma_u a, and every
posterior covariance (of u at the fitted or the new records, of beta) is
one triangular solve with the fit's factor of B. Each predict call factors
only the covariance it draws from; a :class:`FitResult` is frozen and holds
no cache. A fit builds Sigma_u and one buffer that B is factored in, and
its result keeps only the factor; kernel matrices come straight from the
coordinates (``simgen.kernel_matrix``), with no cached distances.

The hyperparameter search keeps the fit of its best evaluation, so the
model it returns is never fitted twice.

Every matrix product, factorization and triangular solve here goes through
``numkit``, so a fit runs all of its dense BLAS and LAPACK calls in one
OpenBLAS thread pool (see the one-pool rule in ``numkit``'s docstring);
only vector-vector dots use numpy's ``@``. Fits and draws are
byte-identical across reruns for a fixed BLAS build and thread count.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammaln

from .attnfield import AttentionField, AttnHyper, covariance as attention_cov, covariance_after
from .errors import AllRestartsFailed, NewtonDivergence, NotPositiveDefinite
from .evalkit import Prediction
from .numkit import (
    DEFAULT_KERNEL_JITTER,
    RngStream,
    cholesky,
    matmul,
    solve_chol,
    solve_right_lt,
    solve_triangular,
    syrk,
)
from .simgen import Dataset, kernel_matrix, logistic

FIXED_EFFECT_SD = math.sqrt(1000.0)  # prior sd of each fixed effect in beta

NEWTON_MAX_ITER = 100

_STREAM_PREDICT = 201  # stream id reserved for predictive draws
# the central interval of every prediction, which its files and scores
# name lo95, hi95 and coverage95
INTERVAL_LEVEL = 0.95

_log = logging.getLogger("geoattn")


# ---------------------------------------------------------------------------
# Covariance kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """The one space-time covariance: variance sigma2 times the Gneiting
    exponential correlation with ranges (phi_s, phi_t) and interaction
    gamma (``simgen.gneiting_cov``); gamma = 0 is the separable product.
    """

    sigma2: float = 1.0
    phi_s: float = 0.25
    phi_t: float = 0.25
    gamma: float = 0.0

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.phi_s <= 0 or self.phi_t <= 0 or self.gamma < 0:
            raise ValueError("need phi_s, phi_t > 0 and gamma >= 0")


def kernel_cov(kernel: KernelSpec, rows: Dataset, cols: Dataset | None = None) -> np.ndarray:
    """The kernel's covariance between the records ``rows`` and ``cols``
    (``rows`` again when None), built from their coordinates."""
    return kernel_matrix((rows.x, rows.y, rows.t), None if cols is None else (cols.x, cols.y, cols.t),
                         kernel.phi_s, kernel.phi_t, kernel.gamma, kernel.sigma2)


# ---------------------------------------------------------------------------
# Model specification
# ---------------------------------------------------------------------------

@dataclass
class ModelSpec:
    """The latent blocks of a model and their prior parameters: the kernel's
    field S, plus fixed effects D beta (``design``, with its intercept
    column; mbg) or the attention field A and the network's logit-scale
    ``offset`` (hybrid), one offset per field node: the fitted records,
    then those to predict at. The blocks decide the model's :attr:`kind`."""

    kernel: KernelSpec
    design: np.ndarray | None = None
    offset: np.ndarray | None = None
    attention: tuple[AttentionField, AttnHyper] | None = None

    def __post_init__(self):
        if (self.design is None) == (self.attention is None):
            raise ValueError("a model carries exactly one of design (mbg) and attention (hybrid)")
        if (self.offset is None) != (self.attention is None):
            raise ValueError("an offset comes with attention, and only with it")
        if self.attention is not None and len(self.offset) != self.attention[0].n_nodes:
            raise ValueError("the offset needs one entry per attention field node")

    @property
    def kind(self) -> str:
        return "hybrid" if self.attention is not None else "mbg"


def build_design(data: Dataset) -> np.ndarray:
    """Intercept column plus the standardized covariates."""
    return np.column_stack([np.ones(len(data)), data.covariates])


# ---------------------------------------------------------------------------
# Observation model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Binomial:
    """The observation model z_i ~ Binomial(n_i, logistic(eta_i)), as
    :func:`laplace_fit` reads it: its log likelihood and, from
    :meth:`grad_w`, the gradient and the negated Hessian diagonal W in eta.
    ``log_choose`` is log C(n, z), computed once by :meth:`of`."""

    z: np.ndarray
    n: np.ndarray
    log_choose: np.ndarray

    @classmethod
    def of(cls, data: Dataset) -> Binomial:
        """The counts of ``data``; ValueError unless every n_tested >= 1."""
        if np.any(data.n_tested < 1):
            raise ValueError("all records need n_tested >= 1")
        z, n = data.n_pos.astype(float), data.n_tested.astype(float)
        return cls(z, n, gammaln(n + 1) - gammaln(z + 1) - gammaln(n - z + 1))

    def loglik(self, eta: np.ndarray) -> float:
        # z*eta - n*log(1 + e^eta) + log C(n, z), stable for large |eta|
        softplus = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
        return float(np.sum(self.z * eta - self.n * softplus + self.log_choose))

    def grad_w(self, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = logistic(eta)
        return self.z - self.n * p, self.n * p * (1.0 - p)


# ---------------------------------------------------------------------------
# Laplace fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """A fitted model: the Gaussian approximation at the posterior mode of u.

    It keeps the spec and data it was fitted on (not copies) and L_B, the
    Cholesky factor of B at the mode; Sigma_u is rebuilt from spec and data
    (:func:`prior_cov`). So prediction needs nothing else: any latent x
    jointly Gaussian with u a priori has Laplace posterior mean
    Cov(x, u) a_mode and covariance :meth:`posterior_cov` (Rasmussen &
    Williams, 2006, Alg. 3.2). Its one n x n array is ``chol_b``. It is a
    value: every field is set by :func:`laplace_fit`, and nothing is added
    or overwritten afterwards, so predicting from a fit leaves it as it was.
    """

    spec: ModelSpec
    data: Dataset
    u_mode: np.ndarray
    a_mode: np.ndarray           # Sigma_u^{-1} u_mode
    logml: float
    converged: bool
    newton_iterations: int
    chol_b: np.ndarray = field(repr=False)   # B = I + W^1/2 Sigma_u W^1/2 at the mode
    sq_w: np.ndarray = field(repr=False)
    offset: np.ndarray = field(repr=False)
    psi_trace: list[float] = field(repr=False)

    def posterior_cov(self, cross: np.ndarray, prior: np.ndarray) -> np.ndarray:
        """Var(x | z) = prior - V'V with V = L_B^{-1} W^1/2 cross, for a latent
        x with prior covariance ``prior`` and Cov(u, x) = ``cross``.

        That is prior - cross' W^1/2 B^{-1} W^1/2 cross from one triangular
        solve and one symmetric rank-n update (Rasmussen & Williams, 2006,
        Alg. 3.2); x = u itself (cross = prior = Sigma_u) gives V_u. V' is
        the one new array; the result, symmetric as stored, is written over
        ``prior`` (a C-ordered array, which may be ``cross`` itself) and
        returned.
        """
        # W^1/2 cross is built C-ordered, so its transpose is Fortran-
        # ordered and trsm solves it from the right in place:
        # (W^1/2 cross)' L_B^{-T} = V'
        v_t = (self.sq_w[:, None] * cross).T
        v_t = solve_right_lt(self.chol_b, v_t)
        return syrk(v_t, alpha=-1.0, out=prior)

    @property
    def beta_hat(self) -> np.ndarray | None:
        """Posterior mean of the fixed effects, sd2 D' a_mode (= R u_mode); None for hybrid."""
        if self.spec.design is None:
            return None
        return FIXED_EFFECT_SD ** 2 * matmul(self.spec.design.T, self.a_mode)

    @property
    def beta_sd(self) -> np.ndarray | None:
        """Posterior sd of the fixed effects; None for hybrid.

        Var(beta | z) = C + R V_u R' is, by Woodbury, sd2 I - sd2^2 X'X with
        X = L_B^{-1} W^1/2 D: one triangular solve with the factor of B
        that the fit holds, and no factor of Sigma_u. :meth:`posterior_cov`
        with prior sd2 I and cross sd2 D is the same law, but at n = 1,000 its
        rounding of the cancellation from sd2 = 1000 to variances near 0.01
        is 1e-9 off the cancellation-free form, where this one is 1e-10 to 4e-10.
        """
        d = self.spec.design
        if d is None:
            return None
        sd2 = FIXED_EFFECT_SD ** 2
        x = solve_triangular(self.chol_b, self.sq_w[:, None] * d, lower=True)
        return np.sqrt(np.maximum(sd2 - sd2 ** 2 * np.sum(x * x, axis=0), 0.0))

    def summary(self) -> dict:
        spec, k = self.spec, self.spec.kernel
        out = {
            "kind": spec.kind,
            "log_marginal_likelihood": self.logml,
            "converged": bool(self.converged),
            "newton_iterations": self.newton_iterations,
            "kernel": {"sigma2": k.sigma2, "phi_s": k.phi_s, "phi_t": k.phi_t, "gamma": k.gamma},
        }
        if spec.attention is not None:
            h = spec.attention[1]
            out["attention"] = {
                "theta1": h.theta1, "theta2": h.theta2, "tau": h.tau, "beta": h.beta,
            }
        if spec.design is not None:
            out["beta_hat"] = [float(v) for v in self.beta_hat]
            out["beta_sd"] = [float(v) for v in self.beta_sd]
        return out


def prior_cov(spec: ModelSpec, data: Dataset) -> np.ndarray:
    """Sigma_u, the prior covariance of u at the records ``data`` that ``spec``
    is fitted on, as a new array: the kernel matrix, plus the second block,
    sd^2 D D' for mbg or the attention field's marginal over its first
    len(data) nodes, plus the numerical nugget on the diagonal (kernel
    matrices on near-duplicate points are singular). The second block is
    added into the kernel matrix in place, so one n x n array is made."""
    sigma_u = kernel_cov(spec.kernel, data)
    if spec.design is not None:
        syrk(spec.design, alpha=FIXED_EFFECT_SD ** 2, out=sigma_u)
    else:
        attention_cov(*spec.attention, len(data), out=sigma_u)
    sigma_u[np.diag_indices_from(sigma_u)] += DEFAULT_KERNEL_JITTER
    return sigma_u


def _prior_blocks(spec: ModelSpec, data: Dataset, new_data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma_on, Sigma_nn): the prior covariance of u at the fitted records
    ``data`` with that at ``new_data``, and at ``new_data`` alone, built as
    those blocks only: the kernel, plus sd^2 D_o D_n' and sd^2 D_n D_n' for
    mbg, or the attention field's blocks over its last len(new_data) nodes."""
    sigma_on = kernel_cov(spec.kernel, data, new_data)
    sigma_nn = kernel_cov(spec.kernel, new_data)
    if spec.design is not None:
        d_new = build_design(new_data)
        sigma_on += FIXED_EFFECT_SD ** 2 * matmul(spec.design, d_new.T)
        syrk(d_new, alpha=FIXED_EFFECT_SD ** 2, out=sigma_nn)
    else:
        a_on, a_nn = covariance_after(*spec.attention, len(data))
        sigma_on += a_on
        sigma_nn += a_nn
    return sigma_on, sigma_nn


def _factor_b(sigma_u: np.ndarray, sq_w: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Cholesky factor of B = I + W^1/2 Sigma_u W^1/2, built and factored in ``buf``.

    ``buf`` (C-ordered) is filled with B transposed, so its Fortran-ordered
    view ``buf.T`` holds B with the products rounded as (sq_w_i Sigma_ij)
    sq_w_j, and the factorization overwrites it with no copy. The factor
    returned is that view.
    """
    np.multiply(sigma_u, sq_w[None, :], out=buf)
    buf *= sq_w[:, None]
    buf[np.diag_indices_from(buf)] += 1.0
    return cholesky(buf.T, overwrite_a=True)


def laplace_fit(
    data: Dataset,
    spec: ModelSpec,
    *,
    likelihood: Binomial | None = None,
    warm_a: np.ndarray | None = None,
) -> FitResult:
    """The fitted model of ``spec`` on ``data`` at fixed hyperparameters.

    The observation model is ``likelihood`` (by default
    ``Binomial.of(data)``, z_i ~ Binomial(n_i, logistic(offset_i + u_i)))
    with u ~ N(0, Sigma_u); a hybrid's A block is the field's marginal over
    the n fitted records, its first nodes. The fit reads the likelihood only
    through its ``loglik`` and ``grad_w`` at eta = offset + u. Each call
    builds Sigma_u afresh (:func:`prior_cov`, the kernel from the records'
    coordinates) and one buffer that every factor of B is made in, and
    holds no other n x n array. The returned :class:`FitResult` holds
    ``spec``, ``data`` and the factor of B at the mode, and not Sigma_u, so
    it can be summarized and predicted from as it is.

    The search runs in a = Sigma_u^{-1} u (Rasmussen & Williams, 2006,
    Alg. 3.1). It starts at u = 0, or, given ``warm_a`` (such as the
    ``a_mode`` of a fit at nearby hyperparameters), at a = ``warm_a`` and
    u = Sigma_u a, which needs no factorization of Sigma_u.

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
    if likelihood is None:
        likelihood = Binomial.of(data)

    n = len(data)
    sigma_u = prior_cov(spec, data)
    offset = np.zeros(n) if spec.offset is None else np.asarray(spec.offset[:n], float)

    if warm_a is not None and np.any(warm_a):
        a = np.asarray(warm_a, float).copy()
        u = matmul(sigma_u, a)
    else:
        u = np.zeros(n)
        a = np.zeros(n)
    b_buf = np.empty((n, n))  # every factor of B, the final one included, is made here

    psi = likelihood.loglik(offset + u) - 0.5 * a @ u
    if not np.isfinite(psi):
        raise NewtonDivergence("objective non-finite at the starting point")
    psi_trace = [float(psi)]

    converged = False
    it = 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        eta = offset + u
        g, w = likelihood.grad_w(eta)
        sq_w = np.sqrt(w)
        chol_b = _factor_b(sigma_u, sq_w, b_buf)
        rhs = w * u + g
        t_vec = matmul(sigma_u, rhs)
        a_new = rhs - sq_w * solve_chol(chol_b, sq_w * t_vec)
        u_new = matmul(sigma_u, a_new)
        decrement = 0.5 * float((g - a) @ (u_new - u))
        tol = 1e-10 * max(1.0, abs(psi))

        # step halving keeps the objective non-decreasing
        step = 1.0
        accepted = False
        for _ in range(31):
            u_try = u + step * (u_new - u)
            a_try = a + step * (a_new - a)
            psi_try = likelihood.loglik(offset + u_try) - 0.5 * a_try @ u_try
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
    g, w = likelihood.grad_w(eta)
    sq_w = np.sqrt(w)
    chol_b = _factor_b(sigma_u, sq_w, b_buf)
    logml = psi - float(np.sum(np.log(np.diag(chol_b))))

    return FitResult(
        spec=spec,
        data=data,
        u_mode=u,
        a_mode=a,
        logml=logml,
        converged=converged,
        newton_iterations=it,
        chol_b=chol_b,
        sq_w=sq_w,
        offset=offset,
        psi_trace=psi_trace,
    )


# ---------------------------------------------------------------------------
# Hyperparameter optimization
# ---------------------------------------------------------------------------

DEFAULT_BOUNDS = {
    "log_sigma2": (math.log(1e-4), math.log(25.0)),
    "log_phi_s": (math.log(0.01), math.log(10.0)),
    "log_phi_t": (math.log(0.01), math.log(10.0)),
    "theta1": (-6.0, 10.0),
    "theta2": (-15.0, 15.0),
}

_PENALTY = 1e12


# Free parameter -> (block of the spec it sets, field of that block, the
# model kinds that free it). A "log_" parameter is the log of its field.
# Row order is the order of the Nelder-Mead vector.
_FREE_PARAMS = {
    "log_sigma2": ("kernel", "sigma2", ("mbg", "hybrid")),
    "log_phi_s": ("kernel", "phi_s", ("mbg", "hybrid")),
    "log_phi_t": ("kernel", "phi_t", ("mbg", "hybrid")),
    "theta1": ("attention", "theta1", ("hybrid",)),
    "theta2": ("attention", "theta2", ("hybrid",)),
}


def free_param_names(kind: str) -> list[str]:
    """The free parameters of a ``kind`` model, in Nelder-Mead order."""
    return [name for name, (_, _, kinds) in _FREE_PARAMS.items() if kind in kinds]


def searched_params(bounds: dict | None, kind: str) -> list[str]:
    """The parameters Nelder-Mead searches for a ``kind`` model.

    These are the keys of ``bounds``, or every free parameter when it is
    None. ValueError unless each bound names a parameter of
    :data:`DEFAULT_BOUNDS` and is finite with lo < hi, and, for mbg and
    hybrid, ``bounds`` is not empty and names free parameters only. A
    gat_only model searches nothing, so its bounds are never used.
    """
    free = free_param_names(kind)
    if bounds is None:
        return free
    fitted = kind != "gat_only"
    if fitted and not bounds:
        raise ValueError(f"bounds is empty: name one or more of {', '.join(free)} for {kind}")
    for name, (lo, hi) in bounds.items():
        if name not in DEFAULT_BOUNDS:
            raise ValueError(f"unknown bound name {name!r}")
        if fitted and name not in free:
            raise ValueError(
                f"bounds names {name!r}, which is not a free parameter of {kind} "
                f"({', '.join(free)})"
            )
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"bound {name!r} must be finite with lo < hi, got [{lo}, {hi}]")
    return [n for n in free if n in bounds]


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


@dataclass(frozen=True)
class OptimizerConfig:
    """Nelder-Mead settings: ``bounds`` maps the parameters searched to
    ``[lo, hi]`` (None: every free one, within :data:`DEFAULT_BOUNDS`);
    :func:`searched_params` checks them against the model."""

    restarts: int = 1
    max_iter: int = 150
    bounds: dict[str, tuple[float, float]] | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")


@dataclass
class OptimizeResult:
    fit: FitResult
    trace: list[dict]
    best_restart: int
    n_evaluations: int
    restarts: list[dict]  # per restart: scipy's converged, status, message, iterations

    @property
    def search_converged(self) -> bool:
        """Whether the restart that holds the best evaluation converged."""
        return self.restarts[self.best_restart]["converged"]

    def convergence(self) -> dict[str, bool]:
        """Whether the best fit's Newton iteration and the search converged,
        as fit manifests and CV fold reports record them."""
        return {"newton_converged": bool(self.fit.converged),
                "search_converged": self.search_converged}


def optimize_hyperparameters(
    data: Dataset,
    spec_template: ModelSpec,
    optimizer: OptimizerConfig = OptimizerConfig(),
    seed: int = 0,
) -> OptimizeResult:
    """Maximize the Laplace log marginal likelihood over the free parameters.

    The parameters searched are those of :func:`searched_params`: logs of
    the kernel parameters plus the attention (theta1, theta2) for hybrid
    fits. Runs Nelder-Mead from the template values and ``restarts - 1``
    additional seeded starts drawn uniformly inside the bounds. Every
    evaluation lands in the trace with its ``params``, ``logml``,
    ``newton_iterations`` and ``converged``; an
    evaluation whose fit failed numerically scores ``logml`` = -1e12 and
    records ``newton_iterations`` None. Each evaluation in a restart
    warm-starts from the previous one's ``a_mode``. ``result.fit`` is the
    :class:`FitResult` of the best evaluation over all restarts (the first
    one on ties), kept as it was fitted: its ``spec`` is the best spec and
    it is the fitted model to summarize and predict from. Nelder-Mead's
    best point is always one it has evaluated, so no refit is needed.
    ``result.restarts`` keeps, for each restart, whether scipy's search
    converged, its status and message and its iteration count; a restart
    that stops short, such as at ``max_iter``, logs a warning on the
    ``geoattn`` logger.
    """
    from scipy.optimize import minimize  # only fits need it; keeps CLI start-up light

    names = searched_params(optimizer.bounds, spec_template.kind)
    box = optimizer.bounds or DEFAULT_BOUNDS
    lo = np.array([box[n][0] for n in names])
    hi = np.array([box[n][1] for n in names])

    likelihood = Binomial.of(data)
    trace: list[dict] = []
    restarts: list[dict] = []
    # "a" warm-starts the next evaluation; "best" is (logml, fit, restart)
    # of the best evaluation so far
    state: dict = {"a": None, "restart": 0, "best": (-np.inf, None, 0)}

    def objective(theta: np.ndarray) -> float:
        spec = _spec_from_params(spec_template, names, theta)
        iterations, converged = None, False
        try:
            fit = laplace_fit(data, spec, likelihood=likelihood, warm_a=state["a"])
            value = fit.logml
            iterations, converged = fit.newton_iterations, bool(fit.converged)
            state["a"] = fit.a_mode
            if value > state["best"][0]:
                state["best"] = (value, fit, state["restart"])
        except (NotPositiveDefinite, NewtonDivergence):
            value = -_PENALTY
        trace.append({
            "params": dict(zip(names, map(float, theta))),
            "logml": float(value),
            "newton_iterations": iterations,
            "converged": converged,
        })
        return -value

    for restart in range(optimizer.restarts):
        if restart == 0:
            x0 = np.clip(_start_values(spec_template, names), lo + 1e-6, hi - 1e-6)
        else:
            rng = RngStream(seed, 1000 + restart)
            x0 = rng.uniform(lo, hi)
        state["a"], state["restart"] = None, restart
        res = minimize(
            objective, x0,
            method="Nelder-Mead",
            bounds=list(zip(lo, hi)),
            options={"maxiter": optimizer.max_iter, "xatol": 2e-3, "fatol": 1e-2},
        )
        restarts.append({
            "converged": bool(res.success), "status": int(res.status),
            "message": str(res.message), "iterations": int(res.nit),
        })
        if not res.success:
            _log.warning("Nelder-Mead restart %d stopped without converging after %d "
                         "iterations: %s", restart, res.nit, res.message)
    _, fit, best_restart = state["best"]
    if fit is None:
        raise AllRestartsFailed("no restart produced a finite marginal likelihood")

    return OptimizeResult(
        fit=fit,
        trace=trace,
        best_restart=best_restart,
        n_evaluations=len(trace),
        restarts=restarts,
    )


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def _summarize_draws(ids, eta_draws: np.ndarray) -> Prediction:
    """Per-record summaries of the draws, one row per record. ``eta_draws`` is
    overwritten: its sd is taken first, then it becomes p in place and its
    rows are partially sorted for the quantiles, after the mean is taken."""
    sd_linpred = eta_draws.std(axis=1)
    p_draws = logistic(eta_draws, out=eta_draws)
    mean = p_draws.mean(axis=1)
    alpha = 1.0 - INTERVAL_LEVEL
    lo, hi = np.quantile(p_draws, [alpha / 2, 1.0 - alpha / 2], axis=1, overwrite_input=True)
    return Prediction(ids=np.asarray(ids), mean=mean, lo=lo, hi=hi, sd_linpred=sd_linpred)


def _draw(mean, cov, jitter: float, n_draws: int, seed: int) -> np.ndarray:
    """``n_draws`` columns mean + L z, L L' = cov + jitter I, on the predict stream.
    ``cov`` is a temporary, symmetric as stored: its transpose is factored in place."""
    chol = cholesky(cov.T, jitter=jitter, overwrite_a=True)
    draws = matmul(chol, RngStream(seed, _STREAM_PREDICT).standard_normal((len(mean), n_draws)))
    draws += mean[:, None]
    return draws


def predict_insample(
    fit: FitResult,
    n_draws: int = 2000,
    seed: int = 0,
) -> Prediction:
    """Predictive summaries at the fitted records, drawn from the Laplace posterior
    N(u_mode, ``fit.posterior_cov(Sigma_u, Sigma_u)``) (R&W, 2006, Alg. 3.2).

    Sigma_u is rebuilt from the fit's spec and data; the posterior covariance
    is written over it and factored in place, and it is freed before the
    draws are summarized."""
    sigma_u = prior_cov(fit.spec, fit.data)
    u_draws = _draw(fit.u_mode, fit.posterior_cov(sigma_u, sigma_u), 1e-10, n_draws, seed)
    del sigma_u
    u_draws += fit.offset[:, None]
    return _summarize_draws(fit.data.ids, u_draws)


def predict(
    fit: FitResult,
    new_data: Dataset,
    n_draws: int = 2000,
    seed: int = 0,
) -> Prediction:
    """Predictive summaries at ``new_data``, drawn from the Laplace predictive
    N(Sigma_no a_mode, Sigma_nn - V'V), V = L_B^{-1} W^1/2 Sigma_on (Rasmussen
    & Williams, 2006, Alg. 3.2). Sigma is the prior over the fitted records
    then ``new_data`` (a hybrid's last field nodes and offsets), of which
    only the blocks Sigma_on and Sigma_nn are built (:func:`_prior_blocks`).
    It is the law of u ~ N(u_mode, V_u) then u_new | u ~ N(r u, Sigma_nn -
    r Sigma_on), r = Sigma_no Sigma_u^{-1} (R&W eq. A.6), since
    r u_mode = Sigma_no a_mode and r V_u r' - r Sigma_on = -V'V.
    The blocks are independent a priori, so it is also the law of extending
    each block alone (beta, then S kriged; or S kriged, then A from the
    field's GMRF conditional, Rue & Held, 2005, §2.2)."""
    spec, data = fit.spec, fit.data
    n_obs, n_new = len(data), len(new_data)
    if spec.attention is not None and spec.attention[0].n_nodes != n_obs + n_new:
        raise ValueError(
            f"the attention field has {spec.attention[0].n_nodes} nodes, expected "
            f"{n_obs} fitted + {n_new} new records"
        )
    sigma_on, sigma_nn = _prior_blocks(spec, data, new_data)
    cov = fit.posterior_cov(sigma_on, sigma_nn)
    eta_new = _draw(matmul(sigma_on.T, fit.a_mode), cov, DEFAULT_KERNEL_JITTER, n_draws, seed)
    if spec.offset is not None:
        eta_new += np.asarray(spec.offset[n_obs:], float)[:, None]
    return _summarize_draws(new_data.ids, eta_new)
