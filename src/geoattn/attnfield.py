"""Attention-derived Gaussian Markov random field structure.

Turns exported per-edge attention coefficients into a symmetric weighted
adjacency, its unnormalized graph Laplacian scaled by the median node
degree, and the resulting two-parameter precision matrix
Q(tau, beta) = tau * (I - beta / lam_max * C). The hyperparameters live on
unconstrained scales (log precision, logit dependence).

Every field is built with the full eigendecomposition of C, which the fit
needs for Q^{-1} anyway; lam_max is its top eigenvalue. This module is the
only one that knows the spectrum of Q and its degenerate tau * I form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroMedianDegree
from .gatv2 import AttentionExport
from .numkit import syrk


@dataclass(frozen=True)
class AttnHyper:
    """Unconstrained hyperparameters: theta1 = log tau, theta2 = logit beta."""

    theta1: float = 0.0
    theta2: float = 0.0

    @property
    def tau(self) -> float:
        return float(np.exp(self.theta1))

    @property
    def beta(self) -> float:
        return float(1.0 / (1.0 + np.exp(-self.theta2)))

    @staticmethod
    def from_tau_beta(tau: float, beta: float) -> "AttnHyper":
        if tau <= 0:
            raise ValueError("tau must be positive")
        if not (0.0 < beta < 1.0):
            raise ValueError("beta must lie strictly inside (0, 1)")
        return AttnHyper(theta1=float(np.log(tau)), theta2=float(np.log(beta / (1 - beta))))


@dataclass
class AttentionField:
    """Symmetrized attention weights and the scaled Laplacian structure."""

    n_nodes: int
    w_sym: np.ndarray    # (n, n) symmetric, zero diagonal
    degrees: np.ndarray  # (n,) row sums of w_sym
    c: np.ndarray        # scaled Laplacian L / median(degrees)
    lam_max: float
    c_eigh: tuple[np.ndarray, np.ndarray]  # eigh(c)

    @property
    def degenerate(self) -> bool:
        """No positive spectrum to scale by: Q falls back to tau * I."""
        return self.lam_max <= 0.0


def symmetrize(export: AttentionExport, n_nodes: int) -> np.ndarray:
    """Average attention in the two directions; absent edges count as 0.

    Self-attention entries are dropped: they would cancel out of the
    Laplacian anyway but would distort the median-degree scaling.
    """
    alpha = np.asarray(export.alpha_mean, dtype=float)
    if np.any(alpha < 0) or np.any(alpha > 1 + 1e-12):
        raise ValueError("attention coefficients must lie in [0, 1]")
    w = np.zeros((n_nodes, n_nodes))
    w[export.dst, export.src] = alpha
    w_sym = 0.5 * (w + w.T)
    np.fill_diagonal(w_sym, 0.0)
    return w_sym


def laplacian(w_sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized graph Laplacian L = D - W and the degree vector."""
    w_sym = np.asarray(w_sym, dtype=float)
    degrees = w_sym.sum(axis=1)
    lap = np.diag(degrees) - w_sym
    return lap, degrees


def scale_by_median_degree(lap: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """L / median(degrees); even-count median averages the two central values."""
    med = float(np.median(degrees))
    if med <= 0.0:
        raise ZeroMedianDegree("median node degree is zero; attention export is degenerate")
    return lap / med


def _field(w_sym: np.ndarray) -> AttentionField:
    """Degrees -> median-scaled C -> eigh(C) -> lam_max, the top eigenvalue."""
    lap, degrees = laplacian(w_sym)
    c = scale_by_median_degree(lap, degrees)
    c_eigh = np.linalg.eigh(c)
    lam_max = float(c_eigh[0][-1])
    return AttentionField(
        n_nodes=len(w_sym),
        w_sym=w_sym,
        degrees=degrees,
        c=c,
        lam_max=lam_max,
        c_eigh=c_eigh,
    )


def build_field(export: AttentionExport, n_nodes: int) -> AttentionField:
    """Full construction from the exported attention of ``n_nodes`` nodes."""
    return _field(symmetrize(export, n_nodes))


def restrict_field(field: AttentionField, keep: np.ndarray) -> AttentionField:
    """Field induced on a node subset (degrees, scaling and lam_max recomputed)."""
    return _field(field.w_sym[np.ix_(keep, keep)])


def precision(field: AttentionField, hyper: AttnHyper) -> np.ndarray:
    """Q = tau * (I - beta / lam_max * C); tau * I when the field is degenerate.

    Positive definite for every beta in (0, 1): the spectrum of Q is
    tau * (1 - beta * lam_i / lam_max) >= tau * (1 - beta) > 0.
    """
    tau, beta = hyper.tau, hyper.beta
    eye = np.eye(field.n_nodes)
    if field.degenerate:
        return tau * eye
    return tau * (eye - (beta / field.lam_max) * field.c)


def covariance(field: AttentionField, hyper: AttnHyper) -> np.ndarray:
    """Q(tau, beta)^{-1} from the eigendecomposition of C; I / tau when degenerate."""
    if field.degenerate:
        return (1.0 / hyper.tau) * np.eye(field.n_nodes)
    lam, vec = field.c_eigh
    q_eigs = hyper.tau * (1.0 - hyper.beta * lam / field.lam_max)
    return syrk(vec * np.sqrt(1.0 / q_eigs))
