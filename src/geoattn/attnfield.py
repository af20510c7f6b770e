"""Attention-derived Gaussian Markov random field structure.

Turns exported per-edge attention coefficients into a symmetric weighted
adjacency W, its unnormalized graph Laplacian C = D - W, and the resulting
two-parameter precision matrix Q(tau, beta) = tau * (I - beta / lam_max * C).
The hyperparameters live on unconstrained scales (log precision, logit
dependence). Q depends on C only through C / lam_max, so C carries no scale
factor of its own. A hybrid model has one field, over its fitted records and
then those it predicts at: the fit's prior is the leading block of Q^{-1}.

Every field is built with the full eigendecomposition of C, which the fit
needs for Q^{-1} anyway; lam_max is its top eigenvalue. This module is the
only one that knows the spectrum of Q and its degenerate tau * I form, which
a field with no links at all takes: its C is 0, so lam_max is 0. The
eigendecomposition and Q^{-1} come from ``numkit``, in the fit's one BLAS
pool (see ``numkit``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gatv2 import AttentionExport
from .numkit import eigh, matmul, syrk


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
    """Symmetrized attention weights and their Laplacian structure."""

    n_nodes: int
    w_sym: np.ndarray    # (n, n) symmetric, zero diagonal
    degrees: np.ndarray  # (n,) row sums of w_sym
    c: np.ndarray        # Laplacian D - W, with D = diag(degrees)
    lam_max: float
    c_eigh: tuple[np.ndarray, np.ndarray]  # eigh(c)

    @property
    def degenerate(self) -> bool:
        """No positive spectrum to scale by: Q falls back to tau * I."""
        return self.lam_max <= 0.0


def symmetrize(export: AttentionExport, n_nodes: int) -> np.ndarray:
    """Average attention in the two directions; absent edges count as 0.

    Self-attention entries are dropped: they cancel out of the Laplacian,
    and dropping them keeps ``degrees`` the sums of links to other nodes.
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


def _field(w_sym: np.ndarray) -> AttentionField:
    """Degrees -> C = D - W -> eigh(C) -> lam_max, the top eigenvalue.

    A W with no link at all gives C = 0, whose eigenvalues ``eigh``
    returns as exact zeros: lam_max is 0, the field is degenerate and
    Q = tau * I.
    """
    c, degrees = laplacian(w_sym)
    c_eigh = eigh(c)
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
    """Field induced on a node subset (degrees, C and lam_max recomputed).

    No command reaches this. It stays only because the benchmark's tracer
    (``perfbench/spans.py``) looks it up by name; it goes with ROADMAP item 5.
    """
    return _field(field.w_sym[np.ix_(keep, keep)])


def precision(field: AttentionField, hyper: AttnHyper) -> np.ndarray:
    """Q = tau * (I - beta / lam_max * C); tau * I when the field is degenerate.

    Positive definite for every beta in (0, 1): the spectrum of Q is
    tau * (1 - beta * lam_i / lam_max) >= tau * (1 - beta) > 0. No command
    calls this: it is the reference Q the tests check :func:`covariance`
    against, and the benchmark's tracer (``perfbench/spans.py``) names it.
    """
    tau, beta = hyper.tau, hyper.beta
    eye = np.eye(field.n_nodes)
    if field.degenerate:
        return tau * eye
    return tau * (eye - (beta / field.lam_max) * field.c)


def _scaled_vectors(field: AttentionField, hyper: AttnHyper, nodes: slice) -> np.ndarray:
    """Rows ``nodes`` of V diag(q)^{-1/2}, with V and the q_i = tau (1 - beta
    lam_i / lam_max) from the eigendecomposition of C: Q^{-1} between two
    node sets is the product of their rows. The field is not degenerate."""
    lam, vec = field.c_eigh
    q_eigs = hyper.tau * (1.0 - hyper.beta * lam / field.lam_max)
    return vec[nodes] * np.sqrt(1.0 / q_eigs)


def covariance(field: AttentionField, hyper: AttnHyper, n: int | None = None) -> np.ndarray:
    """Leading n x n block of Q(tau, beta)^{-1} (all of it when n is None),
    the field's marginal over its first n nodes, V[:n] diag(1/q) V[:n]' from
    the eigendecomposition of C; I / tau when the field is degenerate."""
    n = field.n_nodes if n is None else n
    if n > field.n_nodes:
        raise ValueError(f"attention field has {field.n_nodes} nodes, fewer than the {n} records")
    if field.degenerate:
        return (1.0 / hyper.tau) * np.eye(n)
    return syrk(_scaled_vectors(field, hyper, slice(n)))


def covariance_after(field: AttentionField, hyper: AttnHyper, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of Q(tau, beta)^{-1} past the first n nodes: between those
    n and the rest, and over the rest, from the same eigendecomposition as
    :func:`covariance`; 0 and I / tau when the field is degenerate."""
    m = field.n_nodes - n
    if field.degenerate:
        return np.zeros((n, m)), (1.0 / hyper.tau) * np.eye(m)
    rest = _scaled_vectors(field, hyper, slice(n, None))
    return matmul(_scaled_vectors(field, hyper, slice(n)), rest.T), syrk(rest)
