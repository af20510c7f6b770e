"""Deterministic numerical kernel: seeded RNG streams, dense linear algebra,
and sampling primitives.

Everything here is dense and double precision. The largest problems this
package produces stay near 3,000 points, where O(n^3) factorizations are
cheap, so no sparse or iterative machinery is used; power iteration is kept
for the benchmark's tracer only.

One BLAS pool per fit. This module is the only way the fitting modules
(``geostat``, ``attnfield``) reach dense BLAS and LAPACK: every product,
factorization, triangular solve and eigendecomposition with a fitted-size
operand goes through :func:`matmul`, :func:`cholesky`, :func:`solve_chol`,
:func:`solve_triangular`, :func:`solve_right_lt`, :func:`syrk` or
:func:`eigh`, which all call scipy's wrappers. numpy and scipy wheels each
bundle their own OpenBLAS, and each copy keeps its own worker threads,
which spin for a while after a call. A Newton loop that alternated numpy's
``Sigma_u @ x`` with scipy's ``dpotrf`` had the two pools fight over two
cores: on a 2-core box ``dpotrf`` at n = 1,000 took 9.8 ms alone and
19.6 ms right after a numpy product. So a fit or ``cv`` process makes all
of its n-sized dense products in scipy's pool. What stays on numpy's pool
switches pools once per stage, not once per Newton step: the GATv2 network
(``gatv2``), whose float32 GEMMs run on numpy's pool, vector-vector dots,
which OpenBLAS runs on one thread at these sizes, and the simulator
(``mvn_sample``).

Reruns are byte-identical for a fixed BLAS build and thread count. The
two OpenBLAS builds do not give equal bits for every shape, and a thread
count changes how some kernels split their sums: 20 epochs of GATv2
training give different parameters under ``OPENBLAS_NUM_THREADS=1`` than
under the default.

scipy is imported inside the routines that call its LAPACK and BLAS
wrappers, so importing this module loads numpy alone. ``mvn_sample``, the
simulator's one factorization, uses numpy's own LAPACK, so ``geoattn
simulate`` never loads scipy; ``fit`` and ``cv`` do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, NotPositiveDefinite

DEFAULT_KERNEL_JITTER = 1e-8

POWER_ITER_TOL = 1e-10
POWER_ITER_MAX = 10_000


class RngStream:
    """A named, independent random stream.

    Streams are backed by the counter-based Philox generator keyed on
    ``(seed, stream_id)``: identical pairs replay the identical sequence,
    distinct ``stream_id`` values give statistically independent sequences
    with no ordering constraints between them. Instances are single-owner;
    never share one across concurrent tasks.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise ValueError("seed and stream_id must be non-negative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def standard_normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        """Uniform integers on the inclusive range [low, high]."""
        return self._gen.integers(low, high, size=size, endpoint=True)

    def binomial(self, n, p, size=None) -> np.ndarray:
        return self._gen.binomial(n, p, size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _jittered(a: np.ndarray, jitter: float, overwrite_a: bool = False) -> np.ndarray:
    """Square ``a`` + jitter * I, Fortran-ordered: ``a`` itself if ``overwrite_a``
    is set and ``a`` is Fortran-ordered, else a copy."""
    a = _as_square(a)
    if jitter < 0:
        raise ValueError("jitter must be >= 0")
    if not (overwrite_a and a.flags.f_contiguous):
        a = np.array(a, order="F")
    if jitter:
        a[np.diag_indices_from(a)] += jitter
    return a


def cholesky(a: np.ndarray, jitter: float = 0.0, overwrite_a: bool = False) -> np.ndarray:
    """Lower-triangular L with L @ L.T == a + jitter * I.

    Raises :class:`NotPositiveDefinite` (carrying the offending row) if a
    pivot is non-positive after the jitter is applied. ``a`` must be
    symmetric as stored; only its lower triangle is read. ``a`` is copied
    once into the Fortran-ordered factor, unless ``overwrite_a`` is set and
    ``a`` is already Fortran-ordered: then it is factored in place and the
    returned factor is ``a`` itself.
    """
    from scipy.linalg import lapack

    a = _jittered(a, jitter, overwrite_a)
    c, info = lapack.dpotrf(a, lower=1, clean=1, overwrite_a=True)
    if info > 0:
        raise NotPositiveDefinite(info - 1)
    if info < 0:  # pragma: no cover - argument errors are caught above
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


def solve_chol(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve using a pre-computed lower Cholesky factor."""
    from scipy.linalg import lapack

    b = np.asarray(b, dtype=float)
    vector_rhs = b.ndim == 1
    x, info = lapack.dpotrs(factor, b.reshape(b.shape[0], -1), lower=1)
    if info != 0:  # pragma: no cover
        raise ValueError(f"dpotrs failed with info={info}")
    return x[:, 0] if vector_rhs else x


def solve_triangular(a: np.ndarray, b: np.ndarray, lower: bool = False) -> np.ndarray:
    """a^{-1} b for triangular ``a`` by LAPACK dtrtrs (scipy.linalg.solve_triangular)."""
    from scipy import linalg

    return linalg.solve_triangular(a, b, lower=lower)


def solve_right_lt(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b L^{-T} for the lower-triangular ``factor`` L, by dtrsm from the right.

    The solve overwrites ``b`` when it is Fortran-ordered; otherwise it works
    on a copy.
    """
    from scipy.linalg import blas

    return blas.dtrsm(1.0, factor, b, side=1, lower=1, trans_a=1, overwrite_b=1)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b by scipy's BLAS: dgemv for a 1-D ``b``, dgemm for a 2-D one.

    Each operand goes to BLAS as it is laid out: a C-ordered one as its
    Fortran-ordered transpose with the transpose flag flipped, so neither a
    C- nor a Fortran-ordered operand is copied (a non-contiguous one is).
    A matrix product is formed as (b' a')' in column-major order, as numpy's
    row-major call is, so it comes back C-ordered, like numpy's.
    """
    from scipy.linalg import blas

    if b.ndim == 1:
        if a.flags.f_contiguous:
            return blas.dgemv(1.0, a, b)
        return blas.dgemv(1.0, a.T, b, trans=1)
    x, trans_x = (b.T, 0) if b.flags.c_contiguous else (b, 1)
    y, trans_y = (a.T, 0) if a.flags.c_contiguous else (a, 1)
    return blas.dgemm(1.0, x, y, trans_a=trans_x, trans_b=trans_y).T


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and the eigenvectors of symmetric ``a``.

    LAPACK dsyevd on the lower triangle, the routine ``np.linalg.eigh``
    calls; the eigenvectors come back Fortran-ordered.
    """
    from scipy import linalg

    return linalg.eigh(a, driver="evd")


_MIRROR_BLOCK = 256


def _mirror_upper(c: np.ndarray) -> np.ndarray:
    """Copy the upper triangle of square ``c`` onto its lower one, in place.

    Works in column blocks so that no n x n temporary is made.
    """
    n = c.shape[0]
    for i0 in range(0, n, _MIRROR_BLOCK):
        i1 = min(i0 + _MIRROR_BLOCK, n)
        c[i1:, i0:i1] = c[i0:i1, i1:].T
        diag = c[i0:i1, i0:i1]
        diag[...] = np.triu(diag) + np.triu(diag, 1).T
    return c


def syrk(a: np.ndarray, alpha: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """alpha a @ a.T via dsyrk, symmetrized from the computed triangle.

    With ``out`` (symmetric) the sum out + alpha a @ a.T is returned. It is
    written into ``out`` itself when ``out`` is C-ordered, so no n x n
    temporary is made.
    """
    from scipy.linalg import blas

    if out is None:
        c = blas.dsyrk(alpha, a, lower=0)
    else:
        # out.T of a C-ordered out is Fortran-ordered, so dsyrk writes its
        # lower triangle, the upper triangle of out, in place
        c = blas.dsyrk(alpha, a, beta=1.0, c=out.T, lower=1, overwrite_c=1).T
    return _mirror_upper(c)


@dataclass(frozen=True)
class PowerIterationResult:
    lam_max: float
    iterations: int
    degenerate: bool = False


# Start vector used when the all-ones start lies exactly in the null space
# (true for every graph Laplacian). Fixed Philox key keeps it reproducible.
_FALLBACK_KEY = (0x9E3779B97F4A7C15, 0xD1B54A32D192ED03)


def power_iteration_max_eig(
    c: np.ndarray,
    tol: float = POWER_ITER_TOL,
    max_iter: int = POWER_ITER_MAX,
) -> PowerIterationResult:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    No command or pipeline path calls this; attention fields take lam_max
    from their eigendecomposition. It stays only because the benchmark's
    tracer (``perfbench/spans.py``) looks it up by name.

    The start vector is the normalized all-ones vector, which keeps runs
    reproducible. If that vector is annihilated by ``c`` (it is an exact
    null vector of any Laplacian), iteration restarts from a fixed seeded
    vector instead. An exactly-zero matrix returns ``lam_max=0`` with the
    ``degenerate`` flag set rather than raising.
    """
    c = _as_square(c)
    n = c.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    if not np.any(c):
        return PowerIterationResult(0.0, 0, degenerate=True)

    v = np.ones(n) / np.sqrt(n)
    lam = 0.0
    diff_prev = np.inf
    n_diffs = 0
    used_fallback = False
    # Scale for detecting an effectively-annihilated iterate.
    floor = np.abs(c).max() * n * 1e-14
    for it in range(1, max_iter + 1):
        w = c @ v
        norm = np.linalg.norm(w)
        if norm <= floor:
            if used_fallback:
                # PSD matrix annihilates the fallback too: top eigenvalue
                # is indistinguishable from zero at working precision.
                return PowerIterationResult(0.0, it, degenerate=True)
            gen = np.random.Generator(
                np.random.Philox(key=np.array(_FALLBACK_KEY, dtype=np.uint64))
            )
            v = gen.standard_normal(n)
            v /= np.linalg.norm(v)
            used_fallback = True
            continue
        v = w / norm
        lam_new = float(v @ (c @ v))
        diff = abs(lam_new - lam)
        # Rayleigh-quotient increments shrink geometrically; extrapolating
        # the tail bounds the true remaining error, which a raw
        # successive-difference test underestimates for small spectral gaps.
        # The 0.05 safety factor absorbs noise in the ratio estimate.
        if diff == 0.0:
            return PowerIterationResult(lam_new, it)
        n_diffs += 1
        if n_diffs > 1 and diff_prev > 0:
            ratio = min(diff / diff_prev, 0.9999)
            remaining = diff * ratio / (1.0 - ratio)
            if remaining <= 0.05 * tol * max(abs(lam_new), 1e-300):
                return PowerIterationResult(lam_new, it)
        lam, diff_prev = lam_new, diff
    raise NonConvergence(
        f"power iteration did not reach tol={tol} within {max_iter} iterations"
    )


def mvn_sample(
    mean: np.ndarray,
    cov: np.ndarray,
    rng: RngStream,
    jitter: float = 1e-10,
) -> np.ndarray:
    """One draw from N(mean, cov + jitter * I) as mean + L @ z.

    Deterministic given the rng state: consumes exactly ``len(mean)``
    standard normals. The factor comes from numpy's LAPACK, which reports
    no pivot; if it fails, :func:`cholesky` refactors to raise
    :class:`NotPositiveDefinite` with the offending row.
    """
    mean = np.asarray(mean, dtype=float)
    a = _jittered(cov, jitter)
    try:
        # column-major, as cholesky returns it: factor @ z then runs the same
        # BLAS kernel, so equal factors give bit-equal draws
        factor = np.asfortranarray(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        factor = cholesky(a)
    z = rng.standard_normal(mean.shape[0])
    return mean + factor @ z
