"""Synthetic spatio-temporal binomial prevalence data.

Generates datasets on the unit square over discrete time points: covariates
split into nonlinear-spatial / temporal / noise groups, a latent Gaussian
field with a non-separable space-time exponential covariance, and binomial
sampling of observed case counts. Everything is seeded and replayable.

This module, and ``geoattn simulate`` with it, runs on numpy alone: the
latent draw factors its covariance with numpy's LAPACK
(``numkit.mvn_sample``), and scipy is never imported.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError
from .numkit import DEFAULT_KERNEL_JITTER, RngStream, mvn_sample

FORMAT_VERSION = 1

# Stream ids carved out of the dataset seed; one per stochastic sub-task so
# per-task draws stay independent of each other's consumption.
_STREAM_COUNTS = 1
_STREAM_COORDS = 2
_STREAM_BETA = 3
_STREAM_COVARIATES = 4
_STREAM_LATENT = 5
_STREAM_TRIALS = 6
_STREAM_BINOMIAL = 7


@dataclass(frozen=True)
class SimConfig:
    """Full parameter set of the simulation design."""

    n_times: int = 10
    locs_per_time: tuple[int, int] = (100, 300)
    n_covariates: int = 10
    beta0: float = -1.75
    delta: float = 0.8
    phi_s: float = 0.25
    phi_t: float = 0.25
    gamma: float = 0.75
    trials_range: tuple[int, int] = (30, 80)
    seed: int = 0
    beta: tuple[float, ...] | None = None  # fixed coefficients; None = draw U(-1, 1)

    def __post_init__(self):
        if self.n_times < 1:
            raise ValueError("n_times must be >= 1")
        lo, hi = self.locs_per_time
        if not (1 <= lo <= hi):
            raise ValueError("locs_per_time must be a non-empty positive range")
        if self.n_times * lo < 2:
            # one record has no sample std, so its covariates would be NaN
            raise ValueError("n_times * locs_per_time[0] must be >= 2 (the fewest records drawn)")
        tlo, thi = self.trials_range
        if not (1 <= tlo <= thi):
            raise ValueError("trials_range must be a non-empty positive range")
        if self.phi_s <= 0 or self.phi_t <= 0:
            raise ValueError("phi_s and phi_t must be > 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.n_covariates < 3:
            raise ValueError("need at least 3 covariates (one per group)")
        if self.beta is not None and len(self.beta) != self.n_covariates:
            raise ValueError("beta must have one entry per covariate")


@dataclass
class Dataset:
    """Observation records plus (optionally) the simulation truth."""

    ids: np.ndarray          # (n,) int
    x: np.ndarray            # (n,) float in [0, 1]
    y: np.ndarray            # (n,) float in [0, 1]
    t: np.ndarray            # (n,) int time index, 1-based
    n_tested: np.ndarray     # (n,) int >= 1
    n_pos: np.ndarray        # (n,) int, 0 <= n_pos <= n_tested
    covariates: np.ndarray   # (n, p) float, standardized columns
    true_p: np.ndarray | None = None
    true_s: np.ndarray | None = None
    beta: np.ndarray | None = field(default=None, repr=False)  # drawn coefficients

    def __post_init__(self):
        n = len(self.ids)
        for name in ("x", "y", "t", "n_tested", "n_pos"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name!r} length mismatch")
        if self.covariates.shape[0] != n:
            raise ValueError("covariate row count mismatch")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("coordinates x and y must be finite")
        if np.any(self.n_tested < 1):
            raise ValueError("need n_tested >= 1")
        if np.any(self.n_pos < 0) or np.any(self.n_pos > self.n_tested):
            raise ValueError("need 0 <= n_pos <= n_tested")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_cov(self) -> int:
        return self.covariates.shape[1]

    @property
    def has_truth(self) -> bool:
        return self.true_p is not None and self.true_s is not None

    @property
    def empirical_prevalence(self) -> np.ndarray:
        return self.n_pos / self.n_tested

    def subset(self, index: np.ndarray) -> "Dataset":
        """Row subset (keeps ids; truth columns follow along)."""
        take = lambda a: None if a is None else a[index]
        return Dataset(
            ids=self.ids[index],
            x=self.x[index],
            y=self.y[index],
            t=self.t[index],
            n_tested=self.n_tested[index],
            n_pos=self.n_pos[index],
            covariates=self.covariates[index],
            true_p=take(self.true_p),
            true_s=take(self.true_s),
            beta=self.beta,
        )


def gneiting_cov(d_s, d_t, phi_s: float, phi_t: float, gamma: float):
    """Non-separable space-time exponential correlation.

    exp(-(d_s/phi_s + d_t/phi_t + gamma * d_s * d_t)); gamma = 0 reduces to
    the separable product of spatial and temporal exponentials. Accepts
    scalars or broadcastable arrays; distances must be non-negative.
    """
    d_s = np.asarray(d_s, dtype=float)
    d_t = np.asarray(d_t, dtype=float)
    if np.any(d_s < 0) or np.any(d_t < 0):
        raise DomainError("distances must be non-negative")
    if phi_s <= 0 or phi_t <= 0:
        raise DomainError("phi_s and phi_t must be positive")
    if gamma < 0:
        raise DomainError("gamma must be non-negative")
    # built in place: one result and one scratch array, whatever the size
    d_s, d_t = np.broadcast_arrays(d_s, d_t)
    out = np.divide(d_s, phi_s, out=np.empty(d_s.shape))
    scratch = np.divide(d_t, phi_t, out=np.empty(d_s.shape))
    out += scratch
    if gamma:
        np.multiply(gamma, d_s, out=scratch)
        scratch *= d_t
        out += scratch
    np.exp(np.negative(out, out=out), out=out)
    return out if out.ndim else float(out)


def pair_distances(xa, ya, ta, xb=None, yb=None, tb=None):
    """Spatial and temporal lags (d_s, d_t) between two record sets.

    Arrays are (len(a), len(b)); with no second set, between set a and
    itself.
    """
    if xb is None:
        xb, yb, tb = xa, ya, ta
    # sqrt(dx*dx + dy*dy) and |ta - tb|, the same operations in the same
    # order, built in two n x n buffers with no other temporaries
    d_s = xa[:, None] - xb[None, :]
    d_s *= d_s
    dy = ya[:, None] - yb[None, :]
    dy *= dy
    d_s += dy
    np.sqrt(d_s, out=d_s)
    d_t = np.subtract(ta[:, None].astype(float), tb[None, :], out=dy)
    np.abs(d_t, out=d_t)
    return d_s, d_t


def _standardize(col: np.ndarray, noise_rng: RngStream) -> np.ndarray:
    """Column to mean 0, sample std 1; constant columns fall back to noise.

    The fallback keeps the standardization contract meaningful on
    degenerate designs (e.g. a single time point makes temporal columns
    constant).
    """
    sd = col.std(ddof=1) if len(col) > 1 else 0.0
    if sd < 1e-15:
        col = noise_rng.standard_normal(len(col))
        sd = col.std(ddof=1)
    return (col - col.mean()) / sd


def covariate_split(p: int) -> tuple[int, int, int]:
    """(n_spatial, n_temporal, n_noise) column counts for p covariates."""
    n_spatial = min(4, p - 2)
    n_temporal = min(2, p - n_spatial - 1)
    return n_spatial, n_temporal, p - n_spatial - n_temporal


def build_covariates(coords: np.ndarray, p: int, rng: RngStream) -> np.ndarray:
    """Standardized covariate matrix over records located at ``coords``.

    ``coords`` is (n, 3) columns (x, y, t). Columns split into three groups:
    nonlinear spatial functions of (x, y), temporal functions of t, and
    iid standard-normal noise; see :func:`covariate_split` for the counts.
    Every output column has mean 0 and sample std 1.
    """
    coords = np.asarray(coords, dtype=float)
    if p < 3:
        raise ValueError("need p >= 3")
    x, y, t = coords[:, 0], coords[:, 1], coords[:, 2]
    t_max = max(t.max(), 1.0)
    spatial = [
        np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
        (x - 0.5) ** 2,
        x * y,
        np.exp(-3.0 * ((x - 0.3) ** 2 + (y - 0.7) ** 2)),
    ]
    temporal = [t / t_max, np.sin(2 * np.pi * t / t_max)]
    n_spatial, n_temporal, n_noise = covariate_split(p)
    cols = spatial[:n_spatial] + temporal[:n_temporal]
    for _ in range(n_noise):
        cols.append(rng.standard_normal(len(x)))
    return np.column_stack([_standardize(c, rng) for c in cols])


def logistic(eta):
    """Numerically-stable inverse logit."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out if out.ndim else float(out)


def simulate(config: SimConfig) -> Dataset:
    """Draw one dataset from the simulation design.

    Locations are sampled fresh at each time point (uniform on the unit
    square), the latent field is one joint draw over all space-time points,
    and case counts are binomial around the logistic prevalence.
    """
    counts_rng = RngStream(config.seed, _STREAM_COUNTS)
    coords_rng = RngStream(config.seed, _STREAM_COORDS)
    beta_rng = RngStream(config.seed, _STREAM_BETA)
    cov_rng = RngStream(config.seed, _STREAM_COVARIATES)
    latent_rng = RngStream(config.seed, _STREAM_LATENT)
    trials_rng = RngStream(config.seed, _STREAM_TRIALS)
    binom_rng = RngStream(config.seed, _STREAM_BINOMIAL)

    lo, hi = config.locs_per_time
    counts = counts_rng.integers(lo, hi, size=config.n_times)
    n = int(counts.sum())

    x = coords_rng.uniform(0.0, 1.0, size=n)
    y = coords_rng.uniform(0.0, 1.0, size=n)
    t = np.repeat(np.arange(1, config.n_times + 1), counts)

    p = config.n_covariates
    if config.beta is None:
        beta = beta_rng.uniform(-1.0, 1.0, size=p)
    else:
        beta = np.asarray(config.beta, dtype=float)

    covariates = build_covariates(np.column_stack([x, y, t]), p, cov_rng)

    d_s, d_t = pair_distances(x, y, t)
    sigma = gneiting_cov(d_s, d_t, config.phi_s, config.phi_t, config.gamma)
    s = mvn_sample(np.zeros(n), sigma, latent_rng, jitter=DEFAULT_KERNEL_JITTER)

    eta = config.beta0 + covariates @ beta + config.delta * s
    true_p = logistic(eta)

    tlo, thi = config.trials_range
    n_tested = trials_rng.integers(tlo, thi, size=n)
    n_pos = binom_rng.binomial(n_tested, true_p)

    return Dataset(
        ids=np.arange(n),
        x=x,
        y=y,
        t=t,
        n_tested=n_tested,
        n_pos=n_pos.astype(int),
        covariates=covariates,
        true_p=true_p,
        true_s=s,
        beta=beta,
    )


# ---------------------------------------------------------------------------
# CSV + manifest round trip
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    """Shortest-roundtrip float formatting; keeps reruns byte-identical."""
    return repr(float(value))


def dataset_header(n_cov: int, with_truth: bool) -> list[str]:
    cols = ["id", "x", "y", "t", "n_tested", "n_pos"]
    cols += [f"cov_{j + 1}" for j in range(n_cov)]
    if with_truth:
        cols += ["true_p", "true_S"]
    return cols


def write_dataset_csv(data: Dataset, path: str | Path, include_truth: bool = True) -> None:
    with_truth = include_truth and data.has_truth
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset_header(data.n_cov, with_truth))
        for i in range(len(data)):
            row = [
                int(data.ids[i]),
                _fmt(data.x[i]),
                _fmt(data.y[i]),
                int(data.t[i]),
                int(data.n_tested[i]),
                int(data.n_pos[i]),
            ]
            row += [_fmt(v) for v in data.covariates[i]]
            if with_truth:
                row += [_fmt(data.true_p[i]), _fmt(data.true_s[i])]
            writer.writerow(row)


def check_unique_ids(ids: np.ndarray, what: str) -> None:
    """Raise ValueError naming the two data rows (1-based) that first share an id."""
    first_row: dict[int, int] = {}
    for row, record_id in enumerate(ids.tolist(), start=1):
        if first_row.setdefault(record_id, row) != row:
            raise ValueError(f"{what} rows {first_row[record_id]} and {row} repeat id {record_id}")


def read_dataset_csv(path: str | Path) -> Dataset:
    """Dataset from a CSV written by :func:`write_dataset_csv`.

    Raises ValueError naming the data row (1-based, after the header) when a
    row has the wrong number of fields or a value that does not parse or is
    not finite, and both rows when two records share an id.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = [row for row in reader if row]
    if header is None:
        raise ValueError("dataset CSV is empty")
    if not rows:
        raise ValueError("dataset CSV has no records")
    cov_cols = [i for i, name in enumerate(header) if name.startswith("cov_")]
    idx = {name: i for i, name in enumerate(header)}
    required = ["id", "x", "y", "t", "n_tested", "n_pos"]
    missing = [c for c in required if c not in idx]
    if missing:
        raise ValueError(f"dataset CSV missing columns: {missing}")
    with_truth = "true_p" in idx and "true_S" in idx
    for k, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(
                f"dataset CSV row {k} has {len(row)} fields, the header has {len(header)}"
            )

    def col(name, dtype):
        values = []
        for k, row in enumerate(rows, start=1):
            try:
                values.append(dtype(row[idx[name]]))
            except ValueError as err:
                raise ValueError(f"dataset CSV row {k}, column {name!r}: {err}") from None
        values = np.array(values)
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise ValueError(f"dataset CSV row {bad[0] + 1}, column {name!r}: "
                             f"{rows[bad[0]][idx[name]]!r} is not finite")
        return values

    ids = col("id", int)
    check_unique_ids(ids, "dataset CSV")
    covariates = np.empty((len(rows), len(cov_cols)))
    for j, i in enumerate(cov_cols):
        covariates[:, j] = col(header[i], float)
    return Dataset(
        ids=ids,
        x=col("x", float),
        y=col("y", float),
        t=col("t", int),
        n_tested=col("n_tested", int),
        n_pos=col("n_pos", int),
        covariates=covariates,
        true_p=col("true_p", float) if with_truth else None,
        true_s=col("true_S", float) if with_truth else None,
    )


def simulation_manifest(config: SimConfig, data: Dataset) -> dict:
    """JSON-ready record of everything needed to replay the draw."""
    return {
        **asdict(config),
        "format_version": FORMAT_VERSION,
        "beta": [float(b) for b in data.beta] if data.beta is not None else None,
        "n_records": len(data),
    }
