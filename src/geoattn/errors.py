"""Exception types shared across the package."""


class GeoattnError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(GeoattnError):
    """A matrix that must be positive definite is not.

    ``row`` is the zero-based index of the first non-positive pivot found
    during factorization.
    """

    def __init__(self, row: int, message: str | None = None):
        self.row = int(row)
        super().__init__(message or f"matrix not positive definite (pivot at row {row})")


class NonConvergence(GeoattnError):
    """An iterative routine hit its iteration cap before reaching tolerance."""


class DomainError(GeoattnError):
    """An argument lies outside the mathematical domain of the function."""


class NonFiniteActivation(GeoattnError):
    """A non-finite value appeared in a network forward pass.

    ``epoch`` is set when the failure occurred inside a training loop.
    """

    def __init__(self, message: str = "non-finite activation", epoch: int | None = None):
        self.epoch = epoch
        if epoch is not None:
            message = f"{message} (epoch {epoch})"
        super().__init__(message)


class NewtonDivergence(GeoattnError):
    """The inner Newton objective became non-finite (an oscillating fit stops unconverged)."""


class AllRestartsFailed(GeoattnError):
    """Every hyperparameter-optimization restart failed to produce a finite objective."""


class LengthMismatch(GeoattnError):
    """Paired metric inputs have different lengths."""


class ZeroVariance(GeoattnError):
    """Correlation is undefined because one input has zero variance."""


class TooFewPoints(GeoattnError):
    """Fewer distinct points than requested clusters."""
