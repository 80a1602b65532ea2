"""Exception types shared across the package."""


class QuditMapsError(ValueError):
    """Base class for all errors raised by this package."""


class DimensionMismatch(QuditMapsError):
    """Matrix or vector shapes are inconsistent with the declared dimension."""


class NonHermitianInput(QuditMapsError):
    """A Hermitian matrix was required but the input fails the Hermiticity check."""


class BadWeights(QuditMapsError):
    """Mixture weights are negative or do not sum to one."""


class UnknownName(QuditMapsError):
    """Unrecognized named map or region label."""


class NegativeRate(QuditMapsError):
    """Rate parameters outside the regime where relaxation rates are defined."""


class NotTraceless(QuditMapsError):
    """An operator that must be traceless has a nonzero trace."""


class NotUnital(QuditMapsError):
    """A unital map was required (the operator Schwarz inequality needs one)."""


class DegenerateRegion(QuditMapsError):
    """The requested region polygon collapses to fewer than three vertices."""


class NegativeTime(QuditMapsError):
    """Evolution times must be nonnegative."""


class SingularMap(QuditMapsError):
    """The dynamical map is (numerically) non-invertible at the requested time."""


class NoLimit(QuditMapsError):
    """The schedule has no convergent long-time map."""
