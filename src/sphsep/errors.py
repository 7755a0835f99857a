"""Exception types shared across the package."""


class SphSepError(Exception):
    """Base class for all errors raised by sphsep."""


class ZeroVector(SphSepError):
    """A vector with (near-)zero norm cannot be normalized."""


class OutsideOpenHemisphere(SphSepError):
    """A point is not in the open hemisphere of the frame base."""


class NotHemispherical(SphSepError):
    """No pole has strictly positive dot product with every generator."""


class DimensionMismatch(SphSepError):
    """Malformed input: inconsistent vector lengths or bounds."""


class IterationLimit(SphSepError):
    """Pivot count exceeded the configured cap."""


class NumericallyAmbiguous(SphSepError):
    """Separation margin fell inside the tolerance band; no honest verdict."""


class EpsilonSearchFailed(SphSepError):
    """No fattening radius kept the bodies disjoint; hulls touch within tolerance."""


class ContractionStalled(SphSepError):
    """The proof path's offset contraction gave up: the offset magnitude
    stalled; max_iter rounds or a zero offset left the normal outside the
    witness wedge; a separation found no positive slack; or its normal was
    zero."""


class GenerationFailed(SphSepError):
    """Random instance generation exhausted its retry budget."""
