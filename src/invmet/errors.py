"""Exception types shared across the package."""


class InvmetError(Exception):
    """Base class for all invmet-specific errors."""


class DimensionMismatchError(InvmetError, ValueError):
    pass


class DegenerateInputError(InvmetError, ValueError):
    """Inputs violate a rank / independence / symmetry precondition."""


class NotInteriorError(InvmetError, ValueError):
    """A base point fails strict domain membership."""


class SingularMapError(InvmetError, ValueError):
    """A linear or holomorphic map is not invertible to working precision."""


class UnsupportedKindError(InvmetError, TypeError):
    """Operation not defined for this domain or body representation."""


class EvaluationError(InvmetError, RuntimeError):
    """A user-supplied functional returned a non-finite value."""


class UnboundedValueError(InvmetError, ValueError):
    """A quantity that must stay finite became unbounded."""


class ScheduleError(InvmetError, ValueError):
    """An automorphism or sweep schedule left the domain or lost monotonicity."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ProximityError(InvmetError, ValueError):
    """Corner-pipeline base point too far from the designated corner."""


class NormalityError(InvmetError, ValueError):
    """Corner faces are degenerate: gradients not linearly independent over C."""


class LemmaViolationError(InvmetError, RuntimeError):
    """Brute-force containment check failed; carries a witness point."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CertificateError(InvmetError, RuntimeError):
    """A squeezing certificate failed its re-verification pass."""


class SpecLoadError(InvmetError, ValueError):
    """Domain specification file is malformed; carries a location string."""

    def __init__(self, message, location=""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)
