"""Exception types shared across the package."""


class IsoparError(Exception):
    """Base class for failures with a geometric or numerical meaning."""


class ConditioningError(IsoparError):
    """Input too ill-conditioned to solve reliably; carries the bad gap."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class IllPosedMomentsError(IsoparError):
    """Power sums not realizable by a real spectrum within tolerance."""

    def __init__(self, message, imag_residual=None):
        super().__init__(message)
        self.imag_residual = imag_residual


class NonFiniteError(IsoparError):
    """A computed quantity overflowed to inf or nan."""


class ConstructionError(IsoparError):
    """Requested object cannot be built from the given parameters."""


class FocalPointError(IsoparError):
    """Operation needs a regular level; the point sits in a focal band."""

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class ProjectionError(IsoparError):
    """Level projection missed its target level or left the normal arc."""


class InvarianceError(IsoparError):
    """A claimed symmetry does not hold to tolerance."""


class UnsupportedPairError(IsoparError):
    """No closed form is known for this family / structure combination."""


class BlowUpError(IsoparError):
    """Requested time is inside a blow-up band of the flow."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class IntegrationError(IsoparError):
    """Numeric integration overflowed (stepped into a blow-up)."""
