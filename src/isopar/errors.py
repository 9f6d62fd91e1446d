"""Exception types shared across the package."""


class IsoparError(Exception):
    """Base class for failures with a geometric or numerical meaning."""


class ConditioningError(IsoparError):
    """Input too ill-conditioned to solve reliably; names the bad gap in its
    message."""


class IllPosedMomentsError(IsoparError):
    """Power sums not realizable by a real spectrum within tolerance."""


class NonFiniteError(IsoparError):
    """A computed quantity overflowed to inf or nan."""


class ConstructionError(IsoparError):
    """Requested object cannot be built from the given parameters."""


class FocalPointError(IsoparError):
    """Operation needs a regular level; the point sits in a focal band."""


class ProjectionError(IsoparError):
    """Level projection missed its target level or left the normal arc."""


class InvarianceError(IsoparError):
    """A claimed symmetry does not hold to tolerance."""


class UnsupportedPairError(IsoparError):
    """No closed form is known for this family / structure combination."""


class BlowUpError(IsoparError):
    """Requested time is inside a blow-up band of the flow."""


class IntegrationError(IsoparError):
    """Numeric integration overflowed (stepped into a blow-up)."""
