"""Exception hierarchy shared by all modules.

Guard errors (numerical conditions that make a quantity ill-defined) derive
from :class:`NumericalGuardError` so the CLI can map them to a common exit
code. Configuration and argument problems use plain ``ValueError`` semantics
via :class:`ConfigError`.
"""


class NumericalGuardError(Exception):
    """A numerically ill-conditioned point was hit; result undefined."""


class GaplessPoint(NumericalGuardError):
    """Quasienergy gap below the floor; band labels are meaningless."""


class StepCountTooSmall(NumericalGuardError):
    """Integrator step count below the minimum required for the oracle."""


class DegenerateDelta1(NumericalGuardError):
    """delta1 = 0 with omega = delta2: the whole band is critical."""


class UndefinedTau(NumericalGuardError):
    """Fisher-zero real part diverges (h_xy = 0 or E = h_z)."""


class PhaseUndefined(NumericalGuardError):
    """Return amplitude too small for its phase to be meaningful."""


class GridTooCoarse(NumericalGuardError):
    """Adjacent phase differences saturate the wrapping ambiguity band."""


class NearCriticalTime(NumericalGuardError):
    """Winding evaluation requested inside the critical-time guard window."""


class TimeUnresolved(NumericalGuardError):
    """Doubles near t are spaced wider than the critical-time guard window."""


class WindingNotQuantized(NumericalGuardError):
    """Raw winding number is farther than the tolerance from any integer."""


class WindingMismatch(NumericalGuardError):
    """Numerical winding rounds to another integer than the closed form."""


class InvalidSize(ValueError):
    """Chain size outside the supported range [2, model.MAX_SITES]."""


class ConfigError(ValueError):
    """Malformed run configuration (file or flags)."""
