"""Exceptions shared across the package.

Messages number rays, elements and cones from 1, as the JSON
interchange does; structured fields such as ``FanViolation.indices``
keep 0-based positions.
"""


class GalefanError(Exception):
    """Base class for errors raised by this package."""


class DegenerateConfigurationError(GalefanError):
    """Vector configuration does not span its ambient rational space."""


class InvalidFanError(GalefanError):
    """A fan failed validation where a valid fan is required."""

    def __init__(self, report):
        self.report = report
        super().__init__("invalid fan: " + "; ".join(v.message for v in report.violations))


class InvalidRootError(GalefanError):
    """A covector is not a Demazure root of the given fan."""


class NotAdmissibleError(GalefanError):
    """Element collection is not admissible where admissibility is required."""


class NotGeneratingError(GalefanError):
    """Element collection does not generate its group."""


class CapExceededError(GalefanError):
    """A configured enumeration or search cap was exceeded; result undecided."""


class InternalError(GalefanError):
    """A computed certificate failed its exact re-check: a bug, not bad input."""
