"""Exceptions shared across the package.

Messages number rays, elements and cones from 1, as the JSON
interchange does; structured fields such as ``FanViolation.indices``
keep 0-based positions.
"""

SEARCH_CAP = 500_000


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


def check_search(search: str, formula: str, count: int, exact: bool = True) -> None:
    """Refuse a search of more than ``SEARCH_CAP`` candidates before it starts.

    The G-set subfan search calls it at each step instead.  ``search``
    gets ``formula = count`` for its ``%s``, or the formula alone when the
    count is a lower bound (``exact=False``) or too long to print.
    """
    if count > SEARCH_CAP:
        shown = exact and count.bit_length() <= 14_000  # under Python's 4,300-digit limit
        size = "%s = %d" % (formula, count) if shown else formula
        raise CapExceededError(f"{search % size} exceeds the cap of {SEARCH_CAP}")


class InternalError(GalefanError):
    """A computed certificate failed its exact re-check: a bug, not bad input."""
