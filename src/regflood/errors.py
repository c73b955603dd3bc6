"""Exception hierarchy shared across the package, and its integer-count check.

The CLI maps these classes onto exit codes, so raising the right class
matters more than the message wording.
"""


class RegfloodError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(RegfloodError, ValueError):
    """A parameter violates its constraints (e.g. non-positive scale)."""


class DomainError(RegfloodError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DataError(RegfloodError, ValueError):
    """Input data are malformed, degenerate or insufficient."""


class NumericError(RegfloodError, RuntimeError):
    """A numerical routine failed to converge or produced an invalid value."""


class HomogeneityError(RegfloodError):
    """The region failed an enforced homogeneity check."""


def _integer(value, name: str, error=ParameterError, text: bool = False) -> int:
    """``value`` as an int: an integral number (2.0 reads as 2), or with ``text``
    a string that ``int()`` reads (a scenario file's "12").  A fractional, NaN
    or infinite number, a bool or any other string raises ``error``."""
    if not isinstance(value, bool) and (text or not isinstance(value, str)):
        try:
            as_int = int(value)
            if isinstance(value, str) or as_int == value:
                return as_int
        except (TypeError, ValueError, OverflowError):
            pass
    raise error(f"{name} must be an integer, got {value!r}")
