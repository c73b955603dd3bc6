"""Exception hierarchy shared across the package.

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
