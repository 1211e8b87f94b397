"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
NumericError -> 3.
"""


class UsageError(Exception):
    """Caller misuse: bad arguments, bad call order, invalid flags."""


class ShapeError(UsageError):
    """Operand shapes do not conform to an operation."""


class ConfigError(UsageError):
    """Invalid configuration value."""


class DataError(Exception):
    """Malformed input data or file format."""


class NumericError(Exception):
    """Non-finite values encountered where finite numbers are required."""
