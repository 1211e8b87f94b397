"""Exception hierarchy shared across the package, and read_text, which
words a text file that is not UTF-8 as one of them.

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


def read_text(path, error=DataError):
    """The text of a UTF-8 file. A file that is not UTF-8 raises error,
    which names the file and the byte offset of its first bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: byte {raw[exc.start]:#04x} at offset "
                    f"{exc.start} ({exc.reason})") from None
