"""Exception hierarchy shared across the package, and the input readers,
which word a file that cannot be opened or decoded as one of them.

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


def open_input(path, what, error=DataError):
    """path opened for binary reading. A path that cannot be opened raises
    error, which names it as what and gives the OS's reason."""
    try:
        return open(path, "rb")
    except OSError as exc:
        state = "missing" if isinstance(exc, FileNotFoundError) else "cannot be opened"
        raise error(f"{path}: {what} {state} ({exc.strerror})") from None


def read_text(path, what, error=DataError):
    """The text of a UTF-8 file, opened by open_input. A file that is not
    UTF-8 raises error, which names it and the offset of its first bad byte."""
    with open_input(path, what, error) as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: byte {raw[exc.start]:#04x} at offset "
                    f"{exc.start} ({exc.reason})") from None
