"""Exception hierarchy shared across the package, and check_int and
check_float, the one rule each for integer and float fields and arguments.
Their messages quote a rejected value cut by clip (an integer by
clip_int), so an error stays one short line whatever the value.

The CLI maps these onto exit codes: ConfigError and ShapeError are user
errors (exit 2), NumericError and its subclasses are numeric failures
(exit 3), FormatError and plain OSError are I/O failures (exit 4).
"""

import math
import numbers


class OneaError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(OneaError):
    """Operands have incompatible or invalid dimensions."""


class ConfigError(OneaError):
    """A configuration value, CLI flag, or metadata field is invalid."""


class FormatError(OneaError):
    """A serialized container is malformed; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class NumericError(OneaError):
    """A numeric routine failed (non-convergence, NaN, zero norm)."""


class TrainingError(NumericError):
    """Training diverged; the message echoes seed and config for replay."""


def clip(text: str) -> str:
    """text, or past 40 characters its first 19 and last 18 around an
    ellipsis, so texts that differ only in their tail still print apart."""
    return text if len(text) <= 40 else text[:19] + "..." + text[-18:]


def clip_int(value: int) -> str:
    """value cut by clip, or past Python's limit on the digits of an
    integer's text, its size in bits."""
    try:
        return clip(str(value))
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def check_int(name: str, value, low: int | None = None,
              high: int | None = None) -> int:
    """The package's one integer rule: value must be a Python or numpy
    integer, never a bool, at least low and at most high where given;
    returns it as a Python int."""
    if type(value) is not int:  # plain ints skip the slow numbers.Integral check
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {clip(repr(value))}")
        value = int(value)
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = (f"be >= {clip_int(low)}" if high is None
                  else f"lie in [{clip_int(low)}, {clip_int(high)}]")
        raise ConfigError(f"{name} must {bounds}, got {clip_int(value)}")
    return value


def check_float(name: str, value) -> float:
    """The package's one float rule: value must be a real number (a Python
    or numpy float or integer), never a bool, and finite; returns it as a
    Python float. Range checks stay with each field."""
    if type(value) is not float:  # plain floats skip the slow numbers.Real check
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{name} must be a number, got {clip(repr(value))}")
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{name} must be finite, got an integer past "
                              "the largest float") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value
