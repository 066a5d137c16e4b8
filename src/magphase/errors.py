"""Exception types shared across the package, and how their messages show a value."""


def shown(value) -> str:
    """value as an error message shows it: a string quoted; an integer too
    long to print in full (Python refuses above 4300 digits) by its size."""
    if isinstance(value, int) and value.bit_length() > 256:
        return f"an integer of {value.bit_length()} bits"
    return repr(value) if isinstance(value, str) else str(value)


class MagphaseError(Exception):
    """Base class for all magphase errors."""


class NonFiniteError(MagphaseError):
    """A signal or matrix contains NaN or Inf."""


class EmptySignalError(MagphaseError):
    """A time signal has zero length."""


class ConfigInvalidError(MagphaseError):
    """An STFT or window configuration violates its invariants."""


class ShapeMismatchError(MagphaseError):
    """Two matrices/signals that must agree in shape do not."""


class ZeroSignalError(MagphaseError):
    """A metric received an all-zero signal where a nonzero one is required."""


class LengthMismatchError(MagphaseError):
    """Two signals that must agree in length do not."""


class SilentReferenceError(MagphaseError):
    """A metric reference has zero energy."""


class SpecInvalidError(MagphaseError):
    """A scene or run specification is out of its valid range."""


class DivergedError(MagphaseError):
    """Optimization produced non-finite loss or gradient."""


class MissingTargetError(MagphaseError):
    """A loss or optimization problem lacks a required target input."""
