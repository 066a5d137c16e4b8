"""Shared signal/spectrogram data model and elementwise conversions.

All containers are immutable after construction (arrays are copied and
marked read-only), so values can be shared freely across threads. A
coupled descent's point views hand their containers the arrays they
have just built (adopt=True), which are marked read-only in place of a copy, since
nothing else holds them. A spectrogram's phase is taken at its first use
and kept, read-only.
Internal arithmetic is float64/complex128 throughout; file I/O may
narrow to float32.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    ConfigInvalidError,
    EmptySignalError,
    NonFiniteError,
    ShapeMismatchError,
)

# Sample rate attached to synthesized containers when the caller does not
# supply one; it is metadata only and never enters any computation.
DEFAULT_SAMPLE_RATE_HZ = 16000


def _readonly(a, dtype, ndim: int, what: str, adopt: bool = False) -> np.ndarray:
    """A frozen copy of a cast to dtype, or a itself frozen if adopt;
    ShapeMismatchError unless it is ndim-D. Adopting relies on NumPy 2's
    copy=False, which raises ValueError where a copy would be needed (a not
    an array of dtype)."""
    arr = np.array(a, dtype=dtype, copy=not adopt)
    if arr.ndim != ndim:
        raise ShapeMismatchError(f"{what} must be {ndim}-D, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters: window/hop length in samples plus FFT size."""

    win_length_samples: int
    hop_length_samples: int
    fft_size: int

    def __post_init__(self):
        wl = self.win_length_samples
        hl = self.hop_length_samples
        if wl < 2 or hl < 1:  # a one-sample periodic window is 0, and so is its STFT
            raise ConfigInvalidError(
                f"window must be at least 2 samples and hop at least 1, got {wl} and {hl}"
            )
        if hl > wl:
            raise ConfigInvalidError(f"hop {hl} exceeds window length {wl}")
        if self.fft_size < wl:
            raise ConfigInvalidError(
                f"fft_size {self.fft_size} smaller than window length {wl}"
            )

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1

    @classmethod
    def for_window(cls, win_length_samples: int, hop_length_samples: int) -> "StftConfig":
        """Config with fft_size = smallest power of two >= window length."""
        fft_size = 1 << max(int(win_length_samples) - 1, 0).bit_length()
        return cls(win_length_samples, hop_length_samples, fft_size)

    @classmethod
    def from_ms(cls, win_ms: float, hop_ms: float, sample_rate_hz: int) -> "StftConfig":
        if not (np.isfinite(win_ms) and np.isfinite(hop_ms)):
            raise ConfigInvalidError(f"window and hop must be finite ms, got {win_ms}, {hop_ms}")
        wl = int(round(win_ms * sample_rate_hz / 1000.0))
        hl = int(round(hop_ms * sample_rate_hz / 1000.0))
        return cls.for_window(wl, hl)


class LossTag(Enum):
    RI = "ri"
    RI_MAG = "ri+mag"
    RI_ISTFT = "ri-istft"
    RI_ISTFT_MAG = "ri-istft+mag"
    MAG_RI_ISTFT = "mag+ri-istft"
    RI_ISTFT_X0_MAG = "(ri-istft)x0+mag"
    WAV = "wav"
    WAV_MAG = "wav+mag"
    WAV_X0_MAG = "wavx0+mag"
    MSA = "msa"
    PSA = "psa"
    PHASE = "phase"
    L2_COMPLEX = "l2-complex"
    L2_COMPLEX_MAG = "l2-complex+mag"


# The terms each kind has: a time/complex term (RI parts, samples or
# phase) and a magnitude term.
_TIME_TERM_TAGS = frozenset(LossTag) - {
    LossTag.MSA, LossTag.PSA, LossTag.RI_ISTFT_X0_MAG, LossTag.WAV_X0_MAG
}
_MAG_TERM_TAGS = frozenset(LossTag) - {
    LossTag.RI, LossTag.RI_ISTFT, LossTag.WAV, LossTag.PHASE, LossTag.L2_COMPLEX
}


@dataclass(frozen=True)
class LossKind:
    """Loss selector: tag plus weights on the time/complex and magnitude terms.

    A weight left at None is 1 where the kind has that term and 0 where it
    has not; a nonzero weight on a term the kind lacks is an error, so
    every weight a LossKind holds is one its loss reads.
    """

    tag: LossTag
    time_weight: float | None = None
    mag_weight: float | None = None

    def __post_init__(self):
        for name, terms in (("time_weight", _TIME_TERM_TAGS), ("mag_weight", _MAG_TERM_TAGS)):
            has_term = self.tag in terms
            w = getattr(self, name)
            w = float(has_term if w is None else w)
            if not np.isfinite(w) or w < 0:
                raise ConfigInvalidError("loss weights must be finite and nonnegative")
            if w and not has_term:
                raise ConfigInvalidError(f"loss {self.tag.value} has no term for {name}, got {w:g}")
            object.__setattr__(self, name, w)


@dataclass(frozen=True)
class TimeSignal:
    """Real-valued sample sequence with its sample rate."""

    samples: np.ndarray
    sample_rate_hz: int
    _: KW_ONLY
    adopt: InitVar[bool] = False  # samples are a new float64 array no one else holds

    def __post_init__(self, adopt):
        samples = _readonly(self.samples, np.float64, 1, "time signal", adopt)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return len(self) / float(self.sample_rate_hz)


@dataclass(frozen=True)
class Spectrogram:
    """Complex matrix [num_frames x num_bins], frame-major (time outer)."""

    data: np.ndarray
    config: StftConfig
    _: KW_ONLY
    adopt: InitVar[bool] = False  # data is a new complex128 array no one else holds

    def __post_init__(self, adopt):
        data = _readonly(self.data, np.complex128, 2, "spectrogram", adopt)
        object.__setattr__(self, "data", data)

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]

    @cached_property
    def phase(self) -> np.ndarray:
        """phase_of(self), read-only: taken at first use and kept with the container."""
        phase = phase_of(self)
        phase.setflags(write=False)
        return phase

    @property
    def num_bins(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MagSpectrogram:
    """Nonnegative real matrix [num_frames x num_bins]; a finite negative entry is refused."""

    data: np.ndarray
    config: StftConfig

    def __post_init__(self):
        data = _readonly(self.data, np.float64, 2, "magnitude matrix")
        if np.any((data < 0) & (data > -np.inf)):  # -inf is left to the finiteness checks
            raise ShapeMismatchError("magnitude matrix has negative entries")
        object.__setattr__(self, "data", data)


def same_shape(*arrays: np.ndarray) -> None:
    """Raise ShapeMismatchError unless all arrays have one shape."""
    shapes = [a.shape for a in arrays]
    if any(shape != shapes[0] for shape in shapes[1:]):
        raise ShapeMismatchError("shape mismatch: " + " vs ".join(map(str, shapes)))


def validate_signal(x: TimeSignal) -> None:
    """Raise if the signal violates its invariants.

    Raises EmptySignalError for zero length, NonFiniteError for NaN/Inf,
    ConfigInvalidError for a non-positive sample rate.
    """
    if len(x) < 1:
        raise EmptySignalError("signal has no samples")
    if x.sample_rate_hz <= 0:
        raise ConfigInvalidError(f"sample rate must be positive, got {x.sample_rate_hz}")
    if not np.all(np.isfinite(x.samples)):
        raise NonFiniteError("signal contains NaN or Inf")


def validate_spectrogram(X: Spectrogram | MagSpectrogram) -> None:
    """Raise unless X has the bins its config implies and only finite entries. A
    MagSpectrogram, whose container refuses a negative entry, is a "magnitude matrix" here."""
    what = "magnitude matrix" if isinstance(X, MagSpectrogram) else "spectrogram"
    bins = X.data.shape[1]
    if bins != X.config.num_bins:
        raise ShapeMismatchError(f"{what} has {bins} bins, config implies {X.config.num_bins}")
    if not np.all(np.isfinite(X.data)):
        raise NonFiniteError(f"{what} contains NaN or Inf")


def magnitude_of(X: Spectrogram) -> MagSpectrogram:
    """Entrywise modulus."""
    return MagSpectrogram(np.abs(X.data), X.config)


def phase_of(X: Spectrogram) -> np.ndarray:
    """Entrywise argument in (-pi, pi]; the argument of 0 is defined as 0.

    The zero convention keeps downstream phase metrics total; it also
    swallows the sign of -0.0, which np.angle would map to pi.
    """
    return np.where(X.data == 0, 0.0, np.angle(X.data))
