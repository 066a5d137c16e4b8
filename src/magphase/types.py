"""Shared signal/spectrogram data model and elementwise conversions.

All containers are immutable after construction (arrays are copied and
marked read-only), so values can be shared freely across threads.
Internal arithmetic is float64/complex128 throughout; file I/O may
narrow to float32.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters: window/hop length in samples plus FFT size."""

    win_length_samples: int
    hop_length_samples: int
    fft_size: int

    def __post_init__(self):
        wl = self.win_length_samples
        hl = self.hop_length_samples
        if wl < 1 or hl < 1:
            raise ConfigInvalidError("window and hop lengths must be positive")
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


_X0_TAGS = frozenset({LossTag.RI_ISTFT_X0_MAG, LossTag.WAV_X0_MAG})

_MAG_TERM_TAGS = frozenset({LossTag.RI_MAG, LossTag.L2_COMPLEX_MAG})


@dataclass(frozen=True)
class LossKind:
    """Loss selector: tag plus weights on the time/complex and magnitude terms.

    time_weight defaults to 1, except for the x0 variants where it is
    fixed at 0 (passing a nonzero value there is an error).
    """

    tag: LossTag
    time_weight: float | None = None
    mag_weight: float = 1.0

    def __post_init__(self):
        tw = self.time_weight
        if tw is None:
            tw = 0.0 if self.tag in _X0_TAGS else 1.0
        tw = float(tw)
        mw = float(self.mag_weight)
        if not (np.isfinite(tw) and np.isfinite(mw)) or tw < 0 or mw < 0:
            raise ConfigInvalidError("loss weights must be finite and nonnegative")
        if self.tag in _X0_TAGS and tw != 0.0:
            raise ConfigInvalidError(f"{self.tag.value} fixes time_weight = 0")
        object.__setattr__(self, "time_weight", tw)
        object.__setattr__(self, "mag_weight", mw)


@dataclass(frozen=True)
class TimeSignal:
    """Real-valued sample sequence with its sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ShapeMismatchError(f"time signal must be 1-D, got shape {arr.shape}")
        object.__setattr__(self, "samples", _readonly(arr))

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

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != 2:
            raise ShapeMismatchError(f"spectrogram must be 2-D, got shape {arr.shape}")
        object.__setattr__(self, "data", _readonly(arr))

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]

    @property
    def num_bins(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MagSpectrogram:
    """Nonnegative real matrix [num_frames x num_bins]."""

    data: np.ndarray
    config: StftConfig

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeMismatchError(f"magnitude matrix must be 2-D, got shape {arr.shape}")
        object.__setattr__(self, "data", _readonly(arr))


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


def validate_spectrogram(X: Spectrogram) -> None:
    if X.num_bins != X.config.num_bins:
        raise ShapeMismatchError(
            f"spectrogram has {X.num_bins} bins, config implies {X.config.num_bins}"
        )
    if not np.all(np.isfinite(X.data)):
        raise NonFiniteError("spectrogram contains NaN or Inf")


def validate_magnitude(M: MagSpectrogram) -> None:
    if M.data.shape[1] != M.config.num_bins:
        raise ShapeMismatchError(
            f"magnitude matrix has {M.data.shape[1]} bins, config implies {M.config.num_bins}"
        )
    if not np.all(np.isfinite(M.data)):
        raise NonFiniteError("magnitude matrix contains NaN or Inf")
    if np.any(M.data < 0):
        raise ShapeMismatchError("magnitude matrix has negative entries")


def magnitude_of(X: Spectrogram) -> MagSpectrogram:
    """Entrywise modulus."""
    return MagSpectrogram(np.abs(X.data), X.config)


def phase_of(X: Spectrogram) -> np.ndarray:
    """Entrywise argument in (-pi, pi]; the argument of 0 is defined as 0.

    The zero convention keeps downstream phase metrics total; it also
    swallows the sign of -0.0, which np.angle would map to pi.
    """
    return np.where(X.data == 0, 0.0, np.angle(X.data))
