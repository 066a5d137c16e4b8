"""Oracle time-frequency masks and mask-based re-synthesis.

Masks are computed from oracle source/mixture spectrograms:

* amplitude mask      |S| / |Y|
* phase-sensitive mask |S| / |Y| * cos(angle(S) - angle(Y)), optionally
  truncated to [0, 1]
* phase-sensitive target |S| * clamp01(cos(angle(S) - angle(Y))), the
  regression target that already folds in the magnitude shrinkage the
  mixture phase calls for.

Re-synthesis multiplies the mixture spectrogram (or attaches the mixture
phase to a magnitude) and inverts.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import stft as _stft
from .compensation import compensated_magnitude, phase_diff_map
from .errors import ConfigInvalidError, ShapeMismatchError
from .types import (
    DEFAULT_SAMPLE_RATE_HZ,
    MagSpectrogram,
    Spectrogram,
    TimeSignal,
    _readonly,
    phase_of,
    same_shape,
)

# Guards division at near-silent mixture bins.
DEFAULT_EPS = 1e-8

# Amplitude-mask gains above this are clipped when the mask is applied;
# near-silent mixture bins can otherwise demand enormous gains.
DEFAULT_IAM_CLAMP = 10.0


class MaskKind(Enum):
    IAM = "iam"
    PSM = "psm"
    PSM_TRUNCATED = "psm_truncated"


@dataclass(frozen=True)
class MaskMatrix:
    data: np.ndarray
    kind: MaskKind

    def __post_init__(self):
        object.__setattr__(self, "data", _readonly(self.data, np.float64, 2, "mask"))


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < np.inf:
        raise ConfigInvalidError(f"eps must be positive and finite, got {eps:g}")


def iam(S: Spectrogram, Y: Spectrogram, eps: float = DEFAULT_EPS) -> MaskMatrix:
    """Ideal amplitude mask |S| / max(|Y|, eps); eps must be positive and finite."""
    _check_eps(eps)
    same_shape(S.data, Y.data)
    return MaskMatrix(np.abs(S.data) / np.maximum(np.abs(Y.data), eps), MaskKind.IAM)


def psm(
    S: Spectrogram,
    Y: Spectrogram,
    eps: float = DEFAULT_EPS,
    truncate: bool = False,
) -> MaskMatrix:
    """Phase-sensitive mask; truncate clamps entries to [0, 1]. eps as for iam."""
    _check_eps(eps)
    same_shape(S.data, Y.data)
    m = np.abs(S.data) / np.maximum(np.abs(Y.data), eps) * phase_diff_map(S, Y)
    if truncate:
        return MaskMatrix(np.clip(m, 0.0, 1.0), MaskKind.PSM_TRUNCATED)
    return MaskMatrix(m, MaskKind.PSM)


def psa_target(S: Spectrogram, Y: Spectrogram) -> MagSpectrogram:
    """|S| * clamp01(cos(angle(S) - angle(Y))): the phase-sensitive magnitude target.

    This is the per-unit L2 optimum along the mixture phase, so it is
    compensation.compensated_magnitude.
    """
    return compensated_magnitude(S, Y)


def masked_magnitude(
    kind: MaskKind,
    S: Spectrogram,
    Y: Spectrogram,
    eps: float = DEFAULT_EPS,
) -> MagSpectrogram:
    """Magnitude of the masked mixture, without re-synthesis.

    For the amplitude mask this evaluates |mask * Y| in the grouping
    |S| * (|Y| / max(|Y|, eps)), so the identity |mask * Y| = |S| holds
    bit-exactly at every bin where |Y| >= eps (the trailing factor is
    exactly 1.0 there). Computing (|S|/|Y|) * |Y| instead would leave
    ~1 ulp of rounding noise and turn an exactly-infinite magnitude SNR
    into a merely huge one. The phase-sensitive variants carry no such
    exactness claim and use the literal mask product. eps as for iam.
    """
    _check_eps(eps)
    same_shape(S.data, Y.data)
    absY = np.abs(Y.data)
    if kind is MaskKind.IAM:
        mag = np.abs(S.data) * (absY / np.maximum(absY, eps))
    elif kind is MaskKind.PSM:
        mag = np.abs(psm(S, Y, eps).data) * absY
    elif kind is MaskKind.PSM_TRUNCATED:
        mag = psm(S, Y, eps, truncate=True).data * absY
    else:
        raise ShapeMismatchError(f"unknown mask kind {kind}")
    return MagSpectrogram(mag, S.config)


def apply_mask_resynth(
    M: MaskMatrix | MagSpectrogram,
    Y: Spectrogram,
    out_len: int,
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ,
    iam_clamp: float | None = DEFAULT_IAM_CLAMP,
) -> TimeSignal:
    """Re-synthesize a masked mixture.

    A MaskMatrix multiplies Y entrywise (amplitude masks are clipped to
    [0, iam_clamp] unless iam_clamp is None; otherwise it must be
    positive); a MagSpectrogram is combined with the mixture phase as
    M * exp(1j * angle(Y)).
    """
    if iam_clamp is not None and not iam_clamp > 0:
        raise ConfigInvalidError(f"iam_clamp must be None or positive, got {iam_clamp:g}")
    same_shape(M.data, Y.data)
    if isinstance(M, MagSpectrogram):
        masked = M.data * np.exp(1j * phase_of(Y))
    else:
        gains = M.data
        if M.kind is MaskKind.IAM and iam_clamp is not None:
            gains = np.clip(gains, 0.0, iam_clamp)
        masked = gains * Y.data
    return _stft.istft(Spectrogram(masked, Y.config), out_len, sample_rate_hz)
