"""Evaluation metrics: SI-SDR, plain SNR, magnitude SNR, phase SNR.

All return dB. A perfect estimate yields +inf, which serializes as the
literal string "inf"; results are never NaN: a NaN or Inf in either
signal or either spectrogram raises NonFiniteError.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    LengthMismatchError,
    NonFiniteError,
    SilentReferenceError,
    ZeroSignalError,
)
from .types import MagSpectrogram, Spectrogram, TimeSignal, phase_of, same_shape

# An energy sum at or above this (2^-970) holds a subnormal term only where
# the term's rounding is worth less than 2^-105 of the sum; a smaller sum
# may have lost bits, or all of itself, to underflow.
_SUM_FLOOR = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{what} contains NaN or Inf")


def _energy_sums(sums, *inputs, mixed: bool = True) -> tuple:
    """(sums(*inputs), shift_db): energy sums taken so none overflows or underflows.

    The first sum must be the reference's own energy and the last the
    error energy, the ratio's denominator. A sum that is not finite comes
    from a NaN or Inf in an input (the spectrograms, reference then
    estimate, are not checked up front) or from an overflow; a sum under
    _SUM_FLOOR, other than an error energy of exactly 0 (a perfect
    estimate), may have underflowed. In either case each input is divided
    by a scale, its largest real or imaginary part (a modulus itself may
    overflow). The first sum is taken on the reference at its own scale;
    the others on the inputs at their shared scale (mixed=True) or, where
    no ratio of them changes when one input is scaled alone, at their own
    (mixed=False). 10 log10(first / other) + shift_db is then the unscaled
    ratio in dB, however far apart the scales are.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = sums(*inputs)
    if all(_SUM_FLOOR <= x < math.inf for x in out[:-1]) and (
        out[-1] == 0.0 or _SUM_FLOOR <= out[-1] < math.inf
    ):
        return out, 0.0
    for a, what in zip(inputs, ("reference spectrogram", "estimate spectrogram")):
        _require_finite(a, what)
    scales = [max(float(np.max(np.abs(part))) for part in (a.real, a.imag)) or 1.0 for a in inputs]
    own = sums(*(a / scale for a, scale in zip(inputs, scales)))
    if not mixed:
        return own, 0.0
    top = max(scales)
    shared = sums(*(a / top for a in inputs))
    return (own[0],) + shared[1:], 20.0 * (math.log10(scales[0]) - math.log10(top))


def _ratio_db(num: float, den: float, shift_db: float = 0.0) -> float:
    if den == 0.0:
        return math.inf
    if num == 0.0:  # e.g. an estimate orthogonal to its reference under SI-SDR
        return -math.inf
    return 10.0 * math.log10(num / den) + shift_db


def _checked_samples(est: TimeSignal, ref: TimeSignal) -> tuple:
    """(ref samples, est samples) once they have one length and are finite."""
    s, e = ref.samples, est.samples
    if len(s) != len(e):
        raise LengthMismatchError(f"length mismatch: {len(e)} vs {len(s)}")
    _require_finite(e, "estimate signal")
    _require_finite(s, "reference signal")
    return s, e


def _si_sdr_sums(s: np.ndarray, e: np.ndarray) -> tuple:
    """(||s||^2, ||e||^2, ||a*s||^2, ||a*s - e||^2) with a = <s, e> / ||s||^2."""
    ref_energy = float(np.dot(s, s))
    alpha = float(np.dot(s, e)) / ref_energy if ref_energy else 0.0
    target = alpha * s
    err = target - e
    return ref_energy, float(np.dot(e, e)), float(np.dot(target, target)), float(np.dot(err, err))


def si_sdr(est: TimeSignal, ref: TimeSignal) -> float:
    """Scale-invariant signal-to-distortion ratio in dB.

    The reference is rescaled by its least-squares gain
    a = <ref, est> / <ref, ref> before the error ratio
    10*log10(||a*ref||^2 / ||a*ref - est||^2) is taken, which makes the
    result invariant to any nonzero rescaling of the estimate.
    """
    s, e = _checked_samples(est, ref)
    # The ratio does not change when s or e is scaled alone.
    (ref_energy, est_energy, num, den), _ = _energy_sums(_si_sdr_sums, s, e, mixed=False)
    if ref_energy == 0.0:
        raise ZeroSignalError("reference signal is all-zero")
    if est_energy == 0.0:
        raise ZeroSignalError("estimate signal is all-zero")
    return _ratio_db(num, den)


def _snr_sums(s: np.ndarray, e: np.ndarray) -> tuple:
    err = s - e
    return float(np.dot(s, s)), float(np.dot(err, err))


def snr(est: TimeSignal, ref: TimeSignal) -> float:
    """Plain SNR: 10*log10(||ref||^2 / ||ref - est||^2)."""
    s, e = _checked_samples(est, ref)
    (num, den), shift_db = _energy_sums(_snr_sums, s, e)
    if num == 0.0:
        raise ZeroSignalError("reference signal is all-zero")
    return _ratio_db(num, den, shift_db)


def _msnr_sums(S: np.ndarray, est: np.ndarray) -> tuple:
    """Energy sums of |S| and |S| - |est|; a real est is already a magnitude."""
    ref = np.abs(S)
    mag = np.abs(est) if np.iscomplexobj(est) else est
    err = np.subtract(ref, mag, out=None if mag is est else mag)  # into |est| when it is new
    ref **= 2  # in place: no second map of either
    err **= 2
    return float(np.sum(ref)), float(np.sum(err))


def msnr(est: Spectrogram | MagSpectrogram, S: Spectrogram) -> float:
    """Magnitude SNR: 10*log10(sum |S|^2 / sum (|S| - |est|)^2)."""
    same_shape(est.data, S.data)
    (num, den), shift_db = _energy_sums(_msnr_sums, S.data, est.data)
    if num == 0.0:
        raise SilentReferenceError("reference spectrogram has zero energy")
    return _ratio_db(num, den, shift_db)


def psnr(est: Spectrogram, S: Spectrogram) -> float:
    """Phase SNR: the oracle magnitude |S| is attached to the estimated phase.

    10*log10(sum |S|^2 / sum |S - |S| e^{j angle(est)}|^2). The
    denominator is evaluated through the identity
    |S - |S| e^{j t}|^2 = 2 |S|^2 (1 - cos(angle(S) - t)), which is exact
    when the two phases agree bitwise; the direct complex form would
    leave ~1 ulp of rounding and turn a perfect estimate's +inf into a
    merely large number. Bins with |S| = 0 contribute zero to both sums,
    so the estimated phase there is irrelevant.
    """
    same_shape(est.data, S.data)
    _require_finite(est.data, "estimate spectrogram")
    gap = phase_of(est)  # 1 - cos(angle S - angle est), in this one buffer
    np.subtract(S.phase, gap, out=gap)
    np.cos(gap, out=gap)
    np.subtract(1.0, gap, out=gap)

    def sums(S):
        mag2 = np.abs(S)  # |S| once, and every product in its buffer
        mag2 **= 2
        energy = float(np.sum(mag2))
        np.multiply(2.0, mag2, out=mag2)
        mag2 *= gap
        return energy, float(np.sum(mag2))

    (num, den), _ = _energy_sums(sums, S.data, mixed=False)
    if num == 0.0:
        raise SilentReferenceError("reference spectrogram has zero energy")
    return _ratio_db(num, den)


def format_db(value: float) -> str:
    """'inf'/'-inf' literals for infinities, else 4 decimal places."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.4f}"


def json_db(value: float) -> float | str:
    """A dB value for JSON: the float itself, or 'inf'/'-inf' for an infinity."""
    return format_db(value) if math.isinf(value) else value


@dataclass(frozen=True)
class MetricReport:
    """Bundle of the four metrics for one estimate/reference pair.

    si_sdr_db is -inf by convention when the estimate is silent (the
    metric itself is undefined there); the other fields are finite or
    +inf, never NaN.
    """

    si_sdr_db: float
    snr_db: float
    msnr_db: float
    psnr_db: float

    _KEYS = ("si_sdr_db", "snr_db", "msnr_db", "psnr_db")

    def as_dict(self) -> dict:
        """JSON-ready mapping; infinities become 'inf'/'-inf' strings."""
        return {k: json_db(getattr(self, k)) for k in self._KEYS}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def csv_header(self) -> str:
        return ",".join(self._KEYS)

    def csv_row(self) -> str:
        return ",".join(format_db(getattr(self, k)) for k in self._KEYS)


def floored_si_sdr(est: TimeSignal, ref: TimeSignal) -> float:
    """si_sdr, or -inf for a silent estimate; a silent reference still raises."""
    try:
        return si_sdr(est, ref)
    except ZeroSignalError:
        if not np.any(ref.samples):
            raise
        return -math.inf


def report(
    est: TimeSignal,
    ref: TimeSignal,
    est_spec: Spectrogram,
    ref_spec: Spectrogram,
) -> MetricReport:
    """Compute all four metrics; a silent estimate reports si_sdr_db = -inf."""
    return MetricReport(
        si_sdr_db=floored_si_sdr(est, ref),
        snr_db=snr(est, ref),
        msnr_db=msnr(est_spec, ref_spec),
        psnr_db=psnr(est_spec, ref_spec),
    )
