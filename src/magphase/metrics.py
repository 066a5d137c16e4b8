"""Evaluation metrics: SI-SDR, plain SNR, magnitude SNR, phase SNR.

All return dB. A perfect estimate yields +inf, which serializes as the
literal string "inf"; results are never NaN: a NaN or Inf in either
signal or either spectrogram raises NonFiniteError.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    LengthMismatchError,
    NonFiniteError,
    SilentReferenceError,
    ZeroSignalError,
)
from .types import MagSpectrogram, Spectrogram, TimeSignal, phase_of, same_shape

# Energy ratios whose denominator falls below this yield +inf instead of
# overflowing the log.
_DENOM_FLOOR = 1e-300


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{what} contains NaN or Inf")


def _energy_sums(sums, *inputs) -> tuple:
    """sums(*inputs), a tuple of energy sums, taken so that none overflows.

    A sum that is not finite comes from a NaN or Inf in an input (the
    spectrograms, reference then estimate, are not checked up front) or
    from an overflow; then the sums are taken again on the inputs divided
    by their largest real or imaginary part (a modulus itself may
    overflow), which leaves every ratio of them unchanged up to rounding.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = sums(*inputs)
    if all(map(math.isfinite, out)):
        return out
    for a, what in zip(inputs, ("reference spectrogram", "estimate spectrogram")):
        _require_finite(a, what)
    top = max(float(np.max(np.abs(part))) for a in inputs for part in (a.real, a.imag))
    return sums(*(a / top for a in inputs))


def _ratio_db(num: float, den: float) -> float:
    if den < _DENOM_FLOOR:
        return math.inf
    return 10.0 * math.log10(num / den)


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
    ref_energy, est_energy, num, den = _energy_sums(_si_sdr_sums, s, e)
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
    num, den = _energy_sums(_snr_sums, s, e)
    if num == 0.0:
        raise ZeroSignalError("reference signal is all-zero")
    return _ratio_db(num, den)


def _msnr_sums(S: np.ndarray, est: np.ndarray) -> tuple:
    """Energy sums of |S| and |S| - |est|; a real est is already a magnitude."""
    ref = np.abs(S)
    mag = np.abs(est) if np.iscomplexobj(est) else est
    return float(np.sum(ref**2)), float(np.sum((ref - mag) ** 2))


def msnr(est: Spectrogram | MagSpectrogram, S: Spectrogram) -> float:
    """Magnitude SNR: 10*log10(sum |S|^2 / sum (|S| - |est|)^2)."""
    same_shape(est.data, S.data)
    num, den = _energy_sums(_msnr_sums, S.data, est.data)
    if num == 0.0:
        raise SilentReferenceError("reference spectrogram has zero energy")
    return _ratio_db(num, den)


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
    gap = 1.0 - np.cos(phase_of(S) - phase_of(est))

    def sums(S):
        mag2 = np.abs(S) ** 2
        return float(np.sum(mag2)), float(np.sum(2.0 * mag2 * gap))

    num, den = _energy_sums(sums, S.data)
    if num == 0.0:
        raise SilentReferenceError("reference spectrogram has zero energy")
    return _ratio_db(num, den)


def format_db(value: float) -> str:
    """'inf'/'-inf' literals for infinities, else 4 decimal places."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.4f}"


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
    metadata: dict = field(default_factory=dict)

    _KEYS = ("si_sdr_db", "snr_db", "msnr_db", "psnr_db")

    def as_dict(self) -> dict:
        """JSON-ready mapping; infinities become 'inf'/'-inf' strings."""
        out = {}
        for k in self._KEYS:
            v = getattr(self, k)
            out[k] = format_db(v) if math.isinf(v) else v
        if self.metadata:
            out["metadata"] = dict(self.metadata)
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def csv_header(self) -> str:
        return ",".join(self._KEYS)

    def csv_row(self) -> str:
        return ",".join(format_db(getattr(self, k)) for k in self._KEYS)


def report(
    est: TimeSignal,
    ref: TimeSignal,
    est_spec: Spectrogram,
    ref_spec: Spectrogram,
    metadata: dict | None = None,
) -> MetricReport:
    """Compute all four metrics; a silent estimate reports si_sdr_db = -inf."""
    try:
        si = si_sdr(est, ref)
    except ZeroSignalError:
        if float(np.dot(ref.samples, ref.samples)) == 0.0:
            raise
        si = -math.inf
    return MetricReport(
        si_sdr_db=si,
        snr_db=snr(est, ref),
        msnr_db=msnr(est_spec, ref_spec),
        psnr_db=psnr(est_spec, ref_spec),
        metadata=metadata or {},
    )
