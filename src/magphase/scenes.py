"""Seeded synthetic scenes: harmonic target + interference (+ reverb).

The target is a harmonic stack with pitch vibrato and syllabic amplitude
modulation, band-limited to 80-4000 Hz; crude, but it produces the
time-frequency sparsity contrast the compensation experiments need. Its
pitch (SceneSpec.f0_hz) is its one setting; the harmonic count and the
vibrato and modulation rates are module constants.
Interference is white/pink noise or a second harmonic voice, scaled
exactly to the requested SNR/SIR against the target. With reverb, the
returned target stays the direct-path signal and the reverberant tail is
folded into the interference, so the reference is always direct sound.

All randomness flows from a Philox counter-based generator keyed by the
scene seed, which must lie in [0, SEED_LIMIT), and the reverb is
convolved with numpy's real FFT, so identical specs synthesize
bit-identical audio wherever numpy's FFT gives the same bits.

A scene holds at most MAX_SAMPLES samples (duration x sample rate): 2^24,
about 35 minutes at 8 kHz or 5.8 minutes at 48 kHz, where each float64
array of the scene takes 128 MiB. A longer one is refused before anything
is allocated.
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import SpecInvalidError, shown
from .types import TimeSignal

RNG_ALGORITHM = "philox4x64"

MIN_DURATION_S = 0.25
MAX_SAMPLES = 2**24
SEED_LIMIT = 2**120  # a Philox key is below 2^128, and _rng keeps 8 bits for the stream
RT60_RANGE_S = (0.05, 1.0)
BAND_LOW_HZ = 80.0
BAND_HIGH_HZ = 4000.0
NUM_HARMONICS = 24
AM_RATE_HZ = 4.0
VIBRATO_DEPTH = 0.03
VIBRATO_RATE_HZ = 5.0


@dataclass(frozen=True)
class Interference:
    kind: str = "white"  # "white" | "pink" | "second_talker"
    snr_db: float = 0.0  # interpreted as SIR for second_talker


@dataclass(frozen=True)
class ReverbSpec:
    rt60_s: float
    direct_to_reverb_db: float = 0.0


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    duration_s: float = 1.0
    sample_rate_hz: int = 8000
    f0_hz: float = 180.0  # the target voice's pitch
    interference: Interference = field(default_factory=Interference)
    reverb: Optional[ReverbSpec] = None

    def as_dict(self) -> dict:
        d = {"schema_version": 2, "rng": RNG_ALGORITHM, **asdict(self)}
        if self.reverb is None:
            del d["reverb"]
        return d


@dataclass(frozen=True)
class Scene:
    s: TimeSignal
    v: TimeSignal
    y: TimeSignal
    s2: Optional[TimeSignal]
    spec: SceneSpec


def _validate_spec(spec: SceneSpec) -> None:
    if not MIN_DURATION_S <= spec.duration_s <= sys.float_info.max:  # a huge int compares exactly
        raise SpecInvalidError(f"duration must be >= {MIN_DURATION_S} s")
    if spec.sample_rate_hz <= 0:
        raise SpecInvalidError("sample rate must be positive")
    if spec.sample_rate_hz > MAX_SAMPLES / spec.duration_s:  # int vs float compares exactly
        raise SpecInvalidError(
            f"{spec.duration_s} s at {spec.sample_rate_hz} Hz exceeds {MAX_SAMPLES} samples"
        )
    if not abs(spec.interference.snr_db) <= sys.float_info.max:
        raise SpecInvalidError("snr/sir must be finite")
    if spec.interference.kind not in ("white", "pink", "second_talker"):
        raise SpecInvalidError(f"unknown interference kind {spec.interference.kind!r}")
    if not 0 < spec.f0_hz <= sys.float_info.max:
        raise SpecInvalidError("target f0 must be positive")


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    if not 0 <= seed < SEED_LIMIT:
        raise SpecInvalidError(f"seed must lie in [0, 2^120), got {shown(seed)}")
    return np.random.Generator(np.random.Philox(key=(int(seed) << 8) + stream))


def _harmonic_voice(rng: np.random.Generator, f0_hz: float, n: int, sr: int) -> np.ndarray:
    t = np.arange(n) / sr
    f0 = f0_hz * (1.0 + rng.uniform(-0.05, 0.05))
    vib_phase = rng.uniform(0.0, 2.0 * np.pi)
    inst_f0 = f0 * (1.0 + VIBRATO_DEPTH * np.sin(2.0 * np.pi * VIBRATO_RATE_HZ * t + vib_phase))
    base_phase = 2.0 * np.pi * np.cumsum(inst_f0) / sr
    am_phase = rng.uniform(0.0, 2.0 * np.pi)
    env = 0.55 + 0.45 * np.sin(2.0 * np.pi * AM_RATE_HZ * t + am_phase)
    high = min(BAND_HIGH_HZ, 0.45 * sr)
    f0_max = f0 * (1.0 + VIBRATO_DEPTH)
    out = np.zeros(n)
    for k in range(1, NUM_HARMONICS + 1):
        if k * f0_max > high:
            break
        if k * f0 < BAND_LOW_HZ:
            continue
        out += (1.0 / k) * np.sin(k * base_phase + rng.uniform(0.0, 2.0 * np.pi))
    out *= env
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= 0.5 / peak
    return out


def _pink(rng: np.random.Generator, n: int) -> np.ndarray:
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    f = np.arange(spectrum.shape[0], dtype=np.float64)
    spectrum /= np.sqrt(np.maximum(f, 1.0))
    return np.fft.irfft(spectrum, n=n)


def _scaled_to_ratio(signal: np.ndarray, reference: np.ndarray, ratio_db: float) -> np.ndarray:
    """Scale signal so 10*log10(||reference||^2 / ||signal||^2) == ratio_db."""
    sig_energy = float(np.dot(signal, signal))
    ref_energy = float(np.dot(reference, reference))
    if sig_energy == 0.0 or ref_energy == 0.0:
        raise SpecInvalidError("cannot scale a silent component to a target SNR")
    try:
        gain = math.sqrt(ref_energy / sig_energy) * 10.0 ** (-ratio_db / 20.0)
    except OverflowError:
        gain = math.inf
    if not 0.0 < gain < math.inf:
        raise SpecInvalidError(f"a ratio of {ratio_db} dB needs a gain of {gain}, beyond float64")
    return signal * gain


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, the length scipy.signal.fftconvolve pads to."""
    best = 1 << (n - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:  # odd = 3^b 5^c; the least odd * 2^a >= n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real signals through one real FFT."""
    n = len(a) + len(b) - 1
    size = _fft_length(n)
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def synth_rir(
    rt60_s: float,
    sample_rate_hz: int,
    seed: int = 0,
    direct_to_reverb_db: float = 0.0,
) -> np.ndarray:
    """Exponentially decaying seeded noise tail behind a unit direct tap.

    The amplitude envelope decays by 60 dB at rt60_s; the tail is scaled
    so the direct-to-reverberant energy ratio equals direct_to_reverb_db,
    which must be finite and leave the tail's gain within float range.
    """
    lo, hi = RT60_RANGE_S
    if not lo <= rt60_s <= hi:  # refuses NaN, and compares a huge int exactly
        raise SpecInvalidError(f"rt60 must lie in [{lo}, {hi}] s, got {rt60_s}")
    if not abs(direct_to_reverb_db) <= sys.float_info.max:
        raise SpecInvalidError(f"direct-to-reverb ratio must be finite, got {direct_to_reverb_db}")
    if not 0 < sample_rate_hz <= MAX_SAMPLES:
        raise SpecInvalidError(f"sample rate must lie in (0, {MAX_SAMPLES}] Hz")
    rng = _rng(seed, stream=7)
    n = int(round(1.5 * rt60_s * sample_rate_hz))
    t = np.arange(1, n + 1) / sample_rate_hz
    envelope = 10.0 ** (-3.0 * t / rt60_s)  # -60 dB amplitude at rt60
    tail = rng.standard_normal(n) * envelope
    tail_energy = float(np.dot(tail, tail))
    if tail_energy > 0:
        try:
            gain = math.sqrt(10.0 ** (-direct_to_reverb_db / 10.0) / tail_energy)
        except OverflowError:
            gain = math.inf
        if gain == math.inf:
            raise SpecInvalidError(f"direct-to-reverb ratio {direct_to_reverb_db} dB overflows the tail")
        tail *= gain
    return np.concatenate(([1.0], tail))


def synth_scene(spec: SceneSpec) -> Scene:
    """Generate (s, v, y); y = s + v holds exactly at sample level."""
    _validate_spec(spec)
    sr = spec.sample_rate_hz
    n = int(round(spec.duration_s * sr))
    rng = _rng(spec.seed)
    # Built before any array of the scene's length, so a reverb it refuses
    # allocates nothing large; its own stream leaves rng's draws unchanged.
    h = None
    if spec.reverb is not None:
        h = synth_rir(spec.reverb.rt60_s, sr, spec.seed, spec.reverb.direct_to_reverb_db)

    s = _harmonic_voice(rng, spec.f0_hz, n, sr)

    s2 = None
    kind = spec.interference.kind
    if kind == "white":
        raw = rng.standard_normal(n)
    elif kind == "pink":
        raw = _pink(rng, n)
    else:
        # Offset the second voice's f0 by >= 30% to avoid permanent
        # spectral collision with the target.
        offset = 1.3 + 0.2 * rng.uniform()
        raw = _harmonic_voice(rng, spec.f0_hz * offset, n, sr)
    scaled = _scaled_to_ratio(raw, s, spec.interference.snr_db)
    if kind == "second_talker":
        s2 = scaled

    v = scaled.copy()
    if h is not None:
        wet = _convolve(s, h)[:n]
        v = v + (wet - s)

    y = s + v
    return Scene(
        s=TimeSignal(s, sr),
        v=TimeSignal(v, sr),
        y=TimeSignal(y, sr),
        s2=TimeSignal(s2, sr) if s2 is not None else None,
        spec=spec,
    )
