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

All randomness flows from a Philox generator keyed by the scene seed, and
the reverb is convolved with numpy's real FFT, so identical specs give
bit-identical audio wherever numpy's FFT gives the same bits.

The specs refuse a bad field with SpecInvalidError when built: a seed is
an integer in [0, SEED_LIMIT), a rate a positive integer, every other
number a finite real. A scene holds at most MAX_SAMPLES samples: 2^24,
about 35 minutes at 8 kHz, each float64 array of it 128 MiB.
"""
from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field
from typing import Optional

import numpy as np

from .errors import SpecInvalidError, shown
from .types import TimeSignal, integer, real_number

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

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in ("white", "pink", "second_talker")):
            raise SpecInvalidError(f"unknown interference kind {shown(self.kind)}")
        object.__setattr__(self, "snr_db", real_number("snr_db", self.snr_db, error=SpecInvalidError))


@dataclass(frozen=True)
class ReverbSpec:
    rt60_s: float  # within RT60_RANGE_S
    direct_to_reverb_db: float = 0.0

    def __post_init__(self):
        for name, lo, hi in (("rt60_s", *RT60_RANGE_S), ("direct_to_reverb_db", -math.inf, math.inf)):
            object.__setattr__(self, name, real_number(name, getattr(self, name), lo, hi, SpecInvalidError))


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    duration_s: float = 1.0
    sample_rate_hz: int = 8000
    f0_hz: float = 180.0  # the target voice's pitch
    interference: Interference = field(default_factory=Interference)
    reverb: Optional[ReverbSpec] = None

    def __post_init__(self):
        seed = integer("seed", self.seed, 0, SEED_LIMIT, SpecInvalidError)
        duration = real_number("duration_s", self.duration_s, MIN_DURATION_S, error=SpecInvalidError)
        rate = integer("sample_rate_hz", self.sample_rate_hz, 1, math.inf, SpecInvalidError)
        if rate > MAX_SAMPLES / duration:  # int vs float compares exactly
            raise SpecInvalidError(f"{duration} s at {shown(rate)} Hz exceeds {MAX_SAMPLES} samples")
        f0 = real_number("f0_hz", self.f0_hz, 0.0, error=SpecInvalidError, open_lo=True)
        for name, value in (("seed", seed), ("duration_s", duration), ("sample_rate_hz", rate), ("f0_hz", f0)):
            object.__setattr__(self, name, value)
        if not (isinstance(self.interference, Interference) and isinstance(self.reverb, ReverbSpec | None)):
            raise SpecInvalidError("interference must be an Interference and reverb a ReverbSpec or None")

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


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 8) + stream))


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
    which must leave the tail's gain within float range. The arguments are
    checked as a spec's, the rate also against MAX_SAMPLES."""
    rt60_s, direct_to_reverb_db = astuple(ReverbSpec(rt60_s, direct_to_reverb_db))
    sample_rate_hz = integer("sample_rate_hz", sample_rate_hz, 1, MAX_SAMPLES + 1, SpecInvalidError)
    rng = _rng(integer("seed", seed, 0, SEED_LIMIT, SpecInvalidError), stream=7)
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
