import math

import numpy as np
import pytest

from magphase.errors import SpecInvalidError
from magphase.scenes import (
    HarmonicTarget,
    Interference,
    ReverbSpec,
    SceneSpec,
    synth_rir,
    synth_scene,
)


def test_snr_exact():
    for snr_db in (-5.0, 0.0, 7.5):
        scene = synth_scene(
            SceneSpec(seed=2, interference=Interference("white", snr_db))
        )
        measured = 10 * np.log10(
            np.sum(scene.s.samples**2) / np.sum(scene.v.samples**2)
        )
        assert measured == pytest.approx(snr_db, abs=0.01)


def test_deterministic_bit_identical():
    spec = SceneSpec(seed=11, duration_s=0.5)
    a, b = synth_scene(spec), synth_scene(spec)
    assert np.array_equal(a.s.samples, b.s.samples)
    assert np.array_equal(a.v.samples, b.v.samples)
    assert np.array_equal(a.y.samples, b.y.samples)


def test_different_seeds_differ():
    a = synth_scene(SceneSpec(seed=0, duration_s=0.5))
    b = synth_scene(SceneSpec(seed=1, duration_s=0.5))
    assert not np.array_equal(a.v.samples, b.v.samples)


def test_additivity_exact():
    for kind in ("white", "pink", "second_talker"):
        scene = synth_scene(SceneSpec(seed=4, interference=Interference(kind, 3.0)))
        assert np.array_equal(scene.y.samples, scene.s.samples + scene.v.samples)


def test_second_talker_returns_s2_with_offset_pitch():
    scene = synth_scene(
        SceneSpec(seed=5, interference=Interference("second_talker", 0.0))
    )
    assert scene.s2 is not None
    assert np.array_equal(scene.v.samples, scene.s2.samples)
    # Dominant frequencies of the two voices must not collide.
    sr = scene.spec.sample_rate_hz
    f = np.fft.rfftfreq(len(scene.s), 1 / sr)
    f_s = f[np.argmax(np.abs(np.fft.rfft(scene.s.samples)))]
    f_s2 = f[np.argmax(np.abs(np.fft.rfft(scene.s2.samples)))]
    assert abs(f_s2 - f_s) / f_s > 0.2


def test_pink_noise_is_low_frequency_weighted():
    white = synth_scene(SceneSpec(seed=6, interference=Interference("white", 0.0)))
    pink = synth_scene(SceneSpec(seed=6, interference=Interference("pink", 0.0)))
    sr = 8000

    def band_energy(x, lo, hi):
        spec = np.abs(np.fft.rfft(x)) ** 2
        f = np.fft.rfftfreq(len(x), 1 / sr)
        return spec[(f >= lo) & (f < hi)].sum()

    ratio_pink = band_energy(pink.v.samples, 50, 500) / band_energy(
        pink.v.samples, 2000, 4000
    )
    ratio_white = band_energy(white.v.samples, 50, 500) / band_energy(
        white.v.samples, 2000, 4000
    )
    assert ratio_pink > 3 * ratio_white


def test_target_band_limits():
    scene = synth_scene(SceneSpec(seed=7, target=HarmonicTarget(f0_hz=150.0)))
    spec = np.abs(np.fft.rfft(scene.s.samples)) ** 2
    f = np.fft.rfftfreq(len(scene.s), 1 / 8000)
    in_band = spec[(f >= 70) & (f <= 4100)].sum()
    assert in_band / spec.sum() > 0.999


def test_reverb_direct_reference():
    spec = SceneSpec(seed=8, reverb=ReverbSpec(rt60_s=0.3, direct_to_reverb_db=0.0))
    wet = synth_scene(spec)
    dry = synth_scene(SceneSpec(seed=8))
    # The reference target is the direct-path signal, identical to the
    # dry scene's target; the tail lives in the interference channel.
    assert np.array_equal(wet.s.samples, dry.s.samples)
    assert np.array_equal(wet.y.samples, wet.s.samples + wet.v.samples)
    assert not np.array_equal(wet.v.samples, dry.v.samples)


def test_rir_unit_direct_tap_and_decay():
    sr = 8000
    for rt60 in (0.1, 0.2, 0.5):
        h = synth_rir(rt60, sr, seed=3)
        assert h[0] == 1.0
        tail = h[1:]
        win = max(len(tail) // 24, 8)
        n_win = len(tail) // win
        rms = np.array(
            [np.sqrt(np.mean(tail[i * win : (i + 1) * win] ** 2)) for i in range(n_win)]
        )
        t_mid = (np.arange(n_win) + 0.5) * win / sr
        slope = np.polyfit(t_mid, 20 * np.log10(rms), 1)[0]
        est = -60.0 / slope
        assert est == pytest.approx(rt60, rel=0.05)


def test_rir_direct_to_reverb_ratio():
    h = synth_rir(0.3, 8000, seed=1, direct_to_reverb_db=6.0)
    tail_energy = np.sum(h[1:] ** 2)
    assert 10 * np.log10(1.0 / tail_energy) == pytest.approx(6.0, abs=1e-9)


def test_rir_bounds():
    assert synth_rir(0.05, 8000).shape[0] > 1
    with pytest.raises(SpecInvalidError):
        synth_rir(2.0, 8000)
    with pytest.raises(SpecInvalidError):
        synth_rir(0.01, 8000)
    with pytest.raises(SpecInvalidError, match="sample rate must lie in"):
        synth_rir(0.3, 10**30)  # refused before its tail is allocated


@pytest.mark.parametrize("drr", [math.nan, math.inf, -math.inf, -1e9])
def test_rir_and_scene_refuse_a_drr_they_cannot_build(drr):
    # nan and -inf made an all-NaN tail; -1e9 overflowed 10 ** (-drr / 10).
    with pytest.raises(SpecInvalidError, match="direct-to-reverb ratio"):
        synth_rir(0.3, 8000, seed=1, direct_to_reverb_db=drr)
    with pytest.raises(SpecInvalidError, match="direct-to-reverb ratio"):
        synth_scene(SceneSpec(seed=1, reverb=ReverbSpec(rt60_s=0.3, direct_to_reverb_db=drr)))


def test_spec_validation():
    with pytest.raises(SpecInvalidError):
        synth_scene(SceneSpec(seed=0, duration_s=0.1))
    with pytest.raises(SpecInvalidError):
        synth_scene(SceneSpec(seed=0, interference=Interference("white", float("nan"))))
    with pytest.raises(SpecInvalidError):
        synth_scene(SceneSpec(seed=0, interference=Interference("brown", 0.0)))
    with pytest.raises(SpecInvalidError):
        synth_scene(SceneSpec(seed=0, reverb=ReverbSpec(rt60_s=5.0)))


def test_spec_round_trip_dict():
    spec = SceneSpec(
        seed=9,
        duration_s=0.75,
        sample_rate_hz=16000,
        target=HarmonicTarget(f0_hz=210.0),
        interference=Interference("pink", 4.0),
        reverb=ReverbSpec(rt60_s=0.25, direct_to_reverb_db=3.0),
    )
    doc = spec.as_dict()
    assert doc["schema_version"] == 1
    assert doc["rng"] == "philox4x64"
    assert SceneSpec.from_dict(doc) == spec


def test_fft_length_is_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    from magphase.scenes import _fft_length

    ns = [*range(1, 5000), *np.random.default_rng(0).integers(5000, 10**8, 2000).tolist()]
    assert [_fft_length(n) for n in ns] == [next_fast_len(n, real=True) for n in ns]


@pytest.mark.parametrize(
    "duration_s, rate, rt60",
    [(10.0, 16000, 0.3), (1.0, 8000, 0.05), (2.0, 8000, 1.0), (1.0, 8000, 0.37)],
)
def test_reverb_convolution_bit_equal_to_fftconvolve(duration_s, rate, rt60):
    from scipy.signal import fftconvolve

    reverb = ReverbSpec(rt60, direct_to_reverb_db=3.0)
    wet = synth_scene(SceneSpec(seed=4, duration_s=duration_s, sample_rate_hz=rate, reverb=reverb))
    dry = synth_scene(SceneSpec(seed=4, duration_s=duration_s, sample_rate_hz=rate))
    s = dry.s.samples
    h = synth_rir(rt60, rate, seed=4, direct_to_reverb_db=3.0)
    expected = dry.v.samples + (fftconvolve(s, h)[: len(s)] - s)
    assert wet.v.samples.tobytes() == expected.tobytes()
