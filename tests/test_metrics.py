import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magphase.errors import (
    LengthMismatchError,
    NonFiniteError,
    ShapeMismatchError,
    SilentReferenceError,
    ZeroSignalError,
)
from magphase.metrics import MetricReport, format_db, msnr, psnr, report, si_sdr, snr
from magphase.stft import stft
from magphase.types import MagSpectrogram, Spectrogram, StftConfig, TimeSignal

CFG = StftConfig(4, 2, 4)


def sig(arr):
    return TimeSignal(np.asarray(arr, dtype=float), 8000)


def spec(data):
    return Spectrogram(np.asarray(data, dtype=complex), CFG)


# --- SI-SDR -------------------------------------------------------------------


def test_si_sdr_gain_invariant_perfect():
    rng = np.random.default_rng(0)
    s = sig(rng.standard_normal(500))
    assert si_sdr(sig(2.0 * s.samples), s) == math.inf


def test_si_sdr_orthogonal_error_zero_db():
    # e perpendicular to s with equal energy: ratio is exactly 1.
    s = sig([1.0, 0.0])
    est = sig([1.0, 1.0])
    assert si_sdr(est, s) == pytest.approx(0.0, abs=1e-12)


def test_si_sdr_scale_invariance():
    rng = np.random.default_rng(1)
    s = sig(rng.standard_normal(400))
    est = sig(s.samples + 0.3 * rng.standard_normal(400))
    base = si_sdr(est, s)
    for c in (0.01, -2.5, 1000.0):
        assert si_sdr(sig(c * est.samples), s) == pytest.approx(base, abs=1e-9)


@settings(max_examples=60)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 2000),
    st.floats(-6.0, 6.0),
    st.booleans(),
)
def test_si_sdr_scale_invariance_property(seed, length, log10_scale, negative):
    rng = np.random.default_rng(seed)
    s = sig(rng.standard_normal(length))
    est = sig(s.samples + rng.uniform(0.01, 1.0) * rng.standard_normal(length))
    c = (-1.0 if negative else 1.0) * 10.0**log10_scale
    assert si_sdr(sig(c * est.samples), s) == pytest.approx(si_sdr(est, s), abs=1e-9)


def test_si_sdr_alpha_minimizes_residual():
    # The gain applied to the reference is the least-squares minimizer of
    # ||est - g*ref||; verify against a dense grid.
    rng = np.random.default_rng(2)
    s = rng.standard_normal(300)
    est = 0.7 * s + 0.5 * rng.standard_normal(300)
    alpha = np.dot(s, est) / np.dot(s, s)
    grid = np.linspace(alpha - 1.0, alpha + 1.0, 4001)
    resid = np.array([np.sum((est - g * s) ** 2) for g in grid])
    assert np.sum((est - alpha * s) ** 2) <= resid.min() + 1e-12


def test_si_sdr_errors():
    with pytest.raises(ZeroSignalError):
        si_sdr(sig([0.0, 0.0]), sig([1.0, 2.0]))
    with pytest.raises(ZeroSignalError):
        si_sdr(sig([1.0, 2.0]), sig([0.0, 0.0]))
    with pytest.raises(LengthMismatchError):
        si_sdr(sig([1.0]), sig([1.0, 2.0]))


NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])


@NON_FINITE
def test_si_sdr_rejects_non_finite_input(bad):
    ref = sig([1.0, 2.0, 3.0])
    with pytest.raises(NonFiniteError):
        si_sdr(sig([bad, 1.0, 2.0]), ref)
    with pytest.raises(NonFiniteError):
        si_sdr(ref, sig([bad, 1.0, 2.0]))


# --- SNR ----------------------------------------------------------------------


@NON_FINITE
def test_snr_rejects_non_finite_input(bad):
    ref = sig([1.0, 2.0, 3.0])
    with pytest.raises(NonFiniteError):
        snr(sig([bad, 1.0, 2.0]), ref)
    with pytest.raises(NonFiniteError):
        snr(ref, sig([bad, 1.0, 2.0]))


def test_snr_values():
    rng = np.random.default_rng(3)
    s = sig(rng.standard_normal(100))
    assert snr(s, s) == math.inf
    assert snr(sig(np.zeros(100)), s) == pytest.approx(0.0, abs=1e-12)
    assert snr(sig(2.0 * s.samples), s) == pytest.approx(0.0, abs=1e-12)


# --- mSNR ---------------------------------------------------------------------


def test_msnr_values():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    S = spec(z)
    assert msnr(MagSpectrogram(np.abs(z), CFG), S) == math.inf
    assert msnr(MagSpectrogram(np.zeros((5, 3)), CFG), S) == pytest.approx(0.0, abs=1e-12)
    half = msnr(MagSpectrogram(0.5 * np.abs(z), CFG), S)
    assert half == pytest.approx(10 * math.log10(4.0), abs=1e-9)


def test_msnr_phase_rotation_invariant():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    w = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    S = spec(z)
    rot = np.exp(1j * rng.uniform(-np.pi, np.pi, (5, 3)))
    assert msnr(spec(w), S) == pytest.approx(msnr(spec(w * rot), S), abs=1e-9)


def test_msnr_errors():
    S = spec(np.zeros((2, 3)))
    with pytest.raises(SilentReferenceError):
        msnr(S, S)
    with pytest.raises(ShapeMismatchError):
        msnr(spec(np.zeros((1, 3))), spec(np.ones((2, 3))))


@NON_FINITE
def test_msnr_rejects_non_finite_estimate(bad):
    S = spec(np.ones((2, 3)))
    est = np.ones((2, 3))
    est[1, 2] = bad
    with pytest.raises(NonFiniteError):
        msnr(MagSpectrogram(est, CFG), S)
    with pytest.raises(NonFiniteError):
        msnr(spec(est), S)
    with pytest.raises(NonFiniteError):
        msnr(MagSpectrogram(np.ones((2, 3)), CFG), spec(est))  # in the reference


# --- pSNR ---------------------------------------------------------------------


@NON_FINITE
def test_psnr_rejects_non_finite_estimate(bad):
    S = spec(np.ones((2, 3)))
    est = np.ones((2, 3), dtype=complex)
    est[1, 2] = complex(bad, 0.0)  # angle(inf) is finite: the phase alone would not show it
    with pytest.raises(NonFiniteError):
        psnr(spec(est), S)
    with pytest.raises(NonFiniteError):
        psnr(S, spec(est))  # in the reference


def test_psnr_perfect_phase():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    S = spec(z)
    assert psnr(spec(3.7 * z), S) == math.inf  # same phase, any magnitude


def test_psnr_antiphase():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    S = spec(z)
    assert psnr(spec(-z), S) == pytest.approx(10 * math.log10(0.25), abs=1e-9)


def test_psnr_trig_identity():
    # psnr must agree with the direct complex-difference form
    # |S - |S| e^{j theta}|^2 on random inputs.
    rng = np.random.default_rng(8)
    for _ in range(20):
        z = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        w = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        cfg = StftConfig(6, 3, 6)
        S, est = Spectrogram(z, cfg), Spectrogram(w, cfg)
        got = psnr(est, S)
        resynth = np.abs(z) * np.exp(1j * np.angle(w))
        oracle = 10 * math.log10(
            float(np.sum(np.abs(z) ** 2) / np.sum(np.abs(z - resynth) ** 2))
        )
        assert got == pytest.approx(oracle, abs=1e-9)


def test_psnr_magnitude_rescale_invariant():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    w = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    S = spec(z)
    gains = rng.uniform(0.1, 10.0, (4, 3))
    assert psnr(spec(w), S) == pytest.approx(psnr(spec(w * gains), S), abs=1e-9)


def test_psnr_ignores_phase_at_silent_reference_bins():
    S = spec([[0, 2 + 0j, 0]])
    a = psnr(spec([[5j, 2 + 0j, -3]]), S)
    b = psnr(spec([[1, 2 + 0j, 9j]]), S)
    assert a == b == math.inf


# --- report / serialization ----------------------------------------------------


def test_format_db():
    assert format_db(math.inf) == "inf"
    assert format_db(-math.inf) == "-inf"
    assert format_db(1.23456789) == "1.2346"


def test_report_keys_and_inf_serialization():
    rng = np.random.default_rng(10)
    s = TimeSignal(rng.standard_normal(400), 8000)
    cfg = StftConfig.for_window(64, 16)
    rep = report(s, s, stft(s, cfg), stft(s, cfg))
    doc = json.loads(rep.to_json())
    assert set(doc.keys()) == {"si_sdr_db", "snr_db", "msnr_db", "psnr_db"}
    assert all(doc[k] == "inf" for k in doc)
    assert rep.csv_header() == "si_sdr_db,snr_db,msnr_db,psnr_db"
    assert rep.csv_row() == "inf,inf,inf,inf"


def test_report_silent_estimate():
    rng = np.random.default_rng(11)
    s = TimeSignal(rng.standard_normal(400), 8000)
    silent = TimeSignal(np.zeros(400), 8000)
    cfg = StftConfig.for_window(64, 16)
    rep = report(silent, s, stft(silent, cfg), stft(s, cfg))
    assert rep.si_sdr_db == -math.inf
    assert rep.snr_db == pytest.approx(0.0, abs=1e-12)
    assert rep.msnr_db == pytest.approx(0.0, abs=1e-12)
    assert not math.isnan(rep.psnr_db)
    assert json.loads(rep.to_json())["si_sdr_db"] == "-inf"


@settings(max_examples=25)
@given(st.integers(0, 2**31 - 1))
def test_report_never_nan(seed):
    rng = np.random.default_rng(seed)
    s = TimeSignal(rng.standard_normal(300), 8000)
    est = TimeSignal(rng.standard_normal(300) * rng.uniform(0, 2), 8000)
    cfg = StftConfig.for_window(32, 8)
    rep = report(est, s, stft(est, cfg), stft(s, cfg))
    for key in ("si_sdr_db", "snr_db", "msnr_db", "psnr_db"):
        assert not math.isnan(getattr(rep, key))


# --- energies that overflow ----------------------------------------------------


@pytest.mark.parametrize("scale", [1e160, 1e200, "max"])
@pytest.mark.parametrize("metric", [si_sdr, snr, msnr, psnr], ids=lambda f: f.__name__)
def test_metrics_survive_energy_overflow(metric, scale):
    # Every energy sum of the scaled pair overflows float64 while its
    # entries stay finite; each metric is a ratio of such sums, so it must
    # match the unscaled pair's, with no NaN, no error and no warning.
    rng = np.random.default_rng(12)
    ref = rng.standard_normal(400)
    est = ref + 0.3 * rng.standard_normal(400)
    if metric in (msnr, psnr):
        cfg = StftConfig.for_window(32, 8)
        ref, est = (stft(sig(x), cfg).data for x in (ref, est))

        def make(x):
            return Spectrogram(x, cfg)

    else:
        make = sig
    pairs = [(est, ref)]
    if scale == "max":
        # Every real and imaginary part stays under the float64 maximum,
        # but the largest modulus overflows; the spectrogram holding it
        # serves as the estimate and then as the reference.
        part = max(np.max(np.abs(p)) for x in (ref, est) for p in (x.real, x.imag))
        top = max(np.max(np.abs(x)) for x in (ref, est))
        scale = 0.99 * np.finfo(np.float64).max / np.sqrt(part * top)
        if metric in (msnr, psnr):
            with np.errstate(over="ignore"):
                assert not all(np.all(np.isfinite(np.abs(scale * x))) for x in (ref, est))
        pairs.append((ref, est))
    for e, r in pairs:
        want = metric(make(e), make(r))
        got = metric(make(scale * e), make(scale * r))
        assert math.isfinite(want)
        assert got == pytest.approx(want, rel=0, abs=1e-9)
