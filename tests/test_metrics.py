import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import oracle_msnr, oracle_psnr, oracle_si_sdr, oracle_snr

from magphase.errors import (
    LengthMismatchError,
    MagphaseError,
    NonFiniteError,
    ShapeMismatchError,
    SilentReferenceError,
    ZeroSignalError,
)
from magphase.metrics import (
    MetricReport,
    floored_si_sdr,
    format_db,
    msnr,
    psnr,
    report,
    si_sdr,
    snr,
)
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


def test_snr_and_psnr_refuse_a_silent_reference():
    with pytest.raises(ZeroSignalError, match="all-zero"):
        snr(sig([1.0, 2.0]), sig([0.0, 0.0]))
    with pytest.raises(SilentReferenceError, match="zero energy"):
        psnr(spec(np.ones((2, 3))), spec(np.zeros((2, 3))))


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


@pytest.mark.parametrize("scale", [1e160, 1e200, "max", "estimate"])
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
    if scale == "estimate":
        # Only the estimate is scaled, to a largest part of 1e308: taken at
        # the estimate's scale, the unit-scale reference's energy would
        # underflow to zero.
        c = 1e308 / max(np.max(np.abs(p)) for p in (est.real, est.imag))
        got = metric(make(c * est), make(ref))
        if metric in (si_sdr, psnr):  # blind to the estimate's scale
            want = metric(make(est), make(ref))
        else:  # the error is c * est, up to a part in 1e308
            energy = [float(np.sum(np.abs(x) ** 2)) for x in (ref, est)]
            want = 10.0 * math.log10(energy[0] / energy[1]) - 20.0 * math.log10(c)
        assert got == pytest.approx(want, rel=0, abs=1e-9)
        return
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


@pytest.mark.parametrize("metric", [si_sdr, snr, msnr, psnr], ids=lambda f: f.__name__)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(-1000, 1000))
@example(seed=0, k=-1000)
@example(seed=0, k=-540)
@example(seed=0, k=1000)
def test_metrics_scale_by_powers_of_two_property(metric, seed, k):
    # Each metric is a ratio of energies, so scaling both inputs by 2^k
    # (exact while no entry leaves the normal range) must not change it:
    # not when the sums overflow, and not when they underflow to subnormal
    # numbers or to zero.
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(400)
    est = ref + rng.uniform(0.01, 3.0) * rng.standard_normal(400)
    if metric in (msnr, psnr):
        cfg = StftConfig.for_window(32, 8)
        ref, est = (stft(sig(x), cfg).data for x in (ref, est))

        def make(x):
            return Spectrogram(x, cfg)

    else:
        make = sig
    want = metric(make(est), make(ref))
    got = metric(make(2.0**k * est), make(2.0**k * ref))
    assert math.isfinite(want)
    assert got == pytest.approx(want, rel=0, abs=1e-9)


def test_perfect_magnitude_is_inf_without_a_rescale():
    # A zero error energy against a reference of normal energy is +inf from
    # the first sums. Rescaled, |S / c| and |S| / c differ in the last bit,
    # and the error would be a finite 319 dB.
    ref = np.random.default_rng(1).standard_normal(400)
    S = stft(sig(ref), StftConfig.for_window(32, 8))
    assert msnr(MagSpectrogram(np.abs(S.data), S.config), S) == math.inf


def test_floored_si_sdr_tells_a_silent_estimate_from_a_tiny_reference():
    # The reference's energy underflows to 0 at 1e-165, but it is not silent.
    from magphase.metrics import floored_si_sdr

    ref = np.random.default_rng(2).standard_normal(400)
    assert floored_si_sdr(sig(np.zeros(400)), sig(1e-165 * ref)) == -math.inf
    with pytest.raises(ZeroSignalError):
        floored_si_sdr(sig(1e-165 * ref), sig(np.zeros(400)))


def test_si_sdr_of_an_orthogonal_estimate_is_negative_infinity():
    # No part of the estimate lies along the reference: the target energy
    # is 0, so the ratio is -inf rather than a log-of-zero error.
    assert si_sdr(sig([0.0, 1.0, 0.0]), sig([1.0, 0.0, 0.0])) == -math.inf


# --- one container measured again and again -----------------------------------


def _outcome(metric, est, ref):
    """The metric's float, bit for bit, or its error's type and message."""
    try:
        return metric(est, ref).hex()
    except MagphaseError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    frames=st.integers(1, 6),
    bins=st.integers(1, 9),
    k=st.integers(-1000, 1000),
    exact=st.booleans(),
    silent=st.sampled_from([0.0, 0.3, 1.0]),
)
@example(seed=0, frames=4, bins=5, k=-1000, exact=False, silent=0.3)
@example(seed=0, frames=4, bins=5, k=1000, exact=False, silent=0.3)
@example(seed=1, frames=3, bins=7, k=-540, exact=True, silent=0.3)
@example(seed=2, frames=2, bins=3, k=0, exact=False, silent=1.0)
def test_metrics_on_one_container_twice_equal_the_per_call_oracle(seed, frames, bins, k, exact, silent):
    # Each metric runs twice on the same containers, the second time on
    # the phase S kept from the first, and gives the bits or the error of
    # the oracle that takes every reference term per call: at any
    # power-of-two scale (sums that overflow, underflow or neither), for
    # an exact estimate (+inf), and with silent reference bins and samples.
    rng = np.random.default_rng(seed)
    scale = 2.0**k
    quiet = rng.random((frames, bins)) < silent
    S = np.where(quiet, 0.0, rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins)))
    s = np.where(quiet.ravel(), 0.0, rng.standard_normal(frames * bins))
    gain = 0.0 if exact else rng.uniform(0.01, 3.0)
    E = S + gain * (rng.standard_normal(S.shape) + 1j * rng.standard_normal(S.shape))
    e = s + gain * rng.standard_normal(s.shape)
    S, E = (Spectrogram(scale * x, CFG) for x in (S, E))
    s, e = (sig(scale * x) for x in (s, e))
    cases = [
        (msnr, oracle_msnr, E, S),
        (msnr, oracle_msnr, MagSpectrogram(np.abs(E.data), CFG), S),
        (psnr, oracle_psnr, E, S),
        (si_sdr, oracle_si_sdr, e, s),
        (snr, oracle_snr, e, s),
    ]
    for run in range(2):
        assert ("phase" in vars(S)) == (run == 1)  # the second run reads the kept phase
        for metric, oracle, est, ref in cases:
            assert _outcome(metric, est, ref) == _outcome(oracle, est, ref), metric.__name__


@NON_FINITE
def test_a_non_finite_reference_raises_on_every_call(bad):
    # A container keeps its phase, never a passed check: a NaN or Inf in
    # the reference raises the same error on a second call on it.
    x = np.array([1.0, 2.0, 3.0, 4.0])
    bad_x = x.copy()
    bad_x[2] = bad
    bad_X = np.outer(x, [1.0, 1j, -1.0])
    bad_X[1, 2] = complex(bad, 0.0)
    good, S = sig(x), spec(bad_X)
    cases = [(si_sdr, good, sig(bad_x)), (snr, good, sig(bad_x)), (floored_si_sdr, good, sig(bad_x))]
    cases += [(msnr, S, S), (psnr, spec(np.ones((4, 3))), S)]
    for metric, est, ref in cases:
        with pytest.raises(NonFiniteError) as first:
            metric(est, ref)
        with pytest.raises(NonFiniteError) as again:
            metric(est, ref)
        assert str(again.value) == str(first.value), metric.__name__
    assert "phase" in vars(S)  # psnr's second call read the phase S kept
