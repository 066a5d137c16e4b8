import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magphase.errors import (
    ConfigInvalidError,
    EmptySignalError,
    NonFiniteError,
    ShapeMismatchError,
)
from magphase.masks import MaskKind, MaskMatrix
from magphase.types import (
    MagSpectrogram,
    Spectrogram,
    StftConfig,
    TimeSignal,
    magnitude_of,
    phase_of,
    validate_signal,
    validate_spectrogram,
)

CFG = StftConfig(4, 2, 4)  # 3 bins


def spec(entries):
    return Spectrogram(np.asarray(entries, dtype=complex).reshape(1, 3), CFG)


def test_validate_signal_ok():
    validate_signal(TimeSignal([0.0, 0.0, 0.0], 8000))


def test_validate_signal_nan():
    with pytest.raises(NonFiniteError):
        validate_signal(TimeSignal([float("nan")], 8000))


def test_validate_signal_empty():
    with pytest.raises(EmptySignalError):
        validate_signal(TimeSignal([], 8000))


def test_validate_signal_bad_rate():
    with pytest.raises(ConfigInvalidError):
        validate_signal(TimeSignal([0.1], 0))


def test_magnitude_pythagorean():
    m = magnitude_of(spec([3 + 4j, 0, 1 + 1j]))
    assert m.data[0, 0] == 5.0
    assert m.data[0, 1] == 0.0
    assert m.data[0, 2] == pytest.approx(np.sqrt(2), abs=1e-12)


def test_magnitude_all_zero():
    m = magnitude_of(spec([0, 0, 0]))
    assert np.all(m.data == 0)


def test_phase_conventions():
    p = phase_of(spec([1j, -1 + 0j, 0 + 0j]))
    assert p[0, 0] == pytest.approx(np.pi / 2)
    assert p[0, 1] == pytest.approx(np.pi)
    assert p[0, 2] == 0.0


def test_phase_of_negative_zero_is_zero():
    p = phase_of(spec([complex(-0.0, 0.0), complex(-0.0, -0.0), 1]))
    assert p[0, 0] == 0.0
    assert p[0, 1] == 0.0


@settings(max_examples=50)
@given(st.integers(0, 2**31 - 1))
def test_polar_reconstruction(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    z[0, 0] = 0.0
    X = Spectrogram(z, StftConfig(4, 2, 4))
    rebuilt = magnitude_of(X).data * np.exp(1j * phase_of(X))
    assert np.all(np.abs(rebuilt - z) < 1e-12)
    assert rebuilt[0, 0] == 0.0


@settings(max_examples=50)
@given(st.integers(0, 2**31 - 1))
def test_magnitude_conjugation_invariant(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    cfg = StftConfig(4, 2, 4)
    a = magnitude_of(Spectrogram(z, cfg)).data
    b = magnitude_of(Spectrogram(np.conj(z), cfg)).data
    assert np.array_equal(a, b)


def test_spectrogram_bin_mismatch():
    with pytest.raises(ShapeMismatchError):
        validate_spectrogram(Spectrogram(np.zeros((2, 5), dtype=complex), CFG))


def test_spectrogram_nonfinite():
    bad = np.zeros((1, 3), dtype=complex)
    bad[0, 1] = np.inf
    with pytest.raises(NonFiniteError):
        validate_spectrogram(Spectrogram(bad, CFG))


def test_magnitude_negative_rejected():
    with pytest.raises(ShapeMismatchError):
        validate_spectrogram(MagSpectrogram(np.array([[-0.1, 0, 0]]), CFG))


def test_magnitude_container_refuses_a_negative_entry():
    # msnr(MagSpectrogram(-|S|), S) read -6.02 dB: only validate_magnitude
    # checked the sign, and no metric calls it.
    S = spec([1 + 1j, -2, 0.5j])
    with pytest.raises(ShapeMismatchError, match="magnitude matrix has negative entries"):
        MagSpectrogram(-np.abs(S.data), CFG)
    signed_zero = MagSpectrogram(np.array([[-0.0, 0.0, 1.0]]), CFG)  # -0.0 is not below 0
    validate_spectrogram(signed_zero)
    with pytest.raises(NonFiniteError):  # -inf is refused as non-finite, like +inf and NaN
        validate_spectrogram(MagSpectrogram(np.array([[-np.inf, 0.0, 1.0]]), CFG))


def test_spectrogram_keeps_its_phase_read_only():
    # S.phase is phase_of(S) bit for bit, taken once and kept; a caller
    # cannot write into the copy every later reader shares.
    X = spec([1j, -1 + 0j, complex(-0.0, 0.0)])
    phase = X.phase
    assert phase.tobytes() == phase_of(X).tobytes()
    assert X.phase is phase
    assert phase is not phase_of(X)  # every other caller still gets a fresh array
    with pytest.raises(ValueError):
        phase[0, 0] = 0.0


def test_containers_are_readonly():
    sig = TimeSignal([1.0, 2.0], 8000)
    with pytest.raises(ValueError):
        sig.samples[0] = 5.0
    X = spec([1, 2, 3])
    with pytest.raises(ValueError):
        X.data[0, 0] = 0


def test_an_adopted_array_is_frozen_in_place_and_never_cast():
    # adopt=True takes the array itself, read-only; one that would need a
    # cast is refused (NumPy 2's copy=False), never silently copied.
    samples = np.array([1.0, 2.0])
    assert TimeSignal(samples, 8000, adopt=True).samples is samples
    assert not samples.flags.writeable
    data = np.ones((2, 3), np.complex128)
    assert Spectrogram(data, CFG, adopt=True).data is data
    with pytest.raises(ValueError):
        TimeSignal(np.array([1, 2]), 8000, adopt=True)
    with pytest.raises(ValueError):
        Spectrogram(np.ones((2, 3)), CFG, adopt=True)


def test_config_invariants():
    with pytest.raises(ConfigInvalidError):
        StftConfig(4, 5, 8)  # hop > window
    with pytest.raises(ConfigInvalidError):
        StftConfig(8, 2, 4)  # fft < window
    with pytest.raises(ConfigInvalidError):
        StftConfig(0, 1, 4)
    with pytest.raises(ConfigInvalidError, match="at least 2 samples"):
        StftConfig(1, 1, 1)  # a one-sample periodic window is identically 0


def test_config_for_window_pow2():
    assert StftConfig.for_window(512, 128).fft_size == 512
    assert StftConfig.for_window(200, 80).fft_size == 256
    assert StftConfig.for_window(200, 80).num_bins == 129


def test_config_from_ms():
    cfg = StftConfig.from_ms(32, 8, 16000)
    assert (cfg.win_length_samples, cfg.hop_length_samples) == (512, 128)
    cfg = StftConfig.from_ms(25, 10, 8000)
    assert (cfg.win_length_samples, cfg.hop_length_samples) == (200, 80)


@pytest.mark.parametrize(
    "make, arg, match",
    [
        (lambda a: TimeSignal(a, 8000), np.zeros((2, 2)), "time signal must be 1-D"),
        (lambda a: Spectrogram(a, CFG), np.zeros(3), "spectrogram must be 2-D"),
        (lambda a: MagSpectrogram(a, CFG), np.zeros(3), "magnitude matrix must be 2-D"),
    ],
    ids=["time_signal", "spectrogram", "magnitude"],
)
def test_containers_refuse_wrong_ndim(make, arg, match):
    with pytest.raises(ShapeMismatchError, match=match):
        make(arg)


@pytest.mark.parametrize(
    "make, field, dtype",
    [
        (lambda a: TimeSignal(a.reshape(-1), 8000), "samples", np.float64),
        (lambda a: Spectrogram(a, CFG), "data", np.complex128),
        (lambda a: MagSpectrogram(a, CFG), "data", np.float64),
        (lambda a: MaskMatrix(a, MaskKind.IAM), "data", np.float64),
    ],
    ids=["time_signal", "spectrogram", "magnitude", "mask"],
)
def test_containers_cast_copy_and_freeze(make, field, dtype):
    source = np.array([[1, 2, 3]], dtype=np.int32)
    arr = getattr(make(source), field)
    source[0, 0] = 9  # the container holds a copy
    assert arr.dtype == dtype
    assert arr.reshape(-1)[0] == 1
    with pytest.raises(ValueError):
        arr.reshape(-1)[0] = 5


def test_magnitude_bin_mismatch():
    with pytest.raises(ShapeMismatchError, match="magnitude matrix has 5 bins, config implies 3"):
        validate_spectrogram(MagSpectrogram(np.zeros((2, 5)), CFG))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_magnitude_nonfinite(bad):
    data = np.zeros((1, 3))
    data[0, 1] = bad
    with pytest.raises(NonFiniteError, match="magnitude matrix contains NaN or Inf"):
        validate_spectrogram(MagSpectrogram(data, CFG))
