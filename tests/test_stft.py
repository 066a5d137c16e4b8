import numpy as np
import pytest
from _oracles import loop_istft_adjoint, loop_istft_array, loop_stft_adjoint
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magphase.errors import ConfigInvalidError, ShapeMismatchError
from magphase.stft import (
    _coverage,
    analysis_window,
    consistency_project,
    istft,
    istft_adjoint,
    istft_array,
    num_frames_for,
    stft,
    stft_adjoint,
    stft_array,
    window_pair,
)
from magphase.types import Spectrogram, StftConfig, TimeSignal

CFG_512 = StftConfig.for_window(512, 128)
CFG_200 = StftConfig.for_window(200, 80)


def _rand_signal(seed, n=8000, sr=8000):
    return TimeSignal(np.random.default_rng(seed).standard_normal(n), sr)


def _rand_spec(seed, cfg, frames):
    rng = np.random.default_rng(seed)
    shape = (frames, cfg.num_bins)
    return Spectrogram(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg)


def test_zero_signal_zero_spectrogram():
    X = stft(TimeSignal(np.zeros(1000), 8000), CFG_200)
    assert np.all(X.data == 0)
    back = istft(X, 1000)
    assert np.all(back.samples == 0)


@pytest.mark.parametrize("cfg,sr", [(CFG_512, 16000), (CFG_200, 8000)])
def test_round_trip(cfg, sr):
    x = _rand_signal(1, n=sr, sr=sr)
    back = istft(stft(x, cfg), len(x), sr)
    assert np.max(np.abs(back.samples - x.samples)) < 1e-10


def test_round_trip_awkward_length():
    x = _rand_signal(2, n=7777)
    back = istft(stft(x, CFG_200), len(x))
    assert np.max(np.abs(back.samples - x.samples)) < 1e-10


def test_frame_count():
    X = stft(_rand_signal(0), CFG_200)
    assert X.num_frames == 1 + int(np.ceil(8000 / 80)) == num_frames_for(8000, CFG_200)
    assert X.num_bins == 129


def test_constant_signal_interior_frames_identical():
    X = stft(TimeSignal(np.ones(4000), 8000), CFG_200).data
    interior = X[3:-3]
    assert np.max(np.abs(interior - interior[0])) < 1e-10


def test_linearity():
    cfg = CFG_200
    x = _rand_signal(3, 2000).samples
    y = _rand_signal(4, 2000).samples
    lhs = stft_array(2.5 * x - 1.25 * y, cfg)
    rhs = 2.5 * stft_array(x, cfg) - 1.25 * stft_array(y, cfg)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_forward_matches_direct_windowed_dft():
    cfg = CFG_200
    x = _rand_signal(5, 1200)
    X = stft(x, cfg).data
    wl, hop, nfft = 200, 80, 256
    pad = wl - hop
    buf = np.zeros((X.shape[0] - 1) * hop + wl)
    buf[pad : pad + len(x)] = x.samples
    w = analysis_window(cfg)
    t = 4
    seg = buf[t * hop : t * hop + wl] * w
    f_idx = np.arange(cfg.num_bins)[:, None]
    n_idx = np.arange(wl)[None, :]
    direct = np.sum(seg[None, :] * np.exp(-2j * np.pi * f_idx * n_idx / nfft), axis=1)
    assert np.max(np.abs(direct - X[t])) < 1e-10


def test_window_pair_overlap_sums_to_one():
    for cfg in (CFG_512, CFG_200):
        wp = window_pair(cfg)
        hop, wl = cfg.hop_length_samples, cfg.win_length_samples
        for r in range(hop):
            total = np.sum(wp.analysis[r::hop] * wp.synthesis[r::hop])
            assert abs(total - 1.0) < 1e-12


def test_window_pair_rejects_no_overlap():
    cfg = StftConfig(64, 64, 64)  # sqrt-hann has w[0] = 0
    for _ in range(3):  # a rejected config is never cached
        with pytest.raises(ConfigInvalidError):
            window_pair(cfg)
    with pytest.raises(ConfigInvalidError):
        istft_array(np.zeros((3, cfg.num_bins), dtype=complex), cfg, 100)


def test_istft_shape_mismatch():
    X = _rand_spec(0, CFG_200, 10)
    bad = Spectrogram(X.data[:, :100], StftConfig(200, 80, 256))
    with pytest.raises(ShapeMismatchError):
        istft(bad, 500)


def test_consistency_fixed_point():
    x = _rand_signal(6)
    X = stft(x, CFG_200)
    C = consistency_project(X, len(x))
    assert np.max(np.abs(C.data - X.data)) < 1e-10


def test_consistency_idempotent_on_inconsistent_input():
    X = _rand_spec(7, CFG_200, 60)
    C1 = consistency_project(X)
    C2 = consistency_project(C1)
    assert np.max(np.abs(C2.data - C1.data)) < 1e-10


def test_consistency_changes_random_phase_magnitude():
    # Oracle magnitude with random phase is inconsistent: the projection
    # must move its magnitude by a measurable amount.
    x = _rand_signal(8)
    mag = np.abs(stft(x, CFG_200).data)
    rng = np.random.default_rng(9)
    X = Spectrogram(mag * np.exp(1j * rng.uniform(-np.pi, np.pi, mag.shape)), CFG_200)
    C = consistency_project(X, len(x))
    assert np.linalg.norm(np.abs(C.data) - mag) > 1.0


def test_consistency_out_len_mismatch():
    X = _rand_spec(10, CFG_200, 60)
    with pytest.raises(ShapeMismatchError):
        consistency_project(X, 80 * 200)


def test_istft_nullspace_perturbation():
    X = _rand_spec(11, CFG_200, 40)
    out_len = (40 - 1) * 80
    P = X.data - consistency_project(X).data
    assert np.max(np.abs(istft_array(P, CFG_200, out_len))) < 1e-10


def test_adjoint_dot_products():
    cfg = StftConfig(32, 8, 32)
    n = 300
    frames = num_frames_for(n, cfg)
    rng = np.random.default_rng(12)
    x = rng.standard_normal(n)
    G = rng.standard_normal((frames, cfg.num_bins)) + 1j * rng.standard_normal(
        (frames, cfg.num_bins)
    )
    X = stft_array(x, cfg)
    lhs = np.sum(X.real * G.real + X.imag * G.imag)
    rhs = np.dot(x, stft_adjoint(G, cfg, n))
    assert abs(lhs - rhs) < 1e-9 * abs(lhs)

    Z = rng.standard_normal((frames, cfg.num_bins)) + 1j * rng.standard_normal(
        (frames, cfg.num_bins)
    )
    g = rng.standard_normal(n)
    lhs = np.dot(istft_array(Z, cfg, n), g)
    A = istft_adjoint(g, cfg, frames)
    rhs = np.sum(Z.real * A.real + Z.imag * A.imag)
    assert abs(lhs - rhs) < 1e-9 * abs(lhs)


def test_istft_array_refuses_wrong_bins_and_negative_length():
    # istft validates the container first; istft_array, which the losses
    # call on raw arrays, checks for itself.
    data = np.zeros((3, CFG_200.num_bins), dtype=complex)
    with pytest.raises(ShapeMismatchError, match="128 bins, config implies 129"):
        istft_array(data[:, 1:], CFG_200, 100)
    with pytest.raises(ShapeMismatchError, match="nonnegative"):
        istft_array(data, CFG_200, -1)


def test_istft_pads_when_out_len_exceeds_coverage():
    X = _rand_spec(13, CFG_200, 5)
    y = istft(X, 10_000)
    assert len(y) == 10_000
    assert np.all(y.samples[-100:] == 0)


def test_window_pair_is_cached_and_read_only():
    cfg = StftConfig(48, 12, 64)
    pair = window_pair(cfg)
    assert window_pair(StftConfig(48, 12, 64)) is pair  # equal configs share the plan
    assert pair.analysis is analysis_window(cfg)
    cov, uncovered = _coverage(cfg, 10)
    assert _coverage(cfg, 10)[0] is cov
    for arr in (pair.analysis, pair.synthesis, cov, uncovered):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@st.composite
def stft_cases(draw):
    """A random (config, length) whose hop window_pair accepts, and a data seed."""
    win = draw(st.integers(2, 72))
    hop = draw(st.integers(1, win))
    fft = draw(st.integers(win, win + 20))
    cfg = StftConfig(win, hop, fft)
    try:
        window_pair(cfg)
    except ConfigInvalidError:
        hop = win - 1  # only hop = win has zero overlap power for sqrt-hann
        cfg = StftConfig(win, hop, fft)
    return cfg, draw(st.integers(1, 400)), draw(st.integers(0, 2**31 - 1))


def _random_maps_input(cfg, n, seed):
    rng = np.random.default_rng(seed)
    frames = num_frames_for(n, cfg)
    shape = (frames, cfg.num_bins)
    Z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(n), Z, frames


_EXAMPLES = [
    (StftConfig(200, 80, 256), 1000, 0),
    (StftConfig(512, 128, 512), 1777, 1),
    (StftConfig(7, 3, 8), 50, 2),
    (StftConfig(16, 8, 16), 33, 3),
    (StftConfig(10, 1, 16), 25, 4),
    (StftConfig(9, 4, 9), 40, 5),
]


def _with_examples(test):
    for case in _EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=60, deadline=None)
@_with_examples
@given(stft_cases())
def test_maps_equal_per_frame_loops_bitwise(case):
    cfg, n, seed = case
    x, Z, frames = _random_maps_input(cfg, n, seed)
    for out_len in (n, n + 3 * cfg.win_length_samples):
        assert istft_array(Z, cfg, out_len).tobytes() == loop_istft_array(Z, cfg, out_len).tobytes()
        assert stft_adjoint(Z, cfg, out_len).tobytes() == loop_stft_adjoint(Z, cfg, out_len).tobytes()
    assert istft_adjoint(x, cfg, frames).tobytes() == loop_istft_adjoint(x, cfg, frames).tobytes()


@settings(max_examples=60, deadline=None)
@_with_examples
@given(stft_cases())
def test_round_trip_exact_property(case):
    cfg, n, seed = case
    x, _, _ = _random_maps_input(cfg, n, seed)
    back = istft_array(stft_array(x, cfg), cfg, n)
    assert np.max(np.abs(back - x)) < 1e-10


@settings(max_examples=60, deadline=None)
@_with_examples
@given(stft_cases())
def test_adjoint_identities_property(case):
    # <A u, v> = <u, A* v> to 1e-10 relative to |A u| |v| (Re/Im pairs for complex).
    cfg, n, seed = case
    x, Z, frames = _random_maps_input(cfg, n, seed)
    g, G, _ = _random_maps_input(cfg, n, seed + 1)

    def dot(a, b):
        return float(np.sum(a.real * b.real + a.imag * b.imag))

    X = stft_array(x, cfg)
    lhs, rhs = dot(X, G), dot(x, stft_adjoint(G, cfg, n))
    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(X) * np.linalg.norm(G)
    y = istft_array(Z, cfg, n)
    lhs, rhs = dot(y, g), dot(Z, istft_adjoint(g, cfg, frames))
    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(y) * np.linalg.norm(g)
