import numpy as np
import pytest

from magphase.compensation import (
    compensated_magnitude,
    histogram2d,
    optimal_magnitude_along_phase,
    phase_diff_map,
)
from magphase.errors import ConfigInvalidError, ShapeMismatchError
from magphase.scenes import SceneSpec, synth_scene
from magphase.stft import stft
from magphase.types import MagSpectrogram, Spectrogram, StftConfig, magnitude_of

CFG = StftConfig(4, 2, 4)
CFG_SCENE = StftConfig.for_window(200, 80)


def spec(data):
    return Spectrogram(np.asarray(data, dtype=complex), CFG)


@pytest.fixture(scope="module")
def scene_pair():
    scene = synth_scene(SceneSpec(seed=3, duration_s=1.0, sample_rate_hz=8000))
    return stft(scene.s, CFG_SCENE), stft(scene.y, CFG_SCENE)


# --- closed-form optimum --------------------------------------------------------


def test_l2_optimum_hand_values():
    s = 1.0 + 0.0j
    assert optimal_magnitude_along_phase(s, np.pi / 3) == pytest.approx(0.5, abs=1e-12)
    assert optimal_magnitude_along_phase(s, 2 * np.pi / 3) == 0.0
    assert optimal_magnitude_along_phase(s, 0.0) == 1.0
    assert optimal_magnitude_along_phase(s, 2 * np.pi / 3, nonneg=False) == pytest.approx(
        np.cos(2 * np.pi / 3), abs=1e-12
    )


def test_l2_optimum_matches_grid_search():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        z = complex(rng.normal(), rng.normal())
        phase = rng.uniform(-np.pi, np.pi)
        closed = optimal_magnitude_along_phase(z, phase, "l2", True)
        step = max(abs(z), 1e-9) * 1e-4
        grid = np.arange(0.0, 2 * abs(z) + step, step)
        vals = np.abs(grid * np.exp(1j * phase) - z) ** 2
        best = grid[np.argmin(vals)]
        assert abs(closed - best) <= max(abs(z), 1e-9) * 2e-4


def test_l2_optimum_monotone_in_phase_offset():
    z = 1.7 + 0.0j
    offsets = np.linspace(0, np.pi, 50)
    values = [optimal_magnitude_along_phase(z, d) for d in offsets]
    assert values[0] == pytest.approx(1.7, abs=1e-12)
    assert all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))
    assert all(v == 0 for d, v in zip(offsets, values) if d > np.pi / 2 + 1e-9)


def test_l1_optimum_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = complex(rng.normal(), rng.normal())
        phase = rng.uniform(-np.pi, np.pi)
        got = optimal_magnitude_along_phase(z, phase, "l1", nonneg=True)
        c, d = np.cos(phase), np.sin(phase)
        grid = np.linspace(0.0, 2 * abs(z) + 1e-12, 40001)
        vals = np.abs(grid * c - z.real) + np.abs(grid * d - z.imag)
        f_got = abs(got * c - z.real) + abs(got * d - z.imag)
        assert f_got <= vals.min() + 1e-6


def test_optimum_zero_input():
    assert optimal_magnitude_along_phase(0j, 1.0, "l2") == 0.0
    assert optimal_magnitude_along_phase(0j, 1.0, "l1") == 0.0


def test_optimum_rejects_unknown_norm():
    with pytest.raises(ConfigInvalidError):
        optimal_magnitude_along_phase(1 + 1j, 0.0, "l3")


# --- phase difference map --------------------------------------------------------


def test_phase_diff_map_values():
    S = spec([[1 + 0j, -2 + 0j, 1 + 0j]])
    Y = spec([[1 + 0j, 2 + 0j, 1j]])
    out = phase_diff_map(S, Y)
    assert out[0, 0] == pytest.approx(1.0)
    assert out[0, 1] == pytest.approx(-1.0)
    assert out[0, 2] == pytest.approx(0.0, abs=1e-12)


def test_phase_diff_identity_and_negation():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    S = spec(z)
    assert np.allclose(phase_diff_map(S, S), 1.0)
    assert np.allclose(phase_diff_map(S, spec(-z)), -1.0)


# --- histogram --------------------------------------------------------------------


def test_histogram_oracle_magnitude_single_row(scene_pair):
    S, Y = scene_pair
    hist = histogram2d(magnitude_of(S), S, Y)
    # ratio is exactly 1.0 everywhere; 1.0 is a bin edge and lands in the
    # bin whose left edge it is.
    row = np.searchsorted(hist.y_edges, 1.0, side="right") - 1
    assert hist.counts[:, row].sum() == hist.total
    assert hist.total > 0


def test_histogram_ratio_clamped_at_two(scene_pair):
    S, Y = scene_pair
    big = MagSpectrogram(3.0 * np.abs(S.data), S.config)
    hist = histogram2d(big, S, Y)
    assert hist.counts[:, -1].sum() == hist.total


def test_histogram_energy_floor_count(scene_pair):
    S, Y = scene_pair
    hist = histogram2d(magnitude_of(S), S, Y, floor_db=60.0)
    mag = np.abs(S.data)
    expected = int(np.sum(mag > mag.max() * 10.0 ** (-60.0 / 20.0)))
    assert hist.total == expected
    tighter = histogram2d(magnitude_of(S), S, Y, floor_db=20.0)
    assert tighter.total < hist.total


def test_histogram_compensated_oracle_on_diagonal(scene_pair):
    S, Y = scene_pair
    hist = histogram2d(compensated_magnitude(S, Y), S, Y)
    xc = hist.x_centers()
    on_band = 0
    for i, x in enumerate(xc):
        target = max(0.0, x)
        j = min(np.searchsorted(hist.y_edges, target, side="right") - 1, 49)
        lo, hi = max(j - 1, 0), min(j + 1, 49)
        on_band += hist.counts[i, lo : hi + 1].sum()
    assert on_band >= 0.99 * hist.total


def test_histogram_shape_mismatch():
    S = spec(np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError):
        histogram2d(MagSpectrogram(np.ones((3, 3)), CFG), S, S)


def test_histogram_exports(tmp_path, scene_pair):
    S, Y = scene_pair
    hist = histogram2d(magnitude_of(S), S, Y)
    csv_path = tmp_path / "h.csv"
    pgm_path = tmp_path / "h.pgm"
    hist.to_csv(csv_path)
    hist.to_pgm(pgm_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x_center,y_center,count"
    assert len(lines) == 1 + 50 * 50
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == hist.total
    blob = pgm_path.read_bytes()
    assert blob.startswith(b"P5\n50 50\n255\n")
    assert len(blob) == len(b"P5\n50 50\n255\n") + 50 * 50
