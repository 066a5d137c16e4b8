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
from magphase.types import (
    LossKind,
    LossTag,
    MagSpectrogram,
    Spectrogram,
    StftConfig,
    magnitude_of,
)

CFG = StftConfig(4, 2, 4)
CFG_SCENE = StftConfig.for_window(200, 80)


def spec(data):
    return Spectrogram(np.asarray(data, dtype=complex), CFG)


@pytest.fixture(scope="module")
def scene_pair():
    scene = synth_scene(SceneSpec(seed=3, duration_s=1.0, sample_rate_hz=8000))
    return stft(scene.s, CFG_SCENE), stft(scene.y, CFG_SCENE)


# --- closed-form optimum --------------------------------------------------------

L2 = LossKind(LossTag.L2_COMPLEX)
RI = LossKind(LossTag.RI)


def ri_objective(kind, S, phase, m):
    """Per-unit tw (|m c - a| + |m d - b|) + mw ||m| - |S||, written out by hand."""
    mw = kind.mag_weight if kind.tag is LossTag.RI_MAG else 0.0
    c, d = np.cos(phase), np.sin(phase)
    return kind.time_weight * (np.abs(m * c - S.real) + np.abs(m * d - S.imag)) + mw * np.abs(
        np.abs(m) - np.abs(S)
    )


def test_l2_optimum_hand_values():
    S = spec([[1.0, 1.0, 1.0, 1.0]])
    phase = np.array([[np.pi / 3, 2 * np.pi / 3, 0.0, 2 * np.pi / 3]])
    got = optimal_magnitude_along_phase(L2, S, phase)
    np.testing.assert_allclose(got[0, :3], [0.5, 0.0, 1.0], rtol=0, atol=1e-12)
    # With a magnitude term of weight 1: (cos(2 pi / 3) + 1) / 2 = 0.25.
    mag = optimal_magnitude_along_phase(LossKind(LossTag.L2_COMPLEX_MAG), S, phase)
    assert mag[0, 3] == pytest.approx(0.25, abs=1e-12)
    # The time weight alone does not move the L2 optimum.
    heavy = optimal_magnitude_along_phase(LossKind(LossTag.L2_COMPLEX, time_weight=2.5), S, phase)
    np.testing.assert_allclose(heavy, got, rtol=0, atol=1e-15)


def test_l2_optimum_matches_grid_search():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(1000, 1)) + 1j * rng.normal(size=(1000, 1))
    phase = rng.uniform(-np.pi, np.pi, (1000, 1))
    closed = optimal_magnitude_along_phase(L2, spec(z), phase)
    for k in range(1000):
        r = abs(z[k, 0])
        step = max(r, 1e-9) * 1e-4
        grid = np.arange(0.0, 2 * r + step, step)
        best = grid[np.argmin(np.abs(grid * np.exp(1j * phase[k, 0]) - z[k, 0]) ** 2)]
        assert abs(closed[k, 0] - best) <= max(r, 1e-9) * 2e-4


def test_l2_optimum_monotone_in_phase_offset():
    offsets = np.linspace(0, np.pi, 50).reshape(1, 50)
    values = optimal_magnitude_along_phase(L2, spec(np.full((1, 50), 1.7)), -offsets)[0]
    assert values[0] == pytest.approx(1.7, abs=1e-12)
    assert np.all(np.diff(values) <= 1e-12)
    assert np.all(values[offsets[0] > np.pi / 2 + 1e-9] == 0)


def test_l1_optimum_matches_brute_force():
    # The weighted median is no worse than the best of a fine grid, for
    # the L1 pair with and without their weights.
    rng = np.random.default_rng(1)
    z = rng.normal(size=(100, 1)) + 1j * rng.normal(size=(100, 1))
    phase = rng.uniform(-np.pi, np.pi, (100, 1))
    for kind in (
        RI,
        LossKind(LossTag.RI, time_weight=0.3),
        LossKind(LossTag.RI_MAG),
        LossKind(LossTag.RI_MAG, time_weight=2.5, mag_weight=0.5),
        LossKind(LossTag.RI_MAG, time_weight=0.3, mag_weight=3.0),
        LossKind(LossTag.RI_MAG, time_weight=0.0),
    ):
        got = optimal_magnitude_along_phase(kind, spec(z), phase)
        assert np.all(got >= 0)
        f_got = ri_objective(kind, z, phase, got)
        for k in range(100):
            grid = np.linspace(0.0, 3 * abs(z[k, 0]) + 1e-12, 40001)
            best = ri_objective(kind, z[k, 0], phase[k, 0], grid).min()
            assert f_got[k, 0] <= best + 1e-12, kind


def test_l1_optimum_hand_values():
    # Phase 0 gives the RI loss |m - a| + |b|, least at m = a; phase pi/2
    # (cos = 6e-17, not 0) gives it least at m = b; ri+mag at phase pi/4
    # and S = 3: weights 0.71, 0.71, 1 on points 4.24, 0, 3 put the median at 3.
    S = spec([[2 - 1j, 2 + 5j, -2 + 1j, 3.0]])
    phase = np.array([[0.0, np.pi / 2, 0.0, np.pi / 4]])
    got = optimal_magnitude_along_phase(RI, S, phase)
    np.testing.assert_allclose(got[0, :3], [2.0, 5.0, 0.0], rtol=1e-15, atol=0)
    assert optimal_magnitude_along_phase(LossKind(LossTag.RI_MAG), S, phase)[0, 3] == 3.0


def test_optimum_zero_input():
    zero = spec(np.zeros((2, 3)))
    phase = np.random.default_rng(4).uniform(-np.pi, np.pi, (2, 3))
    phase[0, 0] = 0.0  # a cos or sin of exactly 0 drops its point
    for tag in (LossTag.L2_COMPLEX, LossTag.L2_COMPLEX_MAG, LossTag.RI, LossTag.RI_MAG):
        got = optimal_magnitude_along_phase(LossKind(tag), zero, phase)
        assert got.tobytes() == np.zeros((2, 3)).tobytes(), tag


@pytest.mark.parametrize(
    "kind",
    [
        LossKind(LossTag.MSA),
        LossKind(LossTag.PHASE),
        LossKind(LossTag.RI_ISTFT),
        LossKind(LossTag.RI, time_weight=0.0),
        LossKind(LossTag.L2_COMPLEX_MAG, time_weight=0.0, mag_weight=0.0),
    ],
    ids=lambda k: f"{k.tag.value}-{k.time_weight}-{k.mag_weight}",
)
def test_optimum_rejects_kind_without_closed_form(kind):
    with pytest.raises(ConfigInvalidError):
        optimal_magnitude_along_phase(kind, spec(np.ones((1, 3))), np.zeros((1, 3)))


def test_optimum_rejects_phase_of_another_shape():
    with pytest.raises(ShapeMismatchError):
        optimal_magnitude_along_phase(L2, spec(np.ones((1, 3))), np.zeros((2, 3)))


def test_compensated_magnitude_bytes_equal_hand_form(scene_pair):
    S, Y = scene_pair
    want = np.abs(S.data) * np.maximum(phase_diff_map(S, Y), 0.0)
    assert compensated_magnitude(S, Y).data.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("floor_db", [-20.0, 0.0, np.nan], ids=["negative", "zero", "nan"])
def test_histogram_refuses_a_floor_that_is_not_positive(scene_pair, floor_db):
    # Each of these used to keep no unit at all and return an empty histogram.
    S, Y = scene_pair
    with pytest.raises(ConfigInvalidError, match=f"floor_db must be positive, got {floor_db:g}"):
        histogram2d(magnitude_of(S), S, Y, floor_db=floor_db)


def test_histogram_infinite_floor_keeps_every_nonzero_unit(scene_pair):
    S, Y = scene_pair
    S = Spectrogram(np.where(np.arange(S.num_bins) % 7 == 0, 0.0, S.data), S.config)
    hist = histogram2d(magnitude_of(S), S, Y, floor_db=np.inf)
    assert hist.total == np.count_nonzero(S.data)


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
    csv_path.write_text("".join(hist.csv()))
    pgm_path.write_bytes(hist.pgm())
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x_center,y_center,count"
    assert len(lines) == 1 + 50 * 50
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == hist.total
    blob = pgm_path.read_bytes()
    assert blob.startswith(b"P5\n50 50\n255\n")
    assert len(blob) == len(b"P5\n50 50\n255\n") + 50 * 50
