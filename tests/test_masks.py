import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magphase.errors import ConfigInvalidError, ShapeMismatchError
from magphase.masks import (
    MaskKind,
    apply_mask_resynth,
    iam,
    masked_magnitude,
    psa_target,
    psm,
)
from magphase.metrics import msnr
from magphase.scenes import SceneSpec, synth_scene
from magphase.stft import istft, stft
from magphase.types import MagSpectrogram, Spectrogram, StftConfig, magnitude_of

CFG = StftConfig(4, 2, 4)
CFG_SCENE = StftConfig.for_window(200, 80)


def unit_spec(*entries):
    return Spectrogram(np.asarray(entries, dtype=complex).reshape(1, -1), CFG)


@pytest.fixture(scope="module")
def noisy_pair():
    scene = synth_scene(SceneSpec(seed=0, duration_s=1.0, sample_rate_hz=8000))
    return scene, stft(scene.s, CFG_SCENE), stft(scene.y, CFG_SCENE)


def test_iam_single_units():
    S = unit_spec(1 + 0j, 0 + 0j, 2 + 0j)
    Y = unit_spec(1 + 1j, 1 + 0j, 2 + 0j)
    m = iam(S, Y)
    assert m.kind is MaskKind.IAM
    assert m.data[0, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-5)
    assert m.data[0, 1] == 0.0
    assert m.data[0, 2] == 1.0


def test_iam_identity_when_clean():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    S = Spectrogram(z, CFG)
    assert np.allclose(iam(S, S).data, 1.0)


def test_psm_single_units():
    S = unit_spec(1 + 0j)
    Y = unit_spec(1 + 1j)
    assert psm(S, Y).data[0, 0] == pytest.approx(0.5, abs=1e-9)


def test_psm_identity_when_clean():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    S = Spectrogram(z, CFG)
    assert np.allclose(psm(S, S).data, 1.0)


def test_psm_negative_and_truncated():
    # 2pi/3 phase offset: cos < 0, so the untruncated mask goes negative.
    S = unit_spec(np.exp(2j * np.pi / 3))
    Y = unit_spec(1 + 0j)
    raw = psm(S, Y, truncate=False)
    assert raw.data[0, 0] == pytest.approx(np.cos(2 * np.pi / 3), abs=1e-9)
    trunc = psm(S, Y, truncate=True)
    assert trunc.kind is MaskKind.PSM_TRUNCATED
    assert trunc.data[0, 0] == 0.0


def test_psm_le_iam_where_cos_nonneg(noisy_pair):
    _, S, Y = noisy_pair
    m_iam = iam(S, Y).data
    m_psm = psm(S, Y).data
    keep = m_psm >= 0
    assert np.all(m_psm[keep] <= m_iam[keep] + 1e-12)


def test_psa_target_values():
    S = unit_spec(2 * np.exp(2j * np.pi / 3), 2 + 0j, np.exp(1j * np.pi / 3))
    Y = unit_spec(1 + 0j, 1 + 0j, 1 + 0j)
    tgt = psa_target(S, Y)
    assert tgt.data[0, 0] == 0.0  # cos < 0 clamps to zero
    assert tgt.data[0, 1] == 2.0  # aligned phase keeps |S|
    assert tgt.data[0, 2] == pytest.approx(0.5, abs=1e-9)


@settings(max_examples=30)
@given(st.integers(0, 2**31 - 1))
def test_psa_target_bounded_by_clean_magnitude(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    w = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    cfg = StftConfig(4, 2, 4)
    tgt = psa_target(Spectrogram(z, cfg), Spectrogram(w, cfg))
    assert np.all(tgt.data <= np.abs(z) + 1e-12)
    assert np.all(tgt.data >= 0)


def test_shape_mismatch_raises():
    S = unit_spec(1 + 0j)
    Y = Spectrogram(np.zeros((2, 3), dtype=complex), CFG)
    for fn in (lambda: iam(S, Y), lambda: psm(S, Y), lambda: psa_target(S, Y)):
        with pytest.raises(ShapeMismatchError):
            fn()


def test_apply_all_ones_mask_recovers_mixture(noisy_pair):
    scene, _, Y = noisy_pair
    ones = psm(Y, Y)  # all-ones mask
    out = apply_mask_resynth(ones, Y, len(scene.y), 8000)
    assert np.max(np.abs(out.samples - scene.y.samples)) < 1e-10


def test_iam_on_noiseless_mixture_recovers_source(noisy_pair):
    scene, S, _ = noisy_pair
    out = apply_mask_resynth(iam(S, S), S, len(scene.s), 8000)
    assert np.max(np.abs(out.samples - scene.s.samples)) < 1e-10


def test_oracle_magnitude_resynth_consistency_penalty(noisy_pair):
    # Oracle magnitude with mixture phase: the pre-resynthesis magnitude
    # is exact (infinite mSNR) but re-analysis after iSTFT is not.
    scene, S, Y = noisy_pair
    oracle_mag = magnitude_of(S)
    assert msnr(oracle_mag, S) == math.inf
    out = apply_mask_resynth(oracle_mag, Y, len(scene.y), 8000)
    reanalyzed = msnr(stft(out, CFG_SCENE), S)
    assert math.isfinite(reanalyzed)
    assert reanalyzed > 0


def test_masked_magnitude_iam_exact(noisy_pair):
    _, S, Y = noisy_pair
    mag = masked_magnitude(MaskKind.IAM, S, Y)
    assert np.array_equal(mag.data, np.abs(S.data))
    assert msnr(mag, S) == math.inf


def test_masked_magnitude_matches_generic_product(noisy_pair):
    _, S, Y = noisy_pair
    for kind, mask in (
        (MaskKind.PSM, psm(S, Y)),
        (MaskKind.PSM_TRUNCATED, psm(S, Y, truncate=True)),
    ):
        direct = np.abs(mask.data * Y.data)
        regrouped = masked_magnitude(kind, S, Y).data
        assert np.max(np.abs(direct - regrouped)) < 1e-10


def test_consistent_masked_spectrum_reproduces_signal(noisy_pair):
    scene, _, Y = noisy_pair
    out = apply_mask_resynth(magnitude_of(Y), Y, len(scene.y), 8000)
    assert np.max(np.abs(out.samples - scene.y.samples)) < 1e-10


def test_iam_clamp_limits_gain():
    rng = np.random.default_rng(4)
    S = Spectrogram(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)), CFG)
    Y = Spectrogram(1e-12 * (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))), CFG)
    mask = iam(S, Y)  # raw gains ~1e11 against the eps guard
    assert mask.data.max() > 10
    out_len = 8
    clamped = apply_mask_resynth(mask, Y, out_len)
    unclamped = apply_mask_resynth(mask, Y, out_len, iam_clamp=None)
    assert np.max(np.abs(unclamped.samples)) > np.max(np.abs(clamped.samples))


@pytest.mark.parametrize("eps", [-1.0, 0.0, np.nan, np.inf], ids=["negative", "zero", "nan", "inf"])
@pytest.mark.parametrize(
    "make",
    [
        lambda S, Y, eps: iam(S, Y, eps),
        lambda S, Y, eps: psm(S, Y, eps),
        lambda S, Y, eps: masked_magnitude(MaskKind.IAM, S, Y, eps),
        lambda S, Y, eps: masked_magnitude(MaskKind.PSM_TRUNCATED, S, Y, eps),
    ],
    ids=["iam", "psm", "masked_iam", "masked_psm_truncated"],
)
def test_eps_out_of_range_is_refused(make, eps):
    # A negative eps used to pass, and divide by |Y| unguarded.
    S = unit_spec(1.0, 2.0, 0.5)
    with pytest.raises(ConfigInvalidError, match=f"eps must be positive and finite, got {eps:g}"):
        make(S, S, eps)


@pytest.mark.parametrize("clamp", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
def test_iam_clamp_must_be_none_or_positive(clamp):
    S = unit_spec(1.0, 2.0, 0.5)
    for M in (iam(S, S), magnitude_of(S)):
        with pytest.raises(ConfigInvalidError, match=f"must be None or positive, got {clamp:g}"):
            apply_mask_resynth(M, S, 2, iam_clamp=clamp)


def test_masks_reimported_after_the_package_still_resynthesizes(noisy_pair, monkeypatch):
    # `from . import stft` in masks took the package attribute, which
    # __init__ binds to the stft function once masks was first imported; a
    # fresh import then raised "'function' object has no attribute 'istft'".
    import importlib
    import sys

    import magphase

    before = magphase.masks
    monkeypatch.setattr(magphase, "masks", before)  # restored after the re-import rebinds it
    monkeypatch.delitem(sys.modules, "magphase.masks")
    fresh = importlib.import_module("magphase.masks")
    assert fresh is not before
    scene, _, Y = noisy_pair
    out = fresh.apply_mask_resynth(fresh.psm(Y, Y), Y, len(scene.y), 8000)
    assert np.max(np.abs(out.samples - scene.y.samples)) < 1e-10
