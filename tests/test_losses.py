import numpy as np
import pytest
from _oracles import CASE_CFG, CASE_LEN, bounded_complex, fd_gradient_rel_err, make_loss_case

from magphase.errors import ConfigInvalidError, MissingTargetError, ShapeMismatchError
from magphase.losses import (
    LossKind,
    LossTag,
    Targets,
    all_loss_kinds,
    evaluate_loss,
    parse_loss_tag,
    pit_wrap,
)
from magphase.stft import consistency_project, istft_array, num_frames_for, stft, stft_array
from magphase.types import MagSpectrogram, Spectrogram, StftConfig, TimeSignal

CFG1 = StftConfig(4, 2, 4)  # single-unit playground (1x3 specs)


def unit_spec(*entries):
    return Spectrogram(np.asarray(entries, dtype=complex).reshape(1, -1), CFG1)


def one_unit(z):
    return Spectrogram(np.array([[z]], dtype=complex), StftConfig(2, 1, 2))


def loss(tag, est, want_grad=False, **targets):
    """evaluate_loss for a tag at default weights, targets by keyword."""
    return evaluate_loss(LossKind(tag), est, Targets(**targets), want_grad)


# --- hand-computed values ---------------------------------------------------


def test_ri_zero_at_truth():
    S = unit_spec(1 + 2j, -3j, 0.5)
    assert loss(LossTag.RI, S, S=S).value == 0.0


def test_ri_single_unit_hand_value():
    est = one_unit(0)
    S = one_unit(3 + 4j)
    assert loss(LossTag.RI, est, S=S).value == pytest.approx(7.0, abs=1e-12)


def test_ri_mag_sign_flip():
    # est = -S: RI term 2(|Re S| + |Im S|), magnitude term exactly 0.
    S = one_unit(3 + 4j)
    est = one_unit(-3 - 4j)
    assert loss(LossTag.RI_MAG, est, S=S).value == pytest.approx(14.0, abs=1e-12)
    assert loss(LossTag.RI, est, S=S).value == pytest.approx(14.0, abs=1e-12)


def test_phase_single_unit_hand_value():
    S = one_unit(1 + 0j)
    est = one_unit(-2 + 0j)  # angle pi, magnitude ignored
    assert loss(LossTag.PHASE, est, S=S).value == pytest.approx(2.0, abs=1e-12)
    assert loss(LossTag.PHASE, S, S=S).value == 0.0


def test_psa_single_unit_hand_value():
    # |S| = 2 at phase offset pi/3 (cos = 0.5) -> target 1; est 0 -> loss 1.
    S = one_unit(2 * np.exp(1j * np.pi / 3))
    Y = one_unit(1 + 0j)
    est = MagSpectrogram(np.array([[0.0]]), StftConfig(2, 1, 2))
    assert loss(LossTag.PSA, est, S=S, Y=Y).value == pytest.approx(1.0, abs=1e-12)


def test_msa_zero_at_truth():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    S = Spectrogram(z, CFG1)
    assert loss(LossTag.MSA, MagSpectrogram(np.abs(z), CFG1), S=S).value == 0.0


def test_wav_values():
    s = TimeSignal([1.0, -2.0, 3.0], 8000)
    assert loss(LossTag.WAV, s, s=s).value == 0.0
    zero = TimeSignal([0.0, 0.0, 0.0], 8000)
    assert loss(LossTag.WAV, zero, s=s).value == pytest.approx(2.0)  # mean |s|


# --- zero at ground truth for every kind ------------------------------------


@pytest.mark.parametrize("tag", list(LossTag))
def test_zero_at_ground_truth(tag):
    cfg = CASE_CFG
    n = CASE_LEN
    rng = np.random.default_rng(5)
    s = TimeSignal(rng.standard_normal(n), 8000)
    S = stft(s, cfg)
    Y = Spectrogram(S.data + bounded_complex(rng, S.data.shape, 0.05, 0.2), cfg)
    targets = Targets(S=S, s=s, Y=Y)
    kind = LossKind(tag)
    if tag in (LossTag.MSA,):
        est = MagSpectrogram(np.abs(S.data), cfg)
    elif tag is LossTag.PSA:
        from magphase.masks import psa_target

        est = psa_target(S, Y)
    elif tag in (LossTag.WAV, LossTag.WAV_MAG, LossTag.WAV_X0_MAG):
        est = s
    else:
        est = S
    value = evaluate_loss(kind, est, targets).value
    assert value < 1e-10
    assert value >= 0.0


# --- gradient checks ---------------------------------------------------------


@pytest.mark.parametrize("tag", list(LossTag))
def test_gradient_matches_finite_differences(tag):
    worst = max(
        fd_gradient_rel_err(make_loss_case(tag, seed), n_coords=16, seed=seed)
        for seed in range(2)
    )
    assert worst < 1e-5


# --- structural identities ---------------------------------------------------


def test_msa_equals_complex_teacher_forcing_form():
    # Regression to |S| equals the complex form where both sides ride the
    # clean phase.
    rng = np.random.default_rng(7)
    for _ in range(25):
        z = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        m = np.abs(rng.standard_normal((6, 5)))
        cfg = StftConfig(8, 4, 8)
        S = Spectrogram(z, cfg)
        direct = loss(LossTag.MSA, MagSpectrogram(m, cfg), S=S).value
        phase = np.where(z == 0, 0.0, np.angle(z))
        complex_form = float(
            np.mean(np.abs(m * np.exp(1j * phase) - np.abs(z) * np.exp(1j * phase)))
        )
        assert abs(direct - complex_form) < 1e-12


def test_composites_dominate_components():
    cfg = CASE_CFG
    n = CASE_LEN
    shape = (num_frames_for(n, cfg), cfg.num_bins)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        est = Spectrogram(bounded_complex(rng, shape), cfg)
        s = TimeSignal(rng.standard_normal(n), 8000)
        S = stft(TimeSignal(rng.standard_normal(n), 8000), cfg)
        est_w = TimeSignal(rng.standard_normal(n), 8000)
        assert loss(LossTag.RI_MAG, est, S=S).value >= loss(LossTag.RI, est, S=S).value
        assert (
            loss(LossTag.RI_ISTFT_MAG, est, s=s, S=S).value
            >= loss(LossTag.RI_ISTFT, est, s=s).value
        )
        assert loss(LossTag.WAV_MAG, est_w, s=s, S=S).value >= loss(LossTag.WAV, est_w, s=s).value


def test_x0_variants_equal_pure_magnitude_terms():
    rng = np.random.default_rng(9)
    cfg = CASE_CFG
    n = CASE_LEN
    shape = (num_frames_for(n, cfg), cfg.num_bins)
    est = Spectrogram(bounded_complex(rng, shape), cfg)
    s = TimeSignal(rng.standard_normal(n), 8000)
    S = stft(TimeSignal(rng.standard_normal(n), 8000), cfg)
    x0 = evaluate_loss(LossKind(LossTag.RI_ISTFT_X0_MAG), est, Targets(S=S, s=s))
    proj = consistency_project(est, n)
    pure = float(np.mean(np.abs(np.abs(proj.data) - np.abs(S.data))))
    assert x0.value == pytest.approx(pure, abs=1e-12)

    est_w = TimeSignal(rng.standard_normal(n), 8000)
    x0w = evaluate_loss(LossKind(LossTag.WAV_X0_MAG), est_w, Targets(S=S, s=s))
    pure_w = float(np.mean(np.abs(np.abs(stft_array(est_w.samples, cfg)) - np.abs(S.data))))
    assert x0w.value == pytest.approx(pure_w, abs=1e-12)


def test_x0_variant_rejects_nonzero_time_weight():
    with pytest.raises(ConfigInvalidError):
        LossKind(LossTag.WAV_X0_MAG, time_weight=1.0)
    assert LossKind(LossTag.WAV_X0_MAG).time_weight == 0.0
    assert LossKind(LossTag.RI).time_weight == 1.0


def test_ri_istft_zero_for_consistent_truth():
    rng = np.random.default_rng(10)
    s = TimeSignal(rng.standard_normal(CASE_LEN), 8000)
    est = stft(s, CASE_CFG)
    assert loss(LossTag.RI_ISTFT, est, s=s).value < 1e-12


def test_ri_istft_nullspace_invariance():
    rng = np.random.default_rng(11)
    cfg = CASE_CFG
    n = CASE_LEN
    shape = (num_frames_for(n, cfg), cfg.num_bins)
    est = Spectrogram(bounded_complex(rng, shape), cfg)
    s = TimeSignal(rng.standard_normal(n), 8000)
    base = loss(LossTag.RI_ISTFT, est, s=s).value
    X = Spectrogram(bounded_complex(rng, shape, 0.5, 2.0), cfg)
    P = X.data - consistency_project(X, n).data
    shifted = loss(LossTag.RI_ISTFT, Spectrogram(est.data + P, cfg), s=s).value
    assert abs(shifted - base) < 1e-8


def test_mag_before_vs_after_istft_differ_on_inconsistent_input():
    rng = np.random.default_rng(12)
    cfg = CASE_CFG
    n = CASE_LEN
    shape = (num_frames_for(n, cfg), cfg.num_bins)
    mag = np.abs(stft_array(rng.standard_normal(n), cfg))
    est = Spectrogram(mag * np.exp(1j * rng.uniform(-np.pi, np.pi, shape)), cfg)
    s = TimeSignal(rng.standard_normal(n), 8000)
    S = stft(TimeSignal(rng.standard_normal(n), 8000), cfg)
    before = loss(LossTag.MAG_RI_ISTFT, est, s=s, S=S).value
    after = loss(LossTag.RI_ISTFT_MAG, est, s=s, S=S).value
    assert abs(before - after) > 1e-6


def test_shape_mismatch_errors():
    a = unit_spec(1, 2, 3)
    b = Spectrogram(np.zeros((2, 3), dtype=complex), CFG1)
    with pytest.raises(ShapeMismatchError):
        loss(LossTag.RI, a, S=b)
    with pytest.raises(ShapeMismatchError):
        loss(LossTag.WAV, TimeSignal([1.0], 8000), s=TimeSignal([1.0, 2.0], 8000))
    s100 = TimeSignal(np.zeros(100), 8000)
    with pytest.raises(ShapeMismatchError):
        loss(LossTag.RI_ISTFT, Spectrogram(np.zeros((3, 17), dtype=complex), CASE_CFG), s=s100)


def test_dispatcher_domain_and_targets():
    est = unit_spec(1, 2, 3)
    with pytest.raises(MissingTargetError):
        evaluate_loss(LossKind(LossTag.RI), est, Targets())
    with pytest.raises(MissingTargetError):
        evaluate_loss(LossKind(LossTag.MSA), est, Targets(S=est))


def test_parse_loss_tag():
    assert parse_loss_tag("ri+mag") is LossTag.RI_MAG
    with pytest.raises(ConfigInvalidError):
        parse_loss_tag("nope")
    assert len(all_loss_kinds()) == 14


def test_gradient_of_magnitude_at_zero_is_zero():
    est = one_unit(0)
    S = one_unit(1 + 1j)
    lv = loss(LossTag.RI_MAG, est, want_grad=True, S=S)
    assert np.isfinite(lv.gradient).all()
    lv = loss(LossTag.PHASE, est, want_grad=True, S=S)
    assert lv.gradient[0, 0] == 0


# --- PIT ----------------------------------------------------------------------


def _pit_case(seed):
    rng = np.random.default_rng(seed)
    cfg = StftConfig(8, 4, 8)
    shape = (4, cfg.num_bins)

    def rand_spec():
        return Spectrogram(
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg
        )

    ests = [rand_spec(), rand_spec()]
    tgts = [Targets(S=rand_spec()), Targets(S=rand_spec())]
    return ests, tgts


def test_pit_identity_and_swap():
    ests, tgts = _pit_case(0)
    kind = LossKind(LossTag.RI)
    aligned = [Targets(S=ests[0]), Targets(S=ests[1])]
    value, perm = pit_wrap(kind, ests, aligned)
    assert perm == (0, 1) and value.value == 0.0
    value, perm = pit_wrap(kind, ests, aligned[::-1])
    assert perm == (1, 0) and value.value == 0.0


def test_pit_matches_brute_force():
    kind = LossKind(LossTag.RI)
    for seed in range(30):
        ests, tgts = _pit_case(seed)
        value, perm = pit_wrap(kind, ests, tgts)
        direct = (
            evaluate_loss(kind, ests[0], tgts[0]).value
            + evaluate_loss(kind, ests[1], tgts[1]).value
        ) / 2.0
        swapped = (
            evaluate_loss(kind, ests[0], tgts[1]).value
            + evaluate_loss(kind, ests[1], tgts[0]).value
        ) / 2.0
        assert value.value == min(direct, swapped)
        assert perm == ((0, 1) if direct <= swapped else (1, 0))
        assert value.value <= direct and value.value <= swapped


def test_pit_requires_two_sources():
    ests, tgts = _pit_case(1)
    with pytest.raises(ShapeMismatchError):
        pit_wrap(LossKind(LossTag.RI), ests[:1], tgts)
