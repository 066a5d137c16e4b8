import math
import sys

import numpy as np
import pytest
from _oracles import (
    CASE_CFG,
    CASE_LEN,
    CASE_RATE,
    EDGE_VALUES,
    bounded_complex,
    fd_gradient_rel_err,
    make_loss_case,
    real_not_bool,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magphase.errors import ConfigInvalidError, MagphaseError, MissingTargetError, ShapeMismatchError
from magphase.losses import (
    LossKind,
    LossTag,
    Point,
    Targets,
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


def loss(tag, est, **targets):
    """evaluate_loss for a tag at default weights, targets by keyword."""
    return evaluate_loss(LossKind(tag), est, Targets(**targets))


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


@pytest.mark.parametrize("tag", list(LossTag))
def test_value_does_not_depend_on_want_grad(tag, monkeypatch):
    # The coupled descent reads a try's value and computes its gradient
    # only if the value passes; it makes the same decisions as one that
    # computes every gradient only if the value is the same bits whether or
    # not the gradient is read. An unread gradient runs no adjoint map, and
    # a read one still matches finite differences. The zero estimate
    # reaches the kernels' zero-magnitude branches.
    from magphase import losses

    adjoints = []
    for name in ("istft_adjoint", "stft_adjoint"):
        real = getattr(losses, name)
        monkeypatch.setattr(losses, name, lambda *a, real=real: adjoints.append(a) or real(*a))
    for seed in range(2):
        case = make_loss_case(tag, seed)
        for x in (case.x0, np.zeros_like(case.x0)):
            est = case.wrap(x)
            adjoints.clear()
            value_only = evaluate_loss(case.kind, est, case.targets)
            assert adjoints == []
            read = evaluate_loss(case.kind, est, case.targets)
            grad = read.gradient()
            assert np.float64(value_only.value).tobytes() == np.float64(read.value).tobytes()
            assert grad.shape == x.shape and np.all(np.isfinite(grad))
            assert grad.tobytes() == value_only.gradient().tobytes()
        assert fd_gradient_rel_err(case, n_coords=16, seed=seed) < 1e-5


@pytest.mark.parametrize("tag", list(LossTag))
def test_a_point_scores_like_its_view_and_lends_the_other(tag, monkeypatch):
    # Given a Point, evaluate_loss reads the view its kind takes and gives
    # the same bits as on that container. The other-domain view it needs
    # (iSTFT of a spectrogram, STFT of a waveform) it takes from a point
    # that says it derives it so, and builds for one that does not.
    from magphase import losses

    maps = {"istft_array": [], "stft_array": []}
    for name, calls in maps.items():
        real = getattr(losses, name)
        monkeypatch.setattr(losses, name, lambda *a, real=real, calls=calls: calls.append(1) or real(*a))
    case = make_loss_case(tag, 0)
    est = case.wrap(case.x0)
    want = evaluate_loss(case.kind, est, case.targets)
    built = {name: len(calls) for name, calls in maps.items()}
    if isinstance(est, MagSpectrogram):
        point = Point(case.x0, lambda p: Spectrogram(p.params, CASE_CFG), lambda p: None)
        with pytest.raises(MissingTargetError, match="expects a MagSpectrogram"):
            evaluate_loss(case.kind, point, case.targets)
        return
    if isinstance(est, Spectrogram):
        lent, declare = "istft_array", {"istft_length": CASE_LEN}

        def spectrogram(p):
            return est

        def signal(p):
            return TimeSignal(istft_array(p.spectrogram.data, CASE_CFG, CASE_LEN), CASE_RATE)

    else:
        lent, declare = "stft_array", {"stft_config": CASE_CFG}

        def spectrogram(p):
            return Spectrogram(stft_array(p.params, CASE_CFG), CASE_CFG)

        def signal(p):
            return est

    for kw in ({}, declare):
        for calls in maps.values():
            calls.clear()
        got = evaluate_loss(case.kind, Point(case.x0, spectrogram, signal, **kw), case.targets)
        assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
        assert got.gradient().tobytes() == want.gradient().tobytes()
        expect = dict(built)
        if kw:  # the lent view is not built again; STFT(iSTFT(X)) is no view, so it is
            expect[lent] = 0
        assert {name: len(calls) for name, calls in maps.items()} == expect


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


# Which terms each kind has: (time/complex term, magnitude term).
KIND_TERMS = {
    LossTag.RI: (1, 0),
    LossTag.RI_MAG: (1, 1),
    LossTag.RI_ISTFT: (1, 0),
    LossTag.RI_ISTFT_MAG: (1, 1),
    LossTag.MAG_RI_ISTFT: (1, 1),
    LossTag.RI_ISTFT_X0_MAG: (0, 1),
    LossTag.WAV: (1, 0),
    LossTag.WAV_MAG: (1, 1),
    LossTag.WAV_X0_MAG: (0, 1),
    LossTag.MSA: (0, 1),
    LossTag.PSA: (0, 1),
    LossTag.PHASE: (1, 0),
    LossTag.L2_COMPLEX: (1, 0),
    LossTag.L2_COMPLEX_MAG: (1, 1),
}


def test_x0_variant_rejects_nonzero_time_weight():
    # The x0 rule, for every kind and both terms: a weight left unset is 1
    # on a term the kind has and 0 on one it lacks; any nonzero weight on
    # a missing term is refused, so no kind holds a weight its loss ignores.
    assert set(KIND_TERMS) == set(LossTag)
    for tag, (has_time, has_mag) in KIND_TERMS.items():
        kind = LossKind(tag)
        assert (kind.time_weight, kind.mag_weight) == (float(has_time), float(has_mag)), tag
        for name, has in (("time_weight", has_time), ("mag_weight", has_mag)):
            assert getattr(LossKind(tag, **{name: 0.0}), name) == 0.0
            if has:
                assert getattr(LossKind(tag, **{name: 2.5}), name) == 2.5
            else:
                for w in (1.0, 0.5, 1e-300):
                    with pytest.raises(ConfigInvalidError, match=name):
                        LossKind(tag, **{name: w})
            with pytest.raises(ConfigInvalidError):
                LossKind(tag, **{name: -1.0})


def test_a_weight_beyond_float64_is_refused():
    # float(10**400) died with an OverflowError.
    with pytest.raises(ConfigInvalidError, match=r"time_weight must be a finite number in \[0\.0, inf\)"):
        LossKind(LossTag.RI, time_weight=10**400)


_WEIGHTS = st.sampled_from([None, 0.0, 0.5, 2, np.float64(1.5), np.int64(3), *EDGE_VALUES])


@settings(max_examples=300, deadline=None)
@given(tag=st.sampled_from(list(LossTag)), time_weight=_WEIGHTS, mag_weight=_WEIGHTS)
# Each was accepted as a weight, or refused with a TypeError.
@example(tag=LossTag.L2_COMPLEX, time_weight="2", mag_weight=None)
@example(tag=LossTag.L2_COMPLEX, time_weight=True, mag_weight=None)
@example(tag=LossTag.L2_COMPLEX_MAG, time_weight=None, mag_weight=[1])
def test_a_loss_kind_keeps_only_weights_it_can_read(tag, time_weight, mag_weight):
    # Building a LossKind either refuses it with a MagphaseError or keeps
    # each weight as a finite, nonnegative float from a real, non-bool number.
    try:
        kind = LossKind(tag, time_weight=time_weight, mag_weight=mag_weight)
    except MagphaseError:
        return
    for given_weight, kept in ((time_weight, kind.time_weight), (mag_weight, kind.mag_weight)):
        if given_weight is not None:
            assert real_not_bool(given_weight) and 0 <= given_weight <= sys.float_info.max
        assert type(kept) is float and math.isfinite(kept) and kept >= 0


def test_a_loss_kind_refuses_a_tag_that_is_not_a_loss_tag():
    with pytest.raises(ConfigInvalidError, match="loss tag must be a LossTag, got 'ri'"):
        LossKind("ri")


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


def test_gradient_of_magnitude_at_zero_is_zero():
    est = one_unit(0)
    S = one_unit(1 + 1j)
    assert np.isfinite(loss(LossTag.RI_MAG, est, S=S).gradient()).all()
    assert loss(LossTag.PHASE, est, S=S).gradient()[0, 0] == 0


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
