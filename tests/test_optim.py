import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from magphase.compensation import compensated_magnitude, optimal_magnitude_along_phase
from magphase.errors import ConfigInvalidError, MissingTargetError
from magphase.losses import SEPARABLE_TAGS, LossKind, LossTag, evaluate_loss
from magphase.metrics import msnr, si_sdr
from magphase.optim import (
    QUAD_L2,
    QUAD_L2_MAG,
    OptimizationProblem,
    Parameterization,
    Targets,
    _fixed_phase_kernel,
    fixed_phase,
    optimize,
    run_trend_experiment,
)
from magphase.scenes import SceneSpec, synth_scene
from magphase.stft import istft_array, stft
from magphase.types import MagSpectrogram, Spectrogram, StftConfig, TimeSignal

CFG_GRID = StftConfig(18, 9, 18)  # 10 frames x 10 bins = 100 units
CFG_SCENE = StftConfig.for_window(200, 80)


def grid_problem(loss, phase_offsets, mags=None, **kw):
    rng = np.random.default_rng(42)
    frames, bins_ = 10, CFG_GRID.num_bins
    if mags is None:
        mags = rng.uniform(0.5, 2.0, (frames, bins_))
    S = Spectrogram(mags * np.exp(1j * phase_offsets), CFG_GRID)
    n = (frames - 1) * CFG_GRID.hop_length_samples
    s = TimeSignal(istft_array(S.data, CFG_GRID, n), 8000)
    defaults = dict(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=loss,
        targets=Targets(S=S, s=s),
        cfg=CFG_GRID,
        phase_source="custom",
        custom_phase=np.zeros((frames, bins_)),
        init="zeros",
        steps=400,
    )
    defaults.update(kw)
    return OptimizationProblem(**defaults), mags


@pytest.fixture(scope="module")
def scene_targets():
    scene = synth_scene(SceneSpec(seed=0, duration_s=1.0, sample_rate_hz=8000))
    S, Y = stft(scene.s, CFG_SCENE), stft(scene.y, CFG_SCENE)
    return Targets(S=S, s=scene.s, Y=Y, y=scene.y)


def test_oracle_init_converges_immediately(scene_targets):
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_RI,
        loss=LossKind(LossTag.RI),
        targets=Targets(S=scene_targets.S, Y=scene_targets.S),
        cfg=CFG_SCENE,
        init="mixture",  # "mixture" here is the oracle spectrogram
        steps=5,
    )
    result = optimize(problem)
    assert result.trajectory.loss[0] == 0.0
    assert result.final_loss == 0.0


def test_fixed_phase_l2_matches_compensation_closed_form():
    deltas = np.linspace(0.0, np.pi, 100).reshape(10, 10)
    problem, mags = grid_problem(QUAD_L2, deltas)
    result = optimize(problem)
    oracle = np.maximum(mags * np.cos(deltas), 0.0)
    assert np.max(np.abs(result.params - oracle)) < 1e-4
    # Offsets beyond pi/2: exactly zero magnitude.
    assert np.all(result.params[deltas > np.pi / 2 + 1e-6] == 0.0)
    # Every unit agrees with the closed form from the geometry module.
    closed = optimal_magnitude_along_phase(QUAD_L2, problem.targets.S, problem.custom_phase)
    assert np.max(np.abs(result.params - closed)) < 1e-4


@settings(max_examples=40, deadline=None)
@given(
    frames=st.integers(1, 12),
    half_fft=st.integers(1, 16),
    top=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_fixed_phase_l2_lands_on_compensation_curve_property(frames, half_fft, top, seed):
    # From zero init, fixed-phase l2-complex on any grid shape, magnitudes
    # and phase offsets ends at max(0, |S| cos d) in every unit.
    cfg = StftConfig(2 * half_fft, half_fft, 2 * half_fft)
    rng = np.random.default_rng(seed)
    shape = (frames, cfg.num_bins)
    mags = rng.uniform(0.0, top, shape)
    phase = rng.uniform(-np.pi, np.pi, shape)
    deltas = rng.uniform(-np.pi, np.pi, shape)
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=QUAD_L2,
        targets=Targets(S=Spectrogram(mags * np.exp(1j * (phase + deltas)), cfg)),
        cfg=cfg,
        phase_source="custom",
        custom_phase=phase,
        init="zeros",
        steps=60,
    )
    result = optimize(problem)
    assert np.max(np.abs(result.params - np.maximum(mags * np.cos(deltas), 0.0))) < 1e-6


def test_fixed_phase_l2_mag_balances_toward_oracle_magnitude():
    # Per unit, (m - |S| cos d)^2 + w (m - |S|)^2 is least at
    # m* = (|S| cos d + w |S|) / (1 + w), which is >= 0 for d <= pi/2.
    deltas = np.linspace(0.0, np.pi / 2, 100).reshape(10, 10)
    assert QUAD_L2_MAG == LossKind(LossTag.L2_COMPLEX_MAG, mag_weight=1.0)
    for w in (0.5, 1.0, 2.0):
        loss = LossKind(LossTag.L2_COMPLEX_MAG, mag_weight=w)
        problem, mags = grid_problem(loss, deltas)
        result = optimize(problem)
        oracle = (mags * np.cos(deltas) + w * mags) / (1.0 + w)
        assert np.max(np.abs(result.params - oracle)) < 1e-4, w
        closed = optimal_magnitude_along_phase(loss, problem.targets.S, problem.custom_phase)
        assert np.max(np.abs(closed - oracle)) < 1e-12, w


CLOSED_FORM_TAGS = (LossTag.RI, LossTag.RI_MAG, LossTag.L2_COMPLEX, LossTag.L2_COMPLEX_MAG)


def per_unit_loss(problem):
    """The descent's own per-unit loss map m -> L(m) under the problem's fixed phase."""
    kernel = _fixed_phase_kernel(problem, np.exp(1j * fixed_phase(problem)))
    return lambda m: kernel(m)[0]


@settings(max_examples=60, deadline=None)
@given(
    frames=st.integers(1, 6),
    half_fft=st.integers(1, 8),
    top=st.floats(1e-3, 1e3),
    tag=st.sampled_from(CLOSED_FORM_TAGS),
    time_weight=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
    mag_weight=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    exact_phase=st.sampled_from([None, 0.0, np.pi / 4, np.pi / 2, np.pi]),
    seed=st.integers(0, 2**32 - 1),
)
@example(1, 4, 1.0, LossTag.RI_MAG, 1.0, 1.0, 0.0, 0)  # ties: weights 1, 0, 1
@example(3, 4, 1e3, LossTag.RI, 1.0, 0.0, np.pi / 4, 1)
@example(3, 4, 1e-3, LossTag.RI_MAG, 0.3, 3.0, np.pi / 2, 2)
@example(3, 4, 10.0, LossTag.L2_COMPLEX_MAG, 2.5, 0.5, np.pi, 3)
def test_closed_form_optimum_never_beaten_property(
    frames, half_fft, top, tag, time_weight, mag_weight, exact_phase, seed
):
    # Per unit, the descent's own loss at the closed form is no more than
    # at any nearby magnitude or at where a short descent ends.
    loss = LossKind(tag, time_weight=time_weight, mag_weight=mag_weight)
    mw = mag_weight if tag in (LossTag.RI_MAG, LossTag.L2_COMPLEX_MAG) else 0.0
    assume(time_weight + mw > 0)
    cfg = StftConfig(2 * half_fft, half_fft, 2 * half_fft)
    rng = np.random.default_rng(seed)
    shape = (frames, cfg.num_bins)
    S = rng.uniform(0.0, top, shape) * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    phase = rng.uniform(-np.pi, np.pi, shape) if exact_phase is None else np.full(shape, exact_phase)
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=loss,
        targets=Targets(S=Spectrogram(S, cfg)),
        cfg=cfg,
        phase_source="custom",
        custom_phase=phase,
        init="zeros",
        steps=40,
        step_size=0.05 * top,
    )
    best = optimal_magnitude_along_phase(loss, problem.targets.S, phase)
    f = per_unit_loss(problem)
    floor = f(best)
    # Rounding slack: the loss is of order (tw + mw) (top + top^2).
    slack = 1e-12 * (time_weight + mw) * (top + top * top)
    eps = 1e-3
    for other in (
        best * (1 + eps),
        best * (1 - eps),
        best + eps * top,
        np.maximum(best - eps * top, 0.0),
        optimize(problem).params,
    ):
        assert np.all(floor <= f(other) + slack)


@pytest.mark.parametrize(
    "loss,steps",
    [
        (QUAD_L2, 100),
        (LossKind(LossTag.L2_COMPLEX_MAG, mag_weight=2.0), 100),
        (LossKind(LossTag.RI), 300),
        (LossKind(LossTag.RI_MAG), 300),
    ],
    ids=lambda v: v.tag.value if isinstance(v, LossKind) else str(v),
)
def test_descent_reaches_closed_form_on_scene(scene_targets, loss, steps):
    # From the mixture under the mixture phase, the descent ends at the
    # closed form: the L2 pair in magnitude; the L1 pair, whose optimum
    # can be an interval (ri+mag at DC), in per-unit loss.
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=loss,
        targets=scene_targets,
        cfg=CFG_SCENE,
        steps=steps,
    )
    got = optimize(problem).params
    best = optimal_magnitude_along_phase(loss, scene_targets.S, fixed_phase(problem))
    top = float(np.max(np.abs(scene_targets.S.data)))
    f = per_unit_loss(problem)
    gap = f(got) - f(best)
    assert np.all(gap >= -1e-12 * top * top)  # the closed form is never beaten
    if loss.tag in (LossTag.L2_COMPLEX, LossTag.L2_COMPLEX_MAG):
        assert np.max(np.abs(got - best)) < 1e-6 * top
    else:
        assert np.max(gap) < 1e-5 * top


def test_msa_converges_to_oracle_magnitude_despite_phase_error(scene_targets):
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=LossKind(LossTag.MSA),
        targets=scene_targets,
        cfg=CFG_SCENE,
        phase_source="mixture",
        init="mixture",
        steps=2000,
    )
    result = optimize(problem)
    assert np.max(np.abs(result.params - np.abs(scene_targets.S.data))) < 1e-4


@pytest.mark.parametrize("tag", [LossTag.RI, LossTag.RI_MAG])
def test_oracle_phase_any_complex_loss_recovers_magnitude(scene_targets, tag):
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=LossKind(tag),
        targets=scene_targets,
        cfg=CFG_SCENE,
        phase_source="oracle",
        init="mixture",
        steps=2000,
    )
    result = optimize(problem)
    assert np.max(np.abs(result.params - np.abs(scene_targets.S.data))) < 1e-4


def test_trajectory_monotone_and_chronological(scene_targets):
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=LossKind(LossTag.RI),
        targets=scene_targets,
        cfg=CFG_SCENE,
        phase_source="mixture",
        init="random",
        init_seed=3,
        steps=500,
    )
    traj = optimize(problem).trajectory
    assert traj.steps[0] == 0 and traj.steps[-1] == 500
    assert traj.steps == sorted(traj.steps)
    for a, b in zip(traj.loss, traj.loss[1:]):
        assert b <= a + 1e-9
    assert all(v is not None for v in traj.msnr_db)


def test_coupled_loss_trajectory_monotone(scene_targets):
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_RI,
        loss=LossKind(LossTag.RI_ISTFT_MAG),
        targets=scene_targets,
        cfg=CFG_SCENE,
        init="mixture",
        steps=40,
    )
    result = optimize(problem)
    losses = result.trajectory.loss
    assert losses[-1] < losses[0]
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-9


def test_coupled_early_stop_records_returned_state(scene_targets):
    # A huge step size leaves the backtracking floor coarse, so the descent
    # stops long before its budget, at a step that is not a checkpoint.
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_WAVEFORM,
        loss=LossKind(LossTag.WAV),
        targets=scene_targets,
        cfg=CFG_SCENE,
        init="mixture",
        steps=200,
        step_size=1e14,
    )
    result = optimize(problem)
    traj = result.trajectory
    assert result.stop_reason == "no progress at step 18"
    assert traj.steps[-1] == 17
    assert traj.loss[-1] == result.final_loss
    assert traj.si_sdr_db[-1] == si_sdr(result.signal, scene_targets.s)
    assert traj.msnr_db[-1] == msnr(result.spectrogram, scene_targets.S)


@pytest.mark.parametrize(
    "loss", [LossKind(LossTag.WAV), QUAD_L2], ids=lambda k: k.tag.value
)
def test_stop_reason_budget(scene_targets, loss):
    # 201 steps checkpoint every 2nd step, so the last step is off that
    # cadence; both descents spend the whole budget and end on a checkpoint.
    problem = OptimizationProblem(
        parameterization=(
            Parameterization.FREE_WAVEFORM
            if loss.tag is LossTag.WAV
            else Parameterization.FREE_MAG_FIXED_PHASE
        ),
        loss=loss,
        targets=scene_targets,
        cfg=CFG_SCENE,
        init="mixture",
        steps=201,
    )
    result = optimize(problem)
    assert result.stop_reason == "budget"
    assert result.trajectory.steps == list(range(0, 201, 2)) + [201]
    assert result.trajectory.loss[-1] == result.final_loss


def test_free_waveform_descends(scene_targets):
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_WAVEFORM,
        loss=LossKind(LossTag.WAV),
        targets=scene_targets,
        cfg=CFG_SCENE,
        init="mixture",
        steps=60,
    )
    result = optimize(problem)
    assert result.final_loss < result.trajectory.loss[0]
    assert len(result.signal) == len(scene_targets.y)


def test_deterministic_trajectories(scene_targets):
    def run():
        problem = OptimizationProblem(
            parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
            loss=QUAD_L2,
            targets=scene_targets,
            cfg=CFG_SCENE,
            init="random",
            init_seed=7,
            steps=100,
        )
        return optimize(problem)

    a, b = run(), run()
    assert a.trajectory.loss == b.trajectory.loss
    assert np.array_equal(a.params, b.params)


def test_unconstrained_free_ri_reaches_near_perfect_metrics(scene_targets):
    # With free complex parameters nothing forces compensation: descent
    # walks to the target and every metric becomes (near-)perfect. This is
    # why the compensation demonstrations pin the phase.
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_RI,
        loss=QUAD_L2,
        targets=scene_targets,
        cfg=CFG_SCENE,
        init="mixture",
        steps=200,
    )
    result = optimize(problem)
    assert msnr(result.spectrogram, scene_targets.S) > 60
    assert si_sdr(result.signal, scene_targets.s) > 60


def test_trend_quadratic_pair(scene_targets):
    report = run_trend_experiment(scene_targets, CFG_SCENE, steps=300)
    assert report.msnr_improved
    assert report.si_sdr_not_better
    assert report.with_mag.msnr_db > report.without_mag.msnr_db
    # Both arms ride the mixture phase, but units driven to exactly zero
    # magnitude take the conventional phase 0, so pSNR may differ; it
    # just has to be well-defined for both.
    assert math.isfinite(report.with_mag.psnr_db)
    assert math.isfinite(report.without_mag.psnr_db)


def test_trend_l1_pair(scene_targets):
    report = run_trend_experiment(
        scene_targets,
        CFG_SCENE,
        loss_pair=(LossKind(LossTag.RI), LossKind(LossTag.RI_MAG)),
        steps=600,
    )
    assert report.msnr_improved
    assert report.si_sdr_not_better


def test_trend_degenerate_pair_identical(scene_targets):
    report = run_trend_experiment(
        scene_targets,
        CFG_SCENE,
        loss_pair=(LossKind(LossTag.RI), LossKind(LossTag.RI)),
        steps=150,
    )
    assert report.without_mag.si_sdr_db == report.with_mag.si_sdr_db
    assert report.without_mag.msnr_db == report.with_mag.msnr_db
    assert report.msnr_improved and report.si_sdr_not_better


def test_trend_csv_export(tmp_path, scene_targets):
    report = run_trend_experiment(scene_targets, CFG_SCENE, steps=50)
    path = tmp_path / "trend.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "arm,loss,si_sdr_db,msnr_db,psnr_db"
    assert len(lines) == 3
    assert lines[1].startswith("l2-complex,")


def test_trajectory_csv_schema(tmp_path, scene_targets):
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=QUAD_L2,
        targets=scene_targets,
        cfg=CFG_SCENE,
        steps=50,
    )
    result = optimize(problem)
    path = tmp_path / "traj.csv"
    result.trajectory.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,loss,si_sdr_db,msnr_db,psnr_db"
    assert len(lines) >= 3


def test_silent_init_records_negative_infinity_si_sdr(scene_targets):
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=LossKind(LossTag.MSA),
        targets=scene_targets,
        cfg=CFG_SCENE,
        phase_source="mixture",
        init="zeros",
        steps=30,
    )
    traj = optimize(problem).trajectory
    assert traj.si_sdr_db[0] == -math.inf
    assert not any(math.isnan(v) for v in traj.si_sdr_db)


def test_validation_errors(scene_targets):
    base = dict(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=QUAD_L2,
        targets=scene_targets,
        cfg=CFG_SCENE,
    )
    with pytest.raises(ConfigInvalidError):
        optimize(OptimizationProblem(**base, steps=0))
    with pytest.raises(ConfigInvalidError):
        optimize(OptimizationProblem(**base, step_size=-1.0))
    with pytest.raises(ConfigInvalidError):
        optimize(OptimizationProblem(**base, momentum=1.0))
    with pytest.raises(MissingTargetError):
        optimize(
            OptimizationProblem(
                parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
                loss=QUAD_L2,
                targets=Targets(S=scene_targets.S),  # no mixture for phase
                cfg=CFG_SCENE,
            )
        )
    with pytest.raises(MissingTargetError):
        optimize(
            OptimizationProblem(
                parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
                loss=LossKind(LossTag.WAV),  # waveform loss on magnitude params
                targets=scene_targets,
                cfg=CFG_SCENE,
            )
        )


def test_loss_must_be_a_loss_kind(scene_targets):
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss="l2-complex",  # a bare tag name is not a LossKind
        targets=scene_targets,
        cfg=CFG_SCENE,
    )
    with pytest.raises(ConfigInvalidError):
        optimize(problem)


def test_unknown_init_rejected(scene_targets):
    # An unknown init used to fall through to the random init silently.
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=QUAD_L2,
        targets=scene_targets,
        cfg=CFG_SCENE,
        init="mixtrue",
    )
    with pytest.raises(ConfigInvalidError):
        optimize(problem)


@pytest.mark.parametrize("name", ["S", "Y"])
def test_targets_taken_with_another_config_rejected(scene_targets, name):
    # Targets taken at 200/80/256 under a 240/80/256 problem used to run.
    cfg = StftConfig(240, 80, 256)
    assert scene_targets.S.config == StftConfig(200, 80, 256) != cfg
    other = {"S": stft(scene_targets.s, cfg), "Y": stft(scene_targets.y, cfg)}
    other[name] = getattr(scene_targets, name)
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=QUAD_L2,
        targets=Targets(s=scene_targets.s, y=scene_targets.y, **other),
        cfg=cfg,
        steps=5,
    )
    with pytest.raises(ConfigInvalidError, match="a target was taken with"):
        optimize(problem)
    with pytest.raises(ConfigInvalidError, match="a target was taken with"):
        run_trend_experiment(problem.targets, cfg, steps=5)


def test_nonfinite_objective_raises_diverged(scene_targets):
    from magphase.errors import DivergedError

    bad = np.array(scene_targets.S.data)
    bad[0, 0] = np.inf
    with pytest.raises(DivergedError):
        optimize(
            OptimizationProblem(
                parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
                loss=QUAD_L2,
                targets=Targets(S=Spectrogram(bad, CFG_SCENE), Y=scene_targets.Y),
                cfg=CFG_SCENE,
                steps=5,
            )
        )


def test_waveform_params_with_spectral_loss(scene_targets):
    # Spectrogram-domain losses chain through the forward STFT when the
    # free parameter is the waveform itself.
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_WAVEFORM,
        loss=LossKind(LossTag.RI),
        targets=scene_targets,
        cfg=CFG_SCENE,
        init="mixture",
        steps=30,
    )
    result = optimize(problem)
    assert result.final_loss < result.trajectory.loss[0]


@pytest.mark.parametrize(
    "param",
    [Parameterization.FREE_RI, Parameterization.FREE_MAG_FIXED_PHASE],
    ids=lambda p: p.value,
)
@pytest.mark.parametrize(
    "tag", sorted(SEPARABLE_TAGS, key=lambda t: t.value), ids=lambda t: t.value
)
def test_separable_kernels_match_loss_contract(scene_targets, tag, param):
    # The per-unit descent must score exactly like the public losses:
    # mean of the value map = evaluate_loss value, and the gradient map is
    # the element count times the loss gradient, chained through the
    # fixed phase (Re(conj(u) g)) for magnitude parameters.
    from magphase.optim import _per_unit_objective
    from magphase.types import phase_of

    loss = LossKind(tag, mag_weight=0.7) if tag is not LossTag.PHASE else LossKind(tag)
    problem = OptimizationProblem(
        parameterization=param, loss=loss, targets=scene_targets, cfg=CFG_SCENE
    )
    if param is Parameterization.FREE_RI and tag in (LossTag.MSA, LossTag.PSA):
        with pytest.raises(MissingTargetError):  # magnitude loss on complex params
            optimize(problem)
        return
    per_unit = _per_unit_objective(problem)
    m = np.abs(scene_targets.Y.data) * 0.9
    u = np.exp(1j * phase_of(scene_targets.Y))
    if tag in (LossTag.MSA, LossTag.PSA):
        x, est = m, MagSpectrogram(m, CFG_SCENE)
    elif param is Parameterization.FREE_RI:
        x = m * u * np.exp(0.3j)  # off the mixture phase: a generic complex point
        est = Spectrogram(x, CFG_SCENE)
    else:
        x, est = m, Spectrogram(m * u, CFG_SCENE)
    L, G = per_unit(x)
    lv = evaluate_loss(loss, est, scene_targets, want_grad=True)
    assert float(np.mean(L)) == pytest.approx(lv.value, abs=1e-12)
    g = lv.gradient * L.size
    if param is Parameterization.FREE_MAG_FIXED_PHASE and tag not in (LossTag.MSA, LossTag.PSA):
        g = (np.conj(u) * g).real
    live = m > 0
    # atol only for the phase loss, whose chained gradient is 0 up to rounding.
    np.testing.assert_allclose(G[live], g[live], rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "param",
    [Parameterization.FREE_RI, Parameterization.FREE_MAG_FIXED_PHASE],
    ids=lambda p: p.value,
)
@pytest.mark.parametrize(
    "tag", sorted(SEPARABLE_TAGS, key=lambda t: t.value), ids=lambda t: t.value
)
def test_separable_kernels_at_units_match_full_maps(scene_targets, tag, param):
    # f(values, at=idx) must give the whole maps' entries at idx bit for
    # bit: the per-unit descent retries only the failing units this way.
    from magphase.optim import _per_unit_objective
    from magphase.types import phase_of

    loss = LossKind(tag, mag_weight=0.7) if tag is not LossTag.PHASE else LossKind(tag)
    problem = OptimizationProblem(
        parameterization=param, loss=loss, targets=scene_targets, cfg=CFG_SCENE
    )
    per_unit = _per_unit_objective(problem)
    m = np.abs(scene_targets.Y.data) * 0.9
    m.reshape(-1)[::97] = 0.0  # the kernels' zero-magnitude branches
    if tag in (LossTag.MSA, LossTag.PSA):
        x = m
    elif param is Parameterization.FREE_RI:
        x = m * np.exp(1j * (phase_of(scene_targets.Y) + 0.3))
    else:
        x = m
    L, G = per_unit(x)
    rng = np.random.default_rng(7)
    for at in (
        rng.choice(x.size, size=x.size // 10, replace=False),
        np.array([], dtype=np.intp),
        np.arange(x.size),
    ):
        La, Ga = per_unit(x.reshape(-1)[at], at=at)
        assert La.tobytes() == L.reshape(-1)[at].tobytes()
        assert Ga.tobytes() == G.reshape(-1)[at].tobytes()


@pytest.mark.parametrize("tag", [LossTag.RI, LossTag.RI_MAG], ids=lambda t: t.value)
def test_retrying_failed_units_matches_full_evaluation(scene_targets, tag, monkeypatch):
    # The L1 pair of the trend comparison backtracks on a few percent of
    # the units per step; retrying only those must reproduce the
    # full-evaluation descent exactly, checkpoints included.
    from _oracles import full_eval_descend_separable

    from magphase import optim

    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=LossKind(tag),
        targets=scene_targets,
        cfg=CFG_SCENE,
        steps=150,
    )
    got = optimize(problem)
    monkeypatch.setattr(optim, "_descend_separable", full_eval_descend_separable)
    want = optimize(problem)
    assert got.params.tobytes() == want.params.tobytes()
    assert got.final_loss == want.final_loss
    assert got.trajectory == want.trajectory


def test_compensated_magnitude_helper(scene_targets):
    mag = compensated_magnitude(scene_targets.S, scene_targets.Y)
    assert np.all(mag.data >= 0)
    assert np.all(mag.data <= np.abs(scene_targets.S.data) + 1e-12)
