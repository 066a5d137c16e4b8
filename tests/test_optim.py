import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from _oracles import EDGE_VALUES, real_not_bool
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from magphase.compensation import compensated_magnitude, optimal_magnitude_along_phase
from magphase.errors import (
    ConfigInvalidError,
    MagphaseError,
    MissingTargetError,
    NonFiniteError,
    ShapeMismatchError,
    ZeroSignalError,
)
from magphase.losses import SEPARABLE_TAGS, LossKind, LossTag, LossValue, evaluate_loss
from magphase.metrics import msnr, psnr, si_sdr
from magphase.optim import (
    QUAD_L2,
    QUAD_L2_MAG,
    OptimizationProblem,
    Parameterization,
    Targets,
    _parameterize,
    fixed_phase,
    optimize,
    run_trend_experiment,
)
from magphase.scenes import SceneSpec, synth_scene
from magphase.stft import istft_array, stft, stft_array
from magphase.types import (
    _MAG_TERM_TAGS,
    MagSpectrogram,
    Spectrogram,
    StftConfig,
    TimeSignal,
    phase_of,
)

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
    kernel = _parameterize(problem)[-1]
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
    mw = mag_weight if tag in (LossTag.RI_MAG, LossTag.L2_COMPLEX_MAG) else 0.0
    loss = LossKind(tag, time_weight=time_weight, mag_weight=mw)
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


CFG_COUPLED = StftConfig.for_window(512, 128)  # the coupled benchmark's config


@pytest.fixture(scope="module")
def coupled_targets():
    scene = synth_scene(SceneSpec(seed=0, duration_s=1.0, sample_rate_hz=16000))
    S, Y = stft(scene.s, CFG_COUPLED), stft(scene.y, CFG_COUPLED)
    return Targets(S=S, s=scene.s, Y=Y, y=scene.y)


def _recorded(descend, states):
    """descend, appending each state it yields to states as (step, loss, params bytes)."""

    def run(problem, x, evaluate, project):
        for k, f, point in descend(problem, x, evaluate, project):
            states.append((k, f, point.params.tobytes()))
            yield k, f, point

    return run


@pytest.mark.parametrize(
    "param, tag, steps",
    [
        # ri-istft keeps its first try at every step; ri-istft+mag starts
        # to backtrack after about 20 steps, so it gets a longer budget.
        (Parameterization.FREE_MAG_FIXED_PHASE, LossTag.RI_ISTFT, 20),
        (Parameterization.FREE_MAG_FIXED_PHASE, LossTag.RI_ISTFT_MAG, 50),
        (Parameterization.FREE_WAVEFORM, LossTag.WAV_MAG, 10),
        (Parameterization.FREE_WAVEFORM, LossTag.RI_MAG, 10),
        (Parameterization.FREE_WAVEFORM, LossTag.PHASE, 10),
    ],
    ids=lambda v: getattr(v, "value", v),
)
def test_coupled_descent_matches_every_gradient_reference(
    coupled_targets, param, tag, steps, monkeypatch
):
    # Each try evaluates the loss once and computes its gradient only if
    # its value is finite and no higher than the current loss; the states
    # must equal bit for bit those of the descent that computes every
    # try's gradient, which also evaluates each try once.
    from _oracles import every_gradient_descend_coupled

    from magphase import optim

    real_evaluate, descend = optim.evaluate_loss, optim._descend_coupled
    tries = []  # per evaluation: [value, loss it must not exceed, gradients computed]

    def counted(kind, estimate, targets):
        lv = real_evaluate(kind, estimate, targets)
        entry = [lv.value, states[-1][1] if states else math.inf, 0]
        tries.append(entry)

        def gradient():
            entry[2] += 1
            return lv.gradient()

        return LossValue(lv.value, gradient)

    def reference(problem, x, evaluate, project):
        def every_gradient(z):
            ref_tries.append(z)
            point, f, grad = evaluate(z)
            return point, f, grad()

        return every_gradient_descend_coupled(problem, x, every_gradient, project)

    problem = OptimizationProblem(
        parameterization=param,
        loss=LossKind(tag),
        targets=coupled_targets,
        cfg=CFG_COUPLED,
        steps=steps,
    )
    states, ref_states, ref_tries = [], [], []
    monkeypatch.setattr(optim, "evaluate_loss", counted)
    monkeypatch.setattr(optim, "_descend_coupled", _recorded(descend, states))
    got = optimize(problem)
    monkeypatch.setattr(optim, "evaluate_loss", real_evaluate)
    monkeypatch.setattr(optim, "_descend_coupled", _recorded(reference, ref_states))
    want = optimize(problem)
    assert states == ref_states
    assert got.stop_reason == want.stop_reason
    assert got.trajectory == want.trajectory
    assert len(tries) == len(ref_tries)
    for value, bound, gradients in tries:
        assert gradients == (math.isfinite(value) and value <= bound)
    if param is Parameterization.FREE_WAVEFORM:  # every step backtracks
        assert sum(gradients for *_, gradients in tries) < len(tries)


@pytest.mark.parametrize(
    "param, tag, steps, kw",
    [
        # The coupled benchmark's five problem kinds at its 20-step budget.
        (Parameterization.FREE_MAG_FIXED_PHASE, LossTag.RI_ISTFT, 20, {}),
        (Parameterization.FREE_MAG_FIXED_PHASE, LossTag.RI_ISTFT_MAG, 20, {}),
        (Parameterization.FREE_WAVEFORM, LossTag.WAV_MAG, 20, {}),
        (Parameterization.FREE_WAVEFORM, LossTag.RI_MAG, 20, {}),
        (Parameterization.FREE_WAVEFORM, LossTag.PHASE, 20, {}),
        # The every-gradient test's longer run, and a run that stops early.
        (Parameterization.FREE_MAG_FIXED_PHASE, LossTag.RI_ISTFT_MAG, 50, {}),
        (Parameterization.FREE_WAVEFORM, LossTag.WAV, 200, {"step_size": 1e14}),
    ],
    ids=lambda v: getattr(v, "value", v) if not isinstance(v, dict) else "",
)
def test_warm_started_search_keeps_the_restarting_search_states(
    coupled_targets, param, tag, steps, kw, monkeypatch
):
    # Starting each step at twice the last kept size departs from the
    # search that restarts at lr0 only where a skipped larger size would
    # also pass; on these problems none does, so every state, checkpoint
    # and stop equals the restarting search's bit for bit, for fewer
    # evaluations wherever a free waveform backtracks at every step.
    from _oracles import restart_descend_coupled

    from magphase import optim

    real_evaluate, descend = optim.evaluate_loss, optim._descend_coupled
    evaluations = []
    monkeypatch.setattr(optim, "evaluate_loss", lambda *a: evaluations.append(1) or real_evaluate(*a))
    problem = OptimizationProblem(
        parameterization=param,
        loss=LossKind(tag),
        targets=coupled_targets,
        cfg=CFG_COUPLED,
        steps=steps,
        **kw,
    )
    states, restart_states = [], []
    monkeypatch.setattr(optim, "_descend_coupled", _recorded(descend, states))
    got = optimize(problem)
    warm = len(evaluations)
    evaluations.clear()
    monkeypatch.setattr(optim, "_descend_coupled", _recorded(restart_descend_coupled, restart_states))
    want = optimize(problem)
    assert states == restart_states
    assert got.stop_reason == want.stop_reason
    assert got.trajectory == want.trajectory
    if tag is LossTag.WAV:
        assert got.stop_reason.startswith("no progress")
    if param is Parameterization.FREE_WAVEFORM:
        assert warm < len(evaluations)
    else:
        assert warm <= len(evaluations)


def _bits(values):
    return [None if v is None else float(v).hex() for v in values]


@pytest.mark.parametrize(
    "param, tag, steps, kw",
    [
        # The coupled benchmark's problems, checkpointed at every step.
        (Parameterization.FREE_MAG_FIXED_PHASE, LossTag.RI_ISTFT, 10, {}),
        (Parameterization.FREE_MAG_FIXED_PHASE, LossTag.RI_ISTFT_MAG, 10, {}),
        (Parameterization.FREE_WAVEFORM, LossTag.WAV_MAG, 10, {}),
        (Parameterization.FREE_WAVEFORM, LossTag.RI_MAG, 10, {}),
        (Parameterization.FREE_WAVEFORM, LossTag.PHASE, 10, {}),
        # An early stop, off the every-2nd-step cadence.
        (Parameterization.FREE_WAVEFORM, LossTag.WAV, 200, {"step_size": 1e14}),
        # Separable descents, the first with its last step off the cadence.
        (Parameterization.FREE_MAG_FIXED_PHASE, LossTag.L2_COMPLEX_MAG, 201, {}),
        (Parameterization.FREE_RI, LossTag.RI_MAG, 30, {"init": "random"}),
    ],
    ids=lambda v: getattr(v, "value", v) if not isinstance(v, dict) else "",
)
def test_shared_views_equal_views_rebuilt_from_the_parameters(
    coupled_targets, param, tag, steps, kw
):
    # The loss, the checkpoints and the result share each point's views;
    # every bit must equal that of rebuilding them from the parameters.
    from _oracles import rebuilt_views_optimize

    problem = OptimizationProblem(
        parameterization=param,
        loss=LossKind(tag),
        targets=coupled_targets,
        cfg=CFG_COUPLED,
        steps=steps,
        **kw,
    )
    got = optimize(problem)
    if tag is LossTag.WAV:
        assert got.stop_reason.startswith("no progress") and got.trajectory.steps[-1] % 2
    params, traj, final_loss, spec, sig = rebuilt_views_optimize(problem)
    assert got.params.tobytes() == params.tobytes()
    assert got.trajectory.steps == traj.steps
    for column in ("loss", "si_sdr_db", "msnr_db", "psnr_db"):
        assert _bits(getattr(got.trajectory, column)) == _bits(getattr(traj, column)), column
    assert _bits([got.final_loss]) == _bits([final_loss])
    assert got.spectrogram.config == spec.config
    assert got.spectrogram.data.tobytes() == spec.data.tobytes()
    assert got.signal.sample_rate_hz == sig.sample_rate_hz
    assert got.signal.samples.tobytes() == sig.samples.tobytes()


def _count_calls(monkeypatch, fn):
    """A list that grows by one per call of fn, counted at every magphase module that binds it."""
    import sys

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "magphase" or name.startswith("magphase."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize(
    "param, tag, fn",
    [
        (Parameterization.FREE_MAG_FIXED_PHASE, LossTag.RI_ISTFT, istft_array),
        (Parameterization.FREE_WAVEFORM, LossTag.WAV_MAG, stft_array),
    ],
    ids=["ri-istft-istft_array", "wav+mag-stft_array"],
)
def test_a_coupled_try_maps_to_its_other_domain_once(coupled_targets, monkeypatch, param, tag, fn):
    # Each try's loss builds the view in the other domain once; the
    # checkpoints (one per step here) and the result read the kept try's.
    from magphase import optim

    real, tries = optim.evaluate_loss, []
    monkeypatch.setattr(optim, "evaluate_loss", lambda *a: tries.append(1) or real(*a))
    calls = _count_calls(monkeypatch, fn)
    problem = OptimizationProblem(
        parameterization=param,
        loss=LossKind(tag),
        targets=coupled_targets,
        cfg=CFG_COUPLED,
        steps=10,
    )
    result = optimize(problem)
    assert result.trajectory.steps == list(range(11))
    assert len(tries) >= 11
    assert len(calls) == len(tries)


@pytest.mark.parametrize(
    "param, tag, steps",
    [
        # 201 steps checkpoint every 2nd step, so the last is off the cadence.
        (Parameterization.FREE_MAG_FIXED_PHASE, LossTag.L2_COMPLEX_MAG, 201),
        (Parameterization.FREE_RI, LossTag.RI_MAG, 10),
    ],
    ids=["l2-complex+mag-201", "ri+mag-10"],
)
def test_a_separable_checkpoint_maps_to_the_waveform_once(scene_targets, monkeypatch, param, tag, steps):
    # Each checkpoint builds its waveform once; the result reads the last one's.
    calls = _count_calls(monkeypatch, istft_array)
    problem = OptimizationProblem(
        parameterization=param,
        loss=LossKind(tag),
        targets=scene_targets,
        cfg=CFG_SCENE,
        steps=steps,
    )
    result = optimize(problem)
    assert result.trajectory.steps[-1] == steps
    assert len(calls) == len(result.trajectory.steps)


def test_a_separable_run_holds_only_the_maps_it_reads():
    # The traced peak of a fixed-phase l2-complex run is bounded by what the
    # run must hold at its largest moment, the whole-map retry of step 2,
    # where momentum overshoots at nearly every unit. In real maps of the
    # spectrogram's shape (M bytes each):
    # - the unit vector e^{j phase} and the kernel's conj(unit) * S, both
    #   complex: 4 M;
    # - the descent's x, L, G, lr, vel and its candidate cand, Lc, Gc: 8 M;
    # - the failing units' flat int64 indices: at most 1 M;
    # - the kernel's working maps, m - proj and the two squares: 3 M;
    # - what the checkpoints keep for the later ones: S.phase, 1 M, and
    #   the iSTFT's overlap coverage, one float per padded sample.
    # Keeping the initial parameters (1 M) or conj(unit) (2 M) exceeds it.
    import tracemalloc

    cfg = StftConfig.for_window(512, 128)
    rng = np.random.default_rng(0)
    s = TimeSignal(rng.standard_normal(64000), 16000)
    y = TimeSignal(s.samples + rng.standard_normal(64000), 16000)
    targets = Targets(S=stft(s, cfg), s=s, Y=stft(y, cfg), y=y)
    M = 8 * targets.S.data.size
    coverage = 8 * ((targets.S.num_frames - 1) * cfg.hop_length_samples + cfg.win_length_samples)
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE, loss=QUAD_L2,
        targets=targets, cfg=cfg, steps=2,
    )
    tracemalloc.start()
    try:
        optimize(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * M + coverage


def _result_bytes(result):
    traj = result.trajectory
    columns = (traj.loss, traj.si_sdr_db, traj.msnr_db, traj.psnr_db)
    views = (result.params, result.spectrogram.data, result.signal.samples)
    return [a.tobytes() for a in views] + [traj.steps] + [_bits(c) for c in columns]


@pytest.mark.parametrize(
    "param, tag",
    [
        (Parameterization.FREE_MAG_FIXED_PHASE, LossTag.RI_ISTFT),
        (Parameterization.FREE_MAG_FIXED_PHASE, LossTag.RI_ISTFT_MAG),
        (Parameterization.FREE_RI, LossTag.RI_ISTFT),
        (Parameterization.FREE_WAVEFORM, LossTag.WAV_MAG),
    ],
    ids=lambda v: getattr(v, "value", v),
)
def test_results_never_alias_work_arrays(coupled_targets, monkeypatch, param, tag):
    # A coupled run's transforms reuse work arrays; nothing the run yields
    # or returns may share one. Every point the first run yields keeps the
    # bytes of its views, and its result keeps every byte, through the rest
    # of that run and through a second run of the same shapes. So does a
    # gradient through the rest of the evaluations at one run's points.
    from magphase import optim

    def problem(loss_tag, **kw):
        return OptimizationProblem(
            parameterization=param, loss=LossKind(loss_tag), targets=coupled_targets,
            cfg=CFG_COUPLED, steps=6, **kw,
        )

    points = []
    descend = optim._descend_coupled

    def recording(*args):
        for k, f, point in descend(*args):
            points.append((point, point.spectrogram.data.tobytes(), point.signal.samples.tobytes()))
            yield k, f, point

    monkeypatch.setattr(optim, "_descend_coupled", recording)
    first = optimize(problem(tag))
    want = _result_bytes(first)
    monkeypatch.undo()
    optimize(problem(LossTag.RI_ISTFT if tag is not LossTag.RI_ISTFT else LossTag.RI_ISTFT_MAG))
    assert _result_bytes(first) == want
    assert len(points) == 7
    for point, spec, sig in points:
        assert point.spectrogram.data.tobytes() == spec
        assert point.signal.samples.tobytes() == sig

    x0, point_at, chain, project, _ = _parameterize(problem(tag))
    if param is Parameterization.FREE_WAVEFORM:
        chain = np.asarray  # a waveform loss's gradient is in the parameters already
    gradients = []
    for x in (x0, project(0.5 * x0), project(2.0 * x0)):
        g = chain(evaluate_loss(LossKind(tag), point_at(x), coupled_targets).gradient())
        gradients.append((g, g.tobytes()))
    assert all(g.tobytes() == b for g, b in gradients)


def test_a_coupled_run_holds_its_state_and_work_arrays_only():
    # Bounds derived from what a fixed-phase ri-istft run holds, in maps of
    # the spectrogram's shape (M bytes real, 2 M complex), padded-buffer
    # lengths (B bytes) and signal lengths (T bytes). Its largest moment is
    # a try's gradient, in the iSTFT adjoint:
    # - the unit vector e^{j phase} and its conjugate: 4 M;
    # - the reference phase the checkpoints keep (1 M) and the overlap
    #   coverage (B);
    # - the workspace: a frame matrix (frames x fft) and a windowed-segment
    #   matrix (frames x window), 2 M each, the complex spectrum, 2 M, and
    #   the padded and overlap-add buffers, B each: 6 M + 2 B;
    # - the kept state x, the momentum and g, the real part of a complex
    #   gradient: 4 M; the try's candidate and step: 2 M;
    # - the kept point's and the try's spectrograms and waveforms: 4 M + 2 T;
    # - the loss's residual and its time gradient (T each), and the fresh
    #   spectrogram gradient the adjoint returns (2 M), while NumPy casts the
    #   real scale to complex through its ufunc buffer, np.getbufsize()
    #   complex elements (C; 8192 of them, 128 KiB, on NumPy 2.4).
    # That is 23 M + 3 B + 4 T + C, plus 64 KiB for Python objects.
    # Keeping the initial parameters adds 1 M. Once the run has returned and
    # its result is dropped, only the reference phase and the coverage may
    # stay: a workspace kept past the run (6 M + 2 B) exceeds that.
    import tracemalloc

    cfg = StftConfig.for_window(512, 128)
    rng = np.random.default_rng(0)
    s = TimeSignal(rng.standard_normal(64000), 16000)
    y = TimeSignal(s.samples + rng.standard_normal(64000), 16000)
    targets = Targets(S=stft(s, cfg), s=s, Y=stft(y, cfg), y=y)
    M = 8 * targets.S.data.size
    B = 8 * ((targets.S.num_frames - 1) * cfg.hop_length_samples + cfg.win_length_samples)
    T = 8 * len(s)
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE, loss=LossKind(LossTag.RI_ISTFT),
        targets=targets, cfg=cfg, steps=3,
    )
    tracemalloc.start()
    try:
        result = optimize(problem)
        peak = tracemalloc.get_traced_memory()[1]
        del result
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    C = 16 * np.getbufsize()
    assert peak <= 23 * M + 3 * B + 4 * T + C + 2**16
    assert held <= M + B + M // 8  # the phase, the coverage, and small objects


def test_coupled_backtrack_rejects_non_finite_gradient_at_value_accepted_candidate():
    # f = x^2 from x = 1 with step 2: the first try (-3) fails on value;
    # the first halving (-1) passes on value, but its gradient is NaN, so
    # the try fails and the second halving (0) is kept. Each try is
    # evaluated once, and only the two that pass on value compute a gradient.
    from types import SimpleNamespace

    from magphase.optim import _descend_coupled

    calls = []

    def evaluate(x):
        calls.append((float(x[0]), "value"))

        def gradient():
            calls.append((float(x[0]), "gradient"))
            return np.full_like(x, np.nan) if x[0] == -1.0 else 2.0 * x

        return x, float(x[0] ** 2), gradient

    problem = SimpleNamespace(step_size=2.0, momentum=0.9, steps=1)
    states = list(_descend_coupled(problem, np.array([1.0]), evaluate, lambda x: x))
    assert [(k, f, float(x[0])) for k, f, x in states] == [(0, 1.0, 1.0), (1, 0.0, 0.0)]
    assert calls == [
        (1.0, "value"), (1.0, "gradient"), (-3.0, "value"), (-1.0, "value"),
        (-1.0, "gradient"), (0.0, "value"), (0.0, "gradient"),
    ]


def test_coupled_search_order_starts_at_twice_the_kept_size():
    # lr0 = 1 over 8 parameters, so a step's 61 sizes are 2^-i, i = 0..60,
    # 2^-60 the first at or below the floor 1e-18. Step k moves along axis k - 1 only, which no
    # earlier step touched, so a try's size is minus its candidate's entry
    # there and momentum shows as a change on any other axis. Each step
    # passes the sizes its script names; a pass lowers the loss by one.
    from types import SimpleNamespace

    from magphase.optim import _descend_coupled

    script = [  # (indices that pass, indices tried in order)
        ({0}, [0]),
        ({2}, [0, 1, 2]),  # kept 0: the search starts at lr0 with momentum
        ({5}, [1, 2, 3, 4, 5]),  # kept 2: starts at 2^-1, no momentum
        ({1}, [*range(4, 61), 0, 1]),  # down to the floor, then lr0 down
        ({6}, [0, 1, 2, 3, 4, 5, 6]),
        (set(), [*range(5, 61), *range(5)]),  # a stall: all 61 fail, then stop
    ]
    states, tries = [], []
    x0 = np.zeros(8)

    def evaluate(cand):
        k = len(states)  # the step being searched; 0 for the initial point
        if k == 0:
            return cand, 0.0, lambda: np.eye(8)[0]
        x = states[-1][2]
        i = round(-math.log2(-cand[k - 1]))
        assert cand[k - 1] == -(2.0**-i)
        others = np.delete(cand != x, k - 1)
        tries.append((k, i, bool(others.any())))
        f = states[-1][1] + (-1.0 if i in script[k - 1][0] else 1.0)
        return cand, f, lambda: np.eye(8)[k]

    problem = SimpleNamespace(step_size=0.125, momentum=0.5, steps=10)
    for state in _descend_coupled(problem, x0, evaluate, lambda x: x):
        states.append(state)
    assert [(k, f) for k, f, _ in states] == [(k, -float(k)) for k in range(len(script))]
    # Step 1 has no velocity yet, so its lr0 try shows no momentum.
    want = [(k, i, i == 0 and k > 1) for k, (_, order) in enumerate(script, 1) for i in order]
    assert tries == want
    assert sorted(i for k, i, _ in tries if k == len(script)) == list(range(61))


def test_coupled_step_with_no_finite_gradient_ends_the_run(scene_targets, monkeypatch):
    # Past the initial point every gradient is NaN while every value stays
    # finite: no try of step 1 can be kept, so the run ends there.
    from magphase import optim

    real = optim.evaluate_loss
    grads = []

    def nan_gradients(kind, estimate, targets):
        lv = real(kind, estimate, targets)

        def gradient():
            grads.append(1)
            g = lv.gradient()
            return g if len(grads) == 1 else np.full_like(g, np.nan)

        return LossValue(lv.value, gradient)

    monkeypatch.setattr(optim, "evaluate_loss", nan_gradients)
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_WAVEFORM,
        loss=LossKind(LossTag.WAV),
        targets=scene_targets,
        cfg=CFG_SCENE,
        steps=5,
    )
    result = optimize(problem)
    assert result.stop_reason == "no progress at step 1"
    assert result.trajectory.steps == [0]
    assert result.params.tobytes() == scene_targets.y.samples.tobytes()
    assert len(grads) > 2  # halvings whose value passed computed a gradient too


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


_INIT_LOSSES = {
    Parameterization.FREE_WAVEFORM: LossKind(LossTag.WAV),
    Parameterization.FREE_RI: LossKind(LossTag.RI),
    Parameterization.FREE_MAG_FIXED_PHASE: QUAD_L2,
}


@pytest.mark.parametrize("param", list(_INIT_LOSSES), ids=lambda p: p.value)
@pytest.mark.parametrize("init", ["zeros", "random"])
def test_initial_point(scene_targets, param, init):
    # zeros is the origin in the parameters' own type; random is a Philox
    # draw keyed by init_seed, scaled to the target: the mixture's RMS for
    # a waveform, the mean |Y| for spectrogram parameters.
    problem = OptimizationProblem(
        parameterization=param, loss=_INIT_LOSSES[param], targets=scene_targets,
        cfg=CFG_SCENE, init=init, init_seed=11,
    )
    x0 = _parameterize(problem)[0]
    y, Y = scene_targets.y.samples, scene_targets.Y.data
    rng = np.random.Generator(np.random.Philox(key=11))
    if param is Parameterization.FREE_WAVEFORM:
        expected = rng.standard_normal(y.shape) * np.sqrt(np.mean(y**2))
    elif param is Parameterization.FREE_RI:
        expected = rng.standard_normal(Y.shape) + 1j * rng.standard_normal(Y.shape)
        expected = expected * np.mean(np.abs(Y))
    else:
        expected = np.abs(rng.standard_normal(Y.shape)) * np.mean(np.abs(Y))
    if init == "zeros":
        expected = np.zeros_like(expected)
    assert x0.shape == expected.shape and x0.dtype == expected.dtype
    np.testing.assert_allclose(x0, expected, rtol=1e-12, atol=0)


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
    path.write_text(report.csv())
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
    path.write_text(result.trajectory.csv())
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


def test_silent_reference_raises_at_a_checkpoint(scene_targets):
    # A silent estimate floors si_sdr to -inf; a silent reference is an
    # error, as in metrics.report, not a run full of -inf.
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_WAVEFORM,
        loss=LossKind(LossTag.WAV),
        targets=Targets(s=TimeSignal(np.zeros(len(scene_targets.y)), 8000), y=scene_targets.y),
        cfg=CFG_SCENE,
        steps=5,
    )
    with pytest.raises(ZeroSignalError, match="reference"):
        optimize(problem)


def _count_phase_of(monkeypatch, S):
    """[X is S for each phase_of(X)], counted at every module that binds phase_of."""
    import magphase

    real, calls = phase_of, []

    def counting_phase_of(X):
        calls.append(X is S)
        return real(X)

    for name in ("types", "metrics", "optim", "masks", "compensation"):
        monkeypatch.setattr(getattr(magphase, name), "phase_of", counting_phase_of)
    return calls


def _fresh_S(targets):
    """targets with S in a new container, so no phase is kept from another test."""
    return replace(targets, S=Spectrogram(targets.S.data, targets.S.config))


def test_a_run_takes_the_reference_phase_once(scene_targets, monkeypatch):
    # Checkpoints read the phase S keeps: phase_of(S) is taken once
    # however many checkpoints there are, and each checkpoint's values are
    # the public metrics' bits.
    targets = _fresh_S(scene_targets)
    calls = _count_phase_of(monkeypatch, targets.S)
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=QUAD_L2,
        targets=targets,
        cfg=CFG_SCENE,
        steps=10,
    )
    result = optimize(problem)
    traj = result.trajectory
    assert len(traj.steps) == 11
    assert calls.count(True) == 1
    assert calls.count(False) == 1 + 11  # the mixture phase, then each estimate's
    assert traj.msnr_db[-1] == msnr(result.spectrogram, targets.S)
    assert traj.psnr_db[-1] == psnr(result.spectrogram, targets.S)
    assert traj.si_sdr_db[-1] == si_sdr(result.signal, targets.s)


def test_a_trend_experiment_takes_the_reference_phase_once(scene_targets, monkeypatch):
    # The two arms share one Targets, so S's phase serves both.
    targets = _fresh_S(scene_targets)
    calls = _count_phase_of(monkeypatch, targets.S)
    run_trend_experiment(targets, CFG_SCENE, steps=3)
    assert calls.count(True) == 1


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
    for seed in (-1, 2**128):  # outside the range of a Philox key
        with pytest.raises(ConfigInvalidError, match="init_seed must be an integer in"):
            optimize(OptimizationProblem(**base, init_seed=seed))
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
    with pytest.raises(ConfigInvalidError, match="loss must be a LossKind"):
        OptimizationProblem(
            parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
            loss="l2-complex",  # a bare tag name is not a LossKind
            targets=scene_targets,
            cfg=CFG_SCENE,
        )


def test_unknown_init_rejected(scene_targets):
    # An unknown init used to fall through to the random init silently.
    with pytest.raises(ConfigInvalidError, match="init must be one of"):
        OptimizationProblem(
            parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
            loss=QUAD_L2,
            targets=scene_targets,
            cfg=CFG_SCENE,
            init="mixtrue",
        )


def _scene_problem(targets, **kw):
    """A short free-mag-fixed-phase l2-complex problem on the scene, with kw set."""
    kw = {"steps": 3, **kw}
    return OptimizationProblem(Parameterization.FREE_MAG_FIXED_PHASE, QUAD_L2, targets, CFG_SCENE, **kw)


@pytest.mark.parametrize(
    "field, value", [("steps", 2.5), ("step_size", 10**400)], ids=["fractional_steps", "401_digit_step_size"]
)
def test_a_budget_or_step_size_it_cannot_run_is_refused(scene_targets, field, value):
    # steps=2.5 died in range() with a TypeError, and step_size=10**400 in
    # math.isfinite with an OverflowError.
    with pytest.raises(ConfigInvalidError, match=field):
        optimize(_scene_problem(scene_targets, **{field: value}))


@pytest.mark.parametrize("shape", [(1, None), (None,), (3, 3)], ids=["one_frame", "one_row", "3x3"])
def test_a_custom_phase_of_another_shape_is_refused(scene_targets, shape):
    # (1, F) and (F,) broadcast against the targets and ran; (3, 3) died in
    # numpy's broadcasting with a bare ValueError.
    bins = scene_targets.S.data.shape[1]
    phase = np.zeros([bins if n is None else n for n in shape])
    with pytest.raises(ShapeMismatchError, match="custom_phase is"):
        optimize(_scene_problem(scene_targets, phase_source="custom", custom_phase=phase))


def test_a_custom_phase_that_is_not_finite_is_refused(scene_targets):
    # It was refused as DivergedError, "objective non-finite at the initial point".
    phase = np.zeros(scene_targets.S.data.shape)
    phase[3, 4] = np.nan
    with pytest.raises(NonFiniteError, match="custom_phase"):
        optimize(_scene_problem(scene_targets, phase_source="custom", custom_phase=phase))


def test_a_custom_phase_under_another_phase_source_is_refused(scene_targets):
    # It was ignored without a word: the run took the mixture phase.
    phase = np.zeros(scene_targets.S.data.shape)
    with pytest.raises(ConfigInvalidError, match="custom_phase applies only"):
        optimize(_scene_problem(scene_targets, custom_phase=phase))


def test_an_init_seed_too_long_to_print_is_refused_by_its_size(scene_targets):
    # Formatting the 5001-digit seed into the message raised ValueError
    # (Python's 4300-digit limit) in place of ConfigInvalidError.
    match = rf"init_seed must be an integer in \[0, 2\^128\), got an integer of {(10**5000).bit_length()} bits"
    with pytest.raises(ConfigInvalidError, match=match):
        _scene_problem(scene_targets, init_seed=10**5000)


_PROBE_S = TimeSignal(np.sin(0.3 * np.arange(90)), 8000)
_PROBE_Y = TimeSignal(_PROBE_S.samples + 0.1 * np.cos(1.7 * np.arange(90)), 8000)
_PROBE_TARGETS = Targets(
    S=stft(_PROBE_S, CFG_GRID), s=_PROBE_S, Y=stft(_PROBE_Y, CFG_GRID), y=_PROBE_Y
)
_PROBE_SHAPE = _PROBE_TARGETS.S.data.shape
# Each field's valid values; a problem may still refuse a mix of them.
_PROBE_FIELDS = {
    "parameterization": list(Parameterization),
    "loss": [QUAD_L2, LossKind(LossTag.RI_MAG), LossKind(LossTag.WAV), LossKind(LossTag.MSA)],
    "targets": [_PROBE_TARGETS, Targets(S=_PROBE_TARGETS.S, s=_PROBE_S)],
    "cfg": [CFG_GRID],
    "phase_source": ["mixture", "oracle", "custom"],
    "custom_phase": [None, np.zeros(_PROBE_SHAPE)],
    "init": ["mixture", "zeros", "random"],
    "init_seed": [0, 7, np.int64(3), 2**128 - 1],
    "steps": [1, 3, np.int64(2)],
    "step_size": [0.5, 1, np.float64(0.25)],
    "momentum": [0.0, 0.9, np.float32(0.5)],
}
# Values that some field refuses, drawn for any field.
_PROBE_BAD = (
    *EDGE_VALUES, "moon", 2.5, 2**128, np.full(_PROBE_SHAPE, np.nan), np.zeros(_PROBE_SHAPE[1]),
    np.ones(_PROBE_SHAPE, dtype=complex), StftConfig(16, 8, 16), Targets(),
)
_PROBE_BASE = dict(  # every field, at a valid value
    parameterization=Parameterization.FREE_RI, loss=QUAD_L2, targets=_PROBE_TARGETS, cfg=CFG_GRID,
    phase_source="mixture", custom_phase=None, init="mixture", init_seed=0, steps=3, step_size=0.5,
    momentum=0.9,
)


def _probe(**fields):
    return {"fields": {**_PROBE_BASE, **fields}, "bad": {}}


@settings(max_examples=300, deadline=None)
@given(
    fields=st.fixed_dictionaries({k: st.sampled_from(v) for k, v in _PROBE_FIELDS.items()}),
    bad=st.dictionaries(st.sampled_from(sorted(_PROBE_FIELDS)), st.sampled_from(_PROBE_BAD), max_size=2),
)
# Each was accepted, or refused with a TypeError or ValueError.
@example(**_probe(steps=True))
@example(**_probe(step_size=True))
@example(**_probe(init_seed=1.5))
@example(**_probe(init_seed=True))
@example(**_probe(phase_source="moon"))
@example(**_probe(step_size="0.5"))
@example(**_probe(momentum=None))
@example(**_probe(init_seed=10**5000))
# A complex custom phase was cast to float64, with only a ComplexWarning.
@example(**_probe(
    parameterization=Parameterization.FREE_MAG_FIXED_PHASE, phase_source="custom",
    custom_phase=np.ones(_PROBE_SHAPE, dtype=complex),
))
def test_a_problem_is_built_only_from_fields_it_can_run(fields, bad):
    # Building a problem either refuses it with a MagphaseError or keeps
    # fields that each pass their own rule; no descent runs here.
    fields = {**fields, **bad}
    try:
        problem = OptimizationProblem(**fields)
    except MagphaseError:
        return
    steps, seed = fields["steps"], fields["init_seed"]
    assert isinstance(steps, (int, np.integer)) and not isinstance(steps, bool) and steps >= 1
    assert isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and 0 <= seed < 2**128
    assert real_not_bool(fields["step_size"]) and 0 < fields["step_size"] <= sys.float_info.max
    assert real_not_bool(fields["momentum"]) and 0 <= fields["momentum"] < 1
    assert type(problem.step_size) is float and type(problem.momentum) is float
    assert fields["init"] in ("mixture", "zeros", "random")
    assert fields["phase_source"] in ("mixture", "oracle", "custom")
    assert fields["custom_phase"] is None or fields["phase_source"] == "custom"
    if problem.parameterization is Parameterization.FREE_MAG_FIXED_PHASE:  # where the phase is read
        assert not np.iscomplexobj(fields["custom_phase"])  # cast to float64, it lost its imaginary part
    assert isinstance(fields["targets"], Targets) and isinstance(fields["cfg"], StftConfig)


@pytest.mark.parametrize("name", ["S", "Y"])
def test_targets_taken_with_another_config_rejected(scene_targets, name):
    # Targets taken at 200/80/256 under a 240/80/256 problem used to run.
    cfg = StftConfig(240, 80, 256)
    assert scene_targets.S.config == StftConfig(200, 80, 256) != cfg
    other = {"S": stft(scene_targets.s, cfg), "Y": stft(scene_targets.y, cfg)}
    other[name] = getattr(scene_targets, name)
    targets = Targets(s=scene_targets.s, y=scene_targets.y, **other)
    with pytest.raises(ConfigInvalidError, match="a target was taken with"):
        OptimizationProblem(Parameterization.FREE_MAG_FIXED_PHASE, QUAD_L2, targets, cfg, steps=5)
    with pytest.raises(ConfigInvalidError, match="a target was taken with"):
        run_trend_experiment(targets, cfg, steps=5)


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


def test_coupled_descent_refuses_a_non_finite_start(scene_targets):
    # A NaN in the reference makes the waveform loss NaN at the initial point.
    from magphase.errors import DivergedError

    bad = np.array(scene_targets.s.samples)
    bad[0] = np.nan
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_WAVEFORM,
        loss=LossKind(LossTag.WAV),
        targets=Targets(s=TimeSignal(bad, 8000), y=scene_targets.y),
        cfg=CFG_SCENE,
        steps=5,
    )
    with pytest.raises(DivergedError, match="non-finite at the initial point"):
        optimize(problem)


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


def test_fixed_phase_is_built_once_and_shared(scene_targets, monkeypatch):
    # The per-unit kernel and the map to the spectrogram take one unit vector.
    import magphase.optim as optim_module

    calls, units = [], []
    monkeypatch.setattr(
        optim_module, "fixed_phase", lambda p: calls.append(p) or fixed_phase(p)
    )
    kernel = optim_module.fixed_phase_kernel
    monkeypatch.setattr(
        optim_module, "fixed_phase_kernel", lambda *a: units.append(a[-1]) or kernel(*a)
    )
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE, loss=QUAD_L2_MAG,
        targets=scene_targets, cfg=CFG_SCENE, steps=1,
    )
    _, point_at, *_ = _parameterize(problem)
    assert len(calls) == 1 and len(units) == 1
    assert point_at(np.ones(units[0].shape)).spectrogram.data.tobytes() == units[0].tobytes()


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
    from magphase.types import phase_of

    loss = LossKind(tag, mag_weight=0.7) if tag in _MAG_TERM_TAGS else LossKind(tag)
    fields = dict(parameterization=param, loss=loss, targets=scene_targets, cfg=CFG_SCENE)
    if param is Parameterization.FREE_RI and tag in (LossTag.MSA, LossTag.PSA):
        with pytest.raises(MissingTargetError):  # magnitude loss on complex params
            OptimizationProblem(**fields)
        return
    per_unit = _parameterize(OptimizationProblem(**fields))[-1]
    m = np.abs(scene_targets.Y.data) * 0.9
    u = np.exp(1j * phase_of(scene_targets.Y))
    if tag in (LossTag.MSA, LossTag.PSA):
        x, est = m, MagSpectrogram(m, CFG_SCENE)
    elif param is Parameterization.FREE_RI:
        x = m * u * np.exp(0.3j)  # off the mixture phase: a generic complex point
        est = Spectrogram(x, CFG_SCENE)
    else:
        x, est = m, Spectrogram(m * u, CFG_SCENE)
    L, grad = per_unit(x)
    G = grad()
    lv = evaluate_loss(loss, est, scene_targets)
    assert float(np.mean(L)) == pytest.approx(lv.value, abs=1e-12)
    g = lv.gradient() * L.size
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
    from magphase.types import phase_of

    loss = LossKind(tag, mag_weight=0.7) if tag in _MAG_TERM_TAGS else LossKind(tag)
    fields = dict(parameterization=param, loss=loss, targets=scene_targets, cfg=CFG_SCENE)
    if param is Parameterization.FREE_RI and tag in (LossTag.MSA, LossTag.PSA):
        with pytest.raises(MissingTargetError):  # magnitude loss on complex params
            OptimizationProblem(**fields)
        return
    per_unit = _parameterize(OptimizationProblem(**fields))[-1]
    m = np.abs(scene_targets.Y.data) * 0.9
    m.reshape(-1)[::97] = 0.0  # the kernels' zero-magnitude branches
    if tag in (LossTag.MSA, LossTag.PSA):
        x = m
    elif param is Parameterization.FREE_RI:
        x = m * np.exp(1j * (phase_of(scene_targets.Y) + 0.3))
    else:
        x = m
    L, grad = per_unit(x)
    G = grad()
    rng = np.random.default_rng(7)
    for at in (
        rng.choice(x.size, size=x.size // 10, replace=False),
        np.array([], dtype=np.intp),
        np.arange(x.size),
    ):
        La, grad = per_unit(x.reshape(-1)[at], at=at)
        assert La.tobytes() == L.reshape(-1)[at].tobytes()
        assert grad().tobytes() == G.reshape(-1)[at].tobytes()


@pytest.mark.parametrize(
    "tag",
    [LossTag.RI, LossTag.RI_MAG, LossTag.L2_COMPLEX, LossTag.L2_COMPLEX_MAG],
    ids=lambda t: t.value,
)
def test_retrying_failed_units_matches_full_evaluation(scene_targets, tag, monkeypatch):
    # Both pairs of the trend comparison backtrack: the L1 pair on more
    # than half of the units at most steps and on fewer in the later
    # retries, l2-complex on nearly all of them at step 2. A retry evaluates the
    # failing units alone, or the whole map when more than half failed;
    # both must reproduce the full-evaluation descent exactly, checkpoints
    # included.
    from _oracles import full_eval_descend_separable

    from magphase import optim

    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=LossKind(tag),
        targets=scene_targets,
        cfg=CFG_SCENE,
        steps=150,
    )
    calls, kernel = [], optim.fixed_phase_kernel

    def spied_kernel(*args):
        per_unit = kernel(*args)
        return lambda x, at=None: calls.append(at) or per_unit(x, at=at)

    monkeypatch.setattr(optim, "fixed_phase_kernel", spied_kernel)
    got = optimize(problem)
    gathered = [at.size for at in calls if at is not None]
    whole_map_retries = sum(at is None for at in calls) - (problem.steps + 1)  # less each step's first
    monkeypatch.setattr(optim, "_descend_separable", full_eval_descend_separable)
    want = optimize(problem)
    assert got.params.tobytes() == want.params.tobytes()
    assert got.final_loss == want.final_loss
    assert got.trajectory == want.trajectory
    assert gathered and 2 * max(gathered) <= scene_targets.S.data.size
    # l2-complex+mag never fails on more than half of this scene's units.
    assert (whole_map_retries > 0) == (tag is not LossTag.L2_COMPLEX_MAG)


def test_compensated_magnitude_helper(scene_targets):
    mag = compensated_magnitude(scene_targets.S, scene_targets.Y)
    assert np.all(mag.data >= 0)
    assert np.all(mag.data <= np.abs(scene_targets.S.data) + 1e-12)
