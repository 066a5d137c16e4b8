"""Gradient-descent harness over free spectrogram/magnitude/waveform parameters.

The central modeling decision: magnitude compensation only shows up when
the estimated phase cannot reach the clean phase. A learned separator is
in that position because phase is hard to predict; here the same
constraint is imposed directly by optimizing a magnitude matrix under a
fixed phase (typically the mixture phase). With fully free complex
parameters and enough steps, gradient descent simply reaches the target
and every metric becomes perfect, so those runs demonstrate the need for
the constraint rather than the compensation itself.

Descent is momentum GD with a backtracking safeguard: a step that would
increase the loss is retried with a halved step size (momentum dropped),
so the recorded loss is non-increasing. Magnitude parameters are clamped
to be nonnegative after every step.

optimize is the one driver: it composes each loss through the
parameterization's map to the complex spectrogram and that map's adjoint,
and the descents yield their states to it, so it alone picks the
checkpoints and records why the run stopped (stop_reason).

Objectives that decompose per T-F unit (every fixed-phase or free-complex
loss without an iSTFT inside) are line-searched per unit, each unit
halving its own step independently; this is what makes pointwise
convergence possible at all, since under a single global step the many
already-converged units veto any move large enough to help a distant
straggler. A retry evaluates only the units whose step failed, so a step
costs one full evaluation plus work in proportion to the failing units;
the results equal those of re-evaluating every unit bit for bit. Losses coupled across units by an iSTFT/STFT (and all
waveform-parameter runs) use one global step with the same halving rule;
there step sizes are interpreted per element (mean-normalized losses
carry a 1/count gradient factor, which the optimizer multiplies back).

Each loss comes from losses.py: coupled ones through evaluate_loss,
separable ones as per-unit kernels (losses.unit_kernel), except that the
complex separable kinds under a fixed phase use the magnitude-direction
restatements in _fixed_phase_kernel. Under a fixed phase, the L1 pair
ri / ri+mag and the quadratic pair l2-complex / l2-complex+mag (QUAD_L2,
QUAD_L2_MAG) have closed-form per-unit optima, one function for all four
(compensation.optimal_magnitude_along_phase), which the tests verify against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    ConfigInvalidError,
    DivergedError,
    MissingTargetError,
    ZeroSignalError,
)
from .losses import (
    MAGNITUDE_TAGS,
    SEPARABLE_TAGS,
    SPECTROGRAM_TAGS,
    WAVEFORM_TAGS,
    _MAG_TERM_TAGS,
    LossKind,
    LossTag,
    Targets,
    _bind,
    _require,
    _smooth_l1_grad,
    evaluate_loss,
    unit_kernel,
)
from .metrics import format_db, msnr, psnr, si_sdr
from .stft import istft_array, stft_adjoint, stft_array
from .types import (
    DEFAULT_SAMPLE_RATE_HZ,
    Spectrogram,
    StftConfig,
    TimeSignal,
    phase_of,
)

QUAD_L2 = LossKind(LossTag.L2_COMPLEX)
QUAD_L2_MAG = LossKind(LossTag.L2_COMPLEX_MAG)


class Parameterization(Enum):
    FREE_RI = "free-ri"
    FREE_MAG_FIXED_PHASE = "free-mag-fixed-phase"
    FREE_WAVEFORM = "free-waveform"


# Loss domains each parameterization can feed.
_DOMAINS = {
    Parameterization.FREE_RI: SPECTROGRAM_TAGS,
    Parameterization.FREE_MAG_FIXED_PHASE: SPECTROGRAM_TAGS | MAGNITUDE_TAGS,
    Parameterization.FREE_WAVEFORM: SPECTROGRAM_TAGS | WAVEFORM_TAGS,
}
_INITS = ("mixture", "zeros", "random")


@dataclass(frozen=True)
class OptimizationProblem:
    parameterization: Parameterization
    loss: LossKind
    targets: Targets
    cfg: StftConfig
    phase_source: str = "mixture"  # "mixture" | "oracle" | "custom"
    custom_phase: Optional[np.ndarray] = None
    init: str = "mixture"  # "mixture" | "zeros" | "random"
    init_seed: int = 0
    steps: int = 2000
    step_size: float = 0.5
    momentum: float = 0.9


@dataclass
class TrajectoryRecord:
    """Per-checkpoint step index, loss, and metrics (None when unavailable)."""

    steps: list = field(default_factory=list)
    loss: list = field(default_factory=list)
    si_sdr_db: list = field(default_factory=list)
    msnr_db: list = field(default_factory=list)
    psnr_db: list = field(default_factory=list)

    def append(self, step, loss, si, ms, ps):
        self.steps.append(step)
        self.loss.append(loss)
        self.si_sdr_db.append(si)
        self.msnr_db.append(ms)
        self.psnr_db.append(ps)

    def to_csv(self, path) -> None:
        def fmt(v):
            return "" if v is None else format_db(v)

        with open(path, "w") as fh:
            fh.write("step,loss,si_sdr_db,msnr_db,psnr_db\n")
            for i, step in enumerate(self.steps):
                fh.write(
                    f"{step},{self.loss[i]:.12g},{fmt(self.si_sdr_db[i])},"
                    f"{fmt(self.msnr_db[i])},{fmt(self.psnr_db[i])}\n"
                )


@dataclass(frozen=True)
class OptimizationResult:
    params: np.ndarray
    spectrogram: Optional[Spectrogram]
    signal: Optional[TimeSignal]
    trajectory: TrajectoryRecord
    final_loss: float
    stop_reason: str  # "budget", or "no progress at step k" when a coupled descent stops


def fixed_phase(problem: OptimizationProblem) -> np.ndarray:
    """The phase a free-mag-fixed-phase problem pins its estimate to."""
    if problem.phase_source == "mixture":
        (Y,) = _require(problem.targets, "Y")
        return phase_of(Y)
    if problem.phase_source == "oracle":
        (S,) = _require(problem.targets, "S")
        return phase_of(S)
    if problem.phase_source == "custom":
        if problem.custom_phase is None:
            raise MissingTargetError("phase_source 'custom' needs custom_phase")
        return np.asarray(problem.custom_phase, dtype=np.float64)
    raise ConfigInvalidError(f"unknown phase source {problem.phase_source!r}")


def _fixed_phase_kernel(problem: OptimizationProblem, unit: np.ndarray):
    """Per-unit kernel of a complex separable loss along the fixed phase `unit`.

    The free parameter is the magnitude m, and the estimate is m * unit.
    These kernels restate losses.unit_kernel for that direction (a test
    holds them equal) rather than calling it with the chain rule
    Re(conj(unit) * g), for two measured reasons (benchmark trend
    workload, seeds 101/102, on a shared 2-core x86 host):
    - speed: the complex kernels plus the chain rule made a trend scene
      1.6-2.2x slower (l2 pair 0.59-0.79 s -> 1.00-1.74 s, L1 pair
      2.4-3.0 s -> 4.0-5.1 s);
    - the gradient at m = 0: the complex form takes the gradient of |z|
      as 0 at z = 0, while d|m * unit|/dm = 1 for m >= 0, so a unit the
      descent drives to 0 cannot be pulled back by the magnitude term.
      That moved the with-mag arm's mSNR from 18.70 dB to 17.47 dB.

    Like unit_kernel's, they are called as f(m) or f(values, at=flat_idx)
    (losses._bind), and they always return the gradient map.
    """
    loss = problem.loss
    tw = loss.time_weight
    mw = loss.mag_weight if loss.tag in _MAG_TERM_TAGS else 0.0
    (S,) = _require(problem.targets, "S")
    mag_ref = np.abs(S.data)

    if loss.tag is LossTag.PHASE:
        # The fixed phase makes this loss constant in the magnitude; the
        # copy keeps the descent's in-place writes off the bound map.
        p = mag_ref * unit
        const = tw * (np.abs(p.real - S.data.real) + np.abs(p.imag - S.data.imag))
        return _bind(lambda m, want_grad, c: (c.copy(), np.zeros_like(m)), const)

    if loss.tag in (LossTag.L2_COMPLEX, LossTag.L2_COMPLEX_MAG):

        def l2_body(m, want_grad, proj, orth, mag_ref):
            d = m - proj
            val = tw * (d * d + orth * orth)
            grad = 2.0 * tw * d
            if mw:
                dm = m - mag_ref
                val = val + mw * dm * dm
                grad = grad + 2.0 * mw * dm
            return val, grad

        along = np.conj(unit) * S.data  # |S| e^{j(angle S - phase)}
        return _bind(l2_body, along.real, along.imag, mag_ref if mw else None)

    def l1_body(m, want_grad, cos_p, sin_p, sr, si, mag_ref):
        a = m * cos_p - sr
        b = m * sin_p - si
        val = tw * (np.abs(a) + np.abs(b))
        grad = tw * (_smooth_l1_grad(a) * cos_p + _smooth_l1_grad(b) * sin_p)
        if mw:
            dm = m - mag_ref  # m >= 0, so |m e^{j phase}| = m
            val = val + mw * np.abs(dm)
            grad = grad + mw * _smooth_l1_grad(dm)
        return val, grad

    return _bind(l1_body, unit.real, unit.imag, S.data.real, S.data.imag, mag_ref if mw else None)


def _per_unit_objective(problem: OptimizationProblem):
    """Per-unit (value matrix, gradient matrix) callable, or None if coupled.

    Totals are the mean of the value matrix and match evaluate_loss;
    gradients here are per unit, i.e. element-count times the global ones.
    """
    loss, param = problem.loss, problem.parameterization
    if loss.tag not in SEPARABLE_TAGS or param is Parameterization.FREE_WAVEFORM:
        return None
    if param is Parameterization.FREE_RI or loss.tag in MAGNITUDE_TAGS:
        return unit_kernel(loss, problem.targets)
    return _fixed_phase_kernel(problem, np.exp(1j * fixed_phase(problem)))


def _identity(x):
    return x


def _parameterize(problem: OptimizationProblem):
    """Returns (x0, to_complex, chain, project, to_sig): the initial point,
    the map to the complex spectrogram and its adjoint (which carries a
    spectrogram gradient back to the parameters), the feasibility
    projection, and the map to the waveform."""
    cfg = problem.cfg
    targets = problem.targets
    sig = targets.s if targets.s is not None else targets.y  # output rate and length
    rate = sig.sample_rate_hz if sig is not None else DEFAULT_SAMPLE_RATE_HZ
    rng = np.random.Generator(np.random.Philox(key=problem.init_seed))

    if problem.parameterization is Parameterization.FREE_WAVEFORM:
        y_ref = targets.y if targets.y is not None else targets.s
        if y_ref is None:
            raise MissingTargetError("free-waveform parameters need y or s for length")
        n = len(y_ref)
        if problem.init == "mixture":
            (y_mix,) = _require(targets, "y")
            x0 = y_mix.samples.copy()
        elif problem.init == "zeros":
            x0 = np.zeros(n)
        else:
            scale = float(np.sqrt(np.mean(y_ref.samples**2))) or 1.0
            x0 = rng.standard_normal(n) * scale

        def to_complex(x):
            return stft_array(x, cfg)

        def chain(g):
            return stft_adjoint(g, cfg, n)

        def to_sig(x):
            return TimeSignal(x, rate)

        return x0, to_complex, chain, _identity, to_sig

    # Spectrogram parameters, whose waveform is their inverse STFT.
    ref = targets.Y if targets.Y is not None else targets.S
    if problem.parameterization is Parameterization.FREE_MAG_FIXED_PHASE:
        phase = fixed_phase(problem)
        unit = np.exp(1j * phase)
        if problem.init == "mixture":
            (Y,) = _require(targets, "Y")
            x0 = np.abs(Y.data)
        elif problem.init == "zeros":
            x0 = np.zeros(phase.shape)
        else:
            scale = float(np.mean(np.abs(ref.data))) if ref is not None else 1.0
            x0 = np.abs(rng.standard_normal(phase.shape)) * (scale or 1.0)

        def to_complex(x):
            return x * unit

        def chain(g):
            return (np.conj(unit) * g).real

        def project(x):
            return np.maximum(x, 0.0)

    else:
        if ref is None:
            raise MissingTargetError("free-ri parameters need Y or S for shape")
        shape = ref.data.shape
        if problem.init == "mixture":
            (Y,) = _require(targets, "Y")
            x0 = Y.data.copy()
        elif problem.init == "zeros":
            x0 = np.zeros(shape, dtype=np.complex128)
        else:
            scale = float(np.mean(np.abs(ref.data))) or 1.0
            x0 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
        to_complex = chain = project = _identity

    def to_sig(x):
        n = len(sig) if sig is not None else (x.shape[0] - 1) * cfg.hop_length_samples
        return TimeSignal(istft_array(to_complex(x), cfg, n), rate)

    return x0, to_complex, chain, project, to_sig


def _failed(Lc, Gc, L):
    """Units whose candidate raised the loss or is not finite."""
    return ~((Lc <= L) & np.isfinite(Lc) & np.isfinite(Gc))


def _descend_separable(problem, x, per_unit, project):
    """Per-unit momentum GD: every T-F unit line-searches its own step.

    Yields (step, loss map, params) for step 0 and every step after it.
    A retry evaluates only the units whose step failed, through the
    kernel's per_unit(values, at=flat_idx) form; the step then commits
    the candidate everywhere except at the units still failing, which
    keep their point and drop their momentum.
    """
    L, G = per_unit(x)
    if not (np.all(np.isfinite(L)) and np.all(np.isfinite(G))):
        raise DivergedError("objective non-finite at the initial point")
    lr = np.full(L.shape, problem.step_size)
    vel = np.zeros_like(G)
    yield 0, L, x
    for k in range(1, problem.steps + 1):
        lr = np.minimum(lr * 2.0, problem.step_size)  # recover between steps
        vel = problem.momentum * vel - lr * G
        cand = project(x + vel)
        Lc, Gc = per_unit(cand)
        # Flat views: every array here is a fresh C-contiguous result.
        x_, L_, G_, lr_, vel_, cand_, Lc_, Gc_ = (
            a.reshape(-1) for a in (x, L, G, lr, vel, cand, Lc, Gc)
        )
        idx = np.flatnonzero(_failed(Lc, Gc, L))
        tries = 0
        while idx.size and tries < 60:
            # No named temporaries: they would stay alive through the next retry.
            lr_[idx] *= 0.5
            vel_[idx] = -lr_[idx] * G_[idx]  # momentum dropped
            cand_[idx] = project(x_[idx] + vel_[idx])
            Lc_[idx], Gc_[idx] = per_unit(cand_[idx], at=idx)
            idx = idx[_failed(Lc_[idx], Gc_[idx], L_[idx])]
            tries += 1
        cand_[idx] = x_[idx]
        vel_[idx] = 0.0
        Lc_[idx] = L_[idx]
        Gc_[idx] = G_[idx]
        # Drop the views, or they would keep this step's arrays alive into the next.
        del x_, L_, G_, lr_, vel_, cand_, Lc_, Gc_
        x, L, G = cand, Lc, Gc
        yield k, L, x


def _descend_coupled(problem, x, value_and_grad, project):
    """Single global step with backtracking; for losses coupled across units.

    Yields (step, loss, params) for step 0 and every accepted step; stops
    when no step size makes progress."""
    f, g = value_and_grad(x)
    if not (math.isfinite(f) and np.all(np.isfinite(g))):
        raise DivergedError("objective non-finite at the initial point")
    # Mean-normalized losses scale gradients by 1/element-count; undo that
    # so step_size acts per element regardless of problem size.
    lr0 = problem.step_size * x.size
    floor = lr0 * 1e-18
    vel = np.zeros_like(g)
    yield 0, f, x
    for k in range(1, problem.steps + 1):
        # Fresh step size every iteration; halvings apply within the step
        # only, so one cautious step does not slow the rest of the run.
        lr = lr0
        vel_try = problem.momentum * vel - lr * g
        cand = project(x + vel_try)
        fc, gc = value_and_grad(cand)
        ok = math.isfinite(fc) and np.all(np.isfinite(gc))
        while not (ok and fc <= f) and lr > floor:
            lr *= 0.5
            vel_try = -lr * g  # momentum dropped on backtrack
            cand = project(x + vel_try)
            fc, gc = value_and_grad(cand)
            ok = math.isfinite(fc) and np.all(np.isfinite(gc))
        if not (ok and fc <= f):
            return
        x, f, g, vel = cand, fc, gc, vel_try
        yield k, f, x


def optimize(problem: OptimizationProblem) -> OptimizationResult:
    """Safeguarded momentum gradient descent.

    Checkpoints (step 0, every hundredth of the budget, and the state
    returned) record the loss and any metrics whose targets are present.
    Recorded loss is monotonically non-increasing. Separable objectives
    descend per T-F unit; coupled ones use a single global step, and stop
    early if no step size makes progress, which stop_reason reports.
    """
    if problem.steps < 1:
        raise ConfigInvalidError("steps must be >= 1")
    if not (problem.step_size > 0 and math.isfinite(problem.step_size)):
        raise ConfigInvalidError("step_size must be positive")
    if not (0.0 <= problem.momentum < 1.0):
        raise ConfigInvalidError("momentum must lie in [0, 1)")
    if problem.init not in _INITS:
        raise ConfigInvalidError(f"init must be one of {', '.join(_INITS)}, got {problem.init!r}")
    loss = problem.loss
    if not isinstance(loss, LossKind):
        raise ConfigInvalidError(f"loss must be a LossKind, got {loss!r}")
    param = problem.parameterization
    if not isinstance(param, Parameterization):
        raise ConfigInvalidError(f"unknown parameterization {param!r}")
    if loss.tag not in _DOMAINS[param]:
        raise MissingTargetError(f"loss {loss.tag.value} unsupported for {param.value} parameters")
    cfg, targets = problem.cfg, problem.targets
    for spec in (targets.S, targets.Y):
        if spec is not None and spec.config != cfg:
            raise ConfigInvalidError(f"a target was taken with {spec.config}, not with {cfg}")
    x0, to_complex, chain, project, to_sig = _parameterize(problem)

    def to_spec(x):
        return Spectrogram(to_complex(x), cfg)

    def value_and_grad(x):
        if loss.tag in WAVEFORM_TAGS:
            lv = evaluate_loss(loss, to_sig(x), targets, want_grad=True)
            return lv.value, lv.gradient
        lv = evaluate_loss(loss, to_spec(x), targets, want_grad=True)
        return lv.value, chain(lv.gradient)

    traj = TrajectoryRecord()

    def checkpoint(step, loss_map, x):  # a loss map, or a scalar loss
        si = ms = ps = None
        if targets.S is not None:
            spec_est = to_spec(x)
            ms = msnr(spec_est, targets.S)
            ps = psnr(spec_est, targets.S)
        if targets.s is not None:
            try:
                si = si_sdr(to_sig(x), targets.s)
            except ZeroSignalError:
                si = -math.inf  # silent estimate: metric undefined, floor it
        traj.append(step, float(np.mean(loss_map)), si, ms, ps)

    x = project(np.array(x0))
    per_unit = _per_unit_objective(problem)
    if per_unit is not None:
        states = _descend_separable(problem, x, per_unit, project)
    else:
        states = _descend_coupled(problem, x, value_and_grad, project)
    every = max(1, problem.steps // 100)
    for k, loss_k, x in states:
        if k % every == 0:
            checkpoint(k, loss_k, x)
    if traj.steps[-1] != k:  # the last checkpoint is the state returned
        checkpoint(k, loss_k, x)
    return OptimizationResult(
        params=x,
        spectrogram=to_spec(x),
        signal=to_sig(x),
        trajectory=traj,
        final_loss=traj.loss[-1],
        stop_reason="budget" if k == problem.steps else f"no progress at step {k + 1}",
    )


@dataclass(frozen=True)
class TrendRow:
    label: str
    final_loss: float
    si_sdr_db: float
    msnr_db: float
    psnr_db: float


@dataclass(frozen=True)
class TrendReport:
    """Side-by-side result of optimizing without and with a magnitude term."""

    without_mag: TrendRow
    with_mag: TrendRow
    msnr_improved: bool
    si_sdr_not_better: bool

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("arm,loss,si_sdr_db,msnr_db,psnr_db\n")
            for row in (self.without_mag, self.with_mag):
                fh.write(
                    f"{row.label},{row.final_loss:.12g},{format_db(row.si_sdr_db)},"
                    f"{format_db(row.msnr_db)},{format_db(row.psnr_db)}\n"
                )


def run_trend_experiment(
    targets: Targets,
    cfg: StftConfig,
    loss_pair=(QUAD_L2, QUAD_L2_MAG),
    steps: int = 400,
    step_size: float = 0.5,
    momentum: float = 0.9,
) -> TrendReport:
    """Optimize a magnitude under the mixture phase for two objectives.

    Both arms share the budget, initialization, and fixed phase, so the
    only difference is whether a magnitude term is present. Reports final
    metrics per arm, taken from each run's last checkpoint (a silent arm
    reports si_sdr_db = -inf), plus the comparison flags:
    msnr(with) >= msnr(without) and si_sdr(with) <= si_sdr(without).
    """
    _require(targets, "S", "s", "Y")
    rows = []
    for loss in loss_pair:
        problem = OptimizationProblem(
            parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
            loss=loss,
            targets=targets,
            cfg=cfg,
            phase_source="mixture",
            init="mixture",
            steps=steps,
            step_size=step_size,
            momentum=momentum,
        )
        result = optimize(problem)
        traj = result.trajectory  # its last checkpoint is the returned state
        rows.append(
            TrendRow(
                label=loss.tag.value,
                final_loss=result.final_loss,
                si_sdr_db=traj.si_sdr_db[-1],
                msnr_db=traj.msnr_db[-1],
                psnr_db=traj.psnr_db[-1],
            )
        )
    without, with_mag = rows
    return TrendReport(
        without_mag=without,
        with_mag=with_mag,
        msnr_improved=with_mag.msnr_db >= without.msnr_db,
        si_sdr_not_better=with_mag.si_sdr_db <= without.si_sdr_db,
    )
