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
to be nonnegative after every step. The coupled descent evaluates each
try once and computes a gradient only for a try that passes on its
value. It starts each step's search at twice the size the last step
kept, not at the full step, and tries the larger sizes only when every
smaller one has failed, so it stops only where a search from the full
step would.

optimize is the one driver: it composes each loss through the
parameterization's map to the complex spectrogram and that map's adjoint,
and the descents yield their states to it, so it alone picks the
checkpoints and records why the run stopped (stop_reason). A state is
read through a losses.Point, which builds the estimate's spectrogram and
waveform at their first read and keeps them. The coupled descent yields
the point its loss was evaluated at, so its checkpoint and the result
read the views that loss built.

A coupled run holds one workspace (stft's dict of work arrays) for its
transforms, reached through each Point it evaluates: the iSTFT's and
STFT's frame matrices, padded buffers, spectra and overlap-add sums are
reused from step to step instead of allocated and thrown away. A work
array never leaves the function that fills it, so what a step keeps
(its point's views, x, g, the momentum) is fresh and no later step
overwrites it. Its point views adopt the arrays they build rather than
copy them. The chain rule of a fixed phase writes conj(unit) * g into
the fresh spectrogram gradient it is given, whose real part it returns.
A separable run holds no workspace, and its views copy.

Objectives that decompose per T-F unit (every fixed-phase or free-complex
loss without an iSTFT inside) are line-searched per unit, each unit
halving its own step independently; this is what makes pointwise
convergence possible at all, since under a single global step the many
already-converged units veto any move large enough to help a distant
straggler. A retry evaluates only the units whose step failed, or the
whole map when more than half of them failed, so a retry costs at most
twice the failing units' share of a full evaluation; the results equal
those of re-evaluating every unit bit for bit. Losses
coupled across units by an iSTFT/STFT (and all waveform-parameter runs)
use one global step with the same halving rule; there step sizes are
interpreted per element (mean-normalized losses carry a 1/count gradient
factor, which the optimizer multiplies back).

Every loss comes from losses.py, with the weights its LossKind holds:
coupled ones through evaluate_loss, separable ones as per-unit kernels
(losses.unit_kernel, or losses.fixed_phase_kernel for the complex kinds
under a fixed phase); _parameterize picks which. Under a fixed
phase, the L1 pair ri / ri+mag and the quadratic pair l2-complex /
l2-complex+mag (QUAD_L2, QUAD_L2_MAG) have closed-form per-unit optima,
one function for all four (compensation.optimal_magnitude_along_phase),
which the tests verify against.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    ConfigInvalidError,
    DivergedError,
    MissingTargetError,
)
from .losses import (
    MAGNITUDE_TAGS,
    SEPARABLE_TAGS,
    SPECTROGRAM_TAGS,
    WAVEFORM_TAGS,
    LossKind,
    LossTag,
    Point,
    Targets,
    _require,
    evaluate_loss,
    fixed_phase_kernel,
    unit_kernel,
)
from .metrics import floored_si_sdr, format_db, msnr, psnr
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


def _csv(key: str, rows) -> str:
    """A run's CSV: one (key, loss, si_sdr_db, msnr_db, psnr_db) row each; a None cell is empty."""
    lines = [f"{key},loss,si_sdr_db,msnr_db,psnr_db\n"]
    for first, loss, *dbs in rows:
        cells = ("" if v is None else format_db(v) for v in dbs)
        lines.append(f"{first},{loss:.12g},{','.join(cells)}\n")
    return "".join(lines)


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

    def csv(self) -> str:
        return _csv("step", zip(self.steps, self.loss, self.si_sdr_db, self.msnr_db, self.psnr_db))


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


def _identity(x):
    return x


def _parameterize(problem: OptimizationProblem):
    """Returns (x0, point_at, chain, project, per_unit): the initial
    parameters, the map from parameters to their Point (the estimate as a
    complex spectrogram and as a waveform), the adjoint of the map to the
    spectrogram (which carries a spectrogram gradient back to the
    parameters, and may overwrite that gradient, a fresh array the loss
    made for it), the feasibility projection, and the per-unit kernel
    (value maps whose mean is evaluate_loss's value, gradients
    element-count times its own), or None for a coupled run (a coupled
    loss, or waveform parameters). A fixed-phase kernel and the map to the
    spectrogram share one unit vector; its conjugate, which only chain
    reads, is built only for a coupled run. So is the run's workspace,
    which every point and chain pass to the transforms, and so is
    adoption: only a coupled run's views adopt the arrays they build."""
    cfg, loss = problem.cfg, problem.loss
    targets = problem.targets
    sig = targets.s if targets.s is not None else targets.y  # output rate and length
    rate = sig.sample_rate_hz if sig is not None else DEFAULT_SAMPLE_RATE_HZ
    rng = np.random.Generator(np.random.Philox(key=problem.init_seed))
    waveform = problem.parameterization is Parameterization.FREE_WAVEFORM
    coupled = waveform or loss.tag not in SEPARABLE_TAGS
    work = {} if coupled else None
    # Only a coupled run's views adopt what they build. A separable run's
    # views copy: the freed originals raise glibc's mmap threshold above a
    # spectrogram's size, and without them a CLI command after a separable
    # run mapped and faulted its maps anew, and ran slower (measured).

    if waveform:
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

        def chain(g):
            return stft_adjoint(g, cfg, n, work)

        def spectrogram(p):
            return Spectrogram(stft_array(p.params, cfg, p.work), cfg, adopt=coupled)

        def signal(p):
            return TimeSignal(p.params, rate)

        def point_at(x):
            return Point(x, spectrogram, signal, stft_config=cfg, work=work)

        return x0, point_at, chain, _identity, None

    # Spectrogram parameters, whose waveform is their inverse STFT.
    ref = targets.Y if targets.Y is not None else targets.S
    if problem.parameterization is Parameterization.FREE_MAG_FIXED_PHASE:
        phase = fixed_phase(problem)
        unit = np.exp(1j * phase)
        conj_unit = np.conj(unit) if coupled else None
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
            return np.multiply(conj_unit, g, out=g).real  # into g, which the loss made fresh

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
        to_complex = np.copy if coupled else _identity  # the parameters stay the descent's
        chain = project = _identity

    n = len(sig) if sig is not None else (x0.shape[0] - 1) * cfg.hop_length_samples

    def spectrogram(p):
        return Spectrogram(to_complex(p.params), cfg, adopt=coupled)

    def signal(p):
        return TimeSignal(istft_array(p.spectrogram.data, cfg, n, p.work), rate, adopt=coupled)

    def point_at(x):
        return Point(x, spectrogram, signal, istft_length=n, work=work)

    if coupled:
        per_unit = None
    elif problem.parameterization is Parameterization.FREE_RI or loss.tag in MAGNITUDE_TAGS:
        per_unit = unit_kernel(loss, targets)
    else:
        per_unit = fixed_phase_kernel(loss, targets, unit)
    return x0, point_at, chain, project, per_unit


def _failed(Lc, Gc, L):
    """Units whose candidate raised the loss or is not finite."""
    return ~((Lc <= L) & np.isfinite(Lc) & np.isfinite(Gc))


def _descend_separable(problem, x, per_unit, project):
    """Per-unit momentum GD: every T-F unit line-searches its own step.

    Yields (step, loss map, params) for step 0 and every step after it.
    A retry halves the step of the units whose step failed and
    evaluates them again: those units alone, through the kernel's
    per_unit(values, at=flat_idx) form, or, when more than half of the
    units failed, the whole candidate map, read at those units, which
    gathers no copy of it or of the reference maps (_bind makes the two
    equal bit for bit). The step then commits the candidate everywhere
    except at the units still failing, which keep their point and drop
    their momentum.
    """
    L, grad = per_unit(x)
    G = grad()
    del grad  # a gradient function may hold the kernel's full-size intermediates
    if not (np.all(np.isfinite(L)) and np.all(np.isfinite(G))):
        raise DivergedError("objective non-finite at the initial point")
    lr = np.full(L.shape, problem.step_size)
    vel = np.zeros_like(G)
    yield 0, L, x
    for k in range(1, problem.steps + 1):
        lr = np.minimum(lr * 2.0, problem.step_size)  # recover between steps
        vel = problem.momentum * vel - lr * G
        cand = project(x + vel)
        Lc, grad = per_unit(cand)
        Gc = grad()
        del grad
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
            if 2 * idx.size <= cand.size:
                Lc_[idx], grad = per_unit(cand_[idx], at=idx)
                Gc_[idx] = grad()
                idx = idx[_failed(Lc_[idx], Gc_[idx], L_[idx])]
            else:  # most units failed: evaluate the whole map, and gather nothing from it
                whole, grad = per_unit(cand)
                Lc_[idx] = whole.reshape(-1)[idx]
                del whole
                Gc_[idx] = grad().reshape(-1)[idx]
                idx = np.flatnonzero(_failed(Lc, Gc, L))  # every other unit has passed
            del grad
            tries += 1
        cand_[idx] = x_[idx]
        vel_[idx] = 0.0
        Lc_[idx] = L_[idx]
        Gc_[idx] = G_[idx]
        # Drop the views, or they would keep this step's arrays alive into the next.
        del x_, L_, G_, lr_, vel_, cand_, Lc_, Gc_
        x, L, G = cand, Lc, Gc
        yield k, L, x


def _descend_coupled(problem, x, evaluate, project):
    """Single global step with backtracking; for losses coupled across units.

    evaluate(x) returns the point at parameters x, its loss, and a
    function computing the loss gradient. Yields (step, loss, point) for
    step 0 and every accepted step, with the point the loss was evaluated
    at; stops when no step size makes progress. A step's sizes are lr0
    (the momentum step) and -lr * g at lr0/2, lr0/4, ... down to the
    floor. Each step searches them all, in a new order: from twice the
    size the last step kept (lr0 at first), halving down to the floor,
    then the skipped larger sizes from lr0 down. So a step keeps the size
    a search from lr0 would keep unless a skipped larger size also
    passes, and the run stops only where that search stops. Each try
    evaluates the loss once. A try whose value is finite and no higher
    computes its gradient, and is kept if that is finite; otherwise the
    search goes on. So the descent takes the same decisions as one that
    computes every try's gradient.
    """
    point, f, grad = evaluate(x)
    g = grad()
    del grad  # a try's intermediates must not outlive it
    if not (math.isfinite(f) and np.all(np.isfinite(g))):
        raise DivergedError("objective non-finite at the initial point")
    # Mean-normalized losses scale gradients by 1/element-count; undo that
    # so step_size acts per element regardless of problem size.
    lr0 = problem.step_size * x.size
    floor = lr0 * 1e-18
    sizes = [lr0]  # a step's sizes: lr0 halved down to the first at or below floor
    while sizes[-1] > floor:
        sizes.append(sizes[-1] * 0.5)
    order = list(range(len(sizes)))
    kept = 0  # index of the size the last step accepted
    vel = np.zeros_like(g)
    yield 0, f, point
    for k in range(1, problem.steps + 1):
        start = max(kept - 1, 0)  # twice the kept size, at most lr0
        for i in order[start:] + order[:start]:
            lr = sizes[i]
            vel_try = problem.momentum * vel - lr * g if i == 0 else -lr * g  # momentum at lr0 only
            cand = project(x + vel_try)
            tried, fc, grad = evaluate(cand)
            gc = grad() if math.isfinite(fc) and fc <= f else None
            del grad
            if gc is not None and np.all(np.isfinite(gc)):
                break
            del tried  # a rejected try's views die with it
        else:
            return
        x, point, f, g, vel, kept = cand, tried, fc, gc, vel_try, i
        yield k, f, point


def optimize(problem: OptimizationProblem) -> OptimizationResult:
    """Safeguarded momentum gradient descent.

    Checkpoints (step 0, every hundredth of the budget, and the state
    returned) record the loss and any metrics whose targets are present.
    Recorded loss is monotonically non-increasing. Separable objectives
    descend per T-F unit; coupled ones use a single global step, and stop
    early if no step size makes progress, which stop_reason reports.

    Of the spectrogram's size, a separable run holds only what it reads:
    the descent's state (five maps, eight during a step), the kernel's
    reference maps, the fixed phase's unit vector, and a checkpoint's
    views while it runs; not the initial parameters. A coupled run holds
    its state (x, g and the momentum, plus a try's), the kept point's and
    a try's views, the unit vector and its conjugate, and its workspace:
    a frame matrix, a windowed-segment matrix and a complex spectrum the
    size of the spectrogram, and two buffers the length of the padded
    signal. Neither holds the initial parameters, and the workspace goes
    with the run.
    """
    if problem.steps < 1:
        raise ConfigInvalidError("steps must be >= 1")
    if not (problem.step_size > 0 and math.isfinite(problem.step_size)):
        raise ConfigInvalidError("step_size must be positive")
    if not (0.0 <= problem.momentum < 1.0):
        raise ConfigInvalidError("momentum must lie in [0, 1)")
    if problem.init not in _INITS:
        raise ConfigInvalidError(f"init must be one of {', '.join(_INITS)}, got {problem.init!r}")
    if not 0 <= problem.init_seed < 2**128:  # the range of a Philox key
        raise ConfigInvalidError(f"init_seed must lie in [0, 2^128), got {problem.init_seed}")
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
    x, point_at, chain, project, per_unit = _parameterize(problem)

    def evaluate(x):
        """The point at x, its loss, and a function computing the loss gradient in x."""
        point = point_at(x)
        lv = evaluate_loss(loss, point, targets)
        if loss.tag in WAVEFORM_TAGS:
            return point, lv.value, lv.gradient
        return point, lv.value, lambda: chain(lv.gradient())

    traj = TrajectoryRecord()

    def checkpoint(step, loss_map, point):  # a loss map, or a scalar loss
        si = ms = ps = None
        if targets.S is not None:
            ms = msnr(point.spectrogram, targets.S)
            ps = psnr(point.spectrogram, targets.S)
        if targets.s is not None:
            si = floored_si_sdr(point.signal, targets.s)
        traj.append(step, float(np.mean(loss_map)), si, ms, ps)

    x = project(x)  # the initial parameters go once projected
    every = max(1, problem.steps // 100)
    if per_unit is None:
        descent = _descend_coupled(problem, x, evaluate, project)
        del x  # or the initial parameters would outlive the descent's first step
        for k, loss_k, point in descent:
            if k % every == 0:
                checkpoint(k, loss_k, point)
    else:
        # A separable state's point lives for its checkpoint only: its views,
        # held through the next step, would add to the descent's peak memory.
        # The last step's point is the result's, so it is built once.
        for k, loss_k, x in _descend_separable(problem, x, per_unit, project):
            if k == problem.steps:
                point = point_at(x)
                checkpoint(k, loss_k, point)
            elif k % every == 0:
                checkpoint(k, loss_k, point_at(x))
    if traj.steps[-1] != k:  # the last checkpoint is the state returned
        checkpoint(k, loss_k, point)
    return OptimizationResult(
        params=point.params,
        spectrogram=point.spectrogram,
        signal=point.signal,
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

    def csv(self) -> str:
        return _csv("arm", map(astuple, (self.without_mag, self.with_mag)))


def run_trend_experiment(
    targets: Targets,
    cfg: StftConfig,
    loss_pair=(QUAD_L2, QUAD_L2_MAG),
    steps: int = 400,
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
