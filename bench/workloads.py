"""The benchmark's workloads: inputs made from a seed, tasks, output checks.

A workload is a fixed rotation of tasks. A task is one call into the
program; it completes one or more items (the unit a user waits for) and
returns an ItemResult, with the program time measured around the call
only and the output checks done outside it. Every call into magphase goes
through a module attribute looked up at call time (`optim.optimize`,
`cli.main`), so the traced run's wrappers see it.

- trend: acceptance criterion 4 through `run_trend_experiment`, plus the
  paper's L1 pair on a few scenes. Item: one scene's two-arm comparison.
- coupled: iSTFT/STFT-coupled descents with global backtracking on two
  scenes. Item: one descent step.
- cli: `magphase.cli.main(argv)` chains on 10 s scenes. Item: one command.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from magphase import cli, optim, scenes
from magphase.losses import LossKind, parse_loss_tag
from magphase.types import StftConfig

_stft = sys.modules["magphase.stft"]  # `magphase.stft` is the function

TREND_SCENES = 10
TREND_STEPS = 300
TREND_CFG = StftConfig.for_window(200, 80)  # FFT 256
TREND_PAIRS = {
    "l2": (optim.QUAD_L2, optim.QUAD_L2_MAG),
    "l1": (LossKind(parse_loss_tag("ri")), LossKind(parse_loss_tag("ri+mag"))),
}
TREND_L1_SCENES = (0, 5)  # scenes that also run the paper's L1 pair

COUPLED_SCENES = 2
COUPLED_RATE_HZ = 16000
COUPLED_CFG = StftConfig.for_window(512, 128)
COUPLED_PROBLEMS = (
    # (parameterization, loss tag, steps): fixed budgets, because loss
    # evaluations per step grow with the step index.
    ("free-mag-fixed-phase", "ri-istft+mag", 20),
    ("free-waveform", "wav+mag", 20),
    ("free-waveform", "ri+mag", 20),
    ("free-waveform", "phase", 20),
)
# Run before each problem above. ri-istft takes about one evaluation per
# step at any budget, so these blocks hold most of the steps: the median
# step is one of them wherever the host's speed drifts during the run,
# and the blocks sample that drift all through each rotation.
COUPLED_BASE = ("free-mag-fixed-phase", "ri-istft", 50)

CLI_SCENES = 1
CLI_DURATION_S = 10.0
CLI_RATE_HZ = 16000
CLI_OPT_STEPS = 20
CLI_MASKS = ("iam", "psm", "psm-trunc", "psa-target")
CLI_HIST_SOURCES = ("oracle", "mixture", "compensated", "iam-resynth", "psm-resynth", "est-wav")


@dataclass
class ItemResult:
    items: int  # items this task completed
    seconds: float  # program time of the task
    ok: bool  # every output check passed
    digest: str  # hash of the outputs; must repeat for the same inputs
    final_losses: list = field(default_factory=list)  # one per descent run
    agree: list = field(default_factory=list)  # trend: the paper's direction held


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, (bytes, memoryview)) else repr(part).encode())
    return h.hexdigest()


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# --- trend -----------------------------------------------------------------


def _trend_targets(seed: int):
    out = []
    for k in range(TREND_SCENES):
        scene = scenes.synth_scene(scenes.SceneSpec(seed=seed * 100 + k))
        S, Y = _stft.stft(scene.s, TREND_CFG), _stft.stft(scene.y, TREND_CFG)
        out.append(optim.Targets(S=S, s=scene.s, Y=Y, y=scene.y))
    return out


def _trend_task(targets, pair):
    def task():
        rep, seconds = _timed(
            optim.run_trend_experiment, targets, TREND_CFG, loss_pair=pair, steps=TREND_STEPS
        )
        rows = (rep.without_mag, rep.with_mag)
        values = [v for r in rows for v in (r.final_loss, r.si_sdr_db, r.msnr_db, r.psnr_db)]
        return ItemResult(
            items=1,
            seconds=seconds,
            ok=all(math.isfinite(v) for v in values),
            digest=_hash([v.hex() for v in values]),
            final_losses=[r.final_loss for r in rows],
            agree=[rep.msnr_improved and rep.si_sdr_not_better],
        )

    return task


def trend(seed: int, workdir: Path):
    tasks = []
    for k, targets in enumerate(_trend_targets(seed)):
        for pair_name, pair in TREND_PAIRS.items():
            if pair_name == "l1" and k not in TREND_L1_SCENES:
                continue
            tasks.append((f"scene{k}/{pair_name}", _trend_task(targets, pair)))
    return tasks


# --- coupled ---------------------------------------------------------------


def _coupled_task(problem):
    def task():
        res, seconds = _timed(optim.optimize, problem)
        losses = res.trajectory.loss
        steps = res.trajectory.steps[-1]
        monotone = all(b <= a for a, b in zip(losses, losses[1:]))
        return ItemResult(
            items=max(steps, 1),
            seconds=seconds,
            ok=steps > 0 and monotone and math.isfinite(res.final_loss),
            digest=_hash(res.params.tobytes(), [v.hex() for v in losses]),
            final_losses=[res.final_loss],
        )

    return task


def coupled(seed: int, workdir: Path):
    tasks = []
    for k in range(COUPLED_SCENES):
        spec = scenes.SceneSpec(seed=seed * 100 + k, sample_rate_hz=COUPLED_RATE_HZ)
        scene = scenes.synth_scene(spec)
        targets = optim.Targets(
            S=_stft.stft(scene.s, COUPLED_CFG),
            s=scene.s,
            Y=_stft.stft(scene.y, COUPLED_CFG),
            y=scene.y,
        )
        for j, costly in enumerate(COUPLED_PROBLEMS):
            for param, tag, steps in (COUPLED_BASE, costly):
                problem = optim.OptimizationProblem(
                    parameterization=optim.Parameterization(param),
                    loss=LossKind(parse_loss_tag(tag)),
                    targets=targets,
                    cfg=COUPLED_CFG,
                    steps=steps,
                )
                tasks.append((f"scene{k}/{j}/{param}/{tag}", _coupled_task(problem)))
    return tasks


# --- cli -------------------------------------------------------------------


def _has_nan(value) -> bool:
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, dict):
        return any(_has_nan(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_nan(v) for v in value)
    return False


def _cli_task(argv, outputs, reports_loss):
    """One `magphase` command; `outputs` must exist afterwards, JSON ones without NaN."""

    def task():
        for path in outputs:  # a stale file must not pass the check
            path.unlink(missing_ok=True)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code, seconds = _timed(cli.main, argv)
        ok = code == 0 and all(p.is_file() for p in outputs)
        if ok:
            ok = not any(_has_nan(json.loads(p.read_text())) for p in outputs if p.suffix == ".json")
        final_losses = [_final_loss(captured.getvalue())] if ok and reports_loss else []
        ok = ok and all(math.isfinite(v) for v in final_losses)
        digest = _hash(code, *(p.read_bytes() for p in outputs if p.is_file()))
        return ItemResult(1, seconds, ok, digest, final_losses)

    return task


def _final_loss(stdout: str) -> float:
    lines = [line for line in stdout.splitlines() if line.startswith("final_loss ")]
    return float(lines[0].split()[1]) if lines else math.nan


def _cli_chain(scene_seed: int, d: Path):
    """One chain's commands: (label, argv, files the command must write)."""
    opt = d / "opt"
    synth = ["synth", "--seed", str(scene_seed), "--duration", str(CLI_DURATION_S)]
    synth += ["--sample-rate", str(CLI_RATE_HZ), "--interference", "second_talker"]
    synth += ["--snr", "0", "--reverb-rt60", "0.3", "--out", str(d)]
    commands = [("synth", synth, [d / "s.wav", d / "v.wav", d / "y.wav", d / "scene.json"])]
    for kind in CLI_MASKS:
        out = d / f"mask-{kind}"
        argv = ["mask", "--scene", str(d), "--kind", kind, "--out", str(out)]
        commands.append((f"mask/{kind}", argv, [out / "enhanced.wav", out / "metrics.json"]))
    argv = ["metrics", "--est", str(d / "mask-psm" / "enhanced.wav"), "--ref", str(d / "s.wav")]
    commands.append(("metrics", argv + ["--json", str(d / "metrics.json")], [d / "metrics.json"]))
    argv = ["optimize", "--scene", str(d), "--out", str(opt), "--steps", str(CLI_OPT_STEPS)]
    outputs = [opt / "trajectory.csv", opt / "final.wav", opt / "metrics.json"]
    commands.append(("optimize", argv + ["--verify-oracle"], outputs))
    for source in CLI_HIST_SOURCES:
        prefix = d / f"hist-{source}"
        argv = ["histogram", "--scene", str(d), "--source", source, "--out", str(prefix)]
        if source == "est-wav":
            argv += ["--est-wav", str(opt / "final.wav")]
        outputs = [prefix.with_suffix(".csv"), prefix.with_suffix(".pgm")]
        commands.append((f"histogram/{source}", argv, outputs))
    return [
        (f"scene{scene_seed}/{label}", _cli_task(argv, outputs, label == "optimize"))
        for label, argv, outputs in commands
    ]


def cli_chains(seed: int, workdir: Path):
    tasks = []
    for k in range(CLI_SCENES):
        scene_seed = seed * 100 + k
        d = workdir / f"scene{scene_seed}"
        shutil.rmtree(d, ignore_errors=True)
        tasks += _cli_chain(scene_seed, d)
    return tasks


WORKLOADS = {"trend": trend, "coupled": coupled, "cli": cli_chains}

# Per-layer call counts that must be nonzero on each workload (see README).
REQUIRED_LAYERS = {
    "trend": (
        "optim.optimize.calls",
        "stft.istft_array.calls",
        "metrics.calls",
    ),
    "coupled": (
        "optim.optimize.calls",
        "losses.evaluate_loss.calls",
        "stft.stft_array.calls",
        "stft.istft_array.calls",
        "stft.istft_adjoint.calls",
        "stft.stft_adjoint.calls",
        "metrics.calls",
    ),
    "cli": (
        "cli.main.calls",
        "scenes.synth_scene.calls",
        "wavio.calls",
        "masks.calls",
        "compensation.calls",
        "metrics.calls",
        "optim.optimize.calls",
        "stft.stft_array.calls",
        "stft.istft_array.calls",
    ),
}
