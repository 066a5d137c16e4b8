"""Command-line front end.

Subcommands: synth (scene generation), metrics (report for an
estimate/reference pair), mask (oracle masking + re-synthesis),
optimize (gradient-descent runs and trend comparisons), histogram
(phase-difference vs magnitude-ratio export).

All dB values print with 4 decimal places; +/-infinity prints as the
literal "inf"/"-inf". JSON sidecars carry a schema_version field.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import compensation, masks, metrics, optim, scenes, wavio
from .errors import MagphaseError, SpecInvalidError
from .losses import parse_loss_spec
from .stft import stft
from .types import StftConfig, magnitude_of

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ORACLE_MISMATCH = 3


def _add_stft_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--win-ms", type=float, default=None, help="window length in ms")
    p.add_argument("--hop-ms", type=float, default=None, help="hop length in ms")
    p.add_argument("--win", type=int, default=None, help="window length in samples")
    p.add_argument("--hop", type=int, default=None, help="hop length in samples")
    p.add_argument("--fft", type=int, default=None, help="FFT size (default: next pow2)")


def _stft_config(args, sample_rate_hz: int) -> StftConfig:
    if (args.win is None) != (args.hop is None):
        raise SpecInvalidError("--win and --hop must be given together")
    if args.win is not None:
        win, hop = args.win, args.hop
    else:
        win_ms = args.win_ms if args.win_ms is not None else 32.0
        hop_ms = args.hop_ms if args.hop_ms is not None else 8.0
        win = int(round(win_ms * sample_rate_hz / 1000.0))
        hop = int(round(hop_ms * sample_rate_hz / 1000.0))
    if args.fft is not None:
        return StftConfig(win, hop, args.fft)
    return StftConfig.for_window(win, hop)


def _load_scene_dir(path: Path):
    s = wavio.read_wav(path / "s.wav")
    y = wavio.read_wav(path / "y.wav")
    if s.sample_rate_hz != y.sample_rate_hz or len(s) != len(y):
        raise SpecInvalidError("scene s.wav and y.wav disagree in rate or length")
    return s, y


def cmd_synth(args) -> int:
    reverb = None
    if args.reverb_rt60 is not None:
        reverb = scenes.ReverbSpec(rt60_s=args.reverb_rt60, direct_to_reverb_db=args.drr)
    spec = scenes.SceneSpec(
        seed=args.seed,
        duration_s=args.duration,
        sample_rate_hz=args.sample_rate,
        target=scenes.HarmonicTarget(f0_hz=args.f0),
        interference=scenes.Interference(kind=args.interference, snr_db=args.snr),
        reverb=reverb,
    )
    scene = scenes.synth_scene(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    wavio.write_wav(out / "s.wav", scene.s)
    wavio.write_wav(out / "v.wav", scene.v)
    wavio.write_wav(out / "y.wav", scene.y)
    if scene.s2 is not None:
        wavio.write_wav(out / "s2.wav", scene.s2)
    (out / "scene.json").write_text(json.dumps(spec.as_dict(), indent=2, sort_keys=True))
    print(f"wrote scene (seed {args.seed}) to {out}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    est = wavio.read_wav(Path(args.est))
    ref = wavio.read_wav(Path(args.ref))
    if est.sample_rate_hz != ref.sample_rate_hz:
        raise SpecInvalidError(
            f"estimate is at {est.sample_rate_hz} Hz, reference at {ref.sample_rate_hz} Hz"
        )
    cfg = _stft_config(args, ref.sample_rate_hz)
    rep = metrics.report(est, ref, stft(est, cfg), stft(ref, cfg))
    if args.json_out:
        Path(args.json_out).write_text(rep.to_json())
    if args.csv_out:
        Path(args.csv_out).write_text(rep.csv_header() + "\n" + rep.csv_row() + "\n")
    for key in ("si_sdr_db", "snr_db", "msnr_db", "psnr_db"):
        print(f"{key} {metrics.format_db(getattr(rep, key))}")
    return EXIT_OK


_MASK_KINDS = ("iam", "psm", "psm-trunc", "psa-target")


def cmd_mask(args) -> int:
    s, y = _load_scene_dir(Path(args.scene))
    cfg = _stft_config(args, y.sample_rate_hz)
    S, Y = stft(s, cfg), stft(y, cfg)
    clamp = None if args.iam_clamp <= 0 else args.iam_clamp
    if args.kind == "iam":
        applied = masks.iam(S, Y, args.eps)
        no_resynth = masks.masked_magnitude(masks.MaskKind.IAM, S, Y, args.eps)
    elif args.kind == "psm":
        applied = masks.psm(S, Y, args.eps, truncate=False)
        no_resynth = masks.masked_magnitude(masks.MaskKind.PSM, S, Y, args.eps)
    elif args.kind == "psm-trunc":
        applied = masks.psm(S, Y, args.eps, truncate=True)
        no_resynth = masks.masked_magnitude(masks.MaskKind.PSM_TRUNCATED, S, Y, args.eps)
    else:
        applied = masks.psa_target(S, Y)
        no_resynth = applied
    enhanced = masks.apply_mask_resynth(
        applied, Y, len(y), y.sample_rate_hz, iam_clamp=clamp
    )
    rep = metrics.report(enhanced, s, stft(enhanced, cfg), S)
    msnr_no_resynth = metrics.msnr(no_resynth, S)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    wavio.write_wav(out / "enhanced.wav", enhanced)
    payload = rep.as_dict()
    payload["msnr_no_resynth_db"] = (
        metrics.format_db(msnr_no_resynth)
        if math.isinf(msnr_no_resynth)
        else msnr_no_resynth
    )
    payload["schema_version"] = 1
    payload["mask_kind"] = args.kind
    (out / "metrics.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    for key in ("si_sdr_db", "snr_db", "msnr_db", "psnr_db"):
        print(f"{key} {metrics.format_db(getattr(rep, key))}")
    print(f"msnr_no_resynth_db {metrics.format_db(msnr_no_resynth)}")
    return EXIT_OK


_PROBLEM_KEYS = frozenset(
    ("schema_version", "parameterization", "loss", "phase_source", "init")
    + ("init_seed", "steps", "step_size", "momentum")
)


def _load_problem(args, targets: optim.Targets, cfg: StftConfig) -> optim.OptimizationProblem:
    """The problem JSON of --problem (defaults if absent), with --steps applied."""
    doc = {}
    if args.problem:
        try:
            doc = json.loads(Path(args.problem).read_text())
        except json.JSONDecodeError as exc:
            raise SpecInvalidError(f"problem JSON {args.problem} is malformed: {exc}") from None
        if not isinstance(doc, dict):
            raise SpecInvalidError("problem JSON must be an object")
    unknown = sorted(set(doc) - _PROBLEM_KEYS)
    if unknown:
        raise SpecInvalidError(f"unknown problem JSON keys: {', '.join(unknown)}")
    if doc.get("schema_version", 1) != 1:
        raise SpecInvalidError(f"unsupported problem schema_version {doc['schema_version']!r}")
    if args.steps is not None:
        doc["steps"] = args.steps
    try:
        return optim.OptimizationProblem(
            parameterization=optim.Parameterization(
                doc.get("parameterization", "free-mag-fixed-phase")
            ),
            loss=parse_loss_spec(doc.get("loss", "l2-complex")),
            targets=targets,
            cfg=cfg,
            phase_source=doc.get("phase_source", "mixture"),
            init=doc.get("init", "mixture"),
            init_seed=int(doc.get("init_seed", 0)),
            steps=int(doc.get("steps", 2000)),
            step_size=float(doc.get("step_size", 0.5)),
            momentum=float(doc.get("momentum", 0.9)),
        )
    except (TypeError, ValueError) as exc:
        raise SpecInvalidError(f"invalid problem JSON value: {exc}") from None


def cmd_optimize(args) -> int:
    s, y = _load_scene_dir(Path(args.scene))
    cfg = _stft_config(args, y.sample_rate_hz)
    targets = optim.Targets(S=stft(s, cfg), s=s, Y=stft(y, cfg), y=y)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.trend:
        pair = tuple(parse_loss_spec(p) for p in args.pair.split(","))
        if len(pair) != 2:
            raise SpecInvalidError("--pair needs exactly two comma-separated losses")
        report = optim.run_trend_experiment(
            targets, cfg, loss_pair=pair, steps=args.steps
        )
        report.to_csv(out / "trend.csv")
        for row in (report.without_mag, report.with_mag):
            print(
                f"{row.label}: si_sdr {metrics.format_db(row.si_sdr_db)} "
                f"msnr {metrics.format_db(row.msnr_db)} "
                f"psnr {metrics.format_db(row.psnr_db)}"
            )
        print(f"msnr_improved {report.msnr_improved}")
        print(f"si_sdr_not_better {report.si_sdr_not_better}")
        return EXIT_OK

    problem = _load_problem(args, targets, cfg)
    if args.verify_oracle and (
        problem.parameterization is not optim.Parameterization.FREE_MAG_FIXED_PHASE
        or problem.loss.tag not in compensation._L2_TAGS
    ):
        raise SpecInvalidError(
            "--verify-oracle applies to free-mag-fixed-phase + l2-complex(+mag); the L1 "
            "pair ri(+mag) can have an interval of optimal magnitudes per unit"
        )
    if args.verify_oracle:
        compensation.closed_form_weights(problem.loss)  # refused before the run if constant
    result = optim.optimize(problem)
    result.trajectory.to_csv(out / "trajectory.csv")
    wavio.write_wav(out / "final.wav", result.signal)
    rep = metrics.report(result.signal, s, result.spectrogram, targets.S)
    (out / "metrics.json").write_text(rep.to_json())
    print(f"final_loss {result.final_loss:.6g}")
    print(f"stop_reason {result.stop_reason}")
    for key in ("si_sdr_db", "snr_db", "msnr_db", "psnr_db"):
        print(f"{key} {metrics.format_db(getattr(rep, key))}")

    if args.verify_oracle:
        phase = optim.fixed_phase(problem)
        oracle = compensation.optimal_magnitude_along_phase(problem.loss, targets.S, phase)
        worst = float(np.max(np.abs(result.params - oracle)))
        print(f"oracle_max_abs_err {worst:.6g}")
        if worst > 1e-4:
            print("oracle check FAILED", file=sys.stderr)
            return EXIT_ORACLE_MISMATCH
    return EXIT_OK


_HIST_SOURCES = ("oracle", "mixture", "compensated", "iam-resynth", "psm-resynth", "est-wav")


def cmd_histogram(args) -> int:
    s, y = _load_scene_dir(Path(args.scene))
    cfg = _stft_config(args, y.sample_rate_hz)
    S, Y = stft(s, cfg), stft(y, cfg)
    if args.source == "oracle":
        est_mag = magnitude_of(S)
    elif args.source == "mixture":
        est_mag = magnitude_of(Y)
    elif args.source == "compensated":
        est_mag = compensation.compensated_magnitude(S, Y)
    elif args.source in ("iam-resynth", "psm-resynth"):
        mask = (
            masks.iam(S, Y)
            if args.source == "iam-resynth"
            else masks.psm(S, Y, truncate=False)
        )
        resynth = masks.apply_mask_resynth(mask, Y, len(y), y.sample_rate_hz)
        est_mag = magnitude_of(stft(resynth, cfg))
    else:
        if not args.est_wav:
            raise SpecInvalidError("--source est-wav needs --est-wav PATH")
        est = wavio.read_wav(Path(args.est_wav))
        est_mag = magnitude_of(stft(est, cfg))
    hist = compensation.histogram2d(est_mag, S, Y, floor_db=args.floor_db)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    hist.to_csv(prefix.with_suffix(".csv"))
    hist.to_pgm(prefix.with_suffix(".pgm"))
    print(f"retained_units {hist.total}")
    print(f"wrote {prefix.with_suffix('.csv')} and {prefix.with_suffix('.pgm')}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magphase",
        description="Loss/mask/metric experiments on magnitude-phase compensation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--sample-rate", type=int, default=8000)
    p.add_argument("--f0", type=float, default=180.0)
    p.add_argument("--interference", choices=("white", "pink", "second_talker"), default="white")
    p.add_argument("--snr", type=float, default=0.0, help="SNR (or SIR) in dB")
    p.add_argument("--reverb-rt60", type=float, default=None)
    p.add_argument("--drr", type=float, default=0.0, help="direct-to-reverb ratio in dB")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("metrics", help="metric report for an estimate/reference pair")
    p.add_argument("--est", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--json", dest="json_out", default=None)
    p.add_argument("--csv", dest="csv_out", default=None)
    _add_stft_flags(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("mask", help="oracle mask, re-synthesis, and metrics")
    p.add_argument("--scene", required=True, help="directory with s.wav and y.wav")
    p.add_argument("--kind", choices=_MASK_KINDS, required=True)
    p.add_argument("--eps", type=float, default=masks.DEFAULT_EPS)
    p.add_argument(
        "--iam-clamp",
        type=float,
        default=masks.DEFAULT_IAM_CLAMP,
        help="gain ceiling for amplitude masks; <= 0 disables",
    )
    p.add_argument("--out", required=True)
    _add_stft_flags(p)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("optimize", help="gradient-descent run or trend comparison")
    p.add_argument("--scene", required=True)
    p.add_argument("--problem", default=None, help="problem JSON; defaults apply if omitted")
    p.add_argument("--steps", type=int, default=None, help="override step budget")
    p.add_argument("--out", required=True)
    p.add_argument("--verify-oracle", action="store_true")
    p.add_argument("--trend", action="store_true")
    p.add_argument(
        "--pair",
        default="l2-complex,l2-complex+mag",
        help="comma-separated loss pair for --trend",
    )
    _add_stft_flags(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("histogram", help="phase-difference vs magnitude-ratio histogram")
    p.add_argument("--scene", required=True)
    p.add_argument("--source", choices=_HIST_SOURCES, required=True)
    p.add_argument("--est-wav", default=None)
    p.add_argument("--floor-db", type=float, default=compensation.DEFAULT_FLOOR_DB)
    p.add_argument("--out", required=True, help="output prefix (.csv/.pgm appended)")
    _add_stft_flags(p)
    p.set_defaults(func=cmd_histogram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MagphaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
