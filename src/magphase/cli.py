"""Command-line front end.

Subcommands: synth (scene generation), metrics (report for an
estimate/reference pair), mask (oracle masking + re-synthesis),
optimize (gradient-descent runs and trend comparisons), histogram
(phase-difference vs magnitude-ratio export).

All dB values print with 4 decimal places; +/-infinity prints as the
literal "inf"/"-inf". JSON sidecars carry a schema_version field.
A command does all that can refuse it and builds its files, then writes
them with one call to _write, then prints; so a refusal writes nothing.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import compensation, masks, metrics, optim, scenes, wavio
from .errors import MagphaseError, SpecInvalidError
from .losses import parse_loss_spec
from .stft import stft
from .types import StftConfig, _samples, magnitude_of

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ORACLE_MISMATCH = 3


def _add_stft_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--win-ms", type=float, default=None, help="window length in ms")
    p.add_argument("--hop-ms", type=float, default=None, help="hop length in ms")
    p.add_argument("--win", type=int, default=None, help="window length in samples")
    p.add_argument("--hop", type=int, default=None, help="hop length in samples")
    p.add_argument("--fft", type=int, default=None, help="FFT size (default: next pow2)")


def _stft_config(args, *signals) -> StftConfig:
    """The flags' STFT config for signals of one rate; refused if its window outlasts one."""
    if (args.win is None) != (args.hop is None):
        raise SpecInvalidError("--win and --hop must be given together")
    if args.win is not None and (args.win_ms is not None or args.hop_ms is not None):
        raise SpecInvalidError("--win-ms and --hop-ms do not apply with --win and --hop")
    win, hop = args.win, args.hop
    if win is None:  # counted before the config, which refuses a window numpy cannot index
        ms = (32.0 if args.win_ms is None else args.win_ms, 8.0 if args.hop_ms is None else args.hop_ms)
        win, hop = _samples(*ms, signals[0].sample_rate_hz)
    shortest = min(len(x) for x in signals)
    if win > shortest:
        raise SpecInvalidError(f"window of {win} samples exceeds the {shortest}-sample signal")
    cfg = StftConfig.for_window(win, hop)
    if args.fft is not None:
        # cfg.fft_size is the power of two the window implies; far above it
        # the STFT would only allocate, or fail with a traceback.
        if args.fft > 8 * cfg.fft_size:
            raise SpecInvalidError(
                f"--fft {args.fft} exceeds {8 * cfg.fft_size}, 8 times the window's "
                f"{cfg.fft_size}-point FFT"
            )
        return StftConfig(cfg.win_length_samples, cfg.hop_length_samples, args.fft)
    return cfg


def _out_path(args) -> Path:
    """The --out path; an empty one is refused, since Path("") is the working directory."""
    if not args.out:
        raise SpecInvalidError("--out must not be empty")
    return Path(args.out)


def _same_rate(est, ref) -> None:
    """Refuse an estimate whose sample rate is not its reference's."""
    if est.sample_rate_hz != ref.sample_rate_hz:
        raise SpecInvalidError(
            f"estimate is at {est.sample_rate_hz} Hz, reference at {ref.sample_rate_hz} Hz"
        )


def _print_report(rep: metrics.MetricReport) -> None:
    for key in rep._KEYS:
        print(f"{key} {metrics.format_db(getattr(rep, key))}")


def _scene(args):
    """(s, y, cfg, S, Y): --scene's s.wav and y.wav, the flags' STFT config, their STFTs."""
    path = Path(args.scene)
    s = wavio.read_wav(path / "s.wav")
    y = wavio.read_wav(path / "y.wav")
    if s.sample_rate_hz != y.sample_rate_hz or len(s) != len(y):
        raise SpecInvalidError("scene s.wav and y.wav disagree in rate or length")
    cfg = _stft_config(args, y)
    return s, y, cfg, stft(s, cfg), stft(y, cfg)


def _write(files: dict) -> None:
    """Write each {path: bytes, a str, or an iterable of str (streamed)}, all or none.

    Every destination is checked and its parent made before anything is
    written. Each file goes to a temporary name beside it; all are renamed
    into place only once every write has succeeded, so an I/O error leaves
    none of them behind, nor a directory made for them."""
    for path in files:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    made, temps = [], {}  # each directory made here follows the one it is in
    try:
        for path in files:
            made += reversed([d for d in path.parents if not d.exists()])
            path.parent.mkdir(parents=True, exist_ok=True)
        for path, content in files.items():
            temps[path] = tmp = path.with_name(f".{path.name}.partial")
            with open(tmp, "wb" if isinstance(content, bytes) else "w") as fh:
                fh.writelines([content] if isinstance(content, (bytes, str)) else content)
        for path, tmp in temps.items():
            tmp.replace(path)
    except BaseException:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
        for d in reversed(made):
            with contextlib.suppress(OSError):  # absent, or holding a file already renamed
                d.rmdir()
        raise


def cmd_synth(args) -> int:
    out = _out_path(args)
    reverb = None
    if args.reverb_rt60 is not None:
        drr = {} if args.drr is None else {"direct_to_reverb_db": args.drr}
        reverb = scenes.ReverbSpec(rt60_s=args.reverb_rt60, **drr)
    elif args.drr is not None:
        raise SpecInvalidError("--drr applies only with --reverb-rt60")
    spec = scenes.SceneSpec(
        seed=args.seed,
        duration_s=args.duration,
        sample_rate_hz=args.sample_rate,
        f0_hz=args.f0,
        interference=scenes.Interference(kind=args.interference, snr_db=args.snr),
        reverb=reverb,
    )
    scene = scenes.synth_scene(spec)
    signals = {"s.wav": scene.s, "v.wav": scene.v, "y.wav": scene.y, "s2.wav": scene.s2}
    files = {out / k: wavio.wav_bytes(x, out / k) for k, x in signals.items() if x is not None}
    files[out / "scene.json"] = json.dumps(spec.as_dict(), indent=2, sort_keys=True)
    _write(files)
    print(f"wrote scene (seed {args.seed}) to {out}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    est = wavio.read_wav(Path(args.est))
    ref = wavio.read_wav(Path(args.ref))
    _same_rate(est, ref)
    cfg = _stft_config(args, est, ref)
    rep = metrics.report(est, ref, stft(est, cfg), stft(ref, cfg))
    files = {}
    if args.json_out is not None:
        files[Path(args.json_out)] = rep.to_json()
    if args.csv_out is not None:
        files[Path(args.csv_out)] = rep.csv_header() + "\n" + rep.csv_row() + "\n"
    _write(files)
    _print_report(rep)
    return EXIT_OK


_MASK_KINDS = ("iam", "psm", "psm-trunc", "psa-target")


def cmd_mask(args) -> int:
    out = _out_path(args)
    s, y, cfg, S, Y = _scene(args)
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
    files = {out / "enhanced.wav": wavio.wav_bytes(enhanced, out / "enhanced.wav")}
    payload = rep.as_dict()
    payload["msnr_no_resynth_db"] = metrics.json_db(msnr_no_resynth)
    payload["schema_version"] = 1
    payload["mask_kind"] = args.kind
    files[out / "metrics.json"] = json.dumps(payload, indent=2, sort_keys=True)
    _write(files)
    _print_report(rep)
    print(f"msnr_no_resynth_db {metrics.format_db(msnr_no_resynth)}")
    return EXIT_OK


# Problem JSON keys: the fields JSON can hold; a key left out takes the field's default.
_PROBLEM_KEYS = {f.name for f in fields(optim.OptimizationProblem)} - {"targets", "cfg", "custom_phase"}


def _load_problem(args, targets: optim.Targets, cfg: StftConfig) -> optim.OptimizationProblem:
    """The problem JSON of --problem (defaults if absent), with --steps applied. Only the
    format is read here; the problem checks every value when it is built."""
    doc = {}
    if args.problem is not None:
        try:  # ValueError covers UnicodeDecodeError, JSONDecodeError and int's digit limit
            doc = json.loads(Path(args.problem).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            what = "not UTF-8" if isinstance(exc, UnicodeDecodeError) else "malformed"
            raise SpecInvalidError(f"problem JSON {args.problem} is {what}: {exc}") from None
        if not isinstance(doc, dict):
            raise SpecInvalidError("problem JSON must be an object")
    unknown = sorted(set(doc) - _PROBLEM_KEYS - {"schema_version"})
    if unknown:
        raise SpecInvalidError(f"unknown problem JSON keys: {', '.join(unknown)}")
    version = doc.pop("schema_version", 1)
    if version != 1:
        raise SpecInvalidError(f"unsupported problem schema_version {version!r}")
    if args.steps is not None:
        doc["steps"] = args.steps
    # A name that is no parameterization's stays as it is, for the problem to refuse.
    name = doc.pop("parameterization", "free-mag-fixed-phase")
    param = next((p for p in optim.Parameterization if p.value == name), name)
    try:
        loss = parse_loss_spec(doc.pop("loss", "l2-complex"))
        return optim.OptimizationProblem(param, loss, targets, cfg, **doc)
    except MagphaseError as exc:
        raise SpecInvalidError(f"invalid problem: {exc}") from None


def cmd_optimize(args) -> int:
    if args.trend:
        if args.problem is not None:
            raise SpecInvalidError("--problem does not apply to --trend")
        if args.verify_oracle:
            raise SpecInvalidError("--verify-oracle does not apply to --trend")
    elif args.pair is not None:
        raise SpecInvalidError("--pair applies only with --trend")
    out = _out_path(args)
    s, y, cfg, S, Y = _scene(args)
    targets = optim.Targets(S=S, s=s, Y=Y, y=y)

    if args.trend:
        options = {} if args.steps is None else {"steps": args.steps}
        if args.pair is not None:
            pair = tuple(parse_loss_spec(p) for p in args.pair.split(","))
            if len(pair) != 2:
                raise SpecInvalidError("--pair needs exactly two comma-separated losses")
            options["loss_pair"] = pair
        report = optim.run_trend_experiment(targets, cfg, **options)
        _write({out / "trend.csv": report.csv()})
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
    rep = metrics.report(result.signal, s, result.spectrogram, S)
    files = {out / "trajectory.csv": result.trajectory.csv()}
    files[out / "final.wav"] = wavio.wav_bytes(result.signal, out / "final.wav")
    files[out / "metrics.json"] = rep.to_json()
    _write(files)
    print(f"final_loss {result.final_loss:.6g}")
    print(f"stop_reason {result.stop_reason}")
    _print_report(rep)

    if args.verify_oracle:  # grades the run just written; a mismatch keeps its files
        phase = optim.fixed_phase(problem)
        oracle = compensation.optimal_magnitude_along_phase(problem.loss, S, phase)
        worst = float(np.max(np.abs(result.params - oracle)))
        print(f"oracle_max_abs_err {worst:.6g}")
        if worst > 1e-4:
            print("oracle check FAILED", file=sys.stderr)
            return EXIT_ORACLE_MISMATCH
    return EXIT_OK


_HIST_SOURCES = ("oracle", "mixture", "compensated", "iam-resynth", "psm-resynth", "est-wav")


def cmd_histogram(args) -> int:
    if args.est_wav is not None and args.source != "est-wav":
        raise SpecInvalidError(f"--est-wav applies only with --source est-wav, not {args.source}")
    prefix = _out_path(args)
    if not prefix.name:
        raise SpecInvalidError(f"--out {args.out!r} names no file for the .csv/.pgm prefix")
    s, y, cfg, S, Y = _scene(args)
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
        _same_rate(est, s)
        est_mag = magnitude_of(stft(est, cfg))
    hist = compensation.histogram2d(est_mag, S, Y, floor_db=args.floor_db)
    csv, pgm = prefix.with_suffix(".csv"), prefix.with_suffix(".pgm")
    _write({csv: hist.csv(), pgm: hist.pgm()})  # the CSV's rows are formatted as they are written
    print(f"retained_units {hist.total}")
    print(f"wrote {csv} and {pgm}")
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
    p.add_argument(
        "--drr", type=float, default=None, help="direct-to-reverb ratio in dB (default 0)"
    )
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
        default=None,
        help="comma-separated loss pair for --trend (default l2-complex,l2-complex+mag)",
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
