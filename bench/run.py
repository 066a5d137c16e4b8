"""magphase benchmark: one command, a seed, three workloads.

    python3 bench/run.py --workload {trend,coupled,cli,all} --seed N \
        --seconds S --trace {0,1}

Each workload runs in fresh single-threaded interpreters (bench/worker.py):
two that only set up, for the set-up time, and one that sets up and then
measures whole rotations of the workload's tasks for at least S seconds.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
times one untraced rotation, then traces the rotations and reports the
per-layer metrics and the tracing overhead. The last line of output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Everything the run writes stays under `.bench_out/` in the checkout.
See bench/README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from summary import run_tail  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("trend", "coupled", "cli")
SETUP_ONLY_RUNS = 4  # plus the measuring process: set-up time is a median of 5
TIME_LIMIT_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Figures printed beside them, not bounded (see README): name -> unit.
PRINTED = {
    "final_loss": "loss",
    "failed_frac": "frac",
    "trend_agree_frac": "frac",
    "item_tail_percentile": "%",
    "item_tail_beyond": "items",
    "items": "items",
    "rotations": "rotations",
    "setup_samples_s": "s",
    "spans": "spans",
    "trace_file": "path",
}


class BenchError(RuntimeError):
    pass


def _worker(mode, workload, seed, seconds, trace, deadline) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed)]
    cmd += [repr(float(seconds)), "1" if trace else "0", str(OUT)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} process")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() kills the child and waits for it
        raise BenchError(f"{workload}: {mode} process exceeded {TIME_LIMIT_S:.0f}s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {mode} process failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def _source_hash(*dirs: Path) -> str:
    h = hashlib.sha256()
    for d in dirs or (ROOT / "src" / "magphase",):
        for path in sorted(d.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int, worker_env: dict) -> dict:
    return {
        **worker_env,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "src_sha256": _source_hash(),
        "seed": seed,
        **THREAD_ENV,
    }


def check_digest(workload: str, seed: int, digest: str) -> bool:
    """Record the output digest; False if this source, benchmark and seed gave another one before."""
    store = OUT / "digests.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    key = f"{_source_hash(ROOT / 'src' / 'magphase', HERE)}:{workload}:{seed}"
    previous = seen.setdefault(key, digest)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(store)
    return previous == digest


def end_to_end(res: dict, setup_s: list) -> tuple[dict, dict]:
    """The end-to-end metrics, plus the figures printed beside them."""
    rotation_ms = [[1000.0 * s for s in rotation] for rotation in res["item_s"]]
    item_ms = [ms for rotation in rotation_ms for ms in rotation]
    tail_ms, tail_p, beyond = run_tail(rotation_ms)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "items_per_s": len(item_ms) / (math.fsum(item_ms) / 1000.0),
        "item_p50_ms": statistics.median(item_ms),
        "item_tail_ms": tail_ms,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    extra = {
        "final_loss": statistics.mean(res["final_losses"]) if res["final_losses"] else math.nan,
        "item_tail_percentile": tail_p,
        "item_tail_beyond": beyond,
        "items": len(item_ms),
        "rotations": res["rotations"],
        "failed_frac": res["failed"] / res["attempted"],
        "setup_samples_s": setup_s,
    }
    if res["agree"]:
        extra["trend_agree_frac"] = sum(res["agree"]) / len(res["agree"])
    return metrics, extra


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    setup_s = []
    if not trace:
        for _ in range(SETUP_ONLY_RUNS):
            setup_s.append(_worker("setup", workload, seed, 0, False, deadline)["setup_s"])
    try:
        res = _worker("measure", workload, seed, seconds, trace, deadline)
    finally:
        shutil.rmtree(OUT / f"work-{workload}-{seed}", ignore_errors=True)
    setup_s.append(res["setup_s"])
    env = environment(seed, res["env"])
    digest_ok = check_digest(workload, seed, res["digest"]) and not res["digest_mismatch"]
    if trace:
        metrics = res["layers"]
        units = LAYER_METRICS
        extra = {"spans": res["spans"], "trace_file": res["trace_file"]}
    else:
        metrics, extra = end_to_end(res, setup_s)
        units = END_TO_END
    print(f"== {workload} (seed {seed}, trace {int(trace)})")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{workload}.{name} {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{workload}.{name} {value} {PRINTED[name]}")
    print(f"{workload}.failed {res['failed']} of {res['attempted']} items")
    print(f"{workload}.digest {res['digest']} {'ok' if digest_ok else 'MISMATCH'}")
    if res["digest_mismatch"]:
        print(f"{workload}.digest_mismatch {res['digest_mismatch']}")
    correct = res["failed"] == 0 and digest_ok
    return correct, res["attempted"], res["failed"], {
        name: {"value": value, "unit": units[name]} for name, value in metrics.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "magphase" / "__init__.py").is_file():
        print(f"error: no magphase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    OUT.mkdir(exist_ok=True)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, att, fail, met = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            correct, attempted, failed = correct and ok, attempted + att, failed + fail
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + key: value for key, value in met.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
