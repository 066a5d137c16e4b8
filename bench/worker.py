"""One benchmark process: set up a workload, then (optionally) measure it.

    python3 bench/worker.py {setup|measure} WORKLOAD SEED SECONDS TRACE OUTDIR

Started by run.py in a fresh interpreter with single-threaded BLAS. It
imports magphase from the checkout's `src/` and prints one JSON object as
its last line of output.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from interpreter start-up

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))


def _load():
    import magphase

    where = Path(magphase.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"magphase imported from {where}, not from this checkout")
    import workloads

    return workloads


def run_rotations(tasks, seconds, tracer=None):
    """Run the whole number of rotations of the tasks that lasts closest to `seconds`.

    After each rotation, stop unless one more would end nearer to
    `seconds` than stopping now; at least one rotation runs. Returns one
    list of (label, ItemResult) per rotation. A task that raises counts
    as failed; its traceback goes to stderr.
    """
    from workloads import ItemResult

    rotations = []
    t0 = time.perf_counter()
    item = 0
    while True:
        done = []
        for label, task in tasks:
            if tracer is not None:
                tracer.item = item
            t_task = time.perf_counter()
            try:
                result = task()
            except Exception:  # keep measuring; the item is reported as failed
                traceback.print_exc(file=sys.stderr)
                result = ItemResult(1, time.perf_counter() - t_task, False, "raised")
            item += result.items
            done.append((label, result))
        rotations.append(done)
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(rotations) >= seconds:
            return rotations


def summarize(rotations) -> dict:
    """Item times (one list per rotation), checks and the rotation digest of a measured run."""
    item_s, final_losses, agree = [], [], []
    attempted = failed = 0
    for rotation in rotations:
        item_s.append([])
        for _, r in rotation:
            item_s[-1] += [r.seconds / r.items] * r.items
            attempted += r.items
            failed += 0 if r.ok else r.items
            final_losses += r.final_losses
            agree += r.agree
    first = [(label, r.digest) for label, r in rotations[0]]
    mismatched = [
        label
        for rotation in rotations[1:]
        for (label, r), (_, want) in zip(rotation, first)
        if r.digest != want
    ]
    return {
        "item_s": item_s,
        "attempted": attempted,
        "failed": failed,
        "final_losses": final_losses,
        "agree": agree,
        "rotations": len(rotations),
        "digest": _digest(first),
        "digest_mismatch": mismatched,
    }


def _digest(pairs) -> str:
    return hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]


def _rotation_seconds(rotation) -> float:
    return sum(r.seconds for _, r in rotation)


def main(argv) -> int:
    mode, workload, seed, seconds, trace, outdir = argv
    seed, seconds, trace, outdir = int(seed), float(seconds), trace == "1", Path(outdir)
    workloads = _load()
    workdir = outdir / f"work-{workload}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    tasks = workloads.WORKLOADS[workload](seed, workdir)
    setup_s = time.perf_counter() - T_START
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy

    out = {
        "setup_s": setup_s,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if not trace:
        rotations = run_rotations(tasks, seconds)
    else:
        import tracing

        reference = run_rotations(tasks, 0.0)  # one untraced rotation
        tracer = tracing.Tracer()
        before = resource.getrusage(resource.RUSAGE_SELF)
        tracer.install()
        try:
            traced = run_rotations(tasks, seconds, tracer)
        finally:
            tracer.uninstall()
        after = resource.getrusage(resource.RUSAGE_SELF)
        rotations = reference + traced
        items = sum(r.items for rotation in traced for _, r in rotation)
        layers = tracing.layer_metrics(tracer.spans, tracer.counts, items)
        layers["proc.sys_s"] = (after.ru_stime - before.ru_stime) / items
        layers["proc.minor_faults"] = (after.ru_minflt - before.ru_minflt) / items
        layers["trace.overhead_frac"] = (
            statistics.median(_rotation_seconds(r) for r in traced)
            / _rotation_seconds(reference[0])
            - 1.0
        )
        trace_file = outdir / f"trace-{workload}-{seed}.jsonl"
        tracer.write(trace_file)
        out["layers"] = layers
        out["trace_file"] = str(trace_file.relative_to(ROOT))
        out["spans"] = len(tracer.spans)
        tracing.check_required(layers, workloads.REQUIRED_LAYERS[workload], workload)
    out.update(summarize(rotations))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
