"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each magphase module (the
layers) from outside the package: every module that bound a function by
name gets the wrapper, so `magphase.optim.istft_array`,
`magphase.losses.istft_adjoint` and `magphase.cli.stft` are all timed,
not only the defining module's attribute. `types` is not a layer: the
cost of building and validating its containers lands in the caller's
self time.

A span is `[name, start, end, parent, item]`; spans stay in memory and
are written out once, when the run ends. A span's self time is its
duration minus the part of its interval that its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# Public functions timed per layer (module name -> function names).
PATCH_POINTS = {
    "stft": (
        "stft",
        "istft",
        "stft_array",
        "istft_array",
        "istft_adjoint",
        "stft_adjoint",
        "consistency_project",
    ),
    "losses": ("evaluate_loss", "pit_wrap"),
    "optim": ("optimize", "run_trend_experiment"),
    "metrics": ("si_sdr", "snr", "msnr", "psnr", "report"),
    "masks": ("iam", "psm", "psa_target", "masked_magnitude", "apply_mask_resynth"),
    "compensation": (
        "compensated_magnitude",
        "phase_diff_map",
        "histogram2d",
        "optimal_magnitude_along_phase",
    ),
    "scenes": ("synth_scene", "synth_rir"),
    "wavio": ("read_wav", "write_wav"),
    "cli": ("main",),
}

STFT_MAPS = ("stft_array", "istft_array", "istft_adjoint", "stft_adjoint")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Work counters recorded at the same boundaries: span name -> (counter, fn).
COUNTERS = {
    "stft.stft_array": ("stft.frames", lambda a, k, out: out.shape[0]),
    "stft.istft_array": ("stft.frames", lambda a, k, out: _arg(a, k, 0, "data").shape[0]),
    "stft.istft_adjoint": ("stft.frames", lambda a, k, out: out.shape[0]),
    "stft.stft_adjoint": ("stft.frames", lambda a, k, out: _arg(a, k, 0, "g_spec").shape[0]),
    "wavio.read_wav": ("wavio.bytes", lambda a, k, out: os.path.getsize(_arg(a, k, 0, "path"))),
    "wavio.write_wav": ("wavio.bytes", lambda a, k, out: os.path.getsize(_arg(a, k, 0, "path"))),
    "optim.optimize": ("optim.steps", lambda a, k, out: out.trajectory.steps[-1]),
}

# Per-layer metrics, all reported per item: name -> unit.
LAYER_METRICS = {
    **{f"stft.{fn}.calls": "calls/item" for fn in STFT_MAPS},
    **{f"stft.{fn}.self_s": "s/item" for fn in STFT_MAPS},
    "stft.frames": "frames/item",
    "stft.self_s": "s/item",
    "losses.evaluate_loss.calls": "calls/item",
    "losses.evaluate_loss.self_s": "s/item",
    "optim.optimize.calls": "calls/item",
    "optim.optimize.self_s": "s/item",
    "optim.steps": "steps/item",
    "optim.checkpoint_s": "s/item",
    "optim.evals_per_step": "evals/step",
    "metrics.calls": "calls/item",
    "metrics.self_s": "s/item",
    "masks.calls": "calls/item",
    "masks.self_s": "s/item",
    "compensation.calls": "calls/item",
    "compensation.self_s": "s/item",
    "scenes.synth_scene.calls": "calls/item",
    "scenes.synth_scene.self_s": "s/item",
    "wavio.calls": "calls/item",
    "wavio.self_s": "s/item",
    "wavio.bytes": "B/item",
    "cli.main.calls": "calls/item",
    "cli.main.self_s": "s/item",
    # measured around the traced rotations, not from spans
    "proc.sys_s": "s/item",
    "proc.minor_faults": "faults/item",
    "trace.overhead_frac": "frac",
}
SPAN_METRICS = [name for name in LAYER_METRICS if not name.startswith(("proc.", "trace."))]


class TraceError(RuntimeError):
    """A patch point is missing, or a layer that must work recorded no calls."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.item = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                key, count = counter
                counts[key] = counts.get(key, 0) + count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every patch point in every loaded magphase module bound to it.

        Layers are imported by module name, which yields
        `sys.modules["magphase.stft"]`: the package attribute
        `magphase.stft` is the function, not the module.
        """
        layers = {layer: importlib.import_module(f"magphase.{layer}") for layer in PATCH_POINTS}
        package = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "magphase" or name.startswith("magphase.")
        ]
        for layer, names in PATCH_POINTS.items():
            module = layers[layer]
            for fname in names:
                fn = getattr(module, fname, None)
                if not callable(fn):
                    raise TraceError(f"patch point magphase.{layer}.{fname} is missing")
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "item": item}
                    )
                    + "\n"
                )


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals within it."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, cursor = 0.0, start
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], cursor), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, counts, items: int) -> dict[str, float]:
    """The span-derived per-layer metrics, per item, of a traced run."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    checkpoint_s = 0.0
    for span, own in zip(spans, selfs):
        name = span[0]
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + own
        parent = span[3]
        if layer in ("metrics", "stft") and parent >= 0 and spans[parent][0] == "optim.optimize":
            checkpoint_s += span[2] - span[1]
    steps = counts.get("optim.steps", 0)
    evals = calls.get("losses.evaluate_loss", 0)
    totals = {
        "optim.steps": steps,
        "optim.checkpoint_s": checkpoint_s,
        "stft.frames": counts.get("stft.frames", 0),
        "wavio.bytes": counts.get("wavio.bytes", 0),
    }
    out = {}
    for metric in SPAN_METRICS:
        if metric == "optim.evals_per_step":
            out[metric] = evals / steps if steps else 0.0
        elif metric in totals:
            out[metric] = totals[metric] / items
        elif metric.endswith(".calls"):
            out[metric] = calls.get(metric[: -len(".calls")], 0) / items
        elif metric.endswith(".self_s"):
            out[metric] = self_s.get(metric[: -len(".self_s")], 0.0) / items
    return out


def check_required(metrics: dict[str, float], required, workload: str) -> None:
    """Fail loudly when a layer that works on this workload recorded no calls."""
    silent = [name for name in required if not metrics.get(name)]
    if silent:
        raise TraceError(
            f"{workload}: layers recorded no calls: {', '.join(silent)} "
            "(a renamed or moved function is no longer traced)"
        )
