#!/usr/bin/env python3
"""Plant known bugs one at a time and check that the named tests catch each.

Every mutant replaces one exact piece of source text in a temporary copy
of the repository (src/, tests/ and pyproject.toml) and runs its pytest
selector there; the selector must fail. First the selectors run once on
an unmutated copy, where they must pass, so a kill is the mutant's doing.
Prints one table row per mutant and exits 1 if a mutant survives, if a
selector fails on the unmutated copy, or if a mutant's old text does not
occur exactly once in its file (the source has drifted from the mutant,
which then has to be rewritten).

    python3 scripts/mutation_sweep.py

This is not part of Tier-1: it runs a test subset twice per mutant (clean
and mutated), about a minute and a half in all.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    selector: tuple


MUTANTS = (
    Mutant(
        "l2 optimum unclamped",
        "src/magphase/compensation.py",
        "return mag * np.maximum((tw * np.cos(phase_of(S) - phase) + mw) / (tw + mw), 0.0)",
        "return mag * ((tw * np.cos(phase_of(S) - phase) + mw) / (tw + mw))",
        ("tests/test_compensation.py",),
    ),
    Mutant(
        "l1 optimum unclamped",
        "src/magphase/compensation.py",
        "return np.maximum(np.take_along_axis(points, median, -1)[..., 0], 0.0)",
        "return np.take_along_axis(points, median, -1)[..., 0]",
        ("tests/test_compensation.py", "-k", "l1"),
    ),
    Mutant(
        "l1 weights swapped",
        "src/magphase/compensation.py",
        "[tw * np.abs(c), tw * np.abs(d), np.full(mag.shape, mw)]",
        "[tw * np.abs(d), tw * np.abs(c), np.full(mag.shape, mw)]",
        ("tests/test_compensation.py", "-k", "l1"),
    ),
    Mutant(
        "magnitude projection dropped",
        "src/magphase/optim.py",
        "        def project(x):\n            return np.maximum(x, 0.0)\n",
        "        def project(x):\n            return x\n",
        ("tests/test_optim.py", "-k", "compensation_curve_property"),
    ),
    Mutant(
        "final checkpoint dropped",
        "src/magphase/optim.py",
        "    if traj.steps[-1] != k:",
        "    if False:",
        ("tests/test_optim.py", "-k", "stop_reason_budget or early_stop"),
    ),
    Mutant(
        "overlap-add block order reversed",
        "src/magphase/stft.py",
        "    for j in reversed(range(blocks)):",
        "    for j in range(blocks):",
        ("tests/test_stft.py", "-k", "per_frame_loops"),
    ),
    Mutant(
        "finiteness check skipped",
        "src/magphase/metrics.py",
        "def _require_finite(a: np.ndarray, what: str) -> None:\n",
        "def _require_finite(a: np.ndarray, what: str) -> None:\n    return\n",
        ("tests/test_metrics.py", "-k", "non_finite"),
    ),
    Mutant(
        "metric rescale by modulus",
        "src/magphase/metrics.py",
        "for a in inputs for part in (a.real, a.imag))",
        "for a in inputs for part in (np.abs(a),))",
        ("tests/test_metrics.py", "-k", "overflow"),
    ),
)


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def run_pytest(tree: Path, args) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode


def mutate(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise LookupError(f"old text occurs {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutation_sweep_") as tmp:
        clean = Path(tmp) / "clean"
        clean.mkdir()
        copy_tree(clean)
        failing = [m.name for m in MUTANTS if run_pytest(clean, m.selector) != 0]
        if failing:
            print(f"selectors fail on the unmutated tree: {', '.join(failing)}")
            return 1

        survived = 0
        print(f"| {'mutant':<34} | {'file':<30} | {'selector':<58} | result   | s    |")
        print(f"|{'-' * 36}|{'-' * 32}|{'-' * 60}|----------|------|")
        for i, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{i}"
            tree.mkdir()
            copy_tree(tree)
            t0 = time.monotonic()
            try:
                mutate(tree, mutant)
                code = run_pytest(tree, mutant.selector)
                result = {0: "SURVIVED", 1: "killed"}.get(code, f"exit {code}")
            except LookupError as exc:
                result = "DRIFTED"
                print(f"{mutant.name}: {exc}", file=sys.stderr)
            survived += result != "killed"
            print(
                f"| {mutant.name:<34} | {mutant.path:<30} | {' '.join(mutant.selector):<58} "
                f"| {result:<8} | {time.monotonic() - t0:4.1f} |"
            )
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - survived}/{len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
