"""Smoke runs of the study scripts in scripts/ with tiny budgets, and the mutants' anchors."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("trend_study.py", ["--seeds", "1", "--steps", "5"]),
        ("compensation_grid.py", ["--steps", "5", "--units", "20"]),
        ("make_histograms.py", ["--out", "hist"]),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_script_runs(tmp_path, script, args):
    # Run inside tmp_path so any output the script writes lands there.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_every_mutant_still_finds_its_text():
    # The sweep takes minutes and is run by hand; a refactor that moves a
    # mutant's pinned text fails here at once instead.
    spec = importlib.util.spec_from_file_location("mutation_sweep", SCRIPTS / "mutation_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.MUTANTS
    for mutant in sweep.MUTANTS:
        text = (sweep.ROOT / mutant.path).read_text()
        assert text.count(mutant.old) == 1, mutant.name
