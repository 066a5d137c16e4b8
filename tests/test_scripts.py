"""The mutation sweep's anchors: each mutant's text, and README's count of the mutants."""
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
_UNITS = (
    "zero one two three four five six seven eight nine ten eleven twelve thirteen"
    " fourteen fifteen sixteen seventeen eighteen nineteen"
).split()
_TENS = "- - twenty thirty forty fifty sixty seventy eighty ninety".split()


def _sweep():
    spec = importlib.util.spec_from_file_location("mutation_sweep", SCRIPTS / "mutation_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def _in_words(n: int) -> str:
    if n < 20:
        return _UNITS[n]
    return _TENS[n // 10] + (f"-{_UNITS[n % 10]}" if n % 10 else "")


def test_every_mutant_still_finds_its_text():
    # The sweep takes minutes and is run by hand; a refactor that moves a
    # mutant's pinned text fails here at once instead.
    sweep = _sweep()
    assert sweep.MUTANTS
    for mutant in sweep.MUTANTS:
        text = (sweep.ROOT / mutant.path).read_text()
        assert text.count(mutant.old) == 1, mutant.name


def test_readme_counts_the_mutants():
    sweep = _sweep()
    readme = " ".join((sweep.ROOT / "README.md").read_text().split())
    assert f"which plants {_in_words(len(sweep.MUTANTS))} known bugs" in readme
