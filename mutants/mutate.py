"""Run the committed mutants of supernilhecke against the tests that must
catch them.  Standard library only.

    python3 mutants/mutate.py         # every mutant in table.py
    python3 -m pytest -q mutants      # the table's own consistency tests

Each mutant in ``table.MUTANTS`` replaces one exact text in one file.  The
runner applies it to a fresh temporary copy of ``src/`` and ``tests/``, runs
pytest there on the mutant's listed test ids only, and checks that every
listed test fails.  First it runs every listed test on an unmutated copy:
they must all pass there.  An equivalent mutant lists no tests but a
reason; the runner only checks that its text still applies.  The exit code
is 0 when every mutant is caught, and 1 when a listed test fails unmutated,
or a mutant survives a listed test or no longer applies.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from table import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


def apply(mutant: Mutant, root: Path) -> None:
    """Write the mutant into the tree at root; its old text must occur once."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.path}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def failed_ids(report: str) -> set[str]:
    """Test ids that pytest's short summary (-rfE) reports failed or errored."""
    out = set()
    for line in report.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR") and "::" in rest:
            out.add(rest.split(" - ", 1)[0])
    return out


def run_tests(mutant: Mutant | None, tests: list[str]) -> set[str]:
    """Ids among tests that fail on a temporary copy of the tree with the
    mutant applied (none: the tree as it is)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, root / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / name, root / name)
        if mutant is not None:
            apply(mutant, root)
        if not tests:
            return set()
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
            cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise ValueError(f"pytest exited {proc.returncode}: "
                         f"{proc.stdout[-400:]}{proc.stderr[-400:]}")
    return failed_ids(proc.stdout)


def main() -> int:
    # a listed test that fails without any mutant catches nothing
    listed = sorted({test for m in MUTANTS for test in m.kill})
    try:
        failing = sorted(run_tests(None, listed))
    except ValueError as exc:
        failing = [str(exc)]
    if failing:
        print(f"failing before any mutant: {', '.join(failing)}", flush=True)
        return 1
    bad = 0
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        try:
            caught = run_tests(mutant, list(mutant.kill))
            problems = [f"survives {test}" for test in mutant.kill if test not in caught]
        except ValueError as exc:
            problems = [str(exc)]
        verdict = ("equivalent: " + mutant.reason if not mutant.kill
                   else f"caught by {len(mutant.kill)} of {len(mutant.kill)} tests")
        if problems:
            bad += 1
            verdict = "; ".join(problems)
        print(f"{mutant.name}: {verdict} ({time.perf_counter() - t0:.1f} s)", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
