"""Run the mutation catalogue of tests/mutants.py.

For each mutant, copy src/ to a temporary directory, apply the mutant's
replacement there, and run its test files with `pytest -x -q` against the
copy. A mutant is caught when pytest exits nonzero. Prints one line per
mutant, as soon as it is done, and exits 1 if one survives or if an anchor
of the catalogue does not occur exactly once in today's source. Not
collected by pytest; run it from anywhere as

    python tests/run_mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import EQUIVALENT, MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    package = ROOT / "src" / "collatzkit"
    misplaced = [m for m in MUTANTS + EQUIVALENT if (package / m.file).read_text().count(m.anchor) != 1]
    for m in misplaced:
        print(f"anchor not found exactly once in {m.file}: {m.anchor!r}")
    if misplaced:
        return 1
    survivors = 0
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            path = src / "collatzkit" / m.file
            path.write_text(path.read_text().replace(m.anchor, m.replacement))
            env = dict(os.environ, PYTHONPATH=str(src))
            files = [str(ROOT / "tests" / f) for f in m.tests]
            t0 = time.perf_counter()
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode
            seconds = time.perf_counter() - t0
        caught = code != 0
        survivors += not caught
        verdict = "caught  " if caught else "SURVIVED"
        print(f"{verdict} {seconds:5.1f} s  {m.file}: {m.anchor!r} -> {m.replacement!r} ({m.breaks})", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} caught; {len(EQUIVALENT)} equivalent, not run")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
