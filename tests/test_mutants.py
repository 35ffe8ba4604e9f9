"""The mutation catalogue of tests/mutants.py still fits the source: every
anchor occurs exactly once in its file, so tests/run_mutants.py mutates
what each row says, and every test file a row names exists."""

from pathlib import Path

import pytest

from mutants import EQUIVALENT, MUTANTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("row", MUTANTS + EQUIVALENT, ids=lambda m: f"{m.file}: {m.anchor}")
def test_every_anchor_occurs_exactly_once(row):
    assert (ROOT / "src" / "collatzkit" / row.file).read_text().count(row.anchor) == 1
    assert row.replacement != row.anchor


@pytest.mark.parametrize("row", MUTANTS, ids=lambda m: f"{m.file}: {m.anchor} -> {m.replacement}")
def test_every_mutant_names_test_files_that_exist(row):
    assert row.tests and all((ROOT / "tests" / f).is_file() for f in row.tests)
