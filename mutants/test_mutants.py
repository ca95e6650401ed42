"""Tests of the mutant table and runner: python3 -m pytest -q mutants"""
from __future__ import annotations

import mutate
from table import MUTANTS


def test_names_are_unique_and_each_entry_kills_or_gives_a_reason():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert bool(m.kill) != bool(m.reason), m.name
        assert m.old != m.new, m.name


def test_failed_ids_reads_the_short_summary():
    report = "\n".join([
        "..F.E",
        "=========================== short test summary info ============================",
        "FAILED tests/test_a.py::test_x - AssertionError: assert 1 == 2",
        "FAILED tests/test_a.py::test_p[x1*wn n=2] - assert False",
        "ERROR tests/test_b.py::test_y",
        "ERROR: not found: tests/test_c.py::test_z",
        "1 failed, 3 passed in 0.10s",
    ])
    assert mutate.failed_ids(report) == {
        "tests/test_a.py::test_x", "tests/test_a.py::test_p[x1*wn n=2]",
        "tests/test_b.py::test_y"}
