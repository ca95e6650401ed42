"""Tests of the benchmark's own code: python3 -m pytest -q perfbench"""
from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import jobs as joblists
import layers
import run
from tracer import Tracer

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    mod = types.ModuleType("fake")

    def leaf():
        clock.now += 5

    def middle():
        clock.now += 4
        mod.leaf()
        clock.now += 1

    def outer():
        clock.now += 1
        mod.middle()
        clock.now += 2
        mod.leaf()

    for fn in (leaf, middle, outer):
        fn.__module__ = "fake"
        setattr(mod, fn.__name__, fn)
    tracer = Tracer(clock=clock)
    tracer.install({"fake": mod})
    clock.now += 100  # time outside any traced call
    mod.outer()

    leaf_st, middle_st, outer_st = (tracer.stat(f"fake.{n}") for n in ("leaf", "middle", "outer"))
    assert (leaf_st.calls, leaf_st.total_s, leaf_st.self_s) == (2, 10, 10)
    assert (middle_st.calls, middle_st.total_s, middle_st.self_s) == (1, 10, 5)
    assert (outer_st.calls, outer_st.total_s, outer_st.self_s) == (1, 18, 3)
    assert tracer.top_level_s == 18
    assert tracer.layer_self_s() == {"fake": 18}


def test_install_rebinds_imported_names_and_methods():
    clock = FakeClock()
    lib = types.ModuleType("lib")
    user = types.ModuleType("user")

    def rank(matrix):
        clock.now += 3
        return len(matrix)

    class Echelon:
        def add(self, row):
            clock.now += 2
            return True

        def _private(self):
            return None

    rank.__module__ = Echelon.__module__ = "lib"
    lib.rank, lib.Echelon = rank, Echelon
    user.rank = rank  # as after "from lib import rank"
    package = types.ModuleType("package")
    package.rank = rank  # a re-export that is not a layer of its own

    def solve(matrix):
        clock.now += 1
        return user.rank(matrix) + Echelon().add([1])

    solve.__module__ = "user"
    user.solve = solve

    seen = []
    tracer = Tracer(clock=clock, probes={
        "lib.rank": (lambda args, kwargs: "token",
                     lambda token, args, kwargs, result: seen.append((token, result)))})
    tracer.install({"lib": lib, "user": user}, importers=(package,))
    assert user.rank is lib.rank is package.rank is not rank
    assert Echelon._private.__name__ == "_private" and not hasattr(Echelon._private, "__wrapped__")
    assert user.solve([[1], [2]]) == 3
    assert seen == [("token", 2)]
    assert tracer.layer_self_s() == {"lib": 5, "user": 1}
    assert tracer.stat("lib.Echelon.add").calls == 1


def test_job_lists_are_deterministic_and_never_import_the_package():
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import jobs; "
        "print(json.dumps({w: [jobs.job_list(w, s) for s in (1, 2)] for w in jobs.WORKLOADS})); "
        "print(any(m.split('.')[0] == 'supernilhecke' for m in sys.modules))")
    outputs = [subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True,
                              text=True, check=True).stdout.splitlines() for _ in range(2)]
    assert outputs[0] == outputs[1]
    assert outputs[0][1] == "False"
    lists = json.loads(outputs[0][0])
    for workload, (first, second) in lists.items():
        assert first != second, workload
        catalogue = {tuple(job) for job in joblists.catalogue(workload)}
        for jl in (first, second):
            assert len({tuple(job) for job in jl}) == len(jl), workload
            assert {tuple(job) for job in jl} <= catalogue, workload


def test_every_catalogue_job_has_a_recorded_digest():
    for workload in joblists.WORKLOADS:
        keys = [joblists.job_key(job) for job in joblists.catalogue(workload)]
        assert len(set(keys)) == len(keys)
        assert set(run.load_digests(workload)) == set(keys), workload


def test_tail_has_ten_samples_beyond_it():
    value, pct, beyond = run.tail([float(k) for k in range(1, 58)])
    assert (value, pct, beyond) == (47.0, 82, 10)
    value, pct, beyond = run.tail([float(k) for k in range(1, 1501)])
    assert (pct, beyond) == (99, 15)
    assert run.tail([1.0, 2.0])[1:] == (0, 1)


def test_output_check_reasons():
    job = ("verify", "dg")
    good = '{"suites": {"dg": {"failures": [], "passed": true}}}\n'
    bad = good.replace("true", "false")
    assert run.check_output(job, 0, good, run.digest(good)) is None
    assert run.check_output(job, 1, good, run.digest(good)) == "exit code 1"
    assert "passed: false" in run.check_output(job, 0, bad, run.digest(bad))
    assert "digest" in run.check_output(job, 0, good, run.digest(bad))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(joblists.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert ({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
            == layers.METRICS)
