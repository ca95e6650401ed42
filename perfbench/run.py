"""Benchmark of the supernilhecke CLI: seeded job lists, run in process.

    python3 perfbench/run.py --workload dg --seed 1 --seconds 45 --trace 0

Each run is one fresh Python process with one thread.  It is a closed loop
with one client: each job calls ``supernilhecke.cli.main(argv)`` after the
previous one returned.  Every job's stdout is checked byte for byte against
the SHA-256 prefix recorded in ``perfbench/digests/<workload>.txt``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` the job list runs twice, untraced and then traced in a freshly
imported package, and the last line carries the per-layer metrics.  See
NOTES.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as joblists
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "supernilhecke"
DIGESTS = Path(__file__).resolve().parent / "digests"
DIGEST_HEX = 16
SETUP_SAMPLES = 9
TAIL_BEYOND = 10

# Interpreter start to the first job: start Python, import the CLI, report.
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
               f"import {PACKAGE}.cli; print('ready', flush=True)")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def load_digests(workload: str) -> dict[str, str]:
    path = DIGESTS / f"{workload}.txt"
    table = {}
    for line in path.read_text().splitlines():
        hexdigest, key = line.split(" ", 1)
        table[key] = hexdigest
    return table


def import_package() -> dict:
    """Import the package from this checkout's src, fresh; layer -> module."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no {PACKAGE} sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in layers.LAYERS}
    if Path(mods["cli"].__file__).resolve().parent != SRC / PACKAGE:
        raise BenchError(f"imported {PACKAGE} from {mods['cli'].__file__}, not {SRC}")
    return mods


def measure_setup() -> float:
    """Median wall time from starting an interpreter to the CLI being ready."""
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up child failed with code {child.returncode}")
        if k:  # the first start may compile bytecode; it is not counted
            samples.append(elapsed)
    return statistics.median(samples)


def check_output(job, code: int, out: str, expected: str) -> str | None:
    """Why a job's result is wrong, or None if it is right."""
    if code != 0:
        return f"exit code {code}"
    if job[0] in ("verify", "ses-check") and '"passed": false' in out:
        return "a check reported passed: false"
    if digest(out) != expected:
        return f"output digest {digest(out)} != recorded {expected}"
    return None


def run_jobs(main, job_list, table, budget_s: float = float("inf")) -> dict:
    """Run jobs in order until the list ends or the budget is spent."""
    latencies, failures = [], []
    start = time.perf_counter()
    for job in job_list:
        if time.perf_counter() - start > budget_s:
            break
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(job))
        except Exception as exc:  # a crashing job is a failed job, not a crashed run
            latencies.append(time.perf_counter() - t0)
            failures.append((job, f"raised {exc!r}"))
            continue
        latencies.append(time.perf_counter() - t0)
        why = check_output(job, code, out.getvalue(), table[joblists.job_key(job)])
        if why:
            failures.append((job, f"{why}; stderr {err.getvalue()[-200:]!r}"))
    return {"wall_s": time.perf_counter() - start, "latencies": latencies,
            "failures": failures}


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """Latency at the highest whole percentile with at least TAIL_BEYOND
    samples above it, with that percentile and the count above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = max(0, 100 * (n - TAIL_BEYOND) // n)
    rank = max(1, -(-pct * n // 100))
    return ordered[rank - 1], pct, n - rank


def end_to_end(result: dict, setup_s: float) -> tuple[dict, dict]:
    lat = result["latencies"]
    tail_s, pct, beyond = tail(lat)
    values = {
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_ms": statistics.median(lat) * 1000,
        "job_tail_ms": tail_s * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - len(result["failures"]) / len(lat),
    }
    return values, {"tail_percentile": pct, "tail_samples_beyond": beyond}


END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def context(args, job_list) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "budget_s": args.seconds,
        "trace": args.trace, "jobs_listed": len(job_list), "commit": commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / PACKAGE).glob("*.py"))),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=joblists.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the untraced pass over the job list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    job_list = joblists.job_list(args.workload, args.seed)
    try:
        table = load_digests(args.workload)
        missing = [job for job in job_list if joblists.job_key(job) not in table]
        if missing:
            raise BenchError(f"no digest recorded for {joblists.job_key(missing[0])}")
        mods = import_package()
        setup_s = None if args.trace else measure_setup()
        gc.freeze()  # the harness's own objects stay out of the per-job collections
        runs = [run_jobs(mods["cli"].main, job_list, table, args.seconds)]
        if args.trace:
            # The traced pass repeats exactly the jobs of the untraced pass, in
            # a fresh import so that no cache carries over between the passes.
            mods = import_package()
            trace = layers.LayerTrace()
            trace.tracer.install(mods, importers=(sys.modules[PACKAGE],))
            done = job_list[:len(runs[0]["latencies"])]
            runs.append(run_jobs(mods["cli"].main, done, table))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    ctx = context(args, job_list)
    ctx["jobs_run"] = [len(r["latencies"]) for r in runs]
    if args.trace:
        values = layers.metrics(trace, runs[1]["wall_s"], runs[0]["wall_s"])
        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
    else:
        values, extra = end_to_end(runs[0], setup_s)
        ctx.update(extra)
        units = END_TO_END_UNITS
    attempted = sum(len(r["latencies"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for job, why in failures[:10]:
        print(f"FAILED {joblists.job_key(job)}: {why}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name:45s} {value:16.6f} {units[name]}", file=sys.stderr)
    print(json.dumps({"context": ctx}, sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
