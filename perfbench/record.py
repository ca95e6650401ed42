"""Record the stdout digest of every catalogue job.

    python3 perfbench/record.py [workload ...]

Run this only at a commit whose outputs are known to be right: the digests it
writes are what every later benchmark run is checked against.
"""
from __future__ import annotations

import contextlib
import io
import sys

import jobs as joblists
import run


def record(workload: str) -> None:
    main = run.import_package()["cli"].main
    lines = []
    for job in joblists.catalogue(workload):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(job))
        text = out.getvalue()
        why = run.check_output(job, code, text, run.digest(text))
        if why:
            raise SystemExit(f"refusing to record {joblists.job_key(job)}: {why}")
        lines.append(f"{run.digest(text)} {joblists.job_key(job)}\n")
    (run.DIGESTS / f"{workload}.txt").write_text("".join(lines))
    print(f"{workload}: {len(lines)} digests", file=sys.stderr)


if __name__ == "__main__":
    for name in sys.argv[1:] or joblists.WORKLOADS:
        record(name)
