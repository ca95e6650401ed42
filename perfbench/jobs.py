"""Seeded job lists for the benchmark workloads.

Standard library only: building a job list never imports supernilhecke, so it
cannot warm the program's caches before the timed jobs run.

Each workload has a catalogue, a fixed and deterministic list of distinct CLI
jobs whose outputs have recorded digests.  The run seed orders the jobs and,
for ``dg``, picks one variant of each slot, so every seed is checked against
the same digest table and no job repeats within a run.
"""
from __future__ import annotations

import random
import shlex

Job = tuple[str, ...]

WORKLOADS = ("dg", "cyclotomic", "requests")

# The requests catalogue is generated from this fixed seed; the run seed only
# orders it, so every run measures the same mix.
REQUESTS_CATALOGUE_SEED = 20170427
REQUESTS_CATALOGUE_SIZE = 3000

VERIFY_SEEDS = range(1, 9)


def job_key(job: Job) -> str:
    """The job as one shell-quoted line, which keys the digest table."""
    return shlex.join(job)


# ---- dg -----------------------------------------------------------------------
#
# Slots: each slot contributes one job per run, chosen among its variants by
# the run seed.  The variants of a slot differ only in the verify seed, which
# changes the sampled Leibniz pairs but not the amount of work.

def _dg_slots() -> list[list[Job]]:
    slots: list[list[Job]] = []
    # Rank-bound: n = 3 homology up to L = m + N = 4, blocks up to 199x316.
    for m in (0, 1):
        for L in range(5):
            slots.append([("homology", "--n", "3", "--m", str(m), "--N", str(L - m),
                           "--qcut", "10")])
    # The criterion-7 grid at n <= 2: many tiny blocks.
    for m in (-2, -1, 0, 1):
        for L in range(5):
            if L - m < 0:
                continue
            for n in (1, 2):
                slots.append([("homology", "--n", str(n), "--m", str(m),
                               "--N", str(L - m), "--qcut", "12")])
    # d^2 sweep, Leibniz, homology and the cyclotomic oracle in one job.
    for n, m, N, qcut in ((3, 0, 2, 8), (3, -1, 2, 8), (3, 0, 1, 10), (3, 1, 2, 9),
                          (3, 0, 2, 9), (3, -1, 2, 9), (3, 1, 2, 10), (3, 0, 1, 8),
                          (2, -1, 2, 10), (2, -2, 4, 10), (2, 0, 2, 10),
                          (2, 1, 1, 10), (2, -1, 4, 10)):
        slots.append([("verify", "dg", "--n", str(n), "--m", str(m), "--N", str(N),
                       "--qcut", str(qcut), "--seed", str(s)) for s in VERIFY_SEEDS])
    return slots


# ---- cyclotomic ---------------------------------------------------------------

def _cyclotomic_jobs() -> list[Job]:
    jobs: list[Job] = []
    # n = 3 with a zero quotient: every degree must fill before early exit.
    for N in (1, 2):
        for qcut in (-10, -8):
            jobs.append(("cyclotomic", "--n", "3", "--N", str(N), "--qcut", str(qcut)))
    # n = 3 with a nonzero quotient.
    jobs.append(("cyclotomic", "--n", "3", "--N", "3", "--qcut", "-10"))
    # The n <= 2 grid.  Its n = 2 jobs are the majority, so the median job
    # falls inside that dense cluster rather than between clusters.
    for N in range(1, 6):
        jobs.append(("cyclotomic", "--n", "1", "--N", str(N), "--qcut", "12"))
        for qcut in range(12, 23):
            jobs.append(("cyclotomic", "--n", "2", "--N", str(N), "--qcut", str(qcut)))
    return jobs


# ---- requests -----------------------------------------------------------------
#
# Expressions are written after "--": argparse reads a leading "-" as an
# option, so "mul -3*x1 x2" is a usage error (see NOTES.md).

def _coeff(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 1, 1, 2, 3))


def _join_terms(terms: list[tuple[int, list[str]]]) -> str:
    out = ""
    for c, factors in terms:
        body = "*".join(factors) if factors else "1"
        mag = abs(c)
        text = body if mag == 1 else (f"{mag}" if not factors else f"{mag}*{body}")
        if not out:
            out = f"-{text}" if c < 0 else text
        else:
            out += f" - {text}" if c < 0 else f" + {text}"
    return out


def _ring_factors(rng: random.Random, n: int, m: int) -> list[str]:
    factors = []
    for i in range(1, n + 1):
        e = rng.choice((0, 0, 1, 1, 2))
        if e:
            factors.append(f"x{i}" if e == 1 else f"x{i}^{e}")
    if rng.random() < 0.5:
        i = rng.randint(1, n)
        factors.append(f"w{i}" if rng.random() < 0.6 else f"w{i}^{rng.randint(m + 1, m + 3)}")
    return factors


def _t_word(rng: random.Random, n: int, length: int) -> list[str]:
    return [f"T{rng.randint(1, n - 1)}" for _ in range(length)]


def _algebra_expr(rng: random.Random, n: int, m: int) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = _ring_factors(rng, n, m) + _t_word(rng, n, rng.randint(0, 3))
        if rng.random() < 0.3:
            rng.shuffle(factors)
        terms.append((_coeff(rng), factors))
    return _join_terms(terms)


def _ring_expr(rng: random.Random, n: int, m: int) -> str:
    return _join_terms([(_coeff(rng), _ring_factors(rng, n, m))
                        for _ in range(rng.randint(1, 3))])


def _schubert_times_w(rng: random.Random, n: int) -> str:
    """A reduced crossing word of a random permutation times an odd generator."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    letters = []
    for _ in range(n):
        for k in range(n - 1):
            if perm[k] > perm[k + 1]:
                perm[k], perm[k + 1] = perm[k + 1], perm[k]
                letters.append(f"T{k + 1}")
    w = f"w{rng.randint(1, n)}"
    factors = letters + [w] if rng.random() < 0.5 else [w] + letters
    return "*".join(factors)


def _request(rng: random.Random) -> Job:
    kind = rng.choices(
        ("nf", "mul", "act", "schur", "grdim", "ses-check", "shapovalov", "verify"),
        weights=(25, 25, 20, 8, 6, 5, 5, 6))[0]
    m = rng.randint(-2, 1)
    if kind == "nf":
        n = rng.randint(3, 8)
        letters = _t_word(rng, n, 7)
        for _ in range(rng.randint(0, 2)):
            letters.insert(rng.randint(0, len(letters)), rng.choice(
                (f"x{rng.randint(1, n)}", f"w{rng.randint(1, n)}")))
        expr = "*".join(letters)
        if rng.random() < 0.3:
            expr = f"{_coeff(rng)}*{expr}"
        return ("nf", "--n", str(n), "--m", str(m), "--", expr)
    if kind == "mul":
        n = rng.randint(2, 4)
        right = _schubert_times_w(rng, n) if rng.random() < 0.4 else _algebra_expr(rng, n, m)
        return ("mul", "--n", str(n), "--m", str(m), "--", _algebra_expr(rng, n, m), right)
    if kind == "act":
        n = rng.randint(2, 4)
        return ("act", "--n", str(n), "--m", str(m), "--",
                _algebra_expr(rng, n, m), _ring_expr(rng, n, m))
    if kind == "schur":
        n = rng.randint(1, 4)
        parts = sorted((rng.randint(0, 3) for _ in range(rng.randint(0, n))), reverse=True)
        beta = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        return ("schur", "--n", str(n), "--m", str(m), "--",
                "[" + ",".join(map(str, parts)) + "]", "[" + ",".join(map(str, beta)) + "]")
    if kind == "grdim":
        return ("grdim", "--n", str(rng.randint(0, 4)), "--m", str(m),
                "--qcut", str(rng.randint(4, 20)))
    if kind in ("ses-check", "shapovalov"):
        lo = 1 if kind == "ses-check" else 0
        return (kind, "--n", str(rng.randint(lo, 4)), "--m", str(m),
                "--qcut", str(rng.randint(4, 14)))
    suite = rng.choice(("relations", "schur", "ses"))
    if suite == "ses":
        return ("verify", "ses", "--n", str(rng.randint(1, 2)), "--m", str(m),
                "--qcut", str(rng.randint(4, 8)), "--seed", str(rng.randint(0, 99)))
    return ("verify", suite, "--n", str(rng.randint(1, 3)), "--m", str(m))


def _requests_catalogue() -> list[Job]:
    rng = random.Random(REQUESTS_CATALOGUE_SEED)
    seen: set[Job] = set()
    out: list[Job] = []
    while len(out) < REQUESTS_CATALOGUE_SIZE:
        job = _request(rng)
        if job not in seen:
            seen.add(job)
            out.append(job)
    return out


# ---- public -------------------------------------------------------------------

def catalogue(workload: str) -> list[Job]:
    """Every job the workload can run, each once, in a fixed order."""
    if workload == "dg":
        return [job for slot in _dg_slots() for job in slot]
    if workload == "cyclotomic":
        return _cyclotomic_jobs()
    if workload == "requests":
        return _requests_catalogue()
    raise ValueError(f"unknown workload {workload!r}")


def job_list(workload: str, seed: int) -> list[Job]:
    """The jobs one run executes, in order; no job appears twice."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dg":
        jobs = [rng.choice(slot) for slot in _dg_slots()]
    else:
        jobs = catalogue(workload)
    rng.shuffle(jobs)
    return jobs
