"""
Command-line front end.

Commands: nf, mul, act, schur, grdim, ses-check, shapovalov, homology,
cyclotomic, verify.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 internal error (an unexpected exception, reported on stderr without a
traceback), 141 (128 + SIGPIPE) stdout closed before the output was written,
as by `| head`, the rest of the output discarded without a message.
--format json prints machine-readable output (deterministic for a fixed
--seed); text mode prints human-readable monomials.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .algebra import (
    act, basis_counts, cyclotomic_grdim, random_element, verify_relations,
)
from .dgstructure import DgParams, homology_ranks, nilhecke_cyclotomic_oracle, verify_d_squared
from .exprparse import ParseError, evaluate_algebra, evaluate_ring, parse
from .gradedseries import (
    GradedDim, grdim_An, nilhecke_cyclotomic_grdim, sdim_An, ses_dimension_check,
    shapovalov_unit, verma_shapovalov,
)
from .induction import recombine_ses, ses_split
from .invariants import (
    Superpartition, eps_sign, is_invariant, schur_super, schur_zero,
    schur_zero_product, strict_partitions,
)
from .superring import SuperPolynomial


class UsageError(ValueError):
    pass


def _series_json(g: GradedDim) -> list[dict]:
    return [{"q": q, "lambda": l, "pi": p, "coeff": c}
            for (q, l, p), c in g.sorted_items()]


def _emit(args, payload: dict, text) -> None:
    """Print the payload as JSON, or under --format text the string that the
    zero-argument callable `text` builds (only then is it called)."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text())


def cmd_nf(args) -> int:
    elt = evaluate_algebra(parse(args.expr), args.n, args.m)
    _emit(args, {"terms": elt.to_json_terms()}, lambda: repr(elt))
    return 0


def cmd_mul(args) -> int:
    lhs = evaluate_algebra(parse(args.left), args.n, args.m)
    rhs = evaluate_algebra(parse(args.right), args.n, args.m)
    prod = lhs * rhs
    _emit(args, {"terms": prod.to_json_terms()}, lambda: repr(prod))
    return 0


def cmd_act(args) -> int:
    op = evaluate_algebra(parse(args.expr), args.n, args.m)
    arg = evaluate_ring(parse(args.ring_expr), args.n, args.m)
    res = act(op, arg)
    _emit(args, {"terms": res.to_json_terms()}, lambda: repr(res))
    return 0


def _parts(text: str) -> tuple[int, ...]:
    try:
        parts = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"superpartition parts must be JSON arrays: {exc}")
    if not isinstance(parts, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in parts):
        raise UsageError(f"superpartition parts must be JSON arrays of integers: {text}")
    return tuple(parts)


def cmd_schur(args) -> int:
    sp = Superpartition(_parts(args.alpha), _parts(args.beta))
    res = schur_super(args.n, args.m, sp)
    _emit(args, {"terms": res.to_json_terms()}, lambda: repr(res))
    return 0


def cmd_grdim(args) -> int:
    g = grdim_An(args.n, args.m, args.qcut)
    _emit(args, {"series": _series_json(g), "qcut": args.qcut}, lambda: repr(g))
    return 0


def cmd_ses_check(args) -> int:
    ok = ses_dimension_check(args.n, args.m)
    _emit(args, {"passed": ok}, lambda: "pass" if ok else "FAIL")
    return 0 if ok else 1


def cmd_shapovalov(args) -> int:
    sh = verma_shapovalov(args.n, args.m, args.qcut)
    sd = sdim_An(args.n, args.m, args.qcut)
    normalized = shapovalov_unit(args.n, args.m) * sd
    ok = sh == normalized.truncate(args.qcut)
    payload = {"shapovalov": _series_json(sh),
               "sdim_match_after_unit": ok}
    _emit(args, payload, lambda: f"{sh!r}\nmatches unit . sdim: {ok}")
    return 0 if ok else 1


def cmd_homology(args) -> int:
    params = DgParams(args.n, args.m, args.N)
    table = homology_ranks(params, args.qcut)
    rows = [{"q": q, "h": h, "dim": d} for (q, h), d in sorted(table.items())]
    _emit(args, {"table": rows}, lambda: "\n".join(
        ["q\th\tdim"] + [f"{r['q']}\t{r['h']}\t{r['dim']}" for r in rows]))
    return 0


def cmd_cyclotomic(args) -> int:
    table = cyclotomic_grdim(args.n, args.N, args.qcut)
    rows = [{"q": q, "lambda": l, "pi": p, "dim": d}
            for (q, l, p), d in sorted(table.items())]
    _emit(args, {"table": rows}, lambda: "\n".join(
        ["q\tlambda\tdim"] + [f"{r['q']}\t{r['lambda']}\t{r['dim']}" for r in rows]))
    return 0


# ---- verification suites -----------------------------------------------------

def suite_relations(n: int, m: int, qcut: int, seed: int) -> list[str]:
    return [f"relations({n},{m}): {msg}"
            for nn in range(1, n + 1)
            for msg in verify_relations(nn, m)]


def suite_basis(n: int, m: int, qcut: int, seed: int) -> list[str]:
    failures = []
    for nn in range(0, n + 1):
        counts = basis_counts(nn, m, qcut)
        series = grdim_An(nn, m, qcut)
        got = {k: c for k, c in series.coeffs.items() if k[0] <= qcut}
        if got != counts:
            failures.append(f"basis({nn},{m}): enumeration disagrees with the closed form")
    return failures


def suite_schur(n: int, m: int, qcut: int, seed: int) -> list[str]:
    failures = []
    for beta in strict_partitions(n):
        s = schur_zero(n, m, beta)
        if not is_invariant(s):
            failures.append(f"schur({n},{m}): S_0,{beta} is not invariant")
    for beta in strict_partitions(n):
        for betap in strict_partitions(n):
            prod = schur_zero_product(n, m, beta, betap)
            sign, merged = eps_sign(beta, betap)
            want = (schur_zero(n, m, merged).scale(sign) if sign
                    else SuperPolynomial.zero(n, m))
            if prod != want:
                failures.append(f"schur({n},{m}): product rule fails at {beta},{betap}")
    return failures


def suite_dg(n: int, m: int, N: int, qcut: int, seed: int) -> list[str]:
    params = DgParams(n, m, N)
    if not verify_d_squared(params, qcut):
        # homology_ranks would raise on a nonzero d^2: a failed suite, exit 1
        return [f"dg({n},{m},{N}): d^2 or Leibniz fails"]
    failures = []
    table = homology_ranks(params, qcut)
    if any(h != 0 for (_, h) in table):
        failures.append(f"dg({n},{m},{N}): homology outside degree 0")
    by_q = {q: d for (q, h), d in table.items()}
    if by_q != nilhecke_cyclotomic_oracle(n, m + N, qcut):
        failures.append(f"dg({n},{m},{N}): homology disagrees with the cyclotomic oracle")
    if by_q != nilhecke_cyclotomic_grdim(n, m + N, qcut):
        failures.append(f"dg({n},{m},{N}): homology disagrees with the closed form")
    return failures


def suite_ses(n: int, m: int, seed: int) -> list[str]:
    failures = []
    rng = random.Random(seed)
    for nn in range(1, n + 1):
        if not ses_dimension_check(nn, m):
            failures.append(f"ses({nn},{m}): dimension identity fails")
    for _ in range(20):
        w = random_element(n + 1, m, rng, nterms=3, maxexp=1)
        pairs, coker = ses_split(w)
        if recombine_ses(n + 1, m, pairs, coker) != w:
            failures.append(f"ses({n},{m}): splitting failed to recombine")
            break
    return failures


# Suite name -> runner over (n, m, N, qcut, seed); each runner looks its suite
# up by name when it runs.
SUITES = {
    "relations": lambda n, m, N, qcut, seed: suite_relations(n, m, qcut, seed),
    "basis": lambda n, m, N, qcut, seed: suite_basis(n, m, qcut, seed),
    "schur": lambda n, m, N, qcut, seed: suite_schur(n, m, qcut, seed),
    "dg": lambda n, m, N, qcut, seed: suite_dg(n, m, N, qcut, seed),
    "ses": lambda n, m, N, qcut, seed: suite_ses(n, m, seed),
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = {name: SUITES[name](args.n, args.m, args.N, args.qcut, args.seed)
               for name in names}
    failures = [msg for name in names for msg in results[name]]
    payload = {"suites": {name: {"passed": not results[name],
                                 "failures": results[name]} for name in names}}
    _emit(args, payload, lambda: "\n".join(
        [f"{name}: {'pass' if not results[name] else 'FAIL'}" for name in names]
        + failures))
    return 0 if not failures else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and then reused.
    It holds no handlers: `main` looks the handler up by command name."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--n", type=int, default=2, help="number of strands")
    shared.add_argument("--m", type=int, default=-1,
                        help="minimal-label parameter (default -1)")
    shared.add_argument("--N", type=int, default=2, help="differential index")
    shared.add_argument("--qcut", type=int, default=10, help="q-degree cutoff")
    shared.add_argument("--seed", type=int, default=2024,
                        help="seed for randomized suites")
    shared.add_argument("--format", choices=("json", "text"), default="json")
    shared.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored: suites run one after "
                             "another in one process")

    # argparse reads a leading "-" as an option flag.
    dash_note = ('expressions that start with "-" go after "--", as in: '
                 'mul --n 2 -- "-3*x1" x2')

    parser = argparse.ArgumentParser(
        prog="supernilhecke",
        description="Exact computations in the enlarged nilHecke superalgebra")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", parents=[shared], help="normal form of an expression",
                       epilog=dash_note)
    p.add_argument("expr")

    p = sub.add_parser("mul", parents=[shared], help="product of two expressions",
                       epilog=dash_note)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("act", parents=[shared],
                       help="act by an operator on a ring element",
                       epilog=dash_note)
    p.add_argument("expr")
    p.add_argument("ring_expr")

    p = sub.add_parser("schur", parents=[shared],
                       help="Schur superpolynomial from alpha, beta")
    p.add_argument("alpha", help="JSON array, weakly decreasing")
    p.add_argument("beta", help="JSON array, strictly increasing")

    sub.add_parser("grdim", parents=[shared], help="closed-form graded rank")

    sub.add_parser("ses-check", parents=[shared],
                   help="graded-dimension identity of the SES (exact; ignores --qcut)")

    sub.add_parser("shapovalov", parents=[shared],
                   help="Verma pairing vs graded superdimension")

    sub.add_parser("homology", parents=[shared], help="dg-homology table")

    sub.add_parser("cyclotomic", parents=[shared],
                   help="graded dimension of the quotient by x_1^N")

    p = sub.add_parser("verify", parents=[shared],
                       help="run a verification suite (ses ignores --qcut)")
    p.add_argument("suite", choices=("relations", "basis", "schur", "dg", "ses", "all"))
    return parser


def _check_params(args) -> None:
    """Parameter ranges: --n >= 0 for every command and >= 1 where a command
    needs a strand, --N >= 0 for cyclotomic."""
    if args.n < 0:
        raise UsageError(f"--n must be >= 0, got {args.n}")
    command = f"verify {args.suite}" if args.command == "verify" else args.command
    if args.n < 1 and command in ("schur", "ses-check", "verify schur",
                                  "verify ses", "verify all"):
        raise UsageError(f"--n must be >= 1 for {command}, got {args.n}")
    if args.command == "cyclotomic" and args.N < 0:
        raise UsageError(f"--N must be >= 0 for cyclotomic, got {args.N}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        _check_params(args)
        # Looked up when it runs, so a replaced cmd_* takes effect.
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python's note on SIGPIPE: send what is left to devnull, so that the
        # flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
