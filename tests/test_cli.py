import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import supernilhecke
import supernilhecke.cli as cli
from supernilhecke.algebra import AlgebraElement, basis_counts, random_element
from supernilhecke.cli import main
from supernilhecke.exprparse import (
    MAX_NESTING, ParseError, evaluate_algebra, evaluate_ring, parse,
)
from supernilhecke.invariants import eps_sign, schur_zero, strict_partitions
from supernilhecke.superring import SuperPolynomial, labeled_omega


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_cli_err(capsys, *argv):
    """Like run_cli, also returning what went to stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf_nilpotent(capsys):
    code, out = run_cli(capsys, "nf", "T1*T1", "--n", "2")
    assert code == 0
    assert json.loads(out) == {"terms": []}


def test_nf_twist(capsys):
    code, out = run_cli(capsys, "nf", "T1*x1", "--n", "2")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert {"coeff": 1, "x": [0, 0], "w": [], "perm": [1, 2]} in terms
    assert {"coeff": 1, "x": [0, 1], "w": [], "perm": [2, 1]} in terms


def test_mul_and_act(capsys):
    code, out = run_cli(capsys, "mul", "T1", "x1", "--n", "2")
    assert code == 0
    code, out = run_cli(capsys, "act", "T1", "x1", "--n", "2")
    assert code == 0
    assert json.loads(out)["terms"] == [{"coeff": 1, "x": [0, 0], "w": []}]


def test_json_output_never_builds_the_text_form(capsys, monkeypatch):
    from supernilhecke.gradedseries import GradedDim
    commands = [("mul", "--n", "3", "--", "2*x1*x2*w1*T1*T2", "3*w3*x1*x2"),
                ("nf", "--n", "2", "T1*x1"),
                ("act", "--n", "2", "T1", "x1*w2"),
                ("schur", "--n", "2", "[1]", "[2]"),
                ("grdim", "--n", "2", "--qcut", "4"),
                ("shapovalov", "--n", "2", "--qcut", "4")]

    def run(fmt, argv):
        return run_cli(capsys, argv[0], "--format", fmt, *argv[1:])

    want = [run("json", argv) for argv in commands]
    text = run("text", commands[0])
    assert all(code == 0 for code, _ in want) and text[0] == 0

    def broken(self):
        raise AssertionError("text form built under --format json")

    for cls in (AlgebraElement, SuperPolynomial, GradedDim):
        monkeypatch.setattr(cls, "__repr__", broken)
    for argv, expected in zip(commands, want):
        assert run("json", argv) == expected, argv
    monkeypatch.undo()
    assert run("text", commands[0]) == text


def test_leading_minus_expression_after_double_dash(capsys):
    code, out = run_cli(capsys, "mul", "--n", "2", "--", "-3*x1", "x2")
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"coeff": -3, "x": [1, 1], "w": [], "perm": [1, 2]}]
    # Without "--" argparse takes the expression for an option; the help says so.
    code, out = run_cli(capsys, "mul", "--n", "2", "-3*x1", "x2")
    assert code == 2
    for command in ("nf", "mul", "act"):
        code, out = run_cli(capsys, command, "--help")
        assert code == 0
        assert 'start with "-" go after "--"' in " ".join(out.split())


def test_labeled_generator_at_minimal_label(capsys):
    code, out = run_cli(capsys, "nf", "w1^0", "--n", "2", "--m", "-1")
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"coeff": 1, "x": [0, 0], "w": [1], "perm": [1, 2]}]


def test_schur_command(capsys):
    code, out = run_cli(capsys, "schur", "[]", "[1]", "--n", "2")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert {"coeff": 1, "x": [0, 0], "w": [1]} in terms
    assert {"coeff": -1, "x": [0, 1], "w": [2]} in terms


def test_exit_codes(capsys):
    code, _ = run_cli(capsys, "verify", "relations", "--n", "2", "--m", "-1")
    assert code == 0
    code, _ = run_cli(capsys, "nf", "T5*x1", "--n", "2")
    assert code == 2
    code, _ = run_cli(capsys, "nf", "x1 +", "--n", "2")
    assert code == 2
    code, _ = run_cli(capsys, "nf", "w1^-5", "--n", "2", "--m", "-1")
    assert code == 2


def test_verify_suites(capsys):
    for suite in ("relations", "basis", "schur"):
        code, out = run_cli(capsys, "verify", suite, "--n", "2", "--m", "-1",
                            "--qcut", "6")
        assert code == 0, (suite, out)
        payload = json.loads(out)
        assert payload["suites"][suite]["passed"]


@pytest.mark.parametrize("argv", [
    ("verify", "basis", "--n", "2", "--qcut", "-1"),
    ("verify", "basis", "--n", "2", "--m", "0", "--qcut", "-2"),
    ("verify", "all", "--n", "2", "--qcut", "-2"),
])
def test_verify_below_the_lowest_degree_of_a_smaller_algebra(capsys, argv):
    # A_0 (and A_1 at m = 0) has no basis element at q <= qcut: its window is
    # empty, while A_1 and A_2 have elements at q <= -2
    assert basis_counts(0, -1, -1) == {} and basis_counts(1, 0, -2) == {}
    assert basis_counts(1, -1, -2) and basis_counts(2, 0, -2)
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    assert all(suite["passed"] for suite in json.loads(out)["suites"].values())


def all_pairs_rule_fails(table, n, m):
    """Whether the Schur product rule fails on some pair of the table's keys."""
    for beta in table:
        for betap in table:
            sign, merged = eps_sign(beta, betap)
            want = table[merged].scale(sign) if sign else SuperPolynomial.zero(n, m)
            if table[beta] * table[betap] != want:
                return True
    return False


def corrupted_schur_tables(n, m):
    """(name, table) pairs: the true table of S_{0,beta} and corruptions of it."""
    true = {beta: schur_zero(n, m, beta) for beta in strict_partitions(n)}
    yield "true", true
    for beta in true:
        for c in (2, -1):
            yield f"S_0,{beta} times {c}", {**true, beta: true[beta].scale(c)}
    for b in range(1, n + 1):
        for bp in range(1, n + 1):
            if b != bp:
                yield f"E_{b} + E_{bp}", {**true, (b,): true[(b,)] + true[(bp,)]}
    yield "all 1", {beta: SuperPolynomial.one(n, m) for beta in true}
    yield "all 0", {beta: SuperPolynomial.zero(n, m) for beta in true}
    if n == 1:
        # only the pair ((1), (1)) fails: (E_1 + 1)^2 = 2 E_1 + 1
        yield "E_1 + 1", {**true, (1,): true[(1,)] + SuperPolynomial.one(n, m)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_schur_suite_agrees_with_all_pairs_on_corrupted_tables(monkeypatch, n):
    m = -1
    for name, table in corrupted_schur_tables(n, m):
        monkeypatch.setattr(cli, "schur_zero", lambda n, m, beta: table[tuple(beta)])
        failures = cli.suite_schur(n, m, 0, 0)
        assert not any("invariant" in msg for msg in failures), name
        assert bool(failures) == all_pairs_rule_fails(table, n, m), name


def test_verify_dg_and_ses(capsys):
    code, out = run_cli(capsys, "verify", "dg", "--n", "2", "--m", "-1",
                        "--N", "2", "--qcut", "6")
    assert code == 0
    code, out = run_cli(capsys, "verify", "ses", "--n", "2", "--m", "-1",
                        "--qcut", "8", "--seed", "7")
    assert code == 0


def test_json_determinism(capsys):
    a = run_cli(capsys, "verify", "ses", "--n", "2", "--qcut", "8", "--seed", "3")
    b = run_cli(capsys, "verify", "ses", "--n", "2", "--qcut", "8", "--seed", "3")
    assert a == b


def test_homology_command(capsys):
    code, out = run_cli(capsys, "homology", "--n", "1", "--m", "-1", "--N", "2",
                        "--qcut", "10")
    assert code == 0
    assert json.loads(out)["table"] == [{"q": 0, "h": 0, "dim": 1}]


def test_cyclotomic_command(capsys):
    code, out = run_cli(capsys, "cyclotomic", "--n", "2", "--N", "1",
                        "--qcut", "6")
    assert code == 0
    assert json.loads(out)["table"] == []


def test_ses_check_does_not_read_qcut(capsys):
    # the identity is checked exactly, so a q-window below the series'
    # support is no error
    code, out = run_cli(capsys, "ses-check", "--n", "1", "--m", "-1",
                        "--qcut", "-7")
    assert code == 0
    assert json.loads(out) == {"passed": True}


def test_shapovalov_command(capsys):
    code, out = run_cli(capsys, "shapovalov", "--n", "2", "--m", "0",
                        "--qcut", "8")
    assert code == 0
    assert json.loads(out)["sdim_match_after_unit"] is True


def test_parse_print_round_trip():
    rng = random.Random(5)
    for n, m in ((2, -1), (3, 0)):
        for _ in range(10):
            elt = random_element(n, m, rng)
            if elt.is_zero():
                continue
            printed = repr(elt)
            again = evaluate_algebra(parse(printed), n, m)
            assert again == elt, printed
    # ring elements, through evaluate_ring
    for n, m in ((1, 0), (2, -1), (3, 0), (4, -2)):
        for _ in range(10):
            terms = {}
            for _ in range(rng.randrange(1, 7)):
                key = (tuple(rng.randrange(4) for _ in range(n)), rng.randrange(1 << n))
                terms[key] = rng.randrange(-3, 4)
            f = SuperPolynomial(n, m, terms)
            printed = repr(f)
            assert evaluate_ring(parse(printed), n, m) == f, printed
    # an element with thousands of terms still parses back
    big = labeled_omega(2, -1, 2, 3000)
    assert evaluate_ring(parse(repr(big)), 2, -1) == big


def test_parser_precedence_and_unary():
    n, m = 2, -1
    E = AlgebraElement
    assert evaluate_algebra(parse("x1+x2*x1"), n, m) == \
        E.x(n, m, 1) + E.x(n, m, 2) * E.x(n, m, 1)
    assert evaluate_algebra(parse("-x1*x2"), n, m) == -(E.x(n, m, 1) * E.x(n, m, 2))
    assert evaluate_algebra(parse("T1*(x1+x2)"), n, m) == \
        E.T(n, m, 1) * (E.x(n, m, 1) + E.x(n, m, 2))
    assert evaluate_algebra(parse("x1^3"), n, m) == E.x(n, m, 1, 3)
    with pytest.raises(ParseError):
        parse("T1^2")
    with pytest.raises(ParseError):
        parse("x1^")
    with pytest.raises(ParseError):
        parse("q1")


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse("x1 + %")
    assert err.value.offset == 5


@pytest.mark.parametrize("text, offset", [
    ("x1*x5", 3),            # index out of range
    ("x1 + T7", 5),
    ("2*w1^-9", 2),          # label below the minimal one
    ("x1*T1", 3),            # a crossing where a ring element is needed
    ("\u0663", 0),           # digits other than 0-9 are not numbers
    ("x1 + x\u0662", 5),
    ("x\u00b2", 0),
    ("x1\u00b2", 2),
    ("(x1", 3),              # expected ')'
    ("x1^-2", 4),            # negative x-powers are not in the ring
    ("x1)", 2),              # trailing input
])
def test_parse_and_elaboration_errors_report_their_offset(text, offset):
    evaluate = evaluate_ring if "T1" in text else evaluate_algebra
    with pytest.raises(ParseError) as err:
        evaluate(parse(text), 2, -1)
    assert err.value.offset == offset


def test_verify_failure_exit_code(capsys, monkeypatch):
    import supernilhecke.cli as cli
    monkeypatch.setitem(
        cli.__dict__, "suite_relations",
        lambda n, m, qcut, seed: ["synthetic failure"])
    code, out = run_cli(capsys, "verify", "relations", "--n", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["suites"]["relations"]["failures"] == ["synthetic failure"]
    assert run_cli(capsys, "verify", "relations", "--n", "2", "--format", "text") == \
        (1, "relations: FAIL\nsynthetic failure\n")


def test_verify_and_cyclotomic_text_output(capsys):
    assert run_cli(capsys, "verify", "schur", "--n", "2", "--format", "text") == \
        (0, "schur: pass\n")
    code, out = run_cli(capsys, "cyclotomic", "--n", "1", "--N", "2", "--qcut", "4",
                        "--format", "text")
    assert code == 0
    assert out.splitlines() == ["q\tlambda\tdim", "-2\t2\t1", "0\t0\t1", "0\t2\t1",
                                "2\t0\t1"]


def test_verify_all_with_jobs(capsys):
    # --jobs is accepted and ignored: every value prints what --jobs 1 prints
    argv = ("verify", "all", "--n", "2", "--m", "-1", "--N", "2", "--qcut", "6")
    serial = run_cli(capsys, *argv, "--jobs", "1")
    code, out = serial
    assert code == 0
    payload = json.loads(out)
    assert set(payload["suites"]) == {"relations", "basis", "schur", "dg", "ses"}
    assert all(v["passed"] for v in payload["suites"].values())
    for jobs in ("-1", "0", "2", "64"):
        assert run_cli(capsys, *argv, "--jobs", jobs) == serial, jobs


@pytest.mark.parametrize("argv", [
    ("cyclotomic", "--n", "2", "--N", "-1"),
    ("grdim", "--n", "-1"),
    ("shapovalov", "--n", "-2"),
    ("homology", "--n", "-1", "--m", "0", "--N", "1"),
    ("schur", "{}", "[]"),
    ("schur", "[]", "{}"),
    ("schur", "[1.5]", "[]"),
    ("schur", "[true]", "[]"),
    ("schur", "1", "[]"),
    ("grdim", "--n", "0", "--qcut", "-1"),
    ("schur", "--n", "0", "[]", "[]"),
    ("ses-check", "--n", "0"),
    ("verify", "schur", "--n", "0"),
    ("verify", "ses", "--n", "0"),
    ("verify", "all", "--n", "0"),
])
def test_out_of_range_input_is_a_usage_error(capsys, argv):
    code, out, err = run_cli_err(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    if argv[0] in ("schur", "ses-check", "verify") and "--n" in argv:
        command = " ".join(argv[:2]) if argv[0] == "verify" else argv[0]
        assert f"--n must be >= 1 for {command}, got 0" in err


def test_zero_strands_stay_valid(capsys):
    code, out = run_cli(capsys, "grdim", "--n", "0", "--qcut", "4")
    assert code == 0
    code, out = run_cli(capsys, "cyclotomic", "--n", "0", "--N", "0", "--qcut", "4")
    assert code == 0


@pytest.mark.parametrize("argv,want", [
    (("nf", "--n", "2", "w1^3000"), 0),
    (("act", "--n", "2", "1", "w2^5000"), 0),
    (("nf", "--n", "2", "(" * 2000 + "x1" + ")" * 2000), 2),
    (("nf", "--n", "2", "--", "*".join(["x1"] * 3001)), 0),
])
def test_deep_inputs_do_not_crash(capsys, argv, want):
    code, out, err = run_cli_err(capsys, *argv)
    assert code == want
    assert "Traceback" not in err and "RecursionError" not in err
    if want == 0:
        assert json.loads(out)["terms"]
    else:
        assert "nested deeper" in err


def test_nesting_limit_and_unary_minus_runs():
    n, m = 2, -1
    x1 = evaluate_algebra(parse("x1"), n, m)
    deep = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert evaluate_algebra(parse(deep), n, m) == x1
    with pytest.raises(ParseError):
        parse("(" + deep + ")")
    assert evaluate_algebra(parse("-" * 3001 + "x1"), n, m) == -x1
    assert evaluate_algebra(parse("-" * 3000 + "x1"), n, m) == x1
    assert evaluate_algebra(parse("x1 - x1 + x2 - (x2 - x1)"), n, m) == x1
    assert evaluate_ring(parse("x1^3000"), n, m) == \
        evaluate_ring(parse("*".join(["x1"] * 3000)), n, m)


def test_internal_error_exit_code(capsys, monkeypatch):
    import supernilhecke.cli as cli

    def broken(*args):
        raise ArithmeticError("synthetic internal fault")

    monkeypatch.setattr(cli, "cmd_grdim", broken)
    monkeypatch.setitem(cli.__dict__, "suite_relations", broken)
    for argv in (("grdim", "--n", "2"), ("verify", "relations", "--n", "2")):
        code, out, err = run_cli_err(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert err.startswith("internal error:") and "synthetic internal fault" in err
        assert "Traceback" not in err
    # exit 1 is only a failed suite
    monkeypatch.setitem(cli.__dict__, "suite_relations",
                        lambda n, m, qcut, seed: ["synthetic failure"])
    assert run_cli(capsys, "verify", "relations", "--n", "2")[0] == 1


def test_parser_is_built_once_per_process(capsys):
    import supernilhecke.cli as cli
    cli.build_parser.cache_clear()
    assert run_cli(capsys, "grdim", "--n", "1", "--qcut", "2")[0] == 0
    assert run_cli(capsys, "nf", "--n", "2", "T1*x1")[0] == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_replaced_handler_runs_after_the_parser_is_built(capsys, monkeypatch):
    import supernilhecke.cli as cli
    assert run_cli(capsys, "ses-check", "--n", "1")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_nf", lambda args: seen.append(args.expr) or 0)
    monkeypatch.setattr(cli, "cmd_ses_check", lambda args: seen.append(args.n) or 0)
    assert run_cli(capsys, "nf", "--n", "2", "x1") == (0, "")
    assert run_cli(capsys, "ses-check", "--n", "3") == (0, "")
    assert seen == ["x1", 3]


def test_usage_error_leaves_no_state_behind(capsys):
    argv = ("mul", "--n", "2", "--format", "text", "--", "-3*x1", "T1")
    alone = run_cli(capsys, *argv)
    for bad in (("nf",), ("nf", "--n", "-1", "x1"), ("no-such-command",),
                ("grdim", "--qcut", "x"), ("verify", "nope")):
        code, out, err = run_cli_err(capsys, *bad)
        assert code == 2 and out == "" and "Traceback" not in err, bad
        assert run_cli(capsys, *argv) == alone


def test_repeated_calls_print_identical_output(capsys):
    for argv in (("nf", "--n", "3", "T1*T2*x1*w2"),
                 ("verify", "ses", "--n", "2", "--seed", "5"),
                 ("homology", "--n", "2", "--N", "3", "--qcut", "8", "--format", "text")):
        first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert first[0] == 0 and first == second, argv


def test_closed_stdout_exits_141_without_a_traceback():
    # a reader that stops after one line, as `| head -n 1` does; the output
    # (about 110 KB) is larger than a pipe buffer, so the CLI meets the
    # closed pipe while it writes
    src = str(Path(supernilhecke.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-m", "supernilhecke", "cyclotomic", "--n", "1", "--N", "6000",
            "--qcut", "12000", "--format", "text"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    assert first == b"q\tlambda\tdim\n"
    assert code == 141
    assert b"Traceback" not in err and b"internal error" not in err


def test_numeric_flags_exit_0_or_2_without_a_traceback_hypothesis():
    # the seven commands that take no expression, with every numeric flag
    # drawn in a small box around its valid range: a run either succeeds or
    # is a usage error, never a verification failure or an internal error
    pytest.importorskip("hypothesis")
    import contextlib
    import io
    from hypothesis import given, settings
    from hypothesis import strategies as st

    small_list = st.lists(st.integers(-1, 3), max_size=3).map(json.dumps)
    commands = st.one_of(
        st.sampled_from([["grdim"], ["ses-check"], ["shapovalov"], ["homology"],
                         ["cyclotomic"]]),
        st.sampled_from(["relations", "basis", "schur", "dg", "ses", "all"]).map(
            lambda suite: ["verify", suite]),
        st.tuples(small_list, small_list).map(lambda pair: ["schur", *pair]))
    flags = st.fixed_dictionaries({}, optional={
        "--n": st.integers(-2, 3), "--m": st.integers(-4, 4), "--N": st.integers(-3, 6),
        "--qcut": st.integers(-8, 8), "--seed": st.integers(0, 3),
        "--jobs": st.integers(-1, 2), "--format": st.sampled_from(["json", "text"])})

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(commands, flags)
    def check(command, options):
        argv = [*command, *(f"{flag}={value}" for flag, value in options.items())]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue(), argv

    check()
