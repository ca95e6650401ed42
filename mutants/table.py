"""The committed mutants: small edits to the package that named tests must
catch, and equivalent edits that no test can catch, each with its reason.

An entry replaces the exact text ``old``, which must occur once in ``path``,
with ``new``.  ``kill`` lists the test ids (as pytest prints them, relative
to the repository root) that must each fail on the mutant.  An equivalent
mutant has an empty ``kill`` and says in ``reason`` why it cannot be caught.
"""
from __future__ import annotations

from dataclasses import dataclass

ALGEBRA = "src/supernilhecke/algebra.py"
DGSTRUCTURE = "src/supernilhecke/dgstructure.py"
INVARIANTS = "src/supernilhecke/invariants.py"
CLI = "src/supernilhecke/cli.py"
T_ALGEBRA = "tests/test_algebra.py::"
T_DG = "tests/test_dgstructure.py::"
ROUND_TRIP = "tests/test_invariants.py::test_decompose_over_invariants_round_trip"
CORRUPTED_SCHUR = "tests/test_cli.py::test_schur_suite_agrees_with_all_pairs_on_corrupted_tables"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    kill: tuple[str, ...] = ()
    reason: str = ""


MUTANTS = (
    Mutant(
        "shift-drops-koszul-sign", ALGEBRA,
        "yield (tuple(map(add, xexp, e)), mask, k), sign * c * cc",
        "yield (tuple(map(add, xexp, e)), mask, k), c * cc",
        kill=(T_ALGEBRA + "test_shift_is_the_product_by_a_ring_monomial",
              T_ALGEBRA + "test_mul_matches_reference_product",
              T_ALGEBRA + "test_phi",
              "tests/test_induction.py::test_crossing_map_is_balanced"),
    ),
    Mutant(
        "shift-ignores-mask-overlap", ALGEBRA,
        "sign, mask = _merge_masks(omask, o)",
        "sign, mask = _merge_masks(omask & ~o, o)",
        kill=(T_ALGEBRA + "test_shift_is_the_product_by_a_ring_monomial",
              T_ALGEBRA + "test_mul_matches_reference_product",
              T_ALGEBRA + "test_spanning_table_rows_match_reference_sequence[x1*wn n=2]"),
    ),
    Mutant(
        "times-tests-composed-perm-for-truth", ALGEBRA,
        "if (perm := _compose_adding(rho, sigma)) is not None",
        "if (perm := _compose_adding(rho, sigma))",
        kill=(T_ALGEBRA + "test_mul_matches_reference_product",),
    ),
    Mutant(
        "cyclotomic-lambda-is-mask-size", ALGEBRA,
        "if 2 * s.bit_count() == key[1])",
        "if s.bit_count() == key[1])",
        kill=(T_ALGEBRA + "test_cyclotomic_grdim",
              "tests/test_gradedseries.py::test_cyclotomic_grdim_closed_form_matches_span[2-2-16]",
              "tests/test_cli.py::test_cyclotomic_command"),
    ),
    Mutant(
        "cyclotomic-ranks-one-q-too-few", ALGEBRA,
        "rank0 = nilhecke_ideal_ranks(n, N, qcut + n * (n + 1))",
        "rank0 = nilhecke_ideal_ranks(n, N, qcut + n * (n + 1) - 2)",
        kill=(T_ALGEBRA + "test_cyclotomic_grdim",
              "tests/test_gradedseries.py::test_cyclotomic_grdim_closed_form_matches_span[2-2-16]",
              "tests/test_cli.py::test_cyclotomic_command"),
    ),
    Mutant(
        "leibniz-drops-koszul-sign", ALGEBRA,
        "return tuple(((-1) ** _parity(fs[:j]) * c, *fs[:j], df, *fs[j + 1:])",
        "return tuple((c, *fs[:j], df, *fs[j + 1:])",
        kill=(T_DG + "test_d_squared_and_leibniz",
              T_DG + "test_leibniz_on_relations_agrees_with_sampled_pairs",
              "tests/test_cli.py::test_verify_dg_and_ses"),
    ),
    Mutant(
        "presentation-drops-translation", ALGEBRA,
        '            yield f"translate w{i+1}^{a}", ((1, wa[i + 1]), (-1, x[i + 1], mid), (1, mid, x[i]))\n'
        '            yield f"translate w{i+1}^{a} (other form)", (\n'
        "                (1, wa[i + 1]), (-1, mid, x[i + 1]), (1, x[i], mid))\n",
        "",
        reason="the translation, in both forms, lies in the two-sided ideal of "
               "the commutation and nilHecke entries (T_i w_i T_i = -T_i w_{i+1}), "
               "so its Leibniz expansion vanishes whenever theirs do, for any "
               "images; verify_relations evaluates it in A_n, where it is 0",
    ),
    Mutant(
        "standard-window-one-too-wide", DGSTRUCTURE,
        "sum(standard[max(0, d - e + 1):d + 1])",
        "sum(standard[max(0, d - e):d + 1])",
        kill=(T_DG + "test_homology_small_cases",
              T_DG + "test_homology_equals_the_elimination_oracle_on_a_grid[2-0-2]",
              T_DG + "test_n4_homology_is_the_cyclotomic_nilhecke_quotient"),
    ),
    Mutant(
        # h_k(x_1..x_i) then leads with x_1^k, not a power of x_i
        "leads-read-with-x1-most-significant", DGSTRUCTURE,
        "key=lambda xe: xe[::-1]",
        "key=lambda xe: xe",
        kill=(T_DG + "test_homology_equals_the_elimination_oracle_on_a_grid[3-0-3]",
              T_DG + "test_n4_homology_is_the_cyclotomic_nilhecke_quotient"),
    ),
    Mutant(
        "homology-runs-past-qcut", DGSTRUCTURE,
        "if (q := 2 * d - 2 * plen) <= qcut:",
        "if (q := 2 * d - 2 * plen) <= qcut + 2:",
        kill=(T_DG + "test_homology_small_cases",
              T_DG + "test_homology_equals_the_elimination_oracle_on_a_grid[1-0-2]",
              T_DG + "test_homology_of_no_strands"),
    ),
    Mutant(
        "premise-accepts-a-mixed-lead", DGSTRUCTURE,
        "if lead is None or sum(lead) != lead[i]:",
        "if lead is None or not lead[i]:",
        kill=(T_DG + "test_homology_rejects_a_lead_that_is_not_a_pure_power",),
    ),
    Mutant(
        # the count reads only d(w_i), and d^2(w_a w_b) = 2 d(w_a) d(w_b):
        # only the check of d^2 over Z in homology_ranks sees it
        "odd-images-drops-sign", DGSTRUCTURE,
        "(-c if j & 1 else c) * koszul",
        "c * koszul",
        kill=(T_DG + "test_homology_rejects_d_squared_nonzero_over_the_integers[2-2]",
              T_DG + "test_homology_rejects_d_squared_nonzero_over_the_integers[3-3]",
              "tests/test_cli.py::test_verify_dg_and_ses"),
    ),
    Mutant(
        "pairing-drops-sign", INVARIANTS,
        "out[v] = c.scale(-1) if symgroup.length(u) & 1 else c",
        "out[v] = c",
        kill=(ROUND_TRIP, "tests/test_invariants.py::test_decompose_special_cases"),
    ),
    Mutant(
        # S_2 is abelian (w0 v = v w0), so only the n >= 3 cases catch it
        "pairing-left-coset", INVARIANTS,
        "u = symgroup.compose(v, w0)",
        "u = symgroup.compose(w0, v)",
        kill=(ROUND_TRIP,),
    ),
    Mutant(
        # with S_0,() = 2 every other checked pair still holds
        "suite-schur-drops-unit-pairs", CLI,
        "[((), beta) for beta in betas]\n             + ",
        "",
        kill=(CORRUPTED_SCHUR + "[1]", CORRUPTED_SCHUR + "[2]"),
    ),
    Mutant(
        # at n = 1, E_1 + 1 fails only the pair ((1), (1))
        "suite-schur-skips-equal-generators", CLI,
        "for bp in range(1, n + 1)]",
        "for bp in range(1, n + 1) if b != bp]",
        kill=(CORRUPTED_SCHUR + "[1]",),
    ),
    Mutant(
        "check-columns-max-below-zero", "src/supernilhecke/linalg.py",
        "min(row) < 0 or max(row) >= ncols",
        "max(row) < 0 or max(row) >= ncols",
        kill=("tests/test_linalg.py::test_rank_rejects_columns_out_of_range",),
    ),
    Mutant(
        "strand-minima-last-prefix", "src/supernilhecke/symgroup.py",
        "if track[k] < minima[k]:",
        "if track[k] <= minima[k]:",
        kill=("tests/test_symgroup.py::test_partition_word_paper_example",
              "tests/test_symgroup.py::test_partition_word_reassembles"),
    ),
    Mutant(
        "reduce-without-sign-flip", "src/supernilhecke/linalg.py",
        "        if a < 0:\n            a, b = -a, -b\n",
        "",
        reason="with a < 0 the step a*row - b*pivot still clears the column; "
               "the returned scale carries the sign into sparse_det, and rank "
               "and IntEchelon read only whether a remainder is left and its "
               "lead column",
    ),
    Mutant(
        "twisted-greatest-left-descent", "src/supernilhecke/induction.py",
        "for i in range(1, n1 - 1) if",
        "for i in reversed(range(1, n1 - 1)) if",
        reason="T_{t x 1} = T_i T_{s_i t x 1} for any left descent i of t, "
               "so every choice caches the same element",
    ),
)
