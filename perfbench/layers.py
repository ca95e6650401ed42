"""Per-layer counters of a traced run.

The layers are the modules of supernilhecke.  ``LayerTrace`` owns a tracer
and adds the counters that need a call's arguments or result (matrix shapes,
ranks, memo repeat rates); ``metrics`` turns them into the per-layer metrics
named in BENCHMARK.json.  Probes read the objects' plain data
(``.terms``, tuples, lists) rather than calling traced methods, so the
counters they read are not inflated by the probes themselves.
"""
from __future__ import annotations

from tracer import Tracer

LAYERS = ("cli", "exprparse", "dgstructure", "algebra", "induction", "invariants",
          "superring", "symgroup", "gradedseries", "linalg")


def _frac(num: float, den: float) -> float:
    """A ratio whose base was never exercised reads 0."""
    return num / den if den else 0.0


def _repeat_frac(distinct: int, calls: int) -> float:
    """Share of calls whose arguments an earlier call already had."""
    return 1.0 - distinct / calls if calls else 0.0


class LayerTrace:
    def __init__(self):
        self.rank_rows = 0
        self.rank_sum = 0
        self.rank_cells = 0
        self.rank_nnz = 0
        self.rank_max_cells = 0
        self.echelon_raised = 0
        self.mul_zero = 0
        self.push_letters = 0
        self.push_keys: set[int] = set()
        self.length_keys: set[tuple] = set()
        self.image_keys: set[tuple] = set()
        self.tracer = Tracer(probes={
            "linalg.rank": (None, self._rank),
            "linalg.IntEchelon.add": (None, self._echelon_add),
            "algebra.AlgebraElement.__mul__": (None, self._algebra_mul),
            "algebra.push_T_through": (self._demazure_calls, self._push_T),
            "symgroup.length": (None, self._length),
            "dgstructure.generator_image": (None, self._generator_image),
        })

    def _rank(self, _token, args, kwargs, result):
        matrix = args[0] if args else kwargs["matrix"]
        rows = len(matrix)
        cells = rows * (len(matrix[0]) if rows else 0)
        self.rank_rows += rows
        self.rank_sum += result
        self.rank_cells += cells
        self.rank_nnz += sum(1 for row in matrix for v in row if v)
        self.rank_max_cells = max(self.rank_max_cells, cells)

    def _echelon_add(self, _token, args, kwargs, result):
        self.echelon_raised += bool(result)

    def _algebra_mul(self, _token, args, kwargs, result):
        self.mul_zero += not result.terms

    def _demazure_calls(self, args, kwargs):
        return self.tracer.stat("superring.demazure").calls

    def _push_T(self, token, args, kwargs, result):
        # Each twist-rule step on one term is one Demazure call.
        self.push_letters += self._demazure_calls(args, kwargs) - token
        letters, f = args
        self.push_keys.add(hash((tuple(letters), f.n, f.m, frozenset(f.terms.items()))))

    def _length(self, _token, args, kwargs, result):
        self.length_keys.add(args[0])

    def _generator_image(self, _token, args, kwargs, result):
        p, i = args
        self.image_keys.add((p.n, p.m, p.N, i))


# name -> (unit, better): the per-layer metrics, in report order.
METRICS = {
    "trace.overhead_frac": ("frac", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.harness_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "cli.build_parser_s": ("s", "lower"),
    "exprparse.parse_calls": ("count", "lower"),
    "dgstructure.apply_dN_calls": ("count", "lower"),
    "dgstructure.generator_image_calls": ("count", "lower"),
    "dgstructure.generator_image_repeat_frac": ("frac", "lower"),
    "dgstructure.oracle_s": ("s", "lower"),
    "algebra.mul_calls": ("count", "lower"),
    "algebra.mul_zero_frac": ("frac", "lower"),
    "algebra.push_T_calls": ("count", "lower"),
    "algebra.push_T_letters": ("count", "lower"),
    "algebra.push_T_repeat_frac": ("frac", "lower"),
    "superring.mul_calls": ("count", "lower"),
    "superring.demazure_calls": ("count", "lower"),
    "superring.apply_simple_calls": ("count", "lower"),
    "symgroup.length_calls": ("count", "lower"),
    "symgroup.length_repeat_frac": ("frac", "lower"),
    "symgroup.reduced_word_calls": ("count", "lower"),
    "gradedseries.mul_calls": ("count", "lower"),
    "linalg.rank_s": ("s", "lower"),
    "linalg.rank_calls": ("count", "lower"),
    "linalg.rank_cells": ("count", "lower"),
    "linalg.rank_nnz": ("count", "lower"),
    "linalg.rank_max_cells": ("count", "lower"),
    "linalg.rank_yield": ("frac", "higher"),
    "linalg.echelon_adds": ("count", "lower"),
    "linalg.echelon_add_s": ("s", "lower"),
    "linalg.echelon_yield": ("frac", "higher"),
    "linalg.solve_calls": ("count", "lower"),
}


def metrics(trace: LayerTrace, traced_wall_s: float,
            untraced_wall_s: float) -> dict[str, float]:
    tracer = trace.tracer
    st = tracer.stat
    self_s = tracer.layer_self_s()
    length_calls = st("symgroup.length").calls
    image_calls = st("dgstructure.generator_image").calls
    push_calls = st("algebra.push_T_through").calls
    mul_calls = st("algebra.AlgebraElement.__mul__").calls
    adds = st("linalg.IntEchelon.add").calls
    return {
        "trace.overhead_frac": _frac(traced_wall_s, untraced_wall_s) - 1.0,
        "trace.wall_s": traced_wall_s,
        "trace.harness_s": traced_wall_s - tracer.top_level_s,
        **{f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS},
        "cli.build_parser_s": st("cli.build_parser").total_s,
        "exprparse.parse_calls": st("exprparse.parse").calls,
        "dgstructure.apply_dN_calls": st("dgstructure.derivation_extend").calls,
        "dgstructure.generator_image_calls": image_calls,
        "dgstructure.generator_image_repeat_frac":
            _repeat_frac(len(trace.image_keys), image_calls),
        "dgstructure.oracle_s": st("dgstructure.nilhecke_cyclotomic_oracle").total_s,
        "algebra.mul_calls": mul_calls,
        "algebra.mul_zero_frac": _frac(trace.mul_zero, mul_calls),
        "algebra.push_T_calls": push_calls,
        "algebra.push_T_letters": trace.push_letters,
        "algebra.push_T_repeat_frac":
            _repeat_frac(len(trace.push_keys), push_calls),
        "superring.mul_calls": st("superring.SuperPolynomial.__mul__").calls,
        "superring.demazure_calls": st("superring.demazure").calls,
        "superring.apply_simple_calls": st("superring.apply_simple").calls,
        "symgroup.length_calls": length_calls,
        "symgroup.length_repeat_frac":
            _repeat_frac(len(trace.length_keys), length_calls),
        "symgroup.reduced_word_calls": st("symgroup.reduced_word").calls,
        "gradedseries.mul_calls": st("gradedseries.GradedDim.__mul__").calls,
        "linalg.rank_s": st("linalg.rank").total_s,
        "linalg.rank_calls": st("linalg.rank").calls,
        "linalg.rank_cells": trace.rank_cells,
        "linalg.rank_nnz": trace.rank_nnz,
        "linalg.rank_max_cells": trace.rank_max_cells,
        "linalg.rank_yield": _frac(trace.rank_sum, trace.rank_rows),
        "linalg.echelon_adds": adds,
        "linalg.echelon_add_s": st("linalg.IntEchelon.add").total_s,
        "linalg.echelon_yield": _frac(trace.echelon_raised, adds),
        "linalg.solve_calls": st("linalg.solve").calls,
    }
