"""
The family of differentials d_N on the superalgebra, homology over the
rationals, and the cyclotomic nilHecke comparison oracle.

d_N kills the even generators and crossings and sends the labeled odd
generator w_i^a to (-1)^{N+a-i} h_{N+a-i}(x_1..x_i), extended as an odd
derivation for the homological degree (= number of odd factors), of
bidegree (2N, -2).  Its homology is counted by the Koszul theorem.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial
from operator import add

from .algebra import AlgebraElement, basis_counts, nilhecke_ideal_ranks, verify_relations
from .superring import (
    Monomial, SuperPolynomial, _merge_masks, accumulate, complete_h,
    mask_to_indices, odd_degree,
)
from .symgroup import perms_by_length


class DgParams(namedtuple("DgParams", "n m N")):
    """d_N on A_n with minimal label m; m + N >= 0.  A namedtuple subclass
    (typing.NamedTuple cannot override __new__), hashed as a tuple when it
    keys _generator_images."""
    __slots__ = ()

    def __new__(cls, n: int, m: int, N: int):
        if m + N < 0:
            raise ValueError("differential requires m + N >= 0")
        return super().__new__(cls, n, m, N)

    @classmethod
    def _make(cls, iterable):
        """Through __new__, so _make and _replace (which calls it) check too."""
        return cls(*iterable)


def generator_image(p: DgParams, i: int) -> SuperPolynomial:
    """d_N(w_i) for the minimal-label generator w_i = w_i^{m+1}:
    (-1)^{N+m+1-i} h_{N+m+1-i}(x_1..x_i)."""
    k = p.N + p.m + 1 - i
    if k < 0:
        return SuperPolynomial.zero(p.n, p.m)
    h = complete_h(p.n, p.m, k, 1, i)
    return h.scale(-1 if (p.N + p.m + 1 - i) & 1 else 1)


@lru_cache(maxsize=64)
def _generator_images(p: DgParams) -> tuple:
    """The odd-image table of d_N, built once per parameter set; read only."""
    return odd_images(p.n, {i: generator_image(p, i) for i in range(1, p.n + 1)})


def odd_images(n: int, images: dict[int, SuperPolynomial]) -> tuple:
    """The odd-image table of the odd derivation with the given images of
    w_1..w_n: entry S is d(w^S) = sum_j (-1)^{j-1} w^{S minus i_j} d(w_{i_j})
    over the odd factors w_{i_1} < .. < w_{i_k} of w^S, as (xe, mask, c)
    terms, each product reordered with its Koszul sign."""
    table = []
    for omask in range(1 << n):
        terms: dict[Monomial, int] = {}
        for j, i in enumerate(mask_to_indices(omask)):
            for (xe, om), c in images[i].terms.items():
                koszul, mask = _merge_masks(omask & ~(1 << (i - 1)), om)
                if koszul:
                    terms[xe, mask] = terms.get((xe, mask), 0) + (-c if j & 1 else c) * koszul
        table.append(tuple((xe, mask, c) for (xe, mask), c in terms.items() if c))
    return tuple(table)


def _d_ring(table: tuple, xexp, omask: int):
    """The terms (key, c) of d(x^xexp w^omask): x^xexp commutes with
    everything, so they are d(w^omask) from the odd-image table shifted by
    xexp.  Distinct terms shift to distinct keys, so nothing accumulates."""
    return (((tuple(map(add, xexp, xe)), mask), c) for xe, mask, c in table[omask])


def derivation_extend(n: int, m: int, table: tuple, u: AlgebraElement) -> AlgebraElement:
    """Extend a map on the odd generators (even, central images), given by
    its odd-image table, to an odd derivation killing x's and T's:
    d(f T_p) = d(f) T_p, with d(f) from _d_ring on each ring monomial f."""
    return AlgebraElement._adopt(n, m, accumulate({}, (
        ((*key, perm), c * cc)
        for (xexp, omask, perm), c in u.terms.items()
        for key, cc in _d_ring(table, xexp, omask))))


def apply_dN(p: DgParams, u: AlgebraElement) -> AlgebraElement:
    """The differential d_N on a normal-form element."""
    return derivation_extend(p.n, p.m, _generator_images(p), u)


def _d_squared_zero(table: tuple, n: int, omask: int) -> bool:
    """d(d(w^omask)) = 0 for the odd derivation with this odd-image table."""
    dd: dict[Monomial, int] = {}
    for (xe, om), c in _d_ring(table, (0,) * n, omask):
        accumulate(dd, ((key, c * cc) for key, cc in _d_ring(table, xe, om)))
    return not dd


def verify_d_squared(p: DgParams, qcut: int,
                     images: dict[int, SuperPolynomial] | None = None) -> bool:
    """d(d(b)) = 0 for every basis monomial b with q-degree <= qcut, and the
    Leibniz rule on A_n.  Custom generator images may be injected; the
    default is d_N.

    d(x^a w^S T_p) = x^a d(w^S) T_p (_d_ring), so d^2 vanishes on it exactly
    when d(d(w^S)) = 0, whatever the images: d^2 is checked once on w^S for
    each odd mask S of the basis, those with deg w^S <= qcut + n(n-1).  The
    odd derivation of the free superalgebra with these images and d(x_i) =
    d(T_i) = 0 descends to A_n exactly when the Leibniz expansion of every
    relation in algebra.presentation is 0 in normal form; then it is
    derivation_extend, and the rule holds on every pair of elements.
    """
    table = _generator_images(p) if images is None else odd_images(p.n, images)
    budget = qcut + p.n * (p.n - 1)
    return (all(_d_squared_zero(table, p.n, omask) for omask in range(1 << p.n)
                if odd_degree(p.m, omask) <= budget)
            and not verify_relations(p.n, p.m, partial(derivation_extend, p.n, p.m, table)))


# ---- homology ------------------------------------------------------------------
#
# d_N(f T_p) = d_N(f) T_p, so the complex splits over the nilCoxeter part:
# it is the polynomial-side complex tensored with the span of the T_p, with a
# q-shift of -2 l(p) per permutation.  The polynomial side is the Koszul
# complex K(f_1, .., f_n) on Q[x] of the images f_i = d_N(w_i), and its
# homology is read off their leads.

def _koszul_leads(table: tuple, n: int) -> list[int] | None:
    """The exponents e_i of the leads c.x_i^{e_i}, c != 0, of the images f_i
    of w_1..w_n in an odd-image table, in the lex order with x_n most
    significant; None if some f_i is a nonzero constant.  Anything else,
    or an f_i that is not homogeneous, breaks the premise of homology_ranks:
    ArithmeticError."""
    leads = []
    for i in range(n):
        terms = table[1 << i]
        if any(mask for _, mask, _ in terms):
            raise ArithmeticError(f"d(w_{i + 1}) has an odd factor")
        if len({sum(xe) for xe, _, _ in terms}) > 1:
            raise ArithmeticError(f"d(w_{i + 1}) is not homogeneous")
        leads.append(max((xe for xe, _, _ in terms), key=lambda xe: xe[::-1], default=None))
    if any(lead is not None and not any(lead) for lead in leads):
        return None
    for i, lead in enumerate(leads):
        if lead is None or sum(lead) != lead[i]:
            raise ArithmeticError(f"d(w_{i + 1}) does not lead with a power of x_{i + 1}")
    return [lead[i] for i, lead in enumerate(leads)]


def homology_ranks(p: DgParams, qcut: int) -> dict[tuple[int, int], int]:
    """Homology dimensions of the full dg-algebra per (qdeg, hdeg), for
    q <= qcut, by the Koszul theorem; no chain group is built.

    If the f_i = d_N(w_i) lead with c.x_i^{e_i}, e_i >= 1 (lex order, x_n
    most significant), the leads are pairwise coprime, so the f_i are a
    Groebner basis (Buchberger's first criterion) with dim Q[x]/(f) =
    prod e_i: a regular sequence.  Then K(f) is exact in every h >= 1 and H_0
    has the basis x^a with a_i < e_i (Eisenbud, ch. 15, 17; Cox, Little and
    O'Shea, ch. 2 sec. 9).  d_N(w_i) = +-h_{k_i}(x_1..x_i), k_i = m + N + 1 -
    i, so this is the case m + N >= n; otherwise f_i = +-1 at i = m + N + 1,
    K(f) is contractible and the table empty.  Both rest on d_N^2 = 0 over
    Z and on the leads, which are checked: a failure is a bug,
    ArithmeticError.
    """
    images = _generator_images(p)
    if not all(_d_squared_zero(images, p.n, omask) for omask in range(1 << p.n)):
        raise ArithmeticError(f"d_N^2 != 0 over Z at {p}")
    exponents = _koszul_leads(images, p.n)
    if exponents is None:
        return {}
    standard = [1]  # standard[d]: the x^a with a_i < e_i of x-degree d
    for e in exponents:
        standard = [sum(standard[max(0, d - e + 1):d + 1]) for d in range(len(standard) + e - 1)]
    counts = perms_by_length(p.n)
    table: dict[tuple[int, int], int] = {}
    for d, dim in enumerate(standard):
        for plen, nperms in counts.items():
            if (q := 2 * d - 2 * plen) <= qcut:
                table[q, 0] = table.get((q, 0), 0) + nperms * dim
    return table


def nilhecke_cyclotomic_oracle(n: int, N: int, qcut: int) -> dict[int, int]:
    """Graded dimension of the nilHecke algebra modulo the two-sided ideal
    generated by the N-th power of the first even generator, per q-degree up
    to qcut; independent of the dg machinery.

    These are the lambda = 0 blocks of the algebra's basis less those of its
    ideal (x_1^N): lambda-degrees add under multiplication and are >= 0, so
    the lambda = 0 parts of A_n and of (x_1^N) are NH_n and the nilHecke
    ideal (x_1^N).  The ideal's ranks come from algebra.nilhecke_ideal_ranks,
    the per-process table that algebra.cyclotomic_grdim reads too.
    """
    ranks = nilhecke_ideal_ranks(n, N, qcut)
    quotient = {q: d - ranks[q]
                for (q, lam, _), d in sorted(basis_counts(n, -1, qcut).items()) if lam == 0}
    return {q: d for q, d in quotient.items() if d}
