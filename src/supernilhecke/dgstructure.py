"""
The family of differentials d_N on the superalgebra, homology over the
rationals, and the cyclotomic nilHecke comparison oracle.

d_N kills the even generators and crossings and sends the labeled odd
generator w_i^a to (-1)^{N+a-i} h_{N+a-i}(x_1..x_i), extended as an odd
derivation for the homological degree (= number of odd factors).  Its
bidegree is (2N, -2), so the chain complexes indexed by Q = qdeg + N.lamdeg
are finite in every homological degree.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache, partial
from operator import add, mul

from .algebra import AlgebraElement, basis_counts, nilhecke_ideal_ranks, verify_relations
from .linalg import rank, rank_gf2
from .superring import (
    Monomial, SuperPolynomial, _merge_masks, accumulate, complete_h,
    mask_to_indices, monomials_at, odd_degree,
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
# q-shift of -2 l(p) per permutation.  Homology is computed exactly on the
# polynomial side and aggregated over permutation lengths.

def _column_weights(n: int, bits: int) -> list[int]:
    """Columns of a d_N block are sorted by the x-exponents from x_n down to
    x_1, then the odd mask, packed into the int key sum(map(mul, xexp,
    weights)) + omask (`bits`-bit digits) while exponents are below 2**bits;
    an x-shift adds keys.  In this lex order d(w_i) = +-h_{L+1-i}(x_1..x_i),
    L = m + N, leads with x_i^{L+1-i} (i <= L + 1); coprime leads make the
    images a Groebner basis and a regular sequence (Eisenbud, ch. 15, 17).
    It fills in little: the echelons of `homology --n 4 --m 0 --N 4 --qcut
    12` hold 0.50 M nonzeros, 1.76 M in monomials_at order."""
    return [1 << (n + bits * i) for i in range(n)]


def _poly_d_rows(p: DgParams, domain, codomain) -> Iterator[dict[int, int]]:
    """Sparse rows {column: c} of d_N from the domain monomials to the
    codomain monomials, columns in _column_weights order, made one at a time
    (the GF(2) rank never holds the block's rows).  d_N is homogeneous, so
    every exponent met is at most the codomain's largest x-degree."""
    weights = _column_weights(p.n, max(sum(xexp) for xexp, _ in codomain).bit_length())
    index = {k: j for j, k in enumerate(sorted(
        sum(map(mul, xexp, weights)) + omask for xexp, omask in codomain))}
    table = _generator_images(p)
    shifted = {omask: [(sum(map(mul, xe, weights)) + mask, c) for xe, mask, c in table[omask]]
               for omask in {omask for _, omask in domain}}
    for xexp, omask in domain:
        base = sum(map(mul, xexp, weights))
        yield {index[base + k]: c for k, c in shifted[omask]}


def pinned_ranks(r2: list[int], dims: list[int]) -> list[int | None]:
    """The rational ranks that GF(2) ranks certify in a complex
    C_0 <- C_1 <- .. <- C_k with dims[h] = dim C_h, where r2[h] is the GF(2)
    rank of d: C_h -> C_{h-1} (r2[0] = 0).  Entry h is r2[h] when a chain
    group beside the block is accounted for over GF(2):
    r2[h] + r2[h+1] = dims[h] (r2[k+1] = 0), or r2[h-1] + r2[h] = dims[h-1];
    otherwise None, and the block must be ranked exactly.

    This is exact: an integer matrix has r2 <= its rational rank r_Q, and
    d^2 = 0 over Z gives r_Q(out of C) + r_Q(into C) <= dim C, so both
    rational ranks equal their GF(2) ranks there.  A GF(2) sum above the
    dimension means d^2 != 0 mod 2, a bug: ArithmeticError.
    """
    padded = [*r2, 0]
    ranks: list[int | None] = [0]
    for h in range(1, len(dims)):
        sides = ((r2[h] + padded[h + 1], dims[h]), (r2[h - 1] + r2[h], dims[h - 1]))
        if any(total > dim for total, dim in sides):
            raise ArithmeticError(f"GF(2) ranks at h = {h} sum above a dimension: d^2 != 0 mod 2")
        ranks.append(r2[h] if any(total == dim for total, dim in sides) else None)
    return ranks


def homology_ranks(p: DgParams, qcut: int) -> dict[tuple[int, int], int]:
    """Homology dimensions of the full dg-algebra per (qdeg, hdeg), for
    q <= qcut, one polynomial-side complex at a time.

    d_N maps C_h(q) to C_{h-1}(q + 2N), so the groups C_h =
    monomials_at(n, m, Q - 2N.h, 2h), h = 0..n, form a finite complex for each
    Q.  Homology is read at the C_h with q <= qcut + n(n-1) (the largest T_p
    shift 2 l(p) added back).  Groups from one below the lowest h read to two
    above the highest (the certificate's neighbour) are enumerated and the
    rest taken as zero, a truncation that keeps every block out of or into a
    group read.  Each block is ranked over GF(2) once and, where homology
    reads it and pinned_ranks does not certify it, exactly once; the complex
    is dropped before the next Q.  The pin is exact only if d_N^2 = 0 over
    Z, which GF(2) cannot see for a sign: d^2 is checked on every odd mask
    first, and a nonzero d^2 is a bug, ArithmeticError.
    """
    n, step = p.n, 2 * p.N
    images = _generator_images(p)
    if not all(_d_squared_zero(images, n, omask) for omask in range(1 << n)):
        raise ArithmeticError(f"d_N^2 != 0 over Z at {p}")
    odd = sorted(odd_degree(p.m, 1 << i) for i in range(n))  # h odd factors: q >= sum(odd[:h])
    spans = [(sum(odd[:h]) + step * h, qcut + n * (n - 1) + step * h) for h in range(n + 1)]
    counts = perms_by_length(n)
    table: dict[tuple[int, int], int] = {}
    for Q in sorted({Q for a, b in spans for Q in range(a, b + 1, 2)}):  # q-degrees are even
        read = [h for h, (a, b) in enumerate(spans) if a <= Q <= b]
        window = range(read[0] - 1, read[-1] + 3)
        groups = [monomials_at(n, p.m, Q - step * h, 2 * h) if h in window else []
                  for h in range(n + 1)]
        dims = [len(group) for group in groups]
        ranks = pinned_ranks([0] + [rank_gf2(_poly_d_rows(p, here, below)) if here and below else 0
                                    for below, here in zip(groups, groups[1:])], dims) + [0]
        for h, r in enumerate(ranks):
            if r is None and (h in read or h - 1 in read):
                ranks[h] = rank(list(_poly_d_rows(p, groups[h], groups[h - 1])), dims[h - 1])
        for h in read:
            homology = dims[h] - ranks[h] - ranks[h + 1]
            for plen, nperms in counts.items():
                if (q := Q - step * h - 2 * plen) <= qcut:
                    table[q, h] = table.get((q, h), 0) + nperms * homology
    return {key: d for key, d in table.items() if d}


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
