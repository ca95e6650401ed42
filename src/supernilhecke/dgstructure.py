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

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import add

from . import symgroup
from .algebra import (
    AlgebraElement, basis_counts, random_basis_keys, ring_monomials,
    spanning_rank_table,
)
from .linalg import rank
from .superring import (
    Monomial, SuperPolynomial, _merge_masks, accumulate, complete_h,
    mask_to_indices, monomials_at, odd_degree,
)
from .symgroup import perms_by_length


@dataclass(frozen=True)
class DgParams:
    n: int
    m: int
    N: int

    def __post_init__(self):
        if self.m + self.N < 0:
            raise ValueError("differential requires m + N >= 0")


def generator_image(p: DgParams, i: int) -> SuperPolynomial:
    """d_N(w_i) for the minimal-label generator w_i = w_i^{m+1}:
    (-1)^{N+m+1-i} h_{N+m+1-i}(x_1..x_i)."""
    k = p.N + p.m + 1 - i
    if k < 0:
        return SuperPolynomial.zero(p.n, p.m)
    h = complete_h(p.n, p.m, k, 1, i)
    return h.scale(-1 if (p.N + p.m + 1 - i) & 1 else 1)


@lru_cache(maxsize=64)
def _generator_images(p: DgParams) -> dict[int, SuperPolynomial]:
    """d_N on every odd generator, built once per parameter set; callers
    only read the shared dict and its polynomials."""
    return {i: generator_image(p, i) for i in range(1, p.n + 1)}


def _d_ring(images: dict[int, SuperPolynomial], xexp, omask: int) -> dict[Monomial, int]:
    """The terms of d(x^xexp w^omask), read straight from the generator
    images: the j-th odd factor w_i contributes
    (-1)^{j-1} x^xexp w^{omask minus i} d(w_i)."""
    out: dict[Monomial, int] = {}
    for j, i in enumerate(mask_to_indices(omask)):
        rest = omask & ~(1 << (i - 1))
        sign = -1 if j & 1 else 1
        for (xe, om), c in images[i].terms.items():
            koszul, mask = _merge_masks(rest, om)
            if koszul:
                key = (tuple(map(add, xexp, xe)), mask)
                v = out.get(key, 0) + sign * koszul * c
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
    return out


def derivation_extend(n: int, m: int, images: dict[int, SuperPolynomial],
                      u: AlgebraElement) -> AlgebraElement:
    """Extend a map on the odd generators (even, central images) to an odd
    derivation killing x's and T's: d(f T_p) = d(f) T_p, with d(f) from
    _d_ring on each ring monomial f."""
    return AlgebraElement._adopt(n, m, accumulate({}, (
        ((xe, om, perm), c * cc)
        for (xexp, omask, perm), c in u.terms.items()
        for (xe, om), cc in _d_ring(images, xexp, omask).items())))


def apply_dN(p: DgParams, u: AlgebraElement) -> AlgebraElement:
    """The differential d_N on a normal-form element."""
    return derivation_extend(p.n, p.m, _generator_images(p), u)


def homological_degree(u: AlgebraElement) -> int | None:
    degs = {key[1].bit_count() for key in u.terms}
    if len(degs) == 1:
        return degs.pop()
    return None


def verify_d_squared(p: DgParams, qcut: int, samples: int = 50, seed: int = 0,
                     images: dict[int, SuperPolynomial] | None = None) -> bool:
    """d(d(b)) = 0 for every basis monomial with q-degree <= qcut, plus the
    graded Leibniz rule against the product on all generator pairs and on
    seeded random basis pairs (this is where well-definedness on the algebra
    relations is decided).  Custom generator images may be injected; the
    default is d_N.

    d kills every T_i, so the Leibniz rule gives d(f T_p) = d(f) T_p and
    d(d(f T_p)) = d(d(f)) T_p for a ring part f: the d^2 sweep applies
    _d_ring twice to every ring monomial of q-degree <= qcut + n(n-1).
    That range is exactly the set of ring parts of basis(n, m, qcut), whose
    perm p has the ring budget qcut + 2 l(p) <= qcut + n(n-1).  The sampled
    pairs check d(f T_p) = d(f) T_p for every p explicitly.
    """
    import random
    if images is None:
        images = _generator_images(p)
    E = AlgebraElement
    e = symgroup.identity(p.n)

    def d(u: AlgebraElement) -> AlgebraElement:
        return derivation_extend(p.n, p.m, images, u)

    def leibniz_ok(u: AlgebraElement, v: AlgebraElement) -> bool:
        h = homological_degree(u)
        if h is None:
            raise ValueError("inhomogeneous left factor in Leibniz check")
        rhs = d(u) * v + (u * d(v)).scale(-1 if h & 1 else 1)
        return d(u * v) == rhs

    def equivariant(ring: Monomial) -> bool:
        df = d(E(p.n, p.m, {(*ring, e): 1}))
        return all(d(E(p.n, p.m, {(*ring, s): 1})) == df * E.T_perm(p.n, p.m, s)
                   for s in symgroup.all_permutations(p.n) if s != e)

    for xexp, omask in ring_monomials(p.n, p.m, qcut + p.n * (p.n - 1)):
        dd: dict[Monomial, int] = {}
        for (xe, om), c in _d_ring(images, xexp, omask).items():
            accumulate(dd, ((key, c * cc) for key, cc in _d_ring(images, xe, om).items()))
        if dd:
            return False
    gens = ([E.x(p.n, p.m, i) for i in range(1, p.n + 1)]
            + [E.w(p.n, p.m, i) for i in range(1, p.n + 1)]
            + [E.T(p.n, p.m, i) for i in range(1, p.n)])
    for u in gens:
        for v in gens:
            if not leibniz_ok(u, v):
                return False
    draws = random_basis_keys(p.n, p.m, min(qcut, 6), random.Random(seed))
    for k1, k2 in itertools.islice(zip(draws, draws), samples):
        if not (equivariant(k1[:2])
                and leibniz_ok(E(p.n, p.m, {k1: 1}), E(p.n, p.m, {k2: 1}))):
            return False
    return True


# ---- homology ------------------------------------------------------------------
#
# d_N(f T_p) = d_N(f) T_p, so the complex splits over the nilCoxeter part:
# it is the polynomial-side complex tensored with the span of the T_p, with a
# q-shift of -2 l(p) per permutation.  Homology is computed exactly on the
# polynomial side and aggregated over permutation lengths.

def _poly_d_matrix(p: DgParams, domain, codomain_index):
    """Matrix of d_N from the given monomials to the indexed target monomials."""
    images = _generator_images(p)
    rows = []
    for xexp, omask in domain:
        vec = [0] * len(codomain_index)
        for key, c in _d_ring(images, xexp, omask).items():
            vec[codomain_index[key]] = c
        rows.append(vec)
    return rows


def poly_homology_at(p: DgParams, q: int, h: int,
                     rank_cache: dict | None = None) -> int:
    """Rational homology dimension of the polynomial-side complex at
    q-degree q, homological degree h."""
    here = monomials_at(p.n, p.m, q, 2 * h)
    if not here:
        return 0
    return len(here) - _rank_d(p, q, h, rank_cache) \
        - _rank_d(p, q - 2 * p.N, h + 1, rank_cache)


def _rank_d(p: DgParams, q: int, h: int, rank_cache: dict | None) -> int:
    """Rank of the differential out of the (q, h) component."""
    if h <= 0 or h > p.n:
        return 0
    if rank_cache is not None and (q, h) in rank_cache:
        return rank_cache[(q, h)]
    here = monomials_at(p.n, p.m, q, 2 * h)
    below = monomials_at(p.n, p.m, q + 2 * p.N, 2 * (h - 1))
    r = 0
    if here and below:
        index = {mono: i for i, mono in enumerate(below)}
        r = rank(_poly_d_matrix(p, here, index))
    if rank_cache is not None:
        rank_cache[(q, h)] = r
    return r


def homology_ranks(p: DgParams, qcut: int) -> dict[tuple[int, int], int]:
    """Homology dimensions of the full dg-algebra per (qdeg, hdeg), for
    q <= qcut; complexes are finite per Q = q + 2N.h so no truncation margin
    is needed beyond enumerating the relevant Q values."""
    counts = perms_by_length(p.n)
    table: dict[tuple[int, int], int] = {}
    cache: dict[tuple[int, int], int] = {}
    rank_cache: dict[tuple[int, int], int] = {}
    shift = p.n * (p.n - 1)  # largest 2 l(perm)
    for h in range(0, p.n + 1):
        for q in range(_min_poly_q(p.n, p.m, h) - shift, qcut + 1):
            total = 0
            for plen, nperms in counts.items():
                key = (q + 2 * plen, h)
                if key not in cache:
                    cache[key] = poly_homology_at(p, key[0], key[1], rank_cache)
                total += nperms * cache[key]
            if total:
                table[(q, h)] = total
    return table


def _min_poly_q(n: int, m: int, h: int) -> int:
    """Least q-degree of a polynomial-side monomial with h odd factors."""
    degs = sorted(odd_degree(m, 1 << i) for i in range(n))
    return sum(degs[:h]) if h else 0


def nilhecke_cyclotomic_oracle(n: int, M: int, qcut: int) -> dict[int, int]:
    """Graded dimension of the nilHecke algebra modulo the two-sided ideal
    generated by the M-th power of the first even generator, per q-degree up
    to qcut; independent of the dg machinery.

    These are the lambda = 0 blocks of algebra.spanning_rank_table for the
    middle x_1^M: lambda-degrees add under multiplication and are >= 0, so
    the lambda = 0 parts of A_n and of its ideal (x_1^M) are NH_n and the
    nilHecke ideal (x_1^M).
    """
    if M < 0:
        raise ValueError("cyclotomic exponent must be nonnegative")
    if n == 0:
        return {0: 1} if qcut >= 0 else {}
    m = -1
    blocks = {key: d for key, d in basis_counts(n, m, qcut).items() if key[1] == 0}
    ideal = spanning_rank_table(n, m, AlgebraElement.x(n, m, 1, M), blocks)
    quotient = {key[0]: d - ideal.get(key, 0) for key, d in sorted(blocks.items())}
    return {q: d for q, d in quotient.items() if d}
