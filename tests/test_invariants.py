import itertools
import random

import pytest

from supernilhecke import symgroup as sg
from supernilhecke.invariants import (
    Superpartition, decompose_over_invariants, eps_sign,
    invariant_basis_at_lambda, is_invariant, recombine_over_invariants,
    schubert, schur_super, schur_zero, strict_partitions,
)
from supernilhecke.linalg import IntEchelon, rank
from supernilhecke.superring import (
    SuperPolynomial, apply_perm, apply_simple, complete_h, demazure_perm, exponent_vectors,
    labeled_omega,
)


def test_schur_normalization():
    for n in (1, 2, 3):
        assert schur_super(n, -1, Superpartition((), ())) == SuperPolynomial.one(n, -1)


def test_schur_zero_one_row_example():
    n, m = 2, -1
    w1 = SuperPolynomial.w(n, m, 1)
    w2 = SuperPolynomial.w(n, m, 2)
    x2 = SuperPolynomial.x(n, m, 2)
    assert schur_zero(n, m, (1,)) == w1 - x2 * w2


def test_schur_zero_closed_form():
    for n in range(1, 6):
        for m in (-1, 0):
            for i in range(1, n + 1):
                acc = SuperPolynomial.zero(n, m)
                for l in range(i, n + 1):
                    sign = -1 if (l + i) & 1 else 1
                    acc = acc + (complete_h(n, m, l - i, l, n)
                                 * SuperPolynomial.w(n, m, l)).scale(sign)
                assert schur_zero(n, m, (i,)) == acc, (n, m, i)


def test_schur_invariance():
    rng = random.Random(0)
    for n, m in ((2, -1), (3, -1), (3, 0), (4, -1)):
        for beta in strict_partitions(n):
            assert is_invariant(schur_zero(n, m, beta))
        for _ in range(5):
            alpha = tuple(sorted((rng.randrange(3) for _ in range(n)), reverse=True))
            k = rng.randrange(n + 1)
            beta = tuple(sorted(rng.sample(range(1, n + 1), k)))
            assert is_invariant(schur_super(n, m, Superpartition(alpha, beta)))


def test_is_invariant_basics():
    n, m = 3, -1
    e1 = (SuperPolynomial.x(n, m, 1) + SuperPolynomial.x(n, m, 2)
          + SuperPolynomial.x(n, m, 3))
    assert is_invariant(e1)
    assert not is_invariant(SuperPolynomial.w(n, m, 1))


def test_superpartition_validation():
    with pytest.raises(ValueError):
        Superpartition((1, 2), ()).validate(3)  # increasing alpha
    with pytest.raises(ValueError):
        Superpartition((), (2, 1)).validate(3)  # decreasing beta
    with pytest.raises(ValueError):
        Superpartition((), (0, 1)).validate(3)  # zero part rejected
    Superpartition((3, 1, 0), (1, 3)).validate(3)


def test_eps_sign():
    sign, prod = eps_sign((1, 3, 4), (2, 6))
    assert (sign, prod) == (1, (1, 2, 3, 4, 6))  # two inversions
    assert eps_sign((), (2, 5)) == (1, (2, 5))
    assert eps_sign((1,), (1,)) == (0, ())
    assert eps_sign((2,), (1,)) == (-1, (1, 2))


def test_schur_multiplication_rule():
    for n in (2, 3, 4, 5):
        m = -1
        cache = {b: schur_zero(n, m, b) for b in strict_partitions(n)}
        for beta in strict_partitions(n):
            for betap in strict_partitions(n):
                prod = cache[beta] * cache[betap]
                sign, merged = eps_sign(beta, betap)
                want = cache[merged].scale(sign) if sign else SuperPolynomial.zero(n, m)
                assert prod == want, (n, beta, betap)


def test_schur_multiplication_examples():
    n, m = 3, -1
    e1, e2 = schur_zero(n, m, (1,)), schur_zero(n, m, (2,))
    assert e1 * e2 == schur_zero(n, m, (1, 2))
    assert e2 * e1 == -schur_zero(n, m, (1, 2))
    assert (e2 * e2).is_zero()


def test_schur_triangularity():
    # S_{alpha,beta} = S_alpha(x) w_beta + terms at lexicographically larger masks
    rng = random.Random(1)
    for n, m in ((3, -1), (4, -1)):
        for _ in range(6):
            alpha = tuple(sorted((rng.randrange(3) for _ in range(n)), reverse=True))
            k = rng.randrange(1, n + 1)
            beta = tuple(sorted(rng.sample(range(1, n + 1), k)))
            s = schur_super(n, m, Superpartition(alpha, beta))
            s_alpha = schur_super(n, m, Superpartition(alpha, ()))
            lead = SuperPolynomial.one(n, m)
            for i in beta:
                lead = lead * SuperPolynomial.w(n, m, i)
            rest = s - s_alpha * lead
            from supernilhecke.superring import mask_to_indices
            for (xe, om) in rest.terms:
                assert mask_to_indices(om) > beta, (alpha, beta)


def test_schubert_examples():
    n, m = 3, -1
    w0 = sg.longest_element(n)
    assert schubert(n, m, w0) == SuperPolynomial.monomial(n, m, (2, 1, 0), 0)
    assert schubert(n, m, sg.identity(n)) == SuperPolynomial.one(n, m)
    assert schubert(2, m, (2, 1)) == SuperPolynomial.x(2, m, 1)


def test_schubert_spans_staircase_box():
    # The Schubert family is unimodularly related to the monomials x^a,
    # 0 <= a_i <= n-i, spanning the same lattice.
    from supernilhecke.linalg import sparse_det
    for n in (2, 3):
        m = -1
        boxes = sorted(itertools.product(*[range(n - i + 1) for i in range(1, n + 1)]))
        index = {b: i for i, b in enumerate(boxes)}
        rows = []
        for p in sg.all_permutations(n):
            s = schubert(n, m, p)
            row = {}
            for (xe, om), c in s.terms.items():
                row[index[xe]] = c
            rows.append(row)
        d = sparse_det(rows, len(index))
        assert d in (1, -1)


def test_omega_top_equals_schur():
    # the top labeled generators are the one-row Schur elements
    for n in (1, 2, 3, 4):
        for m in (-1, 0, 1):
            for i in range(0, n):
                assert labeled_omega(n, m, n, m + 1 + i) == schur_zero(n, m, (n - i,))


@pytest.mark.parametrize("n", range(1, 5))
def test_schubert_pairing_is_dual(n):
    # demazure_perm(w0, schubert(u) . w0(schubert(v w0))) = (-1)^{l(v w0)} delta_{uv}:
    # the duality that decompose_over_invariants reads its coefficients from
    w0 = sg.longest_element(n)
    perms = list(sg.all_permutations(n))
    for m in (-1, 0):
        for v in perms:
            vw0 = sg.compose(v, w0)
            dual = apply_perm(w0, schubert(n, m, vw0))
            for u in perms:
                got = demazure_perm(w0, schubert(n, m, u) * dual)
                want = (-1) ** sg.length(vw0) if u == v else 0
                assert got == SuperPolynomial.const(n, m, want), (m, u, v)


def test_decompose_over_invariants_round_trip():
    # one polynomial per (n, m) with a term on every odd mask
    rng = random.Random(2)
    for n in range(1, 6):
        for m in (-1, 0):
            f = SuperPolynomial(n, m, {
                (tuple(rng.randrange(3) for _ in range(n)), om): rng.choice((-3, -2, -1, 1, 2, 3))
                for om in range(1 << n)})
            coeffs = decompose_over_invariants(f)
            assert all(is_invariant(c) for c in coeffs.values())
            assert recombine_over_invariants(n, m, coeffs) == f


def test_decompose_over_invariants_at_n0():
    assert decompose_over_invariants(SuperPolynomial.zero(0, -1)) == {}
    # S_0 = {()}, schubert(()) = 1: f is its own coefficient
    f = SuperPolynomial.one(0, -1).scale(3)
    coeffs = decompose_over_invariants(f)
    assert coeffs == {(): f}
    assert recombine_over_invariants(0, -1, coeffs) == f


def test_decompose_special_cases():
    n, m = 3, -1
    e2 = SuperPolynomial.zero(n, m)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            e2 = e2 + SuperPolynomial.x(n, m, i) * SuperPolynomial.x(n, m, j)
    coeffs = decompose_over_invariants(e2)
    assert set(coeffs) == {sg.identity(n)}
    assert coeffs[sg.identity(n)] == e2
    for p in sg.all_permutations(n):
        coeffs = decompose_over_invariants(schubert(n, m, p))
        assert set(coeffs) == {p}
        assert coeffs[p] == SuperPolynomial.one(n, m)


def _symmetric_monomial_basis(n, m, d):
    """Monomial symmetric polynomials of degree d in n variables: the
    exponent vectors of total d grouped into S_n-orbits by sorted exponent."""
    orbits = {}
    for e in exponent_vectors(n, d):
        orbits.setdefault(tuple(sorted(e)), {})[(e, 0)] = 1
    return [SuperPolynomial(n, m, terms) for terms in orbits.values()]


def _invariant_dimension(n, m, q, lam):
    """Exact dimension of the invariant subspace at a bidegree: the kernel of
    the stacked maps (s_i - id), i = 1..n-1."""
    import supernilhecke.algebra as algmod
    monos = [(xe, om) for (xe, om, p) in algmod.basis_at_bidegree(n, m, q, lam)
             if p == sg.identity(n)]
    if not monos:
        return 0
    index = {mono: i for i, mono in enumerate(monos)}
    stacked = [{} for _ in monos]
    for j, mono in enumerate(monos):
        f = SuperPolynomial(n, m, {mono: 1})
        for i in range(1, n):
            img = apply_simple(i, f) - f
            for k, c in img.terms.items():
                stacked[j][(i - 1) * len(monos) + index[k]] = c
    return len(monos) - rank(stacked, (n - 1) * len(monos))


def test_invariant_basis_at_lambda():
    for n, m in ((2, -1), (3, -1)):
        assert invariant_basis_at_lambda(n, m, 0) == [SuperPolynomial.one(n, m)]
        full = invariant_basis_at_lambda(n, m, n)
        assert len(full) == 1
        assert full[0] == schur_zero(n, m, tuple(range(1, n + 1)))
        for k in range(0, n + 1):
            basis_elts = invariant_basis_at_lambda(n, m, k)
            assert len(basis_elts) == len(list(itertools.combinations(range(n), k)))
    n, m = 2, -1
    assert invariant_basis_at_lambda(n, m, 1) == [schur_zero(n, m, (1,)),
                                                  schur_zero(n, m, (2,))]


def test_invariant_basis_spans_by_dimension():
    # span of symmetric-polynomial multiples of the Schur family matches the
    # exact invariant dimension per bidegree
    import supernilhecke.algebra as algmod
    for n, m, k, qcut in ((2, -1, 1, 6), (3, -1, 1, 2), (2, -1, 2, 4)):
        family = invariant_basis_at_lambda(n, m, k)
        lam = 2 * k
        for q in range(-2 * n * n, qcut + 1):
            monos = [(xe, om) for (xe, om, p) in algmod.basis_at_bidegree(n, m, q, lam)
                     if p == sg.identity(n)]
            if not monos:
                continue
            index = {mono: i for i, mono in enumerate(monos)}
            ech = IntEchelon(len(monos))
            span = 0
            for elt in family:
                d = elt.bidegree()
                rem = q - d[0]
                if rem < 0 or rem % 2:
                    continue
                for sym in _symmetric_monomial_basis(n, m, rem // 2):
                    prod = sym * elt
                    row = {index[key]: c for key, c in prod.terms.items()}
                    if ech.add(row):
                        span += 1
            want = _invariant_dimension(n, m, q, lam)
            assert span == want, (n, m, k, q, span, want)


def test_invariant_ring_graded_rank_product_formula():
    # rank of the invariants matches prod_j (1 + pi L^2 q^{2(m+1-j)})/(1-q^{2j})
    from supernilhecke.gradedseries import GradedDim
    n, m, qcut = 2, -1, 8
    series = GradedDim.one()
    wide = qcut + 4 * n * n + 8
    for j in range(1, n + 1):
        factor = GradedDim.one() + GradedDim.term(1, 2 * (m + 1 - j), 2, 1)
        # 1/(1-q^{2j}) expanded
        geo = GradedDim(0, wide, {(2 * j * t, 0, 0): 1 for t in range(wide // (2 * j) + 1)})
        series = series * factor * geo
    for q in range(-2 * n * (n + 1), qcut + 1):
        for k in range(0, n + 1):
            lam = 2 * k
            want = series.coefficient(q, lam, k & 1)
            got = _invariant_dimension(n, m, q, lam)
            assert got == want, (q, lam, got, want)


def _partition_count(d, parts):
    """Partitions of d into at most `parts` parts, i.e. with parts <= `parts`."""
    ways = [1] + [0] * d
    for part in range(1, parts + 1):
        for s in range(part, d + 1):
            ways[s] += ways[s - part]
    return ways[d]


def test_symmetric_monomial_basis_partitions_the_exponent_vectors():
    for n in range(1, 5):
        for d in range(7):
            basis = _symmetric_monomial_basis(n, -1, d)
            assert all(is_invariant(f) for f in basis), (n, d)
            supports = [set(f.terms) for f in basis]
            covered = set().union(*supports)
            assert sum(map(len, supports)) == len(covered), (n, d)
            assert covered == {(e, 0) for e in exponent_vectors(n, d)}, (n, d)
            assert len(basis) == _partition_count(d, n), (n, d)
