import random

import pytest

from supernilhecke import symgroup as sg
from supernilhecke.superring import (
    SuperPolynomial, accumulate, apply_perm, apply_simple, complete_h, demazure,
    demazure_word, elementary_e, exponent_vectors, labeled_omega, monomials_at,
    omega_to_top,
)


def P(n, m=-1):
    return {
        "one": SuperPolynomial.one(n, m),
        "x": [None] + [SuperPolynomial.x(n, m, i) for i in range(1, n + 1)],
        "w": [None] + [SuperPolynomial.w(n, m, i) for i in range(1, n + 1)],
    }


def random_poly(n, m, rng, nterms=4, maxexp=2):
    terms = {}
    for _ in range(nterms):
        xe = tuple(rng.randrange(maxexp + 1) for _ in range(n))
        om = rng.randrange(1 << n)
        c = rng.randrange(-3, 4)
        if c:
            terms[(xe, om)] = terms.get((xe, om), 0) + c
    return SuperPolynomial(n, m, {k: c for k, c in terms.items() if c})


def bidegree_components(f):
    """The homogeneous parts of f, keyed by bidegree."""
    parts: dict = {}
    for key, c in f.terms.items():
        parts.setdefault(f.monomial_bidegree(key), {})[key] = c
    return {d: SuperPolynomial(f.n, f.m, terms) for d, terms in parts.items()}


def test_odd_generators_anticommute():
    g = P(3)
    assert g["w"][2] * g["w"][1] == -(g["w"][1] * g["w"][2])
    assert (g["w"][1] * g["w"][1]).is_zero()
    assert (g["x"][1] + g["x"][2]) * g["x"][1] == \
        SuperPolynomial.monomial(3, -1, (2, 0, 0), 0) + SuperPolynomial.monomial(3, -1, (1, 1, 0), 0)


def test_mul_associative_on_mixed_parity_elements():
    rng = random.Random(12)
    for n in (1, 2, 3, 4):
        for m in (-1, 0):
            for _ in range(20):
                f, g, h = (random_poly(n, m, rng, nterms=4, maxexp=2) for _ in range(3))
                assert (f * g) * h == f * (g * h), (n, m, f, g, h)


def test_ring_mismatch_rejected():
    with pytest.raises(ValueError):
        SuperPolynomial.x(2, -1, 1) * SuperPolynomial.x(2, 0, 1)


def test_action_on_generators():
    g = P(2)
    assert apply_simple(1, g["x"][1]) == g["x"][2]
    assert apply_simple(1, g["w"][1]) == g["w"][1] + (g["x"][1] - g["x"][2]) * g["w"][2]
    assert apply_simple(1, g["w"][2]) == g["w"][2]


def test_action_preserves_bidegree():
    rng = random.Random(1)
    for n, m in ((2, -1), (3, 0), (3, -2)):
        for _ in range(10):
            f = random_poly(n, m, rng)
            for d, part in bidegree_components(f).items():
                for i in range(1, n):
                    img = apply_simple(i, part)
                    assert img.is_zero() or img.bidegree() == d


def test_symmetric_group_module_structure():
    rng = random.Random(2)
    for n in (2, 3, 4):
        m = -1
        for _ in range(34):
            f = random_poly(n, m, rng)
            for i in range(1, n):
                assert apply_simple(i, apply_simple(i, f)) == f
            for i in range(1, n - 1):
                lhs = apply_simple(i, apply_simple(i + 1, apply_simple(i, f)))
                rhs = apply_simple(i + 1, apply_simple(i, apply_simple(i + 1, f)))
                assert lhs == rhs
            for i in range(1, n):
                for j in range(i + 2, n):
                    lhs = apply_simple(i, apply_simple(j, f))
                    assert lhs == apply_simple(j, apply_simple(i, f))


def test_apply_perm_is_word_independent():
    rng = random.Random(3)
    n, m = 3, -1
    f = random_poly(n, m, rng)
    for p in sg.all_permutations(n):
        images = set()
        for w in sg.all_reduced_words(p):
            g = f
            for i in w:
                g = apply_simple(i, g)
            images.add(tuple(sorted(g.terms.items())))
        assert len(images) == 1
        assert images.pop() == tuple(sorted(apply_perm(p, f).terms.items()))


def test_demazure_values():
    g = P(2)
    assert demazure(1, g["x"][1]) == g["one"]
    assert demazure(1, g["w"][1]) == -g["w"][2]
    assert demazure(1, g["w"][2]).is_zero()


def test_demazure_bidegree_shift():
    rng = random.Random(4)
    for n, m in ((2, -1), (3, 1)):
        f = random_poly(n, m, rng)
        for (q, l), part in bidegree_components(f).items():
            for i in range(1, n):
                img = demazure(i, part)
                assert img.is_zero() or img.bidegree() == (q - 2, l)


def test_demazure_leibniz_and_twisting():
    rng = random.Random(5)
    for n, m in ((2, -1), (3, -1), (3, 0)):
        for _ in range(20):
            f = random_poly(n, m, rng)
            g = random_poly(n, m, rng)
            for i in range(1, n):
                assert demazure(i, f * g) == demazure(i, f) * g + apply_simple(i, f) * demazure(i, g)
                assert demazure(i, apply_simple(i, f)) == -demazure(i, f)
                assert apply_simple(i, demazure(i, f)) == demazure(i, f)


def test_demazure_lemma_relations():
    rng = random.Random(6)
    for n, m in ((2, -1), (3, 0)):
        for _ in range(15):
            f = random_poly(n, m, rng)
            for i in range(1, n):
                x_i = SuperPolynomial.x(n, m, i)
                x_i1 = SuperPolynomial.x(n, m, i + 1)
                w_i = SuperPolynomial.w(n, m, i)
                w_i1 = SuperPolynomial.w(n, m, i + 1)
                assert x_i * demazure(i, f) - demazure(i, x_i1 * f) == f
                assert demazure(i, x_i * f) - x_i1 * demazure(i, f) == f
                for k in range(1, n + 1):
                    if k != i:
                        w_k = SuperPolynomial.w(n, m, k)
                        assert demazure(i, w_k * f) == w_k * demazure(i, f)
                combo = w_i - x_i1 * w_i1
                assert demazure(i, combo * f) == combo * demazure(i, f)


def test_demazure_squares_to_zero_and_braid():
    rng = random.Random(7)
    n, m = 3, -1
    for _ in range(10):
        f = random_poly(n, m, rng)
        assert demazure_word((1, 1), f).is_zero()
        assert demazure_word((2, 2), f).is_zero()
        assert demazure_word((1, 2, 1), f) == demazure_word((2, 1, 2), f)
        assert demazure_word((), f) == f


def test_non_reduced_words_kill():
    rng = random.Random(8)
    for n in (2, 3, 4):
        m = -1
        f = random_poly(n, m, rng)
        words = []
        wrng = random.Random(100 + n)
        while len(words) < 25:
            length = wrng.randrange(2, 7)
            w = tuple(wrng.randrange(1, n) for _ in range(length))
            if sg.length(sg.evaluate_word(n, w)) < len(w):  # not reduced
                words.append(w)
        for w in words:
            assert demazure_word(w, f).is_zero(), w


def test_symmetric_polynomials():
    n, m = 2, -1
    assert complete_h(n, m, 1, 2, 2) == SuperPolynomial.x(n, m, 2)
    assert elementary_e(n, m, 2, 1, 2) == SuperPolynomial.monomial(n, m, (1, 1), 0)
    h2 = complete_h(n, m, 2, 1, 2)
    expect = (SuperPolynomial.monomial(n, m, (2, 0), 0)
              + SuperPolynomial.monomial(n, m, (1, 1), 0)
              + SuperPolynomial.monomial(n, m, (0, 2), 0))
    assert h2 == expect
    assert complete_h(n, m, 0, 1, 2) == SuperPolynomial.one(n, m)
    assert elementary_e(n, m, 0, 1, 2) == SuperPolynomial.one(n, m)
    assert elementary_e(n, m, 3, 1, 2).is_zero()
    # symmetric sanity
    assert apply_simple(1, complete_h(n, m, 3, 1, 2)) == complete_h(n, m, 3, 1, 2)


def test_labeled_omega_paper_examples():
    n, m = 4, -1
    x3 = SuperPolynomial.x(n, m, 3)
    x4 = SuperPolynomial.x(n, m, 4)
    w = lambda i: SuperPolynomial.w(n, m, i)
    assert labeled_omega(n, m, 4, 2) == w(2) - (x3 + x4) * w(3) + x4 * x4 * w(4)
    assert labeled_omega(n, m, 4, 2).bidegree() == (-4, 2)
    n = 2
    x1 = SuperPolynomial.x(n, m, 1)
    x2 = SuperPolynomial.x(n, m, 2)
    w = lambda i: SuperPolynomial.w(n, m, i)
    assert labeled_omega(n, m, 2, 3) == \
        (x1 * x1 + x1 * x2 + x2 * x2) * w(1) - x2 * x2 * x2 * w(2)
    assert labeled_omega(n, m, 2, 3).bidegree() == (2, 2)


def test_labeled_omega_base_and_guard():
    for n, m in ((3, -1), (2, 0), (3, -2)):
        for k in range(1, n + 1):
            assert labeled_omega(n, m, k, m + 1) == SuperPolynomial.w(n, m, k)
        with pytest.raises(ValueError):
            labeled_omega(n, m, 1, m)


def reference_labeled_omega(n, m, k, a, memo=None):
    """w_k^a by the defining recursion w_k^a = w_{k-1}^{a-1} - x_k w_k^{a-1}
    (depth a - m - 1): the reference the closed form is checked against."""
    memo = {} if memo is None else memo
    if (k, a) not in memo:
        if k == 0:
            memo[(k, a)] = SuperPolynomial.zero(n, m)
        elif a == m + 1:
            memo[(k, a)] = SuperPolynomial.w(n, m, k)
        else:
            memo[(k, a)] = (reference_labeled_omega(n, m, k - 1, a - 1, memo)
                            - SuperPolynomial.x(n, m, k)
                            * reference_labeled_omega(n, m, k, a - 1, memo))
    return memo[(k, a)]


def test_labeled_omega_recursion_vs_closed_form():
    for n in range(1, 6):
        for m in (-2, -1, 0, 1):
            for k in range(1, n + 1):
                for t in range(0, 7):
                    a = m + 1 + t
                    lhs = labeled_omega(n, m, k, a)
                    assert lhs == reference_labeled_omega(n, m, k, a), (n, m, k, a)
                    if not lhs.is_zero():
                        assert lhs.bidegree() == (2 * (a - k), 2)


def test_labeled_omega_large_label():
    # far beyond the recursion depth of the defining recursion
    big = labeled_omega(2, -1, 2, 3000)
    assert len(big.terms) == 3001
    assert big.bidegree() == (2 * (3000 - 2), 2)
    with pytest.raises(ValueError):
        labeled_omega(2, -1, 3, 5)


def _exponent_vectors_recursive(n, total):
    """Reference: the first exponent ascending, the rest recursively."""
    if n == 0:
        return [()] if total == 0 else []
    if n == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in _exponent_vectors_recursive(n - 1, total - first)]


@pytest.mark.parametrize("n", range(6))
def test_exponent_vectors_match_recursive_reference(n):
    for total in range(11):
        assert list(exponent_vectors(n, total)) == \
            _exponent_vectors_recursive(n, total), (n, total)


def test_exponent_vectors_of_a_negative_or_huge_total():
    for n in range(4):
        assert list(exponent_vectors(n, -1)) == [], n
    # one vector at n = 1, with no pool of total + 1 cut points built for it
    assert list(exponent_vectors(1, 10**7)) == [(10**7,)]


def test_monomials_at_enumerates_one_bidegree():
    for n, m in ((0, -1), (1, 0), (3, -1), (4, 0)):
        by_degree = {}
        for om in range(1 << n):
            odd = sum(2 * (m + 1 - i) for i in range(1, n + 1) if om >> (i - 1) & 1)
            for s in range(17):
                for xe in exponent_vectors(n, s):
                    key = (2 * s + odd, 2 * bin(om).count("1"))
                    by_degree.setdefault(key, []).append((xe, om))
        for lam in range(-2, 2 * n + 3):
            for q in range(-12, 9):
                got = monomials_at(n, m, q, lam)
                assert sorted(got) == sorted(by_degree.get((q, lam), [])), (n, m, q, lam)
                assert [om for _, om in got] == sorted(om for _, om in got)


def test_linear_combination_core():
    n, m = 2, -1
    f = SuperPolynomial.x(n, m, 1) + SuperPolynomial.w(n, m, 2)
    assert (f - f).is_zero() and (f - f).terms == {}
    assert f.scale(0) == SuperPolynomial.zero(n, m)
    assert -f == f.scale(-1)
    assert SuperPolynomial(n, m, {((0, 0), 0): 0}).terms == {}
    # a ring element never equals an algebra element with the same terms
    from supernilhecke.algebra import AlgebraElement
    one = SuperPolynomial.one(n, m)
    assert AlgebraElement(n, m, one.terms) != one
    assert one != AlgebraElement(n, m, one.terms)
    assert accumulate({"a": 1, "b": 2}, [("a", -1), ("c", 3), ("c", -3)]) == {"b": 2}


def test_omega_to_top_round_trip():
    for n in range(1, 6):
        for m in (-2, -1, 0, 1):
            for k in range(1, n + 1):
                assert omega_to_top(n, m, k) == SuperPolynomial.w(n, m, k)


def test_omega_top_decomposition_example():
    # w_1 = w_2^1 + x_2 w_2^0 on two strands at the classical parameter
    from supernilhecke.superring import omega_top_decomposition
    n, m = 2, -1
    pairs = omega_top_decomposition(n, m, 1)
    assert [(a, repr(c)) for a, c in pairs] == [(1, "1"), (0, "x2")]
    assert omega_top_decomposition(n, m, 2) == [(0, SuperPolynomial.one(n, m))]


# ---- the two-strand twist table against the whole-polynomial loops -----------

def reference_apply_simple(i, f):
    """s_i term by term on the whole polynomial, as before the twist table:
    the reference the cached table is checked against."""
    n = f.n
    bit_i, bit_i1 = 1 << (i - 1), 1 << i
    terms = {}

    def add(key, c):
        terms[key] = terms.get(key, 0) + c

    for (xexp, omask), c in f.terms.items():
        e = list(xexp)
        e[i - 1], e[i] = e[i], e[i - 1]
        swapped = tuple(e)
        add((swapped, omask), c)
        if omask & bit_i and not omask & bit_i1:
            nm = (omask & ~bit_i) | bit_i1
            up = list(swapped)
            up[i - 1] += 1
            add((tuple(up), nm), c)
            dn = list(swapped)
            dn[i] += 1
            add((tuple(dn), nm), -c)
    return SuperPolynomial(n, f.m, terms)


def reference_demazure(i, f):
    """(f - s_i f) / (x_i - x_{i+1}) by exact division of the whole
    polynomial, with the remainder checked."""
    g = f - reference_apply_simple(i, f)
    quo, rem = {}, {}
    for (xexp, omask), c in g.terms.items():
        d, e = xexp[i - 1], xexp[i]
        for r in range(d):
            ne = list(xexp)
            ne[i - 1], ne[i] = d - 1 - r, e + r
            quo[(tuple(ne), omask)] = quo.get((tuple(ne), omask), 0) + c
        ne = list(xexp)
        ne[i - 1], ne[i] = 0, d + e
        rem[(tuple(ne), omask)] = rem.get((tuple(ne), omask), 0) + c
    assert not any(rem.values()), rem
    return SuperPolynomial(f.n, f.m, quo)


def check_against_reference(f):
    for i in range(1, f.n):
        assert apply_simple(i, f) == reference_apply_simple(i, f)
        assert demazure(i, f) == reference_demazure(i, f)


def check_twisted_relations(f, g):
    n = f.n
    for i in range(1, n):
        d = lambda h: demazure(i, h)
        assert d(f * g) == d(f) * g + apply_simple(i, f) * d(g)
        assert d(d(f)).is_zero()
    for i in range(1, n - 1):
        assert demazure_word((i, i + 1, i), f) == demazure_word((i + 1, i, i + 1), f)
    for i in range(1, n):
        for j in range(i + 2, n):
            assert demazure_word((i, j), f) == demazure_word((j, i), f)


def test_twist_table_matches_reference():
    rng = random.Random(11)
    for n in range(2, 6):
        m = rng.choice((-2, -1, 0))
        for omask in range(1 << n):
            for _ in range(3):
                xexp = tuple(rng.randrange(13) for _ in range(n))
                check_against_reference(SuperPolynomial.monomial(n, m, xexp, omask))
        for _ in range(30):
            f = random_poly(n, m, rng, nterms=6, maxexp=12)
            g = random_poly(n, m, rng, nterms=3, maxexp=4)
            check_against_reference(f)
            check_against_reference(f * g)
            check_twisted_relations(f, g)
    with pytest.raises(ValueError):
        demazure(3, random_poly(3, -1, rng))
    with pytest.raises(ValueError):
        apply_simple(0, random_poly(3, -1, rng))


def test_twist_table_matches_reference_hypothesis():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def superpolys(draw, n, nterms, maxexp):
        monomials = st.tuples(
            st.tuples(*[st.integers(0, maxexp)] * n), st.integers(0, (1 << n) - 1))
        terms = draw(st.dictionaries(monomials, st.integers(-4, 4), max_size=nterms))
        return SuperPolynomial(n, -1, terms)

    @st.composite
    def pairs(draw):
        n = draw(st.integers(2, 5))
        return draw(superpolys(n, 5, 12)), draw(superpolys(n, 3, 3))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(pairs())
    def check(pair):
        f, g = pair
        check_against_reference(f)
        check_twisted_relations(f, g)

    check()


def _complete_h_recursive(n, m, j, lo, hi):
    """Reference: h_j(x_lo..x_hi) = sum_k x_hi^k h_{j-k}(x_lo..x_{hi-1})."""
    if lo > hi:
        return SuperPolynomial.one(n, m) if j == 0 else SuperPolynomial.zero(n, m)
    acc = SuperPolynomial.zero(n, m)
    for k in range(j + 1):
        acc = acc + SuperPolynomial.x(n, m, hi, k) * _complete_h_recursive(n, m, j - k, lo, hi - 1)
    return acc


def test_complete_h_matches_recursive_reference():
    for n in range(1, 6):
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                for j in range(-1, 7):
                    assert complete_h(n, -1, j, lo, hi) == \
                        _complete_h_recursive(n, -1, j, lo, hi), (n, lo, hi, j)
    for lo, hi in ((0, 2), (2, 1), (1, 4)):
        with pytest.raises(ValueError):
            complete_h(3, -1, 2, lo, hi)


@pytest.mark.parametrize("fn", [complete_h, elementary_e])
@pytest.mark.parametrize("j", [-1, 0, 2, 11])
def test_symmetric_polynomial_range_checked_before_degree(fn, j):
    # the variable range is checked first, whatever j is
    for lo, hi in ((0, 9), (0, 2), (2, 1), (1, 4)):
        with pytest.raises(ValueError, match="bad variable range"):
            fn(3, -1, j, lo, hi)
    got = fn(3, -1, j, 1, 3)
    assert got.is_zero() == (j < 0 or (fn is elementary_e and j > 3))
