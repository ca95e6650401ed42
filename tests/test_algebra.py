import itertools
import random

import pytest

from supernilhecke import algebra
from supernilhecke import symgroup as sg
from supernilhecke.algebra import (
    AlgebraElement, act, basis, basis_at_bidegree, basis_counts,
    cyclotomic_grdim, idempotent_e, phi, push_T_through, random_basis_keys,
    random_element, ring_monomials, spanning_rank_table, tau, theta,
    tight_basis, tight_monomial_skeletons, verify_relations,
)
from supernilhecke.dgstructure import nilhecke_cyclotomic_oracle
from supernilhecke.exprparse import evaluate_algebra, parse
from supernilhecke.gradedseries import cyclotomic_grdim_closed_form, nilhecke_cyclotomic_grdim
from supernilhecke.induction import (
    decompose_left, recombine_left, recombine_ses, ses_split,
)
from supernilhecke.invariants import schubert
from supernilhecke.linalg import IntEchelon, sparse_det
from supernilhecke.superring import (
    SuperPolynomial, _merge_masks, apply_simple, demazure, monomials_at,
)

E = AlgebraElement


def test_nilhecke_relations_in_normal_form():
    n, m = 2, -1
    T1, x1, x2 = E.T(n, m, 1), E.x(n, m, 1), E.x(n, m, 2)
    assert T1 * x1 == x2 * T1 + E.one(n, m)
    assert T1 * x2 == x1 * T1 - E.one(n, m)
    assert (T1 * T1).is_zero()
    n = 3
    T = [None] + [E.T(n, m, i) for i in (1, 2)]
    assert T[1] * T[2] * T[1] == T[2] * T[1] * T[2]


def test_tight_relation():
    n, m = 2, -1
    T1, w1 = E.T(n, m, 1), E.w(n, m, 1)
    assert T1 * w1 * T1 * w1 == -(w1 * T1 * w1 * T1)


def test_theta():
    n, m = 3, -1
    assert theta(n, m, 1) == E.w(n, m, 1)
    th2 = theta(n, m, 2)
    assert th2 == -(E.w(n, m, 2) * E.T(n, m, 1))
    # theta_a is homogeneous of bidegree (2m - 4(a-1), 2); the one-sided word
    # T_{a-1}..T_1 w_1 carries the degree of the labeled generator w_a instead
    for nn, mm in ((3, -1), (3, 0), (4, 1)):
        for a in range(1, nn + 1):
            assert theta(nn, mm, a).bidegree() == (2 * mm - 4 * (a - 1), 2)
            one_sided = E.T_word(nn, mm, tuple(range(1, a))) * E.w(nn, mm, 1)
            assert one_sided.bidegree() == (2 * (mm + 1 - a), 2)
            assert one_sided.bidegree() == E.w(nn, mm, a).bidegree()


def test_theta_rewrite_oracle():
    # brute-force word multiplication agrees with the closed construction
    n, m = 2, -1
    T1, w1 = E.T(n, m, 1), E.w(n, m, 1)
    assert theta(n, m, 2) == T1 * w1 * T1


def test_phi():
    for n, m in ((2, -1), (3, -1), (3, 0), (4, -1)):
        for i in range(1, n + 1):
            assert phi(n, m, i) == E.w(n, m, i), (n, m, i)
    n, m = 3, -1
    p1, p2, p3 = (phi(n, m, i) for i in (1, 2, 3))
    assert p1 * p2 == -(p2 * p1)
    assert p2 * p3 == -(p3 * p2)
    assert p1 * E.x(n, m, 2) == E.x(n, m, 2) * p1


def test_idempotent():
    for n in (1, 2, 3, 4):
        m = -1
        e = idempotent_e(n, m)
        assert e * e == e
        assert act(e, SuperPolynomial.one(n, m)) == SuperPolynomial.one(n, m)
    assert idempotent_e(1, -1) == E.one(1, -1)
    assert idempotent_e(2, -1) == E.T(2, -1, 1) * E.x(2, -1, 1)


def test_tau():
    n, m = 2, -1
    T1, x1, w1 = E.T(n, m, 1), E.x(n, m, 1), E.w(n, m, 1)
    assert tau(x1 * T1) == T1 * x1
    assert tau(T1 * w1) == w1 * T1
    e = idempotent_e(n, m)
    assert tau(e) * tau(e) == tau(e)
    rng = random.Random(0)
    for nn in (2, 3):
        for _ in range(10):
            u = random_element(nn, m, rng)
            v = random_element(nn, m, rng)
            assert tau(u * v) == tau(v) * tau(u)
            assert tau(tau(u)) == u


def test_tau_degree_zero():
    rng = random.Random(1)
    for _ in range(5):
        u = random_element(3, -1, rng, nterms=1)
        if u.is_zero():
            continue
        assert tau(u).bidegree() == u.bidegree()


def test_act_operator_values():
    n, m = 2, -1
    f = SuperPolynomial.x(n, m, 1)
    assert act(E.T(n, m, 1), f) == SuperPolynomial.one(n, m)
    assert act(E.one(n, m), f) == f
    e2 = E.T(n, m, 1) * E.x(n, m, 1)
    assert act(e2, SuperPolynomial.one(n, m)) == SuperPolynomial.one(n, m)


def test_act_composition_matches_mul():
    rng = random.Random(2)
    for n in (1, 2, 3):
        m = -1
        schuberts = [schubert(n, m, p) for p in sg.all_permutations(n)]
        for _ in range(20):
            u = random_element(n, m, rng)
            v = random_element(n, m, rng)
            uv = u * v
            for g in schuberts:
                assert act(uv, g) == act(u, act(v, g))


def test_mul_associative():
    rng = random.Random(3)
    for n in (2, 3):
        m = -1
        for _ in range(8):
            u = random_element(n, m, rng, nterms=2)
            v = random_element(n, m, rng, nterms=2)
            w = random_element(n, m, rng, nterms=2)
            assert (u * v) * w == u * (v * w)


def test_mul_graded():
    rng = random.Random(4)
    n, m = 3, 0
    for _ in range(10):
        u = random_element(n, m, rng, nterms=1)
        v = random_element(n, m, rng, nterms=1)
        if u.is_zero() or v.is_zero():
            continue
        prod = u * v
        (qu, lu), (qv, lv) = u.bidegree(), v.bidegree()
        assert prod.is_zero() or prod.bidegree() == (qu + qv, lu + lv)


def test_push_T_through_twist_rule():
    from supernilhecke.superring import apply_simple, demazure
    n, m = 3, -1
    f = (SuperPolynomial.x(n, m, 1, 2) * SuperPolynomial.w(n, m, 1)
         + SuperPolynomial.w(n, m, 2))
    out = push_T_through((1,), f)
    assert out.get(sg.identity(n), SuperPolynomial.zero(n, m)) == demazure(1, f)
    assert out.get(sg.simple(n, 1)) == apply_simple(1, f)


def test_basis_counts_match_enumeration():
    for n, m in ((1, -1), (2, -1), (2, 0), (3, -1)):
        qcut = 8
        counted = basis_counts(n, m, qcut)
        tallied: dict = {}
        for key in basis(n, m, qcut):
            elt = E(n, m, {key: 1})
            q, l = elt.monomial_bidegree(key)
            k = (q, l, (l // 2) & 1)
            tallied[k] = tallied.get(k, 0) + 1
        assert counted == tallied


def test_basis_n0():
    assert basis(0, -1, 4) == [((), 0, ())]
    assert basis_counts(0, -1, 4) == {(0, 0, 0): 1}


def test_random_basis_keys_draw_as_from_the_listed_basis():
    # seeded tests draw their basis keys this way; the same seed must pick
    # the same keys as indexing the listed basis does.  The pool is listed
    # here perm by perm, independently of basis() and its blocks.
    for n in range(0, 4):
        for m in (-2, -1, 1):
            for qcut in (-8, -1, 0, 3, 6):
                pool = [(xexp, omask, p) for p in sg.all_permutations(n)
                        for xexp, omask in ring_monomials(n, m, qcut + 2 * sg.length(p))]
                assert basis(n, m, qcut) == pool
                for seed in (0, 1, 9001):
                    want_rng, rng = random.Random(seed), random.Random(seed)
                    want = [pool[want_rng.randrange(len(pool))]
                            for _ in range(30)] if pool else []
                    got = list(itertools.islice(
                        random_basis_keys(n, m, qcut, rng), 30))
                    assert got == want, (n, m, qcut, seed)
                    assert rng.getstate() == want_rng.getstate()


def test_verify_relations_passes():
    for n, m in ((1, -1), (2, -1), (2, 0), (3, -1), (3, 0), (3, 1), (2, -2)):
        assert verify_relations(n, m) == [], (n, m)


def test_verify_relations_detects_corruption(monkeypatch):
    # negative control: one entry of the table with a sign flipped inside
    # fails in normal form, and no other entry does
    n, m = 2, -1
    table = list(algebra.presentation(n, m))
    T1, x2 = algebra.Atom("T", 1), algebra.Atom("x", 2)
    w1, w2 = algebra.Atom("w", 1, 0), algebra.Atom("w", 2, 0)
    good, bad = ((1, w1), (-1, x2, w2)), ((1, w1), (1, x2, w2))
    name = "T1 (w1^0 - x2 w2^0) commute"
    k = [entry for entry, _ in table].index(name)
    assert table[k][1] == ((1, T1, good), (-1, good, T1))
    table[k] = (name, ((1, T1, bad), (-1, bad, T1)))
    monkeypatch.setattr(algebra, "presentation", lambda n, m: table)
    assert verify_relations(n, m) == [name]


def test_tight_skeleton_patterns():
    # six permutation patterns for three strands, eight choices each
    sk = tight_monomial_skeletons(3, -1)
    assert len(sk) == 48
    perms = {p for (p, _, _) in sk}
    assert len(perms) == 6


def test_tight_basis_n1():
    fam = tight_basis(1, -1, 6)
    keys = sorted(tuple(sorted(e.terms)) for e in fam)
    want = sorted(
        ((((k,), l, (1,)),),)[0]
        for k in range(0, 6) for l in (0, 1)
        if 2 * k - 2 * l <= 6)
    assert keys == sorted(want)


def _unimodularity(n, m, qcut):
    fam = tight_basis(n, m, qcut)
    by_deg_b: dict = {}
    for key in basis(n, m, qcut):
        d = E(n, m, {key: 1}).monomial_bidegree(key)
        by_deg_b.setdefault(d, []).append(key)
    by_deg_f: dict = {}
    for elt in fam:
        by_deg_f.setdefault(elt.bidegree(), []).append(elt)
    for d, elts in sorted(by_deg_f.items()):
        if d[0] > qcut:
            continue
        monos = by_deg_b.get(d, [])
        assert len(monos) == len(elts), (d, len(monos), len(elts))
        index = {k: i for i, k in enumerate(monos)}
        rows = [{index[k]: c for k, c in elt.terms.items()} for elt in elts]
        assert sparse_det(rows, len(monos)) in (1, -1), d


def test_tight_basis_unimodular_n2():
    _unimodularity(2, -1, 10)
    _unimodularity(2, 0, 8)


def test_cyclotomic_grdim():
    assert cyclotomic_grdim(0, 3, 4) == {(0, 0, 0): 1}
    assert cyclotomic_grdim(2, 1, 8) == {}  # vanishes for n > N
    t = cyclotomic_grdim(1, 1, 8)
    assert t == {(0, 0, 0): 1, (-2, 2, 1): 1}
    t = cyclotomic_grdim(1, 2, 8)
    assert sum(t.values()) == 4  # x-powers 0,1 times 1, w_1


def full_span_quotient(n, N, qcut):
    """The quotient by (x_1^N) with every (q, lambda, parity) block ranked
    by spanning_rank_table, no mask decomposition."""
    m = -1
    dims = basis_counts(n, m, qcut)
    ideal = spanning_rank_table(n, m, E.x(n, m, 1, N), dims)
    return {key: d - ideal.get(key, 0) for key, d in dims.items()
            if d != ideal.get(key, 0)}


def test_cyclotomic_grdim_matches_full_span():
    cases = [(n, N, qcut) for n in (1, 2) for N in range(6)
             for qcut in (-8, -2, 4, 10, 16, 22)]
    cases += [(3, N, qcut) for N in range(6) for qcut in (-10, -4, 0)]
    for n, N, qcut in cases:
        assert cyclotomic_grdim(n, N, qcut) == full_span_quotient(n, N, qcut), (n, N, qcut)


def _cold(f, *args):
    """f(*args) with the per-process table of lambda = 0 ranks emptied first."""
    algebra._IDEAL_RANKS.clear()
    return f(*args)


def test_ideal_rank_table_does_not_depend_on_call_order():
    cases = [(n, N, qcut) for n in (1, 2, 3) for N in (1, 3) for qcut in (-4, 2, 8)]
    cold = {case: _cold(cyclotomic_grdim, *case) for case in cases}
    cold_oracle = {case: _cold(nilhecke_cyclotomic_oracle, *case) for case in cases}
    by_qcut = sorted(cases, key=lambda case: case[2])
    for order in (by_qcut, by_qcut[::-1]):
        algebra._IDEAL_RANKS.clear()
        for case in order:
            assert cyclotomic_grdim(*case) == cold[case], (case, order)
    algebra._IDEAL_RANKS.clear()
    for case in by_qcut[::-1]:  # the oracle reads the same table
        assert nilhecke_cyclotomic_oracle(*case) == cold_oracle[case], case
        assert cyclotomic_grdim(*case) == cold[case], case


def test_wrong_ideal_rank_shows_against_full_span(monkeypatch):
    # the full span never reads the table, so it catches a bad entry
    monkeypatch.setattr(algebra, "_IDEAL_RANKS", {})
    n, N, qcut = 2, 2, 4
    assert cyclotomic_grdim(n, N, qcut) == full_span_quotient(n, N, qcut)
    held = algebra._IDEAL_RANKS[n, N]
    held[max(held)] += 1
    assert cyclotomic_grdim(n, N, qcut) != full_span_quotient(n, N, qcut)


@pytest.mark.parametrize("f", (cyclotomic_grdim, nilhecke_cyclotomic_oracle,
                               nilhecke_cyclotomic_grdim, cyclotomic_grdim_closed_form))
@pytest.mark.parametrize("n, N, qcut, name", ((2, -1, 4, "N"), (0, -1, 4, "N"), (0, -3, -2, "N"),
                                              (-1, 2, 4, "n"), (-1, -1, 0, "n")))
def test_cyclotomic_entry_points_reject_negative_arguments(f, n, N, qcut, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -"):
        f(n, N, qcut)


def test_idempotent_span_is_everything():
    for n in (1, 2):
        m = -1
        table = spanning_rank_table(n, m, idempotent_e(n, m), basis_counts(n, m, 8))
        assert table == basis_counts(n, m, 8)


# ---- reference product and spanning table ------------------------------------
# Slow copies of the per-pair product and of the spanning table that multiply
# one pair of elements at a time, with no cache and no composition table.  The
# shared product kernel behind AlgebraElement.__mul__ and spanning_rank_table
# must agree with them.

def reference_push(letters, f):
    """T_w . f letter by letter by the twist rule, as perm -> ring part."""
    result = {sg.identity(f.n): f}
    for i in letters:
        new = {}
        for rho, h in result.items():
            pieces = [(rho, demazure(i, h))]
            srho = sg.apply_word_letter(rho, i)
            if sg.length(srho) == sg.length(rho) + 1:
                pieces.append((srho, apply_simple(i, h)))
            for perm, poly in pieces:
                new[perm] = new.get(perm, SuperPolynomial.zero(f.n, f.m)) + poly
        result = {p: h for p, h in new.items() if not h.is_zero()}
    return result


def reference_mul(a, b):
    """f T_theta . g T_sigma summed over every pair of terms."""
    n, m = a.n, a.m
    out = E.zero(n, m)
    for (xa, oa, theta_), ca in a.terms.items():
        f = SuperPolynomial.monomial(n, m, xa, oa, ca)
        for (xb, ob, sigma), cb in b.terms.items():
            g = SuperPolynomial.monomial(n, m, xb, ob, cb)
            for rho, h in reference_push(sg.reduced_word(theta_), g).items():
                perm = sg.compose(rho, sigma)
                if sg.length(perm) != sg.length(rho) + sg.length(sigma):
                    continue
                out = out + E(n, m, {(x, o, perm): c for (x, o), c in (f * h).terms.items()})
    return out


def reference_spanning_rank_table(n, m, middle, qcut):
    """Rank per (q, lambda, parity) of the span of u . middle . v over basis
    monomials u, v, with every product formed by reference_mul; rows stop
    once a degree is full."""
    dq, dl = middle.bidegree()
    minq = sum(min(0, 2 * (m - i)) for i in range(n)) - n * (n - 1)
    by_deg = {}
    for key in basis(n, m, qcut - dq - minq):
        by_deg.setdefault(E(n, m, {key: 1}).bidegree(), []).append(key)
    lefts = {}
    for deg, us in by_deg.items():
        ls = [reference_mul(E(n, m, {u: 1}), middle) for u in us]
        lefts[deg] = [left for left in ls if not left.is_zero()]
    table = {}
    for q, l, par in basis_counts(n, m, qcut):
        monos = basis_at_bidegree(n, m, q, l)
        index = {key: i for i, key in enumerate(monos)}
        ech = IntEchelon(len(monos))
        for (qu, lu), ls in lefts.items():
            if ech.is_full():
                break
            for left in ls:
                if ech.is_full():
                    break
                for v in by_deg.get((q - dq - qu, l - dl - lu), []):
                    prod = reference_mul(left, E(n, m, {v: 1}))
                    if prod.is_zero():
                        continue
                    row = {index[k]: c for k, c in prod.terms.items()}
                    if ech.add(row) and ech.is_full():
                        break
        if ech.rank:
            table[(q, l, par)] = ech.rank
    return table


def test_mul_matches_reference_product():
    rng = random.Random(7)
    seen_multi_perm = seen_odd = 0
    for n in (0, 1, 2, 3, 4):
        for m in (-1, 0, 1):
            zero = E.zero(n, m)
            for _ in range(10 if n < 4 else 4):
                u = random_element(n, m, rng, nterms=4)
                v = random_element(n, m, rng, nterms=4)
                seen_multi_perm += len({k[2] for k in u.terms}) > 1
                seen_odd += any(k[1] for k in u.terms)
                assert u * v == reference_mul(u, v), (n, m, u, v)
                assert u * zero == zero and zero * v == zero
            if n == 0:
                # the identity of S_0 is the empty permutation ()
                assert E.const(0, m, 3) * E.const(0, m, -2) == E.const(0, m, -6)
                continue
            odd = E.w(n, m, n) * random_element(n, m, rng, nterms=2)
            assert odd * odd == reference_mul(odd, odd)
            if n >= 2:
                # two permutations over the same ring part, scaled apart
                g = E.x(n, m, 1) + E.w(n, m, n)
                v = g + (g * E.T(n, m, 1)).scale(2)
                assert u * v == reference_mul(u, v)
    assert seen_multi_perm and seen_odd


def test_shift_is_the_product_by_a_ring_monomial():
    # shift against reference_mul, which forms f . h with
    # SuperPolynomial.__mul__ (the general product itself runs through shift)
    assert list(algebra.shift((1, 0), 0b10, 3, [(((0, 2), 0b01, (2, 1)), 2)])) == \
        [(((1, 2), 0b11, (2, 1)), -6)]  # w_2 w_1 = -w_1 w_2
    assert not list(algebra.shift((0, 0), 0b01, 1, [(((0, 0), 0b11, (1, 2)), 1)]))
    rng = random.Random(28)
    seen_overlap = seen_odd_sign = 0
    for n in (0, 1, 2, 3):
        for m in (-1, 0):
            for _ in range(15):
                z = random_element(n, m, rng, nterms=5)
                a = tuple(rng.randrange(3) for _ in range(n))
                s = rng.randrange(1 << n)
                c = rng.choice((-2, -1, 1, 3))
                u = E.monomial(n, m, a, s, sg.identity(n), c)
                got = dict(algebra.shift(a, s, c, z.terms.items()))
                assert got == reference_mul(u, z).terms == (u * z).terms, (n, m, a, s, c, z)
                seen_overlap += any(s & o for _, o, _ in z.terms)
                seen_odd_sign += any(_merge_masks(s, o)[0] < 0 for _, o, _ in z.terms)
    assert seen_overlap and seen_odd_sign


def _homogeneous_multi_term(n, m, rng):
    """A random homogeneous element with at least two terms (n >= 2)."""
    while True:
        u = random_element(n, m, rng, nterms=6, maxexp=2)
        parts: dict = {}
        for key, c in u.terms.items():
            parts.setdefault(u.monomial_bidegree(key), {})[key] = c
        for terms in parts.values():
            if len(terms) > 1:
                return E(n, m, terms)


@pytest.mark.parametrize("n,m,qcut", [(1, -1, 6), (2, -1, 8), (2, 0, 2), (3, 0, -8)])
def test_spanning_table_matches_reference(n, m, qcut):
    # ring middles, odd and even, take the rows u . z . T_p only
    middles = [E.x(n, m, 1, 2), E.x(n, m, 1) * E.w(n, m, n), idempotent_e(n, m)]
    if n >= 2:
        middles.append(E.w(n, m, 1) * E.w(n, m, 2))
        rng = random.Random(n)
        middles += [_homogeneous_multi_term(n, m, rng) for _ in range(3)]
    for middle in middles:
        assert spanning_rank_table(n, m, middle, basis_counts(n, m, qcut)) == \
            reference_spanning_rank_table(n, m, middle, qcut), middle


def reference_row_sequence(n, m, middle, blocks):
    """The rows spanning_rank_table hands to IntEchelon.add, rebuilt in the
    order its docstring gives: per block, per degree of v in the order of
    the v's, u in basis_at_bidegree order, then v, each row formed as
    (u . middle) . v by __mul__, zero rows skipped, stopping once the block
    is full."""
    dq, dl = middle.bidegree()
    if all(perm == sg.identity(n) for _, _, perm in middle.terms):
        vs = [((0,) * n, 0, p) for p in sg.all_permutations(n)]
    else:
        minq = sum(min(0, 2 * (m - i)) for i in range(n)) - n * (n - 1)
        vs = basis(n, m, max(q for q, _, _ in blocks) - dq - minq)
    rights = {}
    for v in vs:
        rights.setdefault(E(n, m, {v: 1}).bidegree(), []).append(v)

    def block_rows(q, l, index):
        for (qv, lv), group in rights.items():
            for u in basis_at_bidegree(n, m, q - dq - qv, l - dl - lv):
                for v in group:
                    prod = (E(n, m, {u: 1}) * middle) * E(n, m, {v: 1})
                    if not prod.is_zero():
                        yield {index[k]: c for k, c in prod.terms.items()}

    rows = []
    for q, l, _ in blocks:
        index = {key: i for i, key in enumerate(basis_at_bidegree(n, m, q, l))}
        ech = IntEchelon(len(index))
        for row in block_rows(q, l, index):
            rows.append(row)
            if ech.add(row) and ech.is_full():
                break
    return rows


@pytest.mark.parametrize("case", ["x1^2 n=3", "x1*wn n=2", "idempotent_e n=2"])
def test_spanning_table_rows_match_reference_sequence(case, monkeypatch):
    n, m, qcut, middle = {
        "x1^2 n=3": (3, -1, -8, E.x(3, -1, 1, 2)),
        "x1*wn n=2": (2, -1, 8, E.x(2, -1, 1) * E.w(2, -1, 2)),
        "idempotent_e n=2": (2, -1, 8, idempotent_e(2, -1)),
    }[case]
    blocks = basis_counts(n, m, qcut)
    want = reference_row_sequence(n, m, middle, blocks)
    seen = []
    add = IntEchelon.add

    def recording_add(self, row):
        seen.append(dict(row))
        return add(self, row)
    monkeypatch.setattr(IntEchelon, "add", recording_add)
    table = spanning_rank_table(n, m, middle, blocks)
    assert seen == want
    if case == "x1^2 n=3":
        assert table == blocks  # the quotient is zero: every block exits full


def test_cyclotomic_lambda_zero_part_is_nilhecke_closed_form():
    """The lambda = 0 part of cyclotomic_grdim(n, N, qcut) is the graded
    dimension of the cyclotomic nilHecke algebra NH_n / (x_1^N).

    lambda-degrees add under multiplication and are >= 0, so a product
    u . x_1^N . v of basis monomials has lambda = 0 only if u and v both have
    lambda = 0, that is omask = 0; such u, v lie in NH_n, and so does their
    product (the twist rule creates no odd generators from even ones).  So
    the lambda = 0 parts of A_n and of the ideal (x_1^N) are NH_n and its
    ideal (x_1^N), whose quotient has the closed form
    gradedseries.nilhecke_cyclotomic_grdim.
    """
    # n = 3 stops at qcut 0, about a second for N <= 5.
    cases = [(n, qcut) for n in (1, 2) for qcut in (-10, -4, 0, 6, 12)] \
        + [(3, qcut) for qcut in (-10, -4, 0)]
    for n, qcut in cases:
        for N in range(0, 6):
            got = {q: d for (q, lam, _), d in cyclotomic_grdim(n, N, qcut).items()
                   if lam == 0}
            assert got == nilhecke_cyclotomic_grdim(n, N, qcut), (n, N, qcut)


def _hypothesis_elements(min_n=1):
    from hypothesis import strategies as st

    @st.composite
    def triples(draw):
        n = draw(st.integers(min_n, 3))
        perms = list(sg.all_permutations(n))
        keys = st.tuples(st.tuples(*[st.integers(0, 2)] * n),
                         st.integers(0, (1 << n) - 1), st.sampled_from(perms))

        def element():
            return E(n, -1, draw(st.dictionaries(keys, st.integers(-3, 3), max_size=3)))
        return element(), element(), element()
    return triples()


def test_mul_associative_hypothesis():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_hypothesis_elements())
    def check(triple):
        u, v, w = triple
        assert (u * v) * w == u * (v * w)

    check()


def test_act_is_a_module_action_hypothesis():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_hypothesis_elements())
    def check(triple):
        u, v, w = triple
        n, m = u.n, u.m
        f = SuperPolynomial(n, m, {(x, o): c for (x, o, _), c in w.terms.items()})
        assert act(u * v, f) == act(u, act(v, f))

    check()


def test_tau_is_an_involutive_anti_automorphism_hypothesis():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_hypothesis_elements())
    def check(triple):
        u, v, w = triple
        assert tau(tau(u)) == u
        assert tau(u + w) == tau(u) + tau(w)
        assert tau(u * v) == tau(v) * tau(u)

    check()


def test_induction_round_trips_hypothesis():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_hypothesis_elements(min_n=2))
    def check(triple):
        w = triple[0]
        pairs, coker = ses_split(w)
        assert recombine_ses(w.n, w.m, pairs, coker) == w
        assert recombine_left(w.n, w.m, decompose_left(w)) == w

    check()


def test_parse_repr_round_trip_hypothesis():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_hypothesis_elements())
    def check(triple):
        for u in triple:
            assert evaluate_algebra(parse(repr(u)), u.n, u.m) == u, repr(u)

    check()


def test_ring_monomials_list_each_bidegree_in_the_documented_order():
    # Odd masks ascending, then exponent sums ascending, then lex; as a set,
    # the monomials of every bidegree (q, lam) with q <= qmax.
    for n in range(0, 5):
        for m in (-2, -1, 0, 1):
            qmin = sum(min(0, 2 * (m + 1 - i)) for i in range(1, n + 1))
            for qmax in range(-8, 9):
                got = ring_monomials(n, m, qmax)
                want = {mon for q in range(qmin, qmax + 1)
                        for lam in range(0, 2 * n + 1, 2)
                        for mon in monomials_at(n, m, q, lam)}
                assert got == sorted(want, key=lambda mon: (mon[1], sum(mon[0]), mon[0])), \
                    (n, m, qmax)
