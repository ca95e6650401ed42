import itertools
import random
from collections import Counter

import pytest

from supernilhecke import dgstructure
from supernilhecke.algebra import (
    AlgebraElement, basis, random_basis_keys, random_element, ring_monomials,
)
from supernilhecke.dgstructure import (
    DgParams, _d_ring, _generator_images, _poly_d_rows, apply_dN, derivation_extend,
    generator_image, homology_ranks, nilhecke_cyclotomic_oracle,
    odd_images, pinned_ranks, verify_d_squared,
)
from supernilhecke.gradedseries import nilhecke_cyclotomic_grdim
from supernilhecke.superring import (
    SuperPolynomial, accumulate, complete_h, labeled_omega, mask_to_indices, monomials_at,
    odd_degree,
)
from supernilhecke.symgroup import all_permutations, identity, longest_element

E = AlgebraElement


def test_params_guard():
    with pytest.raises(ValueError):
        DgParams(2, -1, 0)  # m + N < 0
    with pytest.raises(ValueError):
        DgParams(n=2, m=-1, N=0)
    p = DgParams(2, -1, 1)
    assert repr(p) == "DgParams(n=2, m=-1, N=1)"
    assert (p.n, p.m, p.N) == (2, -1, 1)
    # the lru_cache key of the odd-image table
    assert DgParams(n=2, m=-1, N=1) == p and hash(DgParams(n=2, m=-1, N=1)) == hash(p)
    assert DgParams(2, -1, 2) != p


def test_generator_values():
    for n, m, N in ((2, -1, 2), (2, 0, 1), (3, 1, 1), (3, -2, 3)):
        p = DgParams(n, m, N)
        img = generator_image(p, 1)
        k = m + N
        want = (SuperPolynomial.x(n, m, 1, k) if k > 0
                else SuperPolynomial.one(n, m)).scale(-1 if k & 1 else 1)
        assert img == want


def test_kills_even_generators():
    p = DgParams(3, -1, 2)
    assert apply_dN(p, E.x(3, -1, 2, 5)).is_zero()
    assert apply_dN(p, E.T(3, -1, 2)).is_zero()
    assert apply_dN(p, E.x(3, -1, 1) * E.T(3, -1, 1)).is_zero()


def test_labeled_unit_image():
    # the labeled generator at index m+N+1 maps to 1
    for n, m, N in ((3, -1, 2), (4, -1, 3), (3, 0, 2)):
        if n >= m + N + 1:
            p = DgParams(n, m, N)
            u = E.from_poly(labeled_omega(n, m, m + N + 1, m + 1))
            assert apply_dN(p, u) == E.one(n, m)


def homological_degree(u):
    """The number of odd factors of every term of u, or None if they differ."""
    degs = {key[1].bit_count() for key in u.terms}
    return degs.pop() if len(degs) == 1 else None


def test_differential_bidegree():
    rng = random.Random(0)
    for n, m, N in ((2, -1, 2), (3, 0, 1)):
        p = DgParams(n, m, N)
        for _ in range(10):
            u = random_element(n, m, rng, nterms=1)
            if u.is_zero() or not any(k[1] for k in u.terms):
                continue
            d = apply_dN(p, u)
            if d.is_zero():
                continue
            (q, l) = u.bidegree()
            assert d.bidegree() == (q + 2 * N, l - 2)
            assert homological_degree(d) == homological_degree(u) - 1


def test_d_squared_and_leibniz():
    assert verify_d_squared(DgParams(2, -1, 2), 10)
    assert verify_d_squared(DgParams(2, 0, 1), 8)
    assert verify_d_squared(DgParams(3, -1, 1), 6)
    assert verify_d_squared(DgParams(2, -2, 4), 8)


def test_single_omega_d_squared_immediate():
    p = DgParams(2, -1, 2)
    for key in basis(2, -1, 6):
        if key[1].bit_count() <= 1:
            b = E(2, -1, {key: 1})
            assert apply_dN(p, apply_dN(p, b)).is_zero()


def test_corrupted_images_detected():
    p = DgParams(2, -1, 2)
    bad = {i: generator_image(p, i).scale(-1 if i == 2 else 1) for i in (1, 2)}
    assert not verify_d_squared(p, 6, images=bad)


def test_corrupted_leibniz_sign_detected():
    # extending with the wrong per-position sign is not a differential
    p = DgParams(2, -1, 2)
    images = {i: generator_image(p, i) for i in (1, 2)}
    w12 = E.from_poly(SuperPolynomial.w(2, -1, 1) * SuperPolynomial.w(2, -1, 2))

    def bad_extend(u):
        out = E.zero(2, -1)
        from supernilhecke.superring import mask_to_indices
        for (xexp, omask, perm), c in u.terms.items():
            for j, i in enumerate(mask_to_indices(omask)):
                # sign corrupted: (+1)^{j} instead of (-1)^{j}
                rest = omask & ~(1 << (i - 1))
                mono = SuperPolynomial.monomial(2, -1, xexp, rest, c)
                out = out + E.from_poly(mono * images[i]) * E.T_perm(2, -1, perm)
        return out

    assert not bad_extend(bad_extend(w12)).is_zero()
    good_once = apply_dN(p, w12)
    assert apply_dN(p, good_once).is_zero()


def test_homology_small_cases():
    # one strand: homology is the truncated polynomial ring
    assert homology_ranks(DgParams(1, -1, 2), 10) == {(0, 0): 1}
    assert homology_ranks(DgParams(1, -1, 3), 10) == {(0, 0): 1, (2, 0): 1}
    assert homology_ranks(DgParams(1, 0, 2), 10) == {(0, 0): 1, (2, 0): 1}
    # an odd qcut leaves out q = qcut + 1, which holds 8 at n = 3, L = 3
    assert all(q <= 1 for q, _ in homology_ranks(DgParams(3, 0, 3), 1))
    assert homology_ranks(DgParams(3, 0, 3), 2)[2, 0] == 8


def test_homology_concentrated_and_matches_oracle(monkeypatch):
    # d_N joins homological degrees 0..n, so no block at h < 0 or h > n is
    # ever enumerated
    asked, enumerate_block = [], dgstructure.monomials_at

    def recording(n, m, q, lam):
        asked.append((n, lam))
        return enumerate_block(n, m, q, lam)
    monkeypatch.setattr(dgstructure, "monomials_at", recording)
    for n, m, N in ((1, -1, 3), (2, -1, 3), (2, 0, 2), (2, -2, 5), (3, -1, 4)):
        table = homology_ranks(DgParams(n, m, N), 8)
        assert all(h == 0 for (_, h) in table), (n, m, N)
        oracle = nilhecke_cyclotomic_oracle(n, m + N, 8)
        assert {q: d for (q, h), d in table.items()} == oracle, (n, m, N)
    assert asked and all(0 <= lam <= 2 * n for n, lam in asked)


def test_acyclic_when_strands_exceed_level():
    for n, m, N in ((2, -1, 2), (3, -1, 3), (2, 0, 1), (1, -1, 1), (3, 1, 0)):
        if n > m + N:
            assert homology_ranks(DgParams(n, m, N), 8) == {}


def test_n4_homology_is_the_cyclotomic_nilhecke_quotient():
    # L = m + N = 4 = n: concentrated in degree 0, with the closed form's q-totals
    table = homology_ranks(DgParams(4, 0, 4), 12)
    assert table and all(h == 0 for (_, h) in table)
    assert {q: d for (q, _), d in table.items()} == nilhecke_cyclotomic_grdim(4, 4, 12)


def test_n4_homology_vanishes_below_the_level():
    # L = m + N = 3 < n = 4
    assert homology_ranks(DgParams(4, -1, 4), 12) == {}


def test_monotone_window():
    p = DgParams(2, -1, 3)
    small = homology_ranks(p, 6)
    large = homology_ranks(p, 12)
    assert small == {k: v for k, v in large.items() if k[0] <= 6}


def test_split_complex_matches_direct_matrices():
    # the permutation-block decomposition agrees with ranks of the full
    # differential matrices on the whole algebra
    from supernilhecke.linalg import rank
    for n, m, N in ((2, -1, 2), (2, 0, 1)):
        p = DgParams(n, m, N)
        qcut = 6
        pool = basis(n, m, qcut + 2 * N * (n + 1))
        bydeg: dict = {}
        for key in pool:
            e = E(n, m, {key: 1})
            q, l = e.monomial_bidegree(key)
            bydeg.setdefault((q, l // 2), []).append(key)
        direct: dict = {}
        for (q, h), monos in sorted(bydeg.items()):
            if q > qcut:
                continue
            below = bydeg.get((q + 2 * N, h - 1), [])
            rank_out = 0
            if h > 0 and below:
                idx = {k: i for i, k in enumerate(below)}
                rows = [{idx[k2]: c for k2, c in apply_dN(p, E(n, m, {key: 1})).terms.items()}
                        for key in monos]
                rank_out = rank(rows, len(below))
            above = bydeg.get((q - 2 * N, h + 1), [])
            rank_in = 0
            if above:
                idx = {k: i for i, k in enumerate(monos)}
                rows = [{idx[k2]: c for k2, c in apply_dN(p, E(n, m, {key: 1})).terms.items()}
                        for key in above]
                rank_in = rank(rows, len(monos))
            d = len(monos) - rank_out - rank_in
            if d:
                direct[(q, h)] = d
        split = {k: v for k, v in homology_ranks(p, qcut).items()}
        assert direct == split


def test_poly_d_matrix_columns_in_lex_order():
    # the packed column keys index each block in (xexp[::-1], omask) order
    for n, m, N in ((1, -1, 3), (2, -1, 3), (3, 0, 3), (3, -2, 6), (4, -1, 4)):
        p, blocks = DgParams(n, m, N), 0
        table = _generator_images(p)
        for q in range(-4, 14):
            for h in range(1, n + 1):
                here, below = monomials_at(n, m, q, 2 * h), monomials_at(n, m, q + 2 * N, 2 * h - 2)
                if here and below:
                    order = sorted(below, key=lambda mono: (mono[0][::-1], mono[1]))
                    index = {mono: j for j, mono in enumerate(order)}
                    want = [{index[key]: c for key, c in _d_ring(table, *mono)} for mono in here]
                    assert list(_poly_d_rows(p, here, below)) == want, (n, m, N, q, h)
                    blocks += 1
        assert blocks


def test_oracle_small_values():
    assert nilhecke_cyclotomic_oracle(1, 2, 8) == {0: 1, 2: 1}
    assert nilhecke_cyclotomic_oracle(2, 1, 8) == {}
    assert nilhecke_cyclotomic_oracle(0, 3, 4) == {0: 1}
    # nh_1^M = Z[x]/(x^M)
    assert nilhecke_cyclotomic_oracle(1, 4, 10) == {0: 1, 2: 1, 4: 1, 6: 1}


def test_oracle_total_dimension():
    # total dimension of the level-M quotient on n strands is
    # (n!)^2 * binom(M, n); the q-support ends by n(n-1) + 2n(M-n), so the
    # chosen windows capture everything
    from math import comb, factorial
    for n, M, qcut in ((1, 2, 6), (2, 2, 8), (2, 3, 12), (3, 3, 14)):
        assert qcut >= n * (n - 1) + 2 * n * (M - n) + 2
        dims = nilhecke_cyclotomic_oracle(n, M, qcut)
        assert sum(dims.values()) == factorial(n) ** 2 * comb(M, n), (n, M)


def test_apply_dN_uses_fresh_images():
    # the generator images are built once per parameter set and shared; the
    # result must equal an extension by freshly computed images, every call
    from supernilhecke.dgstructure import _generator_images
    for n, m, N in ((2, -1, 2), (3, 0, 1), (3, -2, 3)):
        p = DgParams(n, m, N)
        fresh = odd_images(n, {i: generator_image(p, i) for i in range(1, n + 1)})
        keys = [k for k in basis(n, m, 6) if k[1]][:12]
        assert keys
        for key in keys:
            u = E(n, m, {key: 1})
            want = derivation_extend(n, m, fresh, u)
            assert apply_dN(p, u) == want
            assert apply_dN(DgParams(n, m, N), u) == want
        assert _generator_images(p) == fresh


def _extend_by_ring_products(n, m, images, u):
    """Reference: the extension through one ring product per odd factor,
    (-1)^{j-1} (x^k w^{S minus i} * d(w_i)) T_p for the j-th factor w_i."""
    def pieces():
        for (xexp, omask, perm), c in u.terms.items():
            for j, i in enumerate(mask_to_indices(omask)):
                rest = omask & ~(1 << (i - 1))
                mono = SuperPolynomial.monomial(n, m, xexp, rest, -c if j & 1 else c)
                for (xe, om), cc in (mono * images[i]).terms.items():
                    yield (xe, om, perm), cc
    return E(n, m, accumulate({}, pieces()))


def _odd_images(n, m, rng):
    """Injected images with odd parts, so the Koszul sign of each merge
    with the remaining odd factors is exercised."""
    out = {}
    for i in range(1, n + 1):
        terms = {}
        for _ in range(3):
            key = (tuple(rng.randrange(3) for _ in range(n)), rng.randrange(1 << n))
            terms[key] = rng.randrange(-3, 4)
        out[i] = SuperPolynomial(n, m, terms)
    return out


@pytest.mark.parametrize("n", (1, 2, 3, 4))
@pytest.mark.parametrize("m", (-2, -1, 0, 1))
def test_derivation_extend_matches_ring_products(n, m):
    rng = random.Random(100 * n + m)
    image_sets = [{i: generator_image(DgParams(n, m, N), i) for i in range(1, n + 1)}
                  for N in range(-m, -m + 4) if N >= 0]
    image_sets += [_odd_images(n, m, rng) for _ in range(3)]
    if (n, m) == (2, -1):  # the corrupted images of test_corrupted_images_detected
        p = DgParams(2, -1, 2)
        image_sets.append({i: generator_image(p, i).scale(-1 if i == 2 else 1)
                           for i in (1, 2)})
    elements = [random_element(n, m, rng, nterms=6) for _ in range(8)]
    top = longest_element(n)
    elements += [E.monomial(n, m, (1,) * n, omask, top) for omask in range(1, 1 << n)]
    for images in image_sets:
        for u in elements:
            assert derivation_extend(n, m, odd_images(n, images), u) == \
                _extend_by_ring_products(n, m, images, u), (n, m, u)


def reference_d_squared_sweep(p, qcut, images=None):
    """The slow path: d(d(x^a w^S)) = 0 for every ring monomial of q-degree
    <= qcut + n(n-1), the ring parts of basis(n, m, qcut), each through two
    applications of _d_ring."""
    table = _generator_images(p) if images is None else odd_images(p.n, images)
    for xexp, omask in ring_monomials(p.n, p.m, qcut + p.n * (p.n - 1)):
        dd = {}
        for (xe, om), c in _d_ring(table, xexp, omask):
            accumulate(dd, ((key, c * cc) for key, cc in _d_ring(table, xe, om)))
        if dd:
            return False
    return True


def test_d_squared_on_masks_agrees_with_the_sweep():
    rng = random.Random(4)
    for n, m, N, qcut in ((1, -1, 2, 6), (2, -1, 2, 6), (2, 0, 1, 4), (3, -1, 2, 0),
                          (3, 0, 1, 4), (3, -2, 6, 2), (4, -1, 4, -6)):
        p = DgParams(n, m, N)
        # d_N: both say d^2 = 0
        assert reference_d_squared_sweep(p, qcut)
        assert verify_d_squared(p, qcut)
        # images with odd parts: d^2 != 0 inside the budget, and both see it
        for _ in range(2):
            images = _odd_images(n, m, rng)
            assert not reference_d_squared_sweep(p, qcut, images)
            assert not verify_d_squared(p, qcut, images=images)
    # d(w_1) = w_1 gives d^2(w_1) = w_1 != 0, but deg w_1 = 2 lies above the
    # budget qcut + n(n-1) = 0: no basis monomial at q <= 0 has an odd factor
    p, images = DgParams(1, 1, 0), {1: SuperPolynomial.w(1, 1, 1)}
    w1 = E.w(1, 1, 1)
    table = odd_images(1, images)
    assert derivation_extend(1, 1, table, derivation_extend(1, 1, table, w1)) == w1
    assert reference_d_squared_sweep(p, 0, images)
    assert verify_d_squared(p, 0, images=images)
    assert not reference_d_squared_sweep(p, 2, images)
    assert not verify_d_squared(p, 2, images=images)


@pytest.mark.parametrize("qcut", (-6, 0, 8))
def test_d_squared_checks_each_basis_mask_once(qcut, monkeypatch):
    # d^2 is checked on w^S for each odd mask S of basis(n, m, qcut), and on
    # no other mask
    checked, check = [], dgstructure._d_squared_zero

    def recording(table, n, omask):
        checked.append(omask)
        return check(table, n, omask)
    monkeypatch.setattr(dgstructure, "_d_squared_zero", recording)
    for n in range(4):
        for m in (-2, -1, 0, 1):
            checked.clear()
            assert verify_d_squared(DgParams(n, m, 2 - m), qcut)
            assert len(checked) == len(set(checked))
            assert set(checked) == {k[1] for k in basis(n, m, qcut)}, (n, m, qcut)


def reference_leibniz_sampled(p, qcut, images=None, samples=50, seed=0):
    """The sampled path: d^2 on the odd masks, then the graded Leibniz rule
    against the product on all generator pairs and on seeded random basis
    pairs, the left one first checked for d(f T_s) = d(f) T_s at every s."""
    table = _generator_images(p) if images is None else odd_images(p.n, images)
    e = identity(p.n)

    def d(u):
        return derivation_extend(p.n, p.m, table, u)

    def leibniz_ok(u, v):
        sign = -1 if homological_degree(u) & 1 else 1
        return d(u * v) == d(u) * v + (u * d(v)).scale(sign)

    def equivariant(ring):
        df = d(E(p.n, p.m, {(*ring, e): 1}))
        return all(d(E(p.n, p.m, {(*ring, s): 1})) == df * E.T_perm(p.n, p.m, s)
                   for s in all_permutations(p.n) if s != e)

    budget = qcut + p.n * (p.n - 1)
    if not all(dgstructure._d_squared_zero(table, p.n, omask) for omask in range(1 << p.n)
               if odd_degree(p.m, omask) <= budget):
        return False
    gens = ([E.x(p.n, p.m, i) for i in range(1, p.n + 1)]
            + [E.w(p.n, p.m, i) for i in range(1, p.n + 1)]
            + [E.T(p.n, p.m, i) for i in range(1, p.n)])
    if not all(leibniz_ok(u, v) for u in gens for v in gens):
        return False
    draws = random_basis_keys(p.n, p.m, min(qcut, 6), random.Random(seed))
    return all(equivariant(k1[:2]) and leibniz_ok(E(p.n, p.m, {k1: 1}), E(p.n, p.m, {k2: 1}))
               for k1, k2 in itertools.islice(zip(draws, draws), samples))


def test_leibniz_on_relations_agrees_with_sampled_pairs():
    # d_N at n <= 4: both accept
    for n, m, N, qcut in ((1, -1, 2, 6), (2, -1, 2, 8), (2, -2, 4, 6), (3, 0, 2, 6),
                          (3, 1, 3, 4), (4, -1, 4, 0)):
        p = DgParams(n, m, N)
        assert verify_d_squared(p, qcut) and reference_leibniz_sampled(p, qcut), (n, m, N)
    # the corrupted images of test_corrupted_images_detected: both reject
    p = DgParams(2, -1, 2)
    bad = {i: generator_image(p, i).scale(-1 if i == 2 else 1) for i in (1, 2)}
    assert not verify_d_squared(p, 6, images=bad)
    assert not reference_leibniz_sampled(p, 6, images=bad)
    # one even image changed by c h_k(x_1..x_j): d^2 = 0 still, so only the
    # Leibniz rule can reject it (it accepts a change symmetric in x_1..x_n
    # to d(w_1), since T_1 f T_1 = 0 for f symmetric)
    rng, verdicts = random.Random(32), []
    for _ in range(30):
        n, m = rng.randrange(2, 4), rng.randrange(-2, 2)
        p = DgParams(n, m, rng.randrange(max(0, -m), 4 - m))
        images = {i: generator_image(p, i) for i in range(1, n + 1)}
        i, j, k = rng.randrange(1, n + 1), rng.randrange(1, n + 1), rng.randrange(4)
        images[i] += complete_h(n, m, k, 1, j).scale(rng.choice((1, -1, 2, -2)))
        verdicts.append(verify_d_squared(p, 4, images=images))
        assert verdicts[-1] == reference_leibniz_sampled(p, 4, images=images), (p, i, j, k)
    assert 0 < verdicts.count(True) < verdicts.count(False)


def _blocks_built(monkeypatch):
    """Record the (q, h) of every d_N block whose rows homology_ranks builds."""
    built, rows = Counter(), dgstructure._poly_d_rows

    def recording(p, domain, codomain):
        xexp, omask = domain[0]
        built[2 * sum(xexp) + odd_degree(p.m, omask), omask.bit_count()] += 1
        return rows(p, domain, codomain)
    monkeypatch.setattr(dgstructure, "_poly_d_rows", recording)
    return built


def _exact_table(monkeypatch, p, qcut):
    """homology_ranks with no block pinned: a GF(2) rank of 0 pins none."""
    with monkeypatch.context() as patch:
        patch.setattr(dgstructure, "rank_gf2", lambda rows: 0)
        return homology_ranks(p, qcut)


# the homology points of the dg benchmark catalogue
DG_CATALOGUE_POINTS = sorted(
    {(3, m, L - m, 10) for m in (0, 1) for L in range(5)}
    | {(n, m, L - m, 12) for m in (-2, -1, 0, 1) for L in range(5) if L >= m for n in (1, 2)}
    | {(3, 0, 2, 8), (3, -1, 2, 8), (3, 0, 1, 10), (3, 1, 2, 9), (3, 0, 2, 9),
       (3, -1, 2, 9), (3, 1, 2, 10), (3, 0, 1, 8), (2, -1, 2, 10), (2, -2, 4, 10),
       (2, 0, 2, 10), (2, 1, 1, 10), (2, -1, 4, 10)})


@pytest.mark.parametrize("n, m, N, qcut", DG_CATALOGUE_POINTS)
def test_homology_pins_every_block_and_equals_exact_ranks(n, m, N, qcut, monkeypatch):
    p = DgParams(n, m, N)
    exact = _exact_table(monkeypatch, p, qcut)
    built = _blocks_built(monkeypatch)
    assert homology_ranks(p, qcut) == exact
    assert all(count == 1 for count in built.values())  # no exact fallback


def test_homology_falls_back_on_every_block_when_nothing_is_pinned(monkeypatch):
    # images times 2: d_N^2 = 0 still, the ranks over Q are unchanged, and
    # every GF(2) rank is 0, so no non-empty block can be pinned
    images = dgstructure._generator_images
    for n, m, N, qcut in ((2, -1, 3, 10), (3, 0, 2, 6), (3, 1, 3, 4)):
        p = DgParams(n, m, N)
        want = homology_ranks(p, qcut)
        with monkeypatch.context() as patch:
            patch.setattr(dgstructure, "_generator_images", lambda p: tuple(
                tuple((xe, mask, 2 * c) for xe, mask, c in entry) for entry in images(p)))
            built = _blocks_built(patch)
            assert homology_ranks(p, qcut) == want
        needed = {(q, h) for h in range(1, n + 1) for q in range(-60, qcut + n * (n - 1) + 1)
                  if monomials_at(n, m, q, 2 * h) and monomials_at(n, m, q + 2 * N, 2 * h - 2)}
        assert needed and {block for block, count in built.items() if count == 2} == needed
        assert all(count <= 2 for count in built.values())


def test_homology_rejects_gf2_ranks_above_the_dimension(monkeypatch):
    # r_2 <= r_Q and d_N^2 = 0 bound the GF(2) ranks around each chain group
    from supernilhecke.linalg import rank_gf2
    monkeypatch.setattr(dgstructure, "rank_gf2", lambda rows: rank_gf2(rows) + 1)
    with pytest.raises(ArithmeticError):
        homology_ranks(DgParams(2, -1, 3), 8)


@pytest.mark.parametrize("n, L", [(2, 2), (3, 3)])
def test_homology_rejects_d_squared_nonzero_over_the_integers(monkeypatch, n, L):
    # Mod 2 a sign is invisible, and here every block is pinned by GF(2)
    # ranks, which is exact only if d^2 = 0 over Z: a table with a wrong sign
    # (d^2(w_1 w_2) = 2 d(w_1) d(w_2)) would print these same ranks
    table = homology_ranks(DgParams(n, 0, L), 10)
    assert {q: d for (q, _), d in table.items()} == nilhecke_cyclotomic_grdim(n, L, 10)
    # so homology_ranks checks d^2 on the whole odd-image table: here
    # d(w_1) = w_1, and d^2(w_1) = w_1
    monkeypatch.setattr(dgstructure, "_generator_images",
                        lambda p: odd_images(p.n, {i: SuperPolynomial.w(p.n, 0, i)
                                                   for i in range(1, p.n + 1)}))
    with pytest.raises(ArithmeticError):
        homology_ranks(DgParams(n, 0, L), 10)


@pytest.mark.parametrize("r2, dims, r_q, want", [
    # Z <-(2 0)- Z^2 <-(0 1)^T- Z: d_1 has GF(2) rank 0 below its rank 1, d_2
    # is pinned by C_2, and d_1 by nothing
    ([0, 0, 1], [1, 2, 1], [0, 1, 1], [0, None, 1]),
    # Z <-(1 0)- Z^2 <-(0 2)^T- Z: d_1 is pinned by C_0 (the codomain side),
    # d_2 by nothing
    ([0, 1, 0], [1, 2, 1], [0, 1, 1], [0, 1, None]),
    # Z^2 <-diag(1, 2)- Z^2, and the zero complex around it
    ([0, 1], [2, 2], [0, 2], [0, None]),
    ([0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]),
], ids=["d1-unpinned", "d1-pinned-by-its-codomain", "diag-1-2", "zero"])
def test_pinned_ranks_certify_only_rational_ranks(r2, dims, r_q, want):
    # each GF(2) rank here is at most its rational rank r_q, and below it
    # somewhere, so a certificate that reads a wrong neighbour pins a wrong rank
    assert all(a <= b for a, b in zip(r2, r_q))
    got = pinned_ranks(r2, dims)
    assert all(r is None or r == r_q[h] for h, r in enumerate(got))
    assert got == want


def test_pinned_ranks_reject_gf2_ranks_above_a_dimension():
    with pytest.raises(ArithmeticError):
        pinned_ranks([0, 1, 1], [1, 1, 1])
