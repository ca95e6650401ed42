import itertools
import random

import pytest

from supernilhecke import induction
from supernilhecke.algebra import AlgebraElement, random_basis_keys, random_element
from supernilhecke.induction import (
    crossing_map, decompose_left, embed, recombine_left, recombine_ses, restrict, ses_split,
)
from supernilhecke.superring import SuperPolynomial, complete_h

E = AlgebraElement


def projection_poly_part(w):
    """The xi-indexed polynomial cokernel coordinates of w."""
    return {p: u for u, p in ses_split(w)[1].poly_part}


def center_word(n1, m, j):
    """T_n ... T_1 x_1^j T_1 ... T_n on n1 = n+1 strands."""
    left = E.T_word(n1, m, tuple(range(1, n1)))
    right = E.T_word(n1, m, tuple(range(n1 - 1, 0, -1)))
    return left * E.x(n1, m, 1, j) * right


def expected_projection(n, m, j):
    """(-1)^n sum_{p=n}^{j-n} h_{p-n}(x_1..x_n, xi) h_{j-n-p}(x_1..x_n),
    expanded as a map xi-power -> n-strand element."""
    out: dict[int, AlgebraElement] = {}
    sign = -1 if n & 1 else 1
    for p in range(n, j - n + 1):
        for qxi in range(0, p - n + 1):
            h1 = complete_h(n, m, p - n - qxi, 1, n)
            h2 = complete_h(n, m, j - n - p, 1, n)
            prod = E.from_poly(h1 * h2).scale(sign)
            if prod.is_zero():
                continue
            cur = out.get(qxi, E.zero(n, m))
            out[qxi] = cur + prod
    return {k: v for k, v in out.items() if not v.is_zero()}


def test_embed_restrict():
    u = E.x(2, -1, 1) * E.T(2, -1, 1)
    assert restrict(embed(u)) == u
    with pytest.raises(ValueError):
        restrict(E.x(3, -1, 3))


def test_decompose_left_trivial_cases():
    n1, m = 2, -1
    w = embed(E.x(1, m, 1, 2))
    coords = decompose_left(w)
    assert set(coords) == {(2, 0)}
    assert set(coords[(2, 0)]) == {0}
    assert coords[(2, 0)][0] == E.x(1, m, 1, 2)
    w = E.x(n1, m, 2, 3)
    coords = decompose_left(w)
    assert set(coords) == {(2, 0)} and set(coords[(2, 0)]) == {3}
    assert coords[(2, 0)][3] == E.one(1, m)


def test_decompose_left_round_trips():
    rng = random.Random(11)
    for n1 in (2, 3):
        for m in (-1, 0, -2):
            for _ in range(6):
                w = random_element(n1, m, rng)
                coords = decompose_left(w)
                assert recombine_left(n1, m, coords) == w


def test_decompose_left_unique():
    # coordinates of a recombination come back unchanged, in the plain left
    # decomposition and in the SES splitting
    terms = lambda u: tuple(sorted(u.terms.items()))
    left_terms = lambda cs: {(k, p): terms(u) for k, per in cs.items()
                             for p, u in per.items()}
    ses_terms = lambda split: (
        sorted((terms(u), terms(v)) for u, v in split[0]),
        {p: terms(u) for u, p in split[1].poly_part},
        {p: terms(u) for u, p in split[1].omega_part})
    # the default-size element at n+1 = 3, m = -1, then smaller ones for the
    # SES on n+1 in {2, 3, 4}, m in {-1, 0}
    rng = random.Random(12)
    cases = [(decompose_left, recombine_left, left_terms, 3, -1, {})]
    cases += [(ses_split, lambda n1, m, split: recombine_ses(n1, m, *split), ses_terms,
               n1, m, {"nterms": 3, "maxexp": 1})
              for n1 in (2, 3, 4) for m in (-1, 0) for _ in range(6)]
    for decompose, recombine, as_terms, n1, m, size in cases:
        w = random_element(n1, m, rng, **size)
        coords = decompose(w)
        again = decompose(recombine(n1, m, coords))
        assert as_terms(again) == as_terms(coords)


@pytest.mark.parametrize("spoil", ["times 2", "times 0", "term before the lead"])
@pytest.mark.parametrize("lead", ["odd", "even"])
@pytest.mark.parametrize("decompose", [decompose_left, ses_split])
def test_elimination_stops_at_a_bad_step(monkeypatch, decompose, lead, spoil):
    # a family element whose lead coefficient is 2 or 0, or one with a unit
    # lead but a term that its pass takes before the lead (for odd leads a
    # shorter top-odd term, for even ones any other term in the plain pass or
    # a longer one in the dotted pass), must stop the elimination at that
    # step, not let it go on or loop
    n1, m = 3, -1
    odd = lead == "odd"
    early = E.w(n1, m, n1) if odd else E.T_word(n1, m, (1, 2, 1))
    calls = []
    real = induction._family_element

    def broken(*args):
        # family elements of the other parity pass through unspoiled until the
        # first one of this parity
        if not calls and args[5] != odd:
            return real(*args)
        calls.append(args)
        if len(calls) > 1:
            raise RuntimeError("the elimination went on past a bad step")
        if spoil == "term before the lead":
            return real(*args) + early
        return real(*args).scale(int(spoil[-1]))

    monkeypatch.setattr(induction, "_family_element", broken)
    # one odd lead, w_3 T_1, longer than the added w_3, and one even lead,
    # x_3, shorter than the added T_1 T_2 T_1; the odd one goes first
    w = E.w(n1, m, n1) * E.T(n1, m, 1) + E.x(n1, m, n1)
    message = "before the lead" if spoil == "term before the lead" else "not a unit"
    with pytest.raises(ArithmeticError, match=message):
        decompose(w)
    assert len(calls) == 1


def test_family_element_is_the_general_product():
    # the shift of a cached T_t . G equals embed(u) . G formed by the general
    # product, for every generator (a, p) of both families on seeded u
    rng = random.Random(18)
    for n1 in (2, 3, 4):
        n = n1 - 1
        for m in (-1, 0):
            for u in itertools.islice(random_basis_keys(n, m, 4, rng), 30):
                left = embed(E(n, m, {u: 1}))
                for a, p, odd, plain in itertools.product(
                        range(1, n1 + 1), range(3), (False, True), (False, True)):
                    want = left * induction._family(n1, m, a, p, odd, plain)
                    got = induction._family_element(n1, m, u, a, p, odd, plain)
                    assert got == want, (n1, m, u, a, p, odd, plain)


def test_crossing_map_is_the_general_product():
    # crossing_map against sum embed(u) . T_n . embed(v) by the general
    # product, on random v and on the cached family values ses_split pairs with
    rng = random.Random(19)
    for n1 in (2, 3, 4):
        n = n1 - 1
        for m in (-1, 0):
            t_n = E.T(n1, m, n)
            for i in range(6):
                u = random_element(n, m, rng, nterms=3, maxexp=1)
                if i % 2:
                    v = random_element(n, m, rng, nterms=3, maxexp=1)
                else:
                    v = induction._family(n, m, rng.randint(1, n), rng.randrange(3),
                                          rng.random() < 0.5, False)
                pairs = [(u, v), (random_element(n, m, rng, nterms=2, maxexp=1), v)]
                want = E.zero(n1, m)
                for x, y in pairs:
                    want = want + embed(x) * t_n * embed(y)
                assert crossing_map(n1, m, pairs) == want, (n1, m, i)


def test_ses_round_trips():
    rng = random.Random(13)
    for n1 in (2, 3, 4):
        for m in (-1, 0):
            for _ in range(5):
                w = random_element(n1, m, rng, nterms=3, maxexp=1)
                pairs, coker = ses_split(w)
                assert recombine_ses(n1, m, pairs, coker) == w


def test_ses_image_of_crossing_has_zero_cokernel():
    rng = random.Random(14)
    for n1 in (2, 3):
        m = -1
        n = n1 - 1
        for _ in range(5):
            u = random_element(n, m, rng, nterms=2, maxexp=1)
            v = random_element(n, m, rng, nterms=2, maxexp=1)
            w = crossing_map(n1, m, [(u, v)])
            pairs, coker = ses_split(w)
            assert not coker.poly_part and not coker.omega_part
            assert recombine_ses(n1, m, pairs, coker) == w


def test_ses_projection_formula():
    for n1, m in ((2, -1), (2, 0), (3, -1), (4, -1)):
        n = n1 - 1
        for j in range(0, 9):
            w = center_word(n1, m, j)
            got = {p: u for p, u in projection_poly_part(w).items()
                   if not u.is_zero()}
            want = expected_projection(n, m, j)
            assert set(got) == set(want), (n1, m, j)
            for p in got:
                assert got[p] == want[p], (n1, m, j, p)


def test_ses_projection_n1_j2_value():
    got = projection_poly_part(center_word(2, -1, 2))
    assert set(got) == {0}
    assert got[0] == E.const(1, -1, -1)


def test_ses_bimodule_compatibility():
    # projecting after multiplying by a subalgebra element on either side
    # matches acting on the cokernel coordinates
    rng = random.Random(15)
    n1, m = 3, -1
    n = n1 - 1
    for _ in range(6):
        w = random_element(n1, m, rng, nterms=2, maxexp=1)
        z = random_element(n, m, rng, nterms=2, maxexp=1)
        _, coker = ses_split(w)
        _, coker_left = ses_split(embed(z) * w)
        got = {p: u for u, p in coker_left.poly_part}
        want: dict = {}
        for u, p in coker.poly_part:
            zu = z * u
            if not zu.is_zero():
                want[p] = want.get(p, E.zero(n, m)) + zu
        want = {p: u for p, u in want.items() if not u.is_zero()}
        assert got == want
        got_o = {p: u for u, p in coker_left.omega_part}
        want_o: dict = {}
        for u, p in coker.omega_part:
            zu = z * u
            if not zu.is_zero():
                want_o[p] = want_o.get(p, E.zero(n, m)) + zu
        want_o = {p: u for p, u in want_o.items() if not u.is_zero()}
        assert got_o == want_o


def test_ses_right_multiplication_by_polynomials():
    # right multiplication by a central-ish subalgebra polynomial acts on
    # coordinates from the right
    rng = random.Random(16)
    n1, m = 3, -1
    n = n1 - 1
    for _ in range(4):
        w = random_element(n1, m, rng, nterms=2, maxexp=1)
        z = E.from_poly(SuperPolynomial.x(n, m, 1) + SuperPolynomial.x(n, m, 2))
        _, coker = ses_split(w)
        _, coker_right = ses_split(w * embed(z))
        got = {p: u for u, p in coker_right.poly_part}
        want: dict = {}
        for u, p in coker.poly_part:
            uz = u * z
            if not uz.is_zero():
                want[p] = want.get(p, E.zero(n, m)) + uz
        want = {p: u for p, u in want.items() if not u.is_zero()}
        assert got == want


def test_crossing_map_is_balanced():
    # s(x z (x) y) = s(x (x) z y) for z in the smaller subalgebra
    rng = random.Random(17)
    n1, m = 3, -1
    n = n1 - 1
    for _ in range(5):
        u = random_element(n, m, rng, nterms=2, maxexp=1)
        v = random_element(n, m, rng, nterms=2, maxexp=1)
        z = embed(random_element(n - 1, m, rng, nterms=2, maxexp=1))
        lhs = crossing_map(n1, m, [(u * z, v)])
        rhs = crossing_map(n1, m, [(u, z * v)])
        assert lhs == rhs
