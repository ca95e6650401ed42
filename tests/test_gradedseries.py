import random

import pytest

from supernilhecke import gradedseries
from supernilhecke.algebra import basis_counts, cyclotomic_grdim
from supernilhecke.dgstructure import nilhecke_cyclotomic_oracle
from supernilhecke.gradedseries import (
    GradedDim, _grdim_numerator, cyclotomic_grdim_closed_form, grdim_An,
    nilhecke_cyclotomic_grdim, quantum_factorial, quantum_int, sdim_An,
    ses_dimension_check, shapovalov_unit, verma_shapovalov,
)


def dense_geometric(qcut):
    """Reference 1/(1-q^2) = 1 + q^2 + ... + q^{2 floor(qcut/2)} as a dense
    series, exact for q <= qcut."""
    return GradedDim(0, qcut, {(2 * j, 0, 0): 1 for j in range(qcut // 2 + 1)})


def test_quantum_integers():
    assert quantum_int(0).is_zero()
    assert quantum_int(1) == GradedDim.one()
    assert quantum_int(2).coeffs == {(1, 0, 0): 1, (-1, 0, 0): 1}
    three_bang = quantum_factorial(3)
    assert three_bang == quantum_int(3) * quantum_int(2) * quantum_int(1)
    assert three_bang.coeffs[(3, 0, 0)] == 1
    assert three_bang.coeffs[(1, 0, 0)] == 2


def test_parity_square():
    pi = GradedDim.term(1, 0, 0, 1)
    assert pi * pi == GradedDim.one()


def test_multiply_by_one_in_window():
    f = GradedDim.one() + GradedDim.term(1, -2, 2, 1)
    assert f * GradedDim.one() == f


def test_geometric_inverse():
    one_minus = GradedDim.one() - GradedDim.term(1, 2)
    quot = one_minus.over_1_minus_q2(20)
    assert quot == GradedDim.one(qcut=20)
    assert quot.qcut == 20  # an exact operand keeps the requested window
    assert GradedDim.one().over_1_minus_q2(20) == dense_geometric(20)


def test_window_shrinks_for_two_truncated_factors():
    b = GradedDim(-2, 8, {(-2, 0, 0): 1, (4, 0, 0): 2})
    quot = b.over_1_minus_q2(10)
    assert quot.qcut == 8  # min(8, 10): the operand is exact only to 8
    assert quot.qmin == -2
    assert b.over_1_minus_q2(6).qcut == 6


def test_over_1_minus_q2_matches_dense_series():
    rng = random.Random(11)
    for trial in range(200):
        qmin = rng.randrange(-9, 3)
        qcut = rng.choice([None, qmin + rng.randrange(0, 14)])
        coeffs = {}
        for _ in range(rng.randrange(0, 7)):
            key = (rng.randrange(qmin, qmin + 16), rng.randrange(-3, 5),
                   rng.randrange(2))
            coeffs[key] = rng.randrange(-4, 5)
        g = GradedDim(qmin, qcut, coeffs)
        cut = rng.randrange(qmin, 18)
        want_cut = cut if qcut is None else min(qcut, cut)
        quot = g.over_1_minus_q2(cut)
        # the dense factor must reach cut - qmin so that the product is
        # sound up to the quotient's window
        ref = g * dense_geometric(cut - qmin)
        assert quot.qcut == want_cut == ref.qcut, trial
        assert quot.qmin == g.qmin, trial
        assert quot == ref, trial


def test_ring_laws_random():
    rng = random.Random(0)

    def rand_series(qcut=14):
        coeffs = {}
        for _ in range(4):
            q = rng.randrange(-4, 6)
            l = rng.randrange(-1, 3)
            p = rng.randrange(2)
            coeffs[(q, l, p)] = rng.randrange(-3, 4)
        return GradedDim(-4, qcut, coeffs)

    for _ in range(20):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_window_bookkeeping():
    a = GradedDim(0, 6, {(0, 0, 0): 1})
    b = GradedDim(2, 10, {(2, 0, 0): 1})
    prod = a * b
    assert prod.qmin == 2
    assert prod.qcut == 8  # min(6+2, 10+0)


def test_grdim_matches_enumeration():
    for n in (0, 1, 2, 3):
        for m in (-2, -1, 0, 1):
            g = grdim_An(n, m, 10)
            got = {k: c for k, c in g.coeffs.items() if k[0] <= 10}
            assert got == basis_counts(n, m, 10), (n, m)


def test_grdim_nonnegative():
    g = grdim_An(3, -1, 12)
    assert all(c > 0 for c in g.coeffs.values())


def test_ses_dimension_check():
    for n in (1, 2, 3):
        for m in (-2, -1, 0, 1):
            assert ses_dimension_check(n, m), (n, m)
    with pytest.raises(ValueError):
        ses_dimension_check(0, -1)


def test_ses_dimension_check_negative_control(monkeypatch):
    # the checked identity P_{n+1} P_{n-1} = q^-2 P_n^2 + shift P_n P_{n-1};
    # moving the shift exponent 2m-4n by d must break it
    for n in (1, 2, 3):
        for m in (-2, -1, 0, 1):
            p_prev, p_n, p_next = (_grdim_numerator(k, m) for k in (n - 1, n, n + 1))
            lhs = p_next * p_prev
            for d in (-2, 2, 4):
                bad = GradedDim.one() + GradedDim.term(1, 2 * m - 4 * n + d, 2, 1)
                assert lhs != GradedDim.term(1, -2) * p_n * p_n + bad * p_n * p_prev, \
                    (n, m, d)
    # and the check itself rejects numerators P_k q^{2k}
    exact = gradedseries._grdim_numerator
    monkeypatch.setattr(gradedseries, "_grdim_numerator",
                        lambda k, m: exact(k, m) * GradedDim.term(1, 2 * k))
    assert not ses_dimension_check(2, -1)


def test_empty_window_rejected():
    g = GradedDim(2, 10, {(2, 0, 0): 1})
    with pytest.raises(ValueError):
        g.truncate(1)
    with pytest.raises(ValueError):
        GradedDim(0, -2)


def test_shapovalov_matches_superdimension():
    for n in (0, 1, 2, 3):
        for m in (-1, 0, 1):
            sh = verma_shapovalov(n, m, 12)
            sd = sdim_An(n, m, 12)
            assert sh == (shapovalov_unit(n, m) * sd).truncate(12), (n, m)


def test_shapovalov_n1_series():
    # (lam q^m - lam^{-1} q^{-m})/(q - q^{-1}) expanded from below
    m = -1
    sh = verma_shapovalov(1, m, 8)
    want = {}
    for j in range(0, 5):
        want[(m + 1 + 2 * j, 1, 0)] = -1
        want[(1 - m + 2 * j, -1, 0)] = 1
    got = {k: c for k, c in sh.coeffs.items() if k[0] <= 8}
    want = {k: c for k, c in want.items() if k[0] <= 8}
    assert got == want


def test_shapovalov_unit_value():
    u = shapovalov_unit(1, -1)
    assert u.coeffs == {(2, -1, 0): 1}  # lam^{-1} q^{1-m} at m = -1


def test_cyclotomic_closed_form_matches_oracle():
    for n in range(0, 4):
        for L in range(0, 6):
            want = nilhecke_cyclotomic_oracle(n, L, 12)
            assert nilhecke_cyclotomic_grdim(n, L, 12) == want, (n, L)
    for n, L, qcut in ((4, 3, 2), (4, 4, -4)):
        want = nilhecke_cyclotomic_oracle(n, L, qcut)
        assert nilhecke_cyclotomic_grdim(n, L, qcut) == want, (n, L, qcut)


@pytest.mark.parametrize("n,N,qcut", [
    (1, 1, 12), (1, 4, 12), (2, 1, 16), (2, 2, 16), (2, 4, 12), (2, 5, 22),
    (3, 1, 8), (3, 2, 6), (3, 3, 6), (3, 4, 0), (3, 5, -4),
])
def test_cyclotomic_grdim_closed_form_matches_span(n, N, qcut):
    # key by key over (q, lambda, parity); (4, 4, -12) is checked in CI
    assert cyclotomic_grdim_closed_form(n, N, qcut) == cyclotomic_grdim(n, N, qcut)
