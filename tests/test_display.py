"""The exact text display of ring elements, algebra elements and graded
dimensions (the --format text output of the CLI)."""
from supernilhecke import symgroup as sg
from supernilhecke.algebra import AlgebraElement as E, theta
from supernilhecke.gradedseries import GradedDim, grdim_An
from supernilhecke.superring import SuperPolynomial as P, labeled_omega


def test_zero_displays_as_0():
    assert repr(P.zero(2, -1)) == "0"
    assert repr(E.zero(2, -1)) == "0"
    assert repr(GradedDim.zero()) == "0"


def test_constants():
    assert repr(P.const(2, -1, 3)) == "3*1"
    assert repr(P.const(2, -1, -1)) == "-1"
    assert repr(P.one(2, -1)) == "1"
    assert repr(E.const(3, 0, -3)) == "-3*1"
    assert repr(GradedDim.term(-1)) == "-1"


def test_ring_element_signs_and_order():
    f = P(2, -1, {((0, 1), 0): -1, ((1, 0), 0): 3, ((2, 0), 3): -2, ((0, 0), 2): 1})
    assert repr(f) == "w2 - x2 + 3*x1 - 2*x1^2*w1*w2"
    g = P(2, -1, {((0, 1), 1): -4, ((1, 1), 0): 1, ((0, 0), 0): -1})
    assert repr(g) == "-1 - 4*x2*w1 + x1*x2"
    assert repr(labeled_omega(3, -1, 3, 2)) == "w1 - x3*w2 + x3^2*w3 - x2*w2"


def test_algebra_element_T_words():
    assert repr(E.T_perm(3, -1, sg.longest_element(3))) == "T1*T2*T1"
    assert repr(E.T_word(3, -1, (1, 2))) == "T2*T1"
    assert repr(E.T_word(3, -1, (2, 1))) == "T1*T2"
    assert repr(E.T(2, -1, 1) * E.x(2, -1, 1)) == "1 + x2*T1"
    assert repr(theta(3, -1, 2)) == "-w2*T1"
    u = (-(E.x(3, 0, 2, 2) * E.w(3, 0, 3) * E.T_perm(3, 0, (2, 3, 1)))
         + E.const(3, 0, 5) - E.T(3, 0, 2))
    assert repr(u) == "5*1 - T2 - x2^2*w3*T1*T2"


def test_graded_dim_factors():
    g = GradedDim(-2, None, {(0, 0, 0): 1, (-2, 0, 1): -1, (2, 2, 1): 3,
                             (1, 1, 0): -1, (0, 2, 0): 2, (1, 0, 0): 1,
                             (0, 1, 1): -2})
    assert repr(g) == "-pi*q^-2 + 1 - 2*pi*L + 2*L^2 + q - L*q + 3*pi*L^2*q^2"
    assert repr(GradedDim.term(-1, 3, 1, 1)) == "-pi*L*q^3"
    assert repr(GradedDim.term(1, 0, 0, 1)) == "pi"
    assert repr(GradedDim.term(4, -1, -1)) == "4*L^-1*q^-1"
    assert repr(grdim_An(1, -1, 4)) == \
        "pi*L^2*q^-2 + 1 + pi*L^2 + q^2 + pi*L^2*q^2 + q^4 + pi*L^2*q^4"
