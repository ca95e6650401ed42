"""
Decompositions of the (n+1)-strand algebra over the n-strand one, and the
short exact sequence splitting

  0 -> q^{-2} A_n (x)_{n-1} A_n -> A_{n+1}
                    -> (A_n (x) Z[xi]) (+) (q^{2m-4n} lam^2 Pi A_n (x) Z[xi]) -> 0

with the crossing map s(x (x) y) = x T_n y.

Free left-module decompositions in use (W_a = T_n...T_a):
  plain:   (+)_a  A_n . x_{n+1}^p . W_a . (1 (+) theta_a)
  dotted:  (+)_a  A_n . W_a . x_a^p   and   A_n . G_a^p,
with G_a^p = T_n...T_1 x_1^p w_1 T_1...T_{a-1} (= W_a . dotted theta_a).

Both decompositions run one greedy triangular elimination.  Terms carrying
the top odd generator go first, against the odd family, whose expansions
have a unique shortest-permutation unit-coefficient term; the remaining
terms reduce through the coset factorization: a plain family element
u . x_{n+1}^p W_a is itself a basis monomial, and a dotted one u . W_a x_a^p
has that monomial as its unique longest-permutation term.  Every elimination
step checks that the family element has coefficient +-1 at the lead, so the
lead is gone after the subtraction, and that all its other terms come after
the lead in the pass's order, so no earlier lead comes back; the
recombination helpers give exactness checks.  An inconsistency raises
ArithmeticError instead of returning wrong coordinates or looping.

Family products are shifts, not general products.  For a basis monomial
u = x^k w^S T_t of the n-strand algebra and an (n+1)-strand z,
embed(u) . z = x^k w^S . (T_{t x 1} . z), and a ring monomial multiplies a
normal form from the left with only a Koszul sign (algebra.shift).  So
T_{t x 1} . G is cached once per family generator G and t, and the
elimination, crossing_map and the cokernel part of recombine_ses read every
product off those caches as a shift.  recombine_left keeps the general
product, which pushes T_{t x 1} through each generator afresh: the slow path
that the left round-trip tests hold the cached twists to.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

from . import symgroup
from .algebra import AlgebraElement, TermKey, shift, theta_dotted
from .superring import accumulate
from .symgroup import Perm


def embed(u: AlgebraElement) -> AlgebraElement:
    """Inclusion adding a trivial strand on the right."""
    n1 = u.n + 1
    terms = {}
    for (xexp, omask, perm), c in u.terms.items():
        terms[(xexp + (0,), omask, perm + (n1,))] = c
    return AlgebraElement(n1, u.m, terms)


def restrict(w: AlgebraElement) -> AlgebraElement:
    """Inverse of embed; fails if the last strand is genuinely used."""
    n = w.n - 1
    terms = {}
    for (xexp, omask, perm), c in w.terms.items():
        if xexp[n] != 0 or omask >> n & 1 or perm[n] != n + 1:
            raise ValueError("element does not come from the subalgebra")
        terms[(xexp[:n], omask, perm[:n])] = c
    return AlgebraElement(n, w.m, terms)


class SesComponents(NamedTuple):
    """Cokernel coordinates: lists of (n-strand element, xi-exponent)."""
    poly_part: list[tuple[AlgebraElement, int]]
    omega_part: list[tuple[AlgebraElement, int]]


# ---- the families, on n1 = n + 1 strands --------------------------------------

@functools.cache
def _family(n1: int, m: int, a: int, p: int, odd: bool, plain: bool) -> AlgebraElement:
    """Normal form of the generator at (a, p): x_{n+1}^p W_a, or x_{n+1}^p G_a^0
    on the odd side, in the plain family; W_a x_a^p, or G_a^p, in the dotted
    one, where G_a^q = T_n...T_1 x_1^q w_1 T_1...T_{a-1}."""
    q = 0 if plain else p
    gen = (AlgebraElement.T_word(n1, m, symgroup.coset_word(n1, a))
           * (theta_dotted(n1, m, a, q) if odd else AlgebraElement.x(n1, m, a, q)))
    return AlgebraElement.x(n1, m, n1, p) * gen if plain else gen


@functools.cache
def _twisted_family(n1: int, m: int, t: Perm, a: int, p: int, odd: bool,
                    plain: bool) -> AlgebraElement:
    """T_{t x 1} . (the generator at (a, p)), for t in S_n."""
    return _twisted(_twisted_family, n1, m, t, _family, a, p, odd, plain)


@functools.cache
def _twisted_crossing(n1: int, m: int, t: Perm, v: AlgebraElement) -> AlgebraElement:
    """T_{t x 1} . T_n . embed(v), for t in S_n and an n-strand v."""
    return _twisted(_twisted_crossing, n1, m, t, _crossed, v)


def _crossed(n1: int, m: int, v: AlgebraElement) -> AlgebraElement:
    """T_n . embed(v) by the general product, so that a round trip through
    ses_split checks W_a = T_n . embed(W_a on n strands) and its kin."""
    return AlgebraElement.T(n1, m, n1 - 1) * embed(v)


# Each term key of the two caches above, held once: different entries repeat
# keys, and sharing them took the peak memory of verify ses --n 5 from 119 MB
# to 75 MB.
_KEYS: dict[TermKey, TermKey] = {}


def _twisted(cached, n1: int, m: int, t: Perm, base, *args) -> AlgebraElement:
    """T_{t x 1} . z for z = base(n1, m, *args): z itself at t = 1, else
    T_i . (the entry cached(n1, m, s_i t, *args)) for the least left descent
    i of t, so that each entry pushes a single letter."""
    i = next((i for i in range(1, n1 - 1) if t.index(i + 1) < t.index(i)), None)
    z = base(n1, m, *args) if i is None else (
        AlgebraElement.T(n1, m, i) * cached(n1, m, symgroup.apply_word_letter(t, i), *args))
    return AlgebraElement._adopt(n1, m, {_KEYS.setdefault(k, k): c for k, c in z.terms.items()})


def _family_element(n1: int, m: int, ukey: TermKey, a: int, p: int, odd: bool,
                    plain: bool) -> AlgebraElement:
    """u . (the generator at (a, p)) for the n-strand basis monomial u = ukey."""
    twisted = _twisted_family(n1, m, ukey[2], a, p, odd, plain)
    return AlgebraElement._adopt(n1, m, dict(
        shift(ukey[0] + (0,), ukey[1], 1, twisted.terms.items())))


def _left_times(n1: int, m: int, u: AlgebraElement, twisted, *args) -> AlgebraElement:
    """embed(u) . z for an n-strand element u, where twisted(n1, m, t, *args)
    gives T_{t x 1} . z."""
    terms: dict[TermKey, int] = {}
    for ukey, c in u.terms.items():
        accumulate(terms, shift(ukey[0] + (0,), ukey[1], c,
                                twisted(n1, m, ukey[2], *args).terms.items()))
    return AlgebraElement._adopt(n1, m, terms)


# ---- the elimination -------------------------------------------------------------
#
# An odd family element u . x_{n+1}^p G_a^0 (plain) or u . G_a^p (dotted),
# u = x^k w_S T_t a basis monomial, has a unique top-odd term of minimal
# permutation length, with unit coefficient:
#     ( k + p e_{n+1},  S + {n+1},  shift(t) . s_1...s_{a-1} ),
# where shift moves t to the strands 2..n+1.  All other top-odd terms sit at
# strictly larger length, so the odd part eliminates from the shortest
# permutation upward.  Even family elements carry no top odd generator.  A
# plain one is a single monomial, so the plain even part reads off in any
# order; the dotted even part eliminates from the longest permutation down.

def _eliminate(w: AlgebraElement, plain: bool) -> dict:
    """Coordinates {(odd, a, p): {ukey: c}} of w in the plain or the dotted
    family: w = sum c . ukey . (the generator at (a, p))."""
    n1, m = w.n, w.m
    n, top = n1 - 1, 1 << (n1 - 1)
    terms = dict(w.terms)
    coords: dict[tuple[bool, int, int], dict[TermKey, int]] = {}
    while terms:
        odd_keys = [k for k in terms if k[1] & top]
        if odd_keys:
            lead = min(odd_keys, key=lambda k: (symgroup.length(k[2]), k))
            xexp, omask, tau = lead
            # a is where tau takes 1, so tau = shift(t) . s_1...s_{a-1} always splits
            a = tau.index(1) + 1
            ukey = (xexp[:n], omask & ~top, tuple(v - 1 for v in tau if v != 1))
        else:
            lead = (next(iter(terms)) if plain
                    else max(terms, key=lambda k: symgroup.length(k[2])))
            xexp, omask, perm = lead
            pprime, a = symgroup.coset_split(perm)
            ukey = (xexp[:n], omask, pprime)
        odd, p = bool(odd_keys), xexp[n]
        fam = _family_element(n1, m, ukey, a, p, odd, plain)
        unit = fam.terms.get(lead, 0)
        if unit not in (1, -1):
            raise ArithmeticError("lead coefficient is not a unit (bug)")
        # every other term must come after the lead in this pass's order, so
        # that no earlier lead comes back
        rank = (symgroup.length(lead[2]), lead)
        if odd:
            early = [k for k in fam.terms
                     if k[1] & top and (symgroup.length(k[2]), k) < rank]
        else:
            early = [k for k in fam.terms if k != lead and (
                plain or k[1] & top or symgroup.length(k[2]) >= rank[0])]
        if early:
            raise ArithmeticError("family element has a term before the lead (bug)")
        c = terms[lead] * unit
        accumulate(coords.setdefault((odd, a, p), {}), ((ukey, c),))
        accumulate(terms, ((k, -c * v) for k, v in fam.terms.items()))
    return coords


def decompose_left(w: AlgebraElement):
    """Coordinates of an (n+1)-strand element in the plain left decomposition
    (+)_a A_n . Z[x_{n+1}] . W_a . (1 (+) theta_a).

    Returns {(a, eps): {p: n-strand element}} with eps = 1 for the theta side.
    """
    if w.n < 1:
        raise ValueError("decompose_left needs at least one strand")
    out: dict[tuple[int, int], dict[int, AlgebraElement]] = {}
    for (odd, a, p), ukeys in _eliminate(w, plain=True).items():
        out.setdefault((a, int(odd)), {})[p] = AlgebraElement(w.n - 1, w.m, ukeys)
    return out


def recombine_left(n1: int, m: int, coords) -> AlgebraElement:
    acc = AlgebraElement.zero(n1, m)
    for (a, eps), per_p in coords.items():
        for p, u in per_p.items():
            acc = acc + embed(u) * _family(n1, m, a, p, bool(eps), True)
    return acc


def ses_split(w: AlgebraElement) -> tuple[list[tuple[AlgebraElement, AlgebraElement]], SesComponents]:
    """Split an (n+1)-strand element along the short exact sequence.

    Returns (kernel pairs, cokernel): the pairs (u, v) of n-strand elements
    satisfy  w = sum u T_n v + sum (cokernel terms),  and the cokernel
    coordinates sit in the a = n+1 summands of the dotted decomposition:
    poly entries (u, p) stand for u . x_{n+1}^p, odd entries for u . G_{n+1}^p.
    """
    n1, m = w.n, w.m
    n = n1 - 1
    if n < 1:
        raise ValueError("ses_split needs at least two strands")
    pairs: list[tuple[AlgebraElement, AlgebraElement]] = []
    poly: list[tuple[AlgebraElement, int]] = []
    omega: list[tuple[AlgebraElement, int]] = []
    # even pairs are listed before odd ones
    coords = sorted(_eliminate(w, plain=False).items(), key=lambda kv: kv[0][0])
    for (odd, a, p), ukeys in coords:
        u = AlgebraElement(n, m, ukeys)
        if a < n1:
            # u . W_a x_a^p = u T_n (W_a x_a^p on n strands), likewise for G_a^p
            pairs.append((u, _family(n, m, a, p, odd, False)))
        else:
            (omega if odd else poly).append((u, p))
    return pairs, SesComponents(poly_part=poly, omega_part=omega)


def crossing_map(n1: int, m: int, pairs) -> AlgebraElement:
    """s(x (x) y) = x T_n y on a list of n-strand pairs."""
    acc = AlgebraElement.zero(n1, m)
    for u, v in pairs:
        acc = acc + _left_times(n1, m, u, _twisted_crossing, v)
    return acc


def recombine_ses(n1: int, m: int, pairs, coker: SesComponents) -> AlgebraElement:
    acc = crossing_map(n1, m, pairs)
    for odd, part in ((False, coker.poly_part), (True, coker.omega_part)):
        for u, p in part:
            acc = acc + _left_times(n1, m, u, _twisted_family, n1, p, odd, False)
    return acc
