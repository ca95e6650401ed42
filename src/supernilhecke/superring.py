"""
Exact arithmetic in the supercommutative ring Z[x_1..x_n] (x) Lambda(w_1..w_n),
with the symmetric group action, Demazure operators, labeled odd generators
and symmetric-polynomial helpers.

A monomial is a pair (xexp, omask): xexp is a tuple of n natural exponents
and omask a bitmask over the odd generators (bit i-1 set means w_i present,
factors written in increasing index order).  The parameter m fixes the
minimal label of the odd generators: w_i carries bidegree (2(m+1-i), 2).
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, sub

from . import symgroup
from .symgroup import Perm, Word

XExp = tuple[int, ...]
Monomial = tuple[XExp, int]


def _merge_masks(a: int, b: int) -> tuple[int, int]:
    """Koszul sign and union for reordering w_A w_B into increasing order.

    Returns (sign, union); sign 0 when the masks overlap.
    """
    if a & b:
        return 0, 0
    sign = 1
    bb = b
    while bb:
        low = bb & -bb
        j = low.bit_length() - 1
        if (a >> (j + 1)).bit_count() & 1:
            sign = -sign
        bb ^= low
    return sign, a | b


def exponent_vectors(n: int, total: int):
    """All exponent tuples of length n with the given sum, in lexicographic
    order: stars and bars, the parts being the gaps between the
    nondecreasing cut points 0 <= c_1 <= .. <= c_{n-1} <= total.  None for
    a negative total."""
    if total < 0 or (n == 0 and total):
        return
    if n < 2:  # no cut point to choose: () or (total,)
        yield (total,) * n
        return
    for cuts in itertools.combinations_with_replacement(range(total + 1), n - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def mask_to_indices(mask: int) -> tuple[int, ...]:
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def accumulate(terms: dict, items) -> dict:
    """Add (key, coeff) pairs into terms, dropping keys whose sum is zero."""
    for k, c in items:
        v = terms.get(k, 0) + c
        if v:
            terms[k] = v
        else:
            terms.pop(k, None)
    return terms


def signed_sum(pieces) -> str:
    """Display (body, coeff) pieces as c*body, body or -body joined by
    " + " and " - "; no pieces display as 0."""
    out = []
    for body, c in pieces:
        text = body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}"
        if out:
            text = f" - {text[1:]}" if text.startswith("-") else f" + {text}"
        out.append(text)
    return "".join(out) or "0"


@lru_cache(maxsize=None)
def odd_degree(m: int, omask: int) -> int:
    """q-degree of the odd monomial w^S with mask omask: w_i has 2(m+1-i)."""
    return sum(2 * (m + 1 - i) for i in mask_to_indices(omask))


def monomials_at(n: int, m: int, q: int, lam: int) -> list[Monomial]:
    """Ring monomials (xexp, omask) at bidegree (q, lam), odd masks ascending."""
    out = []
    for omask in range(1 << n):
        if 2 * omask.bit_count() != lam:
            continue
        rem = q - odd_degree(m, omask)
        if rem >= 0 and rem % 2 == 0:
            out.extend((xexp, omask) for xexp in exponent_vectors(n, rem // 2))
    return out


class LinearCombination:
    """An integer combination of monomials whose first two key entries are a
    ring monomial (xexp, omask) over the parameters (n, m): the additive
    structure, grading and display shared by ring and algebra elements.
    Subclasses give the display order, sorted_terms()."""

    __slots__ = ("n", "m", "terms")

    def __init__(self, n: int, m: int, terms: dict | None = None):
        self.n = n
        self.m = m
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    @classmethod
    def _adopt(cls, n: int, m: int, terms: dict):
        """An element that takes terms as its own, with no copy and no zero
        filter: terms must be a fresh dict with no zero coefficient."""
        self = cls.__new__(cls)
        self.n, self.m, self.terms = n, m, terms
        return self

    @classmethod
    def zero(cls, n: int, m: int):
        return cls(n, m)

    def _check(self, other):
        if self.n != other.n or self.m != other.m:
            raise ValueError(
                f"parameter mismatch: ({self.n},{self.m}) vs ({other.n},{other.m})")

    def __add__(self, other):
        self._check(other)
        return type(self)._adopt(self.n, self.m,
                                 accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return type(self)._adopt(self.n, self.m, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        if c == 0:
            return type(self)(self.n, self.m)
        return type(self)._adopt(self.n, self.m, {k: c * v for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.n == other.n
                and self.m == other.m and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.m, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # ---- grading -------------------------------------------------------
    def monomial_bidegree(self, key) -> tuple[int, int]:
        xexp, omask = key[0], key[1]
        return 2 * sum(xexp) + odd_degree(self.m, omask), 2 * omask.bit_count()

    def bidegree(self) -> tuple[int, int] | None:
        """Bidegree if homogeneous, else None; zero returns None."""
        degs = {self.monomial_bidegree(k) for k in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    # ---- display ---------------------------------------------------------
    def _factors(self, key) -> list[str]:
        xexp, omask = key[0], key[1]
        factors = [f"x{i}" if e == 1 else f"x{i}^{e}"
                   for i, e in enumerate(xexp, start=1) if e > 0]
        factors.extend(f"w{i}" for i in mask_to_indices(omask))
        return factors

    def __repr__(self) -> str:
        return signed_sum(("*".join(self._factors(k)) or "1", c)
                          for k, c in self.sorted_terms())


class SuperPolynomial(LinearCombination):
    """An element of the supercommutative ring on n even and n odd generators."""

    __slots__ = ()

    # ---- constructors -------------------------------------------------
    @classmethod
    def const(cls, n: int, m: int, c: int) -> "SuperPolynomial":
        if c == 0:
            return cls(n, m)
        return cls(n, m, {((0,) * n, 0): c})

    @classmethod
    def one(cls, n: int, m: int) -> "SuperPolynomial":
        return cls.const(n, m, 1)

    @classmethod
    def x(cls, n: int, m: int, i: int, power: int = 1) -> "SuperPolynomial":
        if not 1 <= i <= n:
            raise ValueError(f"x index {i} out of range 1..{n}")
        e = [0] * n
        e[i - 1] = power
        return cls(n, m, {(tuple(e), 0): 1})

    @classmethod
    def w(cls, n: int, m: int, i: int) -> "SuperPolynomial":
        """The odd generator w_i at minimal label m+1."""
        if not 1 <= i <= n:
            raise ValueError(f"w index {i} out of range 1..{n}")
        return cls(n, m, {((0,) * n, 1 << (i - 1)): 1})

    @classmethod
    def monomial(cls, n: int, m: int, xexp, omask: int, coeff: int = 1) -> "SuperPolynomial":
        return cls(n, m, {(tuple(xexp), omask): coeff})

    # ---- ring structure ------------------------------------------------
    def __mul__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        self._check(other)
        terms: dict[Monomial, int] = {}
        for (xa, ma), ca in self.terms.items():
            for (xb, mb), cb in other.terms.items():
                sign, mask = _merge_masks(ma, mb)
                if sign == 0:
                    continue
                # Inline rather than accumulate(): the hottest loop, and a
                # generator feeding accumulate() measured about 5% slower.
                key = (tuple(map(add, xa, xb)), mask)
                v = terms.get(key, 0) + sign * ca * cb
                if v:
                    terms[key] = v
                else:
                    terms.pop(key, None)
        return SuperPolynomial._adopt(self.n, self.m, terms)

    def parity(self) -> int | None:
        pars = {k[1].bit_count() & 1 for k in self.terms}
        if len(pars) == 1:
            return pars.pop()
        return None

    # ---- display / serialization ----------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def to_json_terms(self) -> list[dict]:
        return [
            {"coeff": c, "x": list(xexp), "w": list(mask_to_indices(omask))}
            for (xexp, omask), c in self.sorted_terms()
        ]


# ---- symmetric group action ---------------------------------------------

@lru_cache(maxsize=None)
def _twist(d: int, e: int, bits: int):
    """Images of x_1^d x_2^e w^bits (bits over w_1, w_2) in two strands under
    the Demazure operator and under s_1, each a tuple of ((d', e'), bits', c).

    These images are the whole action of demazure(i, .) and apply_simple(i, .)
    on x^a w^S with (a_i, a_{i+1}) = (d, e) and bits i, i+1 of S: the odd
    block stays in the adjacent slots i, i+1 with the same number of factors,
    so the Koszul sign against the other odd generators never changes.
    """
    # s_1 permutes x_1, x_2 and sends w_1 to w_1 + (x_1 - x_2) w_2; replacing
    # w_1 by w_2 keeps the increasing order, so no extra sign appears.
    simple = {((e, d), bits): 1}
    if bits == 1:
        simple[(e + 1, d), 2] = 1
        simple[(e, d + 1), 2] = -1
    diff = {((d, e), bits): 1}
    for key, c in simple.items():
        diff[key] = diff.get(key, 0) - c
    # Exact division by x_1 - x_2, using x_1^a x_2^b =
    # (x_1 - x_2) sum_r x_1^{a-1-r} x_2^{b+r} + x_2^{a+b}; the accumulated
    # remainder must cancel to zero.
    quo, rem = {}, {}
    for ((a, b), s), c in diff.items():
        for r in range(a):
            key = ((a - 1 - r, b + r), s)
            quo[key] = quo.get(key, 0) + c
        key = ((0, a + b), s)
        rem[key] = rem.get(key, 0) + c
    if any(rem.values()):
        raise ArithmeticError(
            "non-exact division by x_1 - x_2: remainder %r" % rem)
    return (tuple((k, s, c) for (k, s), c in quo.items() if c),
            tuple((k, s, c) for (k, s), c in simple.items()))


def _apply_twist(i: int, f: SuperPolynomial, image: int) -> SuperPolynomial:
    """Apply the operator whose two-strand images are _twist(...)[image] at
    strands i, i+1 of f, term by term."""
    n = f.n
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple index {i} out of range for n={n}")
    shift = i - 1
    keep = ~(3 << shift)
    terms: dict[Monomial, int] = {}
    for (xexp, omask), c in f.terms.items():
        head, tail = xexp[:shift], xexp[i + 1:]
        rest = omask & keep
        for de, bits, k in _twist(xexp[shift], xexp[i], (omask >> shift) & 3)[image]:
            key = (head + de + tail, rest | (bits << shift))
            terms[key] = terms.get(key, 0) + k * c
    return SuperPolynomial(n, f.m, terms)


def apply_simple(i: int, f: SuperPolynomial) -> SuperPolynomial:
    """Action of s_i: permutes x_i, x_{i+1} and sends w_i to
    w_i + (x_i - x_{i+1}) w_{i+1}, fixing the other odd generators."""
    return _apply_twist(i, f, 1)


def apply_perm(p: Perm, f: SuperPolynomial) -> SuperPolynomial:
    for i in symgroup.reduced_word(tuple(p)):
        f = apply_simple(i, f)
    return f


def demazure(i: int, f: SuperPolynomial) -> SuperPolynomial:
    """Demazure operator (f - s_i f) / (x_i - x_{i+1})."""
    return _apply_twist(i, f, 0)


def demazure_word(letters: Word, f: SuperPolynomial) -> SuperPolynomial:
    for i in letters:
        f = demazure(i, f)
    return f


def demazure_perm(p: Perm, f: SuperPolynomial) -> SuperPolynomial:
    return demazure_word(symgroup.reduced_word(tuple(p)), f)


# ---- symmetric polynomials ------------------------------------------------

def complete_h(n: int, m: int, j: int, lo: int, hi: int) -> SuperPolynomial:
    """Complete homogeneous symmetric polynomial h_j in x_lo..x_hi."""
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"bad variable range {lo}..{hi} for n={n}")
    if j < 0:
        return SuperPolynomial.zero(n, m)
    left, right = (0,) * (lo - 1), (0,) * (n - hi)
    return SuperPolynomial(n, m, {(left + e + right, 0): 1
                                  for e in exponent_vectors(hi - lo + 1, j)})


def elementary_e(n: int, m: int, j: int, lo: int, hi: int) -> SuperPolynomial:
    """Elementary symmetric polynomial e_j in x_lo..x_hi (zero for j too big)."""
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"bad variable range {lo}..{hi} for n={n}")
    if j < 0 or j > hi - lo + 1:
        return SuperPolynomial.zero(n, m)
    terms: dict[Monomial, int] = {}
    for combo in itertools.combinations(range(lo, hi + 1), j):
        e = [0] * n
        for i in combo:
            e[i - 1] = 1
        terms[(tuple(e), 0)] = 1
    return SuperPolynomial(n, m, terms)


# ---- labeled odd generators ------------------------------------------------

@lru_cache(maxsize=None)
def labeled_omega(n: int, m: int, k: int, a: int) -> SuperPolynomial:
    """The labeled generator w_k^a, a >= m+1, expanded over the minimal-label
    generators: w_k^a = w_{k-1}^{a-1} - x_k w_k^{a-1}, in the closed form
    w_k^{m+1+t} = sum_l (-1)^{t+k+l} h_{t+l-k}(l..k) w_l."""
    if not 1 <= k <= n:
        raise ValueError(f"index {k} out of range 1..{n}")
    t = a - (m + 1)
    if t < 0:
        raise ValueError(f"label {a} below the minimal label {m + 1}")
    terms: dict[Monomial, int] = {}
    for l in range(1, k + 1):
        sign = -1 if (t + k + l) & 1 else 1
        for (xexp, _), c in complete_h(n, m, t + l - k, l, k).terms.items():
            terms[(xexp, 1 << (l - 1))] = sign * c
    return SuperPolynomial(n, m, terms)


def omega_top_decomposition(n: int, m: int, k: int) -> list[tuple[int, SuperPolynomial]]:
    """Coefficients expressing w_k over the labeled top generators w_n^a:
    w_k = sum_l e_l(k+1..n) w_n^{m+1+n-k-l}; returns (label, coefficient) pairs."""
    if not 1 <= k <= n:
        raise ValueError(f"index {k} out of range 1..{n}")
    out = []
    for l in range(0, n - k + 1):
        coeff = (SuperPolynomial.one(n, m) if l == 0
                 else elementary_e(n, m, l, k + 1, n))
        out.append((m + 1 + n - k - l, coeff))
    return out


def omega_to_top(n: int, m: int, k: int) -> SuperPolynomial:
    """Expand the w_n^a combination from omega_top_decomposition; the result
    round-trips to the plain generator w_k."""
    acc = SuperPolynomial.zero(n, m)
    for a, coeff in omega_top_decomposition(n, m, k):
        acc = acc + coeff * labeled_omega(n, m, n, a)
    return acc
