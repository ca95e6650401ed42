"""
The enlarged nilHecke superalgebra on n strands with floating-dot parameter m:
canonical normal forms x^k w^S T_p, multiplication, the defining action on the
super polynomial ring, distinguished elements, bases and relation checks.

Normal form strategy: a product is reduced by left-multiplying generators onto
normal forms with the single twist rule T_i . f = d_i(f) + s_i(f) T_i  (f in
the coefficient ring), together with T_i T_p = T_{s_i p} when lengths add and
zero otherwise.
"""
from __future__ import annotations

import bisect
import itertools
from collections.abc import Collection, Iterator
from functools import cache, lru_cache, partial, reduce
from operator import add, mul
from typing import NamedTuple

from . import symgroup
from .superring import (
    LinearCombination, SuperPolynomial, Monomial, _merge_masks, accumulate,
    apply_simple, demazure, demazure_word, exponent_vectors, labeled_omega,
    mask_to_indices, monomials_at, odd_degree,
)
from .symgroup import Perm, Word

TermKey = tuple[tuple[int, ...], int, Perm]  # (xexp, omask, perm)


class AlgebraElement(LinearCombination):
    """An element in the canonical basis x^k w^S T_p."""

    __slots__ = ()

    # ---- constructors -------------------------------------------------
    @classmethod
    def one(cls, n: int, m: int) -> "AlgebraElement":
        return cls.const(n, m, 1)

    @classmethod
    def const(cls, n: int, m: int, c: int) -> "AlgebraElement":
        if c == 0:
            return cls(n, m)
        return cls(n, m, {((0,) * n, 0, symgroup.identity(n)): c})

    @classmethod
    def from_poly(cls, f: SuperPolynomial) -> "AlgebraElement":
        e = symgroup.identity(f.n)
        return cls(f.n, f.m, {(x, om, e): c for (x, om), c in f.terms.items()})

    @classmethod
    def x(cls, n: int, m: int, i: int, power: int = 1) -> "AlgebraElement":
        return cls.from_poly(SuperPolynomial.x(n, m, i, power))

    @classmethod
    def w(cls, n: int, m: int, i: int) -> "AlgebraElement":
        return cls.from_poly(SuperPolynomial.w(n, m, i))

    @classmethod
    def w_labeled(cls, n: int, m: int, i: int, a: int) -> "AlgebraElement":
        return cls.from_poly(labeled_omega(n, m, i, a))

    @classmethod
    def T(cls, n: int, m: int, i: int) -> "AlgebraElement":
        if not 1 <= i <= n - 1:
            raise ValueError(f"T index {i} out of range for n={n}")
        return cls(n, m, {((0,) * n, 0, symgroup.simple(n, i)): 1})

    @classmethod
    def T_word(cls, n: int, m: int, letters: Word) -> "AlgebraElement":
        acc = cls.one(n, m)
        for i in letters:
            acc = cls.T(n, m, i) * acc
        return acc

    @classmethod
    def T_perm(cls, n: int, m: int, p: Perm) -> "AlgebraElement":
        return cls(n, m, {((0,) * n, 0, tuple(p)): 1})

    @classmethod
    def monomial(cls, n: int, m: int, xexp, omask: int, perm: Perm, coeff: int = 1) -> "AlgebraElement":
        return cls(n, m, {(tuple(xexp), omask, tuple(perm)): coeff})

    # ---- multiplication --------------------------------------------------
    def _group_by_perm(self) -> dict[Perm, SuperPolynomial]:
        groups: dict[Perm, dict[Monomial, int]] = {}
        for (xexp, omask, perm), c in self.terms.items():
            groups.setdefault(perm, {})[(xexp, omask)] = c
        return {p: SuperPolynomial._adopt(self.n, self.m, t) for p, t in groups.items()}

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement._adopt(self.n, self.m, _times(
            self._group_by_perm(), other._group_by_perm()))

    # ---- grading and display ------------------------------------------------
    def monomial_bidegree(self, key: TermKey) -> tuple[int, int]:
        q, lam = super().monomial_bidegree(key)
        return q - 2 * symgroup.length(key[2]), lam

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1]))

    def _factors(self, key: TermKey) -> list[str]:
        factors = super()._factors(key)
        if symgroup.length(key[2]):
            factors.extend(f"T{i}" for i in reversed(symgroup.reduced_word(key[2])))
        return factors

    def to_json_terms(self) -> list[dict]:
        return [
            {"coeff": c, "x": list(xexp), "w": list(mask_to_indices(omask)),
             "perm": list(perm)}
            for (xexp, omask, perm), c in self.sorted_terms()
        ]


@lru_cache(maxsize=None)
def _compose_adding(rho: Perm, sigma: Perm) -> Perm | None:
    """rho.sigma when the lengths add, else None (then T_rho T_sigma = 0)."""
    prod = symgroup.compose(rho, sigma)
    adds = symgroup.length(prod) == symgroup.length(rho) + symgroup.length(sigma)
    return prod if adds else None


def _times(left: dict[Perm, SuperPolynomial],
           right: dict[Perm, SuperPolynomial]) -> dict[TermKey, int]:
    """Terms of the product of two elements given as groups perm -> ring part:
    f T_theta . g T_sigma is the sum of the shifts of z = sum_rho h_rho
    T_{rho sigma} by the monomials of f, where T_theta . g = sum_rho h_rho
    T_rho comes from push_T_through once per (theta, terms of g) in the call,
    even if g recurs under another sigma, and T_rho T_sigma = 0 unless the
    lengths add.  A unit g needs no push: T_theta . 1 = T_theta."""
    out: dict[TermKey, int] = {}
    push_cache: dict = {}
    for sigma, g in right.items():
        gkey = tuple(g.terms.items())
        unit = gkey == ((((0,) * g.n, 0), 1),)
        for theta, f in left.items():
            pushed = {theta: g} if unit else push_cache.get((theta, gkey))
            if pushed is None:
                pushed = push_cache[theta, gkey] = push_T_through(
                    symgroup.reduced_word(theta), g)
            # the identity of S_0 is (), so test for None, not for truth
            z = [((e, o, perm), c) for rho, h in pushed.items()
                 if (perm := _compose_adding(rho, sigma)) is not None
                 for (e, o), c in h.terms.items()]
            for (xexp, omask), c in f.terms.items():
                accumulate(out, shift(xexp, omask, c, z))
    return out


def shift(xexp, omask: int, c: int, terms):
    """The terms (key, coefficient) of c x^a w^S . z, a = xexp and S = omask,
    for the terms ((e, O, k), cc) of a normal form z.  A ring monomial
    multiplies a normal form from the left with no push: x^a w^S . x^e w^O T_k
    is 0 when S and O meet, else the Koszul sign of _merge_masks(S, O) times
    x^{a+e} w^{S+O} T_k.  e, O and k can be read back from that key, so
    distinct terms land on distinct keys.  Keys are unpacked as exact
    triples: the ring-level loops (SuperPolynomial.__mul__, odd_images,
    _d_ring) keep their own, since a key-generic form measured 8-10% slower
    on the cyclotomic jobs."""
    for (e, o, k), cc in terms:
        sign, mask = _merge_masks(omask, o)
        if sign:
            yield (tuple(map(add, xexp, e)), mask, k), sign * c * cc


def push_T_through(letters: Word, f: SuperPolynomial) -> dict[Perm, SuperPolynomial]:
    """Normal form of T_w . f as a map perm -> coefficient, via the twist rule
    T_i . g = d_i(g) + s_i(g) T_i applied letter by letter, bottom-to-top."""
    result: dict[Perm, SuperPolynomial] = {symgroup.identity(f.n): f}
    for i in letters:
        new: dict[Perm, SuperPolynomial] = {}
        for rho, h in result.items():
            images = [(rho, demazure(i, h))]
            srho = symgroup.apply_word_letter(rho, i)
            if symgroup.length(srho) == symgroup.length(rho) + 1:
                images.append((srho, apply_simple(i, h)))
            for perm, poly in images:
                poly = new[perm] + poly if perm in new else poly
                if poly.is_zero():
                    new.pop(perm, None)
                else:
                    new[perm] = poly
        result = new
    return result


def act(u: AlgebraElement, f: SuperPolynomial) -> SuperPolynomial:
    """Defining action on the coefficient ring: x^k w^S T_p acts as
    multiplication by x^k w^S after the Demazure word of p."""
    if u.n != f.n or u.m != f.m:
        raise ValueError("parameter mismatch between operator and argument")
    n, m = u.n, u.m
    acc = SuperPolynomial.zero(n, m)
    for (xexp, omask, perm), c in u.terms.items():
        g = demazure_word(symgroup.reduced_word(perm), f)
        if g.is_zero():
            continue
        mono = SuperPolynomial.monomial(n, m, xexp, omask, c)
        acc = acc + mono * g
    return acc


# ---- distinguished elements -------------------------------------------------

def theta(n: int, m: int, a: int) -> AlgebraElement:
    """theta_a = T_{a-1}...T_1 w_1 T_1...T_{a-1} in normal form."""
    return theta_dotted(n, m, a, power=0)


def theta_dotted(n: int, m: int, a: int, power: int) -> AlgebraElement:
    """T_{a-1}...T_1 x_1^power w_1 T_1...T_{a-1} (dot inside the tight word)."""
    if not 1 <= a <= n:
        raise ValueError(f"theta index {a} out of range 1..{n}")
    acc = AlgebraElement.from_poly(
        SuperPolynomial.x(n, m, 1, power) * SuperPolynomial.w(n, m, 1))
    for i in range(1, a):
        t = AlgebraElement.T(n, m, i)
        acc = t * acc * t
    return acc


def phi(n: int, m: int, i: int) -> AlgebraElement:
    """phi_1 = w_1 and phi_{i+1} = T_i phi_i T_i x_{i+1} - x_i T_i phi_i T_i;
    the normal form is the plain generator w_i."""
    if not 1 <= i <= n:
        raise ValueError(f"phi index {i} out of range 1..{n}")
    acc = AlgebraElement.w(n, m, 1)
    for j in range(1, i):
        t = AlgebraElement.T(n, m, j)
        mid = t * acc * t
        acc = mid * AlgebraElement.x(n, m, j + 1) - AlgebraElement.x(n, m, j) * mid
    return acc


def idempotent_e(n: int, m: int) -> AlgebraElement:
    """e_n = T_{w_0} x^delta with x^delta = x_1^{n-1}...x_{n-1}."""
    delta = tuple(n - k for k in range(1, n + 1))
    staircase = AlgebraElement.monomial(
        n, m, delta, 0, symgroup.identity(n))
    return AlgebraElement.T_perm(n, m, symgroup.longest_element(n)) * staircase


def tau(u: AlgebraElement) -> AlgebraElement:
    """The involutive anti-automorphism fixing the generators: reverses every
    word; computed on normal forms as T_{p^{-1}} . (reversed w's) . x^k."""
    n, m = u.n, u.m
    acc = AlgebraElement.zero(n, m)
    for (xexp, omask, perm), c in u.terms.items():
        h = omask.bit_count()
        sign = -1 if (h * (h - 1) // 2) & 1 else 1
        poly = SuperPolynomial.monomial(n, m, xexp, omask, sign * c)
        acc = acc + AlgebraElement.T_perm(n, m, symgroup.inverse(perm)) \
            * AlgebraElement.from_poly(poly)
    return acc


# ---- bases -----------------------------------------------------------------

def ring_monomials(n: int, m: int, qmax: int) -> list[Monomial]:
    """All ring monomials (xexp, omask) with q-degree <= qmax, odd masks
    ascending, then exponent sums ascending, then exponents in lex order."""
    out = []
    for omask in range(1 << n):
        for s in range((qmax - odd_degree(m, omask)) // 2 + 1):
            out.extend((xexp, omask) for xexp in exponent_vectors(n, s))
    return out


def _basis_blocks(n: int, m: int, qcut: int) -> list[tuple[Perm, list[Monomial]]]:
    """basis(n, m, qcut) grouped by perm, in its order: perm p's block is the
    ring monomials of q-degree <= qcut + 2 l(p), one list per distinct length."""
    by_len: dict[int, list[Monomial]] = {}
    blocks = []
    for perm in symgroup.all_permutations(n):
        plen = symgroup.length(perm)
        if plen not in by_len:
            by_len[plen] = ring_monomials(n, m, qcut + 2 * plen)
        blocks.append((perm, by_len[plen]))
    return blocks


def basis(n: int, m: int, qcut: int):
    """All basis monomials (xexp, omask, perm) with q-degree <= qcut: the
    ring monomials of q-degree <= qcut + 2 l(perm) for each perm."""
    return [(xexp, omask, perm) for perm, mons in _basis_blocks(n, m, qcut)
            for xexp, omask in mons]


def random_basis_keys(n: int, m: int, qcut: int, rng):
    """Endless draws of basis(n, m, qcut) keys, each the one that
    pool[rng.randrange(len(pool))] picks from the listed pool, without listing
    it.  Yields nothing if the basis is empty."""
    blocks = _basis_blocks(n, m, qcut)
    ends = list(itertools.accumulate(len(mons) for _, mons in blocks))
    while ends[-1]:
        i = rng.randrange(ends[-1])
        b = bisect.bisect_right(ends, i)
        perm, mons = blocks[b]
        xexp, omask = mons[i - (ends[b] - len(mons))]
        yield xexp, omask, perm


def basis_counts(n: int, m: int, qcut: int) -> dict[tuple[int, int, int], int]:
    """Counts of basis monomials per (qdeg, lambdadeg, parity), q <= qcut.

    Counted combinatorially (number of exponent vectors of a given total),
    not by listing monomials.
    """
    from math import comb
    counts: dict[tuple[int, int, int], int] = {}
    if n == 0:
        return {(0, 0, 0): 1} if qcut >= 0 else {}
    perms_by_len = symgroup.perms_by_length(n)
    for plen, nperms in perms_by_len.items():
        for omask in range(1 << n):
            lam = 2 * omask.bit_count()
            par = omask.bit_count() & 1
            base = odd_degree(m, omask) - 2 * plen
            s = 0
            while base + 2 * s <= qcut:
                key = (base + 2 * s, lam, par)
                counts[key] = counts.get(key, 0) + nperms * comb(s + n - 1, n - 1)
                s += 1
    return counts


def tight_monomial_skeletons(n: int, m: int):
    """For each permutation and choice vector, the normal form of the tight
    word T_{f^{n+1}} theta^{l}.. T_{f^1} (without the x-prefix), together with
    its bidegree.  Returns a list of (perm, choices, AlgebraElement)."""
    out = []
    for perm in symgroup.all_permutations(n):
        word = symgroup.left_adjusted_word(perm)
        s, factors, minima = symgroup.partition_word(n, word)
        for choices in itertools.product((0, 1), repeat=n):
            acc = AlgebraElement.T_word(n, m, factors[0])
            for k in range(1, n + 1):
                if choices[k - 1]:
                    acc = theta(n, m, minima[s[k - 1] - 1]) * acc
                acc = AlgebraElement.T_word(n, m, factors[k]) * acc
            out.append((perm, choices, acc))
    return out


def tight_basis(n: int, m: int, qcut: int):
    """The tight-monomial family up to q-degree qcut, each in normal form."""
    if n > 4:
        raise ValueError("tight_basis is limited to n <= 4")
    out = []
    for perm, choices, skel in tight_monomial_skeletons(n, m):
        if skel.is_zero():
            raise ArithmeticError("tight skeleton collapsed to zero (bug)")
        qs, _ = skel.bidegree()
        for s in range((qcut - qs) // 2 + 1):
            for xexp in exponent_vectors(n, s):
                xmono = AlgebraElement.monomial(n, m, xexp, 0, symgroup.identity(n))
                out.append(xmono * skel)
    return out


def random_element(n: int, m: int, rng, nterms: int = 4, maxexp: int = 2) -> AlgebraElement:
    """Small random element, coefficients in -3..3, for seeded verification suites."""
    perms = list(symgroup.all_permutations(n))
    terms: dict[TermKey, int] = {}
    for _ in range(nterms):
        xe = tuple(rng.randrange(maxexp + 1) for _ in range(n))
        om = rng.randrange(1 << n)
        perm = perms[rng.randrange(len(perms))]
        c = rng.randrange(-3, 4)
        if c:
            terms[(xe, om, perm)] = terms.get((xe, om, perm), 0) + c
    return AlgebraElement(n, m, {k: c for k, c in terms.items() if c})


# ---- presentation and relation suite -------------------------------------------

class Atom(NamedTuple):
    """x_i, w_i^a, T_i or d(w_i^a): kind "x", "w", "T" or "dw"; a = 0 for x, T."""
    kind: str
    i: int
    a: int = 0


def presentation(n: int, m: int) -> Iterator[tuple[str, tuple]]:
    """The relations of A_n as data: (name, expression) pairs, each
    expression 0 in A_n.  An expression is a tuple of terms (c, f_1, .., f_k)
    for c f_1 .. f_k; a factor is an Atom or an expression of one parity,
    such as T_i w_i T_i, evaluated once wherever it recurs.

    The entries at label m+1 restate the definition of A_n by generators
    x_i, w_i = w_i^{m+1}, T_i in Naisse-Vaz (arXiv:1603.01555) and in
    arXiv:1704.08205: the nilHecke relations, super-commutativity of the x_i
    and w_i, and T_i commuting with w_k (k != i) and w_i - x_{i+1} w_{i+1}.
    Consequences kept only as checks (a derivation with the Leibniz rule on
    relations has it on their consequences): labels m+2..m+4 (labeled_omega);
    the translation w_{i+1} = x_{i+1} T_i w_i T_i - T_i w_i T_i x_i in both
    forms, as T_i w_i T_i = -T_i w_{i+1}; and T1 w1 T1 w1 = -w1 T1 w1 T1.
    """
    x, T, w = ({i: Atom(kind, i, a) for i in range(1, n + 1)}
               for kind, a in (("x", 0), ("T", 0), ("w", m + 1)))

    def commute(f, g, sign=-1):
        return (1, f, g), (sign, g, f)

    for i in range(1, n):
        yield f"T{i}^2 = 0", ((1, T[i], T[i]),)
        yield f"T{i} x{i} - x{i+1} T{i} = 1", ((1, T[i], x[i]), (-1, x[i + 1], T[i]), (-1,))
        yield f"T{i} x{i+1} - x{i} T{i} = -1", ((1, T[i], x[i + 1]), (-1, x[i], T[i]), (1,))
        for j in range(1, n + 1):
            if j - i not in (0, 1):
                yield f"T{i} x{j} = x{j} T{i}", commute(T[i], x[j])
    for i in range(1, n - 1):
        yield f"braid T{i} T{i+1} T{i}", (
            (1, T[i], T[i + 1], T[i]), (-1, T[i + 1], T[i], T[i + 1]))
    for i in range(1, n):
        for j in range(i + 2, n):
            yield f"distant T{i} T{j}", commute(T[i], T[j])
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            yield f"x{i} x{j} commute", commute(x[i], x[j])
            yield f"x{i} w{j} commute", commute(x[i], w[j])
            if i != j:
                yield f"w{i} w{j} anticommute", commute(w[i], w[j], 1)
        yield f"w{i}^2 = 0", ((1, w[i], w[i]),)
    for a in range(m + 1, m + 5):
        wa = {k: Atom("w", k, a) for k in range(1, n + 1)}
        for i in range(1, n):
            for k in range(1, n + 1):
                if k != i:
                    yield f"T{i} w{k}^{a} commute", commute(T[i], wa[k])
            combo = ((1, wa[i]), (-1, x[i + 1], wa[i + 1]))
            yield f"T{i} (w{i}^{a} - x{i+1} w{i+1}^{a}) commute", commute(T[i], combo)
        for i in range(1, n):
            mid = ((1, T[i], wa[i], T[i]),)
            yield f"translate w{i+1}^{a}", ((1, wa[i + 1]), (-1, x[i + 1], mid), (1, mid, x[i]))
            yield f"translate w{i+1}^{a} (other form)", (
                (1, wa[i + 1]), (-1, mid, x[i + 1]), (1, x[i], mid))
    if n >= 2:
        yield "T1 w1 T1 w1 = - w1 T1 w1 T1", (
            (1, T[1], w[1], T[1], w[1]), (1, w[1], T[1], w[1], T[1]))


def _parity(factors) -> int:
    """The number of odd atoms in a product of presentation factors, mod 2."""
    return sum(f.kind == "w" if isinstance(f, Atom) else _parity(f[0][1:])
               for f in factors) % 2


def leibniz(expr: tuple) -> tuple:
    """The Leibniz expansion of a presentation expression under an odd
    derivation d with d(x_i) = d(T_i) = 0: d on one odd atom at a time, with
    the Koszul sign (-1)^(odd atoms before it), d(w_i^a) as Atom("dw", i, a)."""
    def d(f):
        if isinstance(f, Atom):
            return Atom("dw", f.i, f.a) if f.kind == "w" else ()
        return leibniz(f)
    return tuple(((-1) ** _parity(fs[:j]) * c, *fs[:j], df, *fs[j + 1:])
                 for c, *fs in expr for j, f in enumerate(fs) if (df := d(f)))


def verify_relations(n: int, m: int, d=None) -> list[str]:
    """Names of the entries of presentation(n, m) not 0 in normal form; given
    d, an odd derivation on normal forms, of those whose Leibniz expansion is
    not 0, ("dw", i, a) valued d(w_i^a).  Each factor is evaluated once."""
    E = AlgebraElement

    @cache
    def value(f) -> AlgebraElement:
        if isinstance(f, Atom):
            if f.kind == "dw":
                return d(value(f._replace(kind="w")))
            return E.w_labeled(n, m, f.i, f.a) if f.kind == "w" else getattr(E, f.kind)(n, m, f.i)
        out: dict[TermKey, int] = {}
        for c, *fs in f:
            u = reduce(mul, map(value, fs)) if fs else E.one(n, m)
            accumulate(out, ((k, c * v) for k, v in u.terms.items()))
        return E._adopt(n, m, out)

    failed = [name for name, expr in presentation(n, m)
              if not value(expr if d is None else leibniz(expr)).is_zero()]
    value.cache_clear()  # value refers to itself, a cycle: free its values now
    return failed


# ---- cyclotomic quotients -----------------------------------------------------

def spanning_rank_table(n: int, m: int, middle: AlgebraElement,
                        blocks: Collection[tuple[int, int, int]]
                        ) -> dict[tuple[int, int, int], int]:
    """Per-(q, lambda, parity) rank of the two-sided span { u . z . v } over
    basis monomials u, v, for the middle z and each key of blocks.

    When every term of z has the identity permutation, z is a homogeneous
    ring element, and super-commutativity gives z . x^a w^S = +-x^a w^S . z,
    so u . z . (x^a w^S T_p) = +-(u x^a w^S) . z . T_p, where u x^a w^S is a
    sum of basis monomials of one degree: then v = T_p for p in S_n already
    spans the ideal.  Otherwise (as for idempotent_e) v ranges over all basis
    monomials.  For u = x^a w^S T_r, associativity gives the row
    u . z . v = x^a w^S . G_{r,v}, with G_{r,v} = T_r . z . v formed once per
    call, and the row is shift(a, S, 1, G_{r,v}): distinct terms land on
    distinct keys, so nothing accumulates.  Rows go
    per degree of v in order of first appearance, then u in basis_at_bidegree
    order, then v; zero rows are skipped.
    """
    from .linalg import IntEchelon
    if middle.bidegree() is None:
        raise ValueError("middle element must be homogeneous and nonzero")
    if not blocks:
        return {}
    dq, dl = middle.bidegree()
    perms = list(symgroup.all_permutations(n))
    if all(perm == symgroup.identity(n) for _, _, perm in middle.terms):
        vs = [((0,) * n, 0, p) for p in perms]
    else:  # up to the top block's q, less the least q-degree of a u
        least = sum(min(0, odd_degree(m, 1 << i)) for i in range(n)) - n * (n - 1)
        vs = basis(n, m, max(q for q, _, _ in blocks) - dq - least)
    rights: dict[tuple[int, int], list[TermKey]] = {}
    for v in vs:
        rights.setdefault(middle.monomial_bidegree(v), []).append(v)
    left_basis = lru_cache(maxsize=None)(partial(basis_at_bidegree, n, m))
    t_mid = {r: AlgebraElement.T_perm(n, m, r) * middle for r in perms}

    @lru_cache(maxsize=None)
    def generator(r: Perm, v: TermKey) -> list[tuple[TermKey, int]]:
        return list((t_mid[r] * AlgebraElement(n, m, {v: 1})).terms.items())

    def rank_at(q: int, l: int) -> int:
        monos = basis_at_bidegree(n, m, q, l)
        index = {key: i for i, key in enumerate(monos)}
        ech = IntEchelon(len(monos))
        for (qv, lv), rs in rights.items():
            for a, s, r in left_basis(q - dq - qv, l - dl - lv):
                for v in rs:
                    row = {index[key]: c for key, c in shift(a, s, 1, generator(r, v))}
                    if row and ech.add(row) and ech.is_full():
                        return ech.rank
        return ech.rank

    return {key: r for key in blocks if (r := rank_at(key[0], key[1]))}


def basis_at_bidegree(n: int, m: int, q: int, lam: int) -> list[TermKey]:
    """Basis monomials at an exact bidegree, grouped by permutation."""
    return [(xexp, omask, perm) for perm in symgroup.all_permutations(n)
            for xexp, omask in monomials_at(n, m, q + 2 * symgroup.length(perm), lam)]


# (n, N) -> {q: rank}, filled and read only by nilhecke_ideal_ranks.
_IDEAL_RANKS: dict[tuple[int, int], dict[int, int]] = {}


def nilhecke_ideal_ranks(n: int, N: int, qcut: int) -> dict[int, int]:
    """Rank of the lambda = 0 block of the two-sided ideal (x_1^N) at m = -1,
    per q-degree q <= qcut of a nonempty lambda = 0 block: the nilHecke ideal
    (x_1^N) of NH_n (Hoffnung-Lauda).  At n = 0 there is no x_1 and the ideal
    is zero.

    A block's rank is a pure function of (n, N, q), so each is ranked once per
    process and kept in _IDEAL_RANKS; a call ranks the blocks that no earlier
    call ranked, all in one spanning_rank_table call, and the table for one
    qcut is the restriction of the table for any larger qcut.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    m = -1
    qs = [q for q, lam, _ in basis_counts(n, m, qcut) if lam == 0]
    held = _IDEAL_RANKS.setdefault((n, N), {})
    todo = [(q, 0, 0) for q in qs if q not in held]
    ranks = spanning_rank_table(n, m, AlgebraElement.x(n, m, 1, N), todo) if todo and n else {}
    held.update((key[0], ranks.get(key, 0)) for key in todo)
    return {q: held[q] for q in qs}


def cyclotomic_grdim(n: int, N: int, qcut: int) -> dict[tuple[int, int, int], int]:
    """Graded dimension of the quotient by the two-sided ideal (x_1^N), at
    minimal label parameter -1, per (q, lambda, parity) with q <= qcut.

    Only lambda = 0 blocks are ranked, by nilhecke_ideal_ranks.  A generator
    G_{r,p} = T_r . x_1^N . T_p of spanning_rank_table has no odd factor, so
    _merge_masks(S, 0) = (+1, S): the row x^a w^S . G_{r,p} of
    u = x^a w^S T_r lies in the columns of odd mask S, rows for distinct S
    land on disjoint column sets, and a block's rank is the sum of its
    mask-S components' ranks.  x^a w^S T_r <-> x^a T_r is a bijection that
    lowers every degree by odd_degree(-1, S) and carries the mask-S rows to
    exactly the rows of the lambda = 0 block at q - odd_degree(-1, S).  So the
    ideal is Lambda(w) (x) its lambda = 0 part; odd degrees are at least
    -n(n+1), so those blocks reach q up to qcut + n(n+1).
    """
    m = -1
    rank0 = nilhecke_ideal_ranks(n, N, qcut + n * (n + 1))
    quotient = {key: d - sum(rank0.get(key[0] - odd_degree(m, s), 0) for s in range(1 << n)
                             if 2 * s.bit_count() == key[1])
                for key, d in basis_counts(n, m, qcut).items()}
    return {key: d for key, d in quotient.items() if d}
