"""
The invariant subring under the symmetric group action: Schur superpolynomials,
Schubert polynomials, and the decomposition of the full ring over invariants
with Schubert coefficients, each one Demazure pairing with the dual basis.
"""
from __future__ import annotations

import itertools
from typing import NamedTuple

from . import symgroup
from .superring import SuperPolynomial, apply_perm, apply_simple, demazure_perm
from .symgroup import Perm


class Superpartition(NamedTuple):
    """A pair (alpha, beta): alpha weakly decreasing with n parts allowed,
    beta strictly increasing with entries in 1..n."""
    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def validate(self, n: int):
        if len(self.alpha) > n:
            raise ValueError("alpha has more than n parts")
        if any(a < 0 for a in self.alpha):
            raise ValueError("alpha entries must be nonnegative")
        if any(self.alpha[i] < self.alpha[i + 1] for i in range(len(self.alpha) - 1)):
            raise ValueError("alpha must be weakly decreasing")
        if any(self.beta[i] >= self.beta[i + 1] for i in range(len(self.beta) - 1)):
            raise ValueError("beta must be strictly increasing")
        if self.beta and (self.beta[0] < 1 or self.beta[-1] > n):
            # beta_1 = 0 is allowed on paper but w_0 is zero; reject at ring level
            raise ValueError("beta entries must lie in 1..n")


def staircase_monomial(n: int, m: int, alpha=()) -> SuperPolynomial:
    """x_1^{n-1+alpha_1} x_2^{n-2+alpha_2} ... x_n^{alpha_n}."""
    alpha = tuple(alpha) + (0,) * (n - len(alpha))
    exps = tuple(n - 1 - k + alpha[k] for k in range(n))
    return SuperPolynomial.monomial(n, m, exps, 0)


def schur_super(n: int, m: int, sp: Superpartition) -> SuperPolynomial:
    """Schur superpolynomial: the full Demazure operator applied to the
    staircase monomial times w_{beta_1}...w_{beta_k}."""
    sp.validate(n)
    f = staircase_monomial(n, m, sp.alpha)
    for i in sp.beta:
        f = f * SuperPolynomial.w(n, m, i)
    return demazure_perm(symgroup.longest_element(n), f)


def schur_zero(n: int, m: int, beta) -> SuperPolynomial:
    return schur_super(n, m, Superpartition((), tuple(beta)))


def is_invariant(f: SuperPolynomial) -> bool:
    return all(apply_simple(i, f) == f for i in range(1, f.n))


def eps_sign(beta, betap) -> tuple[int, tuple[int, ...]]:
    """Sign (-1)^eps and merged strict partition for the product rule;
    returns (0, ()) when the partitions share an entry."""
    beta, betap = tuple(beta), tuple(betap)
    if set(beta) & set(betap):
        return 0, ()
    eps = sum(1 for b in beta for bp in betap if b > bp)
    sign = -1 if eps & 1 else 1
    return sign, tuple(sorted(beta + betap))


def schubert(n: int, m: int, p: Perm) -> SuperPolynomial:
    """Schubert polynomial for p: Demazure along p^{-1} w_0 applied to the
    staircase monomial."""
    w0 = symgroup.longest_element(n)
    u = symgroup.compose(symgroup.inverse(tuple(p)), w0)
    return demazure_perm(u, staircase_monomial(n, m))


def strict_partitions(n: int):
    """All strict partitions with entries in 1..n, as increasing tuples."""
    out = []
    for k in range(n + 1):
        out.extend(itertools.combinations(range(1, n + 1), k))
    return out


def decompose_over_invariants(f: SuperPolynomial) -> dict[Perm, SuperPolynomial]:
    """Coefficients c_v in the invariant subring with f = sum c_v . schubert(v).

    <f, g> = demazure_perm(w0, f . g) is linear over the invariants, as
    demazure(i, c . g) = c . demazure(i, g) when s_i fixes c (Demazure
    operators are even: no Koszul sign), and <schubert(u), w0(schubert(v w0))>
    = (-1)^{l(v w0)} delta_{uv} (Macdonald, Notes on Schubert polynomials,
    1991).  So c_v = (-1)^{l(v w0)} <f, w0(schubert(v w0))>: no linear system.
    """
    if f.is_zero():
        return {}
    n, m = f.n, f.m
    w0 = symgroup.longest_element(n)
    out: dict[Perm, SuperPolynomial] = {}
    for v in symgroup.all_permutations(n):
        u = symgroup.compose(v, w0)
        c = demazure_perm(w0, f * apply_perm(w0, schubert(n, m, u)))
        if not c.is_zero():
            out[v] = c.scale(-1) if symgroup.length(u) & 1 else c
    return out


def recombine_over_invariants(n: int, m: int, coeffs: dict[Perm, SuperPolynomial]) -> SuperPolynomial:
    acc = SuperPolynomial.zero(n, m)
    for p, c in coeffs.items():
        acc = acc + c * schubert(n, m, p)
    return acc


def invariant_basis_at_lambda(n: int, m: int, k: int) -> list[SuperPolynomial]:
    """The Schur basis elements spanning invariants of lambda-degree 2k over
    symmetric polynomials: one per strict partition with k parts."""
    if k > n:
        raise ValueError("lambda weight exceeds the number of odd generators")
    return [schur_zero(n, m, nu) for nu in itertools.combinations(range(1, n + 1), k)]
