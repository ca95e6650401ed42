"""
The invariant subring under the symmetric group action: Schur superpolynomials,
Schubert polynomials, and the decomposition of the full ring over invariants
with Schubert coefficients.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import symgroup
from .linalg import solve
from .superring import (
    SuperPolynomial, apply_simple, demazure_perm, exponent_vectors, mask_to_indices,
)
from .symgroup import Perm


@dataclass(frozen=True)
class Superpartition:
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


def schur_zero_product(n: int, m: int, beta, betap) -> SuperPolynomial:
    """Product of two beta-only Schur superpolynomials, computed by ring
    multiplication; equals the signed Schur of the merged partition."""
    return schur_zero(n, m, beta) * schur_zero(n, m, betap)


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


def _symmetric_monomial_basis(n: int, m: int, d: int) -> list[SuperPolynomial]:
    """Monomial symmetric polynomials of degree d in n variables: the
    exponent vectors of total d grouped into S_n-orbits by sorted exponent."""
    orbits: dict[tuple[int, ...], dict] = {}
    for e in exponent_vectors(n, d):
        orbits.setdefault(tuple(sorted(e)), {})[(e, 0)] = 1
    return [SuperPolynomial(n, m, terms) for terms in orbits.values()]


def decompose_even_over_schubert(f: SuperPolynomial) -> dict[Perm, SuperPolynomial]:
    """Write a purely even polynomial as sum c_p . schubert(p) with symmetric
    coefficients, solving one integer linear system per x-degree."""
    n, m = f.n, f.m
    if any(key[1] for key in f.terms):
        raise ValueError("decompose_even_over_schubert expects an even polynomial")
    perms = list(symgroup.all_permutations(n))
    schuberts = {p: schubert(n, m, p) for p in perms}
    out: dict[Perm, SuperPolynomial] = {p: SuperPolynomial.zero(n, m) for p in perms}
    by_degree: dict[int, dict] = {}
    for (xexp, _), c in f.terms.items():
        by_degree.setdefault(sum(xexp), {})[xexp] = c
    for d, comp in sorted(by_degree.items()):
        columns = []  # (perm, symmetric basis poly)
        for p in perms:
            rem = d - symgroup.length(p)
            if rem < 0:
                continue
            for sym in _symmetric_monomial_basis(n, m, rem):
                columns.append((p, sym * schuberts[p], sym))
        rows = list(exponent_vectors(n, d))
        row_index = {e: i for i, e in enumerate(rows)}
        matrix: list[dict[int, int]] = [{} for _ in rows]
        for j, (_, prod, _) in enumerate(columns):
            for (xexp, _), c in prod.terms.items():
                matrix[row_index[xexp]][j] = c
        rhs = [comp.get(e, 0) for e in rows]
        sol = solve(matrix, rhs, len(columns))
        if sol is None:
            raise ArithmeticError("inconsistent Schubert decomposition (bug)")
        for j, (p, _, sym) in enumerate(columns):
            if sol[j]:
                if sol[j].denominator != 1:
                    raise ArithmeticError("non-integral Schubert coefficient (bug)")
                out[p] = out[p] + sym.scale(int(sol[j]))
    return {p: c for p, c in out.items() if not c.is_zero()}


def strip_omega_parts(f: SuperPolynomial) -> dict[tuple[int, ...], SuperPolynomial]:
    """Write f as sum over strict partitions mu of p_mu(x) . schur_zero(mu),
    by triangular elimination in lexicographic order on mu."""
    n, m = f.n, f.m
    coeffs: dict[tuple[int, ...], SuperPolynomial] = {}
    rem = f
    guard = 0
    while not rem.is_zero():
        guard += 1
        if guard > 4 ** n + 4:
            raise ArithmeticError("omega stripping failed to terminate (bug)")
        # lexicographically smallest odd support present
        mask = min((omask for (_, omask) in rem.terms), key=mask_to_indices)
        mu = mask_to_indices(mask)
        part = SuperPolynomial(n, m, {
            (xexp, 0): c for (xexp, omask), c in rem.terms.items() if omask == mask})
        coeffs[mu] = coeffs.get(mu, SuperPolynomial.zero(n, m)) + part
        rem = rem - part * schur_zero(n, m, mu)
    return {mu: c for mu, c in coeffs.items() if not c.is_zero()}


def decompose_over_invariants(f: SuperPolynomial) -> dict[Perm, SuperPolynomial]:
    """Coefficients c_p in the invariant subring with f = sum c_p . schubert(p)."""
    n, m = f.n, f.m
    acc: dict[Perm, SuperPolynomial] = {}
    for mu, p_mu in strip_omega_parts(f).items():
        s_mu = schur_zero(n, m, mu)
        for perm, sym in decompose_even_over_schubert(p_mu).items():
            cur = acc.get(perm, SuperPolynomial.zero(n, m))
            acc[perm] = cur + sym * s_mu
    return {p: c for p, c in acc.items() if not c.is_zero()}


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
