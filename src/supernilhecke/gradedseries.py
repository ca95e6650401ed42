"""
Arithmetic in the graded-dimension ring: Z[pi]/(pi^2-1) coefficients, Laurent
polynomials in lambda and truncated Laurent series in q.  Keys are
(qdeg, lambdadeg, piexp) with pi^2 = 1.

A GradedDim is exact in lambda and windowed in q: it guarantees zero support
below qmin and exact coefficients up to qcut, where a qcut of None means an
exact Laurent polynomial.  Products and sums keep the largest sound window.
Every closed form here has only powers of (1-q^2) as denominators, so the one
division is `over_1_minus_q2`, a running sum in q-steps of 2: each formula
builds its exact numerator and divides it at the requested cut.
"""
from __future__ import annotations

from .superring import signed_sum

Key = tuple[int, int, int]


def _min_cut(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _add_cut(cut: int | None, shift: int) -> int | None:
    return None if cut is None else cut + shift


class GradedDim:
    __slots__ = ("qmin", "qcut", "coeffs")

    def __init__(self, qmin: int, qcut: int | None, coeffs: dict[Key, int] | None = None):
        if qcut is not None and qcut < qmin:
            raise ValueError(f"empty q-window: [{qmin}, {qcut}]")
        self.qmin = qmin
        self.qcut = qcut
        self.coeffs = {}
        for (q, l, p), c in (coeffs or {}).items():
            if c == 0 or q < qmin or (qcut is not None and q > qcut):
                continue
            self.coeffs[(q, l, p & 1)] = c

    # ---- constructors ----------------------------------------------------
    @classmethod
    def zero(cls) -> "GradedDim":
        return cls(0, None)

    @classmethod
    def term(cls, coeff: int = 1, q: int = 0, lam: int = 0, pi: int = 0) -> "GradedDim":
        return cls(min(q, 0), None, {(q, lam, pi): coeff})

    @classmethod
    def one(cls, qcut: int | None = None) -> "GradedDim":
        return cls(0, qcut, {(0, 0, 0): 1})

    # ---- ring operations ----------------------------------------------------
    def __add__(self, other: "GradedDim") -> "GradedDim":
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + c
        return GradedDim(min(self.qmin, other.qmin), _min_cut(self.qcut, other.qcut),
                         coeffs)

    def __neg__(self) -> "GradedDim":
        return self.scale(-1)

    def scale(self, c: int) -> "GradedDim":
        return GradedDim(self.qmin, self.qcut, {k: c * v for k, v in self.coeffs.items()})

    def __sub__(self, other: "GradedDim") -> "GradedDim":
        return self + (-other)

    def __mul__(self, other: "GradedDim") -> "GradedDim":
        qcut = _min_cut(_add_cut(self.qcut, other.qmin), _add_cut(other.qcut, self.qmin))
        coeffs: dict[Key, int] = {}
        for (q1, l1, p1), c1 in self.coeffs.items():
            for (q2, l2, p2), c2 in other.coeffs.items():
                q = q1 + q2
                if qcut is not None and q > qcut:
                    continue
                k = (q, l1 + l2, (p1 + p2) & 1)
                coeffs[k] = coeffs.get(k, 0) + c1 * c2
        return GradedDim(self.qmin + other.qmin, qcut, coeffs)

    def over_1_minus_q2(self, qcut: int) -> "GradedDim":
        """Quotient by (1 - q^2), expanded as 1 + q^2 + q^4 + ...: in each
        (lambda, pi, q-parity) column the coefficient at q is the running sum
        of the coefficients at q, q-2, q-4, ...  Exact for q <= min(self.qcut,
        qcut).

        >>> GradedDim.one().over_1_minus_q2(6)
        1 + q^2 + q^4 + q^6
        >>> (GradedDim.one() - GradedDim.term(1, 2)).over_1_minus_q2(8)
        1
        """
        cut = _min_cut(self.qcut, qcut)
        columns: dict[Key, dict[int, int]] = {}
        for (q, l, p), c in self.coeffs.items():
            columns.setdefault((l, p, q & 1), {})[q] = c
        coeffs: dict[Key, int] = {}
        for (l, p, _), column in columns.items():
            run = 0
            for q in range(min(column), cut + 1, 2):
                run += column.get(q, 0)
                coeffs[(q, l, p)] = run
        return GradedDim(self.qmin, cut, coeffs)

    def __eq__(self, other) -> bool:
        """Coefficientwise equality on the common sound window."""
        if not isinstance(other, GradedDim):
            return NotImplemented
        qcut = _min_cut(self.qcut, other.qcut)

        def window(g):
            return {k: c for k, c in g.coeffs.items() if qcut is None or k[0] <= qcut}
        return window(self) == window(other)

    def __hash__(self):
        raise TypeError("GradedDim is not hashable (window-relative equality)")

    def is_zero(self) -> bool:
        return not self.coeffs

    def truncate(self, qcut: int | None) -> "GradedDim":
        return GradedDim(self.qmin, _min_cut(self.qcut, qcut), self.coeffs)

    def specialize_pi(self, value: int) -> "GradedDim":
        """Substitute pi -> +-1; collapses the parity index."""
        coeffs: dict[Key, int] = {}
        for (q, l, p), c in self.coeffs.items():
            k = (q, l, 0)
            coeffs[k] = coeffs.get(k, 0) + (c if (p == 0 or value == 1) else -c)
        return GradedDim(self.qmin, self.qcut, coeffs)

    def coefficient(self, q: int, lam: int, pi: int = 0) -> int:
        if self.qcut is not None and q > self.qcut:
            raise ValueError(f"coefficient at q={q} outside window <= {self.qcut}")
        return self.coeffs.get((q, lam, pi & 1), 0)

    def sorted_items(self):
        return sorted(self.coeffs.items())

    def __repr__(self) -> str:
        pieces = []
        for (q, l, p), c in self.sorted_items():
            factors = ["pi"] if p else []
            if l:
                factors.append(f"L^{l}" if l != 1 else "L")
            if q:
                factors.append(f"q^{q}" if q != 1 else "q")
            pieces.append(("*".join(factors) or "1", c))
        return signed_sum(pieces)


def quantum_int(k: int) -> GradedDim:
    """[k] = q^{k-1} + q^{k-3} + ... + q^{1-k}."""
    if k < 0:
        raise ValueError("quantum integer of a negative argument")
    return GradedDim(1 - k if k else 0, None,
                     {(k - 1 - 2 * j, 0, 0): 1 for j in range(k)})


def quantum_factorial(k: int) -> GradedDim:
    acc = GradedDim.one()
    for j in range(1, k + 1):
        acc = acc * quantum_int(j)
    return acc


def _grdim_numerator(n: int, m: int) -> GradedDim:
    """(1-q^2)^n grdim A_n = q^{-n(n-1)/2} [n]! prod_{j=1..n}
    (1 + pi lam^2 q^{2m+2-2j}), an exact Laurent polynomial."""
    acc = GradedDim.term(1, -n * (n - 1) // 2) * quantum_factorial(n)
    for j in range(1, n + 1):
        acc = acc * (GradedDim.one() + GradedDim.term(1, 2 * m + 2 - 2 * j, 2, 1))
    return acc


def grdim_An(n: int, m: int, qcut: int) -> GradedDim:
    """Closed-form graded rank q^{-n(n-1)/2} [n]! prod_{j=1..n}
    (1 + pi lam^2 q^{2m+2-2j}) / (1-q^2), exact for q <= qcut."""
    acc = _grdim_numerator(n, m).truncate(qcut)
    for _ in range(n):
        acc = acc.over_1_minus_q2(qcut)
    return acc


def sdim_An(n: int, m: int, qcut: int) -> GradedDim:
    """Graded superdimension: the parity variable specialized to -1."""
    return grdim_An(n, m, qcut).specialize_pi(-1)


def ses_dimension_check(n: int, m: int) -> bool:
    """Graded-dimension identity implied by the induction short exact sequence,
    grdim A_{n+1} = q^{-2} grdim(A_n)^2 / grdim(A_{n-1})
                    + (1 + pi lam^2 q^{2m-4n}) grdim(A_n) / (1-q^2),
    checked exactly.  With P_k = (1-q^2)^k grdim A_k, multiplying through by
    M = (1-q^2)^{2n} grdim A_{n-1} = (1-q^2)^{n+1} P_{n-1} gives the Laurent
    polynomial identity P_{n+1} P_{n-1} = q^{-2} P_n^2
    + (1 + pi lam^2 q^{2m-4n}) P_n P_{n-1}.  The two are equivalent: M has
    lambda-degrees >= 0 and a pi-free lambda^0 part whose lowest q-coefficient
    is 1, a unit in the q-series, so M times the lowest lambda-degree part of
    a nonzero difference of the two sides is nonzero.  M is thus a
    non-zero-divisor, although Z[pi]/(pi^2-1) is not a domain, and the check
    holds exactly when the series identity holds in every q-degree."""
    if n < 1:
        raise ValueError("ses_dimension_check needs n >= 1")
    p_prev, p_n, p_next = (_grdim_numerator(k, m) for k in (n - 1, n, n + 1))
    shift = GradedDim.one() + GradedDim.term(1, 2 * m - 4 * n, 2, 1)
    return p_next * p_prev == GradedDim.term(1, -2) * p_n * p_n + shift * p_n * p_prev


def verma_shapovalov(n: int, m: int, qcut: int) -> GradedDim:
    """The pairing (F^n m_0, F^n m_0) on the weight-(lam q^m) Verma module,
    exact for q <= qcut, by the commutator recursion E F^k m_0 = F E F^{k-1}
    m_0 + ((K - K^{-1})/(q - q^{-1})) F^{k-1} m_0 =: c_k F^{k-1} m_0, with
    K F^k m_0 = lam q^{m-2k} F^k m_0, E m_0 = 0, (m_0, m_0) = 1 and
    (F u, v) = (u, E v), so the pairing is c_1 ... c_n.  Unrolled,
    (q - q^{-1}) c_k = sum_{i<k} (lam q^{m-2i} - lam^{-1} q^{2i-m}) =: num_k,
    and the pairing is (-q)^n num_1 ... num_n / (1-q^2)^n, expanded per the
    order 0 < q < lambda (1/(1-q^2) = 1 + q^2 + ...)."""
    acc = GradedDim.one()
    num = GradedDim.zero()
    for i in range(n):
        num = num + GradedDim.term(1, m - 2 * i, 1) - GradedDim.term(1, 2 * i - m, -1)
        acc = acc * GradedDim.term(-1, 1) * num
    acc = acc.truncate(qcut)
    for _ in range(n):
        acc = acc.over_1_minus_q2(qcut)
    return acc


def shapovalov_unit(n: int, m: int) -> GradedDim:
    """Documented normalization: with the recursion conventions above,
    (F^n m_0, F^n m_0) = lam^{-n} q^{n^2 - n m} . sdim A_n(m).  At n=1 the
    unit is lam^{-1} q^{1-m}; step k of the recursion contributes
    lam^{-1} q^{k-m}, so the residual beyond the n-th power of the n=1 unit
    is q^{n(n-1)}."""
    return GradedDim.term(1, n * n - n * m, -n)


def nilhecke_cyclotomic_grdim(n: int, N: int, qcut: int) -> dict[int, int]:
    """Closed-form graded dimension of the cyclotomic nilHecke algebra NH_n^N
    per q-degree up to qcut, q^{-n(n-1)/2} [n]! q^{nN-n(n+1)/2} [N-n+1]...[N]
    (zero when N < n): the crossings times the Hilbert series of the regular
    Koszul sequence h_N(x_1), ..., h_{N-n+1}(x_1..x_n) that d_N resolves at
    m = -1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N < n:
        return {}
    acc = GradedDim.term(1, n * N - n * n) * quantum_factorial(n)
    for i in range(N - n + 1, N + 1):
        acc = acc * quantum_int(i)
    return {q: c for (q, _, _), c in acc.coeffs.items() if q <= qcut}


def cyclotomic_grdim_closed_form(n: int, N: int, qcut: int) -> dict[Key, int]:
    """Graded dimension of the cyclotomic quotient A_n / (x_1^N) at m = -1
    per (q, lambda, parity) up to qcut, as grdim NH_n^N . prod_{i=1..n}
    (1 + pi lam^2 q^{-2i}): the quotient measured as NH_n^N (x)
    Lambda(w_1..w_n).  The product factor follows from the mask
    decomposition in algebra.cyclotomic_grdim: the ideal is Lambda(w) (x) its
    lambda = 0 part, w_i having q-degree -2i at m = -1.  What stays a check
    is the lambda = 0 part, nilhecke_cyclotomic_grdim, against
    dgstructure.nilhecke_cyclotomic_oracle, which reads the same per-process
    table of lambda = 0 ranks (algebra.nilhecke_ideal_ranks) as
    algebra.cyclotomic_grdim; this closed form is independent of that table.
    The whole table equals algebra.cyclotomic_grdim key by key at
    (n, N, qcut) = (1, 1, 12), (1, 4, 12), (2, 1, 16), (2, 2, 16), (2, 4, 12),
    (2, 5, 22), (3, 1, 8), (3, 2, 6), (3, 3, 6), (3, 4, 0), (3, 5, -4),
    (4, 4, -12) and (4, 4, -8).  The factors lower q by at most n(n+1), so
    NH_n^N is taken that far past qcut."""
    nh = nilhecke_cyclotomic_grdim(n, N, qcut + n * (n + 1))
    acc = GradedDim(min(nh, default=0), None, {(q, 0, 0): c for q, c in nh.items()})
    for i in range(1, n + 1):
        acc = acc * (GradedDim.one() + GradedDim.term(1, -2 * i, 2, 1))
    return {key: c for key, c in acc.coeffs.items() if key[0] <= qcut}
