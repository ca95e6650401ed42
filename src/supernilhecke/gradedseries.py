"""
Arithmetic in the graded-dimension ring: Z[pi]/(pi^2-1) coefficients with
Laurent support in lambda and truncated Laurent series in q.  Every value
carries its windows explicitly and operations compute the largest sound
window, so that divisions cannot silently truncate.

A GradedDim guarantees zero support below qmin (resp. lmin) and exact
coefficients up to qcut (resp. lcut); a cut of None means exact on that axis.
Keys are (qdeg, lambdadeg, piexp) with pi^2 = 1.
"""
from __future__ import annotations

from .superring import signed_sum

Key = tuple[int, int, int]

INF = None  # sentinel: no truncation on that axis


def _min_cut(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _add_cut(cut: int | None, shift: int) -> int | None:
    return None if cut is None else cut + shift


class GradedDim:
    __slots__ = ("qmin", "qcut", "lmin", "lcut", "coeffs")

    def __init__(self, qmin: int, qcut: int | None, coeffs: dict[Key, int] | None = None,
                 lmin: int = 0, lcut: int | None = INF):
        if qcut is not None and qcut < qmin:
            raise ValueError(f"empty q-window: [{qmin}, {qcut}]")
        if lcut is not None and lcut < lmin:
            raise ValueError(f"empty lambda-window: [{lmin}, {lcut}]")
        self.qmin = qmin
        self.qcut = qcut
        self.lmin = lmin
        self.lcut = lcut
        self.coeffs = {}
        for (q, l, p), c in (coeffs or {}).items():
            if c == 0 or q < qmin or l < lmin:
                continue
            if qcut is not None and q > qcut:
                continue
            if lcut is not None and l > lcut:
                continue
            self.coeffs[(q, l, p & 1)] = c

    # ---- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, qcut: int | None = INF) -> "GradedDim":
        return cls(0, qcut)

    @classmethod
    def term(cls, coeff: int = 1, q: int = 0, lam: int = 0, pi: int = 0,
             qcut: int | None = INF) -> "GradedDim":
        return cls(min(q, 0), qcut, {(q, lam, pi): coeff}, lmin=min(lam, 0))

    @classmethod
    def one(cls, qcut: int | None = INF) -> "GradedDim":
        return cls.term(1, qcut=qcut)

    @classmethod
    def from_counts(cls, counts: dict[Key, int], qmin: int, qcut: int | None) -> "GradedDim":
        return cls(qmin, qcut, dict(counts))

    # ---- ring operations ----------------------------------------------------
    def __add__(self, other: "GradedDim") -> "GradedDim":
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + c
        return GradedDim(min(self.qmin, other.qmin), _min_cut(self.qcut, other.qcut),
                         coeffs, lmin=min(self.lmin, other.lmin),
                         lcut=_min_cut(self.lcut, other.lcut))

    def __neg__(self) -> "GradedDim":
        return self.scale(-1)

    def scale(self, c: int) -> "GradedDim":
        return GradedDim(self.qmin, self.qcut,
                         {k: c * v for k, v in self.coeffs.items()},
                         lmin=self.lmin, lcut=self.lcut)

    def __sub__(self, other: "GradedDim") -> "GradedDim":
        return self + (-other)

    def __mul__(self, other: "GradedDim") -> "GradedDim":
        qcut = _min_cut(_add_cut(self.qcut, other.qmin), _add_cut(other.qcut, self.qmin))
        lcut = _min_cut(_add_cut(self.lcut, other.lmin), _add_cut(other.lcut, self.lmin))
        qmin = self.qmin + other.qmin
        lmin = self.lmin + other.lmin
        coeffs: dict[Key, int] = {}
        for (q1, l1, p1), c1 in self.coeffs.items():
            for (q2, l2, p2), c2 in other.coeffs.items():
                q = q1 + q2
                l = l1 + l2
                if qcut is not None and q > qcut:
                    continue
                if lcut is not None and l > lcut:
                    continue
                k = (q, l, (p1 + p2) & 1)
                coeffs[k] = coeffs.get(k, 0) + c1 * c2
        return GradedDim(qmin, qcut, coeffs, lmin=lmin, lcut=lcut)

    def __eq__(self, other) -> bool:
        """Coefficientwise equality on the common sound window."""
        if not isinstance(other, GradedDim):
            return NotImplemented
        qcut = _min_cut(self.qcut, other.qcut)
        lcut = _min_cut(self.lcut, other.lcut)

        def window(g):
            return {k: c for k, c in g.coeffs.items()
                    if (qcut is None or k[0] <= qcut)
                    and (lcut is None or k[1] <= lcut)}
        return window(self) == window(other)

    def __hash__(self):
        raise TypeError("GradedDim is not hashable (window-relative equality)")

    def is_zero(self) -> bool:
        return not self.coeffs

    def truncate(self, qcut: int | None) -> "GradedDim":
        return GradedDim(self.qmin, _min_cut(self.qcut, qcut), self.coeffs,
                         lmin=self.lmin, lcut=self.lcut)

    def truncate_lambda(self, lcut: int | None) -> "GradedDim":
        return GradedDim(self.qmin, self.qcut, self.coeffs,
                         lmin=self.lmin, lcut=_min_cut(self.lcut, lcut))

    def specialize_pi(self, value: int) -> "GradedDim":
        """Substitute pi -> +-1; collapses the parity index."""
        coeffs: dict[Key, int] = {}
        for (q, l, p), c in self.coeffs.items():
            k = (q, l, 0)
            coeffs[k] = coeffs.get(k, 0) + (c if (p == 0 or value == 1) else -c)
        return GradedDim(self.qmin, self.qcut, coeffs, lmin=self.lmin, lcut=self.lcut)

    def coefficient(self, q: int, lam: int, pi: int = 0) -> int:
        if self.qcut is not None and q > self.qcut:
            raise ValueError(f"coefficient at q={q} outside window <= {self.qcut}")
        if self.lcut is not None and lam > self.lcut:
            raise ValueError(f"coefficient at lambda={lam} outside window <= {self.lcut}")
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

    # ---- series inversion -------------------------------------------------
    def _invert_lambda_free(self, qcut: int) -> "GradedDim":
        """Inverse of a series with no lambda-support whose lowest q-term is a
        unit (+-q^a or +-pi q^a); exact to q <= qcut."""
        if self.is_zero():
            raise ZeroDivisionError("cannot invert zero series")
        qlow = min(k[0] for k in self.coeffs)
        lows = [(k, c) for k, c in self.coeffs.items() if k[0] == qlow]
        if len(lows) != 1 or lows[0][1] not in (1, -1):
            raise ValueError("lowest q-term is not a unit; window too small to "
                             "normalize the division")
        (qa, la, pa), ca = lows[0]
        u_inv = GradedDim.term(ca, -qa, -la, pa)
        g = u_inv * self - GradedDim.one()  # support in q > 0
        if not g.is_zero() and min(k[0] for k in g.coeffs) <= 0:
            raise ValueError("series not normalizable: support at or below the unit")
        inv = GradedDim.one(qcut=qcut)
        power = GradedDim.one(qcut=qcut)
        sign = -1
        while not power.is_zero():
            power = (power * g).truncate(qcut)
            inv = inv + power.scale(sign)
            sign = -sign
        return (u_inv * inv).truncate(qcut)

    def lambda_blocks(self) -> dict[int, "GradedDim"]:
        blocks: dict[int, dict[Key, int]] = {}
        for (q, l, p), c in self.coeffs.items():
            blocks.setdefault(l, {})[(q, 0, p)] = c
        return {l: GradedDim(self.qmin, self.qcut, b, lmin=0, lcut=self.lcut)
                for l, b in blocks.items()}

    def inverse(self, qcut: int, lcut: int) -> "GradedDim":
        """Inverse in the series order 0 < q < lambda: the lambda-degree-0
        block must have an invertible lowest q-term.  The result is exact for
        q <= qcut, lambda <= lcut (the true inverse has unbounded
        lambda-support in general, so a finite lcut is required)."""
        if self.lcut is not None and self.lcut < lcut:
            raise ValueError("operand lambda-window too small for requested inverse")
        blocks = self.lambda_blocks()
        if 0 not in blocks:
            raise ValueError("lambda-degree-0 block is zero; not invertible in "
                             "the series order")
        if any(l < 0 for l in blocks):
            raise ValueError("negative lambda-degrees are not invertible here")
        inv0 = blocks[0]._invert_lambda_free(qcut)
        rest = GradedDim(self.qmin, self.qcut, {
            k: c for k, c in self.coeffs.items() if k[1] > 0}, lmin=0, lcut=self.lcut)
        if rest.is_zero():
            return inv0.truncate_lambda(lcut)
        h = (inv0 * rest).truncate(qcut).truncate_lambda(lcut)
        inv = GradedDim.one(qcut=qcut)
        power = GradedDim.one(qcut=qcut)
        sign = -1
        for _ in range(lcut + 1):
            power = (power * h).truncate(qcut).truncate_lambda(lcut)
            if power.is_zero():
                break
            inv = inv + power.scale(sign)
            sign = -sign
        return (inv0 * inv).truncate(qcut).truncate_lambda(lcut)


def geometric_inv_1_minus_q2(qcut: int) -> GradedDim:
    """1/(1-q^2) = 1 + q^2 + q^4 + ... truncated at qcut."""
    return GradedDim(0, qcut, {(2 * j, 0, 0): 1 for j in range(qcut // 2 + 1)})


def quantum_int(k: int, qcut: int | None = INF) -> GradedDim:
    """[k] = q^{k-1} + q^{k-3} + ... + q^{1-k}."""
    if k < 0:
        raise ValueError("quantum integer of a negative argument")
    return GradedDim(1 - k if k else 0, qcut,
                     {(k - 1 - 2 * j, 0, 0): 1 for j in range(k)})


def quantum_factorial(k: int, qcut: int | None = INF) -> GradedDim:
    acc = GradedDim.one(qcut)
    for j in range(1, k + 1):
        acc = acc * quantum_int(j, qcut)
    return acc


def grdim_An(n: int, m: int, qcut: int) -> GradedDim:
    """Closed-form graded rank q^{-n(n-1)/2} [n]! prod_{j=1..n}
    (1 + pi lam^2 q^{2m+2-2j}) / (1-q^2), truncated at qcut."""
    acc = GradedDim.term(1, -n * (n - 1) // 2)
    acc = acc * quantum_factorial(n)
    # widen the geometric window enough to absorb all negative shifts
    wide = qcut + n * (n + 1) + 2 * n * (abs(m) + 2) + 4
    geo = geometric_inv_1_minus_q2(wide)
    for j in range(1, n + 1):
        factor = GradedDim.one() + GradedDim.term(1, 2 * m + 2 - 2 * j, 2, 1)
        acc = acc * factor * geo
    return acc.truncate(qcut)


def sdim_An(n: int, m: int, qcut: int) -> GradedDim:
    """Graded superdimension: the parity variable specialized to -1."""
    return grdim_An(n, m, qcut).specialize_pi(-1)


def ses_dimension_check(n: int, m: int, qcut: int) -> bool:
    """Graded-dimension identity implied by the induction short exact sequence:
    grdim A_{n+1} = q^{-2} grdim(A_n)^2 / grdim(A_{n-1})
                    + (1 + pi lam^2 q^{2m-4n}) grdim(A_n) / (1-q^2)."""
    if n < 1:
        raise ValueError("ses_dimension_check needs n >= 1")
    margin = 2 * n * (n + 2) + 2 * (abs(m) + 2) * (n + 2) + 8
    wide = qcut + margin
    lcut = 2 * (n + 1)
    a_prev = grdim_An(n - 1, m, wide)
    a_n = grdim_An(n, m, wide)
    a_next = grdim_An(n + 1, m, qcut)
    inv_prev = a_prev.inverse(wide, lcut=lcut)
    lhs_mid = (GradedDim.term(1, -2) * a_n * a_n * inv_prev).truncate(qcut)
    shift = GradedDim.one() + GradedDim.term(1, 2 * m - 4 * n, 2, 1)
    tail = (shift * a_n * geometric_inv_1_minus_q2(wide)).truncate(qcut)
    return a_next == lhs_mid + tail


def _inv_q_minus_qinv(qcut: int) -> GradedDim:
    """1/(q - q^{-1}) expanded as -q (1 + q^2 + ...)."""
    return GradedDim.term(-1, 1) * geometric_inv_1_minus_q2(qcut + 2)


def verma_shapovalov(n: int, m: int, qcut: int) -> GradedDim:
    """The pairing (F^n m_0, F^n m_0) on the weight-(lam q^m) Verma module,
    by the commutator recursion: E F^k m_0 = F E F^{k-1} m_0 +
    ((K - K^{-1})/(q - q^{-1})) F^{k-1} m_0, K F^k m_0 = lam q^{m-2k} F^k m_0,
    E m_0 = 0, (m_0, m_0) = 1 and (F u, v) = (u, E v); all fractions expanded
    per the order 0 < q < lambda, e.g. 1/(q-q^{-1}) = -q(1+q^2+...)."""
    margin = 2 * n + 2 * abs(m) + 2 * n * n + 8
    wide = qcut + margin
    inv = _inv_q_minus_qinv(wide)

    def e_on_fk(k: int) -> GradedDim:
        # E F^k m_0 = c_k F^{k-1} m_0
        if k == 0:
            raise ValueError("E m_0 = 0 has no coefficient")
        prev = GradedDim.zero() if k == 1 else e_on_fk(k - 1)
        kterm = (GradedDim.term(1, m - 2 * (k - 1), 1)
                 - GradedDim.term(1, -(m - 2 * (k - 1)), -1))
        return prev + (kterm * inv).truncate(wide)

    acc = GradedDim.one(wide)
    for k in range(1, n + 1):
        acc = (acc * e_on_fk(k)).truncate(wide)
    return acc.truncate(qcut)


def shapovalov_unit(n: int, m: int) -> GradedDim:
    """Documented normalization: with the recursion conventions above,
    (F^n m_0, F^n m_0) = lam^{-n} q^{n^2 - n m} . sdim A_n(m).  At n=1 the
    unit is lam^{-1} q^{1-m}; step k of the recursion contributes
    lam^{-1} q^{k-m}, so the residual beyond the n-th power of the n=1 unit
    is q^{n(n-1)}."""
    return GradedDim.term(1, n * n - n * m, -n)
