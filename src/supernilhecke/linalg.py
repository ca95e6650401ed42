"""
Exact integer/rational linear algebra.

Rank and determinant share one sparse elimination kernel over the integers:
dict rows, Markowitz pivot order (the sparsest row with a unit entry first),
and fraction-free row updates scaled by a gcd, so every result is exact over
the rationals and no entry ever becomes a fraction.  The streaming
`IntEchelon` serves incremental spanning-rank checks with early exit, and
`solve` goes through Fractions and reports non-integral solutions to the
caller.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd


def _eliminate(rows: list[dict[int, int]]):
    """Sparse fraction-free elimination on integer rows {column: value},
    which it consumes.  Returns (pivots, num, den): pivots lists
    (row, column, value) in elimination order, and num/den is the factor by
    which the row rescalings changed the determinant, so that for a square
    nonsingular input det = sign * prod(values) * num / den, with sign the
    parity of the permutation row -> column."""
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    # live rows -> pivot order (no unit entry, length); the heap holds stale
    # entries too, and an entry counts only while it matches `order`
    order = {i: _pivot_order(r) for i, r in enumerate(rows) if r}
    heap = [(k, i) for i, k in order.items()]
    heapify(heap)
    pivots: list[tuple[int, int, int]] = []
    num = den = 1
    while heap:
        k, best = heappop(heap)
        if order.get(best) != k:
            continue
        del order[best]
        prow = rows[best]
        c = min(prow, key=lambda cc: (abs(prow[cc]), len(col_rows[cc])))
        p = prow[c]
        pivots.append((best, c, p))
        for cc in prow:
            col_rows[cc].discard(best)
        for j in list(col_rows[c]):
            rj = rows[j]
            v = rj[c]
            g = gcd(p, v)
            a, b = p // g, v // g
            if a < 0:
                a, b = -a, -b
            if a != 1:  # row <- a*row - b*pivot row, then drop the content
                for cc in rj:
                    rj[cc] *= a
                den *= a
            for cc, pv in prow.items():
                nv = rj.get(cc, 0) - b * pv
                if nv:
                    if cc not in rj:
                        col_rows[cc].add(j)
                    rj[cc] = nv
                else:
                    del rj[cc]
                    col_rows[cc].discard(j)
            if not rj:
                del order[j]
                continue
            if a != 1:
                content = gcd(*rj.values())
                if content > 1:
                    for cc in rj:
                        rj[cc] //= content
                    num *= content
            k = _pivot_order(rj)
            if k != order[j]:
                order[j] = k
                heappush(heap, (k, j))
    return pivots, num, den


def _pivot_order(row: dict[int, int]) -> tuple[int, int]:
    """Markowitz order of a row: rows with a unit entry first, then sparsest."""
    vals = row.values()
    return (0 if 1 in vals or -1 in vals else 1, len(vals))


def rank(matrix: list[list[int]]) -> int:
    """Rank over the rationals of a dense integer matrix (list of rows)."""
    pivots, _, _ = _eliminate([{j: row[j] for j in compress(range(len(row)), row)}
                               for row in matrix])
    return len(pivots)


def sparse_det(rows: list[dict[int, int]], size: int) -> int:
    """Exact determinant of a square integer matrix given as sparse rows
    {column: value}, columns in range(size)."""
    if len(rows) != size:
        raise ValueError("matrix is not square")
    if any(not 0 <= c < size for r in rows for c in r):
        raise ValueError("column index out of range")
    pivots, num, den = _eliminate([dict(r) for r in rows])
    if len(pivots) < size:
        return 0
    perm = [0] * size
    out = num
    for r, c, p in pivots:
        perm[r] = c
        out *= p
    return _perm_sign(perm) * out // den


def _perm_sign(perm: list[int]) -> int:
    """Sign of the permutation i -> perm[i] of range(len(perm))."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            if j != i:
                sign = -sign
    return sign


class IntEchelon:
    """Streaming row echelon over the integers (gcd-normalized rows), for
    incremental exact rank of large spanning sets with early exit."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, list[int]] = {}  # lead column -> normalized row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        return len(self.rows) == self.ncols

    def add(self, row: list[int]) -> bool:
        """Reduce a row against the echelon; returns True if rank grew."""
        row = row[:]
        while True:
            lead = next((j for j, v in enumerate(row) if v != 0), None)
            if lead is None:
                return False
            piv = self.rows.get(lead)
            if piv is None:
                g = 0
                for v in row:
                    g = gcd(g, v)
                if g > 1:
                    row = [v // g for v in row]
                self.rows[lead] = row
                return True
            a, b = piv[lead], row[lead]
            row = [b_i * a - p_i * b for b_i, p_i in zip(row, piv)]


def solve(matrix: list[list[int]], rhs: list) -> list[Fraction] | None:
    """Solve matrix . x = rhs exactly; None if inconsistent.

    The matrix need not be square; a particular solution is returned with
    free variables set to zero.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [a[i][j] - f * a[r][j] for j in range(cols + 1)]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if a[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, c in pivots:
        x[c] = a[i][cols]
    return x
