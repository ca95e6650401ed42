"""
Exact integer linear algebra.

Every entry point is built on one insert step, `_insert`: a row
{column: value} is reduced (`_reduce`) against echelon rows keyed by their
least column, by fraction-free updates scaled by a gcd, and its remainder is
stored primitive, so every result is exact over the rationals and no entry
ever becomes a fraction.  `rank` feeds the rows of a matrix sparsest first,
`sparse_det` turns the leads and the scalings into a determinant, and the
streaming `IntEchelon` serves incremental spanning-rank checks with early
exit.
"""
from __future__ import annotations

from math import gcd


def _reduce(row: dict[int, int], pivots: dict[int, dict[int, int]]):
    """Reduce the integer row {column: value}, no zero values, in place,
    against the echelon rows `pivots` (least column -> row) until its least
    column has no pivot row.  Each step is row <- a*row - b*pivot row with a = p/g > 0, b = v/g
    and g = gcd(p, v) of the two entries at that column.  Returns the
    remainder (empty if the row lies in the span) and the product of the a."""
    scale = 1
    while row:
        c = min(row)
        prow = pivots.get(c)
        if prow is None:
            break
        p, v = prow[c], row[c]
        g = gcd(p, v)
        a, b = p // g, v // g
        if a < 0:
            a, b = -a, -b
        if a != 1:
            for cc in row:
                row[cc] *= a
            scale *= a
        for cc, pv in prow.items():
            nv = row.get(cc, 0) - b * pv
            if nv:
                row[cc] = nv
            else:
                del row[cc]
    return row, scale


def _primitive(row: dict[int, int]) -> int:
    """Divide a nonzero row by the gcd of its entries, in place; returns it."""
    content = gcd(*row.values())
    if content > 1:
        for c in row:
            row[c] //= content
    return content


def _check_columns(rows: list[dict[int, int]], ncols: int) -> None:
    if any(row and (min(row) < 0 or max(row) >= ncols) for row in rows):
        raise ValueError("column index out of range")


def _insert(row: dict[int, int], pivots: dict[int, dict[int, int]]):
    """Reduce a zero-free copy of the row against `pivots` and store the
    remainder, made primitive, under its lead column.  Returns (lead, content,
    scale) of that remainder; lead is None if the row lay in the span."""
    row, scale = _reduce({c: v for c, v in row.items() if v}, pivots)
    if not row:
        return None, 0, scale
    lead = min(row)
    content = _primitive(row)
    pivots[lead] = row
    return lead, content, scale


def rank(rows: list[dict[int, int]], ncols: int) -> int:
    """Rank over the rationals of an integer matrix given as sparse rows
    {column: value}, columns in range(ncols); the rows are not modified."""
    _check_columns(rows, ncols)
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(filter(None, rows), key=len):
        _insert(row, pivots)
    return len(pivots)


def sparse_det(rows: list[dict[int, int]], size: int) -> int:
    """Exact determinant of a square integer matrix given as sparse rows
    {column: value}, columns in range(size)."""
    if len(rows) != size:
        raise ValueError("matrix is not square")
    _check_columns(rows, size)
    # Each reduction multiplies the determinant by its scale, and dividing a
    # stored row by its content divides it; the stored rows are triangular
    # up to the permutation row -> lead column.
    pivots: dict[int, dict[int, int]] = {}
    perm = [0] * size
    num = den = 1
    for i in sorted(range(size), key=lambda i: len(rows[i])):
        lead, content, scale = _insert(rows[i], pivots)
        if lead is None:
            return 0
        num *= content * pivots[lead][lead]
        den *= scale
        perm[i] = lead
    return _perm_sign(perm) * num // den


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
    """Streaming row echelon over the integers (gcd-normalized sparse rows),
    for incremental exact rank of large spanning sets with early exit."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}  # lead column -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        return len(self.rows) == self.ncols

    def add(self, row: dict[int, int]) -> bool:
        """Reduce a sparse row {column: value} against the echelon; returns
        True if rank grew."""
        return _insert(row, self.rows)[0] is not None

