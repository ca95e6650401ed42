import random

import pytest

from supernilhecke.linalg import rank, sparse_det


def bareiss(matrix):
    """Dense fraction-free (Bareiss) elimination: (rank, determinant), the
    determinant only meaningful for a square matrix.  The reference the sparse
    kernel is checked against."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r, prev, sign = 0, 1, 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    if rows != cols:
        det = None
    elif rows == 0:
        det = 1
    else:
        det = sign * m[-1][-1] if r == rows else 0
    return r, det


def sparse(matrix):
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def random_matrix(rng, rows, cols, density, bound=9):
    return [[rng.randint(-bound, bound) if rng.random() < density else 0
             for _ in range(cols)] for _ in range(rows)]


def degenerate(rng, matrix):
    """Add zero rows and columns, and duplicated and summed rows."""
    m = [row[:] for row in matrix]
    cols = len(m[0]) if m else 0
    if rng.random() < 0.5:
        z = rng.randrange(cols + 1)
        m = [row[:z] + [0] + row[z:] for row in m]
        cols += 1
    if m and rng.random() < 0.5:
        m.append(m[rng.randrange(len(m))][:])
    if len(m) >= 2 and rng.random() < 0.5:
        a, b = rng.sample(range(len(m)), 2)
        k = rng.choice((-3, -1, 1, 2))
        m.append([x + k * y for x, y in zip(m[a], m[b])])
    if rng.random() < 0.3:
        m.insert(rng.randrange(len(m) + 1), [0] * cols)
    return m


def test_rank_matches_bareiss_on_random_matrices():
    rng = random.Random(20170427)
    for _ in range(600):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        m = random_matrix(rng, rows, cols, rng.choice((0.2, 0.5, 1.0)))
        m = degenerate(rng, m)
        assert rank(m) == bareiss(m)[0], m


def test_rank_edge_shapes():
    assert rank([]) == 0
    assert rank([[]]) == 0
    assert rank([[0, 0, 0]]) == 0
    assert rank([[0], [0]]) == 0
    assert rank([[0, 4, 0, -6]]) == 1
    assert rank([[0], [3], [-5]]) == 1
    assert rank([[2, 4], [3, 6]]) == 1
    assert rank([[2, 3], [4, 5]]) == 2


def test_rank_without_unit_entries():
    # every entry even or a multiple of 3: no unit pivot is ever available
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 7)
        m = [[rng.choice((0, 2, -2, 3, -3, 4, 6, -9)) for _ in range(n + 1)]
             for _ in range(n)]
        m = degenerate(rng, m)
        assert rank(m) == bareiss(m)[0], m


def test_rank_does_not_modify_its_input():
    m = [[1, 2, 0], [3, 4, 5], [0, 1, 1]]
    copy = [row[:] for row in m]
    rank(m)
    assert m == copy


def test_sparse_det_matches_bareiss():
    rng = random.Random(1968)
    for _ in range(600):
        size = rng.randrange(0, 8)
        m = random_matrix(rng, size, size, rng.choice((0.3, 0.6, 1.0)))
        if size >= 2 and rng.random() < 0.2:
            a, b = rng.sample(range(size), 2)
            m[a] = [3 * y for y in m[b]]
        assert sparse_det(sparse(m), size) == bareiss(m)[1], m


def test_sparse_det_permutation_signs():
    rng = random.Random(1957)
    for size in range(1, 8):
        for _ in range(10):
            perm = list(range(size))
            rng.shuffle(perm)
            diag = [rng.choice((1, -1, 2, -3)) for _ in range(size)]
            m = [[diag[i] if j == perm[i] else 0 for j in range(size)]
                 for i in range(size)]
            assert sparse_det(sparse(m), size) == bareiss(m)[1]


def test_sparse_det_edge_cases():
    assert sparse_det([], 0) == 1
    assert sparse_det([{0: -7}], 1) == -7
    assert sparse_det([{}, {1: 1}], 2) == 0
    assert sparse_det([{0: 1, 1: 1}, {0: 1, 1: 1}], 2) == 0
    with pytest.raises(ValueError):
        sparse_det([{0: 1}], 2)
    with pytest.raises(ValueError):
        sparse_det([{0: 1}, {2: 1}], 2)


def test_sparse_det_does_not_modify_its_input():
    rows = [{0: 2, 1: 1}, {0: 3, 1: 5}]
    sparse_det(rows, 2)
    assert rows == [{0: 2, 1: 1}, {0: 3, 1: 5}]


def test_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2001)
    for _ in range(60):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = degenerate(rng, random_matrix(rng, rows, cols, 0.6))
        assert rank(m) == sympy.Matrix(m).rank()
        size = rng.randrange(1, 7)
        sq = random_matrix(rng, size, size, 0.7)
        assert sparse_det(sparse(sq), size) == sympy.Matrix(sq).det()


def test_rank_on_larger_sparse_sign_matrices():
    # the shape of the d_N blocks: sparse, entries mostly +-1, rank-deficient
    rng = random.Random(1001)
    for _ in range(8):
        rows, cols = rng.randrange(20, 45), rng.randrange(20, 60)
        m = [[rng.choice((1, -1, 1, -1, 2)) if rng.random() < 0.08 else 0
              for _ in range(cols)] for _ in range(rows)]
        m = degenerate(rng, m)
        assert rank(m) == bareiss(m)[0]
