import random

import pytest

from supernilhecke.linalg import IntEchelon, rank, rank_gf2, sparse_det


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
        assert rank(sparse(m), len(m[0])) == bareiss(m)[0], m


def test_rank_edge_shapes():
    assert rank(sparse([]), 0) == 0
    assert rank(sparse([[]]), 0) == 0
    assert rank(sparse([[0, 0, 0]]), 3) == 0
    assert rank(sparse([[0], [0]]), 1) == 0
    assert rank(sparse([[0, 4, 0, -6]]), 4) == 1
    assert rank(sparse([[0], [3], [-5]]), 1) == 1
    assert rank(sparse([[2, 4], [3, 6]]), 2) == 1
    assert rank(sparse([[2, 3], [4, 5]]), 2) == 2
    assert rank([{1: 0}, {0: 5, 2: 0}], 3) == 1  # zero values are no entries


def dense_rank_mod2(matrix):
    """Dense Gaussian elimination over GF(2) on the entries mod 2: the
    reference `rank_gf2` is checked against."""
    m = [[v & 1 for v in row] for row in matrix]
    cols = len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [a ^ b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_gf2_matches_dense_mod2_elimination():
    rng = random.Random(271828)
    shapes = [(0, 0), (0, 5), (1, 1), (1, 7), (7, 1), (1, 40), (40, 1)]
    shapes += [(rng.randrange(1, 12), rng.randrange(1, 70)) for _ in range(300)]
    for rows, cols in shapes:
        m = random_matrix(rng, rows, cols, rng.choice((0.05, 0.2, 0.5, 1.0)))
        if m:
            m = degenerate(rng, m)
        ncols = len(m[0]) if m else cols
        want = dense_rank_mod2(m)
        assert rank_gf2(sparse(m)) == want, m
        assert rank_gf2(iter(sparse(m))) == want  # rows are read once, in order
        assert want <= rank(sparse(m), ncols)


def test_rank_gf2_edge_shapes():
    assert rank_gf2([]) == 0
    assert rank_gf2([{}]) == 0
    assert rank_gf2([{0: 2, 3: -4}]) == 0  # even entries vanish mod 2
    assert rank_gf2([{0: 3}, {0: -5}]) == 1
    assert rank_gf2([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]) == 2  # rank 3 over Q
    assert rank_gf2([{200: 1}, {0: 1, 200: 1}, {0: 3}]) == 2


def test_rank_rejects_columns_out_of_range():
    for rows, ncols in (([{3: 1}], 3), ([{0: 1}, {-1: 2}], 2), ([{0: 1}], 0),
                        ([{-1: 1, 0: 1}], 2)):
        with pytest.raises(ValueError):
            rank(rows, ncols)


def test_rank_without_unit_entries():
    # every entry even or a multiple of 3: no unit pivot is ever available
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 7)
        m = [[rng.choice((0, 2, -2, 3, -3, 4, 6, -9)) for _ in range(n + 1)]
             for _ in range(n)]
        m = degenerate(rng, m)
        assert rank(sparse(m), len(m[0])) == bareiss(m)[0], m


def test_rank_does_not_modify_its_input():
    rows = sparse([[1, 2, 0], [3, 4, 5], [0, 1, 1]])
    copy = [dict(row) for row in rows]
    rank(rows, 3)
    assert rows == copy


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


def test_explicit_zero_entries_are_ignored():
    assert sparse_det([{0: 2, 1: 0}, {0: 0, 1: 3}], 2) == 6
    ech = IntEchelon(2)
    assert ech.add({0: 1, 1: 0}) and ech.add({0: 0, 1: 5}) and ech.is_full()
    assert not ech.add({0: 0})


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
        assert rank(sparse(m), len(m[0])) == sympy.Matrix(m).rank()
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
        assert rank(sparse(m), len(m[0])) == bareiss(m)[0]


def test_int_echelon_matches_bareiss_on_shuffled_sparse_rows():
    rng = random.Random(1873)
    full = 0
    for _ in range(400):
        rows, cols = rng.randrange(1, 10), rng.randrange(1, 8)
        m = degenerate(rng, random_matrix(rng, rows, cols, rng.choice((0.2, 0.5, 1.0))))
        cols = len(m[0])
        want = bareiss(m)[0]
        ech = IntEchelon(cols)
        order = sparse(m)
        rng.shuffle(order)
        grew = sum(ech.add(row) for row in order)
        assert ech.rank == grew == want, m
        assert ech.is_full() == (want == cols)
        full += ech.is_full()
        assert all(min(row) == lead and all(v for v in row.values())
                   for lead, row in ech.rows.items())
    assert full
