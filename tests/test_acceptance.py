"""
Acceptance suite: every criterion runs at its stated size and tolerance
(everything is exact integer arithmetic; tolerances are equalities) and
prints one pass/fail line.
"""
import random
import time

from supernilhecke import symgroup as sg
from supernilhecke.algebra import (
    AlgebraElement, act, basis, basis_counts, idempotent_e, random_element,
    spanning_rank_table, tight_basis, verify_relations,
)
from supernilhecke.dgstructure import (
    DgParams, apply_dN, homology_ranks, nilhecke_cyclotomic_oracle,
    verify_d_squared,
)
from supernilhecke.gradedseries import (
    grdim_An, nilhecke_cyclotomic_grdim, sdim_An, ses_dimension_check,
    shapovalov_unit, verma_shapovalov,
)
from supernilhecke.induction import recombine_ses, ses_split
from supernilhecke.invariants import (
    Superpartition, eps_sign, is_invariant, schubert, schur_super, schur_zero,
    strict_partitions,
)
from supernilhecke.linalg import sparse_det
from supernilhecke.superring import (
    SuperPolynomial, complete_h, labeled_omega, omega_to_top,
)

E = AlgebraElement


def _report(num: int, label: str, started: float, limit: float | None = None):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {num}: PASS  {label}  ({elapsed:.1f}s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_relations():
    started = time.time()
    for n in range(1, 5):
        for m in (-2, -1, 0, 1):
            failures = verify_relations(n, m)
            assert failures == [], (n, m, failures)
    _report(1, "defining relations hold in normal form, n <= 4, m in -2..1",
            started, limit=30)


def test_criterion_2_basis_rank():
    started = time.time()
    qcut = 16
    for n in range(0, 5):
        for m in (-1, 0):
            tallied: dict = {}
            zero = E.zero(n, m)  # monomial_bidegree reads only m and the key
            for key in basis(n, m, qcut):
                q, l = zero.monomial_bidegree(key)
                k = (q, l, (l // 2) & 1)
                tallied[k] = tallied.get(k, 0) + 1
            series = grdim_An(n, m, qcut)
            closed = {k: c for k, c in series.coeffs.items() if k[0] <= qcut}
            assert tallied == closed, (n, m)
    _report(2, "enumerated basis counts equal the closed-form rank, q <= 16",
            started, limit=60)


def test_criterion_3_operator_cross_check():
    started = time.time()
    rng = random.Random(20240)
    pairs_per_n = {1: 67, 2: 67, 3: 66}
    m = -1
    for n, count in pairs_per_n.items():
        schuberts = [schubert(n, m, p) for p in sg.all_permutations(n)]
        for _ in range(count):
            u = random_element(n, m, rng)
            v = random_element(n, m, rng)
            uv = u * v
            for g in schuberts:
                assert act(uv, g) == act(u, act(v, g))
    _report(3, "normal-form product agrees with operator composition, "
               "200 seeded pairs, n <= 3", started, limit=60)


def test_criterion_4_schur_suite():
    started = time.time()
    # closed form for the one-row elements, n <= 5
    for n in range(1, 6):
        for m in (-1, 0):
            for i in range(1, n + 1):
                acc = SuperPolynomial.zero(n, m)
                for l in range(i, n + 1):
                    sign = -1 if (l + i) & 1 else 1
                    acc = acc + (complete_h(n, m, l - i, l, n)
                                 * SuperPolynomial.w(n, m, l)).scale(sign)
                assert schur_zero(n, m, (i,)) == acc, (n, m, i)
    # multiplication rule for all strict partitions, n <= 5
    for n in range(1, 6):
        m = -1
        cache = {b: schur_zero(n, m, b) for b in strict_partitions(n)}
        for beta in strict_partitions(n):
            for betap in strict_partitions(n):
                sign, merged = eps_sign(beta, betap)
                want = cache[merged].scale(sign) if sign else SuperPolynomial.zero(n, m)
                assert cache[beta] * cache[betap] == want, (n, beta, betap)
    # invariance of the two-parameter family with |alpha| <= 4
    def partitions_up_to(total, parts):
        out = [()]
        def gen(remaining, maxpart, prefix):
            for first in range(min(remaining, maxpart), 0, -1):
                nxt = prefix + (first,)
                out.append(nxt)
                if len(nxt) < parts:
                    gen(remaining - first, first, nxt)
        for tot in range(1, total + 1):
            gen(tot, tot, ())
        return out
    for n in (2, 3, 4, 5):
        m = -1
        alphas = [a for a in partitions_up_to(4, n) if len(a) <= n]
        betas = strict_partitions(n) if n <= 4 else [(), (1,), (2, 4), (1, 3, 5)]
        for alpha in alphas:
            for beta in betas:
                s = schur_super(n, m, Superpartition(alpha, beta))
                assert is_invariant(s), (n, alpha, beta)
    # labeled generators to relative label 6 against the defining recursion
    # w_k^a = w_{k-1}^{a-1} - x_k w_k^{a-1}, with w_0 = 0 and w_k^{m+1} = w_k
    for n in range(1, 6):
        for m in (-1, 0):
            rec = {(0, t): SuperPolynomial.zero(n, m) for t in range(7)}
            for k in range(1, n + 1):
                rec[k, 0] = SuperPolynomial.w(n, m, k)
                for t in range(1, 7):
                    rec[k, t] = rec[k - 1, t - 1] - SuperPolynomial.x(n, m, k) * rec[k, t - 1]
            for k in range(1, n + 1):
                for t in range(0, 7):
                    assert labeled_omega(n, m, k, m + 1 + t) == rec[k, t], (n, m, k, t)
                assert omega_to_top(n, m, k) == SuperPolynomial.w(n, m, k)
            for i in range(0, n):
                assert labeled_omega(n, m, n, m + 1 + i) == schur_zero(n, m, (n - i,))
    _report(4, "Schur closed forms, multiplication rule, invariance and "
               "labeled identities, n <= 5", started, limit=60)


def test_criterion_5_tight_basis():
    started = time.time()
    qcut = 10
    for n in (1, 2, 3):
        m = -1
        by_deg_b: dict = {}
        for key in basis(n, m, qcut):
            d = E(n, m, {key: 1}).monomial_bidegree(key)
            by_deg_b.setdefault(d, []).append(key)
        by_deg_f: dict = {}
        for elt in tight_basis(n, m, qcut):
            by_deg_f.setdefault(elt.bidegree(), []).append(elt)
        for d, elts in sorted(by_deg_f.items()):
            if d[0] > qcut:
                continue
            monos = by_deg_b.get(d, [])
            assert len(monos) == len(elts), (n, d)
            index = {k: i for i, k in enumerate(monos)}
            rows = [{index[k]: c for k, c in elt.terms.items()} for elt in elts]
            assert sparse_det(rows, len(monos)) in (1, -1), (n, d)
    _report(5, "tight-to-canonical change of basis is unimodular in every "
               "bidegree, q <= 10, n <= 3", started)


def test_criterion_6_ses():
    started = time.time()
    # splitting exactness on 100 seeded random elements of the next algebra up
    rng = random.Random(20246)
    ms = (-2, -1, 0, 1)
    budget = [(1, 34), (2, 33), (3, 33)]
    for n, count in budget:
        for i in range(count):
            m = ms[i % len(ms)]
            w = random_element(n + 1, m, rng, nterms=3, maxexp=1)
            pairs, coker = ses_split(w)
            assert recombine_ses(n + 1, m, pairs, coker) == w, (n, m)
    # projection values for the central words, j <= 8
    for n in (1, 2, 3):
        m = -1
        n1 = n + 1
        for j in range(0, 9):
            left = E.T_word(n1, m, tuple(range(1, n1)))
            right = E.T_word(n1, m, tuple(range(n1 - 1, 0, -1)))
            w = left * E.x(n1, m, 1, j) * right
            # the xi-indexed polynomial cokernel coordinates of w
            got = {p: u for u, p in ses_split(w)[1].poly_part if not u.is_zero()}
            want: dict = {}
            sign = -1 if n & 1 else 1
            for p in range(n, j - n + 1):
                for qxi in range(0, p - n + 1):
                    prod = E.from_poly(complete_h(n, m, p - n - qxi, 1, n)
                                       * complete_h(n, m, j - n - p, 1, n)).scale(sign)
                    if prod.is_zero():
                        continue
                    want[qxi] = want.get(qxi, E.zero(n, m)) + prod
            want = {k: v for k, v in want.items() if not v.is_zero()}
            assert set(got) == set(want) and all(got[p] == want[p] for p in got), (n, j)
    # graded-dimension identity
    for n in (1, 2, 3):
        for m in (-2, -1, 0, 1):
            assert ses_dimension_check(n, m), (n, m)
    _report(6, "SES splits exactly (100 seeded elements), projection formula "
               "j <= 8, dimension identity exact", started, limit=120)


def test_criterion_7_dg():
    started = time.time()
    qcut = 12
    combos = [(m, L - m, L)
              for m in (-2, -1, 0, 1)
              for L in range(0, 5) if L - m >= 0]
    oracle_cache: dict = {}
    for (m, N, L) in combos:
        for n in (1, 2, 3):
            params = DgParams(n, m, N)
            for key in basis(n, m, qcut):
                b = E(n, m, {key: 1})
                assert apply_dN(params, apply_dN(params, b)).is_zero(), (n, m, N, key)
            table = homology_ranks(params, qcut)
            assert all(h == 0 for (_, h) in table), (n, m, N)
            if n > L:
                assert table == {}, (n, m, N)
            if (n, L) not in oracle_cache:
                oracle_cache[(n, L)] = nilhecke_cyclotomic_oracle(n, L, qcut)
            by_q = {q: d for (q, h), d in table.items()}
            assert by_q == oracle_cache[(n, L)], (n, m, N)
            assert by_q == nilhecke_cyclotomic_grdim(n, L, qcut), (n, m, N)
    # Leibniz well-definedness at a few representative points
    for (n, m, N) in ((2, -1, 2), (3, 0, 2), (2, -2, 4)):
        assert verify_d_squared(DgParams(n, m, N), 8)
    _report(7, "d^2 = 0 exhaustively q <= 12, homology in degree 0 equal to "
               "the cyclotomic oracle and the closed form, acyclicity beyond "
               "the level",
            started, limit=300)


def test_criterion_8_shapovalov():
    started = time.time()
    for n in (0, 1, 2, 3):
        for m in (-1, 0, 1):
            sh = verma_shapovalov(n, m, 12)
            sd = sdim_An(n, m, 12)
            assert sh == (shapovalov_unit(n, m) * sd).truncate(12), (n, m)
    _report(8, "Verma pairing equals the graded superdimension after the "
               "documented unit, n <= 3, q <= 12", started)


def test_criterion_9_idempotent():
    started = time.time()
    for n in (1, 2, 3, 4):
        m = -1
        e = idempotent_e(n, m)
        assert e * e == e, n
    for n in (1, 2):
        m = -1
        table = spanning_rank_table(n, m, idempotent_e(n, m), basis_counts(n, m, 8))
        assert table == basis_counts(n, m, 8), n
    _report(9, "e_n idempotent (n <= 4) and two-sided span has full rank "
               "(n <= 2, q <= 8)", started)
