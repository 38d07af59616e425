import json
from dataclasses import replace

import pytest
import sympy

import lincirc as lc
from lincirc import BitMatrix, SplitMix64
from lincirc.matrices import kfree_enumeration_feasible
from conftest import (
    random_bits_matrix,
    ref_det,
    ref_has_allones,
    ref_mul_bool,
    ref_mul_gf2,
    ref_rank_gf2,
)


def _as_lists(m: BitMatrix) -> list[list[int]]:
    return [m.row_bits(i) for i in range(m.rows)]


# ---------------------------------------------------------------------------
# products and complement


def test_mul_gf2_identity_and_base_cases():
    a = lc.gen_random(6, 6, 11)
    assert lc.mul_gf2(lc.identity(6), a) == a
    s2 = lc.gen_sierpinski(2)
    assert lc.mul_gf2(s2, s2) == lc.identity(2)
    empty = lc.mul_gf2(BitMatrix(4, 0, [0] * 4), BitMatrix(0, 4, []))
    assert empty == lc.zeros(4, 4)


def _per_bit_mul_gf2(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """The product as one XOR of B's rows per set bit of A's row."""
    out = []
    for i in range(a.rows):
        acc = 0
        r = a.row(i)
        while r:
            k = (r & -r).bit_length() - 1
            acc ^= b.row(k)
            r &= r - 1
        out.append(acc)
    return BitMatrix(a.rows, b.cols, out)


@pytest.mark.parametrize(
    "m, inner, n",
    [(256, 112, 256), (112, 256, 256), (9, 13, 5), (3, 8, 17), (1, 1, 1), (6, 65, 3),
     (0, 12, 7), (7, 12, 0), (5, 0, 4)],
)
def test_mul_gf2_matches_per_bit_loop(m, inner, n):
    rng = SplitMix64(m * 1000 + inner * 10 + n)
    for _ in range(3):
        a = random_bits_matrix(rng, m, inner)
        b = random_bits_matrix(rng, inner, n)
        assert lc.mul_gf2(a, b) == _per_bit_mul_gf2(a, b)
    if m == inner:
        assert lc.mul_gf2(lc.identity(m), b) == b
    if inner == n:
        assert lc.mul_gf2(a, lc.identity(n)) == a


def _per_bit_transpose(a: BitMatrix) -> BitMatrix:
    """The transpose read off one entry at a time."""
    out = []
    for j in range(a.cols):
        acc = 0
        for i in range(a.rows):
            acc |= a.entry(i, j) << i
        out.append(acc)
    return BitMatrix(a.cols, a.rows, out)


@pytest.mark.parametrize(
    "m, n", [(0, 5), (5, 0), (1, 1), (9, 17), (112, 256), (0, 0), (1, 64), (256, 8)]
)
def test_transpose_matches_per_bit_reference(m, n):
    rng = SplitMix64(m * 1000 + n)
    for _ in range(3):
        a = random_bits_matrix(rng, m, n)
        t = a.transpose()
        assert (t.rows, t.cols) == (n, m)
        assert t == _per_bit_transpose(a)
        assert t.transpose() == a


def test_mul_bool_base_cases():
    a = lc.gen_random(5, 5, 12)
    assert lc.mul_bool(lc.identity(5), a) == a
    j = lc.ones(4, 4)
    assert lc.mul_bool(j, j) == j
    s2 = lc.gen_sierpinski(2)
    assert lc.mul_bool(s2, s2) == s2  # differs from the GF(2) product


def test_products_against_reference():
    # both semirings share one Four-Russians kernel: inner widths on both
    # sides of its 8-row groups, and empty factors on either side
    rng = SplitMix64(77)
    shapes = [(5, 7, 4)] * 25
    shapes += [(m, k, p) for k in (0, 1, 7, 8, 9, 17, 64) for m in (0, 5) for p in (0, 4)]
    shapes.append((40, 112, 40))
    for m, k, p in shapes:
        a = random_bits_matrix(rng, m, k)
        b = random_bits_matrix(rng, k, p)
        assert _as_lists(lc.mul_gf2(a, b)) == ref_mul_gf2(a, b)
        assert _as_lists(lc.mul_bool(a, b)) == ref_mul_bool(a, b)


def test_setintersection_is_boolean_gram_of_binary_codes():
    n = 8
    b = BitMatrix(n, 3, list(range(n)))  # row i = binary representation of i
    assert lc.mul_bool(b, b.transpose()) == lc.gen_setintersection(n)


def test_mul_dimension_mismatch():
    with pytest.raises(lc.DimensionError):
        lc.mul_gf2(lc.identity(3), lc.identity(4))
    with pytest.raises(lc.DimensionError):
        lc.mul_bool(lc.identity(3), lc.identity(4))


def test_complement():
    assert lc.complement(lc.zeros(3, 5)) == lc.ones(3, 5)
    a = lc.gen_random(4, 9, 5)
    assert lc.complement(lc.complement(a)) == a


def test_complement_setint_matches_sierpinski_rows():
    for n in (2, 4, 8, 16, 32):
        s = lc.gen_sierpinski(n)
        comp = lc.complement(lc.gen_setintersection(n))
        perm = lc.setint_row_alignment(n)
        assert all(comp.row(i) == s.row(perm[i]) for i in range(n))
        assert sorted(comp._data) == sorted(s._data)  # row multisets agree


# ---------------------------------------------------------------------------
# rank / determinant / factorization


def test_rank_matches_reference():
    rng = SplitMix64(101)
    for _ in range(40):
        a = random_bits_matrix(rng, 6, 8)
        assert lc.rank_gf2(a) == ref_rank_gf2(a)


def test_rank_examples():
    for n in (1, 2, 4, 8, 16, 64):
        assert lc.rank_gf2(lc.gen_sierpinski(n)) == n
    assert lc.rank_gf2(lc.zeros(4, 7)) == 0
    assert lc.rank_gf2(lc.gen_hadamard(16)) == 5
    assert lc.rank_gf2(lc.gen_hadamard(32)) == 6


def test_det_examples():
    for n in (2, 8, 64):
        assert lc.det_int(lc.gen_sierpinski(n)) == 1  # unit lower-triangular
    assert lc.det_int(lc.gen_hadamard(2)) == -1
    assert lc.det_int(lc.example_a()) == 1
    with pytest.raises(lc.DimensionError):
        lc.det_int(lc.zeros(2, 3))


def test_det_against_oracles():
    rng = SplitMix64(303)
    for _ in range(20):
        a = random_bits_matrix(rng, 5, 5)
        expected = ref_det(a)
        assert expected.denominator == 1
        assert lc.det_int(a) == expected.numerator
        assert lc.det_int(a) == int(sympy.Matrix(_as_lists(a)).det())


def test_det_parity_iff_full_gf2_rank():
    # exhaustive at n <= 3, randomized at 4 <= n <= 6
    for n in (1, 2, 3):
        for code in range(1 << (n * n)):
            mask = (1 << n) - 1
            a = BitMatrix(n, n, [(code >> (n * i)) & mask for i in range(n)])
            assert (lc.det_int(a) % 2 != 0) == (lc.rank_gf2(a) == n)
    rng = SplitMix64(404)
    for n in (4, 5, 6):
        for _ in range(30):
            a = random_bits_matrix(rng, n, n)
            assert (lc.det_int(a) % 2 != 0) == (lc.rank_gf2(a) == n)


def test_rank_factorize():
    z = lc.zeros(3, 4)
    f = lc.rank_factorize_gf2(z)
    assert f.rank == 0 and f.left.cols == 0 and f.right.rows == 0
    assert lc.mul_gf2(f.left, f.right) == z

    full = lc.gen_sierpinski(8)
    f = lc.rank_factorize_gf2(full)
    assert f.rank == 8 and lc.mul_gf2(f.left, f.right) == full

    h = lc.gen_hadamard(32)
    f = lc.rank_factorize_gf2(h)
    assert f.rank == 6
    assert lc.mul_gf2(f.left, f.right) == h

    rng = SplitMix64(55)
    for _ in range(20):
        a = random_bits_matrix(rng, 6, 9)
        f = lc.rank_factorize_gf2(a)
        assert f.rank == lc.rank_gf2(a)
        assert lc.mul_gf2(f.left, f.right) == a


def test_sylvester_rank_inequality_random():
    rng = SplitMix64(66)
    for _ in range(100):
        inner = 3 + rng.randrange(6)
        b = random_bits_matrix(rng, 2 + rng.randrange(7), inner)
        c = random_bits_matrix(rng, inner, 2 + rng.randrange(7))
        assert lc.rank_gf2(lc.mul_gf2(b, c)) >= lc.rank_gf2(b) + lc.rank_gf2(c) - inner


# ---------------------------------------------------------------------------
# popcount and freeness


def test_popcount():
    assert lc.popcount(lc.zeros(3, 3)) == 0
    assert lc.popcount(lc.ones(5, 5)) == 25
    # 3^log2(n) ones in the Sierpinski matrix: 9 at n = 4
    assert lc.popcount(lc.gen_sierpinski(4)) == 9
    assert lc.popcount(lc.example_b()) == 22


def test_is_k_free_exact_examples():
    assert lc.is_k_free_exact(lc.identity(6), 1).k_free
    assert lc.is_k_free_exact(lc.identity(6), 3).k_free
    got = lc.is_k_free_exact(lc.gen_sierpinski(4), 1)
    assert not got.k_free
    assert got.witness.row_idx == (1, 3) and got.witness.col_idx == (0, 1)
    assert not lc.is_k_free_exact(lc.ones(3, 3), 2).k_free


def test_is_k_free_exact_against_brute_force():
    rng = SplitMix64(88)
    for _ in range(30):
        a = random_bits_matrix(rng, 6, 6)
        for k in (1, 2):
            got = lc.is_k_free_exact(a, k)
            assert got.k_free == (not ref_has_allones(a, k + 1))
            if got.witness is not None:
                for i in got.witness.row_idx:
                    for j in got.witness.col_idx:
                        assert a.entry(i, j) == 1


def test_is_k_free_exact_witness_on_a_tall_matrix():
    # more rows than columns: the search runs on the transpose and hands
    # the witness back in the original orientation
    a = BitMatrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 1], [1, 0, 1], [0, 0, 0], [1, 1, 1]])
    got = lc.is_k_free_exact(a, 1)
    assert not got.k_free and ref_has_allones(a, 2)
    assert got.witness == lc.Submatrix((3, 5), (0, 2))
    rng = SplitMix64(89)
    for _ in range(20):
        a = random_bits_matrix(rng, 9, 5)
        got = lc.is_k_free_exact(a, 1)
        assert got.k_free == (not ref_has_allones(a, 2))
        if got.witness is not None:
            assert all(a.entry(i, j) for i in got.witness.row_idx for j in got.witness.col_idx)


@pytest.mark.parametrize("found", [([0, 1], 0b11), ([0], 0b1)], ids=["not-all-ones", "too-small"])
def test_is_k_free_exact_checks_its_witness(monkeypatch, found):
    # a returned witness is a proof, so a wrong block from the search
    # must raise instead of coming back as a Submatrix
    monkeypatch.setattr(lc.matrices, "_first_allones", lambda rows, s: found)
    with pytest.raises(RuntimeError, match="does not verify"):
        lc.is_k_free_exact(lc.identity(4), 1)


def test_find_allones_submatrix_checks_its_witness(monkeypatch):
    a = BitMatrix.from_rows([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0]])
    assert lc.find_allones_submatrix(a, 1, budget=100, seed=0) == lc.Submatrix((0, 1), (0, 1))
    monkeypatch.setattr(lc.matrices, "_set_bits", lambda x: [2, 3])  # the wrong columns
    with pytest.raises(RuntimeError, match="does not verify"):
        lc.find_allones_submatrix(a, 1, budget=100, seed=0)


def test_is_k_free_budget_refusal():
    big = lc.ones(4096, 4096)
    with pytest.raises(lc.BudgetExceededError):
        lc.is_k_free_exact(big, 16)
    assert not kfree_enumeration_feasible(big, 16)
    assert not kfree_enumeration_feasible(lc.ones(256, 256), 16)
    assert kfree_enumeration_feasible(lc.ones(16, 16), 8)
    assert kfree_enumeration_feasible(lc.ones(3, 4096), 16)  # too small for a block


def test_submatrix_to_dict():
    w = lc.Submatrix((0, 2), (1, 3))
    assert json.dumps(w.to_dict()) == '{"rows": [0, 2], "cols": [1, 3]}'


def test_find_allones_submatrix():
    j = lc.ones(8, 8)
    w = lc.find_allones_submatrix(j, 2, budget=1000, seed=0)
    assert w is not None and len(w.row_idx) == 3
    assert lc.find_allones_submatrix(lc.identity(8), 1, budget=10**6, seed=0) is None
    # agreement with the exact check whenever a witness comes back
    rng = SplitMix64(99)
    for _ in range(20):
        a = random_bits_matrix(rng, 7, 7)
        w = lc.find_allones_submatrix(a, 1, budget=2000, seed=5)
        exact = lc.is_k_free_exact(a, 1)
        if w is not None:
            assert not exact.k_free


def _scalar_allones_search(a: BitMatrix, k: int, budget: int, seed: int):
    """The all-ones search one row intersection at a time: one step per
    row a scan evaluates, chosen rows included; first best row on a tie."""
    s = k + 1
    eligible = [(i, r) for i, r in enumerate(a._data) if r.bit_count() >= s]
    if len(eligible) < s:
        return None
    rng = SplitMix64(seed)
    m = len(eligible)
    steps = 0
    while steps < budget:
        start = rng.randrange(m)
        chosen = [start]
        acc = eligible[start][1]
        while len(chosen) < s and steps < budget:
            best = -1
            best_cnt = -1
            for t in range(m):
                steps += 1
                if t in chosen:
                    continue
                cnt = (acc & eligible[t][1]).bit_count()
                if cnt >= s and cnt > best_cnt:
                    best_cnt = cnt
                    best = t
            if best < 0:
                break
            chosen.append(best)
            acc &= eligible[best][1]
        if len(chosen) == s:
            rows = tuple(sorted(eligible[t][0] for t in chosen))
            cols = []
            for j in range(a.cols):
                if (acc >> j) & 1 and len(cols) < s:
                    cols.append(j)
            return lc.Submatrix(rows, tuple(cols))
    return None


def test_find_allones_matches_scalar_scan():
    # the c = 1, n = 128 trial A has rank 7, and it and its complement
    # hold large all-ones blocks; the c = 14 trial A holds none to find
    cfg = lc.ExperimentConfig(n=128, master_seed=3, c=1, trials=1)
    _, _, a = lc.trial_matrices(cfg, 0)
    _, _, dense = lc.trial_matrices(replace(cfg, c=14), 0)
    k = cfg.freeness_k
    m = sum(a.row(i).bit_count() > k for i in range(a.rows))
    # budgets that end a restart after 1, 2 and 5 scans, one step into a
    # scan, and mid-way through several restarts; at seed 0 A's witness
    # needs a 26th scan, which starts only under a budget above 25 m
    assert m == 127
    assert lc.find_allones_submatrix(a, k, budget=25 * m, seed=0) is None
    assert lc.find_allones_submatrix(a, k, budget=25 * m + 1, seed=0) is not None
    budgets = (1, m, m + 1, 5 * m - 1, 5 * m, 25 * m, 25 * m + 1, 3000, 20_000)
    found = missed = 0
    for mat in (a, lc.complement(a), dense):
        for seed in (0, 1, 7):
            for budget in budgets:
                got = lc.find_allones_submatrix(mat, k, budget=budget, seed=seed)
                assert got == _scalar_allones_search(mat, k, budget, seed)
                found += got is not None
                missed += got is None
    assert found and missed
    rng = SplitMix64(5)
    for shape in ((12, 70), (40, 9), (30, 30)):
        mat = random_bits_matrix(rng, *shape)
        for k in (1, 2, 3):
            for seed in (2, 3):
                got = lc.find_allones_submatrix(mat, k, budget=500, seed=seed)
                assert got == _scalar_allones_search(mat, k, 500, seed)


def test_kfree_searches_refuse_k_below_one():
    # k = -1 once looped forever: no step is counted for an empty block
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be"):
            lc.find_allones_submatrix(lc.ones(4, 4), k, budget=100, seed=0)
        with pytest.raises(ValueError, match="k must be"):
            lc.is_k_free_exact(lc.ones(4, 4), k)
        with pytest.raises(ValueError, match="k must be"):
            kfree_enumeration_feasible(lc.ones(4, 4), k)


# ---------------------------------------------------------------------------
# generators and formats


def test_generator_base_cases():
    assert _as_lists(lc.gen_sierpinski(2)) == [[1, 0], [1, 1]]
    assert _as_lists(lc.gen_setintersection(2)) == [[0, 0], [0, 1]]
    assert _as_lists(lc.gen_hadamard(2)) == [[1, 1], [1, 0]]
    assert _as_lists(lc.gen_sierpinski(1)) == [[1]]
    assert _as_lists(lc.gen_setintersection(1)) == [[0]]
    assert _as_lists(lc.gen_hadamard(1)) == [[1]]
    with pytest.raises(ValueError):
        lc.gen_sierpinski(6)


def _quadrant(m: BitMatrix, half: int, r0: int, c0: int) -> BitMatrix:
    rows = []
    mask = (1 << half) - 1
    for i in range(half):
        rows.append((m.row(r0 + i) >> c0) & mask)
    return BitMatrix(half, half, rows)


def test_generator_block_recursions():
    for n in (4, 8, 16, 64):
        half = n // 2
        s = lc.gen_sierpinski(n)
        sh = lc.gen_sierpinski(half)
        assert _quadrant(s, half, 0, 0) == sh
        assert _quadrant(s, half, 0, half) == lc.zeros(half, half)
        assert _quadrant(s, half, half, 0) == sh
        assert _quadrant(s, half, half, half) == sh
        h = lc.gen_hadamard(n)
        hh = lc.gen_hadamard(half)
        assert _quadrant(h, half, 0, 0) == hh
        assert _quadrant(h, half, 0, half) == hh
        assert _quadrant(h, half, half, 0) == hh
        assert _quadrant(h, half, half, half) == lc.complement(hh)
        k = lc.gen_setintersection(n)
        kh = lc.gen_setintersection(half)
        assert _quadrant(k, half, 0, 0) == kh
        assert _quadrant(k, half, 0, half) == kh
        assert _quadrant(k, half, half, 0) == kh
        assert _quadrant(k, half, half, half) == lc.ones(half, half)


def test_example_matrices():
    a = lc.example_a()
    assert a.row_bits(0) == [1, 1, 0, 0]
    b = lc.example_b()
    assert b.row_bits(2) == [1, 1, 1, 1, 0, 0]
    assert b != b.transpose()  # not symmetric
    assert lc.popcount(b) == 22


def test_text_roundtrip():
    rng = SplitMix64(111)
    for _ in range(10):
        a = random_bits_matrix(rng, 1 + rng.randrange(6), 1 + rng.randrange(9))
        assert BitMatrix.from_text(a.to_text()) == a
    for m, n in ((3, 0), (1, 0), (0, 5), (0, 0)):  # rows without columns, and no rows
        a = lc.zeros(m, n)
        assert BitMatrix.from_text(a.to_text()) == a
    with pytest.raises(ValueError):
        BitMatrix.from_text("2 2\n01\n012\n")
    with pytest.raises(ValueError):
        BitMatrix.from_text("junk\n")


def test_json_roundtrip():
    a = lc.gen_random(3, 10, 4)
    blob = json.dumps(a.to_json_dict())
    assert BitMatrix.from_json_dict(json.loads(blob)) == a


def test_kst_bound():
    assert lc.kst_bound(4, 2) == pytest.approx(12.0)
    assert lc.kst_bound(1, 3) == pytest.approx(2 ** (1 / 3) + 2)
    with pytest.raises(ValueError):
        lc.kst_bound(4, 1)


def _max_ones_one_free(n: int) -> int:
    """Backtracking enumeration of all 1-free n x n matrices (rows chosen
    in nondecreasing order; any two rows may share at most one column)."""
    best = 0

    def ok(rows: list[int], cand: int) -> bool:
        return all((r & cand).bit_count() <= 1 for r in rows)

    def rec(rows: list[int], start: int, total: int):
        nonlocal best
        if len(rows) == n:
            best = max(best, total)
            return
        for cand in range(start, 1 << n):
            if ok(rows, cand):
                rec(rows + [cand], cand, total + cand.bit_count())

    rec([], 0, 0)
    return best


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kst_bound_caps_one_free_matrices(n):
    assert _max_ones_one_free(n) <= lc.kst_bound(n, 2)


@pytest.mark.parametrize(
    "make, error, message",
    [
        pytest.param(lambda: BitMatrix(-1, 2, []), lc.DimensionError, "negative shape -1x2",
                     id="negative-shape"),
        pytest.param(lambda: BitMatrix(2, 2, [1]), lc.DimensionError, "expected 2 rows, got 1",
                     id="row-count"),
        pytest.param(lambda: BitMatrix(1, 2, [4]), ValueError, "does not fit in 2 columns",
                     id="row-too-wide"),
        pytest.param(lambda: BitMatrix.from_rows([[1, 0], [1]]), lc.DimensionError, "ragged rows",
                     id="ragged-rows"),
        pytest.param(lambda: BitMatrix.from_rows([[0, 2]]), ValueError, "entry 2 is not Boolean",
                     id="non-boolean-entry"),
        pytest.param(lambda: BitMatrix.from_rows([]), lc.DimensionError, "from no rows",
                     id="no-rows"),
        pytest.param(lambda: BitMatrix.from_text("2 x\n10\n01\n"), ValueError, "bad header line",
                     id="text-header-not-integer"),
        pytest.param(lambda: BitMatrix.from_text("\u0662 \u0662\n10\n01\n"), ValueError,
                     "bad header line", id="text-header-unicode-digits"),
        pytest.param(lambda: BitMatrix.from_text("+2 2\n10\n01\n"), ValueError, "bad header line",
                     id="text-header-sign"),
        pytest.param(lambda: BitMatrix.from_text("2 2 2\n10\n01\n"), ValueError, "bad header line",
                     id="text-header-three-numbers"),
        pytest.param(lambda: BitMatrix.from_text("3 2\n10\n01\n"), ValueError,
                     "expected 3 rows, found 2", id="text-too-few-rows"),
        pytest.param(lambda: BitMatrix.from_json_dict({"rows": 2, "cols": 2, "data": ["10"]}),
                     ValueError, "row count mismatch", id="json-row-count"),
        pytest.param(lambda: BitMatrix.from_json_dict({"rows": 2.9, "cols": True, "data": ["1", "0"]}),
                     ValueError, r"shape 2.9 x True is not two JSON integers", id="json-shape-not-integer"),
        pytest.param(lambda: BitMatrix.from_json_dict({"rows": 2, "cols": True, "data": ["1", "0"]}),
                     ValueError, r"shape 2 x True is not two JSON integers", id="json-shape-bool"),
        pytest.param(lambda: BitMatrix.from_json_dict({"rows": 1, "cols": 1, "data": [1]}),
                     ValueError, "data is not a list of row strings", id="json-row-not-string"),
        pytest.param(lambda: BitMatrix.from_json_dict({"rows": 1, "cols": 1, "data": None}),
                     ValueError, "data is not a list of row strings", id="json-data-null"),
        pytest.param(lambda: BitMatrix.from_json_dict({"rows": 1, "cols": 1, "data": [["1"]]}),
                     ValueError, "data is not a list of row strings", id="json-row-list"),
        pytest.param(lambda: BitMatrix.from_json_dict({"rows": 2, "cols": 1, "data": "10"}),
                     ValueError, "data is not a list of row strings", id="json-data-string"),
        pytest.param(lambda: BitMatrix.from_json_dict({"rows": 1, "cols": 1, "data": {"1": 1}}),
                     ValueError, "data is not a list of row strings", id="json-data-object"),
        pytest.param(lambda: BitMatrix(1, 1, [1]).entry(0, 1), IndexError, r"\(0, 1\)",
                     id="entry-out-of-range"),
        pytest.param(lambda: lc.kst_bound(0, 2), ValueError, "n must be >= 1", id="kst-bound-n"),
        pytest.param(lambda: lc.find_allones_submatrix(lc.ones(4, 4), 1, budget=-1, seed=0),
                     ValueError, "budget must be >= 0, got -1", id="allones-negative-budget"),
        pytest.param(lambda: lc.kfree_quantity(lc.ones(300, 299), 3, evidence_budget=-7),
                     ValueError, "budget must be >= 0, got -7", id="kfree-negative-budget"),
        pytest.param(lambda: lc.kfree_quantity(lc.ones(4, 4), 1, evidence_budget=-1),
                     ValueError, "budget must be >= 0, got -1", id="kfree-enumerable-negative-budget"),
    ],
)
def test_invalid_input_is_refused(make, error, message):
    with pytest.raises(error, match=message) as err:
        make()
    assert type(err.value) is error
