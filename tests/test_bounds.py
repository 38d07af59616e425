import math

import pytest
import sympy

import lincirc as lc
from lincirc import SplitMix64
from conftest import random_bits_matrix


def test_morgenstern_degenerate_on_sierpinski():
    for n in (2, 8, 64, 256):
        assert lc.morgenstern(lc.gen_sierpinski(n)) == 0.0


def test_morgenstern_values():
    assert lc.morgenstern(lc.gen_hadamard(2)) == 0.0
    # exact determinant magnitudes, cross-checked against sympy
    expected = {8: 5, 16: 17, 32: 49, 64: 129}
    for n, e in expected.items():
        h = lc.gen_hadamard(n)
        assert abs(lc.det_int(h)) == 1 << e
        assert lc.morgenstern(h) == pytest.approx(e)
    h8 = lc.gen_hadamard(8)
    assert int(sympy.Matrix([h8.row_bits(i) for i in range(8)]).det()) == lc.det_int(h8)


def test_morgenstern_singular_and_nonsquare():
    assert lc.morgenstern(lc.zeros(3, 3)) is None
    with pytest.raises(lc.DimensionError):
        lc.morgenstern(lc.zeros(2, 3))


def test_morgenstern_normalized_growth():
    vals = [lc.morgenstern(lc.gen_hadamard(n)) / (n * math.log2(n)) for n in (8, 16, 32, 64)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_morgenstern_below_cf_optimum():
    rng = SplitMix64(51)
    mats = [lc.example_a(), lc.gen_hadamard(4), lc.gen_sierpinski(4)]
    mats += [random_bits_matrix(rng, 4, 4) for _ in range(10)]
    for m in mats:
        bound = lc.morgenstern(m)
        if bound is None:
            continue
        assert bound <= lc.optimal_size(m, "CF").optimal_size + 1e-9


def test_kfree_quantity_statuses():
    st = lc.kfree_quantity(lc.identity(6), 1)
    assert st.kind == "exact-free" and st.quantity == 6.0
    st = lc.kfree_quantity(lc.gen_sierpinski(4), 1)
    assert st.kind == "exact-not-free" and st.quantity is None
    assert st.witness.row_idx == (1, 3)
    # beyond the enumeration budget: heuristic evidence with seed recorded
    cfg_k = 16
    big = lc.mul_gf2(lc.gen_random(256, 112, 1), lc.gen_random(112, 256, 2))
    st = lc.kfree_quantity(big, cfg_k, evidence_budget=20_000, seed=5)
    assert st.kind in ("evidence-free", "exact-not-free")
    if st.kind == "evidence-free":
        assert st.quantity == pytest.approx(lc.popcount(big) / cfg_k**2)
        assert st.seed == 5 and st.budget == 20_000


class _FinderCalled(Exception):
    pass


def test_kfree_quantity_decides_exactly_without_the_finder(monkeypatch):
    # where enumeration is feasible the verdict is exact, so the
    # randomized finder must not run on either side of it
    def refuse(*args, **kwargs):
        raise _FinderCalled

    monkeypatch.setattr(lc.bounds, "find_allones_submatrix", refuse)
    tall = lc.BitMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])
    cases = [
        (lc.identity(8), 1, "exact-free"),
        (lc.gen_hadamard(16), 4, "exact-free"),
        (lc.gen_sierpinski(8), 1, "exact-not-free"),
        (tall, 1, "exact-not-free"),
    ]
    for a, k, kind in cases:
        assert lc.matrices.kfree_enumeration_feasible(a, k)
        assert lc.kfree_quantity(a, k, seed=3).kind == kind
    # the patch is live: past the enumeration budget the finder runs
    with pytest.raises(_FinderCalled):
        lc.kfree_quantity(lc.gen_hadamard(64), 7, seed=3)


def test_kfree_quantity_refuses_k_below_one():
    for k in (0, -2):
        with pytest.raises(ValueError, match="k must be"):
            lc.kfree_quantity(lc.identity(6), k)
        with pytest.raises(ValueError, match="k must be"):
            lc.bound_report(lc.identity(6), kfree_ks=(k,))


def test_kst_cap():
    ok, cap = lc.kst_cap(lc.ones(4, 4), 2)
    assert cap == pytest.approx(12.0)
    assert not ok  # J is not 1-free, and indeed violates the cap
    ok, cap = lc.kst_cap(lc.identity(4), 2)
    assert ok and cap >= 4
    rng = SplitMix64(52)
    for _ in range(20):
        m = random_bits_matrix(rng, 5, 5)
        if lc.kfree_quantity(m, 1).kind == "exact-free":
            ok, _ = lc.kst_cap(m, 2)
            assert ok  # theorem instance; failure would be a bug
    for _ in range(20):
        m = random_bits_matrix(rng, 6, 6)
        if lc.kfree_quantity(m, 2).kind == "exact-free":
            ok, _ = lc.kst_cap(m, 3)
            assert ok


def test_trivial_bounds():
    assert lc.trivial_bounds(lc.identity(5)) == (5, 0)
    assert lc.trivial_bounds(lc.example_a()) == (4, 4)
    assert lc.trivial_bounds(lc.gen_sierpinski(8)) == (8, 7)


def test_trivial_bounds_sound_for_xor():
    rng = SplitMix64(53)
    for _ in range(15):
        m = random_bits_matrix(rng, 4, 4)
        _, heavy = lc.trivial_bounds(m)
        assert heavy <= lc.optimal_size(m, "XOR").optimal_size


def test_sierpinski_lb():
    assert lc.sierpinski_lb(2) == 1
    assert lc.sierpinski_lb(8) == 12
    assert lc.sierpinski_lb(1024) == 5120
    with pytest.raises(ValueError):
        lc.sierpinski_lb(10)


def test_sierpinski_lb_is_tight_and_holds_for_or():
    for n in (2, 4, 8, 16):
        assert lc.sierpinski_circuit(n).cost == lc.sierpinski_lb(n)
    for n in (2, 4):
        out = lc.optimal_size(lc.gen_sierpinski(n), "OR")
        assert out.optimal_size == lc.sierpinski_lb(n)


def test_bound_report_sierpinski():
    rep = lc.bound_report(lc.gen_sierpinski(8))
    assert rep.morgenstern_log2_absdet == 0.0
    assert rep.sierpinski_closed_form == 12
    assert rep.rank_gf2 == 8
    assert rep.distinct_heavy_rows == 7
    assert not rep.singular


def test_bound_report_identity_and_hadamard():
    rep = lc.bound_report(lc.identity(4))
    assert rep.distinct_heavy_rows == 0
    assert rep.sierpinski_closed_form is None
    rep = lc.bound_report(lc.gen_hadamard(16))
    assert rep.morgenstern_log2_absdet == pytest.approx(17.0)


def test_bound_report_serializes():
    rep = lc.bound_report(lc.gen_sierpinski(4), kfree_ks=(1,), kst_a=2)
    d = rep.to_dict()
    assert d["kfree"][0]["kind"] == "exact-not-free"
    assert d["kst"]["a"] == 2
    assert isinstance(d["matrix_sha256"], str) and len(d["matrix_sha256"]) == 64


@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 2)])
def test_kst_cap_refuses_non_square_matrices(rows, cols):
    with pytest.raises(lc.DimensionError, match="square matrices"):
        lc.kst_cap(lc.BitMatrix(rows, cols, [0] * rows), 2)
