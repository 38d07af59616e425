import hashlib
import heapq
import itertools
import math

import pytest

import lincirc as lc
from lincirc import BitMatrix, SplitMix64, derive_seed
from lincirc.circuits import _Builder
from lincirc.synthesis import _lower_covers
from conftest import random_bits_matrix


def _verify_result(res, target):
    circ = lc.flatten(res.circuit) if isinstance(res.circuit, lc.LayeredCircuit) else res.circuit
    assert lc.verify(circ, target)
    cost = lc.size_wires(res.circuit) if isinstance(res.circuit, lc.LayeredCircuit) else lc.size_gates(res.circuit)
    assert cost == res.cost


# ---------------------------------------------------------------------------
# naive and greedy heuristics


def test_naive_counts():
    a = lc.example_a()
    res = lc.naive_rowwise(a)
    assert res.cost == 8  # row weights 2,3,4,3
    assert res.cancellation_free
    _verify_result(res, a)
    assert lc.naive_rowwise(lc.identity(7)).cost == 0
    n = 5
    assert lc.naive_rowwise(lc.ones(n, n)).cost == n * (n - 1)


def test_naive_zero_row_marker():
    m = BitMatrix.from_rows([[0, 0, 0], [1, 1, 0]])
    res = lc.naive_rowwise(m)
    assert res.circuit.outputs[0] is None
    _verify_result(res, m)


def test_paar_example_a():
    res = lc.paar_greedy(lc.example_a())
    assert res.cost == 5
    assert res.cancellation_free
    _verify_result(res, lc.example_a())


def test_paar_family_cases():
    assert lc.paar_greedy(lc.identity(6)).cost == 0
    s4 = lc.paar_greedy(lc.gen_sierpinski(4))
    assert s4.cost == 4  # matches the closed-form optimum
    _verify_result(s4, lc.gen_sierpinski(4))


def test_paar_never_worse_than_naive():
    rng = SplitMix64(31)
    for _ in range(30):
        m = random_bits_matrix(rng, 2 + rng.randrange(11), 2 + rng.randrange(11))
        paar = lc.paar_greedy(m)
        assert paar.cost <= lc.naive_rowwise(m).cost
        assert paar.cancellation_free
        _verify_result(paar, m)


def _reference_paar(a, taken=None):
    """Paar's greedy as a plain lazy heap over every pair that shares a
    row, with a full recount against every live signal after each gate:
    the oracle for :func:`lincirc.paar_greedy`'s two-phase loop.  If
    ``taken`` is a list, the count of each pair taken is appended to it."""
    n = a.cols
    gates = []
    usage = {}
    for i in range(a.rows):
        for j in range(n):
            if a.entry(i, j):
                usage[j] = usage.get(j, 0) | (1 << i)
    live = sorted(usage)
    heap = [
        (-(usage[s] & usage[t]).bit_count(), s, t)
        for k, s in enumerate(live)
        for t in live[k + 1 :]
        if usage[s] & usage[t]
    ]
    heapq.heapify(heap)
    while heap:
        negcnt, si, sj = heapq.heappop(heap)
        ui, uj = usage.get(si, 0), usage.get(sj, 0)
        cur = (ui & uj).bit_count()
        if cur == 0:
            continue
        if cur != -negcnt:
            heapq.heappush(heap, (-cur, si, sj))
            continue
        gates.append((si, sj))
        if taken is not None:
            taken.append(cur)
        snew = n + len(gates) - 1
        both = ui & uj
        usage[snew] = both
        for s, u in ((si, ui & ~both), (sj, uj & ~both)):
            if u:
                usage[s] = u
            else:
                del usage[s]
        for t, ut in usage.items():
            if t != snew and both & ut:
                heapq.heappush(heap, (-(both & ut).bit_count(), min(snew, t), max(snew, t)))
    outputs = [None] * a.rows
    for s, u in usage.items():
        for r in range(a.rows):
            if u >> r & 1:
                outputs[r] = s
    return lc.Circuit(n, lc.XOR, tuple(gates), tuple(outputs))


def _paar_oracle_matrices():
    rng = SplitMix64(1997)
    mats = []
    shapes = [(1 + rng.randrange(40), 1 + rng.randrange(40)) for _ in range(180)]
    shapes += [(65, 9), (130, 12), (100, 30), (130, 40), (1, 130), (7, 130), (130, 1), (70, 70), (129, 64)]
    shapes += [(1, 1)] * 4 + [(0, 5), (5, 0)]
    for m, n in shapes:
        density = rng.randrange(3)  # 1/4, 1/2 or 3/4 of the entries set
        rows = []
        for _ in range(m):
            r = rng.bits(n)
            r = r & rng.bits(n) if density == 0 else r | rng.bits(n) if density == 2 else r
            pick = rng.randrange(8)
            if pick == 0:
                r = 0
            elif pick == 1 and rows:
                r = rows[rng.randrange(len(rows))]
            rows.append(r)
        mats.append(BitMatrix(m, n, rows))
    mats += [lc.identity(1), lc.identity(17), lc.ones(9, 9), lc.ones(70, 5), lc.ones(3, 100)]
    mats += [lc.gen_sierpinski(32), lc.gen_hadamard(16), lc.gen_setintersection(16)]
    mats += [lc.example_a(), lc.example_b()]
    return mats


def test_paar_matches_full_recount_oracle():
    # the two-phase loop takes the same pairs in the same order as a full
    # recount: same SLP text, so zero rows, duplicate rows, m > 64 (rows
    # past one machine word), m != n and the structured families agree
    mats = _paar_oracle_matrices()
    assert len(mats) >= 200
    for a in mats:
        res = lc.paar_greedy(a)
        assert lc.slp_dumps(res.circuit) == lc.slp_dumps(_reference_paar(a)), (a.rows, a.cols)


def test_paar_taken_counts_never_rise():
    # the fact paar_greedy's count-bucketed queue rests on: while the pair
    # taken shares two or more rows, its count never rises from one gate
    # to the next
    steps = 0
    for a in _paar_oracle_matrices():
        taken = []
        _reference_paar(a, taken)
        shared = [c for c in taken if c >= 2]
        assert shared == sorted(shared, reverse=True), (a.rows, a.cols)
        steps += len(shared)
    assert steps > 1000


def test_paar_outputs_match_pinned_digest():
    # the paar jobs of the benchmark's synth-greedy pass 0 (job index k,
    # n) on the bench seeds and the held-out one, plus one n = 256 matrix;
    # SLP text and cost are pinned byte for byte
    jobs = ((0, 64), (1, 96), (2, 112), (4, 112), (5, 96), (6, 64), (7, 112), (9, 96), (10, 112))
    mats = [lc.gen_random(n, n, derive_seed(seed, 0, k)) for seed in (1, 2, 20131305) for k, n in jobs]
    mats.append(lc.gen_random(256, 256, 7))
    h = hashlib.sha256()
    for m in mats:
        res = lc.paar_greedy(m)
        h.update(lc.slp_dumps(res.circuit).encode())
        h.update(str(res.cost).encode())
    assert h.hexdigest() == "8a470be13fbc959b95337013a6e89ee3bf0491e411fb0e09cee69551051441e9"


def test_bp_example_a():
    res = lc.boyar_peralta(lc.example_a())
    assert res.cost <= 5
    assert res.cancellation_free
    _verify_result(res, lc.example_a())


def test_bp_unit_rows_and_sierpinski():
    units = BitMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 1, 0]])
    assert lc.boyar_peralta(units).cost == 0
    s8 = lc.boyar_peralta(lc.gen_sierpinski(8))
    assert s8.cost == 12  # meets the closed-form optimum
    assert s8.cancellation_free
    _verify_result(s8, lc.gen_sierpinski(8))


def test_bp_random_verification():
    rng = SplitMix64(32)
    for _ in range(10):
        m = random_bits_matrix(rng, 5, 5)
        res = lc.boyar_peralta(m)
        assert res.cancellation_free
        _verify_result(res, m)


def _bp_pinned_matrices():
    """The matrices of the benchmark's bp jobs (n = 9, bench seeds and the
    held-out one), larger random ones and two Sierpinski matrices."""
    mats = [
        lc.gen_random(9, 9, derive_seed(seed, p, k))
        for seed in (1, 2, 20131305)
        for p in range(6)
        for k in (3, 8)
    ]
    mats += [lc.gen_random(n, n, s) for n in (10, 12) for s in (1, 2, 3)]
    mats += [lc.gen_sierpinski(8), lc.gen_sierpinski(16), lc.gen_random(14, 14, 1), lc.gen_random(16, 16, 1)]
    return mats


def test_bp_outputs_match_pinned_digest():
    # the SLP text is pinned byte for byte; pinned with the budgeted
    # branch-and-bound cover search the table replaced, which was exact
    # on every one of these matrices
    h = hashlib.sha256()
    for m in _bp_pinned_matrices():
        h.update(lc.slp_dumps(lc.boyar_peralta(m).circuit).encode())
    assert h.hexdigest() == "0d84355b337cac2fae399e9da38b0f8189f7f5cdafd036cc5f1a8cb78d44e9c5"


def test_bp_reports_no_params():
    # distances are exact by construction: there is no budget to report
    for m in _bp_pinned_matrices()[:4]:
        assert lc.boyar_peralta(m).params == {}


def _brute_min_cover(target, base):
    """Fewest pairwise-disjoint base values whose union is ``target``."""
    under = [v for v in base if v and v & ~target == 0]
    for size in range(target.bit_count() + 1):
        for combo in itertools.combinations(under, size):
            if sum(combo) == target and sum(v.bit_count() for v in combo) == target.bit_count():
                return size
    raise AssertionError("the units always cover the target")


def _cover_cases(seed, count):
    """Seeded (target, base) pairs over n <= 8 bits; each base holds the
    units and up to 11 other values."""
    rng = SplitMix64(seed)
    for _ in range(count):
        n = 2 + rng.randrange(7)
        base = [1 << i for i in range(n)]
        base += sorted({1 + rng.randrange((1 << n) - 1) for _ in range(rng.randrange(12))} - set(base))
        yield 1 + rng.randrange((1 << n) - 1), base


def _submasks(t):
    s = t
    while True:
        yield s
        if not s:
            return
        s = (s - 1) & t


def test_cover_table_matches_brute_force():
    # a unit table over the target's submasks, lowered one base value at a
    # time, must hold every submask's fewest disjoint base values
    checked = 0
    for target, base in _cover_cases(4242, 300):
        cover = {s: s.bit_count() for s in _submasks(target)}
        for v in base:
            _lower_covers(cover, v, [target])
        for s in _submasks(target):
            assert cover[s] == _brute_min_cover(s, base), (target, base, s)
        checked += cover[target] < target.bit_count()
    assert checked > 50  # a third of the targets beat the unit cover


# ---------------------------------------------------------------------------
# block constructions


def test_lupanov_bound_and_verification():
    m = lc.gen_random(64, 64, 4242)
    res = lc.lupanov(m)
    _verify_result(res, m)
    assert res.cancellation_free
    b = res.params["block_width"]
    assert b == 6
    cap = math.ceil(64 / b) * min(2**b, 64) * (b - 1) + 64 * (math.ceil(64 / b) - 1)
    assert res.cost <= cap


def test_lupanov_identity_and_inner_factor_shape():
    assert lc.lupanov(lc.identity(9)).cost == 0
    worst = 0
    for s in range(16):
        m = lc.gen_random(256, 14, derive_seed(99, s))
        res = lc.lupanov(m)
        _verify_result(res, m)
        worst = max(worst, res.cost)
    assert worst <= 8 * 256  # measured 506 at these seeds


def test_lupanov_or_connective():
    m = lc.gen_random(12, 12, 7)
    res = lc.lupanov(m, lc.OR)
    assert res.circuit.connective == lc.OR
    assert lc.matrix_of(res.circuit) == m  # OR semantics used by matrix_of
    assert res.cancellation_free  # OR circuits cannot cancel


def _closure_lupanov(a: BitMatrix, connective: str) -> lc.Circuit:
    """The block construction through a pattern-building closure and the
    circuit builder: each pattern peels its top bits down to a built
    pattern or a single input, then rebuilds."""
    m, n = a.rows, a.cols
    width = max(1, m.bit_length() - 1)
    b = _Builder(n, connective)
    sig_of: dict[int, int] = {}

    def build(mask: int) -> int:
        peeled = []
        while mask not in sig_of and mask.bit_count() > 1:
            peeled.append(mask)
            mask ^= 1 << (mask.bit_length() - 1)
        sig = sig_of.setdefault(mask, mask.bit_length() - 1)
        for p in reversed(peeled):
            sig = sig_of[p] = b.gate(sig, p.bit_length() - 1)
        return sig

    masks = [((1 << min(width, n - lo)) - 1) << lo for lo in range(0, n, width)]
    outputs = []
    for i in range(m):
        row = a.row(i)
        parts = [build(row & bm) for bm in masks if row & bm]
        if not parts:
            outputs.append(None)
            continue
        acc = parts[0]
        for p in parts[1:]:
            acc = b.gate(acc, p)
        outputs.append(acc)
    return b.circuit(outputs)


@pytest.mark.parametrize("connective", [lc.XOR, lc.OR])
def test_lupanov_matches_closure_builder(connective):
    rng = SplitMix64(31)
    mats = [lc.identity(9), lc.zeros(3, 5), BitMatrix(16, 4, list(range(16)))]
    mats += [random_bits_matrix(rng, m, n) for m, n in ((256, 112), (112, 256), (13, 7), (1, 30))]
    for a in mats:
        assert lc.lupanov(a, connective).circuit == _closure_lupanov(a, connective)


def test_lupanov_depth2_identity_and_golden():
    res = lc.lupanov_depth2(lc.identity(8))
    assert res.cost == 8  # one wire per output
    _verify_result(res, lc.identity(8))
    s16 = lc.lupanov_depth2(lc.gen_sierpinski(16))
    assert lc.depth(s16.circuit) == 2
    assert s16.cost == 69  # frozen from the first verified run
    assert s16.cost <= 16 * math.ceil(16 / 2) * 2
    _verify_result(s16, lc.gen_sierpinski(16))
    assert s16.cancellation_free
    # example_a shares no block pattern: an empty middle layer, one gate deep
    assert lc.depth(lc.lupanov_depth2(lc.example_a()).circuit) == 1


def test_lupanov_depth2_wire_ratio():
    for n in (64, 128):
        for s in range(4):
            m = lc.gen_random(n, n, derive_seed(7, n, s))
            res = lc.lupanov_depth2(m)
            _verify_result(res, m)
            assert res.cost / (n * n / math.log2(n)) <= 4


# ---------------------------------------------------------------------------
# explicit families


def test_sierpinski_circuit_costs():
    for n in (1, 2, 8, 256):
        res = lc.sierpinski_circuit(n)
        assert res.cost == n * (n.bit_length() - 1) // 2
        assert res.cancellation_free
        _verify_result(res, lc.gen_sierpinski(n))
    with pytest.raises(ValueError):
        lc.sierpinski_circuit(12)


def test_setintersection_circuit():
    tiny = lc.setintersection_or_circuit(2)
    assert tiny.cost <= 2
    _verify_result(tiny, lc.gen_setintersection(2))
    assert lc.eval_circuit(tiny.circuit, [0, 1]) == [0, 1]  # K_2 applied to e2
    res = lc.setintersection_or_circuit(4)
    _verify_result(res, lc.gen_setintersection(4))
    # column of K_4 via evaluation at a unit vector
    out = lc.eval_circuit(res.circuit, [0, 0, 0, 1])
    assert out == [lc.gen_setintersection(4).entry(i, 3) for i in range(4)]
    for n in (64, 256):
        big = lc.setintersection_or_circuit(n)
        assert big.cost <= 8 * n
        _verify_result(big, lc.gen_setintersection(n))


def test_hadamard_circuit():
    res = lc.hadamard_circuit(16)
    _verify_result(res, lc.gen_hadamard(16))
    assert not res.cancellation_free
    assert res.params["rank"] == 5
    for n in (64, 256, 1024):
        big = lc.hadamard_circuit(n)
        assert big.cost <= 10 * n
        _verify_result(big, lc.gen_hadamard(n))
    small = lc.hadamard_circuit(2)
    _verify_result(small, lc.gen_hadamard(2))


def test_block_builders_verify_only_their_result(monkeypatch):
    # the set-intersection and Hadamard builders compose two unverified
    # lupanov factors and verify the composed circuit once; SLP text,
    # cost, CF flag and params are pinned byte for byte
    calls = []

    def counting_verify(circuit, target):
        calls.append(target.rows)
        return lc.verify(circuit, target)

    monkeypatch.setattr(lc.circuits, "verify", counting_verify)  # check's binding
    h = hashlib.sha256()
    for n in (2, 4, 16, 64, 256):
        for build in (lc.setintersection_or_circuit, lc.hadamard_circuit):
            calls.clear()
            res = build(n)
            assert calls == [n], (build.__name__, n)
            h.update(lc.slp_dumps(res.circuit).encode())
            h.update(repr((res.cost, res.cancellation_free, sorted(res.params.items()))).encode())
    assert h.hexdigest() == "37a0d3e531e4a32775c5b4b0f428144e1fe4039efa6b1effbc3448928dbf1cc4"


def test_complement_transform():
    for n in (2, 8, 64):
        base = lc.sierpinski_circuit(n)
        comp = lc.complement_transform(base.circuit)
        assert lc.verify(comp, lc.complement(lc.gen_sierpinski(n)))
        assert lc.size_gates(comp) - base.cost == 2 * n - 1
        if n > 1:
            assert not lc.is_cancellation_free(comp)
        twice = lc.complement_transform(comp)
        assert lc.verify(twice, lc.gen_sierpinski(n))


def test_complement_transform_zero_row_forwards_parity():
    m = BitMatrix.from_rows([[0, 0], [1, 0]])
    base = lc.naive_rowwise(m)
    comp = lc.complement_transform(base.circuit)
    assert lc.verify(comp, lc.complement(m))


def test_product_circuit():
    b = lc.gen_random(12, 18, 1)
    c = lc.gen_random(18, 12, 2)
    res = lc.product_circuit(b, c)
    _verify_result(res, lc.mul_gf2(b, c))
    assert res.cost == lc.lupanov(b).cost + lc.lupanov(c).cost  # composition adds no gates
    lay = lc.product_circuit(b, c, "depth4")
    assert lc.depth(lay.circuit) == 4
    _verify_result(lay, lc.mul_gf2(b, c))
    ident = lc.product_circuit(lc.identity(5), lc.identity(5))
    _verify_result(ident, lc.identity(5))
    with pytest.raises(lc.DimensionError):
        lc.product_circuit(lc.identity(3), lc.identity(4))


def test_product_circuit_measured_constant():
    # empirical size constant at the 64-scale factor shapes, seeds recorded
    worst = 0
    for s in range(4):
        b = lc.gen_random(64, 84, derive_seed(5, s, 0))
        c = lc.gen_random(84, 64, derive_seed(5, s, 1))
        res = lc.product_circuit(b, c)
        _verify_result(res, lc.mul_gf2(b, c))
        worst = max(worst, res.cost)
    assert worst <= 48 * 64  # measured 2759 at these seeds


def test_block_builders_match_pinned_digest():
    # SLP text of both block builders on trial 0's factors (seed 1), of
    # both product modes and of the flattened depth-4 product, byte for
    # byte; the trial digests pin only their counts
    h = hashlib.sha256()
    for n in (64, 256):
        b, c, _ = lc.trial_matrices(lc.ExperimentConfig(n=n, master_seed=1), 0)
        for m in (b, c):
            h.update(lc.slp_dumps(lc.lupanov(m).circuit).encode())
            h.update(lc.slp_dumps(lc.lupanov_depth2(m).circuit).encode())
        layered = lc.product_circuit(b, c, "depth4").circuit
        h.update(lc.slp_dumps(lc.product_circuit(b, c, "fanin2").circuit).encode())
        h.update(lc.slp_dumps(layered).encode())
        h.update(lc.slp_dumps(lc.flatten(layered)).encode())
    assert h.hexdigest() == "f8845963d7e3c753c5e9ebd1cbc3af340fd9c7739c0749bccae1e7202ccb0a51"


def test_all_synthesis_results_roundtrip_as_slp():
    a = lc.example_a()
    for res in (
        lc.naive_rowwise(a),
        lc.paar_greedy(a),
        lc.boyar_peralta(a),
        lc.lupanov(a),
        lc.sierpinski_circuit(4),
        lc.setintersection_or_circuit(4),
        lc.hadamard_circuit(4),
    ):
        assert lc.slp_loads(lc.slp_dumps(res.circuit)) == res.circuit
    lay = lc.lupanov_depth2(a)
    assert lc.slp_loads(lc.slp_dumps(lay.circuit)) == lay.circuit


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: lc.product_circuit(lc.identity(2), lc.identity(2), "depth3"),
                     "unknown depth mode 'depth3'", id="product-depth-mode"),
        pytest.param(lambda: lc.complement_transform(lc.Circuit(2, lc.OR, ((0, 1),), (2,))),
                     "defined for XOR circuits", id="complement-of-or"),
        pytest.param(lambda: lc.boyar_peralta(lc.gen_sierpinski(32)),
                     "bp cover table would hold 4295297716 entries", id="bp-cover-table"),
    ],
)
def test_invalid_input_is_refused(make, message):
    with pytest.raises(ValueError, match=message) as err:
        make()
    assert type(err.value) is ValueError
