"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Numeric targets are either closed-form, frozen from the first verified
run of this implementation (empirical constants, recorded with their
seeds), or statistical with the tolerance stated inline.
"""

import hashlib
import math
from fractions import Fraction

import lincirc as lc
from lincirc import BitMatrix, ExperimentConfig, SplitMix64
from conftest import ref_bias_character_sum


# empirical constants frozen from the first verified run
SEPARATION_SEED = 20250811
COMPOSED_GATES_KAPPA = 53  # max observed 52.97 * n at the seed above
BIAS_MASK_M2 = [[0, 0], [0, None]]
BIAS_MASK_M3 = [[0, 1, 0], [1, 0, None], [0, 0, 1]]


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_exact_gate_counts():
    a, b = lc.example_a(), lc.example_b()
    got = (
        lc.optimal_size(a, "XOR").optimal_size,
        lc.optimal_size(a, "CF").optimal_size,
        lc.optimal_size(b, "OR").optimal_size,
        lc.optimal_size(b, "CF").optimal_size,
    )
    _report(1, "exact optima (A:XOR/CF, B:OR/CF)", got == (4, 5, 6, 7), f"got {got}")


def test_criterion_02_sierpinski_tightness():
    ok = True
    detail = []
    n = 2
    while n <= 1024:
        res = lc.sierpinski_circuit(n)
        lb = lc.sierpinski_lb(n)
        good = (
            res.cost == lb == n * int(math.log2(n)) // 2
            and res.cancellation_free
            and lc.verify(res.circuit, lc.gen_sierpinski(n))
        )
        ok &= good
        if not good:
            detail.append(f"n={n}: cost {res.cost} vs lb {lb}")
        n *= 2
    _report(2, "Sierpinski circuit cost = (n/2)log2(n), CF, verified", ok, "; ".join(detail))


def test_criterion_03_small_sierpinski_optima():
    s2 = lc.optimal_size(lc.gen_sierpinski(2), "XOR").optimal_size
    s4 = lc.optimal_size(lc.gen_sierpinski(4), "XOR").optimal_size
    _report(3, "optimal XOR size S_2=1, S_4=4", (s2, s4) == (1, 4), f"got ({s2}, {s4})")


# sha256 of repr((gates, outputs)) of the S_8 witness at limit 12, the
# same circuit in all three models, as the search gave it before it swept
# closed states only
S8_WITNESS_SHA256 = "998b7d91524635bfcb5fd11bf09e3ef12ce54e89fc0a42b98dc012c01285ad3c"


def test_criterion_03_long_s8_optimum():
    out = lc.optimal_size(lc.gen_sierpinski(8), "XOR", limit=12)
    ok = (
        out.optimal_size == 12
        and lc.verify(out.witness, lc.gen_sierpinski(8))
        and hashlib.sha256(repr((out.witness.gates, out.witness.outputs)).encode()).hexdigest()
        == S8_WITNESS_SHA256
    )
    _report(3, "optimal XOR size S_8=12", ok,
            f"got {out.optimal_size}, {out.nodes_expanded} nodes")


def test_criterion_04_morgenstern():
    degenerate = all(
        lc.morgenstern(lc.gen_sierpinski(n)) == 0.0 for n in (2, 4, 8, 64, 256)
    )
    # exact big-integer determinants, frozen: |det H_n| = 2^e
    expected = {8: 5, 16: 17, 32: 49, 64: 129}
    exact_dets = all(abs(lc.det_int(lc.gen_hadamard(n))) == 1 << e for n, e in expected.items())
    normalized = [e / (n * math.log2(n)) for n, e in sorted(expected.items())]
    nondecreasing = all(x <= y for x, y in zip(normalized, normalized[1:]))
    ok = degenerate and exact_dets and nondecreasing
    _report(4, "Morgenstern: 0 on S_n, H_n growth nondecreasing", ok,
            f"normalized {[round(v, 4) for v in normalized]}")


def test_criterion_05_complement_transform():
    ok = True
    n = 2
    while n <= 1024:
        base = lc.sierpinski_circuit(n)
        comp = lc.complement_transform(base.circuit)
        ok &= lc.size_gates(comp) - base.cost == 2 * n - 1
        ok &= lc.verify(comp, lc.complement(lc.gen_sierpinski(n)))
        n *= 2
    _report(5, "complement transform adds exactly 2n-1 gates", ok)


def test_criterion_06_setintersection_linear_or():
    ok = True
    details = []
    n = 64
    while n <= 1024:
        res = lc.setintersection_or_circuit(n)
        good = res.cost <= 8 * n and lc.verify(res.circuit, lc.gen_setintersection(n))
        # measured OR-complexity gap against the Sierpinski optimum
        ratio = lc.sierpinski_lb(n) / res.cost
        good &= ratio >= (math.log2(n) / 2) / 8
        ok &= good
        details.append(f"n={n}:{res.cost}g")
        n *= 2
    _report(6, "K_n OR circuit <= 8n and gap ratio", ok, " ".join(details))


def test_criterion_07_separation_experiment():
    ok = True
    details = []
    medians = []
    for n in (64, 128, 256, 512):
        cfg = ExperimentConfig(n=n, master_seed=SEPARATION_SEED, trials=8)
        rep = lc.run_experiment(cfg)
        dens_ok = all(t.density > 0.3 for t in rep.trials)
        free_ok = all(
            t.allones_witness is None and t.allzeros_witness is None for t in rep.trials
        )
        gates_ok = all(t.composed_gates <= COMPOSED_GATES_KAPPA * n for t in rep.trials)
        # composed circuits were verified exactly inside product_circuit
        ok &= dens_ok and free_ok and gates_ok
        medians.append(rep.median_ratio_proxy)
        details.append(
            f"n={n}: dens>{0.3}:{dens_ok} free:{free_ok} "
            f"gates<= {COMPOSED_GATES_KAPPA}n:{gates_ok}"
        )
    trend = all(a <= b for a, b in zip(medians, medians[1:]))
    ok &= trend
    _report(7, "separation trials (density, freeness, size, trend)", ok,
            f"{'; '.join(details)}; proxy medians {[round(m, 5) for m in medians]}")


def test_criterion_07_heuristic_ratio_crosses_one():
    # paar's cancellation-free circuit for A against the composed XOR
    # circuit, both verified: the greedy CF circuit is the smaller one at
    # n = 256 and the larger one at n = 512 (medians of 2 trials, measured
    # 0.818 and 1.412 at this seed)
    cfg = ExperimentConfig(n=256, master_seed=20131305, trials=2)
    small, large = (p.median_heuristic_ratio for p in lc.ratio_sweep([256, 512], cfg).points)
    _report(7, "paar / composed gates crosses 1 between n = 256 and 512",
            small < 1.0 < large, f"medians {small:.3f} and {large:.3f}")


def test_criterion_08_sylvester_inequality():
    rng = SplitMix64(808)
    ok = True
    for _ in range(10_000):
        inner = 2 + rng.randrange(31)
        rows = 2 + rng.randrange(31)
        cols = 2 + rng.randrange(31)
        b = BitMatrix(rows, inner, [rng.bits(inner) for _ in range(rows)])
        c = BitMatrix(inner, cols, [rng.bits(cols) for _ in range(inner)])
        if lc.rank_gf2(lc.mul_gf2(b, c)) < lc.rank_gf2(b) + lc.rank_gf2(c) - inner:
            ok = False
            break
    _report(8, "Sylvester rank inequality, 10^4 random pairs", ok)


def test_criterion_09_conditional_bias():
    # the rank chain equals the character-sum expansion of BC's law at
    # the lemma's width inner = 7m, and the m = 3 value is within 1/3 of 1/2
    masks = {2: BIAS_MASK_M2, 3: BIAS_MASK_M3}
    got = {m: lc.exact_conditional_bias(mask) for m, mask in masks.items()}
    want = {m: ref_bias_character_sum(mask, 7 * m) for m, mask in masks.items()}
    ok = got == want and Fraction(1, 6) < got[3] < Fraction(5, 6)
    _report(9, "exact conditional bias (m=2 and m=3 vs character sum, m=3 interval)", ok,
            f"m2 {got[2]} vs {want[2]}; m3 {got[3]} vs {want[3]}")


def test_criterion_10_invariant_suites():
    # full 3x3 census plus 200 random 4x4 matrices: heuristics never beat
    # the optimum, and the model optima are monotone
    heuristics_ok = True
    monotone_ok = True
    synth_ok = True

    for code in range(512):
        m = BitMatrix(3, 3, [(code >> (3 * i)) & 7 for i in range(3)])
        xor = lc.optimal_size(m, "XOR").optimal_size
        cf = lc.optimal_size(m, "CF").optimal_size
        orr = lc.optimal_size(m, "OR").optimal_size
        monotone_ok &= xor <= cf and orr <= cf
        for res in (lc.naive_rowwise(m), lc.paar_greedy(m), lc.boyar_peralta(m)):
            heuristics_ok &= res.cost >= cf
            synth_ok &= res.cancellation_free

    rng = SplitMix64(1010)
    for _ in range(200):
        m = BitMatrix(4, 4, [rng.bits(4) for _ in range(4)])
        xor = lc.optimal_size(m, "XOR").optimal_size
        cf = lc.optimal_size(m, "CF").optimal_size
        orr = lc.optimal_size(m, "OR").optimal_size
        monotone_ok &= xor <= cf and orr <= cf
        for res in (lc.naive_rowwise(m), lc.paar_greedy(m), lc.boyar_peralta(m)):
            heuristics_ok &= res.cost >= cf
            synth_ok &= res.cancellation_free

    # every synthesis output verifies (checked internally; exercised here
    # across methods and shapes) and CF claims hold
    rng = SplitMix64(1011)
    for _ in range(10):
        m = BitMatrix(6, 6, [rng.bits(6) for _ in range(6)])
        for res in (
            lc.naive_rowwise(m),
            lc.paar_greedy(m),
            lc.boyar_peralta(m),
            lc.lupanov(m),
            lc.lupanov_depth2(m),
        ):
            circ = (
                lc.flatten(res.circuit)
                if isinstance(res.circuit, lc.LayeredCircuit)
                else res.circuit
            )
            synth_ok &= lc.verify(circ, m)
            if res.cancellation_free:
                synth_ok &= lc.is_cancellation_free(circ)
    for n in (2, 8, 32):
        synth_ok &= lc.sierpinski_circuit(n).cancellation_free
        synth_ok &= lc.setintersection_or_circuit(n).cancellation_free

    ok = heuristics_ok and monotone_ok and synth_ok
    _report(10, "invariant suites (census, heuristics vs optima, CF claims)", ok,
            f"heuristics:{heuristics_ok} monotone:{monotone_ok} synthesis:{synth_ok}")
