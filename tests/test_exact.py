import hashlib
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import lincirc as lc
from lincirc import BitMatrix, SplitMix64, derive_seed
from lincirc import exact as exact_mod
from conftest import random_bits_matrix
from lincirc.cli import fixtures_dir


def _reference_optimum(a: BitMatrix, model: str, limit: int = 8) -> int:
    """Memo-free, pruning-free iterative-deepening search; the unpruned
    baseline the production search is validated against."""
    n = a.cols
    units = [1 << i for i in range(n)]
    targets = {a.row(i) for i in range(a.rows)} - set(units) - {0}
    if not targets:
        return 0
    or_model = model == "OR"
    cf = model == "CF"

    def dfs(sigs: list[int], missing: frozenset, budget: int) -> bool:
        if not missing:
            return True
        if budget == 0:
            return False
        k = len(sigs)
        for i in range(k):
            for j in range(i + 1, k):
                if cf and sigs[i] & sigs[j]:
                    continue
                v = (sigs[i] | sigs[j]) if or_model else (sigs[i] ^ sigs[j])
                if v == 0 or v in sigs:
                    continue
                sigs.append(v)
                if dfs(sigs, missing - {v}, budget - 1):
                    sigs.pop()
                    return True
                sigs.pop()
        return False

    for size in range(len(targets), limit + 1):
        if dfs(list(units), frozenset(targets), size):
            return size
    raise AssertionError("reference search exceeded its limit")


def test_known_example_optima():
    a, b = lc.example_a(), lc.example_b()
    assert lc.optimal_size(a, "XOR").optimal_size == 4
    assert lc.optimal_size(a, "CF").optimal_size == 5
    assert lc.optimal_size(b, "OR").optimal_size == 6
    assert lc.optimal_size(b, "CF").optimal_size == 7


def test_sierpinski_small_optima():
    for n, expect in ((2, 1), (4, 4)):
        s = lc.gen_sierpinski(n)
        for model in lc.MODELS:
            out = lc.optimal_size(s, model)
            assert out.optimal_size == expect
            assert lc.verify(out.witness, s)


def test_witnesses_verify_and_respect_model():
    mats = [lc.example_a(), lc.example_b(), lc.gen_sierpinski(4), lc.identity(3)]
    rng = SplitMix64(41)
    mats += [random_bits_matrix(rng, 4, 4) for _ in range(10)]
    for m in mats:
        for model in lc.MODELS:
            out = lc.optimal_size(m, model)
            assert out.optimal_size is not None
            w = out.witness
            assert len(w.gates) == out.optimal_size
            assert lc.verify(w, m)
            assert w.connective == (lc.OR if model == "OR" else lc.XOR)
            if model == "CF":
                assert lc.is_cancellation_free(w)


def test_witness_that_fails_its_check_is_refused(monkeypatch):
    a = lc.example_a()
    # example_a's 4-gate XOR circuit cancels: it is no CF witness, and
    # read as an OR circuit it computes another matrix
    cancel = lc.slp_loads((fixtures_dir() / "example_a_cancel.slp").read_text())
    assert lc.verify(cancel, a) and not lc.is_cancellation_free(cancel)
    monkeypatch.setattr(exact_mod, "_heuristic_upper_bound", lambda m: (4, cancel))
    for model in ("CF", "OR"):
        with pytest.raises(RuntimeError, match="does not verify"):
            lc.optimal_size(a, model)
    assert lc.optimal_size(a, "XOR").witness == cancel  # XOR optimum is 4

    # a derived witness is checked too: here it ignores the row order
    swapped = BitMatrix(2, 2, [0b10, 0b01])
    monkeypatch.setattr(
        exact_mod, "_derive_witness",
        lambda n, model, extras, rows, partners: lc.Circuit(n, lc.XOR, (), (0, 1)),
    )
    with pytest.raises(RuntimeError, match="does not verify"):
        lc.optimal_size(swapped, "XOR")


def test_model_monotonicity():
    rng = SplitMix64(42)
    mats = [lc.example_a(), lc.example_b(), lc.gen_sierpinski(4)]
    mats += [random_bits_matrix(rng, 4, 4) for _ in range(15)]
    for m in mats:
        xor = lc.optimal_size(m, "XOR").optimal_size
        cf = lc.optimal_size(m, "CF").optimal_size
        orr = lc.optimal_size(m, "OR").optimal_size
        assert xor <= cf
        assert orr <= cf


def test_zero_and_unit_rows_are_free():
    m = BitMatrix.from_rows([[0, 0, 0], [0, 1, 0], [1, 0, 0]])
    for model in lc.MODELS:
        out = lc.optimal_size(m, model)
        assert out.optimal_size == 0
        assert lc.verify(out.witness, m)
        assert out.witness.outputs[0] is None


def test_limit_exceeded_is_reported():
    out = lc.optimal_size(lc.gen_sierpinski(8), "XOR", limit=5)
    assert out.exceeded and out.optimal_size is None and out.witness is None


def test_search_is_deterministic():
    m = lc.example_b()
    a = lc.optimal_size(m, "CF")
    b = lc.optimal_size(m, "CF")
    assert a.nodes_expanded == b.nodes_expanded
    assert a.witness == b.witness


def test_search_outputs_match_pinned_digest():
    # optima and witnesses as the search gave them before under-target
    # pruning, the one-mask state encoding and the depth-first sweep; XOR
    # node counts as the sweep over closed states gives them: each of these
    # is solved by closing the root at its first budget (CF and OR node
    # counts are left out because under-target pruning lowers them)
    rng = SplitMix64(43)
    mats = [lc.example_a(), lc.gen_sierpinski(4)]
    mats += [random_bits_matrix(rng, 4, 4) for _ in range(8)]
    outs = [lc.optimal_size(m, model) for m in mats for model in lc.MODELS]
    got = [(o.optimal_size, o.witness.gates, o.witness.outputs) for o in outs]
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert digest == "0685b1b6baae67606b587cf1435f5aa3fc280d43367347686ae256c29497d37f"
    xor_nodes = [o.nodes_expanded for o in outs if o.model == "XOR"]
    assert xor_nodes == [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]


def test_search_outputs_match_pinned_catalogue_digest():
    # the 32 gen_random 6x6 matrices the exact-small benchmark solves, in
    # all three models: optima, node counts and witness text as the
    # depth-first sweep over closed states with the two-spare bound and
    # excluded siblings gives them
    outs = [
        lc.optimal_size(lc.gen_random(6, 6, derive_seed(0x6C696E63, i)), model)
        for i in range(32)
        for model in lc.MODELS
    ]
    got = [(o.optimal_size, o.nodes_expanded, lc.slp_dumps(o.witness)) for o in outs]
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert digest == "b077b067eecf43098e40413f322b36f36f41daab2f11b77bdc2e94636ec34298"
    assert sum(o.nodes_expanded for o in outs) == 947
    # the spare-one states' hard-target filter leaves these tight children
    # of the 2 703 that reach alone would close
    assert sum(o.tight_children for o in outs) == 246
    assert sum(o.spare_two_dead for o in outs) == 332


def test_search_witnesses_match_pinned_digest():
    # optima and witness text alone, which no sound pruning moves: pinned
    # before the two-spare bound, over the catalogue above and the 7x7
    # draws 0-3, in all three models
    mats = [lc.gen_random(6, 6, derive_seed(0x6C696E63, i)) for i in range(32)]
    mats += [lc.gen_random(7, 7, derive_seed(0x6C696E63, 7, i)) for i in range(4)]
    outs = [lc.optimal_size(m, model) for m in mats for model in lc.MODELS]
    got = [(o.optimal_size, lc.slp_dumps(o.witness)) for o in outs]
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert digest == "d5c15bb59a0f8cb40e9e2da90caa8ebc92d5d4b44dc26e3a43575b1da8e6eafa"


def test_sixteen_column_input_still_solves():
    # the padded 4-row pattern still has XOR optimum 4 via cancellation,
    # below the heuristic upper bound, so the sweep itself must run
    rows = [r for r in lc.example_a()._data]
    m = BitMatrix(4, 16, rows)
    out = lc.optimal_size(m, "XOR")
    assert out.optimal_size == 4
    assert lc.verify(out.witness, m)
    assert lc.optimal_size(m, "CF").optimal_size == 5


def test_deepening_starts_at_the_weight_bound():
    # one row of weight 8 needs 7 gates in every model, and the heuristic
    # circuit has 7, so no budget is left to sweep: budgets 1-6, below the
    # weight bound, would hold no goal (in CF they expand 10 295 nodes)
    m = lc.gen_random(1, 16, 5)
    assert m.row(0).bit_count() == 8
    for model in lc.MODELS:
        out = lc.optimal_size(m, model)
        assert (out.optimal_size, out.nodes_expanded) == (7, 0), model
        assert lc.verify(out.witness, m)


def test_wider_input_is_refused_before_any_work(monkeypatch):
    def no_work(a):
        raise AssertionError("upper bound computed for a refused input")

    monkeypatch.setattr(exact_mod, "_heuristic_upper_bound", no_work)
    m = BitMatrix(2, 17, [3, 5])
    with pytest.raises(ValueError, match="at most 16 columns"):
        lc.optimal_size(m, "XOR")


def test_negative_limit_is_refused_before_any_work(monkeypatch):
    def no_work(a):
        raise AssertionError("upper bound computed for a refused input")

    m = lc.example_a()
    zero = lc.optimal_size(m, "XOR", limit=0)
    assert zero.exceeded and zero.optimal_size is None
    assert lc.optimal_size(lc.identity(4), "XOR", limit=0).optimal_size == 0
    monkeypatch.setattr(exact_mod, "_heuristic_upper_bound", no_work)
    for limit in (-1, -3):
        with pytest.raises(ValueError, match="limit must be at least 0"):
            lc.optimal_size(m, "XOR", limit=limit)


def test_sierpinski_s8_optimal_in_cf_and_or_models():
    # the witness is the XOR one, as the search gave it before it swept
    # closed states only (see test_acceptance.S8_WITNESS_SHA256)
    s8 = lc.gen_sierpinski(8)
    for model in ("CF", "OR"):
        out = lc.optimal_size(s8, model, limit=12)
        assert out.optimal_size == lc.sierpinski_lb(8) == 12
        assert lc.verify(out.witness, s8)
        witness = repr((out.witness.gates, out.witness.outputs)).encode()
        assert hashlib.sha256(witness).hexdigest() == (
            "998b7d91524635bfcb5fd11bf09e3ef12ce54e89fc0a42b98dc012c01285ad3c"
        )


def test_setintersection_8_optima():
    # a one-gate CF/XOR gap in one of the paper's families, certified by
    # exhausting every smaller budget (each model takes well under a second)
    m = lc.gen_setintersection(8)
    for model, expect in (("XOR", 11), ("CF", 12), ("OR", 12)):
        out = lc.optimal_size(m, model)
        assert (out.optimal_size, out.exceeded) == (expect, False), model
        assert lc.verify(out.witness, m)
        assert len(out.witness.gates) == expect


def test_sweep_memory_is_its_stack_not_its_states():
    # the sweep holds one frame per depth, not the states it has seen:
    # setint:8 in XOR expands 3 550 closed states over budgets 8-11 and
    # peaks at about 14 KiB traced; a set of those states takes ~270 KiB
    m = lc.gen_setintersection(8)
    tracemalloc.start()
    try:
        out = lc.optimal_size(m, "XOR")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.optimal_size == 11 and out.nodes_expanded > 3000
    assert peak < 64 * 1024, peak


def test_validated_against_unpruned_search():
    # every 2x2 matrix, all models
    for code in range(16):
        m = BitMatrix(2, 2, [code & 3, code >> 2])
        for model in lc.MODELS:
            assert lc.optimal_size(m, model).optimal_size == _reference_optimum(m, model)
    # sampled 3x3 and 4x4 matrices
    rng = SplitMix64(44)
    for _ in range(40):
        m = random_bits_matrix(rng, 3, 3)
        for model in lc.MODELS:
            assert lc.optimal_size(m, model).optimal_size == _reference_optimum(m, model)
    for _ in range(12):
        m = random_bits_matrix(rng, 4, 4)
        for model in lc.MODELS:
            assert lc.optimal_size(m, model).optimal_size == _reference_optimum(m, model)


def _per_signal_combine(model: str, st: int, v: int) -> int:
    """The candidate values ``v`` makes with the signals of state ``st``,
    one set bit ``s`` of the state at a time."""
    extra = 0
    for s, bit in enumerate(reversed(bin(st)[2:])):
        if bit == "0":
            continue
        if model == "XOR":
            extra |= 1 << (v ^ s)
        elif model == "OR":
            extra |= 1 << (v | s)
        elif not v & s:
            extra |= 1 << (v | s)
    return extra


def test_combiner_matches_per_signal_definition():
    for model in lc.MODELS:
        # every state and every value for n <= 3
        for n in (1, 2, 3):
            combine = exact_mod._combiner(model, n)[0]
            for st in range(1 << (1 << n)):
                for v in range(1 << n):
                    assert combine(st, v) == _per_signal_combine(model, st, v), (n, st, v)
        # random states: dense ones at n = 6, sparse and dense at n = 16
        rng = SplitMix64(46)
        combine = exact_mod._combiner(model, 6)[0]
        for _ in range(300):
            st, v = rng.bits(64), rng.bits(6)
            assert combine(st, v) == _per_signal_combine(model, st, v)
        combine = exact_mod._combiner(model, 16)[0]
        for k in range(12):
            st = rng.bits(1 << 16) if k < 2 else sum(1 << rng.bits(16) for _ in range(40))
            v = rng.bits(16)
            assert combine(st, v) == _per_signal_combine(model, st, v)


def _reach(makers, st: int, miss: int) -> int:
    """reach(S, M): the union of makers(S, t) over t in M, the values that
    make some value of M in one gate with a value of S."""
    out = 0
    for t in range(miss.bit_length()):
        if (miss >> t) & 1:
            out |= makers(st, t)
    return out


def test_reach_matches_its_definition():
    # the union of makers over the missing values, which the spare-one
    # filter reads as reach, is the set of v whose combine(st, v) meets them
    for model in lc.MODELS:
        # every state and every missing set for n <= 3
        for n in (1, 2, 3):
            combine, makers, _, _ = exact_mod._combiner(model, n)
            made = [[combine(st, v) for v in range(1 << n)] for st in range(1 << (1 << n))]
            for st in range(1 << (1 << n)):
                for miss in range(1 << (1 << n)):
                    want = sum(1 << v for v, c in enumerate(made[st]) if c & miss)
                    assert _reach(makers, st, miss) == want, (model, n, st, miss)
        # random states: dense ones at n = 6, each with a few missing values
        rng = SplitMix64(49)
        combine, makers, _, _ = exact_mod._combiner(model, 6)
        for _ in range(100):
            st = rng.bits(64)
            miss = sum(1 << rng.bits(6) for _ in range(1 + rng.bits(3)))
            want = sum(1 << v for v in range(64) if combine(st, v) & miss)
            assert _reach(makers, st, miss) == want
        # sparse states at n = 16: every value reach gives, and a sample of
        # all values, against the definition
        combine, makers, _, _ = exact_mod._combiner(model, 16)
        for _ in range(4):
            st = sum(1 << rng.bits(16) for _ in range(40))
            miss = sum(1 << rng.bits(16) for _ in range(3))
            got = _reach(makers, st, miss)
            values = [v for v in range(1 << 16) if (got >> v) & 1]
            values += [rng.bits(16) for _ in range(200)]
            for v in values:
                assert bool((got >> v) & 1) == bool(combine(st, v) & miss), (model, st, miss, v)


def test_makers_matches_its_definition():
    # makers(st, t) is the set of v whose combine(st, v) holds t
    for model in lc.MODELS:
        # every state and every value for n <= 3
        for n in (1, 2, 3):
            combine, makers, _, _ = exact_mod._combiner(model, n)
            for st in range(1 << (1 << n)):
                made = [combine(st, v) for v in range(1 << n)]
                for t in range(1 << n):
                    want = sum(1 << v for v, c in enumerate(made) if (c >> t) & 1)
                    assert makers(st, t) == want, (model, n, st, t)
        # random dense states at n = 6
        rng = SplitMix64(53)
        combine, makers, _, _ = exact_mod._combiner(model, 6)
        for _ in range(100):
            st, t = rng.bits(64), rng.bits(6)
            want = sum(1 << v for v in range(64) if (combine(st, v) >> t) & 1)
            assert makers(st, t) == want, (model, st, t)


def test_partners_are_makers_over_one_value():
    for model in lc.MODELS:
        for n in (1, 2, 3, 6):
            _, makers, partners, _ = exact_mod._combiner(model, n)
            for v in range(1 << n):
                for t in range(1 << n):
                    assert partners(v, t) == makers(1 << v, t), (model, n, v, t)


@st.composite
def _two_states(draw):
    model = draw(st.sampled_from(lc.MODELS))
    n = draw(st.integers(1, 6))
    values = st.integers(0, (1 << (1 << n)) - 1)
    return model, n, draw(values), draw(values), draw(st.integers(0, (1 << n) - 1))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_two_states())
def test_makers_and_combine_distribute_over_the_values_present(case):
    # the lemma the carried maker masks rest on: both are unions over the
    # present values, so a state's masks grow by those of each value added
    model, n, x, y, t = case
    combine, makers, _, _ = exact_mod._combiner(model, n)
    assert makers(x | y, t) == makers(x, t) | makers(y, t)
    assert combine(x | y, t) == combine(x, t) | combine(y, t)


def _ref_hard_targets(st: int, miss: int, makers) -> dict:
    """The hard missing targets of a closed state and their need masks,
    each made from scratch with ``makers``."""
    done = st | miss
    hard = {}
    for t in range(miss.bit_length()):
        if (miss >> t) & 1:
            x = done ^ (1 << t)
            need = makers(x, t)
            if not need & x:
                hard[t] = need
    return hard


def _ref_spare_one(untried: int, st: int, miss: int, makers) -> int:
    """The spare-one filter with every mask made from scratch: each hard
    target's need mask, then reach."""
    if untried:
        for need in _ref_hard_targets(st, miss, makers).values():
            untried &= need
            if not untried:
                return 0
        untried &= _reach(makers, st, miss)
    return untried


def _ref_spare_two(st: int, cands: int, miss: int, free: int, ops) -> bool:
    """The two-spare bound tried from every first value v, with the second
    values w for every hard target v misses, its masks made from
    scratch."""
    combine, makers, partners, _ = ops
    hard = _ref_hard_targets(st, miss, makers)
    if not hard:
        return True
    done = st | miss
    free &= ~done
    firsts = free & cands
    over = None  # the candidates of st | miss
    while firsts:
        low = firsts & -firsts
        firsts ^= low
        v = low.bit_length() - 1
        w = free ^ low
        for t, need in hard.items():
            if not (need >> v) & 1:
                w &= need | partners(v, t)
                if not w:
                    break
        if w:
            if over is None:
                over = cands
                rest = miss
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    over |= combine(done, bit.bit_length() - 1)
            if w & (over | combine(done, v)):
                return True
    return False


def test_spare_tests_match_their_references(monkeypatch):
    # on every spare state the search meets, the carried maker masks and
    # hard targets are those made from scratch, and both spare tests give
    # the answers of references that try every first value
    cases = [lc.gen_random(6, 6, derive_seed(0x6C696E63, i)) for i in range(32)]
    cases += [lc.gen_random(7, 7, derive_seed(0x6C696E63, 7, i)) for i in range(8)]
    cases = [(m, model, exact_mod.DEFAULT_LIMIT) for m in cases for model in lc.MODELS]
    cases += [
        (m, model, 12)
        for m in (lc.gen_sierpinski(8), lc.gen_setintersection(8))
        for model in lc.MODELS
    ]
    one, two = exact_mod._spare_one, exact_mod._spare_two
    calls = dict.fromkeys(lc.MODELS, 0)
    for m, model, limit in cases:
        _, tmask, _ = _targets_and_allowed(m, model)
        ops = exact_mod._combiner(model, m.cols)
        makers = ops[1]

        def check_one(free, st, masks, hard):
            miss = tmask & ~st
            assert masks == {t: makers(st, t) for t in range(miss.bit_length()) if (miss >> t) & 1}
            assert hard == _ref_hard_targets(st, miss, makers)
            kept = one(free, st, masks, hard)
            assert kept == _ref_spare_one(free & ~st, st, miss, makers), (m.to_text(), model, st)
            calls[model] += 1
            return kept

        def check_two(st, cands, miss, free, hard, *rest):
            assert hard == _ref_hard_targets(st, miss, makers)
            live = two(st, cands, miss, free, hard, *rest)
            assert live == _ref_spare_two(st, cands, miss, free, ops), (m.to_text(), model, st)
            calls[model] += 1
            return live

        monkeypatch.setattr(exact_mod, "_spare_one", check_one)
        monkeypatch.setattr(exact_mod, "_spare_two", check_two)
        lc.optimal_size(m, model, limit=limit)
        monkeypatch.undo()
    assert all(calls.values()), calls


def _spare_one_states(monkeypatch, m, model):
    """The (untried values, state, missing targets, values kept) of every
    spare-one closed state the search meets on ``m`` in ``model``."""
    seen = []
    real = exact_mod._spare_one

    def record(free, st, masks, hard):
        kept = real(free, st, masks, hard)
        seen.append((free & ~st, st, sum(1 << t for t in masks), kept))
        return kept

    monkeypatch.setattr(exact_mod, "_spare_one", record)
    lc.optimal_size(m, model)
    monkeypatch.undo()
    return seen


def test_spare_one_filter_drops_only_failing_children(monkeypatch):
    # every value of reach(S, M) that the hard-target filter drops has a
    # tight child whose closure leaves a target missing; filtering on every
    # missing target, not only the hard ones, would drop goals here
    rng = SplitMix64(59)
    mats = [random_bits_matrix(rng, n, n) for n in (4, 5) for _ in range(12)]
    for model in lc.MODELS:
        dropped = 0
        for m in mats:
            n = m.cols
            combine, makers, _, _ = exact_mod._combiner(model, n)
            for untried, st, miss, kept in _spare_one_states(monkeypatch, m, model):
                cands = 0
                for u in range(1 << n):
                    if (st >> u) & 1:
                        cands |= combine(st, u)
                assert kept & ~untried == 0
                drop = untried & _reach(makers, st, miss) & ~kept
                dropped += drop.bit_count()
                for v in range(1 << n):
                    if (drop >> v) & 1:
                        child = (st | 1 << v, cands | combine(st, v), miss, combine)
                        assert exact_mod._close(*child)[2], (m.to_text(), model, st, v)
        assert dropped > 0, model


def _dead_spare_two_states(monkeypatch, m, model):
    """The (state, candidates, missing targets) of every spare-two closed
    state the two-spare bound gives no children on ``m`` in ``model``."""
    seen = []
    real = exact_mod._spare_two

    def record(st, cands, miss, *rest):
        live = real(st, cands, miss, *rest)
        if not live:
            seen.append((st, cands, miss))
        return live

    monkeypatch.setattr(exact_mod, "_spare_two", record)
    lc.optimal_size(m, model)
    monkeypatch.undo()
    return seen


def test_spare_two_bound_closes_only_failing_states(monkeypatch):
    # a sweep from each state the bound gives no children, with the gates
    # it has left and the bound off, finds no goal; the catalogue has such
    # states in CF and OR, and hard targets are rarer in XOR, where 7x7
    # draw 7 is the first of the inputs pinned here that has them
    cases = [
        (lc.gen_random(6, 6, derive_seed(0x6C696E63, i)), model)
        for i in range(32)
        for model in lc.MODELS
    ]
    cases.append((lc.gen_random(7, 7, derive_seed(0x6C696E63, 7, 7)), "XOR"))
    closed = dict.fromkeys(lc.MODELS, 0)
    for m, model in cases:
        _, tmask, allowed = _targets_and_allowed(m, model)
        ops = exact_mod._combiner(model, m.cols)
        dead = _dead_spare_two_states(monkeypatch, m, model)
        closed[model] += len(dead)
        monkeypatch.setattr(exact_mod, "_spare_two", lambda *args: True)
        for st, cands, miss in dead:
            budget = miss.bit_count() + 2
            budgets = range(budget, budget + 1)
            goal = exact_mod._sweep(st, cands, budgets, *ops[:3], tmask, allowed)[0]
            assert goal is None, (m.to_text(), model, st)
        monkeypatch.undo()
    assert all(closed.values()), closed


def test_each_submask_mask_is_made_once_per_search(monkeypatch):
    # the allowed values and the combiner share one cache: in CF and OR
    # each target's mask is made exactly once per search, in XOR none is,
    # and no value's mask is made twice
    made = []
    real = exact_mod._submasks
    monkeypatch.setattr(exact_mod, "_submasks", lambda t, n: made.append(t) or real(t, n))
    cases = [lc.gen_random(6, 6, derive_seed(0x6C696E63, i)) for i in range(32)]
    cases += [lc.example_a(), lc.example_b(), lc.gen_sierpinski(4)]
    for m in cases:
        for model in lc.MODELS:
            targets = _targets_and_allowed(m, model)[0]
            made.clear()
            lc.optimal_size(m, model)
            assert len(made) == len(set(made)), (m.to_text(), model)
            if model == "XOR":
                assert made == []
            else:
                assert set(targets) <= set(made), (m.to_text(), model)


def test_each_state_makes_its_maker_masks_at_most_once(monkeypatch):
    # the root makes its masks once per search, and none when no node is
    # expanded; every other state makes its own once, from its parent's
    # record, and a state that the spare-two test closes makes none
    calls = {"_maker_masks": 0, "_child_masks": 0}
    for name in calls:
        real = getattr(exact_mod, name)

        def count(*a, real=real, name=name):
            calls[name] += 1
            return real(*a)

        monkeypatch.setattr(exact_mod, name, count)
    cases = [(lc.gen_sierpinski(8), model, 12) for model in lc.MODELS]
    cases += [
        (lc.gen_random(6, 6, derive_seed(0x6C696E63, i)), model, exact_mod.DEFAULT_LIMIT)
        for i in range(32)
        for model in lc.MODELS
    ]
    for m, model, limit in cases:
        calls.update(dict.fromkeys(calls, 0))
        out = lc.optimal_size(m, model, limit=limit)
        assert calls["_maker_masks"] <= min(1, out.nodes_expanded), (m.to_text(), model)
        assert calls["_child_masks"] <= out.nodes_expanded - out.spare_two_dead, (m.to_text(), model)


def _targets_and_allowed(a: BitMatrix, model: str) -> tuple[list[int], int, int]:
    """The search's targets, their mask and its allowed values for ``a``."""
    n = a.cols
    targets = sorted({a.row(i) for i in range(a.rows) if a.row(i).bit_count() >= 2})
    if model == "XOR":
        allowed = (1 << (1 << n)) - 2
    else:
        allowed = 0
        for t in targets:
            allowed |= exact_mod._submasks(t, n)
        allowed &= ~1
    return targets, sum(1 << t for t in targets), allowed


def _tuple_sweep(root, budget, model, tmask, allowed):
    """The breadth-first sweep as it was when each state carried its
    signal tuple and built a child's candidates one signal at a time;
    returns the goal's signal tuple and the nodes, as the search did."""
    level = {root[0]: root[1:]}
    nodes = 0
    for depth_used in range(budget):
        rem = budget - depth_used
        nxt = {}
        for st, (cands, sigs) in level.items():
            nodes += 1
            miss_mask = tmask & ~st
            miss = miss_mask.bit_count()
            use = cands & miss_mask if miss == rem else cands
            while use:
                low = use & -use
                use ^= low
                st2 = st | low
                if st2 in nxt:
                    continue
                v = low.bit_length() - 1
                if miss - ((tmask >> v) & 1) == 0:
                    return sigs + (v,), nodes
                extra = _per_signal_combine(model, st, v)
                nxt[st2] = ((cands | extra) & allowed & ~st2, sigs + (v,))
        if not nxt:
            break
        level = nxt
    return None, nodes


def _tuple_search(a: BitMatrix, model: str):
    """(optimum, nodes, witness) from the signal-tuple sweep."""
    n = a.cols
    rows = [a.row(i) for i in range(a.rows)]
    units = tuple(1 << i for i in range(n))
    targets, tmask, allowed = _targets_and_allowed(a, model)
    if not targets:
        return 0, 0, exact_mod._derive_witness(n, model, units, rows)
    ub_cost, ub_circuit = exact_mod._heuristic_upper_bound(a)
    if model == "OR":
        ub_circuit = lc.Circuit(n, lc.OR, ub_circuit.gates, ub_circuit.outputs)
    cands0 = sum(1 << (u | w) for u, w in itertools.combinations(units, 2))
    root = (sum(1 << u for u in units), cands0 & allowed, units)
    nodes = 0
    for budget in range(len(targets), min(exact_mod.DEFAULT_LIMIT, ub_cost - 1) + 1):
        goal, swept = _tuple_sweep(root, budget, model, tmask, allowed)
        nodes += swept
        if goal is not None:
            return len(goal) - n, nodes, exact_mod._derive_witness(n, model, goal, rows)
    return ub_cost, nodes, ub_circuit


def _assert_matches_tuple_search(m: BitMatrix) -> list[int]:
    """Checks every model against the tuple sweep; returns each model's
    nodes expanded."""
    effort = []
    for model in lc.MODELS:
        out = lc.optimal_size(m, model)
        opt, nodes, witness = _tuple_search(m, model)
        assert (out.optimal_size, out.witness) == (opt, witness), (m.to_text(), model)
        assert out.nodes_expanded <= nodes, (m.to_text(), model)
        effort.append(out.nodes_expanded)
    return effort


def test_search_matches_signal_tuple_sweep():
    # the depth-first sweep gives the optimum and witness of the
    # breadth-first sweep carrying signal tuples, and expands no more
    # states: it expands only closed states that are not tight, which that
    # sweep expands too
    rng = SplitMix64(47)
    mats = [lc.example_a(), lc.example_b(), lc.gen_sierpinski(4)]
    mats += [random_bits_matrix(rng, n, n) for n in (4, 5) for _ in range(15)]
    for m in mats:
        _assert_matches_tuple_search(m)


def test_search_matches_signal_tuple_sweep_at_6x6():
    # 6x6 is the size exact-small solves, where spare-one states and their
    # tight children are common; the nodes are pinned as the sweep over
    # closed states with the two-spare bound and excluded siblings counts
    # them (XOR, CF, OR per matrix)
    effort = [_assert_matches_tuple_search(lc.gen_random(6, 6, seed)) for seed in range(8)]
    assert effort == [
        [15, 2, 2],
        [209, 32, 32],
        [20, 2, 2],
        [5, 5, 5],
        [5, 5, 5],
        [0, 0, 0],
        [1, 1, 1],
        [1, 2, 2],
    ]


def test_witness_uses_candidates_made_by_the_closure_walk():
    # in each of these the least goal path adds a non-target value that
    # becomes a candidate only once a frame's closure adds targets, so a
    # sweep that tried only the candidates of the state a frame was entered
    # at would return another witness
    mats = [lc.gen_random(6, 6, 10)] + [
        BitMatrix.from_text("6 6\n" + rows.replace("/", "\n"))
        for rows in ("011111/100000/110010/010000/100100/100010",
                     "001111/001010/010111/001110/001010/011011",
                     "100110/100100/111011/010101/011100/010101")
    ]
    for m in mats:
        _assert_matches_tuple_search(m)


def test_row_order_leaves_search_unchanged():
    # the search sees the set of row values, and the heuristic bound breaks
    # ties on columns, so only the witness's outputs follow the rows;
    # exact-small shows each matrix with its rows in a fresh order
    rng = SplitMix64(48)
    for seed in range(6):
        a = lc.gen_random(6, 6, seed)
        rows = [a.row(i) for i in range(a.rows)]
        for _ in range(2):
            rng.shuffle(rows)
            moved = BitMatrix(a.rows, a.cols, list(rows))
            for model in lc.MODELS:
                out, again = lc.optimal_size(a, model), lc.optimal_size(moved, model)
                assert (again.nodes_expanded, again.witness.gates) == (
                    out.nodes_expanded, out.witness.gates
                )
                assert lc.verify(again.witness, moved)


def _row_column_classes(n: int) -> list[BitMatrix]:
    """One matrix per class of n x n 0/1 matrices under row and column
    permutation: the least sorted row tuple over all column orders."""
    perms = list(itertools.permutations(range(n)))
    seen = set()
    for rows in itertools.combinations_with_replacement(range(1 << n), n):
        seen.add(min(
            tuple(sorted(sum(((r >> j) & 1) << p[j] for j in range(n)) for r in rows))
            for p in perms
        ))
    return [BitMatrix(n, n, list(key)) for key in sorted(seen)]


def test_validated_against_unpruned_search_all_4x4_classes():
    classes = _row_column_classes(4)
    assert len(classes) == 317
    for m in classes:
        for model in lc.MODELS:
            assert lc.optimal_size(m, model).optimal_size == _reference_optimum(m, model)


@st.composite
def _matrix_and_permuted(draw):
    n = draw(st.sampled_from((4, 5)))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    row_order = draw(st.permutations(range(n)))
    col_of = draw(st.permutations(range(n)))
    moved = [sum(((rows[i] >> j) & 1) << col_of[j] for j in range(n)) for i in row_order]
    return BitMatrix(n, n, rows), BitMatrix(n, n, moved)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_matrix_and_permuted())
def test_optima_invariant_under_row_and_column_permutation(pair):
    a, moved = pair
    for model in lc.MODELS:
        out = lc.optimal_size(moved, model)
        assert out.optimal_size == lc.optimal_size(a, model).optimal_size
        assert lc.verify(out.witness, moved)


def test_xor_optimum_may_need_a_signal_under_no_target():
    # cancellation lets XOR use a value that is no submask of any row, so
    # under-target pruning is sound only in CF and OR: restricted to
    # submasks, this XOR search would report 7
    m = BitMatrix(5, 5, [13, 24, 22, 10, 3])
    assert lc.optimal_size(m, "XOR").optimal_size == _reference_optimum(m, "XOR") == 6
    assert lc.optimal_size(m, "CF").optimal_size == 7


def test_validated_against_unpruned_search_all_3x3():
    for code in range(512):
        m = BitMatrix(3, 3, [(code >> (3 * i)) & 7 for i in range(3)])
        for model in lc.MODELS:
            assert lc.optimal_size(m, model).optimal_size == _reference_optimum(m, model)


def test_heuristics_never_beat_optimum():
    rng = SplitMix64(45)
    for _ in range(25):
        m = random_bits_matrix(rng, 4, 4)
        xor_opt = lc.optimal_size(m, "XOR").optimal_size
        cf_opt = lc.optimal_size(m, "CF").optimal_size
        for res in (lc.naive_rowwise(m), lc.paar_greedy(m), lc.boyar_peralta(m)):
            assert res.cost >= cf_opt >= xor_opt


@st.composite
def _square_matrix(draw):
    n = draw(st.sampled_from((4, 5)))
    return BitMatrix(n, n, draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_square_matrix())
def test_heuristics_never_below_cf_optimum(m):
    cf_opt = lc.optimal_size(m, "CF").optimal_size
    assert cf_opt >= lc.optimal_size(m, "XOR").optimal_size
    for res in (lc.naive_rowwise(m), lc.paar_greedy(m), lc.boyar_peralta(m)):
        assert res.cost >= cf_opt


# ---------------------------------------------------------------------------
# census


@pytest.mark.parametrize("model", ["AND", "xor", ""])
def test_unknown_model_is_refused(model):
    with pytest.raises(ValueError, match="unknown model"):
        lc.optimal_size(lc.example_a(), model)


def test_census_n1_and_n2():
    rep1 = lc.census(1)
    assert rep1.max_sizes == {"XOR": 0, "CF": 0, "OR": 0}
    rep2 = lc.census(2)
    assert rep2.max_sizes["XOR"] == 1
    assert rep2.max_ratio_cf_over_xor == 1.0


def test_census_n3_goldens():
    rep = lc.census(3)
    assert rep.matrices == 512
    # frozen from the first verified run: cancellation never helps at 3x3
    assert rep.max_ratio_cf_over_xor == 1.0
    assert rep.ratio_argmax is None
    assert rep.max_sizes == {"XOR": 3, "CF": 3, "OR": 3}
    assert rep.histograms["XOR"] == {0: 64, 1: 183, 2: 241, 3: 24}
    assert sum(rep.histograms["CF"].values()) == 512


def test_census_reads_one_gate_limit(monkeypatch):
    assert exact_mod._CENSUS_LIMIT == 9
    # the limit the searches run at is the one the refusal names
    monkeypatch.setattr(exact_mod, "_CENSUS_LIMIT", 0)
    with pytest.raises(RuntimeError, match="no XOR circuit within 0 gates"):
        lc.census(2)


def test_census_rejects_large_n():
    with pytest.raises(ValueError):
        lc.census(4)
