import dataclasses
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import lincirc as lc
from lincirc import BitMatrix, Circuit, LayeredCircuit, SplitMix64
from lincirc.circuits import EliminationResult
from lincirc.cli import fixtures_dir


def circuit_cf() -> Circuit:
    return lc.slp_loads((fixtures_dir() / "example_a_cf.slp").read_text())


def circuit_cancel() -> Circuit:
    return lc.slp_loads((fixtures_dir() / "example_a_cancel.slp").read_text())


def circuit_depth2() -> LayeredCircuit:
    return lc.slp_loads((fixtures_dir() / "example_a_depth2.slp").read_text())


def _random_circuit(rng: SplitMix64, n: int, gates: int, connective=lc.XOR) -> Circuit:
    """Random SLP with distinct children per gate."""
    gs = []
    for k in range(gates):
        total = n + k
        a = rng.randrange(total)
        b = rng.randrange(total - 1)
        if b >= a:
            b += 1
        gs.append((a, b))
    n_sig = n + gates
    outs = tuple(rng.randrange(n_sig) for _ in range(2 + rng.randrange(3)))
    return Circuit(n, connective, tuple(gs), outs)


def _random_layered(rng: SplitMix64, n: int) -> LayeredCircuit:
    layers = []
    sig = n
    total_before = n
    for _ in range(1 + rng.randrange(3)):
        layer = []
        for _ in range(1 + rng.randrange(4)):
            fan = 1 + rng.randrange(min(4, total_before))
            refs = []
            for _ in range(fan):
                refs.append(rng.randrange(total_before))
            layer.append(tuple(refs))
            sig += 1
        layers.append(tuple(layer))
        total_before = sig
    outputs = tuple(rng.randrange(sig) for _ in range(3))
    return LayeredCircuit(n, lc.XOR, tuple(layers), outputs)


# ---------------------------------------------------------------------------
# semantics


def test_figure_circuits():
    a = lc.example_a()
    left, right = circuit_cf(), circuit_cancel()
    assert lc.verify(left, a) and lc.verify(right, a)
    assert lc.size_gates(left) == 5 and lc.size_gates(right) == 4
    assert lc.is_cancellation_free(left)
    assert not lc.is_cancellation_free(right)
    assert lc.depth(left) == 3
    # column 1 of the matrix
    assert lc.eval_circuit(left, [1, 0, 0, 0]) == [1, 1, 1, 0]


def test_value_vectors_basics():
    c = Circuit(3, lc.XOR, ((0, 1), (3, 0)), (3, 4))
    vv = lc.value_vectors(c)
    assert vv[:3] == [1, 2, 4]
    assert vv[3] == 0b011
    assert vv[4] == 0b010  # (x1 ^ x2) ^ x1 cancels back to x2


def test_eval_matches_matrix_action():
    rng = SplitMix64(17)
    for conn in (lc.XOR, lc.OR):
        for _ in range(20):
            c = _random_circuit(rng, 5, 8, conn)
            m = lc.matrix_of(c)
            x = [rng.randrange(2) for _ in range(5)]
            xcol = BitMatrix(5, 1, [b for b in x])
            prod = lc.mul_gf2(m, xcol) if conn == lc.XOR else lc.mul_bool(m, xcol)
            assert lc.eval_circuit(c, x) == [prod.entry(i, 0) for i in range(m.rows)]


def test_eval_zero_vector_xor():
    rng = SplitMix64(18)
    c = _random_circuit(rng, 6, 10)
    assert lc.eval_circuit(c, [0] * 6) == [0] * len(c.outputs)


def test_matrix_of_forwarding_outputs():
    c = Circuit(3, lc.XOR, (), (1, 0))
    assert lc.matrix_of(c) == BitMatrix.from_rows([[0, 1, 0], [1, 0, 0]])


def test_verify_dimension_mismatch():
    with pytest.raises(lc.DimensionError):
        lc.verify(circuit_cf(), lc.example_b())


def test_verify_permuted_outputs_fails():
    left = circuit_cf()
    permuted = Circuit(
        left.n_inputs, left.connective, left.gates,
        (left.outputs[1], left.outputs[0]) + left.outputs[2:],
    )
    assert not lc.verify(permuted, lc.example_a())


def test_cancellation_free_requires_xor():
    c = Circuit(2, lc.OR, ((0, 1),), (2,))
    with pytest.raises(ValueError):
        lc.is_cancellation_free(c)
    # the reported flag: OR circuits cannot cancel, XOR ones get the test
    for conn, cf in ((lc.OR, True), (lc.XOR, False)):
        c = Circuit(2, conn, ((0, 1), (0, 2)), (3,))
        assert lc.check(c, lc.matrix_of(c)) == (True, cf)


def _reference_check(c, a: BitMatrix) -> tuple[bool, bool]:
    """The check in steps, the oracle for :func:`lincirc.check`: flatten a
    layered circuit, verify with a shape mismatch read as False, then OR
    circuits are cancellation-free and XOR ones get the test."""
    flat = lc.flatten(c) if isinstance(c, LayeredCircuit) else c
    try:
        ok = lc.verify(flat, a)
    except lc.DimensionError:
        ok = False
    return ok, flat.connective == lc.OR or lc.is_cancellation_free(flat)


def test_check_matches_its_reference():
    # flat and layered circuits (fan-in 1 included) in both connectives,
    # some outputs constant zero, against the matrix they compute, one bit
    # off it, and one row or one column too many
    rng = SplitMix64(30)
    seen = set()
    for conn in (lc.XOR, lc.OR):
        for k in range(80):
            if k % 2:
                c = dataclasses.replace(_random_layered(rng, 4), connective=conn)
            else:
                c = _random_circuit(rng, 4, 1 + rng.randrange(8), conn)
            if rng.randrange(2):
                c = _zero_some_outputs(rng, c)
            m = lc.matrix_of(lc.flatten(c) if k % 2 else c)
            rows = [m.row(i) for i in range(m.rows)]
            off = BitMatrix(m.rows, m.cols, [rows[0] ^ 1 << rng.randrange(m.cols)] + rows[1:])
            for a in (m, off, lc.zeros(m.rows + 1, m.cols), lc.zeros(m.rows, m.cols + 1)):
                got = lc.check(c, a)
                assert got == _reference_check(c, a)
                seen.add((type(c), *got))
    bools = (False, True)
    assert seen == {(t, ok, cf) for t in (Circuit, LayeredCircuit) for ok in bools for cf in bools}


def test_cancellation_free_matches_ancestor_definition():
    # reference: kappa(u) >= kappa(w) coordinatewise for every gate pair
    # with u an ancestor of w
    def ancestor_cf(c: Circuit) -> bool:
        vv = lc.value_vectors(c)
        n = c.n_inputs
        above: list[set[int]] = [set() for _ in range(n)]
        for k, (x, y) in enumerate(c.gates):
            gid = n + k
            anc = {x, y} | above[x] | above[y]
            above.append(anc)
            for w in anc:
                if w >= n and (vv[gid] | vv[w]) != vv[gid]:
                    return False
        return True

    rng = SplitMix64(19)
    for _ in range(300):
        c = _random_circuit(rng, 4, 1 + rng.randrange(20))
        assert lc.is_cancellation_free(c) == ancestor_cf(c)


def test_cancellation_free_implies_or_equivalence():
    rng = SplitMix64(20)
    seen = 0
    for _ in range(400):
        c = _random_circuit(rng, 4, 1 + rng.randrange(6))
        if not lc.is_cancellation_free(c):
            continue
        seen += 1
        as_or = Circuit(c.n_inputs, lc.OR, c.gates, c.outputs)
        assert lc.matrix_of(as_or) == lc.matrix_of(c)
    assert seen > 20


def test_size_and_depth():
    assert lc.size_gates(circuit_cf()) == 5
    assert lc.depth(circuit_cancel()) == 4
    empty = Circuit(3, lc.XOR, (), (0,))
    assert lc.size_gates(empty) == 0 and lc.depth(empty) == 0
    d2 = circuit_depth2()
    assert lc.size_wires(d2) == 9 and lc.depth(d2) == 2


# ---------------------------------------------------------------------------
# transformations


def test_restrict_zero_simple():
    c = Circuit(2, lc.XOR, ((0, 1),), (2,))
    res = lc.restrict_zero(c, {0})
    assert res.eliminated == frozenset({0})
    assert res.reduced.outputs == (1,)
    assert lc.matrix_of(res.reduced) == BitMatrix.from_rows([[0, 1]])
    # empty restriction is the identity transform
    res0 = lc.restrict_zero(c, set())
    assert res0.eliminated == frozenset() and res0.reduced == c


def test_restrict_zero_commutes_with_column_zeroing():
    rng = SplitMix64(21)
    for _ in range(40):
        c = _random_circuit(rng, 6, 10)
        zs = {i for i in range(6) if rng.randrange(2)}
        reduced = lc.restrict_zero(c, zs).reduced
        m = lc.matrix_of(c)
        keep = ~sum(1 << z for z in zs)
        zeroed = BitMatrix(m.rows, m.cols, [r & keep for r in m._data])
        assert lc.matrix_of(reduced) == zeroed


def test_restrict_zero_on_sierpinski_construction():
    n = 8
    circ = lc.sierpinski_circuit(2 * n).circuit
    res = lc.restrict_zero(circ, set(range(n)))
    surviving = len(res.reduced.gates)
    assert surviving == lc.sierpinski_lb(n)  # the upper-half recursion survives
    assert len(res.eliminated) == len(circ.gates) - surviving
    sub_rows = [res.reduced and lc.matrix_of(res.reduced).row(n + i) >> n for i in range(n)]
    assert BitMatrix(n, n, sub_rows) == lc.gen_sierpinski(n)


def _zero_some_outputs(rng: SplitMix64, c):
    """The circuit with a random nonempty subset of its outputs made
    constant zero."""
    outs = [None if rng.randrange(2) else o for o in c.outputs]
    outs[rng.randrange(len(outs))] = None
    return dataclasses.replace(c, outputs=tuple(outs))


def test_compose_matches_matrix_product():
    rng = SplitMix64(22)
    for conn, mul in ((lc.XOR, lc.mul_gf2), (lc.OR, lc.mul_bool)):
        for _ in range(20):
            inner = _random_circuit(rng, 4, 6, conn)
            outer = _random_circuit(rng, len(inner.outputs), 5, conn)
            comp = lc.compose(outer, inner)
            assert lc.size_gates(comp) == 11
            assert lc.matrix_of(comp) == mul(lc.matrix_of(outer), lc.matrix_of(inner))
        # constant-zero inner outputs: the gates are those of the outer
        # circuit restricted to zero there, fed by the inner outputs
        for _ in range(20):
            inner = _zero_some_outputs(rng, _random_circuit(rng, 4, 6, conn))
            outer = _random_circuit(rng, len(inner.outputs), 5, conn)
            comp = lc.compose(outer, inner)
            zeros = {i for i, o in enumerate(inner.outputs) if o is None}
            reduced = lc.restrict_zero(outer, zeros).reduced
            base = inner.n_inputs + len(inner.gates)
            feed = list(inner.outputs) + list(range(base, base + len(reduced.gates)))
            assert comp.gates == inner.gates + tuple((feed[a], feed[b]) for a, b in reduced.gates)
            assert comp.outputs == tuple(None if o is None else feed[o] for o in reduced.outputs)
            assert lc.size_gates(comp) <= 11
            assert lc.matrix_of(comp) == mul(lc.matrix_of(outer), lc.matrix_of(inner))
    # layered pairs: layer counts add, depths add at most, and wires add
    # unless an operand is zero
    for _ in range(40):
        inner = _random_layered(rng, 5)
        if rng.randrange(2):
            inner = _zero_some_outputs(rng, inner)
        outer = _random_layered(rng, len(inner.outputs))
        comp = lc.compose_layered(outer, inner)
        assert len(comp.layers) == len(outer.layers) + len(inner.layers)
        assert lc.depth(comp) <= lc.depth(outer) + lc.depth(inner)
        wires = lc.size_wires(outer) + lc.size_wires(inner)
        if None in inner.outputs:
            assert lc.size_wires(comp) <= wires
        else:
            assert lc.size_wires(comp) == wires
        outer_m, inner_m = (lc.matrix_of(lc.flatten(c)) for c in (outer, inner))
        assert lc.matrix_of(lc.flatten(comp)) == lc.mul_gf2(outer_m, inner_m)


def _ref_eval_circuit(c: Circuit, x) -> list[int]:
    """``eval_circuit`` as a walk over the gates, one value per signal."""
    vals = [1 if v else 0 for v in x]
    if c.connective == lc.XOR:
        for a, b in c.gates:
            vals.append(vals[a] ^ vals[b])
    else:
        for a, b in c.gates:
            vals.append(vals[a] | vals[b])
    return [0 if o is None else vals[o] for o in c.outputs]


def _ref_restrict_zero(c: Circuit, zero_inputs: set[int]) -> EliminationResult:
    """``restrict_zero`` with its own constant-zero forwarding loop."""
    sigmap = [None if i in zero_inputs else i for i in range(c.n_inputs)]
    new_gates = []
    eliminated = []
    for k, (a, b) in enumerate(c.gates):
        ma, mb = sigmap[a], sigmap[b]
        if ma is None or mb is None:
            sigmap.append(mb if ma is None else ma)  # constant zero if both are
            eliminated.append(k)
        else:
            sigmap.append(c.n_inputs + len(new_gates))
            new_gates.append((ma, mb))
    outputs = tuple(None if o is None else sigmap[o] for o in c.outputs)
    reduced = Circuit(c.n_inputs, c.connective, tuple(new_gates), outputs)
    return EliminationResult(reduced, frozenset(eliminated))


def _ref_compose(outer: Circuit, inner: Circuit) -> Circuit:
    """``compose`` with its own constant-zero forwarding loop."""
    sigmap = list(inner.outputs)
    gates = list(inner.gates)
    next_id = inner.n_inputs + len(gates)
    for a, b in outer.gates:
        ma, mb = sigmap[a], sigmap[b]
        if ma is None:
            sigmap.append(mb)
        elif mb is None:
            sigmap.append(ma)
        else:
            sigmap.append(next_id)
            next_id += 1
            gates.append((ma, mb))
    outputs = tuple(None if o is None else sigmap[o] for o in outer.outputs)
    return Circuit(inner.n_inputs, inner.connective, tuple(gates), outputs)


@st.composite
def _circuits(draw, connective: str, n: int) -> Circuit:
    """A fan-in-2 circuit on n inputs, with no gates when n is 0, and with
    constant-zero outputs among the others."""
    gates = []
    for k in range(draw(st.integers(0, 10)) if n else 0):
        ops = st.integers(0, n + k - 1)
        gates.append((draw(ops), draw(ops)))
    signals = st.integers(0, n + len(gates) - 1) if n else st.nothing()
    outputs = draw(st.lists(st.none() | signals, max_size=5))
    return Circuit(n, connective, tuple(gates), tuple(outputs))


@st.composite
def _transform_cases(draw):
    connective = draw(st.sampled_from((lc.XOR, lc.OR)))
    inner = draw(_circuits(connective, draw(st.integers(0, 6))))
    outer = draw(_circuits(connective, len(inner.outputs)))
    zeros = draw(st.sets(st.integers(0, inner.n_inputs - 1))) if inner.n_inputs else set()
    x = draw(st.lists(st.integers(0, 2), min_size=inner.n_inputs, max_size=inner.n_inputs))
    return outer, inner, zeros, x


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_transform_cases())
def test_transforms_and_evaluation_match_their_references(case):
    outer, inner, zeros, x = case
    composed = lc.compose(outer, inner)
    assert composed == _ref_compose(outer, inner)
    restricted = lc.restrict_zero(inner, zeros)
    assert restricted == _ref_restrict_zero(inner, zeros)
    for c in (inner, composed, restricted.reduced):
        assert lc.eval_circuit(c, x) == _ref_eval_circuit(c, x)


def test_compose_associative_at_matrix_level():
    rng = SplitMix64(23)
    for _ in range(10):
        c3 = _random_circuit(rng, 4, 5)
        c2 = _random_circuit(rng, len(c3.outputs), 5)
        c1 = _random_circuit(rng, len(c2.outputs), 5)
        m_left = lc.matrix_of(lc.compose(lc.compose(c1, c2), c3))
        m_right = lc.matrix_of(lc.compose(c1, lc.compose(c2, c3)))
        assert m_left == m_right


def test_compose_identity_wiring():
    rng = SplitMix64(24)
    c = _random_circuit(rng, 5, 7)
    wiring = Circuit(5, lc.XOR, (), tuple(range(5)))
    assert lc.matrix_of(lc.compose(c, wiring)) == lc.matrix_of(c)


def test_compose_sierpinski_square_not_cf():
    s = lc.sierpinski_circuit(2).circuit
    comp = lc.compose(s, s)
    assert lc.verify(comp, lc.identity(2))
    assert not lc.is_cancellation_free(comp)


def test_compose_with_constant_zero_inner_outputs():
    inner = Circuit(2, lc.XOR, (), (None, 0))
    outer = Circuit(2, lc.XOR, ((0, 1),), (2,))
    comp = lc.compose(outer, inner)
    assert lc.matrix_of(comp) == BitMatrix.from_rows([[1, 0]])


def test_flatten_fig2():
    flat = lc.flatten(circuit_depth2())
    assert lc.verify(flat, lc.example_a())
    d2 = circuit_depth2()
    gates_with_fanin = d2.n_gates
    assert lc.size_gates(flat) == lc.size_wires(d2) - gates_with_fanin
    assert lc.size_gates(d2) == lc.size_gates(flat)


def test_flatten_random_layered():
    rng = SplitMix64(25)
    for _ in range(40):
        lay = _random_layered(rng, 5)
        flat = lc.flatten(lay)
        # wire-count identity and depth bound
        assert lc.size_gates(flat) == lc.size_wires(lay) - lay.n_gates
        assert lc.size_gates(lay) == lc.size_gates(flat)
        max_fan = max(len(g) for layer in lay.layers for g in layer)
        if max_fan > 1:
            bound = lc.depth(lay) * max(1, (max_fan - 1).bit_length())
            assert lc.depth(flat) <= bound
        # same matrix under XOR semantics via direct evaluation
        x = [rng.randrange(2) for _ in range(5)]
        vals = [v for v in x]
        for layer in lay.layers:
            start = len(vals)
            outs = []
            for refs in layer:
                acc = 0
                for r in refs:
                    acc ^= vals[r]
                outs.append(acc)
            vals.extend(outs)
        expect = [0 if o is None else vals[o] for o in lay.outputs]
        assert lc.eval_circuit(flat, x) == expect


def _reference_flatten(layered: LayeredCircuit) -> Circuit:
    """Round-by-round expansion: every round pairs the level's signals
    left to right, an odd last one passing to the next round; the oracle
    for :func:`lincirc.flatten`."""
    gates = []
    sigmap = list(range(layered.n_inputs))
    for layer in layered.layers:
        for ops in layer:
            level = [sigmap[r] for r in ops]
            while len(level) > 1:
                nxt = []
                for i in range(0, len(level) - 1, 2):
                    gates.append((level[i], level[i + 1]))
                    nxt.append(layered.n_inputs + len(gates) - 1)
                if len(level) % 2:
                    nxt.append(level[-1])
                level = nxt
            sigmap.append(level[0])
    outputs = tuple(None if o is None else sigmap[o] for o in layered.outputs)
    return Circuit(layered.n_inputs, layered.connective, tuple(gates), outputs)


def _random_wide_layered(rng: SplitMix64, connective: str) -> LayeredCircuit:
    """Layers of gates with fan-in 1 to 64 (a few fan-ins drawn per
    circuit, so they repeat), fan-in-1 chains and constant-zero outputs."""
    n = 1 + rng.randrange(12)
    fanins = [1 + rng.randrange(64) for _ in range(3)] + [1]
    layers = []
    below = n
    for _ in range(1 + rng.randrange(4)):
        layer = []
        for _ in range(1 + rng.randrange(6)):
            fan = fanins[rng.randrange(len(fanins))]
            layer.append(tuple(rng.randrange(below) for _ in range(fan)))
        layers.append(tuple(layer))
        below += len(layer)
    for _ in range(rng.randrange(3)):  # a forwarding chain on the last signal
        layers.append(((below - 1,),))
        below += 1
    outputs = tuple(
        None if rng.randrange(4) == 0 else rng.randrange(below) for _ in range(1 + rng.randrange(5))
    )
    return LayeredCircuit(n, connective, tuple(layers), outputs)


def test_flatten_matches_round_by_round_oracle():
    rng = SplitMix64(2013)
    seen = set()
    for connective in (lc.XOR, lc.OR):
        for _ in range(150):
            lay = _random_wide_layered(rng, connective)
            seen.update(len(ops) for layer in lay.layers for ops in layer)
            assert lc.flatten(lay) == _reference_flatten(lay)
    assert {1, 2, 3, 64} <= seen and len(seen) > 50
    chain = LayeredCircuit(1, lc.XOR, (((0,),), ((1,),), ((2,),)), (3, None, 0))
    assert lc.flatten(chain) == Circuit(1, lc.XOR, (), (0, None, 0))


# ---------------------------------------------------------------------------
# SLP formats


def test_slp_roundtrip_random():
    rng = SplitMix64(26)
    for conn in (lc.XOR, lc.OR):
        for _ in range(25):
            c = _random_circuit(rng, 4, 6, conn)
            assert lc.slp_loads(lc.slp_dumps(c)) == c


def test_slp_loads_memory_does_not_grow_with_declared_inputs():
    text = "inputs 1000000 connective XOR\nt1 = x1 + x1000000\noutputs: y1=t1 y2=x5\n"
    tracemalloc.start()
    try:
        c = lc.slp_loads(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.gates == ((0, 999999),) and c.outputs == (1000000, 4)
    assert peak < 1 << 20


def test_slp_constant_zero_output():
    c = Circuit(2, lc.XOR, (), (None, 1))
    text = lc.slp_dumps(c)
    assert "y1=0" in text
    assert lc.slp_loads(text) == c


def test_layered_roundtrip():
    rng = SplitMix64(27)
    for _ in range(20):
        lay = _random_layered(rng, 4)
        assert lc.slp_loads(lc.slp_dumps(lay)) == lay


FLAT = "inputs 2 connective XOR\n"
LAYERED = "inputs 2 connective XOR layered\n"


PARSE_REFUSALS = [
    (FLAT + "t1 = x1 + x9\noutputs: y1=t1\n", 2, 11),
    ("inputs 2 connective NAND\noutputs: y1=x1\n", 1, 1),
    (FLAT + "t1 = x1 + x2\n", 2, 1),  # no outputs
    # at the last line that is not blank, not the last line of the text
    (FLAT + "t1 = x1 + x2\n\n  \n", 2, 1, "missing outputs block"),
    (FLAT + "t2 = x1 + x2\noutputs: y1=t2\n", 2, 1),
    (FLAT + "t1 = t1 + x1\noutputs: y1=t1\n", 2, 6),  # the operand, not the gate name
    (FLAT + "t1 = x1 + x2 + x1\noutputs: y1=t1\n", 2, 6),
    (FLAT + "layer 1\nt1 = x1 + x2\noutputs: y1=t1\n", 2, 1),
    (FLAT + "t1 = x1 + x2\noutputs: y1=t1\noutputs: y1=x1\n", 4, 1),
    (FLAT + "outputs: y1=x1\nt1 = x1 + x2\n", 3, 1),
    (FLAT + "t1 = x1 + x2\noutputs: y1=t1 y2=t\n", 3, 19),  # "t" also sits in "outputs"
    (FLAT + "outputs: y1=x1 y1=x2\n", 2, 16),
    (LAYERED + "t1 = x1 + x2\noutputs: y1=t1\n", 2, 1),  # gate before a layer
    (LAYERED + "layer 2\nt1 = x1 + x2\noutputs: y1=t1\n", 2, 1),
    (LAYERED + "layer 1\nt1 = x1 + x2\nt2 = t1 + x1\noutputs: y1=t2\n", 4, 6),
    (LAYERED + "layer 1\nt1 = x1 + x3\noutputs: y1=t1\n", 3, 11),
    (LAYERED + "layer 1\nt1 = x1 + x2\n", 3, 1),  # no outputs
    (LAYERED + "layer 1\nt1 = x1 + x2\noutputs: y1=t1\nlayer 2\n", 5, 1),
    # an empty operand's column is the one after its '+' and any blanks
    (FLAT + "t1 = x1 +\noutputs: y1=t1\n", 2, 10, "bad signal reference ''"),
    (FLAT + "t1 = x1 +  + x2\noutputs: y1=t1\n", 2, 6,
     "fan-in-2 SLP gates take exactly two operands"),
    (FLAT + "t1 = x1 + x1 x2\noutputs: y1=t1\n", 2, 11, "bad signal reference 'x1 x2'"),
    (LAYERED + "layer 1\nt1 = x1 + x2 +\noutputs: y1=t1\n", 3, 15, "bad signal reference ''"),
    # numbers are ASCII digits only: other Unicode digits are refused
    ("inputs \u0662 connective XOR\noutputs: y1=x1\n", 1, 1,
     "expected 'inputs <n> connective <XOR|OR>'"),
    (FLAT + "t\u0661 = x1 + x2\noutputs: y1=t1\n", 2, 1, "bad gate line 't\u0661 = x1 + x2'"),
    (FLAT + "t1 = x1 + x\u0662\noutputs: y1=t1\n", 2, 11, "bad signal reference 'x\u0662'"),
    (FLAT + "t1 = x1 + x2\noutputs: y\u0661=t1\n", 3, 10, "bad output assignment 'y\u0661=t1'"),
    (FLAT + "t1 = x1 + x2\noutputs: y1=t\u0661\n", 3, 13, "bad signal reference 't\u0661'"),
    (LAYERED + "layer \u0661\nt1 = x1 + x2\noutputs: y1=t1\n", 2, 1, "bad gate line 'layer \u0661'"),
]


def test_parse_errors_carry_position():
    # flat and layered text go through one grammar, so through one table
    for text, line, column, *message in PARSE_REFUSALS:
        with pytest.raises(lc.ParseError) as err:
            lc.slp_loads(text)
        assert (err.value.line, err.value.column) == (line, column), text
        if message:
            assert str(err.value) == f"line {line}, column {column}: {message[0]}"


def _flat(gates, outputs):
    return Circuit(2, lc.XOR, gates, outputs)


SLP_ACCEPTS = [
    (FLAT + "t1=x1+x2\noutputs: y1=t1\n", _flat(((0, 1),), (2,))),
    (FLAT + "t1\t=\tx1\t+\tx2\noutputs:\ty1=t1\ty2=x2\n", _flat(((0, 1),), (2, 1))),
    (FLAT.replace("\n", "\r\n") + "t1 = x1 + x2\r\noutputs: y1=t1\r\n", _flat(((0, 1),), (2,))),
    ("\n" + FLAT + "\n  \nt1 = x1 + x2\n\noutputs: y1=t1\n\n", _flat(((0, 1),), (2,))),
    (FLAT + "t1 = x01 + x002\noutputs: y1=x02 y2=0\n", _flat(((0, 1),), (1, None))),
    (FLAT + "t01 = x1 + x2\nt2 = t01 + t1\noutputs: y1=t001 y2=t2\n",
     _flat(((0, 1), (2, 2)), (2, 3))),
    (FLAT + "outputs:\n", _flat((), ())),
    (LAYERED + "layer 1\nt1=x1+x2+x01\nlayer 2\nt2 = t01\noutputs: y1=t2\n",
     LayeredCircuit(2, lc.XOR, (((0, 1, 0),), ((2,),)), (3,))),
    (LAYERED + "outputs:", LayeredCircuit(2, lc.XOR, (), ())),
]


def test_slp_loads_token_rules():
    # whitespace around '=' and '+' is optional, blank lines are ignored,
    # and references may carry leading zeros
    for text, circuit in SLP_ACCEPTS:
        assert lc.slp_loads(text) == circuit, text


def _random_flat(rng: SplitMix64, n: int, gates: int) -> Circuit:
    """Random SLP whose gates may repeat an operand and whose outputs may be
    constant zero."""
    gs = tuple((rng.randrange(n + k), rng.randrange(n + k)) for k in range(gates))
    outs = tuple(
        None if rng.randrange(4) == 0 else rng.randrange(n + gates)
        for _ in range(1 + rng.randrange(4))
    )
    return Circuit(n, (lc.XOR, lc.OR)[rng.randrange(2)], gs, outs)


def _layouts(text: str) -> list[str]:
    """The writer's text in other layouts the grammar accepts."""
    compact = text.replace(" = ", "=").replace(" + ", "+")
    lines = text.split("\n")
    return [
        compact,
        text.replace(" = ", "\t=\t").replace(" + ", " \t+  "),
        text.replace("\n", "\r\n"),
        text.replace("\n", "  \n"),  # trailing blanks: every line takes the grammar
        text.replace("\n", "\n\n"),  # blank lines between the writer's lines
        re.sub(r"\b([xt])([0-9])", r"\g<1>0\2", text),  # leading zeros
        # the writer's lines between compact ones: the routes share one table
        "\n".join(ln if k % 2 else ln.replace(" = ", "=").replace(" + ", "+")
                  for k, ln in enumerate(lines)),
    ]


def _refusal(text: str) -> tuple[int, str]:
    with pytest.raises(lc.ParseError) as err:
        lc.slp_loads(text)
    return err.value.line, str(err.value).split(": ", 1)[1]


def test_slp_reader_routes_agree():
    # the reader takes the writer's flat gate line in one split and every
    # other line through the grammar: both read every layout the same, and
    # refuse a bad gate line in the writer's form as they refuse it compact
    rng = SplitMix64(36)
    seen = set()
    for k in range(200):
        c = _random_flat(rng, 1 if k % 4 == 0 else 1 + rng.randrange(5), rng.randrange(12))
        seen |= {"single input"} if c.n_inputs == 1 else set()
        seen |= {"zero output"} if None in c.outputs else set()
        seen |= {"repeated operand"} if any(a == b for a, b in c.gates) else set()
        text = lc.slp_dumps(c)
        assert lc.slp_loads(text) == c
        for variant in _layouts(text):
            assert lc.slp_loads(variant) == c, variant
        if not c.gates:
            continue
        lines = text.split("\n")
        j = 1 + rng.randrange(len(c.gates))  # gate t<j> sits on line j + 1
        name, rest = lines[j].split(" = ")
        bad = [
            f"t{j + 1} = {rest}",  # not the next gate
            f"{name} = {name} + {rest.split(' + ')[1]}",  # the gate reads itself
        ]
        for line in bad:
            wrong = "\n".join(lines[:j] + [line] + lines[j + 1 :])
            compact = wrong.replace(" = ", "=").replace(" + ", "+")
            assert _refusal(wrong)[0] == j + 1
            assert _refusal(wrong) == _refusal(compact), wrong
        late = text + f"t{len(c.gates) + 1} = x1 + x1\n"  # a gate after the outputs
        assert _refusal(late) == (len(lines), "content after outputs block")
    assert seen == {"single input", "zero output", "repeated operand"}


def test_layered_text_with_two_outputs_blocks_is_refused():
    text = LAYERED + "layer 1\nt1 = x1 + x2\noutputs: y1=t1\noutputs: y1=x1 y2=x2\n"
    with pytest.raises(lc.ParseError, match="duplicate outputs block") as err:
        lc.slp_loads(text)
    assert err.value.line == 5


def test_gate_reference_validation():
    with pytest.raises(ValueError):
        Circuit(2, lc.XOR, ((0, 3),), (0,))  # forward reference
    with pytest.raises(ValueError):
        Circuit(2, lc.XOR, (), (5,))
    with pytest.raises(ValueError):
        LayeredCircuit(2, lc.XOR, (((0, 2),),), (2,))  # same-layer reference


_XOR2 = Circuit(2, lc.XOR, ((0, 1),), (2,))
_OR2 = Circuit(2, lc.OR, ((0, 1),), (2,))
_LAYERED_XOR2 = LayeredCircuit(2, lc.XOR, (((0, 1),),), (2,))
_LAYERED_OR2 = LayeredCircuit(2, lc.OR, (((0, 1),),), (2,))


@pytest.mark.parametrize(
    "make, error, message",
    [
        pytest.param(lambda: Circuit(2, "AND", (), ()), ValueError, "unknown connective 'AND'",
                     id="unknown-connective"),
        pytest.param(lambda: Circuit(-1, lc.XOR, (), ()), ValueError, "negative input count",
                     id="negative-inputs"),
        pytest.param(lambda: Circuit(2, lc.XOR, ((0, 1), (3, 0), (2, 1)), (4,)), ValueError,
                     "gate t2 references a later signal", id="middle-gate-later-signal"),
        pytest.param(lambda: Circuit(2, lc.XOR, ((0, 1), (2, 0), (-1, 3)), (4,)), ValueError,
                     "gate t3 references a later signal", id="negative-operand"),
        pytest.param(lambda: LayeredCircuit(2, lc.XOR, (((),),), ()), ValueError,
                     "empty gate in layer 1", id="layered-empty-gate"),
        pytest.param(lambda: LayeredCircuit(2, lc.XOR, (), (2,)), ValueError,
                     "output y1 references unknown signal 2", id="layered-unknown-output"),
        pytest.param(lambda: lc.eval_circuit(_XOR2, [1]), lc.DimensionError,
                     "expected 2 inputs, got 1", id="eval-input-count"),
        pytest.param(lambda: lc.restrict_zero(_XOR2, {2}), ValueError, "unknown input x3",
                     id="restrict-unknown-input"),
        pytest.param(lambda: lc.compose(_XOR2, _OR2), ValueError, "connective mismatch",
                     id="compose-connective"),
        pytest.param(lambda: lc.compose(_XOR2, _XOR2), lc.DimensionError,
                     "outer arity 2 != inner output count 1", id="compose-arity"),
        pytest.param(lambda: lc.compose_layered(_LAYERED_XOR2, _LAYERED_OR2), ValueError,
                     "connective mismatch", id="compose-layered-connective"),
        pytest.param(lambda: lc.compose_layered(_LAYERED_XOR2, _LAYERED_XOR2), lc.DimensionError,
                     "outer arity 2 != inner output count 1", id="compose-layered-arity"),
        pytest.param(lambda: lc.slp_loads(""), lc.ParseError, "empty circuit text",
                     id="slp-empty"),
        pytest.param(lambda: lc.slp_loads("inputs 2 connective XOR\nt1 = x1 + x2\noutputs: z1=t1\n"),
                     lc.ParseError, "bad output assignment 'z1=t1'", id="slp-bad-output-token"),
    ],
)
def test_invalid_input_is_refused(make, error, message):
    with pytest.raises(error, match=message) as err:
        make()
    assert type(err.value) is error
