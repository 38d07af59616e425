"""Circuit intermediate representations and their exact semantics.

Two IRs:

* :class:`Circuit` -- a straight-line program of fan-in-2 gates over a
  single connective (XOR or OR).  Signals are numbered ``0..n-1`` for the
  inputs and ``n+k`` for gate ``k``; gates may only reference earlier
  signals, so acyclicity holds by construction.  An output may be ``None``,
  which marks a constant-zero row (the gate model has no constants).
* :class:`LayeredCircuit` -- a depth-d circuit with unbounded fan-in
  gates, costed by wire count.

Semantics are exact: the value vector of a signal is the bitmask of input
variables feeding it, computed in one forward pass, and verification
compares value vectors against the target matrix -- no sampling.
The one cancellation-free test is :func:`is_cancellation_free`, and the one
check of a circuit of either IR against a matrix is :func:`check`, whose
reported cancellation-free flag is also True for OR circuits.

Text format: one grammar for both IRs.  An ``inputs <n> connective
<XOR|OR>`` header, one ``t<k> = <ref> + <ref> ...`` line per gate, and one
trailing ``outputs: y1=<ref> ...`` block ('0' marks a constant-zero
output).  A ``layered`` header word makes the gates fall into sections,
each opened by a ``layer <d>`` marker, whose operands lie strictly below
the gate's layer; without it the text is a fan-in-2 SLP: no markers and
exactly two operands per gate.  One writer emits both, a flat circuit
being a single unmarked layer whose gates it writes as ``t<k> = <a> +
<b>`` with single blanks.  The reader allows blanks (or none) around
``=`` and ``+``, ignores blank lines, accepts leading zeros in
``x``/``t`` references (``x01`` is ``x1``), and wants the outputs in
order, ``y1`` first.  Every number in the text is ASCII digits
``[0-9]+``; other Unicode digits (``x١``) are refused.  A flat gate line
in the writer's exact form, k the next gate and both operands named
before, is read in one split; every other line goes through the
grammar, which also raises every error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Sequence, Union

from .matrices import BitMatrix, DimensionError

XOR = "XOR"
OR = "OR"
_CONNECTIVES = (XOR, OR)


class ParseError(ValueError):
    """SLP text rejected; carries 1-indexed line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _check_connective(connective: str) -> None:
    if connective not in _CONNECTIVES:
        raise ValueError(f"unknown connective {connective!r}")


@dataclass(frozen=True)
class Circuit:
    """Straight-line program of fan-in-2 gates with designated outputs."""

    n_inputs: int
    connective: str
    gates: tuple[tuple[int, int], ...]
    outputs: tuple[Optional[int], ...]

    def __post_init__(self):
        _check_connective(self.connective)
        if self.n_inputs < 0:
            raise ValueError("negative input count")
        for bound, (a, b) in enumerate(self.gates, self.n_inputs):
            if not (0 <= a < bound and 0 <= b < bound):
                raise ValueError(f"gate t{bound - self.n_inputs + 1} references a later signal")
        n_signals = self.n_inputs + len(self.gates)
        for i, o in enumerate(self.outputs):
            if o is not None and not 0 <= o < n_signals:
                raise ValueError(f"output y{i + 1} references unknown signal {o}")

    @property
    def n_signals(self) -> int:
        return self.n_inputs + len(self.gates)


@dataclass(frozen=True)
class LayeredCircuit:
    """Bounded-depth circuit with unbounded fan-in; cost = wire count.

    Gates are numbered globally (inputs first, then layer by layer) and
    may only reference inputs or gates in strictly earlier layers.
    """

    n_inputs: int
    connective: str
    layers: tuple[tuple[tuple[int, ...], ...], ...]
    outputs: tuple[Optional[int], ...]

    def __post_init__(self):
        _check_connective(self.connective)
        gid = self.n_inputs
        for d, layer in enumerate(self.layers):
            start = gid
            for ops in layer:
                if len(ops) < 1:
                    raise ValueError(f"empty gate in layer {d + 1}")
                for ref in ops:
                    if not 0 <= ref < start:
                        raise ValueError(
                            f"gate t{gid - self.n_inputs + 1} references signal {ref} "
                            f"not strictly below layer {d + 1}"
                        )
                gid += 1
        for i, o in enumerate(self.outputs):
            if o is not None and not 0 <= o < gid:
                raise ValueError(f"output y{i + 1} references unknown signal {o}")

    @property
    def n_gates(self) -> int:
        return sum(len(layer) for layer in self.layers)


AnyCircuit = Union[Circuit, LayeredCircuit]


# ---------------------------------------------------------------------------
# Semantics


def value_vectors(c: Circuit) -> list[int]:
    """Value vector of every signal as a bitmask over the inputs.

    ``vv[i] = 1 << i`` for inputs; at a gate the children's vectors
    combine with the circuit's connective.
    """
    vv = [1 << i for i in range(c.n_inputs)]
    if c.connective == XOR:
        for a, b in c.gates:
            vv.append(vv[a] ^ vv[b])
    else:
        for a, b in c.gates:
            vv.append(vv[a] | vv[b])
    return vv


def matrix_of(c: Circuit) -> BitMatrix:
    """The matrix the circuit computes: row i is the value vector of
    output i (zero for constant-zero outputs)."""
    vv = value_vectors(c)
    return BitMatrix(
        len(c.outputs), c.n_inputs, [0 if o is None else vv[o] for o in c.outputs]
    )


def eval_circuit(c: Circuit, x: Sequence[int]) -> list[int]:
    """Run the circuit on a Boolean input vector, read off value vectors."""
    if len(x) != c.n_inputs:
        raise DimensionError(f"expected {c.n_inputs} inputs, got {len(x)}")
    xm = sum(1 << i for i, v in enumerate(x) if v)
    vv = value_vectors(c)
    hit = [0 if o is None else vv[o] & xm for o in c.outputs]
    if c.connective == XOR:
        return [h.bit_count() & 1 for h in hit]
    return [int(h != 0) for h in hit]


def verify(c: Circuit, a: BitMatrix) -> bool:
    """Exact check that the circuit computes ``a`` (via value vectors)."""
    if len(c.outputs) != a.rows or c.n_inputs != a.cols:
        raise DimensionError(
            f"circuit computes a {len(c.outputs)}x{c.n_inputs} map, "
            f"target is {a.rows}x{a.cols}"
        )
    return matrix_of(c) == a


def is_cancellation_free(c: Circuit) -> bool:
    """True iff the two children of every gate have disjoint supports.

    Defined for XOR circuits.  Disjoint children supports are equivalent
    to the ancestor form of the property (every gate's value vector
    dominates each of its gate descendants' coordinatewise): supports
    only grow along edges when children never overlap, and an overlap at
    a gate erases coordinates of the child it descends from.  Before the
    first overlap every XOR is a union, so the pass computes ORs.
    """
    if c.connective != XOR:
        raise ValueError("cancellation-freeness is an XOR-circuit property")
    vv = [1 << i for i in range(c.n_inputs)]
    for a, b in c.gates:
        if vv[a] & vv[b]:
            return False
        vv.append(vv[a] | vv[b])
    return True


def check(c: AnyCircuit, a: BitMatrix) -> tuple[bool, bool]:
    """``(computes a, cancellation-free flag)`` for ``c`` in either IR.

    A layered circuit is flattened once for both answers; a circuit of
    another shape than ``a`` does not compute it.  OR circuits admit no
    cancellation (absorption is not the GF(2) identity), so their flag is
    True; XOR circuits get :func:`is_cancellation_free`.
    """
    flat = flatten(c) if isinstance(c, LayeredCircuit) else c
    try:
        ok = verify(flat, a)
    except DimensionError:
        ok = False
    return ok, flat.connective == OR or is_cancellation_free(flat)


def size_gates(c: AnyCircuit) -> int:
    """Fan-in-2 gates, in either IR: a layered gate of fan-in k counts
    k - 1, the gates :func:`flatten` expands it into."""
    if isinstance(c, LayeredCircuit):
        return size_wires(c) - c.n_gates
    return len(c.gates)


def depth(c: AnyCircuit) -> int:
    """Gates on a longest input-to-output path, in either IR: a flat gate
    is a 2-tuple of operands, a layered gate a k-tuple (fan-in 1 too)."""
    gates = c.gates if isinstance(c, Circuit) else (ops for layer in c.layers for ops in layer)
    d = [0] * c.n_inputs
    for ops in gates:
        d.append(1 + max(map(d.__getitem__, ops)))
    return max((d[o] for o in c.outputs if o is not None), default=0)


def size_wires(layered: LayeredCircuit) -> int:
    return sum(len(ops) for layer in layered.layers for ops in layer)


# ---------------------------------------------------------------------------
# Transformations


class _Builder:
    """Appends fan-in-2 gates to a circuit under construction; ``gate``
    returns the new gate's signal number."""

    __slots__ = ("n", "connective", "gates")

    def __init__(self, n: int, connective: str, gates: Sequence[tuple[int, int]] = ()):
        self.n = n
        self.connective = connective
        self.gates: list[tuple[int, int]] = list(gates)

    def gate(self, a: int, b: int) -> int:
        self.gates.append((a, b))
        return self.n + len(self.gates) - 1

    def circuit(self, outputs) -> Circuit:
        outputs = tuple(outputs)  # first: ``outputs`` may still emit gates
        return Circuit(self.n, self.connective, tuple(self.gates), outputs)


@dataclass(frozen=True)
class EliminationResult:
    """Outcome of restricting inputs to zero and cascading gate removal."""

    reduced: Circuit
    eliminated: frozenset[int]
    forwarded_outputs: dict[int, Optional[int]] = field(hash=False)


def _forward_zeros(c: Circuit, sigmap: list, gates: list, n: int) -> tuple[Circuit, list[int]]:
    """The circuit on ``n`` inputs with the gates ``gates``, then those of
    ``c`` and its outputs mapped through ``sigmap``, which holds the new
    signal (None: constant zero) of each input of ``c`` and gets that of
    each gate; a constant-zero operand forwards the other one, as
    :func:`restrict_zero` says.  Also returns the indices of the gates of
    ``c`` so eliminated."""
    eliminated = []
    nxt = n + len(gates)
    for a, b in c.gates:
        ma, mb = sigmap[a], sigmap[b]
        if ma is None or mb is None:
            eliminated.append(len(sigmap) - c.n_inputs)  # this gate's index
            sigmap.append(mb if ma is None else ma)
        else:
            sigmap.append(nxt)
            nxt += 1
            gates.append((ma, mb))
    outputs = tuple(None if o is None else sigmap[o] for o in c.outputs)
    return Circuit(n, c.connective, tuple(gates), outputs), eliminated


def restrict_zero(c: Circuit, zero_inputs: set[int]) -> EliminationResult:
    """Set the given inputs to constant 0 and eliminate trivial gates.

    A gate with one constant-zero child forwards its other child; a gate
    with two constant-zero children becomes constant zero itself, and the
    effect cascades.  The reduced circuit keeps the input arity, so its
    matrix is the original with the restricted columns zeroed; outputs
    that collapse to constant zero become ``None``.
    """
    for z in zero_inputs:
        if not 0 <= z < c.n_inputs:
            raise ValueError(f"unknown input x{z + 1}")
    sigmap = [None if i in zero_inputs else i for i in range(c.n_inputs)]
    reduced, eliminated = _forward_zeros(c, sigmap, [], c.n_inputs)
    forwarded = dict(enumerate(reduced.outputs))
    return EliminationResult(reduced, frozenset(eliminated), forwarded)


def compose(outer: Circuit, inner: Circuit) -> Circuit:
    """Feed the inner circuit's outputs into the outer circuit's inputs.

    The result computes the product of the two matrices (GF(2) product
    for XOR circuits, Boolean product for OR circuits) on the inner
    circuit's inputs.  Gate counts add, less the outer gates that
    constant-zero inner outputs make trivial.
    """
    if outer.connective != inner.connective:
        raise ValueError("connective mismatch in composition")
    if outer.n_inputs != len(inner.outputs):
        raise DimensionError(
            f"outer arity {outer.n_inputs} != inner output count {len(inner.outputs)}"
        )
    # outer inputs read the inner outputs, outer gates follow the inner ones
    return _forward_zeros(outer, list(inner.outputs), list(inner.gates), inner.n_inputs)[0]


def compose_layered(outer: LayeredCircuit, inner: LayeredCircuit) -> LayeredCircuit:
    """Stack two layered circuits; layer counts add, wire counts at most."""
    if outer.connective != inner.connective:
        raise ValueError("connective mismatch in composition")
    if outer.n_inputs != len(inner.outputs):
        raise DimensionError(
            f"outer arity {outer.n_inputs} != inner output count {len(inner.outputs)}"
        )
    layers = [tuple(layer) for layer in inner.layers]
    # Signal map for outer-circuit signals; constant-zero operands drop
    # out (zero is the identity of both connectives), and a gate losing
    # all operands becomes constant zero itself.
    sigmap: list[Optional[int]] = [inner.outputs[i] for i in range(outer.n_inputs)]
    next_id = inner.n_inputs + inner.n_gates
    for layer in outer.layers:
        new_layer = []
        for ops in layer:
            mapped = [m for m in (sigmap[r] for r in ops) if m is not None]
            if not mapped:
                sigmap.append(None)
            else:
                sigmap.append(next_id)
                next_id += 1
                new_layer.append(tuple(mapped))
        layers.append(tuple(new_layer))
    outputs = tuple(None if o is None else sigmap[o] for o in outer.outputs)
    return LayeredCircuit(inner.n_inputs, inner.connective, tuple(layers), outputs)


def _pairing_plan(k: int) -> itemgetter:
    """Operand pairs of a fan-in-k gate's k - 1 fan-in-2 gates, as one
    getter over its local slots: 0..k-1 its operands, k..2k-2 the new
    gates in emission order.  The rounds pair each level's slots left to
    right, an odd last slot passing to the next round."""
    level = list(range(k))
    nxt = k
    plan: list[int] = []
    while len(level) > 1:
        paired = []
        for i in range(0, len(level) - 1, 2):
            plan += level[i], level[i + 1]
            paired.append(nxt)
            nxt += 1
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return itemgetter(*plan)


def flatten(layered: LayeredCircuit) -> Circuit:
    """Expand fan-in-k gates into k-1 fan-in-2 gates (balanced,
    left-to-right pairwise rounds); fan-in-1 gates become forwarding.

    The pairing depends on k alone, so each distinct fan-in gets one
    plan (:func:`_pairing_plan`) per call, and a gate reads its pairs
    off its mapped operands and its new gates' signals in one lookup.
    """
    n = layered.n_inputs
    gates: list[tuple[int, int]] = []
    plans: dict[int, itemgetter] = {}
    sigmap: list[int] = list(range(n))
    nxt = n  # the next gate's signal
    for layer in layered.layers:
        for ops in layer:
            k = len(ops)
            if k == 1:
                sigmap.append(sigmap[ops[0]])
                continue
            plan = plans.get(k)
            if plan is None:
                plan = plans[k] = _pairing_plan(k)
            slots = [sigmap[r] for r in ops]
            slots += range(nxt, nxt + k - 1)
            it = iter(plan(slots))
            gates += zip(it, it)
            nxt += k - 1
            sigmap.append(nxt - 1)  # the last gate is the final round's
    outputs = tuple(None if o is None else sigmap[o] for o in layered.outputs)
    return Circuit(n, layered.connective, tuple(gates), outputs)


# ---------------------------------------------------------------------------
# SLP text format


def slp_dumps(c: AnyCircuit) -> str:
    """SLP text of a flat or layered circuit (the header says which).

    The one writer: a flat circuit is one layer without its marker, each
    gate written by one f-string as ``t<k> = <a> + <b>``, the line the
    operand join of a layered gate gives for two operands.
    """
    layered = isinstance(c, LayeredCircuit)
    n_gates = c.n_gates if layered else len(c.gates)
    names = [f"x{i + 1}" for i in range(c.n_inputs)] + [f"t{k + 1}" for k in range(n_gates)]
    lines = [f"inputs {c.n_inputs} connective {c.connective}" + (" layered" if layered else "")]
    if layered:
        name = names.__getitem__
        g = c.n_inputs
        for d, layer in enumerate(c.layers):
            lines.append(f"layer {d + 1}")
            for ops in layer:
                lines.append(f"{names[g]} = {' + '.join(map(name, ops))}")
                g += 1
    else:
        gates = enumerate(c.gates, c.n_inputs)
        lines += [f"{names[g]} = {names[a]} + {names[b]}" for g, (a, b) in gates]
    outs = " ".join(
        f"y{i + 1}={'0' if o is None else names[o]}" for i, o in enumerate(c.outputs)
    )
    lines.append(f"outputs: {outs}")
    return "\n".join(lines) + "\n"


_HEADER_RE = re.compile(r"inputs\s+([0-9]+)\s+connective\s+(XOR|OR)(\s+layered)?\s*$")
_LAYER_RE = re.compile(r"layer\s+([0-9]+)$")
_GATE_RE = re.compile(r"(t[0-9]+)\s*=\s*(.+)$")
_REF_RE = re.compile(r"[xt][0-9]+$")
_OUTPUT_RE = re.compile(r"y([0-9]+)=(\S+)$")
_WORD_RE = re.compile(r"\S+")


def slp_loads(text: str) -> AnyCircuit:
    """Parse the SLP text format, flat or layered (the header decides).

    One grammar: flat text is a single unmarked layer whose gates take
    exactly two operands; layered text opens each layer with a
    ``layer <d>`` marker, and its operands must lie strictly below the
    gate's layer.
    """
    lines = [(i, ln) for i, raw in enumerate(text.splitlines(), 1) if (ln := raw.strip())]
    if not lines:
        raise ParseError("empty circuit text", 1)
    lineno, header = lines[0]
    m = _HEADER_RE.match(header)
    if not m:
        raise ParseError("expected 'inputs <n> connective <XOR|OR>'", lineno)
    n_inputs = int(m.group(1))
    connective = m.group(2)
    layered = bool(m.group(3))
    layers: list[list[tuple[int, ...]]] = [] if layered else [[]]
    known: dict[str, int] = {}  # reference token -> signal, filled as tokens resolve
    n_gates = 0
    below = n_inputs  # first signal of the current layer (layered text)
    outputs = None

    def resolve(tok: str, lineno: int, col: int) -> int:
        """The signal a gate operand or an output names (1-indexed ``col``)."""
        ref = known.get(tok)
        if ref is not None:
            return ref
        if not _REF_RE.match(tok):
            raise ParseError(f"bad signal reference {tok!r}", lineno, col)
        ix = int(tok[1:])
        if tok[0] == "x":
            if not 1 <= ix <= n_inputs:
                raise ParseError(f"input {tok} out of range", lineno, col)
            ref = ix - 1
        elif 1 <= ix <= n_gates:
            ref = n_inputs + ix - 1
        else:
            raise ParseError(f"gate {tok} not yet defined", lineno, col)
        known[tok] = ref
        return ref

    gates = None if layered else layers[0]  # flat text before its outputs block
    for lineno, ln in lines[1:]:
        if gates is not None:
            # the writer's flat gate line: 't<k> = <a> + <b>', single blanks,
            # k the next gate and both operands resolved before; any other
            # line takes the grammar below, which also raises every error
            parts = ln.split(" ")
            if len(parts) == 5 and parts[1] == "=" and parts[3] == "+":
                a = known.get(parts[2])
                b = known.get(parts[4])
                if a is not None and b is not None and parts[0] == f"t{n_gates + 1}":
                    gates.append((a, b))
                    known[parts[0]] = n_inputs + n_gates
                    n_gates += 1
                    continue
        if ln.startswith("outputs:"):
            if outputs is not None:
                raise ParseError("duplicate outputs block", lineno)
            outputs = []
            gates = None
            for wm in _WORD_RE.finditer(ln, len("outputs:")):
                col = wm.start() + 1
                om = _OUTPUT_RE.match(wm.group())
                if not om:
                    raise ParseError(f"bad output assignment {wm.group()!r}", lineno, col)
                if int(om.group(1)) != len(outputs) + 1:
                    raise ParseError(
                        f"outputs must appear in order; expected y{len(outputs) + 1}", lineno, col
                    )
                ref = om.group(2)
                outputs.append(None if ref == "0" else resolve(ref, lineno, col + om.start(2)))
            continue
        if outputs is not None:
            raise ParseError("content after outputs block", lineno)
        lm = layered and _LAYER_RE.match(ln)
        if lm:
            if int(lm.group(1)) != len(layers) + 1:
                raise ParseError(f"expected 'layer {len(layers) + 1}'", lineno)
            below = n_inputs + n_gates
            layers.append([])
            continue
        gm = _GATE_RE.match(ln)
        if not gm:
            raise ParseError(f"bad gate line {ln!r}", lineno)
        if not layers:
            raise ParseError("gate before any 'layer' marker", lineno)
        if int(gm.group(1)[1:]) != n_gates + 1:
            raise ParseError(f"expected gate t{n_gates + 1}", lineno)
        at = gm.start(2) + 1  # column where the current operand's piece starts
        pieces = gm.group(2).split("+")
        if not layered and len(pieces) != 2:
            raise ParseError("fan-in-2 SLP gates take exactly two operands", lineno, at)
        ops = []
        for piece in pieces:
            tok = piece.strip()
            col = at + len(piece) - len(piece.lstrip())
            ref = resolve(tok, lineno, col)
            if layered and ref >= below:
                raise ParseError(f"{tok} is not strictly below layer {len(layers)}", lineno, col)
            ops.append(ref)
            at += len(piece) + 1
        layers[-1].append(tuple(ops))
        known[gm.group(1)] = n_inputs + n_gates
        n_gates += 1
    if outputs is None:
        raise ParseError("missing outputs block", lines[-1][0])
    if layered:
        return LayeredCircuit(n_inputs, connective, tuple(map(tuple, layers)), tuple(outputs))
    return Circuit(n_inputs, connective, tuple(layers[0]), tuple(outputs))
