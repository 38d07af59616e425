"""Circuit construction procedures.

Heuristics (`naive_rowwise`, `paar_greedy`, `boyar_peralta`) build
cancellation-free circuits by design: they only ever combine signals with
disjoint supports.  The block constructions (`lupanov`, `lupanov_depth2`)
give the generic size guarantees; the explicit families
(`sierpinski_circuit`, `setintersection_or_circuit`, `hadamard_circuit`)
and the transforms (`complement_transform`, `product_circuit`) give the
structured circuits the rest of the package studies.  Every result is
verified exactly against its target matrix before it is returned.
`boyar_peralta` reads exact distances from one cover table and refuses,
before any work, a matrix whose table would pass 2^20 entries.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Optional

from .matrices import (
    BitMatrix,
    _set_bits,
    gen_setintersection,
    gen_sierpinski,
    gen_hadamard,
    mul_gf2,
    rank_factorize_gf2,
)
from .circuits import (
    XOR,
    OR,
    AnyCircuit,
    Circuit,
    LayeredCircuit,
    _Builder,
    check,
    compose,
    compose_layered,
    size_wires,
)
from .circuits import flatten, verify  # noqa: F401  (unused; perfbench's tracer test pins them)
from .bounds import sierpinski_lb

#: Most entries :func:`boyar_peralta`'s cover table may hold: 2^weight
#: summed over the distinct rows to build.
COVER_TABLE_LIMIT = 1 << 20


@dataclass(frozen=True)
class SynthesisResult:
    """A verified circuit plus provenance: method name, measured cost
    (gates, or wires for layered circuits) and cancellation-freeness."""

    circuit: AnyCircuit
    method: str
    cost: int
    cancellation_free: bool
    params: dict = field(default_factory=dict)


def _result(circuit: AnyCircuit, method: str, target: BitMatrix, **params) -> SynthesisResult:
    ok, cancellation_free = check(circuit, target)
    if not ok:
        raise RuntimeError(f"synthesis bug: {method} output does not verify")
    cost = size_wires(circuit) if isinstance(circuit, LayeredCircuit) else len(circuit.gates)
    return SynthesisResult(circuit, method, cost, cancellation_free, params)


# ---------------------------------------------------------------------------
# Row-by-row and greedy heuristics


def naive_rowwise(a: BitMatrix) -> SynthesisResult:
    """Compute each row independently: a weight-w row costs w - 1 gates.

    Zero rows become constant-zero output markers, not gates.
    """
    b = _Builder(a.cols, XOR)
    outputs: list[Optional[int]] = []
    for i in range(a.rows):
        bits = _set_bits(a.row(i))
        if not bits:
            outputs.append(None)
            continue
        sig = bits[0]
        for nxt in bits[1:]:
            sig = b.gate(sig, nxt)
        outputs.append(sig)
    return _result(b.circuit(outputs), "naive", a)


def paar_greedy(a: BitMatrix) -> SynthesisResult:
    """Greedy pair sharing: repeatedly replace the pair of signals that
    co-occurs in the most rows by a fresh gate.

    Ties break on the lexicographically smallest signal-index pair.  The
    invariant that each row is a disjoint partition of its support makes
    the output cancellation-free.

    The loop runs in two phases over two mirrored indexes: ``usage[t]``,
    the bitmask of the rows that hold signal t, and ``rowsig[r]``, the
    bitmask of the live signals of row r.  ``rowsig[r]`` has bit t iff
    ``usage[t]`` has bit r; a gate on ``(si, sj)`` over the rows ``both``
    clears both bits in each of those rows and sets the new signal's.

    Phase 1 takes the pairs that share at least two rows from a queue
    bucketed by count: ``buckets[c]`` holds int keys ``(si << shift) | sj``
    with ``si < sj``, so key order is pair order.  Every signal index is
    below ``n`` plus the total row weight, since each gate removes at
    least one entry from the rows, and ``shift`` is that sum's bit length.
    A pair's count only shrinks, so a stored count bounds the current
    one.  A new gate's count against a signal t is the number of the
    gate's rows that hold t, at most ``top``.  While it rewrites those
    rows the loop gathers ``once``, the signals in one row or more, and
    ``twice``, those in two or more; only the signals in ``twice`` can
    pair with the gate in two rows, so only they are counted, and each
    pair is pushed as ``(t, new)``.  So nothing is ever pushed above
    ``top``, which only descends.

    When ``top`` reaches a bucket, one pass recounts its keys: a key whose
    count is still ``top`` stays, a stale one moves to the bucket of its
    current count, below ``top``, or is dropped once that is below two.
    Only the kept keys are heapified.  Every pair sharing two rows or
    more holds one key, stored with a count between its current one and
    ``top``; so each pair whose current count is ``top`` is kept by that
    pass or pushed at ``top`` after it.  A pair that goes stale later at
    this level is caught on pop and moved down the same way.  So the
    least key the heap yields with count ``top`` is the pair one lazy
    max-heap of ``(-count, si, sj)`` would take.  A lower bucket is a
    plain list until ``top`` reaches it.

    Phase 2 starts when that queue is empty: no two signals share two
    rows, and none ever will, since each later gate covers a single row.
    Every pair left to take shares exactly one row, and the
    lexicographically smallest one is the two smallest signals of some
    row; distinct rows give distinct pairs.  So a heap holds one key
    ``(s1, s2, row)`` per row with two or more signals, a gate replaces
    the front two signals of its row by the new one at the back, and
    only that row's key changes.  Each row's list comes ascending from
    its mask and stays so, since a new gate's signal is the largest index
    so far.  Count-1 pairs sort after every pair sharing two or more
    rows, so they decide nothing in phase 1, and phase 2 takes them in
    the order one heap over all pairs would.  Each nonzero row ends held
    by exactly one signal: its output.
    """
    m, n = a.rows, a.cols
    b = _Builder(n, XOR)
    rowsig = [a.row(i) for i in range(m)]  # row -> bitmask of its live signals
    total = sum(rs.bit_count() for rs in rowsig)
    shift = (n + total).bit_length()
    low = (1 << shift) - 1
    usage = [0] * (n + total)  # signal -> bitmask of rows containing it, 0 once used up
    for i, rs in enumerate(rowsig):
        for j in _set_bits(rs):
            usage[j] |= 1 << i

    buckets: list[list[int]] = [[], []]  # count -> keys of the pairs stored with it
    live = [j for j in range(n) if usage[j]]
    for ai, si in enumerate(live):
        ua = usage[si]
        hi = si << shift
        for sj in live[ai + 1 :]:
            cnt = (ua & usage[sj]).bit_count()
            if cnt >= 2:
                while len(buckets) <= cnt:
                    buckets.append([])
                buckets[cnt].append(hi | sj)
    top = len(buckets) - 1

    heappop, heappush = heapq.heappop, heapq.heappush
    while top >= 2:
        bucket = []
        for key in buckets.pop():
            cur = (usage[key >> shift] & usage[key & low]).bit_count()
            if cur == top:
                bucket.append(key)
            elif cur >= 2:
                buckets[cur].append(key)
        heapq.heapify(bucket)
        while bucket:
            key = heappop(bucket)
            si, sj = key >> shift, key & low
            ui = usage[si]
            uj = usage[sj]
            both = ui & uj
            cur = both.bit_count()
            if cur != top:
                if cur >= 2:
                    buckets[cur].append(key)
                continue
            snew = b.gate(si, sj)
            usage[snew] = both
            usage[si] = ui & ~both
            usage[sj] = uj & ~both
            pair = (1 << si) | (1 << sj)
            bit = 1 << snew
            once = twice = 0
            for r in _set_bits(both):
                rs = rowsig[r] ^ pair
                twice |= once & rs
                once |= rs
                rowsig[r] = rs | bit
            for t in _set_bits(twice):
                cnt = (usage[t] & both).bit_count()
                if cnt == top:
                    heappush(bucket, (t << shift) | snew)
                else:
                    buckets[cnt].append((t << shift) | snew)
        top -= 1

    rows = [_set_bits(rs) for rs in rowsig]  # row -> its live signals, ascending
    keys = [(sigs[0], sigs[1], r) for r, sigs in enumerate(rows) if len(sigs) >= 2]
    heapq.heapify(keys)
    while keys:
        s1, s2, r = heappop(keys)
        sigs = rows[r]
        del sigs[:2]
        sigs.append(b.gate(s1, s2))
        if len(sigs) >= 2:
            heappush(keys, (sigs[0], sigs[1], r))

    outputs: list[Optional[int]] = [sigs[-1] if sigs else None for sigs in rows]
    return _result(b.circuit(outputs), "paar", a, tie_break="lexicographic pair")


def _submasks(t: int):
    """Every submask of t, from t itself down to 0."""
    s = t
    while True:
        yield s
        if not s:
            return
        s = (s - 1) & t


def _lower_covers(cover: dict[int, int], v: int, pending: list[int]) -> None:
    """Let v join the base of ``cover``, which maps each submask of a
    pending row to the fewest pairwise-disjoint base values whose union
    it is.  A cover of u that uses v is v plus a cover of ``u ^ v``, whose
    entry v cannot lower, so one pass over ``s | v`` for the submasks s
    of ``t ^ v``, t pending and containing v, updates every entry."""
    for t in pending:
        if v & ~t == 0:
            for s in _submasks(t ^ v):
                c = cover[s] + 1
                if c < cover[s | v]:
                    cover[s | v] = c


def boyar_peralta(a: BitMatrix) -> SynthesisResult:
    """Distance-guided greedy signal creation.

    The distance of a row is the minimum number of additional gates
    needed to reach it from the current base by disjoint combination:
    the size of its smallest disjoint cover by base values, minus one.
    Each step adds the disjoint pair that minimizes the total distance;
    ties maximize the Euclidean norm of the distance vector, then take
    the lowest signal-index pair.  Output is cancellation-free.

    Cover sizes are exact, read from one table over the submasks of the
    rows to build: popcounts (the unit covers) at first, lowered by
    :func:`_lower_covers` as each value joins the base.  A candidate v
    changes only the distances of the pending rows t that contain it, to
    ``min(old, cover[t ^ v])``.  A matrix whose table would pass
    :data:`COVER_TABLE_LIMIT` entries raises ``ValueError`` before any work.

    Every step has a candidate.  A pending row t is not in the base and
    has weight >= 2, so a minimum disjoint cover of t by base values (the
    units make one exist) has k >= 2 members.  The union of any two of
    them is disjoint and lies under t.  It is not in the base, or the
    cover would shrink.  So it is a candidate, and it lowers t's distance
    by one; the step taken lowers the total distance at least as much, so
    the loop ends.
    """
    n = a.cols
    base: list[int] = [1 << i for i in range(n)]
    in_base = set(base)
    pending = sorted({r for r in (a.row(i) for i in range(a.rows)) if r and r not in in_base})
    entries = sum(1 << t.bit_count() for t in pending)
    if entries > COVER_TABLE_LIMIT:
        raise ValueError(f"bp cover table would hold {entries} entries, above {COVER_TABLE_LIMIT}")
    cover = {s: s.bit_count() for t in pending for s in _submasks(t)}
    b = _Builder(n, XOR)
    dist = {t: cover[t] - 1 for t in pending}
    while pending:
        # each candidate's total and squared norm are the current ones less
        # what it takes off the pending rows that contain it
        total = sum(dist.values())
        norm2 = sum(d * d for d in dist.values())
        cands: list[tuple[int, int, tuple[int, int], int]] = []
        seen: set[int] = set()
        for i in range(len(base)):
            vi = base[i]
            for j in range(i + 1, len(base)):
                vj = base[j]
                if vi & vj:
                    continue
                v = vi | vj
                if v in in_base or v in seen:
                    continue
                seen.add(v)
                under = False  # some pending row contains v
                cut = cut2 = 0
                for t in pending:
                    if v & ~t == 0:
                        under = True
                        d, c = dist[t], cover[t ^ v]
                        if c < d:
                            cut += d - c
                            cut2 += d * d - c * c
                if under:  # else useless for every remaining disjoint cover
                    cands.append((total - cut, cut2 - norm2, (i, j), v))
        _, _, (i, j), v = min(cands)
        sig = b.gate(i, j)
        if len(base) != sig:
            raise RuntimeError("synthesis bug: bp signal index out of step")
        base.append(v)
        in_base.add(v)
        for t in pending:
            if v & ~t == 0:
                dist[t] = min(dist[t], cover[t ^ v])
        pending = [t for t in pending if t != v]
        dist.pop(v, None)
        _lower_covers(cover, v, pending)

    value_sig = {v: k for k, v in enumerate(base)}  # base values are distinct
    outputs = [None if a.row(i) == 0 else value_sig[a.row(i)] for i in range(a.rows)]
    return _result(b.circuit(outputs), "bp", a)


# ---------------------------------------------------------------------------
# Block constructions


def _blocks(n: int, width: int) -> list[int]:
    """Column masks of consecutive blocks of the given width."""
    out = []
    for lo in range(0, n, width):
        w = min(width, n - lo)
        out.append(((1 << w) - 1) << lo)
    return out


def _lupanov_width(m: int) -> int:
    """Block width of :func:`lupanov` for m rows."""
    return max(1, m.bit_length() - 1)


def lupanov(a: BitMatrix, connective: str = XOR) -> SynthesisResult:
    """Shared block-pattern construction, block width floor(log2 m).

    Each block pattern that occurs among the rows is built once (weight-w
    pattern: at most w - 1 gates, prefixes shared), then every row
    combines its nonzero block signals.  Cancellation-free; gate count is
    at most ``(#blocks) * min(2^b, m) * (b - 1) + m * (#blocks - 1)``.
    """
    circuit = _lupanov_circuit(a, connective)
    return _result(circuit, "lupanov", a, block_width=_lupanov_width(a.rows))


def _lupanov_circuit(a: BitMatrix, connective: str) -> Circuit:
    """:func:`lupanov`'s circuit, unverified: the block builders that
    compose it into a larger circuit verify only their result."""
    m, n = a.rows, a.cols
    masks = _blocks(n, _lupanov_width(m))
    gates: list[tuple[int, int]] = []
    sig_of = {1 << j: j for j in range(n)}  # block pattern -> its signal
    outputs: list[Optional[int]] = []
    for i in range(m):
        row = a.row(i)
        parts = []
        for bm in masks:
            mask = row & bm
            if mask:
                sig = sig_of.get(mask)
                if sig is None:
                    # peel top bits down to a built pattern, then rebuild upwards
                    peeled = []
                    while sig is None:
                        peeled.append(mask)
                        mask ^= 1 << (mask.bit_length() - 1)
                        sig = sig_of.get(mask)
                    for p in reversed(peeled):
                        gates.append((sig, p.bit_length() - 1))
                        sig = sig_of[p] = n + len(gates) - 1
                parts.append(sig)
        if not parts:
            outputs.append(None)
            continue
        acc = parts[0]
        for p in parts[1:]:
            gates.append((acc, p))
            acc = n + len(gates) - 1
        outputs.append(acc)
    return Circuit(n, connective, tuple(gates), tuple(outputs))


def lupanov_depth2(a: BitMatrix) -> SynthesisResult:
    """Depth-2 wire construction, block width ceil(log2(n)/2).

    The middle layer holds the block patterns worth sharing (used by at
    least two rows and of weight at least two); every other pattern is
    wired directly into the row's output gate.
    """
    m, n = a.rows, a.cols
    width = max(1, math.ceil(math.log2(n) / 2)) if n > 1 else 1
    masks = _blocks(n, width)

    use_count: dict[int, int] = {}
    row_parts: list[list[int]] = []
    for i in range(m):
        row = a.row(i)
        parts = [row & bm for bm in masks if row & bm]
        row_parts.append(parts)
        for p in parts:
            use_count[p] = use_count.get(p, 0) + 1

    shared = sorted(
        p for p, cnt in use_count.items() if cnt >= 2 and p.bit_count() >= 2
    )
    wires = {p: tuple(_set_bits(p)) for p in use_count}  # pattern -> its inputs
    middle_layer = tuple(wires[p] for p in shared)
    # the operands a row part feeds its output gate: a shared pattern's
    # middle gate, any other pattern's inputs
    operands = wires | {p: (n + k,) for k, p in enumerate(shared)}

    out_layer: list[tuple[int, ...]] = []
    outputs: list[Optional[int]] = []
    next_id = n + len(shared)
    for parts in row_parts:
        if not parts:
            outputs.append(None)
            continue
        ops: list[int] = []
        for p in parts:
            ops += operands[p]
        out_layer.append(tuple(ops))
        outputs.append(next_id)
        next_id += 1

    layered = LayeredCircuit(n, XOR, (middle_layer, tuple(out_layer)), tuple(outputs))
    return _result(layered, "lupanov2", a, block_width=width)


# ---------------------------------------------------------------------------
# Explicit families and transforms


def _sierpinski_build(b: _Builder, lo: int, size: int) -> list[int]:
    """Signals of S_size on inputs lo..lo+size-1: the top half's, then
    each top signal combined with its bottom twin.  Module-level, not a
    nested function: a self-referencing closure is a reference cycle."""
    if size == 1:
        return [lo]
    half = size // 2
    top = _sierpinski_build(b, lo, half)
    bottom = _sierpinski_build(b, lo + half, half)
    return top + [b.gate(top[i], bottom[i]) for i in range(half)]


def sierpinski_circuit(n: int) -> SynthesisResult:
    """Divide-and-conquer circuit for the Sierpinski matrix: exactly
    (n/2) * log2(n) gates, cancellation-free."""
    target = gen_sierpinski(n)
    b = _Builder(n, XOR)
    outputs = _sierpinski_build(b, 0, n)
    res = _result(b.circuit(outputs), "sierpinski", target)
    if res.cost != sierpinski_lb(n):
        raise RuntimeError("synthesis bug: sierpinski gate count is not (n/2) log2 n")
    return res


def setintersection_or_circuit(n: int) -> SynthesisResult:
    """Linear-size OR circuit for the set-intersection matrix via its
    Boolean factorization K_n = B (Bᵀ), B the n x log2(n) matrix whose
    row i is the binary representation of i."""
    target = gen_setintersection(n)
    logn = n.bit_length() - 1
    bmat = BitMatrix(n, logn, list(range(n)))
    outer = _lupanov_circuit(bmat, OR)
    inner = _lupanov_circuit(bmat.transpose(), OR)
    return _result(
        compose(outer, inner),
        "setint",
        target,
        factor_gates=(len(outer.gates), len(inner.gates)),
    )


def hadamard_circuit(n: int) -> SynthesisResult:
    """Linear-size XOR circuit for the Boolean Sylvester-Hadamard matrix
    via its GF(2) rank factorization (rank log2(n) + 1); the composition
    cancels heavily, so the result is generally not cancellation-free."""
    target = gen_hadamard(n)
    fac = rank_factorize_gf2(target)
    outer = _lupanov_circuit(fac.left, XOR)
    inner = _lupanov_circuit(fac.right, XOR)
    return _result(compose(outer, inner), "hadamard", target, rank=fac.rank)


def complement_transform(c: Circuit) -> Circuit:
    """Circuit for the complement matrix: one parity chain over all
    inputs (n - 1 gates) plus one gate per output, 2n - 1 extra gates in
    total for square targets.  Cancels heavily by design."""
    if c.connective != XOR:
        raise ValueError("complement transform is defined for XOR circuits")
    b = _Builder(c.n_inputs, XOR, c.gates)
    parity = 0 if c.n_inputs else None  # an m x 0 matrix is its own complement
    for i in range(1, c.n_inputs):
        parity = b.gate(parity, i)
    return b.circuit(parity if o is None else b.gate(o, parity) for o in c.outputs)


def product_circuit(
    b: BitMatrix, c: BitMatrix, depth_mode: str = "fanin2"
) -> SynthesisResult:
    """Circuit for the GF(2) product B·C by feeding a circuit for C into
    a circuit for B; the composition introduces cancellations.

    ``fanin2`` composes two fan-in-2 block constructions (gate counts
    add); ``depth4`` stacks two depth-2 wire constructions into an exact
    depth-4 layered circuit.
    """
    target = mul_gf2(b, c)
    if depth_mode == "fanin2":
        outer = lupanov(b)
        inner = lupanov(c)
        circuit: AnyCircuit = compose(outer.circuit, inner.circuit)
    elif depth_mode == "depth4":
        outer2 = lupanov_depth2(b)
        inner2 = lupanov_depth2(c)
        circuit = compose_layered(outer2.circuit, inner2.circuit)
    else:
        raise ValueError(f"unknown depth mode {depth_mode!r}")
    return _result(circuit, "product", target, depth_mode=depth_mode)
