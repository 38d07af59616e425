"""Optimal circuit-size search for small matrices, plus the tiny-n census.

The search deepens iteratively over the allowed gate count.  Inside one
iteration with budget L, it sweeps reachable signal sets depth-first:
the state is the set of signal values present (the n unit vectors
initially), a step adjoins the combination of two present signals (XOR,
disjoint-support XOR in the CF model, or OR), and the goal is every
nonzero row of the target present as a signal.  Zero rows cost nothing
(constant-zero output markers).

Soundness of the reported optimum rests on exhausting every smaller
budget with only sound pruning:

* each step adds exactly one signal, so the number of target rows not
  yet present never exceeds the remaining budget (admissible heuristic);
* signal sets are canonical states (a candidate is never 0 and never a
  value already present), so a state at depth d holds exactly n + d
  signals: its depth, and so its remaining budget, is fixed by the state.
  One visited set per iteration therefore expands each state at most
  once;
* a state is *tight* when its missing targets number its remaining
  budget.  Every further gate must then add a missing target, and
  derivability only grows as values are added, so a tight state reaches
  its one possible goal, the state and its missing targets, iff adding
  missing targets that are candidates, for as long as one is, adds them
  all (:func:`_close`).  Tight states are resolved by that closure and
  never stored or expanded.  A child has at most as many missing targets
  as its parent and one gate fewer left, so only a *spare-one* state (one
  missing target fewer than gates left) has tight children, one per
  non-target candidate; the children of a tight state are tight;
* no goal lies below depth L in iteration L: its path would have been a
  path of iteration d < L, at its own depth d, and every smaller
  iteration found none (the first iteration is the number of targets).
  So every goal is reached through a tight state;
* in the CF and OR models, candidates are only nonzero submasks of some
  target (under-target pruning).  There a signal is a subset of every
  signal derived from it.  A goal set at the optimal budget that held a
  value under no target could therefore drop that value, and everything
  derived from it, and still reach every target: a smaller solution, but
  every smaller budget was already exhausted.  Every state on the path to
  such a goal set is a subset of it, so every one of them survives the
  filter, in the same order; the first goal found, and so the witness, is
  the one the unfiltered sweep finds;
* a cancellation-free heuristic circuit caps the optimum in all three
  models (it reads as an XOR and as an OR circuit for the same matrix),
  so iteration stops at that cost minus one.

The witness is the path to the goal: the values added, in order.  It is
the lexicographically least goal path, the one the breadth-first sweep
that this search replaced returned too:

* that sweep's level d is ordered by each state's least path.  By
  induction over first parents: a state is first made by the earliest
  state of the level before that makes it, with the least value, and a
  least path extends the least path of its first parent.  So its first
  goal was the goal of the least goal path, and the first-parent chain it
  read the witness from was that path;
* this sweep takes candidates in ascending order, so it meets paths in
  lexicographic order, skipping only those through a state it visited
  before.  A prefix of a least path is the least path to its state and is
  met first, so the least goal path is never skipped, and no goal is met
  before it;
* from a tight state, the least completion adds the least ready missing
  target first, since adding any ready target keeps the goal reachable.

A state is one int, a bitmask over the 2^n value universe (bit v set when
value v is present), and the visited set holds nothing else.  The frames
of the search stack, one per gate on the current path, also carry each
state's candidate mask (the values derivable from it and not yet
present) and its missing targets.  A child's new candidates come from the
parent's state mask alone: the values ``s ^ v``, ``s | v`` over disjoint
``s``, or ``s | v``, for every present ``s``, are a few shifts and masks
of that mask (see :func:`_combiner`).  A mask has 2^n bits, so inputs are
capped at 16 columns; every search that finishes is far below that.
Expansion order is fixed -- candidate values ascending -- which makes
``nodes_expanded`` and the returned witness deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from .matrices import BitMatrix, BudgetExceededError
from .circuits import XOR, OR, Circuit, is_cancellation_free, verify
from . import synthesis as _synth

XOR_MODEL = "XOR"
CF_MODEL = "CF"
OR_MODEL = "OR"
MODELS = (XOR_MODEL, CF_MODEL, OR_MODEL)

DEFAULT_LIMIT = 14
_MAX_INPUTS = 16
# A held state (a set slot and its state mask) costs about 90-100 bytes
# of peak RSS at n = 8: S_8 with limit 12 held at most 206 k states at
# 54 MiB max RSS in CF and 224 k at 54 MiB in XOR, from a 34.5 MiB start
# (tracemalloc: 96 B per state in CF).  So this default stops a search
# near 0.5 GB.
_DEFAULT_MAX_STATES = 5_000_000


@dataclass(frozen=True)
class SearchOutcome:
    model: str
    optimal_size: Optional[int]  # None when the limit was exhausted
    exceeded: bool
    witness: Optional[Circuit]
    nodes_expanded: int
    limit: int
    peak_states: int = 0  # largest visited set of any one sweep, root included


def _derive_witness(n: int, model: str, sigs: tuple[int, ...], rows: list[int]) -> Circuit:
    """Witness circuit for a goal's signal tuple: the n units, then the
    added values in sweep order.

    Each added value's gate is the lexicographically first pair ``(i, j)``,
    ``i < j``, of earlier signals that produces it (disjoint ones in the CF
    model).  The pair exists: every added value was a candidate, and the
    candidates are exactly such combinations.  Outputs point at the signal
    equal to each row.
    """
    cf = model == CF_MODEL
    union = model == OR_MODEL
    gates = []
    for k in range(n, len(sigs)):
        for i, j in combinations(range(k), 2):
            s, t = sigs[i], sigs[j]
            if (s | t if union else s ^ t) == sigs[k] and not (cf and s & t):
                gates.append((i, j))
                break
        else:
            raise RuntimeError("goal signal admits no gate")
    index = {v: k for k, v in enumerate(sigs)}
    outputs = tuple(None if r == 0 else index[r] for r in rows)
    return Circuit(n, OR if union else XOR, tuple(gates), outputs)


def _checked(witness: Circuit, a: BitMatrix, model: str) -> Circuit:
    """``witness`` once it computes ``a`` (cancellation-free in CF)."""
    if not verify(witness, a) or (model == CF_MODEL and not is_cancellation_free(witness)):
        raise RuntimeError(f"exact search bug: {model} witness does not verify")
    return witness


def _heuristic_upper_bound(a: BitMatrix) -> tuple[int, Circuit]:
    """Cheap cancellation-free upper bound; valid in all three models."""
    best = _synth.naive_rowwise(a)
    paar = _synth.paar_greedy(a)
    if paar.cost < best.cost:
        best = paar
    return best.cost, best.circuit


def _submasks(t: int, n: int) -> int:
    """Bitmask over the 2^n value universe of every submask of ``t``
    (zero included), doubled once per set bit of ``t``."""
    m = 1
    for i in range(n):
        if (t >> i) & 1:
            m |= m << (1 << i)
    return m


def _combiner(model: str, n: int) -> Callable[[int, int], int]:
    """``combine(state, v)``: the mask of every value the model makes from
    ``v`` and a value present in ``state`` -- ``s ^ v`` (XOR), ``s | v``
    over ``s`` disjoint from ``v`` (CF), or ``s | v`` (OR).

    ``clr[b]`` is the mask of the values whose bit ``b`` (a power of two)
    is clear, built with O(n) big-int operations.  Flipping bit b of every
    value swaps each block of b values with the block above it, so XOR is
    one block swap per set bit of v; OR moves the clear-bit blocks onto the
    set-bit ones.  The values disjoint from v are the AND of clr over v's
    bits, each shifted up by v; that mask is cached per value of v.
    """
    full = (1 << (1 << n)) - 1
    clr = {1 << i: full // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1) for i in range(n)}

    if model == XOR_MODEL:
        def combine(st: int, v: int) -> int:
            while v:
                b = v & -v
                v ^= b
                c = clr[b]
                st = ((st & c) << b) | ((st >> b) & c)
            return st

    elif model == CF_MODEL:
        disjoint: dict[int, int] = {}

        def combine(st: int, v: int) -> int:
            d = disjoint.get(v)
            if d is None:
                d = full
                for b, c in clr.items():
                    if v & b:
                        d &= c
                disjoint[v] = d
            return (st & d) << v

    else:
        def combine(st: int, v: int) -> int:
            while v:
                b = v & -v
                v ^= b
                low = st & clr[b]
                st = (st ^ low) | (low << b)
            return st

    return combine


def _close(
    st: int,
    cands: int,
    miss_mask: int,
    combine: Callable[[int, int], int],
    order: Optional[list[int]] = None,
) -> tuple[int, int, int]:
    """Add missing targets that are candidates, the least one first, until
    none is.  Returns the stuck state, its candidates (not masked to
    ``allowed`` or the absent values; only their AND with the missing
    targets is read) and the targets still missing.  When ``order`` is
    given, it receives each added value.

    Derivability only grows as values are added, so adding one ready
    target never blocks another: the stuck state does not depend on the
    order, and a tight state reaches its goal iff nothing is left missing.
    Adding the least ready target each time then gives the
    lexicographically least completion.
    """
    ready = cands & miss_mask
    while ready:
        low = ready & -ready
        t = low.bit_length() - 1
        if order is not None:
            order.append(t)
        cands |= combine(st, t)
        st |= low
        miss_mask ^= low
        ready = cands & miss_mask
    return st, cands, miss_mask


def _exceeded(max_states: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"search exceeded {max_states} states; raise max_states or lower the limit"
    )


def _sweep(
    state0: int,
    cands0: int,
    budget: int,
    combine: Callable[[int, int], int],
    tmask: int,
    allowed: int,
    max_states: int,
) -> tuple[Optional[list[int]], int, int]:
    """Depth-first exhaust at one budget from the state ``state0`` with
    candidates ``cands0``.

    Returns the values the goal path adds, in order, or None; the nodes
    expanded (states whose candidates were enumerated; a tight root is
    resolved by :func:`_close` and counts as one); and the size of the
    visited set, root included, which ``max_states`` bounds.

    Candidates are masked to ``allowed`` and never hold a present value.
    Tight states are resolved where they are made and never stored.  Only
    a spare-one state P has tight children, P | v for each non-target
    candidate v.  Its stuck closure (S, C, M) is computed once.  The closure is
    monotone, so the closure of the child P | v contains S, and it is the
    closure of S | v, whose candidates are C | combine(S, v).  A child
    fails at once unless combine(S, v) meets M.  When child v
    succeeds, the frame only goes on to its target children below v and
    then returns v's least completion.

    A frame is ``[state, candidates, missing targets, children left, hit]``;
    the stack replaces recursion, which a large ``limit`` could take past
    the interpreter's depth limit.
    """
    if max_states < 1:
        raise _exceeded(max_states)
    miss0 = tmask & ~state0
    if miss0.bit_count() == budget:
        order: list[int] = []
        left = _close(state0, cands0, miss0, combine, order)[2]
        return (None if left else order), 1, 1
    visited = {state0}
    stack = [[state0, cands0, miss0, cands0, None]]
    nodes = 0
    while True:
        # expand the frame on top: the state's children, its tight ones
        # resolved here
        frame = stack[-1]
        st, cands, miss_mask = frame[0], frame[1], frame[2]
        nodes += 1
        if miss_mask.bit_count() == budget - len(stack):
            s_p, c_p, m_p = _close(st, cands, miss_mask, combine)
            use = cands & miss_mask
            loose = cands & ~miss_mask
            while loose:
                low = loose & -loose
                loose ^= low
                v = low.bit_length() - 1
                more = combine(s_p, v)
                if more & m_p and not _close(s_p | low, c_p | more, m_p, combine)[2]:
                    order = [v]
                    _close(st | low, cands | combine(st, v), miss_mask, combine, order)
                    frame[4] = order
                    use &= low - 1
                    break
            frame[3] = use
        # descend to the next unvisited child, backing up from spent frames
        while True:
            use = frame[3]
            if use:
                low = use & -use
                frame[3] = use ^ low
                st = frame[0]
                st2 = st | low
                if st2 in visited:
                    continue
                visited.add(st2)
                if len(visited) > max_states:
                    raise _exceeded(max_states)
                v = low.bit_length() - 1
                cands2 = (frame[1] | combine(st, v)) & allowed & ~st2
                stack.append([st2, cands2, frame[2] & ~low, cands2, None])
                break
            if frame[4] is not None:
                path = [(a[0] ^ b[0]).bit_length() - 1 for a, b in zip(stack[1:], stack)]
                return path + frame[4], nodes, len(visited)
            stack.pop()
            if not stack:
                return None, nodes, len(visited)
            frame = stack[-1]


def optimal_size(
    a: BitMatrix,
    model: str,
    limit: int = DEFAULT_LIMIT,
    max_states: int = _DEFAULT_MAX_STATES,
) -> SearchOutcome:
    """Smallest circuit size for ``a`` in the given model, established by
    exhausting all smaller sizes (up to ``limit`` gates).

    The outcome carries a verified witness, the nodes expanded by the
    deterministic sequential sweeps and the largest visited set of any one
    sweep, root included; ``max_states`` bounds that set exactly.  ``a``
    may have at most 16 columns (a state is a bitmask over the 2^n
    possible signal values); wider input raises ``ValueError`` before any
    work is done.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    n = a.cols
    if n > _MAX_INPUTS:
        raise ValueError(
            f"exact search takes at most {_MAX_INPUTS} columns "
            f"(a state is a 2^n-bit mask); got {n}"
        )
    rows = [a.row(i) for i in range(a.rows)]
    units = tuple(1 << i for i in range(n))
    unit_set = set(units)
    targets = sorted({r for r in rows if r and r not in unit_set})
    if not targets:
        witness = _derive_witness(n, model, units, rows)
        return SearchOutcome(model, 0, False, _checked(witness, a, model), 0, limit)

    ub_cost, ub_circuit = _heuristic_upper_bound(a)
    if model == OR_MODEL:
        # a cancellation-free circuit reads as an OR circuit for the
        # same matrix
        ub_circuit = Circuit(n, OR, ub_circuit.gates, ub_circuit.outputs)

    tmask = 0
    for t in targets:
        tmask |= 1 << t
    state0 = 0
    for u in units:
        state0 |= 1 << u
    if model == XOR_MODEL:
        allowed = (1 << (1 << n)) - 2  # every nonzero value
    else:
        allowed = 0
        for t in targets:
            allowed |= _submasks(t, n)
        allowed &= ~1
    # the units are disjoint, so every model combines two into their union
    cands0 = 0
    for i in range(n):
        for j in range(i + 1, n):
            cands0 |= 1 << (units[i] | units[j])
    cands0 &= allowed
    combine = _combiner(model, n)

    nodes = peak = 0
    for budget in range(len(targets), min(limit, ub_cost - 1) + 1):
        added, swept, held = _sweep(state0, cands0, budget, combine, tmask, allowed, max_states)
        nodes += swept
        peak = max(peak, held)
        if added is not None:
            witness = _checked(_derive_witness(n, model, units + tuple(added), rows), a, model)
            return SearchOutcome(model, len(added), False, witness, nodes, limit, peak)
    if ub_cost <= limit:
        witness = _checked(ub_circuit, a, model)
        return SearchOutcome(model, ub_cost, False, witness, nodes, limit, peak)
    return SearchOutcome(model, None, True, None, nodes, limit, peak)


# ---------------------------------------------------------------------------
# Census


@dataclass(frozen=True)
class CensusReport:
    """Exact optima for every n x n matrix in all three models."""

    n: int
    matrices: int
    histograms: dict  # model -> {size: count}
    max_sizes: dict  # model -> worst optimum
    max_ratio_cf_over_xor: float
    ratio_argmax: Optional[str]  # matrix text achieving the max ratio

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "matrices": self.matrices,
            "histograms": {
                m: {str(k): v for k, v in sorted(h.items())}
                for m, h in self.histograms.items()
            },
            "max_sizes": dict(self.max_sizes),
            "max_ratio_cf_over_xor": self.max_ratio_cf_over_xor,
            "ratio_argmax": self.ratio_argmax,
        }


def census(n: int) -> CensusReport:
    """Exhaustive optima over all 2**(n*n) matrices; n is capped at 3
    (512 matrices) because the count is doubly exponential."""
    if not 1 <= n <= 3:
        raise ValueError("census supports 1 <= n <= 3")
    histograms: dict[str, dict[int, int]] = {m: {} for m in MODELS}
    max_sizes = {m: 0 for m in MODELS}
    best_ratio = 1.0
    best_matrix: Optional[str] = None
    total = 1 << (n * n)
    row_mask = (1 << n) - 1
    for code in range(total):
        data = [(code >> (n * i)) & row_mask for i in range(n)]
        mat = BitMatrix(n, n, data)
        sizes = {}
        for model in MODELS:
            out = optimal_size(mat, model, limit=9)
            if out.optimal_size is None:
                raise RuntimeError(f"census: no {model} circuit within 9 gates")
            sizes[model] = out.optimal_size
            hist = histograms[model]
            hist[out.optimal_size] = hist.get(out.optimal_size, 0) + 1
            if out.optimal_size > max_sizes[model]:
                max_sizes[model] = out.optimal_size
        ratio = sizes[CF_MODEL] / sizes[XOR_MODEL] if sizes[XOR_MODEL] else 1.0
        if ratio > best_ratio:
            best_ratio = ratio
            best_matrix = mat.to_text()
    return CensusReport(n, total, histograms, max_sizes, best_ratio, best_matrix)
