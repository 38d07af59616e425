"""Optimal circuit-size search for small matrices, plus the tiny-n census.

The search deepens iteratively over the allowed gate count.  Inside one
iteration with budget L, it sweeps reachable signal sets breadth-first:
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
  signals and can only recur within its own level; each level is one
  dict, its own visited set, and each state is expanded at most once;
* in the CF and OR models, candidates are only nonzero submasks of some
  target (under-target pruning).  There a signal is a subset of every
  signal derived from it.  A goal set at the optimal budget that held a
  value under no target could therefore drop that value, and everything
  derived from it, and still reach every target: a smaller solution, but
  every smaller budget was already exhausted.  Every state on the path to
  such a goal set is a subset of it, so every one of them survives the
  filter, in the same breadth-first order; the first goal found, and so
  the witness, is the one the unfiltered sweep finds;
* a cancellation-free heuristic circuit caps the optimum in all three
  models (it reads as an XOR and as an OR circuit for the same matrix),
  so iteration stops at that cost minus one.

A state is one int, a bitmask over the 2^n value universe (bit v set when
value v is present), and a level is a dict from each state to its
candidate mask, the values derivable from it and not yet present.  A
child's new candidates come from the parent's state mask alone: the
values ``s ^ v``, ``s | v`` over disjoint ``s``, or ``s | v``, for every
present ``s``, are a few shifts and masks of that mask (see
:func:`_combiner`).  The signals of a state are never stored; the
witness's gate order is recovered by a second sweep restricted to the
goal (see :func:`optimal_size`).  A mask has 2^n bits, so inputs are
capped at 16 columns; every search that finishes is far below that.
Expansion order is fixed -- candidate values ascending, missing targets
first under a tight budget -- which makes ``nodes_expanded`` and the
returned witness deterministic.
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
# A held state (a dict slot, its state mask and its candidate mask) costs
# about 165-190 bytes of peak RSS at n = 8: S_8 with limit 12 held at
# most 2.46 M states at 425 MiB max RSS in CF and 3.01 M at 585 MiB in
# XOR, from a 34 MiB start.  So this default stops a search near 1 GB.
_DEFAULT_MAX_STATES = 5_000_000


@dataclass(frozen=True)
class SearchOutcome:
    model: str
    optimal_size: Optional[int]  # None when the limit was exhausted
    exceeded: bool
    witness: Optional[Circuit]
    nodes_expanded: int
    limit: int
    peak_states: int = 0  # most states held at once in any one sweep


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


def _sweep(
    state0: int,
    cands0: int,
    budget: int,
    combine: Callable[[int, int], int],
    tmask: int,
    allowed: int,
    max_states: int,
    parents: Optional[dict[int, int]] = None,
) -> tuple[Optional[int], int, int]:
    """Breadth-first exhaust at one budget from the state ``state0`` with
    candidates ``cands0``.

    A level maps each state to its candidate mask, filled in expansion
    order.  Candidates are masked to ``allowed`` and never hold a present
    value.  Returns the goal's state mask or None, the nodes expanded and
    the most states held at once (the level being expanded plus the one
    being built).  When ``parents`` is given, it receives the state that
    first made each state, the goal included.

    No state is ever kept whose missing-target count exceeds its remaining
    budget: the budget loop starts at the number of targets, so the root
    has miss <= rem; a state with miss < rem gives children with
    miss2 <= miss <= rem - 1, and one with miss = rem tries only missing
    targets, so its children have miss2 = rem - 1.
    """
    level = {state0: cands0}
    nodes = peak = 0
    for depth_used in range(budget):
        rem = budget - depth_used
        room = max_states - len(level)  # what the next level may hold
        nxt: dict[int, int] = {}
        for st, cands in level.items():
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
                if parents is not None:
                    parents[st2] = st
                v = low.bit_length() - 1
                if miss - ((tmask >> v) & 1) == 0:
                    return st2, nodes, max(peak, len(level) + len(nxt))
                nxt[st2] = (cands | combine(st, v)) & allowed & ~st2
                if len(nxt) > room:
                    raise BudgetExceededError(
                        f"search exceeded {max_states} states; "
                        "raise max_states or lower the limit"
                    )
        peak = max(peak, len(level) + len(nxt))
        if not nxt:
            break
        level = nxt
    return None, nodes, peak


def optimal_size(
    a: BitMatrix,
    model: str,
    limit: int = DEFAULT_LIMIT,
    max_states: int = _DEFAULT_MAX_STATES,
) -> SearchOutcome:
    """Smallest circuit size for ``a`` in the given model, established by
    exhausting all smaller sizes (up to ``limit`` gates).

    The outcome carries a verified witness, the node count of the
    deterministic sequential sweep and the most states any one sweep
    held at once.  ``a`` may have at most 16 columns (a state is a
    bitmask over the 2^n possible signal values); wider input raises
    ``ValueError`` before any work is done.

    The sweeps keep no signal order, so the witness's gate order comes
    from a second sweep at the goal's budget, with ``allowed`` and the
    root candidates masked to the goal set G, that records each state's
    first parent.  Every state on the path to G is a subset of G, and so is
    its first parent.  By induction over the levels, the second sweep's
    level d holds exactly the first sweep's states at depth d that are
    subsets of G, in the same relative order: a state's candidates there
    are its first-sweep candidates masked to G (the mask distributes over
    the OR that builds them), so each parent makes the same children
    within G, in the same ascending order, and a parent that made one
    first in the first sweep makes it first here too.  The only goal among
    subsets of G at G's depth is G, and none exists at a smaller depth, so
    the second sweep returns G with the first sweep's parent chain and the
    same witness.  It holds at most 2^d states for d gates and is not
    counted in ``nodes_expanded`` or ``peak_states``.
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
        goal, swept, held = _sweep(state0, cands0, budget, combine, tmask, allowed, max_states)
        nodes += swept
        peak = max(peak, held)
        if goal is not None:
            parents: dict[int, int] = {}
            again, _, _ = _sweep(
                state0, cands0 & goal, budget, combine, tmask, allowed & goal, max_states, parents
            )
            if again != goal:
                raise RuntimeError("exact search bug: the goal's re-sweep found another goal")
            added = []
            while goal != state0:
                parent = parents[goal]
                added.append((goal ^ parent).bit_length() - 1)
                goal = parent
            sigs = units + tuple(reversed(added))
            witness = _checked(_derive_witness(n, model, sigs, rows), a, model)
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
