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
  value already present) and each set is expanded at most once per
  iteration, at its first (hence shallowest) depth;
* in the CF and OR models, the derivation cone of a target uses only
  signals under it, and those only combine among themselves, so a
  missing target must equal the union of the present signals under it;
* a cancellation-free heuristic circuit caps the optimum in all three
  models (it reads as an XOR and as an OR circuit for the same matrix),
  so iteration stops at that cost minus one.

States are encoded as bitmasks over the 2^n value universe when n is
small enough for that to pay (the interesting searches all are), and as
frozen value sets beyond.  Expansion order is fixed -- candidate values
ascending, missing targets first under a tight budget -- which makes
``nodes_expanded`` and the returned witness deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .matrices import BitMatrix, BudgetExceededError
from .circuits import XOR, OR, Circuit
from . import synthesis as _synth

XOR_MODEL = "XOR"
CF_MODEL = "CF"
OR_MODEL = "OR"
MODELS = (XOR_MODEL, CF_MODEL, OR_MODEL)

DEFAULT_LIMIT = 14
_MASK_MODE_MAX_INPUTS = 14
_DEFAULT_MAX_STATES = 50_000_000

_BYTE_BITS = [tuple(j for j in range(8) if (b >> j) & 1) for b in range(256)]


def _iter_bits(mask: int):
    base = 0
    while mask:
        byte = mask & 0xFF
        if byte:
            for j in _BYTE_BITS[byte]:
                yield base + j
        mask >>= 8
        base += 8


@dataclass(frozen=True)
class SearchOutcome:
    model: str
    optimal_size: Optional[int]  # None when the limit was exhausted
    exceeded: bool
    witness: Optional[Circuit]
    nodes_expanded: int
    limit: int


def _combine(model: str):
    if model == OR_MODEL:
        return lambda x, y: x | y
    return lambda x, y: x ^ y


def _witness_from_order(n: int, model: str, sigs: list[int], rows: list[int]) -> Circuit:
    """Circuit from an ordered signal sequence: each created signal gets
    the first index pair that combines to it; outputs point at the first
    signal equal to each row."""
    op = _combine(model)
    cf = model == CF_MODEL
    gates = []
    for pos in range(n, len(sigs)):
        v = sigs[pos]
        pair = None
        for i in range(pos):
            vi = sigs[i]
            for j in range(i + 1, pos):
                if cf and vi & sigs[j]:
                    continue
                if op(vi, sigs[j]) == v:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            raise RuntimeError("value is not derivable from its predecessors")
        gates.append(pair)
    index: dict[int, int] = {}
    for k, v in enumerate(sigs):
        index.setdefault(v, k)
    outputs = tuple(None if r == 0 else index[r] for r in rows)
    return Circuit(n, OR if model == OR_MODEL else XOR, tuple(gates), outputs)


def _order_goal_set(n: int, model: str, extras: list[int]) -> list[int]:
    """Topologically order a goal signal set: repeatedly add an extra
    value derivable from the units plus the extras already placed.  A
    set reached by the search always admits such an order."""
    op = _combine(model)
    cf = model == CF_MODEL
    sigs = [1 << i for i in range(n)]
    remaining = sorted(extras)
    dead: set[frozenset] = set()

    def producible(v: int) -> bool:
        k = len(sigs)
        for i in range(k):
            vi = sigs[i]
            for j in range(i + 1, k):
                if cf and vi & sigs[j]:
                    continue
                if op(vi, sigs[j]) == v:
                    return True
        return False

    def rec() -> bool:
        if not remaining:
            return True
        key = frozenset(remaining)
        if key in dead:
            return False
        for v in list(remaining):
            if producible(v):
                remaining.remove(v)
                sigs.append(v)
                if rec():
                    return True
                sigs.pop()
                remaining.append(v)
                remaining.sort()
        dead.add(key)
        return False

    if not rec():
        raise RuntimeError("goal set admits no derivation order")
    return sigs


def _heuristic_upper_bound(a: BitMatrix) -> tuple[int, Circuit]:
    """Cheap cancellation-free upper bound; valid in all three models."""
    best = _synth.naive_rowwise(a)
    paar = _synth.paar_greedy(a)
    if paar.cost < best.cost:
        best = paar
    return best.cost, best.circuit


def optimal_size(
    a: BitMatrix,
    model: str,
    limit: int = DEFAULT_LIMIT,
    max_states: int = _DEFAULT_MAX_STATES,
) -> SearchOutcome:
    """Smallest circuit size for ``a`` in the given model, established by
    exhausting all smaller sizes (up to ``limit`` gates).

    The outcome carries a verified witness and the node count of the
    deterministic sequential sweep.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    n = a.cols
    rows = [a.row(i) for i in range(a.rows)]
    units = [1 << i for i in range(n)]
    unit_set = set(units)
    targets = sorted({r for r in rows if r and r not in unit_set})
    if not targets:
        witness = _witness_from_order(n, model, units, rows)
        return SearchOutcome(model, 0, False, witness, 0, limit)

    ub_cost, ub_circuit = _heuristic_upper_bound(a)
    if model == OR_MODEL:
        # a cancellation-free circuit reads as an OR circuit for the
        # same matrix
        ub_circuit = Circuit(n, OR, ub_circuit.gates, ub_circuit.outputs)

    or_model = model == OR_MODEL
    cf = model == CF_MODEL
    cover_check = or_model or cf
    mask_mode = n <= _MASK_MODE_MAX_INPUTS
    op = _combine(model)

    tmask = 0
    for t in targets:
        tmask |= 1 << t
    state0 = 0
    for u in units:
        state0 |= 1 << u

    def cand_mask_of(sigs: list[int]) -> int:
        m = 0
        k = len(sigs)
        for i in range(k):
            vi = sigs[i]
            for j in range(i + 1, k):
                vj = sigs[j]
                if cf and vi & vj:
                    continue
                m |= 1 << op(vi, vj)
        return m

    def cand_set_of(sigs: list[int]) -> set[int]:
        out = set()
        k = len(sigs)
        for i in range(k):
            vi = sigs[i]
            for j in range(i + 1, k):
                vj = sigs[j]
                if cf and vi & vj:
                    continue
                out.add(op(vi, vj))
        return out

    def covered(sig_list, miss_iter) -> bool:
        for t in miss_iter:
            u = 0
            for s in sig_list:
                if s & ~t == 0:
                    u |= s
            if u != t:
                return False
        return True

    nodes = 0
    target_set = set(targets)

    def sweep(budget: int) -> Optional[list[int]]:
        """Breadth-first exhaust at one budget; returns the goal signal
        values (unordered) or None."""
        nonlocal nodes
        if mask_mode:
            root = (state0, cand_mask_of(units) & ~state0 & ~1)
            visited = {state0}
        else:
            root_key = frozenset(units)
            root = (root_key, cand_set_of(units) - root_key - {0})
            visited = {root_key}
        level = [root]
        for depth_used in range(budget):
            rem = budget - depth_used
            nxt = []
            for st, cands in level:
                nodes += 1
                if mask_mode:
                    sig_list = list(_iter_bits(st))
                    miss_mask = tmask & ~st
                    miss = miss_mask.bit_count()
                    use = cands & miss_mask if miss == rem else cands
                    cand_values = _iter_bits(use)
                else:
                    sig_list = sorted(st)
                    missing = target_set - st
                    miss = len(missing)
                    pool = cands & missing if miss == rem else cands
                    cand_values = sorted(pool)
                for v in cand_values:
                    if mask_mode:
                        st2 = st | (1 << v)
                        if st2 in visited:
                            continue
                        miss2_mask = tmask & ~st2
                        miss2 = miss2_mask.bit_count()
                    else:
                        st2 = st | {v}
                        st2 = frozenset(st2)
                        if st2 in visited:
                            continue
                        miss2 = len(target_set - st2)
                    if miss2 == 0:
                        return sig_list + [v]
                    if miss2 > rem - 1:
                        continue
                    if cover_check and not covered(
                        sig_list + [v],
                        _iter_bits(miss2_mask) if mask_mode else target_set - st2,
                    ):
                        continue
                    visited.add(st2)
                    if len(visited) > max_states:
                        raise BudgetExceededError(
                            f"search exceeded {max_states} states; "
                            "raise max_states or lower the limit"
                        )
                    if mask_mode:
                        extra = 0
                        for s in sig_list:
                            if cf and v & s:
                                continue
                            extra |= 1 << op(v, s)
                        nxt.append((st2, (cands | extra) & ~st2 & ~1))
                    else:
                        extra = {
                            op(v, s)
                            for s in sig_list
                            if not (cf and v & s)
                        }
                        nxt.append((st2, (cands | extra) - st2 - {0}))
            if not nxt:
                return None
            level = nxt
        return None

    lb = len(targets)
    if cover_check and not covered(units, targets):
        # some target is not a union of inputs under it: impossible in
        # this model at any size (never happens for 0/1 rows over the
        # full input set, but keep the search honest)
        return SearchOutcome(model, None, True, None, 0, limit)
    for budget in range(lb, min(limit, ub_cost - 1) + 1):
        goal = sweep(budget)
        if goal is not None:
            extras = [v for v in goal if v not in unit_set]
            sigs = _order_goal_set(n, model, extras)
            witness = _witness_from_order(n, model, sigs, rows)
            return SearchOutcome(model, len(extras), False, witness, nodes, limit)
    if ub_cost <= limit:
        return SearchOutcome(model, ub_cost, False, ub_circuit, nodes, limit)
    return SearchOutcome(model, None, True, None, nodes, limit)


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
