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
  signals: its depth, and so its remaining budget, is fixed by the state;
* every goal path from a state X adds all of X's missing targets.  A
  missing target t that is already a candidate (*ready*) can move to the
  front of any such path: each later value stays derivable from what
  precedes it, because derivability only grows as values are added.  So X
  reaches a goal within its budget iff X | t does, and so iff its *closure*
  S does: X with ready targets added until none is (:func:`_close`).  The
  closure does not depend on the order of adding, and it is monotone, so
  every Y between X and S has the closure S, and the closure of Y | v is
  that of S | v.  The sweep therefore holds only closed states; a child
  of S is the closure of S | v for a *non-target* candidate v, the only
  real choice a closed state has;
* a closed state whose missing targets number its remaining budget
  (*tight*) fails: its next gate must add a missing target, and none is
  ready.  A child has the parent's missing targets less those its closure
  adds and one gate fewer left less the same, so only a *spare-one* state
  (one missing target fewer than gates left) has tight children.  Those
  are resolved where they are made and never stored: S | v succeeds iff
  its closure adds every missing target, and it adds one only if the
  values v makes with S, ``combine(S, v)``, meet the missing set M.  So a
  spare-one state tries only the v in ``reach(S, M)``, the values whose
  ``combine`` meets M: the union of ``makers(S, t)`` over t in M (exact,
  see :func:`_combiner`);
* a spare-one state S that reaches a goal is completed by M and exactly
  one non-target value v, its spare gate.  For t in M let X_t be S | M
  less t, and call t *hard* when no gate over X_t makes it:
  ``makers(X_t, t)`` misses X_t.  In the completed set t is a gate over
  two other values, both in X_t unless one is v, so a hard t has v as an
  operand and v lies in ``makers(X_t, t)``.  So S tries only the v in
  ``reach(S, M)`` that lie in that mask for every hard t: a hard t is more
  than one gate from X_t, in Boyar, Matthews and Peralta's distance.  The
  argument ignores the order of the gates, so the condition is necessary
  only, and it holds in every model because ``makers`` is the model's
  own.  It drops only tight children whose closure fails, so the nodes,
  the goal and the witness are those of the unfiltered sweep;
* a *spare-two* state S (two gates left beyond its missing targets) that
  reaches a goal does so by a path that adds M and exactly two non-target
  values, since no goal lies below depth L (see below).  No target is
  ready in S, so the first value is a non-target candidate v of S; the
  second, w, is a new allowed non-target, a gate over values before it and
  so one gate over S | M | v.  In the completed set a hard t (as above,
  over X_t = S | M less t) is a gate over two values not both in X_t: v
  and a value of X_t, w and one, or v and w.  So v lies in
  ``makers(X_t, t)``, or w lies in ``makers(X_t, t)`` or in
  ``partners(v, t)``, the makers of t over v alone.  S gets no children
  when no v leaves a w that meets this for every hard t
  (:func:`_spare_two`; a state with no hard target is kept).  As above,
  the condition is necessary only and holds in every model.  It drops
  only states that fail, whose subtrees hold no goal, so the goal and
  the witness are those of the unbounded sweep, which expands every state
  this one does;
* the pair test is decided from the hard targets, not from every first
  value.  In every model a gate is symmetric in its operands and makes one
  value: ``partners(v, t)`` is ``{v ^ t}`` in XOR, ``{t ^ v}`` for v under
  t in CF and the values from ``t ^ v`` up to t for v under t in OR
  (none when v is not under t), and w is among them iff v and w make t.
  So w lies in ``partners(v, t)`` iff v lies in ``partners(w, t)``, and
  for at most one hard t.  A pair (v, w) thus has v or w in the need mask
  ``makers(X_t, t)`` of all its h hard targets but one at most, and one
  of the two in those of at least h // 2 of them; when h is odd, of at
  least h // 2 of the h - 1 left after dropping any one.  Those values,
  the *pivots*, are counted one hard target at a time, and every pair has
  one.  A pivot x is tried as v (if it is a candidate) and as w against
  the same *mates*: the values y other than x with x or y in each hard
  t's need mask, or y in ``partners(x, t)``.  The second value must be one
  gate over S | M | v: a candidate of S | M, or made from v and a value of
  S | M, that is ``combine(S | M, v)``, which holds w iff v lies in
  ``makers(S | M, w)``.  So the test answers as trying every first value
  would;
* the masks are carried, not remade.  ``combine`` and ``makers`` are
  unions over the present values, so ``makers(X | Y, t)`` is ``makers(X,
  t) | makers(Y, t)``, and ``partners(v, t)`` is ``makers`` over v alone.
  A child S' of S is S, v and the targets A its closure adds, so
  ``makers(S', t)`` is ``makers(S, t)`` with ``partners(v, t)`` and
  ``partners(a, t)`` for each a in A, and ``reach(S', M')`` is their
  union over the targets M' still missing.  Its need masks are over X'_t
  = S' | M' less t = X_t | v, since A and M' make up M less t: each
  gains ``partners(v, t)`` only.  X'_t holds X_t, so a target hard in S'
  was hard in S, and a child looks for its hard targets among its
  parent's.  So every record descends from the root's.  The root, which
  closes to the same state at every budget, makes its maker masks from
  scratch once per search.  Every other state is handed its hard targets,
  its parent's masks and the values those lack, v and A, and adds them
  only once it has passed the spare-two test, so a state that the test
  closes makes none.  The carried masks equal masks made from scratch per
  state, so the tests' answers, and so the nodes, closed states and
  witness, are those of tests that remake them;
* a child excludes the siblings tried before it.  When S enters its
  child cl(S | v), each sibling w it tried before v has failed.  w is one
  gate over S, so any path from cl(S | v) that adds w can add w first; it
  then reaches a set that the failed subtree of cl(S | w) also reaches.
  So no goal path from the child or its descendants adds w: a frame's
  *excluded* values, its parent's and those siblings, are not tried as
  children, and the spare tests above read ``free & ~excluded`` as the
  spare values.  A closed state is fixed by its non-target values, and
  two paths to one would part where one takes v and the other a later
  sibling, which excludes v; so every closed state is reached at most
  once, and the sweep keeps no visited set.  Only failing states are
  dropped, so the first goal in the fixed order, and with it the witness,
  is unchanged (the excluded set of Bron and Kerbosch, CACM 16, 1973; a
  partial-order reduction in Godefroid's sense, LNCS 1032, 1996);
* no goal lies below depth L in iteration L: its path would have been a
  path of iteration d < L, at its own depth d, and every smaller
  iteration found none.  The first iteration is the number of targets or,
  if more, the largest target weight less one: in all three models a
  target of weight w depends on w inputs, which the cone of its gate joins
  with fan-in-2 gates, at least w - 1 of them.  So every goal is reached
  through a tight state;
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
  so iteration stops at that cost minus one; when no budget has a goal,
  that circuit is the witness.

A goal's witness is the path to it: the values added, in order.  It is
the lexicographically least goal path, the one the breadth-first sweep
that this search replaced returned too.  That sweep's level d is ordered
by each state's least path: by induction over first parents, a state is
first made by the earliest state of the level before that makes it, with
the least value, and a least path extends the least path of its first
parent.  So its first goal was the goal of the least goal path, and the
first-parent chain it read the witness from was that path.

This sweep finds that path by a *walk* from the state Y a frame is
entered at (the root, or the parent's walk state plus the child's value),
whose closure is the frame's closed state S.  At the current walk state,
let t0 be the least ready target.  Adding t0 keeps a goal reachable, and
no target below t0 is a candidate, so the least path starts with the
least non-target candidate v < t0 whose closure of Y | v succeeds, then
goes on with the least path from Y | v; if there is none, it starts with
t0 and the walk goes on from Y | t0.  When no target is ready the walk
state is S, and every non-target candidate of S is in play.  A v tried at
an earlier walk state has the same closure, and so the same outcome, at
every later one, so each v is tried once per S: a frame tries its
non-target candidates in segments, one per walk step, each ascending.

A state is one int, a bitmask over the 2^n value universe (bit v set when
value v is present).  The frames of the search stack, one per closed
state on the current path, carry the state's walk (each walk state with
its candidates and the target added there) and a generator of its
children, which holds its candidate mask (the values derivable from it),
its missing targets and its excluded values.  A child's new
candidates come from its walk state's mask alone, the root's from the
units: the values ``s ^ v``, ``s | v`` over disjoint ``s``, or ``s | v``,
for every present ``s``, are a few shifts and masks of that mask (see
:func:`_combiner`).  A mask has 2^n bits, so inputs are capped at 16
columns; every search that finishes is far below that.  Expansion order
is fixed, which makes ``nodes_expanded`` and the returned witness
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .matrices import BitMatrix, _Report, _set_bits
from .circuits import XOR, OR, Circuit, check
from . import synthesis as _synth

XOR_MODEL = "XOR"
CF_MODEL = "CF"
OR_MODEL = "OR"
MODELS = (XOR_MODEL, CF_MODEL, OR_MODEL)
_CONNECTIVE = {XOR_MODEL: XOR, CF_MODEL: XOR, OR_MODEL: OR}

DEFAULT_LIMIT = 14
_MAX_INPUTS = 16


@dataclass(frozen=True)
class SearchOutcome:
    model: str
    optimal_size: Optional[int]  # None when the limit was exhausted
    exceeded: bool
    witness: Optional[Circuit]
    nodes_expanded: int  # closed states whose non-target candidates were enumerated
    limit: int
    # tight children resolved by closure, summed over budgets
    tight_children: int = 0
    # spare-two states the two-spare bound gave no children, summed over
    # budgets
    spare_two_dead: int = 0


def _derive_witness(
    n: int, model: str, sigs: tuple[int, ...], rows: list[int], partners: Callable
) -> Circuit:
    """Witness circuit for a goal's signal tuple: the n units, then the
    added values in sweep order.

    Each added value ``v``'s gate is the lexicographically first pair
    ``(i, j)``, ``i < j``, of earlier signals where ``sigs[j]`` lies in
    ``partners(sigs[i], v)``: the model's gate rule, from the search's
    :func:`_combiner`, whose submask cache it shares.  The pair exists:
    every added value was a candidate, and the candidates are exactly such
    combinations.  Outputs point at the signal equal to each row.
    """
    index = {v: k for k, v in enumerate(sigs)}  # the values are distinct
    present = sum(1 << s for s in sigs[:n])
    gates = []
    for k in range(n, len(sigs)):
        for i in range(k - 1):
            # partners are symmetric and no value is its own, so the first
            # signal with a partner present has its partners after it
            mates = partners(sigs[i], sigs[k]) & present
            if mates:
                gates.append((i, min(map(index.__getitem__, _set_bits(mates)))))
                break
        else:
            raise RuntimeError("goal signal admits no gate")
        present |= 1 << sigs[k]
    outputs = tuple(None if r == 0 else index[r] for r in rows)
    return Circuit(n, _CONNECTIVE[model], tuple(gates), outputs)


def _heuristic_upper_bound(a: BitMatrix) -> _synth.SynthesisResult:
    """The cheaper of the verified naive and paar results, naive on a tie:
    a cheap cancellation-free upper bound, valid in all three models."""
    return min(_synth.naive_rowwise(a), _synth.paar_greedy(a), key=lambda r: r.cost)


def _submasks(t: int, n: int) -> int:
    """Bitmask over the 2^n value universe of every submask of ``t``
    (zero included), doubled once per set bit of ``t``."""
    m = 1
    for i in range(n):
        if (t >> i) & 1:
            m |= m << (1 << i)
    return m


def _combiner(
    model: str, n: int
) -> tuple[
    Callable[[int, int], int],
    Callable[[int, int], int],
    Callable[[int, int], int],
    Callable[[int], int],
]:
    """``(combine, makers, partners, under)`` for the model over n-bit values.

    ``combine(state, v)`` is the mask of every value the model makes from
    ``v`` and a value present in ``state`` -- ``s ^ v`` (XOR), ``s | v``
    over ``s`` disjoint from ``v`` (CF), or ``s | v`` (OR).
    ``makers(state, t)`` is the mask of every value ``v`` whose
    ``combine(state, v)`` holds the value ``t``: the values that make ``t``
    in one gate with a value present in ``state``.
    ``partners(v, t)`` is ``makers`` over the single value ``v``: the mask
    of every value ``w`` that makes ``t`` in one gate with ``v``.

    ``clr[b]`` is the mask of the values whose bit ``b`` (a power of two)
    is clear, built with O(n) big-int operations.  Flipping bit b of every
    value swaps each block of b values with the block above it, so XOR is
    one block swap per set bit of v; OR moves the clear-bit blocks onto the
    set-bit ones.  The values disjoint from v are the AND of clr over v's
    bits, each shifted up by v; that mask is cached per value of v.

    The makers of ``t``: in XOR, ``s ^ v = t`` iff ``v = s ^ t``, so they
    are ``combine(state, t)``.  In CF, ``s | v = t`` with ``s & v = 0`` iff
    ``s`` is a submask of ``t`` and ``v = t ^ s``: the present submasks of
    ``t``, flipped by ``t``.  In OR, ``s | v = t`` iff ``s`` and ``v`` are
    submasks of ``t`` and ``v`` holds ``t ^ s``: that CF set closed upward
    within ``t``, one block move per set bit of ``t``.  ``under(t)``, the
    submask mask of ``t``, is cached per value.

    The partners of ``v`` for ``t``: ``v ^ t`` in XOR; in CF, ``t ^ v`` if
    ``v`` is a submask of ``t``, else none; in OR, likewise, every value
    between ``t ^ v`` and ``t``: the submasks of ``v``, shifted up by
    ``t ^ v``.
    """
    full = (1 << (1 << n)) - 1
    clr = {1 << i: full // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1) for i in range(n)}

    def flip(st: int, v: int) -> int:
        while v:
            b = v & -v
            v ^= b
            c = clr[b]
            st = ((st & c) << b) | ((st >> b) & c)
        return st

    subs: dict[int, int] = {}

    def under(t: int) -> int:
        sub = subs.get(t)
        if sub is None:
            sub = subs[t] = _submasks(t, n)
        return sub

    def flip_under(st: int, t: int) -> int:
        """The present submasks of ``t``, flipped by ``t``."""
        return flip(st & under(t), t)

    if model == XOR_MODEL:
        combine = makers = flip

        def partners(v: int, t: int) -> int:
            return 1 << (v ^ t)

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

        makers = flip_under

        def partners(v: int, t: int) -> int:
            return 0 if v & ~t else 1 << (t ^ v)

    else:
        def combine(st: int, v: int) -> int:
            while v:
                b = v & -v
                v ^= b
                low = st & clr[b]
                st = (st ^ low) | (low << b)
            return st

        def makers(st: int, t: int) -> int:
            x = flip_under(st, t)
            while t:
                b = t & -t
                t ^= b
                x |= (x & clr[b]) << b
            return x

        def partners(v: int, t: int) -> int:
            return 0 if v & ~t else under(v) << (t ^ v)

    return combine, makers, partners, under


def _close(
    st: int,
    cands: int,
    miss_mask: int,
    combine: Callable[[int, int], int],
    walk: Optional[list[tuple[int, int, int]]] = None,
) -> tuple[int, int, int]:
    """Add missing targets that are candidates, the least one first, until
    none is.  Returns the stuck state, its candidates (not masked to
    ``allowed`` or the absent values; only their AND with the missing
    targets, or with absent allowed values, is read) and the targets still
    missing.  When ``walk`` is given, it receives ``(state, candidates,
    bit of the target added)`` for each step.

    Derivability only grows as values are added, so adding one ready
    target never blocks another: the stuck state does not depend on the
    order.
    """
    ready = cands & miss_mask
    while ready:
        low = ready & -ready
        if walk is not None:
            walk.append((st, cands, low))
        cands |= combine(st, low.bit_length() - 1)
        st |= low
        miss_mask ^= low
        ready = cands & miss_mask
    return st, cands, miss_mask


def _path(stack: list[list], tail: list[tuple[int, int, int]]) -> list[int]:
    """The values a goal path adds: each frame's walk up to the step where
    its current child was tried, that child, then the ``tail`` walk."""
    out: list[int] = []
    for walk, _, step, child in stack:
        out += [w[2].bit_length() - 1 for w in walk[:step]]
        out.append(child)
    return out + [w[2].bit_length() - 1 for w in tail]


def _maker_masks(
    st: int,
    miss: int,
    makers: Callable[[int, int], int],
    partners: Callable[[int, int], int],
) -> tuple[dict, dict]:
    """``(hard, masks)`` of the closed state ``st`` with missing targets
    ``miss``, made from scratch: ``masks[t]`` is ``makers(st, t)`` for each
    missing t, and ``hard[t]`` the makers of t over X_t (``st | miss`` less
    t: ``masks[t]`` and the partners of the other missing targets) for each
    *hard* missing t, one whose makers over X_t miss X_t."""
    done = st | miss
    masks = {}
    while miss:
        low = miss & -miss
        miss ^= low
        t = low.bit_length() - 1
        masks[t] = makers(st, t)
    hard = {}
    for t, need in masks.items():
        for u in masks:
            if u != t:
                need |= partners(u, t)
        if not need & (done ^ (1 << t)):
            hard[t] = need
    return hard, masks


def _child_masks(masks: dict, add: int, miss: int, partners: Callable[[int, int], int]) -> dict:
    """The maker masks of the closure of S | v, which adds v and the targets
    its closure adds, the values ``add``, and leaves ``miss`` missing, from
    S's ``masks``: makers distribute over the values present (see the
    module docstring)."""
    out = {}
    for t, made in masks.items():
        if (miss >> t) & 1:
            rest = add
            while rest:
                low = rest & -rest
                rest ^= low
                made |= partners(low.bit_length() - 1, t)
            out[t] = made
    return out


def _child_hard(
    hard: dict, v: int, miss: int, done: int, partners: Callable[[int, int], int]
) -> dict:
    """The hard targets of the closure of S | v, which leaves ``miss``
    missing and has the values and missing targets ``done``, from S's
    ``hard``: each is hard in S, and its need mask gains the partners of v
    (see the module docstring)."""
    if not hard:
        return hard
    out = {}
    for t, need in hard.items():
        if (miss >> t) & 1:
            need |= partners(v, t)
            if not need & (done ^ (1 << t)):
                out[t] = need
    return out


def _spare_one(free: int, st: int, masks: dict, hard: dict) -> int:
    """The values of ``free`` that a spare-one closed state ``st`` with the
    maker masks ``masks`` and hard targets ``hard`` still tries: each is
    absent, an operand of every hard missing target and makes some missing
    target ready, that is, lies in ``reach(st, miss)``, the union of
    ``masks`` (see the module docstring)."""
    untried = free & ~st
    for need in hard.values():
        untried &= need
    if untried:
        reach = 0
        for made in masks.values():
            reach |= made
        untried &= reach
    return untried


def _spare_two(
    st: int,
    cands: int,
    miss: int,
    free: int,
    hard: dict,
    combine: Callable[[int, int], int],
    makers: Callable[[int, int], int],
    partners: Callable[[int, int], int],
) -> bool:
    """Whether some pair of spare values may complete a spare-two closed
    state ``st`` with candidates ``cands`` and missing targets ``miss``: a
    first value v of ``free`` among its candidates and a second w of
    ``free``, one gate over ``st | miss | v``, such that every hard missing
    target has v or w as an operand or is made by v and w (see the module
    docstring).  False means the state fails.

    v and w together are operands of all the h hard targets but at most
    one, so one of them is an operand of at least h // 2: the *pivots*,
    counted one hard target at a time.  Each pivot x is tried as v and as
    w against its *mates*, the values that complete the pair with it."""
    if not hard:
        return True
    done = st | miss
    free &= ~done
    firsts = free & cands
    # at_least[j]: the values of free that are operands of j of the hard
    # targets, less the one with the most free makers when their number is
    # odd
    pools = [need & free for need in hard.values()]
    k = len(pools) // 2
    if len(pools) & 1 and k:
        pools.remove(max(pools, key=int.bit_count))
    at_least = [free] + [0] * k
    for pool in pools:
        for j in range(k, 0, -1):
            at_least[j] |= at_least[j - 1] & pool
    pivots = at_least[k]
    over = None  # the candidates of st | miss
    while pivots:
        low = pivots & -pivots
        pivots ^= low
        x = low.bit_length() - 1
        mates = free ^ low
        for t, need in hard.items():
            if not need & low:
                mates &= need | partners(x, t)
                if not mates:
                    break
        if not mates:
            continue
        if over is None:
            over = cands
            rest = miss
            while rest:
                bit = rest & -rest
                rest ^= bit
                over |= combine(done, bit.bit_length() - 1)
        # x first: some mate is one gate over done | x
        if low & firsts and mates & (over | combine(done, x)):
            return True
        # x second: x is one gate over done | v for some first mate v
        if mates & firsts and (low & over or mates & firsts & makers(done, x)):
            return True
    return False


def _sweep(
    state0: int,
    cands0: int,
    budgets: range,
    combine: Callable[[int, int], int],
    makers: Callable[[int, int], int],
    partners: Callable[[int, int], int],
    tmask: int,
    allowed: int,
) -> tuple[Optional[list[int]], int, int, int]:
    """Depth-first exhaust, budget by budget until one has a goal, of the
    closed states reachable from ``state0`` with candidates ``cands0``.

    Returns the values the least goal path adds, in order, or None; the
    nodes expanded (closed states whose non-target candidates were
    enumerated), the tight children resolved by closure and the spare-two
    states that :func:`_spare_two` gave no children, over all budgets.

    A frame is ``[walk, children, step, child]``: the closure walk from the
    state the frame was entered at, a generator of the children it goes
    into, and the walk step and value of the child being explored.  The
    generator yields ``(step, v, walk, children)`` per child in walk order
    (for each walk step, the untried non-target candidates below the target
    added there, then the rest of the closed state's, each segment
    ascending), with the child's walk and generator, or 0 for a goal.  It
    resolves tight children by closure and gives a failing spare-two state
    none, so the loop only pushes, pops and stops at a goal.  The stack
    holds one frame per depth and replaces recursion, which a large
    ``limit`` could take past the interpreter's depth limit.

    A child's generator is handed one gate fewer to spare than its parent's,
    its excluded values and its record.  ``excluded`` is the parent's
    excluded values and every value the parent has tried so far, v included
    (present in the child, so no restriction): no goal path from the child
    adds one (see the module docstring).  ``record`` is ``(hard, masks,
    add)``: the child's hard targets with their need masks, its parent's
    maker masks, and the values whose partners those lack, v and the targets
    its closure adds.  The root's, with nothing to add, is made from scratch
    once, at the first budget that leaves the root a gate to spare.  A state
    applies ``add`` once, after the spare-two test.
    """
    free = allowed & ~tmask
    walk: list[tuple[int, int, int]] = []
    st, cands, miss = _close(state0, cands0, tmask & ~state0, combine, walk)
    if not miss:  # the root closes to a goal, reached if any budget is swept
        return (_path([], walk) if budgets else None), 0, 0, 0
    nodes = tight = dead = 0
    root = None  # the root's record

    def children(walk: list, st: int, cands: int, miss: int, gap: int, excl: int, record: tuple):
        nonlocal tight, dead
        live = free & ~excl  # the values a goal path from here may add
        hard, masks, add = record
        if gap == 2 and not _spare_two(st, cands, miss, live, hard, combine, makers, partners):
            dead += 1
            return
        if add:
            masks = _child_masks(masks, add, miss, partners)
        spare = gap == 1
        if spare:
            untried = _spare_one(live, st, masks, hard)
        else:
            untried = live & ~st
        # the closed state ends the walk, with no target above its values
        for step, (y, c, t) in enumerate(walk + [(st, cands, 0)]):
            seg = untried & c & (t - 1)
            untried ^= seg
            while seg:
                low = seg & -seg
                seg ^= low
                excl |= low
                v = low.bit_length() - 1
                if spare:
                    # the child is tight: it succeeds iff its closure is a goal
                    tight += 1
                    if _close(st | low, cands | combine(st, v), miss, combine)[2]:
                        continue
                walk2: list[tuple[int, int, int]] = []
                st2, c2, m2 = _close(y | low, c | combine(y, v), tmask & ~y, combine, walk2)
                hard2 = _child_hard(hard, v, m2, st | miss | low, partners)
                record2 = (hard2, masks, low | miss ^ m2)
                yield step, v, walk2, m2 and children(walk2, st2, c2, m2, gap - 1, excl, record2)

    for budget in budgets:
        gap = budget - (tmask & ~state0).bit_count()  # the root's gates to spare
        if gap < 1:  # a tight root fails
            continue
        if root is None:
            root = (*_maker_masks(st, miss, makers, partners), 0)
        stack = [[walk, children(walk, st, cands, miss, gap, 0, root), 0, None]]
        nodes += 1
        while stack:
            frame = stack[-1]
            child = next(frame[1], None)
            if child is None:
                stack.pop()
                continue
            frame[2], frame[3], walk2, grand = child
            if not grand:
                return _path(stack, walk2), nodes, tight, dead
            stack.append([walk2, grand, 0, None])
            nodes += 1
    return None, nodes, tight, dead


def optimal_size(a: BitMatrix, model: str, limit: int = DEFAULT_LIMIT) -> SearchOutcome:
    """Smallest circuit size for ``a`` in the given model, established by
    exhausting all smaller sizes (up to ``limit`` gates).

    The outcome carries a verified witness and the nodes expanded by the
    deterministic sequential sweeps.  The witness is the least goal path
    (see the module docstring) when a budget below the heuristic bound has
    a goal; else it is the heuristic's circuit (naive's on a tie, else
    paar's), read as an OR circuit in the OR model.  A sweep holds one
    frame per depth, so ``limit`` bounds its time, not its memory.  ``a``
    may have at most 16 columns (a state is a bitmask over the 2^n
    possible signal values); wider input or a negative ``limit`` raises
    ``ValueError`` before any work is done.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    n = a.cols
    if n > _MAX_INPUTS:
        raise ValueError(
            f"exact search takes at most {_MAX_INPUTS} columns "
            f"(a state is a 2^n-bit mask); got {n}"
        )
    if limit < 0:
        raise ValueError(f"limit must be at least 0; got {limit}")
    rows = [a.row(i) for i in range(a.rows)]
    units = tuple(1 << i for i in range(n))
    unit_set = set(units)
    targets = sorted({r for r in rows if r and r not in unit_set})
    ub = _heuristic_upper_bound(a)

    tmask = sum(1 << t for t in targets)
    state0 = sum(1 << u for u in units)
    combine, makers, partners, under = _combiner(model, n)
    if model == XOR_MODEL:
        allowed = (1 << (1 << n)) - 2  # every nonzero value
    else:
        allowed = 0
        for t in targets:
            allowed |= under(t)
        allowed &= ~1
    cands0 = 0
    for u in units:
        cands0 |= combine(state0, u)
    cands0 &= allowed

    # no goal lies below max(#targets, weight - 1) (see the module docstring)
    first = max([len(targets)] + [t.bit_count() - 1 for t in targets])
    budgets = range(first, min(limit, ub.cost - 1) + 1)
    added, nodes, tight, dead = _sweep(
        state0, cands0, budgets, combine, makers, partners, tmask, allowed
    )
    if added is not None:
        witness = _derive_witness(n, model, units + tuple(added), rows, partners)
        ok, cancellation_free = check(witness, a)
    elif ub.cost > limit:
        return SearchOutcome(model, None, True, None, nodes, limit, tight, dead)
    elif model == OR_MODEL:
        # a cancellation-free circuit reads as an OR circuit for the same matrix
        witness = Circuit(n, OR, ub.circuit.gates, ub.circuit.outputs)
        ok, cancellation_free = check(witness, a)
    else:
        # synthesis checked the heuristic's circuit against a already
        witness, ok, cancellation_free = ub.circuit, True, ub.cancellation_free
    if not ok or (model == CF_MODEL and not cancellation_free):
        raise RuntimeError(f"exact search bug: {model} witness does not verify")
    return SearchOutcome(model, len(witness.gates), False, witness, nodes, limit, tight, dead)


# ---------------------------------------------------------------------------
# Census


@dataclass(frozen=True)
class CensusReport(_Report):
    """Exact optima for every n x n matrix in all three models."""

    n: int
    matrices: int
    histograms: dict  # model -> {size: count}, sizes ascending
    max_sizes: dict  # model -> worst optimum
    max_ratio_cf_over_xor: float
    ratio_argmax: Optional[str]  # matrix text achieving the max ratio


def census(n: int) -> CensusReport:
    """Exhaustive optima over all 2**(n*n) matrices; n is capped at 3
    (512 matrices) because the count is doubly exponential.  No search
    passes the n(n - 1) = 6 gates of a row-by-row circuit."""
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
            out = optimal_size(mat, model)
            if out.optimal_size is None:
                raise RuntimeError(f"census: no {model} circuit within {out.limit} gates")
            sizes[model] = out.optimal_size
            hist = histograms[model]
            hist[out.optimal_size] = hist.get(out.optimal_size, 0) + 1
            if out.optimal_size > max_sizes[model]:
                max_sizes[model] = out.optimal_size
        ratio = sizes[CF_MODEL] / sizes[XOR_MODEL] if sizes[XOR_MODEL] else 1.0
        if ratio > best_ratio:
            best_ratio = ratio
            best_matrix = mat.to_text()
    histograms = {m: dict(sorted(h.items())) for m, h in histograms.items()}
    return CensusReport(n, total, histograms, max_sizes, best_ratio, best_matrix)
