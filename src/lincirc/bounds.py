"""Lower-bound certificates and the aggregated per-matrix report.

Certificates come in two strengths and the report never conflates them:

* exact counts that hold unconditionally -- the determinant bound as a
  literal ``log2|det|``, the distinct-heavy-rows count, the GF(2) rank,
  and the Sierpinski closed form when the matrix is a Sierpinski matrix;
* asymptotic quantities with unspecified constants -- the k-freeness
  density ``|A| / k^2`` is reported raw, tagged with the status of the
  freeness claim (exact, witnessed false, or budgeted evidence) that
  :func:`kfree_quantity`, the library's one k-freeness verdict, makes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

from .matrices import (
    BitMatrix,
    DimensionError,
    EVIDENCE_BUDGET,
    Submatrix,
    _Report,
    _exact_allones,
    _require_freeness_k,
    _require_power_of_two,
    det_int,
    find_allones_submatrix,
    gen_sierpinski,
    kfree_enumeration_feasible,
    kst_bound,
    popcount,
    rank_gf2,
)

KFREE_EXACT_FREE = "exact-free"
KFREE_EXACT_NOT_FREE = "exact-not-free"
KFREE_EVIDENCE_FREE = "evidence-free"


def _log2_abs(value: int) -> float:
    v = abs(value)
    shift = max(0, v.bit_length() - 53)
    return math.log2(v >> shift) + shift


def morgenstern(a: BitMatrix) -> Optional[float]:
    """Determinant lower bound for cancellation-free size: log2|det|.

    Returns 0.0 for unimodular matrices and ``None`` when the matrix is
    singular (the bound degenerates; reports print it as bound 0).
    """
    if a.rows != a.cols:
        raise DimensionError("determinant bound needs a square matrix")
    d = det_int(a)
    if d == 0:
        return None
    return _log2_abs(d)


def sierpinski_lb(n: int) -> int:
    """Closed-form optimum for the Sierpinski matrix: (n/2) * log2(n).

    This is a true lower bound for cancellation-free and OR circuits,
    and it is attained, so it doubles as the oracle for the constructed
    circuit's gate count.
    """
    _require_power_of_two(n)
    return n * (n.bit_length() - 1) // 2


def default_freeness_k(n: int) -> int:
    """The paper's freeness parameter for n x n matrices, 2 log2 n
    rounded up (at least 1): the least k with 2^k >= n^2."""
    return max(1, (n * n - 1).bit_length())


def trivial_bounds(a: BitMatrix) -> tuple[int, int]:
    """(GF(2) rank, number of distinct rows of weight >= 2).

    Every distinct row of weight at least two needs a gate of its own,
    so the second count lower-bounds XOR circuit size.
    """
    heavy = {a.row(i) for i in range(a.rows) if a.row(i).bit_count() >= 2}
    return rank_gf2(a), len(heavy)


@dataclass(frozen=True)
class KFreeStatus(_Report):
    """Outcome of a k-freeness claim at one k."""

    k: int
    kind: str  # exact-free | exact-not-free | evidence-free
    quantity: Optional[float]  # |A| / k^2 when freeness holds or is evidenced
    witness: Optional[Submatrix] = None
    budget: Optional[int] = None
    seed: Optional[int] = None


def kfree_quantity(
    a: BitMatrix, k: int, evidence_budget: int = EVIDENCE_BUDGET, seed: int = 0
) -> KFreeStatus:
    """The library's one k-freeness verdict, with the raw density |A| / k^2
    (its constant is unknown, so it is never a gate count).  Where
    :func:`~lincirc.matrices.kfree_enumeration_feasible` holds an exhaustive
    search decides, its witness the first all-ones block; elsewhere a block
    that :func:`~lincirc.matrices.find_allones_submatrix` finds is a proof,
    and none is budgeted evidence.  A negative ``evidence_budget`` is
    refused even where enumeration decides."""
    _require_freeness_k(k)
    if evidence_budget < 0:
        raise ValueError(f"budget must be >= 0, got {evidence_budget}")
    quantity = popcount(a) / (k * k)
    if kfree_enumeration_feasible(a, k):
        witness = _exact_allones(a, k + 1)
        if witness is None:
            return KFreeStatus(k, KFREE_EXACT_FREE, quantity)
    else:
        witness = find_allones_submatrix(a, k, budget=evidence_budget, seed=seed)
        if witness is None:
            return KFreeStatus(
                k, KFREE_EVIDENCE_FREE, quantity, budget=evidence_budget, seed=seed
            )
    return KFreeStatus(k, KFREE_EXACT_NOT_FREE, None, witness=witness)


def kst_cap(a: BitMatrix, free_a: int) -> tuple[bool, float]:
    """Density cap for an (a-1)-free n x n matrix and whether this
    matrix's popcount respects it.

    A verified (a-1)-free matrix violating the cap indicates an
    implementation bug; the check is a consistency assertion, not a
    bound on circuits.
    """
    if a.rows != a.cols:
        raise DimensionError("the density cap is stated for square matrices")
    cap = kst_bound(a.rows, free_a)
    return popcount(a) <= cap, cap


@dataclass(frozen=True)
class BoundReport(_Report):
    """All applicable lower-bound certificates for one matrix."""

    rows: int
    cols: int
    matrix_sha256: str
    rank_gf2: int
    distinct_heavy_rows: int
    morgenstern_log2_absdet: Optional[float]  # None when singular or non-square
    singular: Optional[bool]  # None for non-square matrices
    kfree: tuple[KFreeStatus, ...] = ()
    kst: Optional[dict] = None
    sierpinski_closed_form: Optional[int] = None
    notes: tuple[str, ...] = ()


def bound_report(
    a: BitMatrix,
    kfree_ks: tuple[int, ...] = (),
    kst_a: Optional[int] = None,
    evidence_budget: int = EVIDENCE_BUDGET,
    seed: int = 0,
) -> BoundReport:
    """Aggregate every applicable certificate with provenance notes."""
    notes = []
    digest = hashlib.sha256(a.to_text().encode()).hexdigest()
    rank, heavy = trivial_bounds(a)
    morg: Optional[float] = None
    singular: Optional[bool] = None
    if a.rows == a.cols:
        morg = morgenstern(a)
        singular = morg is None
        if singular:
            notes.append("singular matrix: determinant bound degenerates to 0")
    else:
        notes.append("non-square matrix: determinant bound not applicable")
    statuses = tuple(
        kfree_quantity(a, k, evidence_budget=evidence_budget, seed=seed)
        for k in kfree_ks
    )
    for st in statuses:
        if st.kind == KFREE_EVIDENCE_FREE:
            notes.append(
                f"k={st.k} freeness is evidence only (budget {st.budget}, seed {st.seed})"
            )
    kst = None
    if kst_a is not None:
        ok, cap = kst_cap(a, kst_a)
        kst = {"a": kst_a, "cap": cap, "popcount_within_cap": ok}
    closed = None
    if (
        a.rows == a.cols
        and a.rows >= 1
        and a.rows & (a.rows - 1) == 0
        and a == gen_sierpinski(a.rows)
    ):
        closed = sierpinski_lb(a.rows)
        notes.append("matrix is the Sierpinski matrix: closed-form optimum applies")
    return BoundReport(
        rows=a.rows,
        cols=a.cols,
        matrix_sha256=digest,
        rank_gf2=rank,
        distinct_heavy_rows=heavy,
        morgenstern_log2_absdet=morg,
        singular=singular,
        kfree=statuses,
        kst=kst,
        sierpinski_closed_form=closed,
        notes=tuple(notes),
    )
