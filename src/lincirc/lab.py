"""Seeded, reproducible experiments around the random product construction.

A trial draws B (n x c*log2(n)) and C (c*log2(n) x n) with i.i.d. uniform
entries, forms A = B*C over GF(2), and measures: the density of A, the
absence of large all-ones/all-zeros submatrices (budgeted evidence), rank
statistics of random square submatrices of the factors with the exact
Sylvester rank inequality checked on every sampled pair where it can
bind, and the size of the composed product circuit (fan-in-2 and
depth-4), which is verified exactly.  The ratio of the k-freeness
density quantity to the composed gate count is the per-trial proxy for
the OR-vs-XOR separation; its constant is open.  A path-charging count
is explicit: read with OR, a cancellation-free circuit for A gives each
node v an all-ones block O(v) x I(v) of A (outputs reached, inputs
read), so in a k-free A |I(v)| <= k or |O(v)| <= k.  Charge each one
(i, j) of a row heavier than k to the wire (u, w) out of the last node u
with |I(u)| <= k on a path from x_j to y_i.  Then |O(w)| <= k, so each of
the 2G wires takes at most k^2 ones, in O(w) x I(u): G >= (|A| - L) /
(2k^2), L counting the ones in rows of weight <= k.  Trial 0 at seed
20131305 gets 21 gates at n = 128, 64 at 256 and 656 at 1024, against
about 53n composed: no desk-scale run certifies the gap.  Its measured
counterpart is the heuristic ratio that :func:`ratio_sweep` reports.

The Sylvester check ``rank_a < rank_b + rank_c - inner`` runs only
where it can bind, when 2 * krank > inner, krank = min(5 * ceil(log2 n),
inner, n) being the side of the sampled submatrices: neither factor's
rank exceeds krank, so otherwise the right side is at most 0 and
``sylvester_ok`` is True by arithmetic.  That skips it for every n at
c >= 12 (and for c >= 10 at a power-of-two n), so at the paper's default
c = 14 a trial makes 100 ``rank_gf2`` calls, all for the factors'
statistics, instead of 250.

Everything is a pure function of (config, trial index): sub-streams are
derived per trial and per stage, so trials are order-independent.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .rng import check_seed, derive_seed, words_np
from .matrices import (
    EVIDENCE_BUDGET,
    MAX_CELLS,
    BitMatrix,
    Submatrix,
    _Report,
    complement,
    find_allones_submatrix,
    gen_random,
    mul_gf2,
    popcount,
    rank_gf2,
)
from .bounds import KFreeStatus, default_freeness_k, kfree_quantity
from .circuits import depth
from .synthesis import paar_greedy, product_circuit

#: The paper's inner-dimension constant: B is n x c*log2(n).
DEFAULT_C = 14
DEFAULT_RANK_SAMPLES = 50


@dataclass(frozen=True)
class ExperimentConfig(_Report):
    """Parameters of one separation experiment; serialized into every
    report so trials are reconstructible bit-exactly."""

    n: int
    master_seed: int
    c: int = DEFAULT_C
    trials: int = 8
    submatrix_budget: int = EVIDENCE_BUDGET
    rank_samples: int = DEFAULT_RANK_SAMPLES

    def __post_init__(self):
        check_seed(self.master_seed, "master_seed")
        least = {"n": 2, "c": 1, "trials": 1, "rank_samples": 1, "submatrix_budget": 0}
        for name, low in least.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        # A is n x n and B is n x inner_dim
        cells = self.n * max(self.n, self.inner_dim)
        if cells > MAX_CELLS:
            raise ValueError(
                f"n = {self.n}, c = {self.c} form a {cells}-cell matrix; "
                f"the cap is {MAX_CELLS} cells (4096x4096)"
            )

    @property
    def inner_dim(self) -> int:
        """c * log2(n), rounded up for non-powers of two."""
        return math.ceil(self.c * math.log2(self.n))

    @property
    def freeness_k(self) -> int:
        return default_freeness_k(self.n)

    _derived = ("inner_dim", "freeness_k")


@dataclass(frozen=True)
class RankStats(_Report):
    """Min/mean GF(2) rank over sampled k x k submatrices."""

    k: int
    clipped: bool
    samples: int
    min_rank: int
    mean_rank: float


#: Samples drawn per ``words_np`` call in :func:`_sample_pairs`; memory
#: stays bounded whatever the number of samples.
_SAMPLE_CHUNK = 256


def _sample_pairs(seed: int, row_pop: int, col_pop: int, k: int, samples: int):
    """Yield ``samples`` pairs (rows, cols) of sorted index lists, k rows
    out of ``row_pop`` and k columns out of ``col_pop``, each drawn by a
    partial Fisher-Yates shuffle.

    Sample ``s`` uses words ``[2ks, 2k(s + 1))`` of the stream ``seed``,
    rows first, and its i-th draw of each is ``word % (pop - i)``: the
    indices are those of ``k`` sequential ``SplitMix64.randrange`` calls
    per list.  The words of a chunk of samples come from one
    :func:`words_np` call and are reduced in numpy; the swaps run in
    Python.
    """
    import numpy as np

    mods = np.array(
        [row_pop - i for i in range(k)] + [col_pop - i for i in range(k)], dtype=np.uint64
    )
    for first in range(0, samples, _SAMPLE_CHUNK):
        cnt = min(_SAMPLE_CHUNK, samples - first)
        draws = (words_np(seed, 2 * k * first, 2 * k * cnt).reshape(cnt, 2 * k) % mods).tolist()
        for d in draws:
            yield _shuffled_prefix(row_pop, d[:k]), _shuffled_prefix(col_pop, d[k:])


def _shuffled_prefix(pop: int, draws: list[int]) -> list[int]:
    """The first ``len(draws)`` entries of ``range(pop)`` after the swaps
    ``i <-> i + draws[i]``, sorted."""
    idx = list(range(pop))
    for i, r in enumerate(draws):
        j = i + r
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[: len(draws)])


def submatrix_rank_stats(
    b: BitMatrix, k: int, samples: int, seed: int, clipped: bool = False
) -> RankStats:
    """Rank distribution over ``samples`` random k x k submatrices.

    A rank does not depend on where the columns sit, so a submatrix is
    its rows masked to the sampled columns, never repacked."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if k > min(b.rows, b.cols):
        raise ValueError(f"k={k} exceeds min dimension of {b.rows}x{b.cols}")
    ranks = []
    for rows, cols in _sample_pairs(seed, b.rows, b.cols, k, samples):
        colmask = sum(1 << j for j in cols)
        ranks.append(rank_gf2(BitMatrix(k, b.cols, [b.row(i) & colmask for i in rows])))
    return RankStats(
        k, clipped, samples, min(ranks), sum(ranks) / len(ranks)
    )


@dataclass(frozen=True)
class RamseyOutcome(_Report):
    t: int
    status: str  # "evidence-ramsey" | "refuted"
    refuted_side: Optional[str] = None  # "ones" | "zeros"
    witness: Optional[Submatrix] = None
    budget: int = 0
    seed: int = 0


def ramsey_check(a: BitMatrix, t: int, budget: int, seed: int) -> RamseyOutcome:
    """Evidence that both the matrix and its complement are (t-1)-free,
    i.e. neither has a t x t monochromatic block."""
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    w = find_allones_submatrix(a, t - 1, budget=budget, seed=derive_seed(seed, 0))
    if w is not None:
        return RamseyOutcome(t, "refuted", "ones", w, budget, seed)
    w = find_allones_submatrix(
        complement(a), t - 1, budget=budget, seed=derive_seed(seed, 1)
    )
    if w is not None:
        return RamseyOutcome(t, "refuted", "zeros", w, budget, seed)
    return RamseyOutcome(t, "evidence-ramsey", None, None, budget, seed)


@dataclass(frozen=True)
class TrialReport(_Report):
    """Everything measured in one seeded trial of the product experiment."""

    trial_index: int
    seed: int
    n: int
    inner_dim: int
    popcount: int
    density: float
    freeness_k: int
    kfree: KFreeStatus
    allones_witness: Optional[Submatrix]  # always kfree.witness
    allzeros_witness: Optional[Submatrix]
    rank_stats_b: RankStats
    rank_stats_c: RankStats
    sylvester_ok: bool
    composed_gates: int
    composed_wires: int
    composed_depth: int
    ratio_proxy: Optional[float]


def trial_matrices(config: ExperimentConfig, trial_index: int) -> tuple[BitMatrix, BitMatrix, BitMatrix]:
    """The (B, C, A) triple of a trial, bit-exact from (config, index)."""
    seed = derive_seed(config.master_seed, trial_index)
    b = gen_random(config.n, config.inner_dim, derive_seed(seed, 1))
    c = gen_random(config.inner_dim, config.n, derive_seed(seed, 2))
    return b, c, mul_gf2(b, c)


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialReport:
    return _measure_trial(config, trial_index, *trial_matrices(config, trial_index))


def _measure_trial(
    config: ExperimentConfig, trial_index: int, b: BitMatrix, c: BitMatrix, a: BitMatrix
) -> TrialReport:
    """The report of trial ``trial_index``, given its (B, C, A)."""
    n = config.n
    inner = config.inner_dim
    seed = derive_seed(config.master_seed, trial_index)
    pc = popcount(a)
    k = config.freeness_k

    kstatus = kfree_quantity(
        a, k, evidence_budget=config.submatrix_budget, seed=derive_seed(seed, 3)
    )
    zeros_w = find_allones_submatrix(
        complement(a), k, budget=config.submatrix_budget, seed=derive_seed(seed, 5)
    )

    krank = min(5 * math.ceil(math.log2(n)), inner, n)
    clipped = krank < 5 * math.ceil(math.log2(n))
    stats_b = submatrix_rank_stats(
        b, krank, config.rank_samples, derive_seed(seed, 6), clipped=clipped
    )
    stats_c = submatrix_rank_stats(
        c, krank, config.rank_samples, derive_seed(seed, 7), clipped=clipped
    )

    # Sylvester on B[rows,:] C[:,cols] = A[rows,cols]; rank(C[:,cols]) is
    # the rank of its transpose, the rows ``cols`` of C^T.  Neither factor
    # rank exceeds krank, so when 2 * krank <= inner the bound
    # rank_b + rank_c - inner is at most 0 and no sample can break it.
    sylvester_ok = True
    if 2 * krank > inner:
        ct = c.transpose()
        for rows, cols in _sample_pairs(derive_seed(seed, 8), n, n, krank, config.rank_samples):
            rank_b = rank_gf2(BitMatrix(krank, inner, [b.row(i) for i in rows]))
            rank_c = rank_gf2(BitMatrix(krank, inner, [ct.row(j) for j in cols]))
            colmask = sum(1 << j for j in cols)
            rank_a = rank_gf2(BitMatrix(krank, n, [a.row(i) & colmask for i in rows]))
            if rank_a < rank_b + rank_c - inner:
                sylvester_ok = False  # would contradict exact linear algebra

    fan2 = product_circuit(b, c, "fanin2")
    layered = product_circuit(b, c, "depth4")
    ratio = None if kstatus.quantity is None else kstatus.quantity / fan2.cost
    return TrialReport(
        trial_index=trial_index,
        seed=seed,
        n=n,
        inner_dim=inner,
        popcount=pc,
        density=pc / (n * n),
        freeness_k=k,
        kfree=kstatus,
        allones_witness=kstatus.witness,
        allzeros_witness=zeros_w,
        rank_stats_b=stats_b,
        rank_stats_c=stats_c,
        sylvester_ok=sylvester_ok,
        composed_gates=fan2.cost,
        composed_wires=layered.cost,
        composed_depth=depth(layered.circuit),
        ratio_proxy=ratio,
    )


@dataclass(frozen=True)
class SeparationReport(_Report):
    config: ExperimentConfig
    trials: tuple[TrialReport, ...]

    @property
    def min_density(self) -> float:
        return min(t.density for t in self.trials)

    @property
    def median_ratio_proxy(self) -> Optional[float]:
        vals = [t.ratio_proxy for t in self.trials if t.ratio_proxy is not None]
        return statistics.median(vals) if vals else None

    @property
    def max_composed_gates(self) -> int:
        return max(t.composed_gates for t in self.trials)

    _derived = ("min_density", "median_ratio_proxy", "max_composed_gates")


def run_experiment(config: ExperimentConfig) -> SeparationReport:
    """All trials of a config, in trial order."""
    return SeparationReport(config, tuple(run_trial(config, t) for t in range(config.trials)))


# ---------------------------------------------------------------------------
# Conditional bias (exact, by the rank chain of BC)

#: Widest mask the bias accepts: at inner = 7m its exact value p/q has up
#: to about 2 000 digits a side at m = 32 (Python's int-to-text limit is
#: 4 300 digits), and the chain takes about 0.02 s there.
MAX_MASK_SIDE = 32


@dataclass(frozen=True)
class BiasReport(_Report):
    """:func:`exact_conditional_bias` at the lemma's width inner = 7m:
    ``bias`` is the exact value as the text ``p/q``, ``bias_float`` its
    nearest float."""

    m: int
    inner: int
    open_cell: tuple[int, int]
    bias: str
    bias_float: float


def _parse_mask(mask_pattern) -> tuple[int, tuple[int, int], list[tuple[int, int, int]]]:
    m = len(mask_pattern)
    if m > MAX_MASK_SIDE:
        raise ValueError(f"mask has {m} rows; the cap is {MAX_MASK_SIDE}x{MAX_MASK_SIDE}")
    undefined = None
    defined = []
    for i, row in enumerate(mask_pattern):
        if len(row) != m:
            raise ValueError("mask must be square")
        for j, v in enumerate(row):
            if v is None:
                if undefined is not None:
                    raise ValueError("mask must leave exactly one entry undefined")
                undefined = (i, j)
            elif v in (0, 1):
                defined.append((i, j, v))
            else:
                raise ValueError(f"mask entry {v!r} is not 0, 1 or None")
    if undefined is None:
        raise ValueError("mask must leave exactly one entry undefined")
    return m, undefined, defined


def bias_report(mask_pattern) -> BiasReport:
    """The exact conditional bias of ``mask_pattern`` at inner = 7m, as a
    report.  Every rank has nonzero probability at that width, so no mask
    that parses is refused for zero acceptance."""
    m, cell, _ = _parse_mask(mask_pattern)
    bias = exact_conditional_bias(mask_pattern)
    return BiasReport(m, 7 * m, cell, f"{bias.numerator}/{bias.denominator}", float(bias))


def exact_conditional_bias(mask_pattern, inner: Optional[int] = None) -> Fraction:
    """Exact P(open product entry = 1 | the other entries match the mask),
    for uniform B (m x inner) and C (inner x m), inner = 7m by default.

    BC = sum_l b_l c_l^T keeps its law under X -> PXQ for invertible P
    and Q, so Pr[BC = X] is Pr[rank BC = rank X] over N_r, the number of
    rank-r matrices, prod_{i<r} (2^m - 2^i)^2 / (2^r - 2^i).  From S =
    diag(I_r, 0), adding b c^T raises the rank when b leaves S's column
    space and c its row space, for (2^m - 2^r)^2 of the 4^m pairs, and
    lowers it when both stay inside, as (x, 0) and (y, 0), with x.y = 1,
    for (2^r - 1) 2^(r-1) pairs.  So rank BC is a Markov chain on 0..m,
    run here in exact pair counts, and the bias is p1 / (p0 + p1), p_v
    being Pr[BC = X_v] for the mask completed with v.

    Cost: ``inner`` chain steps over m + 1 integers that grow by 2m bits
    a step, so it is quadratic in ``inner`` (m = 32 at 7m takes about
    0.02 s).  A mask wider than :data:`MAX_MASK_SIDE`, or one that leaves
    no completion any probability (possible only below inner = m), is
    refused with ``ValueError``.
    """
    m, (p, q), defined = _parse_mask(mask_pattern)
    if inner is None:
        inner = 7 * m
    if inner < 0:
        raise ValueError(f"inner must be >= 0, got {inner}")
    full = 1 << m
    # (B, C) pairs by the rank of BC, one outer product at a time; the
    # extra slot takes the zero moves up from rank m and down from rank 0
    count = [1] + [0] * m
    for _ in range(inner):
        step = [0] * (m + 2)
        for r, pairs in enumerate(count):
            up = (full - (1 << r)) ** 2
            down = ((1 << r) - 1) << r >> 1
            step[r + 1] += pairs * up
            step[r - 1] += pairs * down
            step[r] += pairs * (full * full - up - down)
        count = step[: m + 1]
    rows = [0] * m
    for i, j, v in defined:
        rows[i] |= v << j
    r0 = rank_gf2(BitMatrix(m, m, rows))
    rows[p] |= 1 << q
    r1 = rank_gf2(BitMatrix(m, m, rows))

    def rank_r_matrices(r: int) -> int:  # N_r
        num = math.prod((full - (1 << i)) ** 2 for i in range(r))
        return num // math.prod((1 << r) - (1 << i) for i in range(r))

    # p_v is count[r_v] / N_{r_v}, up to the common factor 4^(m * inner)
    p0 = count[r0] * rank_r_matrices(r1)
    p1 = count[r1] * rank_r_matrices(r0)
    if p0 + p1 == 0:
        raise ValueError("mask has zero acceptance probability")
    return Fraction(p1, p0 + p1)


# ---------------------------------------------------------------------------
# Ratio sweep


@dataclass(frozen=True)
class SweepPoint(_Report):
    n: int
    median_ratio_proxy: Optional[float]
    median_heuristic_ratio: float


@dataclass(frozen=True)
class SweepReport(_Report):
    points: tuple[SweepPoint, ...]
    ratio_proxy_nondecreasing: Optional[bool]
    heuristic_ratio_nondecreasing: Optional[bool]
    configs: tuple[ExperimentConfig, ...]


def ratio_sweep(ns: list[int], base: ExperimentConfig) -> SweepReport:
    """Medians of the separation proxies across a size sweep.

    Per n: the median ratio_proxy of the trials' :class:`SeparationReport`,
    and the median of (greedy-heuristic gate count) / (composed product
    gate count) -- the measured counterpart of the heuristic approximation
    gap.  At master seed 20131305 over 2 trials the latter crosses 1
    between n = 256 (0.818) and n = 512 (1.412).  With more than one n,
    the report asserts both medians are nondecreasing (a trend check, not
    an asymptotic claim).
    """
    points = []
    configs = [replace(base, n=n) for n in ns]  # every n is checked before any trial
    for cfg in configs:
        trials, heuristic = [], []
        for t in range(cfg.trials):
            b, c, a = trial_matrices(cfg, t)  # built once for both ratios
            trials.append(_measure_trial(cfg, t, b, c, a))
            heuristic.append(paar_greedy(a).cost / trials[-1].composed_gates)
        proxy = SeparationReport(cfg, tuple(trials)).median_ratio_proxy
        points.append(SweepPoint(cfg.n, proxy, statistics.median(heuristic)))
    trend_proxy = None
    trend_heur = None
    if len(points) > 1:
        proxy_vals = [p.median_ratio_proxy for p in points]
        trend_proxy = all(
            a is not None and b is not None and a <= b
            for a, b in zip(proxy_vals, proxy_vals[1:])
        )
        heur_vals = [p.median_heuristic_ratio for p in points]
        trend_heur = all(a <= b for a, b in zip(heur_vals, heur_vals[1:]))
    return SweepReport(tuple(points), trend_proxy, trend_heur, tuple(configs))
