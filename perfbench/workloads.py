"""The benchmark's workloads: seeded inputs, requests and their checks.

A workload turns the benchmark seed into passes of requests.  A request is
one call into the library, timed on its own; its result is checked
afterwards by :mod:`checks`.  Pass ``p`` is a pure function of
``(seed, p)``, so a run can go on for as many passes as its time allows and
two runs with one seed see the same inputs in the same order.  All inputs
come from the library's own generators (``gen_random``, the example and
Sierpinski matrices, ``ExperimentConfig``) and its SplitMix64 streams.

Each workload also states which layers the trace must see working
(``busy``: span names that need calls) and which must stay idle (``idle``:
layer prefixes that must have none).  Why each workload exists and what it
should move is written down in RATIONALE.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Optional

import lincirc
from lincirc.rng import SplitMix64, derive_seed

import checks


@dataclass
class Request:
    label: str
    inputs: tuple  # what the request was given, for the input fingerprint
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    cost: Callable[[Any], int]  # gates the returned circuit(s) cost


def fingerprint(requests: list[Request]) -> str:
    """Digest of a pass's inputs; equal seeds must give equal digests."""
    h = hashlib.sha256()
    for r in requests:
        h.update(repr((r.label, r.inputs)).encode())
    return h.hexdigest()[:16]


def _rows_shuffled(a, rng: SplitMix64):
    """``a`` with its rows in another order: the same matrix up to the
    naming of its outputs, so every optimum is unchanged."""
    rows = checks.matrix_rows(a)
    rng.shuffle(rows)
    return lincirc.BitMatrix(a.rows, a.cols, rows)


class ExactSmall:
    """``optimal_size`` on 6x6 matrices in all three models.

    The matrices are a fixed catalogue of ``gen_random(6, 6, .)`` draws,
    shown to each pass with its rows in a fresh seeded order, plus three
    anchors with optima the paper pins.  Search cost is heavy-tailed across
    random matrices (0.1 ms to 21 s per solve), so fresh draws per seed
    would make a run's throughput depend mostly on which few heavy matrices
    it drew.  Reordering rows keeps the search's work exactly (it sees the
    set of row values, and ``paar_greedy`` breaks ties on column indices);
    reordering columns would not: it flips ``paar_greedy`` tie-breaks and
    with them the search cost of some matrices tenfold.
    """

    name = "exact-small"
    CATALOGUE_SEED = 0x6C696E63
    CATALOGUE_SIZE = 32
    MODELS = ("XOR", "CF", "OR")
    tail_percentile = 95  # a run holds at least two passes, 210 requests
    nominal_pass_s = 11.0
    busy = (
        "exact.optimal_size",
        "synthesis.naive_rowwise",
        "synthesis.paar_greedy",
        "circuits.verify",
        "matrices.gen_random",
    )
    idle = ("bounds.", "lab.")

    def __init__(self, seed: int):
        self.seed = seed
        self.catalogue = [
            lincirc.gen_random(6, 6, derive_seed(self.CATALOGUE_SEED, i))
            for i in range(self.CATALOGUE_SIZE)
        ]
        self.anchors = (
            ("example_a", lincirc.example_a(), {"XOR": 4, "CF": 5}),
            ("example_b", lincirc.example_b(), {"OR": 6, "CF": 7}),
            ("sierpinski4", lincirc.gen_sierpinski(4), {"XOR": 4, "CF": 4, "OR": 4}),
        )
        self._optima: dict[tuple[str, str], int] = {}

    def pass_requests(self, p: int) -> list[Request]:
        reqs = []
        for i, base in enumerate(self.catalogue):
            a = _rows_shuffled(base, SplitMix64(derive_seed(self.seed, p, i)))
            for model in self.MODELS:
                reqs.append(self._request(f"cat{i}", a, model, None))
        for name, a, known in self.anchors:
            for model in self.MODELS:
                reqs.append(self._request(name, a, model, known.get(model)))
        return reqs

    def _request(self, name: str, a, model: str, known: Optional[int]) -> Request:
        rows = checks.matrix_rows(a)

        def check(out) -> Optional[str]:
            reason = checks.check_exact(rows, a.cols, model, out, known)
            if reason is None:
                # reordering rows keeps the optimum
                first = self._optima.setdefault((name, model), out.optimal_size)
                if out.optimal_size != first:
                    reason = f"optimum {out.optimal_size} != {first} with other row order"
            return reason

        return Request(
            f"{name}/{model}",
            (tuple(rows), model),
            lambda: lincirc.optimal_size(a, model),
            check,
            lambda out: out.optimal_size,
        )


class SynthGreedy:
    """``paar_greedy`` and ``boyar_peralta`` on fresh seeded random square
    matrices, each result sent through ``slp_dumps`` and ``slp_loads``.

    A pass is eleven requests in three size classes, each two to three
    times dearer than the one below it: four small compiles (two paar at
    n = 64, two bp at n = 9), three mid-size ones (paar at n = 96) and four
    large ones (paar at n = 112).  The median of a pass, its sixth request,
    is then the middle of the mid-size class and its p85 the middle of the
    large class, each a class of one method and size, never a class
    boundary.  bp's cost varies about threefold with the input (0.05-0.15 s
    at n = 9), so it stays in the small class, away from both percentiles;
    at n = 12 it varies 0.5-0.9 s.
    """

    name = "synth-greedy"
    JOBS = (
        ("paar_greedy", 64), ("paar_greedy", 96), ("paar_greedy", 112),
        ("boyar_peralta", 9), ("paar_greedy", 112), ("paar_greedy", 96),
        ("paar_greedy", 64), ("paar_greedy", 112), ("boyar_peralta", 9),
        ("paar_greedy", 96), ("paar_greedy", 112),
    )
    tail_percentile = 85
    nominal_pass_s = 3.0
    busy = (
        "synthesis.paar_greedy",
        "synthesis.boyar_peralta",
        "circuits.verify",
        "circuits.is_cancellation_free",
        "circuits.slp_dumps",
        "circuits.slp_loads",
        "matrices.gen_random",
    )
    idle = ("exact.", "bounds.", "lab.")

    def __init__(self, seed: int):
        self.seed = seed

    def pass_requests(self, p: int) -> list[Request]:
        return [
            self._request(method, lincirc.gen_random(n, n, derive_seed(self.seed, p, k)))
            for k, (method, n) in enumerate(self.JOBS)
        ]

    @staticmethod
    def _request(method: str, a) -> Request:
        rows = checks.matrix_rows(a)

        def call():
            res = getattr(lincirc, method)(a)
            parsed = lincirc.slp_loads(lincirc.slp_dumps(res.circuit))
            return res, parsed

        return Request(
            f"{method}/{a.rows}",
            tuple(rows),
            call,
            lambda out: checks.check_synthesis(rows, a.cols, *out),
            lambda out: out[0].cost,
        )


class Separation:
    """``run_trial`` on ``ExperimentConfig(n=256)`` with the paper defaults
    (c = 14, submatrix budget 50 000, 50 rank samples); the benchmark seed
    is the master seed and pass ``p`` runs trials ``8p .. 8p + 7``."""

    name = "separation"
    N = 256
    TRIALS_PER_PASS = 8
    tail_percentile = 80
    nominal_pass_s = 3.0
    busy = (
        "lab.run_trial",
        "lab.trial_matrices",
        "lab.submatrix_rank_stats",
        "synthesis.lupanov",
        "synthesis.lupanov_depth2",
        "synthesis.product_circuit",
        "circuits.verify",
        "circuits.flatten",
        "circuits.compose",
        "circuits.compose_layered",
        "circuits.is_cancellation_free",
        "matrices.gen_random",
        "matrices.mul_gf2",
        "matrices.rank_gf2",
        "matrices.find_allones_submatrix",
        "bounds.kfree_quantity",
    )
    idle = ("exact.",)

    def __init__(self, seed: int):
        self.config = lincirc.ExperimentConfig(n=self.N, master_seed=seed)

    def pass_requests(self, p: int) -> list[Request]:
        first = p * self.TRIALS_PER_PASS
        return [self._request(t) for t in range(first, first + self.TRIALS_PER_PASS)]

    def _request(self, t: int) -> Request:
        config = self.config

        def check(report) -> Optional[str]:
            if report.trial_index != t or report.n != config.n:
                return "report is for another trial"
            b, c, _ = lincirc.trial_matrices(config, t)
            return checks.check_trial(
                report, checks.matrix_rows(b), checks.matrix_rows(c), config.inner_dim
            )

        return Request(
            f"trial{t}",
            (tuple(sorted(config.to_dict().items())), t),
            lambda: lincirc.run_trial(config, t),
            check,
            lambda report: report.composed_gates,
        )


WORKLOADS = {w.name: w for w in (ExactSmall, SynthGreedy, Separation)}
