"""Benchmark of the lincirc library: one client, one process, closed loop.

Run from the root of a checkout; the library is imported from ``src``::

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 30 --trace 0

The client sends the next request when the previous one has returned and
been checked; there are no threads and no worker processes.  With
``--trace 0`` the run goes on pass after whole pass and stops at the pass
that ends nearest to ``--seconds``, and reports the end-to-end metrics; set-up is timed in fresh
interpreters.  With ``--trace 1`` it runs a fixed number of passes twice,
each untraced and then with every public library function wrapped in spans
(see :mod:`tracing`), and reports the per-layer metrics and the tracing
overhead.  Every result is checked by :mod:`checks`.  The last line of
standard output is the result object; the lines before it say which
percentile the tail latency is and which requests failed.

RATIONALE.md records why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SETUP_SAMPLES = 7


class Tally:
    """What a sequence of passes measured."""

    def __init__(self, tail_percentile: int):
        self.tail_percentile = tail_percentile
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.first_pass_gates = None
        self.passes = 0
        self.pass_req_per_s: list[float] = []
        self.pass_p50: list[float] = []
        self.pass_tail: list[float] = []

    @property
    def req_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_pass(workload, p: int, tally: Tally, tracer=None) -> None:
    """Generate pass ``p``, send its requests one at a time, check each."""
    requests = workload.pass_requests(p)
    gates = 0
    first = len(tally.latencies)
    clock = time.perf_counter
    for req in requests:
        tally.attempted += 1
        if tracer is not None:
            tracer.request = f"{p}/{req.label}"
        start = clock()
        try:
            out = req.call()
        except Exception as exc:  # a request that raises is counted, not fatal
            tally.failures.append(f"pass {p} {req.label}: raised {exc!r}")
            continue
        tally.latencies.append(clock() - start)
        with tracer.paused() if tracer is not None else nullcontext():
            try:
                reason = req.check(out)
            except Exception as exc:  # a malformed result can break a check
                reason = f"check raised {exc!r}"
        if reason is not None:
            tally.failures.append(f"pass {p} {req.label}: {reason}")
        else:
            gates += req.cost(out)
    if tally.first_pass_gates is None:
        tally.first_pass_gates = gates
    tally.passes += 1
    done = tally.latencies[first:]
    if done:
        tally.pass_req_per_s.append(len(done) / sum(done))
        tally.pass_p50.append(statistics.median(done))
        tally.pass_tail.append(percentile(done, tally.tail_percentile))


def percentile(latencies: list[float], q: int) -> float:
    if len(latencies) == 1:
        return latencies[0]
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def setup_probe(name: str, seed: int) -> None:
    """Time import of the library plus generation of the first pass's
    inputs, from a fresh interpreter; print seconds and input digest."""
    start = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[name](seed)
    digest = workloads.fingerprint(w.pass_requests(0))
    print(json.dumps({"setup_s": time.perf_counter() - start, "fingerprint": digest}))


def setup_sample(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(tally: Tally) -> None:
    """Lines before the result: tail percentile, failures, pass speeds."""
    for line in tally.failures[:20]:
        print("FAILED", line)
    if not tally.latencies:
        raise RuntimeError("no request completed; nothing to measure")
    q = tally.tail_percentile
    n = len(tally.latencies)
    print(f"latency_tail_ms is the p{q} of each of {tally.passes} passes, averaged; "
          f"{n} requests, {n - round(n * q / 100)} beyond it")
    print(f"fail_ratio {len(tally.failures) / tally.attempted} "
          f"({len(tally.failures)} of {tally.attempted})")
    print("pass req_per_s", [round(x, 4) for x in tally.pass_req_per_s])


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    import workloads

    cls = workloads.WORKLOADS[name]
    w = cls(seed)
    digest = workloads.fingerprint(w.pass_requests(0))

    # Host speed drifts over tens of seconds, so the set-up samples are
    # spread over the run, one after each pass, rather than taken at once.
    probes = []
    tally = Tally(cls.tail_percentile)
    deadline = time.perf_counter() + seconds
    p = 0
    while True:
        start = time.perf_counter()
        run_pass(w, p, tally)
        p += 1
        end = time.perf_counter()
        if len(probes) < SETUP_SAMPLES:
            probes.append(setup_sample(name, seed))
            deadline += time.perf_counter() - end
        if end + (end - start) / 2 >= deadline:
            break  # the whole pass that ends nearest the deadline was the last
    while len(probes) < SETUP_SAMPLES:
        probes.append(setup_sample(name, seed))
    same_inputs = all(pr["fingerprint"] == digest for pr in probes)
    if not same_inputs:
        print("FAILED set-up in fresh interpreters generated other inputs")
    report(tally)
    failed = len(tally.failures)
    return {
        "correct": failed == 0 and same_inputs,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {
            "req_per_s": metric(tally.req_per_s, "1/s"),
            # The median and tail percentile of each pass, averaged: a pass
            # is shorter than the host's swings in speed, while a percentile
            # of a whole run jumps with whichever speed held at that rank.
            "latency_p50_ms": metric(1e3 * statistics.fmean(tally.pass_p50), "ms"),
            "latency_tail_ms": metric(1e3 * statistics.fmean(tally.pass_tail), "ms"),
            "gates_total": metric(tally.first_pass_gates, "count"),
            "ok_ratio": metric((tally.attempted - failed) / tally.attempted, "ratio"),
            "setup_s": metric(statistics.median(pr["setup_s"] for pr in probes), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        },
    }


PER_LAYER_SPANS = (
    "exact.optimal_size",
    "synthesis.naive_rowwise",
    "synthesis.paar_greedy",
    "synthesis.boyar_peralta",
    "synthesis.lupanov",
    "synthesis.lupanov_depth2",
    "synthesis.product_circuit",
    "circuits.verify",
    "circuits.flatten",
    "circuits.compose",
    "circuits.compose_layered",
    "circuits.is_cancellation_free",
    "circuits.slp_dumps",
    "circuits.slp_loads",
    "matrices.gen_random",
    "matrices.mul_gf2",
    "matrices.rank_gf2",
    "matrices.find_allones_submatrix",
    "bounds.kfree_quantity",
    "lab.run_trial",
    "lab.trial_matrices",
    "lab.submatrix_rank_stats",
)


def layer_metrics(tracer, plain: Tally, traced: Tally) -> dict:
    out = {}
    for name in PER_LAYER_SPANS:
        out[f"{name}.calls"] = metric(tracer.calls[name], "count")
        out[f"{name}.self_s"] = metric(tracer.self_s[name], "s")
    c = tracer.counters
    exact_s = tracer.self_s["exact.optimal_size"]
    finds = tracer.calls["matrices.find_allones_submatrix"]
    kfree = tracer.calls["bounds.kfree_quantity"]
    out.update(
        {
            "exact.nodes_expanded": metric(c["exact.nodes_expanded"], "count"),
            "exact.nodes_per_s": metric(
                c["exact.nodes_expanded"] / exact_s if exact_s else 0.0, "1/s"
            ),
            "synthesis.gates_out": metric(c["synthesis.gates_out"], "count"),
            "circuits.verify.gates": metric(c["circuits.verify.gates"], "count"),
            "circuits.slp_bytes": metric(c["circuits.slp_bytes"], "count"),
            "matrices.find_allones_submatrix.hit_ratio": metric(
                c["matrices.find_allones_submatrix.hits"] / finds if finds else 0.0, "ratio"
            ),
            "bounds.kfree.evidence_ratio": metric(
                c["bounds.kfree.evidence"] / kfree if kfree else 0.0, "ratio"
            ),
            "trace.req_per_s.untraced": metric(plain.req_per_s, "1/s"),
            "trace.req_per_s.traced": metric(traced.req_per_s, "1/s"),
            "trace.overhead_ratio": metric(plain.req_per_s / traced.req_per_s - 1, "ratio"),
            "trace.spans": metric(len(tracer.spans), "count"),
        }
    )
    return out


def layer_self_check(cls, tracer) -> list[str]:
    """Layers the workload must exercise have calls; layers it must leave
    alone have none."""
    problems = [f"{n} has no calls" for n in cls.busy if not tracer.calls[n]]
    problems += [
        f"{n} has {k} calls" for n, k in tracer.calls.items()
        if k and n.startswith(cls.idle)
    ]
    return problems


def run_traced(name: str, seed: int, seconds: float) -> dict:
    import tracing
    import workloads

    cls = workloads.WORKLOADS[name]
    passes = max(1, round(seconds / 2 / cls.nominal_pass_s))
    tracer = tracing.Tracer()
    plain, traced = Tally(cls.tail_percentile), Tally(cls.tail_percentile)
    plain_w = cls(seed)
    with tracer:
        traced_w = cls(seed)  # built traced, so input generation is seen
    # Untraced and traced passes alternate, so that both see the same
    # drift in host speed and their ratio is the tracing overhead.
    for p in range(passes):
        run_pass(plain_w, p, plain)
        with tracer:
            run_pass(traced_w, p, traced, tracer)
    tracer.dump(ROOT / ".bench_out" / f"spans-{name}-{seed}.jsonl")

    report(traced)
    problems = layer_self_check(cls, tracer)
    for line in problems:
        print("FAILED layer self-check:", line)
    failed = len(plain.failures) + len(traced.failures)
    return {
        "correct": failed == 0 and not problems,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "metrics": layer_metrics(tracer, plain, traced),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lincirc" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:  # before anything imports the library
        setup_probe(args.workload, args.seed)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    run = run_traced if args.trace else run_untraced
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
