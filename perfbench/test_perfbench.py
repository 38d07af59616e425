"""Tests of the benchmark itself: determinism, seeding, checks, tracing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # puts the library source on sys.path
import checks
import tracing
import workloads

import lincirc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

COUNTS = (
    "exact.nodes_expanded",
    "synthesis.gates_out",
    "circuits.verify.gates",
    "circuits.slp_bytes",
)


@pytest.fixture
def small_passes(monkeypatch):
    """Shrink each pass so a traced pass of every workload takes seconds."""
    monkeypatch.setattr(workloads.ExactSmall, "CATALOGUE_SIZE", 6)
    monkeypatch.setattr(
        workloads.SynthGreedy, "JOBS", (("paar_greedy", 48), ("boyar_peralta", 8))
    )
    monkeypatch.setattr(workloads.Separation, "TRIALS_PER_PASS", 2)


def traced_pass(name: str, seed: int) -> tuple[run.Tally, tracing.Tracer]:
    tally = run.Tally(workloads.WORKLOADS[name].tail_percentile)
    with tracing.Tracer() as tracer:
        run.run_pass(workloads.WORKLOADS[name](seed), 0, tally, tracer)
    return tally, tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_counts(name, small_passes):
    (t1, tr1), (t2, tr2) = traced_pass(name, 5), traced_pass(name, 5)
    assert not t1.failures and not t2.failures
    assert t1.first_pass_gates == t2.first_pass_gates > 0
    assert {k: tr1.counters[k] for k in COUNTS} == {k: tr2.counters[k] for k in COUNTS}
    assert tr1.calls == tr2.calls
    assert not run.layer_self_check(workloads.WORKLOADS[name], tr1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reaches_the_generators(name, small_passes):
    cls = workloads.WORKLOADS[name]
    same = workloads.fingerprint(cls(3).pass_requests(0))
    assert same == workloads.fingerprint(cls(3).pass_requests(0))
    assert same != workloads.fingerprint(cls(4).pass_requests(0))
    assert workloads.fingerprint(cls(3).pass_requests(1)) != same


def test_separation_seed_changes_the_trial_matrices():
    a = lincirc.trial_matrices(workloads.Separation(3).config, 0)
    b = lincirc.trial_matrices(workloads.Separation(4).config, 0)
    assert a[0] != b[0] and a[1] != b[1]


def test_checks_reject_wrong_circuits():
    a = lincirc.gen_random(10, 10, 1)
    rows = checks.matrix_rows(a)
    res = lincirc.paar_greedy(a)
    assert checks.check_synthesis(rows, 10, res, res.circuit) is None
    (_, y), *rest = res.circuit.gates
    broken = dataclasses.replace(res.circuit, gates=((y, y),) + tuple(rest))
    assert checks.check_synthesis(rows, 10, res, broken) is not None
    flag = dataclasses.replace(res, cancellation_free=not res.cancellation_free)
    assert checks.check_synthesis(rows, 10, flag, res.circuit) is not None


def test_checks_reject_wrong_optima():
    a = lincirc.example_a()
    rows = checks.matrix_rows(a)
    out = lincirc.optimal_size(a, "XOR")
    assert checks.check_exact(rows, 4, "XOR", out, 4) is None
    assert checks.check_exact(rows, 4, "XOR", out, 5) is not None
    # the XOR optimum cancels, so it is no CF witness
    assert checks.check_exact(rows, 4, "CF", dataclasses.replace(out, model="CF"), None)
    assert checks.check_exact(rows, 4, "XOR", dataclasses.replace(out, optimal_size=3), None)


def test_checks_reject_wrong_density():
    sep = workloads.Separation(1)
    report = lincirc.run_trial(sep.config, 0)
    b, c, _ = lincirc.trial_matrices(sep.config, 0)
    args = (checks.matrix_rows(b), checks.matrix_rows(c), sep.config.inner_dim)
    assert checks.check_trial(report, *args) is None
    wrong = dataclasses.replace(report, density=report.density + 1 / 256**2)
    assert checks.check_trial(wrong, *args) is not None


def test_tracer_wraps_every_binding_and_restores_them():
    bindings = [
        (lincirc, "mul_gf2"),
        (lincirc.matrices, "mul_gf2"),
        (lincirc.synthesis, "verify"),
        (lincirc.synthesis, "flatten"),
        (lincirc.synthesis, "compose"),
        (lincirc.synthesis, "naive_rowwise"),  # exact reaches it as _synth.naive_rowwise
        (lincirc.lab, "mul_gf2"),
        (lincirc.lab, "rank_gf2"),
        (lincirc.lab, "find_allones_submatrix"),
        (lincirc.lab, "kfree_quantity"),
        (lincirc.lab, "product_circuit"),
        (lincirc.bounds, "find_allones_submatrix"),
    ]
    before = [getattr(mod, attr) for mod, attr in bindings]
    with tracing.Tracer() as tracer:
        for (mod, attr), fn in zip(bindings, before):
            assert getattr(mod, attr).__wrapped__ is fn, f"{mod.__name__}.{attr}"
        assert not hasattr(lincirc.BitMatrix.row, "__wrapped__")
        lincirc.lab.mul_gf2(lincirc.identity(3), lincirc.identity(3))
        assert tracer.calls["matrices.mul_gf2"] == 1
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in zip(bindings, before))


def cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_the_declared_metrics_and_repeats_counts():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = ("--workload", "synth-greedy", "--seed", "9", "--seconds", "0")
    results = []
    for trace, key in (("0", "end_to_end"), ("0", "end_to_end"), ("1", "per_layer")):
        proc = cli(*args, "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {m["name"] for m in spec[key]}
        for m in spec[key]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
        results.append(res["metrics"])
    assert results[0]["gates_total"] == results[1]["gates_total"]


def test_cli_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = cli("--workload", "exact-small", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
