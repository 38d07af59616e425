import ast
import gc
import os
import subprocess
import sys
from pathlib import Path

import lincirc


def test_library_has_no_assert_statements():
    # returned circuits and witnesses are proofs; their checks must still
    # run under `python -O`, which strips assert statements
    src = Path(lincirc.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_recursive_searches_leave_no_reference_cycles():
    # a self-referencing closure is a reference cycle: what it holds lives
    # until a full collection, which large runs pay for in peak memory
    calls = [
        lambda: lincirc.boyar_peralta(lincirc.gen_random(9, 9, 3)),
        lambda: lincirc.sierpinski_circuit(256),
        lambda: lincirc.kfree_quantity(lincirc.gen_random(12, 12, 5), 2),
        lambda: lincirc.optimal_size(lincirc.example_a(), "XOR"),
        # the SLP reader's resolver is a closure too
        lambda: lincirc.slp_loads(lincirc.slp_dumps(lincirc.sierpinski_circuit(16).circuit)),
        # flatten's pairing plans, and a trial whose Sylvester loop runs
        lambda: lincirc.flatten(lincirc.product_circuit(
            lincirc.gen_random(24, 20, 1), lincirc.gen_random(20, 24, 2), "depth4").circuit),
        lambda: lincirc.run_trial(
            lincirc.ExperimentConfig(n=16, master_seed=3, c=1, trials=1, rank_samples=4), 0),
    ]
    for call in calls:
        call()  # first calls may build lazily cached state
    gc.collect()
    gc.disable()
    try:
        leaked = []
        for call in calls:
            call()
            leaked.append(gc.collect())
    finally:
        gc.enable()
    assert leaked == [0] * len(calls)


_NUMPY_PROBE = """
import sys
import lincirc
from lincirc.cli import main

loaded = ["numpy" in sys.modules]
assert main(["gen", "sierpinski:8"]) == 0
loaded.append("numpy" in sys.modules)
assert main(["exact", "--in", "exampleA", "--model", "xor"]) == 0
loaded.append("numpy" in sys.modules)
assert main(["synth", "--method", "paar", "--in", "random:8:8:1", "--out", sys.argv[1]]) == 0
loaded.append("numpy" in sys.modules)
assert main(["check", "--in", sys.argv[1], "--against", "random:8:8:1"]) == 0
loaded.append("numpy" in sys.modules)
lincirc.run_trial(
    lincirc.ExperimentConfig(n=16, master_seed=3, c=1, trials=1, rank_samples=4), 0)
loaded.append("numpy" in sys.modules)
print(loaded)
"""


def test_import_loads_no_numpy(tmp_path):
    # only the all-ones finder and the rank sampler compute with numpy, so
    # the import and the commands that need neither leave it unloaded; the
    # trial at the end loads it, which shows the probe can see it at all
    src = Path(lincirc.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, str(tmp_path / "paar.slp")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines()[-1] == "[False, False, False, False, False, True]"
