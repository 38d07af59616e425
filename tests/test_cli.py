import functools
import hashlib
import io
import json

import jsonschema
import pytest

import lincirc as lc
from lincirc import exact as exact_mod
from lincirc.cli import fixtures_dir, main, parse_genspec, schema_path


SCHEMA = json.loads(schema_path().read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report, err


def test_gen_and_roundtrip(tmp_path, capsys):
    for spec, maker in [
        ("sierpinski:8", lambda: lc.gen_sierpinski(8)),
        ("hadamard:16", lambda: lc.gen_hadamard(16)),
        ("setint:8", lambda: lc.gen_setintersection(8)),
        ("random:5:9:77", lambda: lc.gen_random(5, 9, 77)),
        ("exampleA", lc.example_a),
        ("exampleB", lc.example_b),
    ]:
        path = tmp_path / "m.txt"
        code, out, err = run(capsys, "gen", spec, "--out", str(path))
        assert code == 0
        assert lc.BitMatrix.from_text(path.read_text()) == maker()


def test_gen_json_format(tmp_path, capsys):
    code, report, _ = run_json(capsys, "gen", "exampleA")
    assert code == 0 and report["type"] == "matrix"
    assert lc.BitMatrix.from_json_dict(report) == lc.example_a()


def test_gen_bad_spec(capsys):
    code, _, err = run(capsys, "gen", "nonsense:8")
    assert code == 2 and "nonsense" in err


@pytest.mark.parametrize(
    "spec",
    # sizes are ASCII digits only: no other Unicode digits, sign or '_'
    ["random:a:b:c", "random:4:4:x", "random:\u0663:\u0663:1", "random:-3:3:1", "random:1_0:3:1"],
)
def test_gen_bad_random_spec(capsys, spec):
    code, out, err = run(capsys, "gen", spec)
    assert code == 2 and out == "" and "bad random spec" in err


@pytest.mark.parametrize("spec", ["sierpinski:\u0668", "hadamard:+4", "setint:1_6", "sierpinski:"])
def test_gen_refuses_family_size_not_ascii_digits(capsys, spec):
    code, out, err = run(capsys, "gen", spec)
    assert code == 2 and out == "" and "bad generator spec" in err and "is not [0-9]+" in err


def test_gen_refuses_oversized_specs_before_generating(capsys, monkeypatch):
    class Generated(Exception):
        pass

    def refuse(*args):
        raise Generated

    for name in ("gen_random", "gen_sierpinski", "gen_hadamard", "gen_setintersection"):
        monkeypatch.setattr(f"lincirc.cli.{name}", refuse)
    for spec in ("random:4097:4096:1", "random:1:16777217:0", "sierpinski:8192",
                 "hadamard:4097", "setint:8192"):
        code, _, err = run(capsys, "gen", spec)
        assert code == 2 and "16777216 cells" in err
    for spec in ("random:4096:4096:1", "sierpinski:4096"):  # at the cap: generated
        with pytest.raises(Generated):
            run(capsys, "gen", spec)


def test_synth_refuses_oversized_family_sizes_before_building(capsys, monkeypatch):
    class Generated(Exception):
        pass

    def refuse(*args):
        raise Generated

    for name in ("gen_sierpinski", "gen_hadamard", "gen_setintersection"):
        monkeypatch.setattr(f"lincirc.cli.{name}", refuse)
    for name in ("sierpinski_circuit", "setintersection_or_circuit", "hadamard_circuit"):
        monkeypatch.setattr(f"lincirc.synthesis.{name}", refuse)
    for method in ("sierpinski", "setint", "hadamard"):
        code, _, err = run(capsys, "synth", "--method", method, "--n", "8192")
        assert code == 2 and "16777216 cells" in err
        with pytest.raises(Generated):  # at the cap: generated
            run(capsys, "synth", "--method", method, "--n", "4096")


def test_synth_check_pipeline(tmp_path, capsys):
    slp = tmp_path / "c.slp"
    code, _, _ = run(capsys, "synth", "--method", "sierpinski", "--n", "8", "--out", str(slp))
    assert code == 0
    code, out, _ = run(capsys, "check", "--in", str(slp), "--against", "sierpinski:8")
    assert code == 0
    assert "12 gates, cancellation-free" in out


def test_synth_methods_all_check(tmp_path, capsys):
    for method, against in [
        ("naive", "exampleA"),
        ("paar", "exampleA"),
        ("bp", "exampleA"),
        ("lupanov", "exampleA"),
        ("lupanov2", "exampleA"),
        ("setint", "setint:8"),
        ("hadamard", "hadamard:8"),
    ]:
        slp = tmp_path / f"{method}.slp"
        argv = ["synth", "--method", method, "--out", str(slp)]
        argv += ["--in", against] if method not in ("setint", "hadamard") else ["--n", "8"]
        code, _, _ = run(capsys, *argv)
        assert code == 0, method
        code, _, _ = run(capsys, "check", "--in", str(slp), "--against", against)
        assert code == 0, method


def test_synth_report_schema(tmp_path, capsys):
    slp = tmp_path / "c.slp"
    code, report, _ = run_json(
        capsys, "synth", "--method", "paar", "--in", "exampleA", "--out", str(slp)
    )
    assert code == 0
    assert report["type"] == "synth" and report["gates"] == 5


def test_synth_product(tmp_path, capsys):
    slp = tmp_path / "p.slp"
    code, _, _ = run(
        capsys, "synth", "--method", "product",
        "--in", "random:12:16:3", "--in2", "random:16:12:4", "--out", str(slp),
    )
    assert code == 0
    circ = lc.slp_loads(slp.read_text())
    target = lc.mul_gf2(lc.gen_random(12, 16, 3), lc.gen_random(16, 12, 4))
    assert lc.verify(circ, target)


def test_synth_family_input_mismatch(capsys):
    code, _, err = run(capsys, "synth", "--method", "sierpinski", "--in", "exampleA")
    assert code == 2 and "not the sierpinski matrix" in err
    for method in ("sierpinski", "setint", "hadamard"):
        for src in (["--n", "3"], ["--in", "random:3:3:1"]):
            code, _, err = run(capsys, "synth", "--method", method, *src)
            assert code == 2
            assert f"bad generator spec '{method}:3': size 3 is not a power of two" in err


def test_check_fixture_reports(capsys):
    fx = fixtures_dir()
    code, report, _ = run_json(
        capsys, "check", "--in", str(fx / "example_a_cf.slp"), "--against", "exampleA"
    )
    assert code == 0
    assert report == {
        "schema_version": 1, "type": "check",
        "verifies": True, "cancellation_free": True, "gates": 5, "depth": 3,
    }
    code, report, _ = run_json(
        capsys, "check", "--in", str(fx / "example_a_cancel.slp"), "--against", "exampleA"
    )
    assert code == 0
    assert report["gates"] == 4 and not report["cancellation_free"]
    code, report, _ = run_json(
        capsys, "check", "--in", str(fx / "example_a_depth2.slp"), "--against", "exampleA"
    )
    assert code == 0
    assert report["wires"] == 9 and report["depth"] == 2


def test_check_mismatch_exit_code(capsys):
    fx = fixtures_dir()
    code, _, _ = run(capsys, "check", "--in", str(fx / "example_a_cf.slp"), "--against", "sierpinski:4")
    assert code == 1


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.slp"
    bad.write_text("inputs 4 connective XOR\nt1 = x1 +\n")
    code, _, err = run(capsys, "check", "--in", str(bad), "--against", "exampleA")
    assert code == 2 and "line 2" in err


def test_exact_command(capsys):
    code, report, _ = run_json(capsys, "exact", "--in", "exampleA", "--model", "cf")
    assert code == 0
    assert report["optimal"] == 5 and report["model"] == "CF"
    assert report["states"] > 0
    code, out, _ = run(capsys, "exact", "--in", "exampleA", "--model", "cf")
    assert f"{report['states']} states" in out


def test_exact_witness_and_limit(tmp_path, capsys):
    w = tmp_path / "w.slp"
    code, report, _ = run_json(
        capsys, "exact", "--in", "exampleA", "--model", "xor", "--emit-witness", str(w)
    )
    assert code == 0 and report["optimal"] == 4
    assert lc.verify(lc.slp_loads(w.read_text()), lc.example_a())
    code, report, _ = run_json(
        capsys, "exact", "--in", "sierpinski:8", "--model", "xor", "--limit", "5"
    )
    assert code == 3 and report["exceeded"] and report["optimal"] is None


def test_exact_state_limit_exits_3(capsys, monkeypatch):
    tiny = functools.partial(exact_mod.optimal_size, max_states=2)
    monkeypatch.setattr(exact_mod, "optimal_size", tiny)
    code, _, err = run(capsys, "exact", "--in", "random:6:6:3", "--model", "xor")
    assert code == 3
    assert "exceeded 2 states" in err


def test_exact_refuses_more_than_16_columns(capsys):
    code, _, err = run(capsys, "exact", "--in", "random:2:17:1", "--model", "xor")
    assert code == 2
    assert "at most 16 columns" in err


def test_exact_refuses_a_negative_limit(capsys):
    # invalid input (exit 2), not an exhausted budget (exit 3)
    code, out, err = run(
        capsys, "exact", "--in", "random:4:4:1", "--model", "xor", "--limit", "-2"
    )
    assert code == 2
    assert "limit must be at least 0" in err and "no circuit" not in out


def test_bound_command(capsys):
    code, report, _ = run_json(capsys, "bound", "--in", "sierpinski:8", "--kfree", "1")
    assert code == 0
    assert report["sierpinski_closed_form"] == 12
    assert report["kfree"][0]["kind"] == "exact-not-free"
    code, report, _ = run_json(capsys, "bound", "--in", "hadamard:16")
    assert report["morgenstern_log2_absdet"] == pytest.approx(17.0)
    # --all adds the experiment's k = ceil(2 log2 n), 8 at n = 12
    code, report, _ = run_json(capsys, "bound", "--in", "random:12:12:1", "--all")
    assert code == 0 and [st["k"] for st in report["kfree"]] == [8]
    assert report["kfree"][0]["kind"] in ("exact-free", "exact-not-free")
    assert lc.ExperimentConfig(n=12, master_seed=0).freeness_k == 8


def test_bound_all_refuses_shapes_without_default_k(capsys):
    # the default k is defined for n x n matrices with n >= 2; --all on
    # any other shape is refused, not ignored
    for spec, shape in (("random:5:7:1", "5x7"), ("random:7:5:1", "7x5"), ("random:1:1:1", "1x1")):
        code, out, err = run(capsys, "bound", "--in", spec, "--all", "--json")
        assert code == 2 and out == "" and shape in err
        code, _, _ = run(capsys, "bound", "--in", spec)
        assert code == 0


def test_bound_requires_seed_for_evidence(capsys):
    code, _, err = run(capsys, "bound", "--in", "random:300:299:5", "--kfree", "16")
    assert code == 2 and "--seed" in err
    code, report, _ = run_json(
        capsys, "bound", "--in", "random:300:299:5", "--kfree", "16", "--seed", "9"
    )
    assert code == 0
    assert report["kfree"][0]["kind"] in ("evidence-free", "exact-not-free")


def test_census_command(capsys):
    code, report, _ = run_json(capsys, "census", "--n", "2")
    assert code == 0
    assert report["max_sizes"]["XOR"] == 1
    code, _, _ = run(capsys, "census", "--n", "4")
    assert code == 2


def test_lab_separation(capsys):
    code, report, _ = run_json(
        capsys, "lab", "separation", "--n", "16", "--trials", "2", "--seed", "5",
        "--budget", "2000", "--rank-samples", "5",
    )
    assert code == 0
    assert len(report["trials"]) == 2
    assert report["config"]["master_seed"] == 5


def test_lab_commands_require_seed(capsys):
    code, _, err = run(capsys, "lab", "separation", "--n", "16", "--trials", "2")
    assert code == 2 and "--seed" in err
    code, _, err = run(capsys, "lab", "bias", "--m", "2", "--mask", "00/0?", "--samples", "100")
    assert code == 2 and "--seed" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lab", "ramsey", "--in", "exampleA", "--t", "0", "--seed", "3"], "t must be"),
        (["bound", "--in", "exampleA", "--kfree", "0"], "k must be"),
        (["lab", "rankstats", "--in", "exampleA", "--k", "2", "--samples", "0", "--seed", "4"],
         "samples must be"),
        (["lab", "separation", "--n", "1", "--trials", "1", "--seed", "5"], "n must be"),
        (["lab", "separation", "--n", "16", "--trials", "0", "--seed", "5"], "trials must be"),
        (["lab", "separation", "--n", "16", "--trials", "1", "--seed", "5",
          "--rank-samples", "0"], "rank_samples must be"),
        (["lab", "separation", "--n", "16", "--trials", "1", "--seed", "5", "--c", "0"],
         "c must be"),
        (["lab", "separation", "--n", "16", "--trials", "1", "--seed", "5", "--budget", "-5"],
         "submatrix_budget must be"),
        (["lab", "sweep", "--ns", "16,1", "--trials", "1", "--seed", "5"], "n must be"),
        (["lab", "rankstats", "--in", "exampleA", "--k", "0", "--samples", "3", "--seed", "4"],
         "k must be >= 1"),
        (["lab", "rankstats", "--in", "exampleA", "--k", "-1", "--samples", "3", "--seed", "4"],
         "k must be >= 1"),
    ],
)
def test_out_of_range_arguments_exit_invalid(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and message in err and out == ""


def test_lab_rankstats_and_ramsey(capsys):
    code, report, _ = run_json(
        capsys, "lab", "rankstats", "--in", "random:30:30:8", "--k", "6",
        "--samples", "10", "--seed", "4",
    )
    assert code == 0 and report["samples"] == 10
    code, report, _ = run_json(
        capsys, "lab", "ramsey", "--in", "exampleA", "--t", "2", "--budget", "500", "--seed", "3"
    )
    assert code == 0 and report["status"] == "refuted"


def test_lab_bias(capsys):
    code, report, _ = run_json(
        capsys, "lab", "bias", "--m", "2", "--mask", "00/0?", "--samples", "20000", "--seed", "7"
    )
    assert code == 0
    assert report["status"] == "ok"
    assert 0.4 < report["estimate"] < 0.6
    # degenerate acceptance: budget exit code
    code, report, _ = run_json(
        capsys, "lab", "bias", "--m", "2", "--mask", "11/1?", "--samples", "50", "--seed", "7"
    )
    assert code == 3 and report["status"] == "insufficient-samples"


def test_lab_sweep(capsys):
    code, report, _ = run_json(
        capsys, "lab", "sweep", "--ns", "16,32", "--trials", "2", "--seed", "6",
        "--budget", "1000", "--rank-samples", "4",
    )
    assert code == 0
    assert len(report["points"]) == 2


def test_unknown_flags_exit_2(capsys):
    code, _, _ = run(capsys, "exact", "--in", "exampleA", "--model", "nand")
    assert code == 2
    code, _, _ = run(capsys, "bogus")
    assert code == 2


def test_synth_and_check_read_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(lc.example_a().to_text()))
    slp = tmp_path / "naive.slp"
    code, _, _ = run(capsys, "synth", "--method", "naive", "--out", str(slp))
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(slp.read_text()))
    code, out, _ = run(capsys, "check", "--against", "exampleA")
    assert code == 0 and "8 gates" in out


def test_matrix_json_file_input(tmp_path, capsys):
    blob = {"schema_version": 1, "type": "matrix", **lc.example_a().to_json_dict()}
    path = tmp_path / "a.json"
    path.write_text(json.dumps(blob))
    code, report, _ = run_json(capsys, "exact", "--in", str(path), "--model", "xor")
    assert code == 0 and report["optimal"] == 4


# ---------------------------------------------------------------------------
# Transcript: exit code, stdout, stderr and written files of every command


def _transcript_cases():
    """(argv, stdin) pairs covering every subcommand, every ``synth``
    method with and without ``--out``, ``--json`` and ``--json PATH``,
    stdin input, and the refusal paths whose message is the library's."""
    ex_a = lc.example_a().to_text()
    cases = []
    sources = {
        "naive": ["--in", "exampleA"],
        "paar": ["--in", "exampleA"],
        "bp": ["--in", "exampleB"],
        "lupanov": ["--in", "random:6:9:2"],
        "lupanov2": ["--in", "random:6:9:2"],
        "sierpinski": ["--n", "8"],
        "setint": ["--n", "8"],
        "hadamard": ["--n", "8"],
        "product": ["--in", "random:12:16:3", "--in2", "random:16:12:4"],
    }
    for method, src in sources.items():
        for out in ([], ["--out", "c.slp"]):
            for js in ([], ["--json"], ["--json", "r.json"]):
                cases.append((["synth", "--method", method, *src, *out, *js], None))
    for method in ("naive", "paar", "bp", "lupanov", "lupanov2"):
        cases.append((["synth", "--method", method], ex_a))
    for method, spec in (("sierpinski", "sierpinski:8"), ("setint", "setint:4"),
                         ("hadamard", "hadamard:16")):
        cases.append((["synth", "--method", method], parse_genspec(spec).to_text()))
        cases.append((["synth", "--method", method, "--in", spec, "--json"], None))
    cases += [
        (["synth", "--method", "naive", "--in", "m.txt"], None),
        (["synth", "--method", "paar", "--in", "m.json", "--out", "c.slp"], None),
        (["synth", "--method", "product", "--in", "random:8:9:1", "--in2", "random:9:8:2",
          "--depth-mode", "depth4", "--out", "c.slp", "--json"], None),
        (["synth", "--method", "product", "--in", "random:8:9:1"], None),
        (["synth", "--method", "product", "--in", "random:8:9:1", "--in2", "random:8:9:2"], None),
        (["synth", "--method", "sierpinski", "--in", "exampleA"], None),
        (["synth", "--method", "hadamard", "--in", "random:4:8:1"], None),
        (["synth", "--method", "naive", "--in", "missing.txt"], None),
        (["synth", "--method", "naive", "--in", "bad.txt"], None),
        (["synth", "--method", "naive", "--in", "random:1:2"], None),
        (["synth", "--method", "naive"], ""),
        (["gen", "sierpinski:8"], None),
        (["gen", "random:3:5:1", "--json"], None),
        (["gen", "hadamard:4", "--out", "g.txt"], None),
        (["gen", "nonsense:8"], None),
        (["gen", "random:4097:4096:1"], None),
    ]
    for name in ("example_a_cf.slp", "example_a_cancel.slp", "example_a_depth2.slp"):
        cases.append((["check", "--in", name, "--against", "exampleA"], None))
        cases.append((["check", "--in", name, "--against", "exampleA", "--json"], None))
        cases.append((["check", "--in", name, "--against", "exampleA", "--json", "r.json"], None))
    cases += [
        (["check", "--in", "example_a_cf.slp", "--against", "sierpinski:4"], None),
        (["check", "--in", "example_a_cf.slp", "--against", "exampleB", "--json"], None),
        (["check", "--against", "exampleA"], (fixtures_dir() / "example_a_cf.slp").read_text()),
        (["check", "--in", "bad.slp", "--against", "exampleA"], None),
        (["check", "--in", "missing.slp", "--against", "exampleA"], None),
        (["exact", "--in", "exampleA", "--model", "xor"], None),
        (["exact", "--in", "exampleA", "--model", "cf", "--json"], None),
        (["exact", "--in", "exampleB", "--model", "or", "--emit-witness", "w.slp"], None),
        (["exact", "--in", "sierpinski:8", "--model", "xor", "--limit", "5", "--json"], None),
        (["exact", "--in", "random:2:17:1", "--model", "xor"], None),
        (["bound", "--in", "sierpinski:8", "--kfree", "1"], None),
        (["bound", "--in", "sierpinski:8", "--all", "--json"], None),
        (["bound", "--in", "sierpinski:16", "--all", "--kst", "3", "--json", "r.json"], None),
        (["bound", "--in", "hadamard:16", "--json"], None),
        (["bound", "--in", "random:300:300:5", "--kfree", "16"], None),
        (["bound", "--in", "random:40:40:5", "--kfree", "8", "--seed", "9", "--budget", "500",
          "--json"], None),
        (["census", "--n", "2", "--json"], None),
        (["census", "--n", "2"], None),
        (["census", "--n", "4"], None),
        (["lab", "separation", "--n", "16", "--trials", "2", "--seed", "5", "--budget", "500",
          "--rank-samples", "3"], None),
        (["lab", "separation", "--n", "16", "--trials", "1", "--seed", "6", "--budget", "500",
          "--rank-samples", "3", "--json"], None),
        (["lab", "rankstats", "--in", "random:30:30:8", "--k", "6", "--samples", "10",
          "--seed", "4", "--json"], None),
        (["lab", "rankstats", "--in", "random:30:30:8", "--k", "6", "--samples", "10",
          "--seed", "4"], None),
        (["lab", "ramsey", "--in", "exampleA", "--t", "2", "--budget", "500", "--seed", "3"],
         None),
        (["lab", "ramsey", "--in", "random:40:40:1", "--t", "6", "--budget", "500", "--seed", "3",
          "--json"], None),
        (["lab", "bias", "--m", "2", "--mask", "00/0?", "--samples", "5000", "--seed", "7"],
         None),
        (["lab", "bias", "--m", "2", "--mask", "11/1?", "--samples", "50", "--seed", "7",
          "--json"], None),
        (["lab", "bias", "--m", "2", "--mask", "0x/0?", "--samples", "50", "--seed", "7"], None),
        (["lab", "sweep", "--ns", "16,32", "--trials", "1", "--seed", "6", "--budget", "300",
          "--rank-samples", "2", "--json", "r.json"], None),
        (["lab", "sweep", "--ns", ",", "--trials", "1", "--seed", "6"], None),
    ]
    return cases


def _run_transcript_case(argv, stdin, monkeypatch, capsys, workdir):
    """Run one command in ``workdir``; returns its exit code, output and
    the files it wrote (which are removed again)."""
    before = {p.name for p in workdir.iterdir()}
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    written = {}
    for p in sorted(workdir.iterdir()):
        if p.name not in before:
            written[p.name] = p.read_text()
            p.unlink()
    return [code, captured.out, captured.err, written]


def test_cli_transcript_matches_pinned_digest(tmp_path, capsys, monkeypatch):
    """Pins every case's exit code, stdout, stderr and written files byte
    for byte.  argparse's own refusals are not among the cases: their
    text differs between Python versions."""
    (tmp_path / "m.txt").write_text(lc.gen_random(5, 7, 11).to_text())
    (tmp_path / "m.json").write_text(json.dumps(lc.example_b().to_json_dict()))
    (tmp_path / "bad.txt").write_text("2 2\n01\n0x\n")
    (tmp_path / "bad.slp").write_text("inputs 4 connective XOR\nt1 = x1 + x9\n")
    for fixture in fixtures_dir().glob("*.slp"):
        (tmp_path / fixture.name).write_text(fixture.read_text())
    monkeypatch.chdir(tmp_path)
    transcript = [
        [argv, _run_transcript_case(argv, stdin, monkeypatch, capsys, tmp_path)]
        for argv, stdin in _transcript_cases()
    ]
    digest = hashlib.sha256(json.dumps(transcript).encode()).hexdigest()
    assert digest == "3c96ce8c3bbe2c75d980e77aa890ead426a3ccda04fa00e4eff022f0d8fdf6e9"
