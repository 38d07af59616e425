import functools
import json

import jsonschema
import pytest

import lincirc as lc
from lincirc import exact as exact_mod
from lincirc.cli import fixtures_dir, main, schema_path


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


def test_bound_command(capsys):
    code, report, _ = run_json(capsys, "bound", "--in", "sierpinski:8", "--kfree", "1")
    assert code == 0
    assert report["sierpinski_closed_form"] == 12
    assert report["kfree"][0]["kind"] == "exact-not-free"
    code, report, _ = run_json(capsys, "bound", "--in", "hadamard:16")
    assert report["morgenstern_log2_absdet"] == pytest.approx(17.0)


def test_bound_requires_seed_for_evidence(capsys):
    code, _, err = run(capsys, "bound", "--in", "random:300:300:5", "--kfree", "16")
    assert code == 2 and "--seed" in err
    code, report, _ = run_json(
        capsys, "bound", "--in", "random:300:300:5", "--kfree", "16", "--seed", "9"
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
