"""Command-line front end.

Subcommands: ``gen``, ``synth``, ``check``, ``bound``, ``exact``, ``lab``
(``separation`` / ``rankstats`` / ``ramsey`` / ``bias`` / ``sweep``) and
``census``.  Matrix arguments accept either a file path (text or JSON
format) or a generator spec: ``sierpinski:8``, ``hadamard:16``,
``setint:8``, ``random:<m>:<n>:<seed>``, ``exampleA``, ``exampleB``;
a spec of more than :data:`~lincirc.matrices.MAX_CELLS` cells is refused.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 budget or search limit exceeded.  Every randomized command requires an
explicit ``--seed``.  All reports are available as JSON (``--json`` to
stdout, ``--json PATH`` to a file) and carry a schema version; the schema
ships as ``report.schema.json`` next to this module.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import bounds as bounds_mod
from . import exact as exact_mod
from . import lab as lab_mod
from . import synthesis as synth_mod
from .circuits import (
    LayeredCircuit,
    check,
    depth,
    size_gates,
    size_wires,
    slp_dumps,
    slp_loads,
)
from .matrices import (
    BitMatrix,
    BudgetExceededError,
    EVIDENCE_BUDGET,
    MAX_CELLS,
    _ascii_size,
    _json_value,
    example_a,
    example_b,
    gen_hadamard,
    gen_random,
    gen_setintersection,
    gen_sierpinski,
    kfree_enumeration_feasible,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


def schema_path() -> Path:
    return Path(__file__).with_name("report.schema.json")


def fixtures_dir() -> Path:
    return Path(__file__).with_name("fixtures")


# ---------------------------------------------------------------------------
# Argument helpers


def parse_genspec(spec: str) -> Optional[BitMatrix]:
    """Generator spec to matrix, or None if it does not look like one."""
    if spec == "exampleA":
        return example_a()
    if spec == "exampleB":
        return example_b()
    head, _, rest = spec.partition(":")
    makers = {"sierpinski": gen_sierpinski, "hadamard": gen_hadamard, "setint": gen_setintersection}
    if head in makers:
        try:
            n = _ascii_size(rest)
            _check_spec_cells(spec, n, n)
            return makers[head](n)
        except ValueError as exc:
            raise CliError(f"bad generator spec {spec!r}: {exc}") from exc
    if head == "random":
        parts = rest.split(":")
        if len(parts) != 3:
            raise CliError(f"random spec takes m:n:seed, got {spec!r}")
        try:
            m, n, seed = (_ascii_size(p) for p in parts)
        except ValueError as exc:
            raise CliError(f"bad random spec {spec!r}") from exc
        _check_spec_cells(spec, m, n)
        return gen_random(m, n, seed)
    return None


def _check_spec_cells(spec: str, m: int, n: int) -> None:
    """Refuse a generator spec larger than :data:`MAX_CELLS` before any
    memory is spent on it."""
    if m * n > MAX_CELLS:
        raise CliError(f"generator spec {spec!r} exceeds {MAX_CELLS} cells (4096x4096)")


def load_matrix_arg(arg: str) -> BitMatrix:
    gen = parse_genspec(arg)
    if gen is not None:
        return gen
    path = Path(arg)
    if not path.exists():
        raise CliError(f"{arg!r} is neither a generator spec nor an existing file")
    text = path.read_text()
    try:
        if text.lstrip().startswith("{"):
            return BitMatrix.from_json_dict(json.loads(text))
        return BitMatrix.from_text(text)
    except (ValueError, KeyError) as exc:
        raise CliError(f"cannot parse matrix file {arg}: {exc}") from exc


def _read_circuit(path_arg: Optional[str]):
    text = sys.stdin.read() if path_arg in (None, "-") else Path(path_arg).read_text()
    return slp_loads(text)


def _write_report(report: dict, path: str) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")


def _emit_report(report: dict, args, human: str) -> None:
    """The human line, or with ``--json`` the report (``--json PATH``: both)."""
    report = {"schema_version": SCHEMA_VERSION, **report}
    target = getattr(args, "json", None)
    if target == "-":
        print(json.dumps(report, indent=2))
        return
    if target is not None:
        _write_report(report, target)
    print(human)


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit the JSON report (to stdout, or to PATH)",
    )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args) -> int:
    mat = parse_genspec(args.spec)
    if mat is None:
        raise CliError(f"unknown generator spec {args.spec!r}")
    if args.json is not None:
        payload = {"schema_version": SCHEMA_VERSION, "type": "matrix", **mat.to_json_dict()}
        out = json.dumps(payload, indent=2) + "\n"
    else:
        out = mat.to_text()
    if args.out:
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def _input_matrix(args) -> BitMatrix:
    if args.infile:
        return load_matrix_arg(args.infile)
    return BitMatrix.from_text(sys.stdin.read())


#: ``synth`` methods and their :mod:`lincirc.synthesis` functions, looked
#: up when the command runs (the families take their size from a spec).
_SYNTH_METHODS = {
    "naive": "naive_rowwise",
    "paar": "paar_greedy",
    "bp": "boyar_peralta",
    "lupanov": "lupanov",
    "lupanov2": "lupanov_depth2",
    "sierpinski": "sierpinski_circuit",
    "setint": "setintersection_or_circuit",
    "hadamard": "hadamard_circuit",
    "product": "product_circuit",
}
_FAMILY_METHODS = ("sierpinski", "setint", "hadamard")


def _summary(cost: int, layered: bool, cancellation_free: bool) -> str:
    """The human line of ``synth`` and ``check``."""
    unit = "wires" if layered else "gates"
    return f"{cost} {unit}, {'cancellation-free' if cancellation_free else 'uses cancellation'}"


def cmd_synth(args) -> int:
    method = args.method
    construct = getattr(synth_mod, _SYNTH_METHODS[method])
    if method == "product":
        if not (args.infile and args.in2):
            raise CliError("product needs --in (left factor) and --in2 (right factor)")
        res = construct(load_matrix_arg(args.infile), load_matrix_arg(args.in2), args.depth_mode)
    elif method in _FAMILY_METHODS:
        if args.n is not None:
            n = args.n
            parse_genspec(f"{method}:{n}")  # the size checks of a spec
        else:
            mat = _input_matrix(args)
            n = mat.rows
            if mat != parse_genspec(f"{method}:{n}"):
                raise CliError(f"input matrix is not the {method} matrix of size {n}")
        res = construct(n)
    else:
        res = construct(_input_matrix(args))
    slp = slp_dumps(res.circuit)
    layered = isinstance(res.circuit, LayeredCircuit)
    report = {
        "type": "synth",
        "method": res.method,
        ("wires" if layered else "gates"): res.cost,
        "depth": depth(res.circuit),
        "cancellation_free": res.cancellation_free,
        "params": _json_value(res.params),
    }
    if args.out:
        Path(args.out).write_text(slp)
        _emit_report(report, args, _summary(res.cost, layered, res.cancellation_free))
        return EXIT_OK
    sys.stdout.write(slp)
    # keep stdout clean for piping; the report goes to --json PATH or stderr
    report = {"schema_version": SCHEMA_VERSION, **report}
    if args.json and args.json != "-":
        _write_report(report, args.json)
    else:
        print(json.dumps(report), file=sys.stderr)
    return EXIT_OK


def cmd_check(args) -> int:
    circuit = _read_circuit(args.infile)
    target = load_matrix_arg(args.against)
    layered = isinstance(circuit, LayeredCircuit)
    ok, cf = check(circuit, target)
    report = {
        "type": "check",
        "verifies": ok,
        "cancellation_free": cf,
        "gates": size_gates(circuit),
        "depth": depth(circuit),
    }
    if layered:
        report["wires"] = size_wires(circuit)
    human = _summary(report["wires"] if layered else report["gates"], layered, cf)
    if not ok:
        human += " -- DOES NOT COMPUTE the target matrix"
    _emit_report(report, args, human)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_exact(args) -> int:
    mat = load_matrix_arg(args.infile)
    model = args.model.upper()
    out = exact_mod.optimal_size(mat, model, limit=args.limit)
    report = {
        "type": "exact",
        "model": model,
        "optimal": out.optimal_size,
        "nodes": out.nodes_expanded,
        "tight_children": out.tight_children,
        "spare_two_dead": out.spare_two_dead,
        "limit": out.limit,
        "exceeded": out.exceeded,
    }
    if out.witness is not None and args.emit_witness:
        Path(args.emit_witness).write_text(slp_dumps(out.witness))
    effort = f"{out.nodes_expanded} nodes"
    human = (
        f"optimal {model} size {out.optimal_size} ({effort})"
        if not out.exceeded
        else f"no circuit within {out.limit} gates ({effort})"
    )
    _emit_report(report, args, human)
    return EXIT_BUDGET if out.exceeded else EXIT_OK


def cmd_bound(args) -> int:
    mat = load_matrix_arg(args.infile)
    ks = tuple(args.kfree or ())
    if args.all:
        if mat.rows != mat.cols or mat.rows < 2:
            raise CliError(f"--all needs an n x n matrix with n >= 2, got {mat.rows}x{mat.cols}")
        auto_k = bounds_mod.default_freeness_k(mat.rows)
        if auto_k not in ks:
            ks = ks + (auto_k,)
    needs_seed = not all(kfree_enumeration_feasible(mat, k) for k in ks)
    if needs_seed and args.seed is None:
        raise CliError("k-freeness at this size is evidence-based: --seed is required")
    report_obj = bounds_mod.bound_report(
        mat,
        kfree_ks=ks,
        kst_a=args.kst,
        evidence_budget=args.budget,
        seed=args.seed if args.seed is not None else 0,
    )
    report = {"type": "bound", **report_obj.to_dict()}
    morg = report_obj.morgenstern_log2_absdet
    human_bits = [f"rank {report_obj.rank_gf2}", f"heavy rows {report_obj.distinct_heavy_rows}"]
    if morg is not None:
        human_bits.append(f"log2|det| {morg:.3f}")
    if report_obj.sierpinski_closed_form is not None:
        human_bits.append(f"sierpinski bound {report_obj.sierpinski_closed_form}")
    _emit_report(report, args, ", ".join(human_bits))
    return EXIT_OK


def cmd_census(args) -> int:
    rep = exact_mod.census(args.n)
    report = {"type": "census", **rep.to_dict()}
    _emit_report(
        report,
        args,
        f"census n={args.n}: max ratio CF/XOR = {rep.max_ratio_cf_over_xor:.3f} "
        f"over {rep.matrices} matrices",
    )
    return EXIT_OK


def cmd_lab_separation(args) -> int:
    rep = lab_mod.run_experiment(_experiment_config(args, args.n), threads=args.threads)
    human = (
        f"n={args.n}: min density {rep.min_density:.4f}, "
        f"max composed gates {rep.max_composed_gates}, "
        f"median ratio proxy {rep.median_ratio_proxy}"
    )
    _emit_report({"type": "lab.separation", **rep.to_dict()}, args, human)
    return EXIT_OK


def cmd_lab_rankstats(args) -> int:
    mat = load_matrix_arg(args.infile)
    stats = lab_mod.submatrix_rank_stats(mat, args.k, args.samples, args.seed)
    report = {"type": "lab.rankstats", "seed": args.seed, **stats.to_dict()}
    _emit_report(report, args, f"k={args.k}: min rank {stats.min_rank}, mean {stats.mean_rank:.2f}")
    return EXIT_OK


def cmd_lab_ramsey(args) -> int:
    out = lab_mod.ramsey_check(load_matrix_arg(args.infile), args.t, args.budget, args.seed)
    _emit_report({"type": "lab.ramsey", **out.to_dict()}, args, f"t={args.t}: {out.status}")
    return EXIT_OK


def cmd_lab_bias(args) -> int:
    mask = _parse_mask_spec(args.mask)
    rep = lab_mod.estimate_conditional_bias(
        args.m, mask, args.samples, args.seed, min_accepted=args.min_accepted
    )
    report = {"type": "lab.bias", **rep.to_dict()}
    if rep.status != "ok":
        _emit_report(report, args, f"insufficient samples ({rep.accepted} accepted)")
        return EXIT_BUDGET
    _emit_report(
        report, args,
        f"estimate {rep.estimate:.4f} in [{rep.wilson_low:.4f}, {rep.wilson_high:.4f}] "
        f"({rep.accepted} accepted)",
    )
    return EXIT_OK


def cmd_lab_sweep(args) -> int:
    ns = [int(tok) for tok in args.ns.split(",") if tok]
    if not ns:
        raise CliError("--ns needs at least one size")
    rep = lab_mod.ratio_sweep(ns, _experiment_config(args, ns[0]), threads=args.threads)
    human = "; ".join(
        f"n={p.n}: proxy {p.median_ratio_proxy and round(p.median_ratio_proxy, 5)}, "
        f"heuristic {p.median_heuristic_ratio:.2f}"
        for p in rep.points
    )
    _emit_report({"type": "lab.sweep", **rep.to_dict()}, args, human)
    return EXIT_OK


def _experiment_config(args, n: int):
    return lab_mod.ExperimentConfig(
        n=n,
        master_seed=args.seed,
        c=args.c,
        trials=args.trials,
        submatrix_budget=args.budget,
        rank_samples=args.rank_samples,
    )


def _parse_mask_spec(spec: str):
    rows = spec.split("/")
    out = []
    for row in rows:
        vals = []
        for ch in row:
            if ch == "?":
                vals.append(None)
            elif ch in "01":
                vals.append(int(ch))
            else:
                raise CliError(f"mask characters must be 0, 1 or ?, got {ch!r}")
        out.append(vals)
    return out


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c", type=int, default=lab_mod.DEFAULT_C)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, default=EVIDENCE_BUDGET)
    p.add_argument(
        "--rank-samples", dest="rank_samples", type=int, default=lab_mod.DEFAULT_RANK_SAMPLES
    )
    p.add_argument("--threads", type=int, default=1)
    _add_json_flag(p)


def build_parser() -> _Parser:
    p = _Parser(prog="lincirc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit a generator matrix")
    g.add_argument("spec")
    g.add_argument("--out")
    _add_json_flag(g)
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("synth", help="synthesize a circuit for a matrix")
    s.add_argument(
        "--method",
        required=True,
        choices=list(_SYNTH_METHODS),
    )
    s.add_argument("--in", dest="infile", help="matrix file or generator spec (default: stdin)")
    s.add_argument("--in2", dest="in2", help="second factor for --method product")
    s.add_argument("--n", type=int, help="size for the family constructions")
    s.add_argument("--depth-mode", choices=["fanin2", "depth4"], default="fanin2")
    s.add_argument("--out", help="write the SLP here (default: stdout)")
    _add_json_flag(s)
    s.set_defaults(fn=cmd_synth)

    c = sub.add_parser("check", help="verify an SLP against a matrix")
    c.add_argument("--in", dest="infile", help="SLP file (default: stdin)")
    c.add_argument("--against", required=True, help="matrix file or generator spec")
    _add_json_flag(c)
    c.set_defaults(fn=cmd_check)

    e = sub.add_parser("exact", help="optimal circuit size by exhaustive search")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--model", required=True, choices=["xor", "cf", "or"])
    e.add_argument("--limit", type=int, default=exact_mod.DEFAULT_LIMIT)
    e.add_argument("--emit-witness", dest="emit_witness")
    _add_json_flag(e)
    e.set_defaults(fn=cmd_exact)

    b = sub.add_parser("bound", help="lower-bound certificates for a matrix")
    b.add_argument("--in", dest="infile", required=True)
    b.add_argument("--kfree", type=int, action="append", metavar="K")
    b.add_argument("--kst", type=int, metavar="A")
    b.add_argument(
        "--all", action="store_true",
        help="include the default k-freeness quantity (n x n input, n >= 2)",
    )
    b.add_argument("--seed", type=int)
    b.add_argument("--budget", type=int, default=EVIDENCE_BUDGET)
    _add_json_flag(b)
    b.set_defaults(fn=cmd_bound)

    n = sub.add_parser("census", help="exhaustive tiny-n optima census")
    n.add_argument("--n", type=int, required=True)
    _add_json_flag(n)
    n.set_defaults(fn=cmd_census)

    lab = sub.add_parser("lab", help="seeded experiments")
    labsub = lab.add_subparsers(dest="lab_command", required=True)

    sep = labsub.add_parser("separation")
    sep.add_argument("--n", type=int, required=True)
    _add_experiment_args(sep)
    sep.set_defaults(fn=cmd_lab_separation)

    rk = labsub.add_parser("rankstats")
    rk.add_argument("--in", dest="infile", required=True)
    rk.add_argument("--k", type=int, required=True)
    rk.add_argument("--samples", type=int, required=True)
    rk.add_argument("--seed", type=int, required=True)
    _add_json_flag(rk)
    rk.set_defaults(fn=cmd_lab_rankstats)

    rm = labsub.add_parser("ramsey")
    rm.add_argument("--in", dest="infile", required=True)
    rm.add_argument("--t", type=int, required=True)
    rm.add_argument("--budget", type=int, default=EVIDENCE_BUDGET)
    rm.add_argument("--seed", type=int, required=True)
    _add_json_flag(rm)
    rm.set_defaults(fn=cmd_lab_ramsey)

    bi = labsub.add_parser("bias")
    bi.add_argument("--m", type=int, required=True)
    bi.add_argument("--mask", required=True, help="rows of 0/1/? separated by '/', e.g. 00/0?")
    bi.add_argument("--samples", type=int, required=True)
    bi.add_argument("--seed", type=int, required=True)
    bi.add_argument("--min-accepted", dest="min_accepted", type=int, default=lab_mod.DEFAULT_MIN_ACCEPTED)
    _add_json_flag(bi)
    bi.set_defaults(fn=cmd_lab_bias)

    sw = labsub.add_parser("sweep")
    sw.add_argument("--ns", required=True, help="comma-separated sizes, e.g. 64,128,256")
    _add_experiment_args(sw)
    sw.set_defaults(fn=cmd_lab_sweep)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(f"lincirc: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExceededError as exc:
        print(f"lincirc: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:  # ParseError, DimensionError included
        print(f"lincirc: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
