"""Independent checks of every result the benchmark gets back.

Nothing here calls ``lincirc.verify`` or another checker of the library:
the matrix a circuit computes is recomputed by a value-vector pass over its
gate list, supports are tested on those vectors, and the separation
density is recomputed with a NumPy matrix product.  Each check returns
``None`` when the result is correct and a short reason otherwise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

XOR = "XOR"
OR = "OR"


def matrix_rows(a) -> list[int]:
    """Rows of a BitMatrix as bit-packed ints (bit j = column j)."""
    return [a.row(i) for i in range(a.rows)]


def computed_rows(n_inputs: int, connective: str, gates, outputs) -> list[int]:
    """Rows of the matrix a fan-in-2 circuit computes: one forward pass of
    value vectors, XOR or OR at every gate, ``None`` outputs are zero."""
    vv = [1 << i for i in range(n_inputs)]
    if connective == XOR:
        for a, b in gates:
            vv.append(vv[a] ^ vv[b])
    elif connective == OR:
        for a, b in gates:
            vv.append(vv[a] | vv[b])
    else:
        raise ValueError(f"unknown connective {connective!r}")
    return [0 if o is None else vv[o] for o in outputs]


def disjoint_supports(n_inputs: int, gates) -> bool:
    """True iff the two children of every gate have disjoint supports.

    Under that condition XOR and OR agree gate by gate, so the vectors can
    be built with OR whatever the circuit's connective."""
    vv = [1 << i for i in range(n_inputs)]
    for a, b in gates:
        if vv[a] & vv[b]:
            return False
        vv.append(vv[a] | vv[b])
    return True


def distinct_heavy_rows(rows: list[int]) -> int:
    """Each distinct row of weight >= 2 needs a gate of its own."""
    return len({r for r in rows if r.bit_count() >= 2})


def naive_cost(rows: list[int]) -> int:
    """Gates of the row-by-row circuit: weight - 1 per nonzero row."""
    return sum(r.bit_count() - 1 for r in rows if r)


def check_exact(rows: list[int], n: int, model: str, outcome, known: Optional[int]) -> Optional[str]:
    """An ``optimal_size`` outcome: a witness that computes the matrix with
    exactly the reported number of gates, obeys its model, and an optimum
    between the distinct-heavy-rows bound and the row-by-row cost (and
    equal to ``known`` when the optimum is known in advance)."""
    opt = outcome.optimal_size
    w = outcome.witness
    if outcome.exceeded or opt is None or w is None:
        return "no optimum returned"
    if len(w.gates) != opt:
        return f"witness has {len(w.gates)} gates, optimum says {opt}"
    want = OR if model == OR else XOR
    if w.connective != want:
        return f"witness connective {w.connective} in model {model}"
    if w.n_inputs != n or computed_rows(n, w.connective, w.gates, w.outputs) != rows:
        return "witness does not compute the matrix"
    if model == "CF" and not disjoint_supports(n, w.gates):
        return "CF witness cancels"
    if not distinct_heavy_rows(rows) <= opt <= naive_cost(rows):
        return f"optimum {opt} outside [{distinct_heavy_rows(rows)}, {naive_cost(rows)}]"
    if known is not None and opt != known:
        return f"optimum {opt}, expected {known}"
    return None


def check_synthesis(rows: list[int], n: int, result, parsed) -> Optional[str]:
    """A greedy synthesis result after its SLP round trip: the parsed
    circuit computes the matrix with ``result.cost`` gates, and the
    result's cancellation-free flag matches a disjoint-support test."""
    if parsed.connective != XOR or parsed.n_inputs != n:
        return "parsed circuit has the wrong header"
    if len(parsed.gates) != result.cost:
        return f"parsed circuit has {len(parsed.gates)} gates, cost says {result.cost}"
    if computed_rows(n, XOR, parsed.gates, parsed.outputs) != rows:
        return "parsed circuit does not compute the matrix"
    if result.cancellation_free != disjoint_supports(n, parsed.gates):
        return "cancellation-free flag disagrees with the support test"
    return None


def bit_array(rows: list[int], cols: int) -> np.ndarray:
    """0/1 array of a bit-packed matrix, column j = bit j."""
    nbytes = max(1, (cols + 7) // 8)
    buf = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(rows), nbytes * 8)[:, :cols]


def check_trial(report, b_rows: list[int], c_rows: list[int], inner: int) -> Optional[str]:
    """A separation trial: Sylvester inequality held, no monochromatic
    witness, composed circuit within 53 n gates, and a density equal to
    one recomputed from the factors with a NumPy product mod 2."""
    n = report.n
    if not report.sylvester_ok:
        return "Sylvester rank inequality failed"
    if report.allones_witness is not None or report.allzeros_witness is not None:
        return "monochromatic submatrix witness found"
    if report.composed_gates > 53 * n:
        return f"composed circuit has {report.composed_gates} > 53 n gates"
    prod = (bit_array(b_rows, inner).astype(np.int32) @ bit_array(c_rows, n).astype(np.int32)) & 1
    density = int(prod.sum()) / (n * n)
    if density != report.density:
        return f"density {report.density} != recomputed {density}"
    return None
