"""Exact Boolean matrix arithmetic over GF(2) and the OR-AND semiring.

A :class:`BitMatrix` stores each row as a Python int: bit ``j`` of row
``i`` (value ``1 << j``) is the entry in column ``j``.  Python ints give
arbitrary width, O(1)-ish row XOR/AND/OR, and fast popcounts, which is all
the elimination and submatrix search below need.

The module also provides the recursive matrix families used throughout
the package (Sierpinski / set-intersection / Boolean Sylvester-Hadamard),
seeded uniform random matrices, exact GF(2) rank and rank factorization,
exact integer determinants, k-freeness checking (exact and heuristic),
and the text / JSON interchange formats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat
from operator import or_, xor
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .rng import SplitMix64

#: Elementary-step ceiling for exact all-ones-submatrix enumeration.
ENUMERATION_BUDGET = 10**9

#: Default step budget of the randomized all-ones-submatrix search, the
#: evidence behind every "evidence-free" k-freeness verdict.
EVIDENCE_BUDGET = 50_000

#: Largest matrix, in cells, that a generator spec or an experiment may
#: ask for: 4096 x 4096.
MAX_CELLS = 1 << 24


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


class BudgetExceededError(RuntimeError):
    """A budget or search limit was reached before an answer was proved."""


class BitMatrix:
    """Dense Boolean matrix with bit-packed rows, immutable once built."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: Iterable[int]):
        if rows < 0 or cols < 0:
            raise DimensionError(f"negative shape {rows}x{cols}")
        packed = tuple(data)
        if len(packed) != rows:
            raise DimensionError(f"expected {rows} rows, got {len(packed)}")
        limit = 1 << cols
        for i, r in enumerate(packed):
            if not 0 <= r < limit:
                raise ValueError(f"row {i} does not fit in {cols} columns")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_data", packed)

    def __setattr__(self, name, value):
        raise AttributeError("BitMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: Optional[int] = None) -> "BitMatrix":
        """Build from row lists of 0/1 entries."""
        packed = []
        width = cols
        for row in rows:
            entries = list(row)
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise DimensionError("ragged rows")
            acc = 0
            for j, e in enumerate(entries):
                if e not in (0, 1):
                    raise ValueError(f"entry {e!r} is not Boolean")
                acc |= e << j
            packed.append(acc)
        if width is None:
            raise DimensionError("cannot infer column count from no rows")
        return cls(len(packed), width, packed)

    def row(self, i: int) -> int:
        return self._data[i]

    def row_bits(self, i: int) -> list[int]:
        r = self._data[i]
        return [(r >> j) & 1 for j in range(self.cols)]

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return (self._data[i] >> j) & 1

    def transpose(self) -> "BitMatrix":
        """The transpose: the rows unpacked by numpy into a rows x cols
        table of bits, and its columns packed back into rows."""
        width = (self.cols + 7) // 8
        raw = np.frombuffer(
            b"".join(r.to_bytes(width, "little") for r in self._data), dtype=np.uint8
        ).reshape(self.rows, width)
        bits = np.unpackbits(raw, axis=1, count=self.cols, bitorder="little")
        packed = np.packbits(bits.T, axis=1, bitorder="little").tobytes()
        step = (self.rows + 7) // 8  # bytes per output row
        out = [
            int.from_bytes(packed[j * step : (j + 1) * step], "little") for j in range(self.cols)
        ]
        return BitMatrix(self.cols, self.rows, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    def to_text(self) -> str:
        """Interchange format: a ``"m n"`` header line, then one line of
        '0'/'1' characters per row.  The reader takes ``m`` and ``n`` in
        ASCII digits ``[0-9]+`` only."""
        lines = [f"{self.rows} {self.cols}"]
        lines += [_encode_row(r, self.cols) for r in self._data]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")
        head = lines[0].split()
        try:
            m, n = map(_ascii_size, head)
        except ValueError as exc:
            raise ValueError(f"bad header line {lines[0]!r}") from exc
        if n == 0 and len(lines) == 1:
            lines += [""] * m  # zero-width rows are the blank lines dropped above
        if len(lines) - 1 != m:
            raise ValueError(f"expected {m} rows, found {len(lines) - 1}")
        return cls(m, n, [_decode_row(ln, n) for ln in lines[1:]])

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "data": [_encode_row(r, self.cols) for r in self._data],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BitMatrix":
        m, n = obj["rows"], obj["cols"]
        if type(m) is not int or type(n) is not int:  # a bool is an int too
            raise ValueError(f"shape {m!r} x {n!r} is not two JSON integers")
        rows = obj["data"]
        if type(rows) is not list or any(type(r) is not str for r in rows):
            raise ValueError("data is not a list of row strings")
        if len(rows) != m:
            raise ValueError("row count mismatch in JSON matrix")
        return cls(m, n, [_decode_row(ln, n) for ln in rows])


def _ascii_size(tok: str) -> int:
    """A size written in ASCII digits ``[0-9]+``; ``int`` alone would also
    take signs, ``_`` separators and other Unicode digits."""
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"size {tok!r} is not [0-9]+")
    return int(tok)


def _encode_row(r: int, cols: int) -> str:
    """One row of the text and JSON formats: a '0'/'1' character per
    column, column 0 first."""
    return "".join("1" if (r >> j) & 1 else "0" for j in range(cols))


def _decode_row(line: str, cols: int) -> int:
    """Inverse of :func:`_encode_row`; refuses a row of the wrong width
    or with a character other than '0' and '1'."""
    if len(line) != cols or set(line) - {"0", "1"}:
        raise ValueError(f"bad row {line!r}")
    return int(line[::-1], 2) if line else 0


def _json_value(value):
    """One value of a JSON report; the rule is :func:`_report_dict`'s."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    return value


def _report_dict(obj, *derived: str) -> dict:
    """The JSON form of a report dataclass: its fields in declaration
    order, then the named ``derived`` properties.

    Each value is converted by one rule: a value with a ``to_dict`` (a
    nested report, a :class:`Submatrix` witness) uses it, tuples and
    lists become lists of converted values, dicts are converted value by
    value, and anything else (numbers, strings, booleans, ``None``) is
    kept.  ``dataclasses.asdict`` does not fit: it keeps tuples and turns
    a :class:`Submatrix` into a list.
    """
    names = [f.name for f in fields(obj)] + list(derived)
    return {name: _json_value(getattr(obj, name)) for name in names}


def _set_bits(mask: int) -> list[int]:
    """Positions of the one bits of ``mask``, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def zeros(rows: int, cols: int) -> BitMatrix:
    return BitMatrix(rows, cols, [0] * rows)


def ones(rows: int, cols: int) -> BitMatrix:
    full = (1 << cols) - 1
    return BitMatrix(rows, cols, [full] * rows)


def identity(n: int) -> BitMatrix:
    return BitMatrix(n, n, [1 << i for i in range(n)])


# ---------------------------------------------------------------------------
# Products, complement, counting


def _mul(a: BitMatrix, b: BitMatrix, add: Callable[[int, int], int]) -> BitMatrix:
    """Matrix product over the semiring whose addition is ``add``.

    Four Russians (Arlazarov, Dinic, Kronrod and Faradzev, 1970): for each
    group of 8 rows of B, a 256-entry table holds the sum of every subset
    of the group, and each output row takes one lookup, indexed by the
    matching byte of its row of A.  The cost is ``ceil(b.rows / 8) * (256 +
    a.rows)`` table operations whatever the density, and one table is held
    at a time.  A very sparse A pays for tables it barely reads:
    ``identity(4096) @ 4096x64`` is over 50 times slower than summing the
    rows of B that its set bits select.  Every product in this package has
    dense random factors.
    """
    if a.cols != b.rows:
        raise DimensionError(f"{a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    width = (a.cols + 7) // 8
    a_bytes = b"".join(r.to_bytes(width, "little") for r in a._data)
    out = [0] * a.rows
    for g in range(width):
        table = [0]
        for r in b._data[8 * g : 8 * g + 8]:
            # ``repeat`` stops the map at the table's old length
            table += map(add, table, repeat(r, len(table)))
        out = list(map(add, out, map(table.__getitem__, a_bytes[g::width])))
    return BitMatrix(a.rows, b.cols, out)


def mul_gf2(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2): entry (i,j) = XOR_k a(i,k) & b(k,j)."""
    return _mul(a, b, xor)


def mul_bool(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over the Boolean semiring: OR instead of XOR."""
    return _mul(a, b, or_)


def complement(a: BitMatrix) -> BitMatrix:
    """Entrywise Boolean NOT."""
    full = (1 << a.cols) - 1
    return BitMatrix(a.rows, a.cols, [r ^ full for r in a._data])


def popcount(a: BitMatrix) -> int:
    """Number of nonzero entries."""
    return sum(r.bit_count() for r in a._data)


# ---------------------------------------------------------------------------
# Rank, determinant, rank factorization


def rank_gf2(a: BitMatrix) -> int:
    """Rank of the row space over GF(2), by exact elimination."""
    basis: dict[int, int] = {}  # leading-bit position -> reduced row
    for r in a._data:
        while r:
            lead = r.bit_length() - 1
            other = basis.get(lead)
            if other is None:
                basis[lead] = r
                break
            r ^= other
    return len(basis)


def det_int(a: BitMatrix) -> int:
    """Exact determinant of the matrix read as a 0/1 integer matrix.

    Bareiss fraction-free elimination; intermediates are exact integers,
    so the result is correct for determinants of any magnitude.
    """
    if a.rows != a.cols:
        raise DimensionError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [[(a.row(i) >> j) & 1 for j in range(n)] for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pkk - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class RankFactorization:
    """``left @ right = A`` over GF(2) with inner dimension = rank."""

    left: BitMatrix
    right: BitMatrix
    rank: int


def rank_factorize_gf2(a: BitMatrix) -> RankFactorization:
    """Factor A (m x n) as left (m x r) times right (r x n) over GF(2).

    ``right`` is a reduced row-echelon basis of the row space; the
    coefficients in ``left`` then sit directly in A's pivot columns.
    """
    reduced: list[tuple[int, int]] = []  # (pivot column, row), fully reduced
    for i in range(a.rows):
        cur = a.row(i)
        for c, pr in reduced:
            if (cur >> c) & 1:
                cur ^= pr
        if cur:
            c = (cur & -cur).bit_length() - 1
            reduced = [
                (c2, pr ^ cur if (pr >> c) & 1 else pr) for c2, pr in reduced
            ]
            reduced.append((c, cur))
            reduced.sort()
    r = len(reduced)
    pivots = [c for c, _ in reduced]
    right = BitMatrix(r, a.cols, [pr for _, pr in reduced])
    left_rows = []
    for i in range(a.rows):
        bits = 0
        row = a.row(i)
        for j, c in enumerate(pivots):
            if (row >> c) & 1:
                bits |= 1 << j
        left_rows.append(bits)
    left = BitMatrix(a.rows, r, left_rows)
    return RankFactorization(left, right, r)


# ---------------------------------------------------------------------------
# k-freeness


class Submatrix(NamedTuple):
    """Row/column index sets (0-indexed, ascending) of a witness block."""

    row_idx: tuple[int, ...]
    col_idx: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"rows": list(self.row_idx), "cols": list(self.col_idx)}


class KFreeOutcome(NamedTuple):
    k_free: bool
    witness: Optional[Submatrix]


def _require_freeness_k(k: int) -> None:
    """Refuse k < 1 before any work: |A| / k^2 is undefined at k = 0, and
    the all-ones finder counts no step, so never stops, at k < 0."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _verified_block(a: BitMatrix, s: int, rows: tuple[int, ...], cols: tuple[int, ...]) -> Submatrix:
    """``rows`` x ``cols`` as a witness, once checked to be an s x s
    all-ones block of ``a``: a returned witness is a proof."""
    colmask = sum(1 << j for j in cols)
    whole = len(set(rows)) == len(set(cols)) == s
    if not whole or any(a.row(i) & colmask != colmask for i in rows):
        raise RuntimeError("all-ones witness does not verify")
    return Submatrix(rows, cols)


def _allones_rows(rows: list[int], s: int, start: int, depth: int, acc: int) -> Optional[list[int]]:
    """Depth-first step of :func:`_first_allones`.  Module-level, not a
    nested function: a self-referencing closure is a reference cycle."""
    if depth == s:
        return []
    for i in range(start, len(rows) - (s - depth) + 1):
        inter = acc & rows[i]
        if inter.bit_count() >= s:
            rest = _allones_rows(rows, s, i + 1, depth + 1, inter)
            if rest is not None:
                return [i] + rest
    return None


def _first_allones(rows: list[int], s: int) -> Optional[tuple[list[int], int]]:
    """Lexicographically first choice of ``s`` rows whose AND keeps >= s
    ones; returns (row indices, AND mask) or None."""
    full = -1  # all-ones sentinel; AND with first row clips it
    got = _allones_rows(rows, s, 0, 0, full)
    if got is None:
        return None
    acc = full
    for i in got:
        acc &= rows[i]
    return got, acc


def kfree_enumeration_feasible(a: BitMatrix, k: int) -> bool:
    """Whether :func:`is_k_free_exact` can decide k-freeness: true when
    the matrix is too small to hold a (k+1) x (k+1) block, or when
    ``C(min(m,n), k+1) * max(m,n)`` is within :data:`ENUMERATION_BUDGET`."""
    _require_freeness_k(k)
    s = k + 1
    small, large = sorted((a.rows, a.cols))
    return small < s or math.comb(small, s) * large <= ENUMERATION_BUDGET


def is_k_free_exact(a: BitMatrix, k: int) -> KFreeOutcome:
    """Exact test for a (k+1) x (k+1) all-ones submatrix, by enumeration
    over the smaller dimension.

    Refuses k < 1 (``ValueError``), and where :func:`kfree_enumeration_feasible`
    is false (:class:`BudgetExceededError`); beyond that, use
    :func:`find_allones_submatrix` for evidence.
    """
    s = k + 1
    if not kfree_enumeration_feasible(a, k):
        raise BudgetExceededError(
            f"exact {s}x{s} enumeration infeasible for {a.rows}x{a.cols}; "
            "use find_allones_submatrix"
        )
    transposed = a.rows > a.cols
    mat = a.transpose() if transposed else a
    found = _first_allones([r for r in mat._data], s)
    if found is None:
        return KFreeOutcome(True, None)
    chosen, acc = found
    rows = tuple(chosen)
    cols = tuple(_set_bits(acc)[:s])
    if transposed:
        rows, cols = cols, rows
    return KFreeOutcome(False, _verified_block(a, s, rows, cols))


def find_allones_submatrix(
    a: BitMatrix, k: int, budget: int = EVIDENCE_BUDGET, seed: int = 0
) -> Optional[Submatrix]:
    """Randomized greedy search for a (k+1) x (k+1) all-ones submatrix.

    Restarted greedy row accumulation over the m rows with at least k + 1
    ones.  Each restart starts from a random row; each step of it adds the
    unchosen row whose intersection with the rows so far keeps the most
    ones (the first such row on a tie), while that is at least k + 1.
    A scan is one numpy popcount over a uint64 table of the m rows.

    The budget counts ``steps``: a scan for the next row costs m, one per
    row it evaluates, chosen rows included.  A scan that starts under the
    budget completes, so ``steps`` may pass the budget by less than one
    scan.  Every "evidence-free" verdict rests on this count.  A returned
    witness is verified and therefore a proof; ``None`` is evidence of
    absence, not a proof.  A negative budget, which would give ``None``
    without a step, is refused.
    """
    _require_freeness_k(k)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    s = k + 1
    eligible = [(i, r) for i, r in enumerate(a._data) if r.bit_count() >= s]
    if len(eligible) < s:
        return None
    rng = SplitMix64(seed)
    m = len(eligible)
    width = 8 * ((a.cols + 63) // 64)
    table = np.frombuffer(
        b"".join(r.to_bytes(width, "little") for _, r in eligible), dtype="<u8"
    ).reshape(m, -1)
    steps = 0
    while steps < budget:
        start = rng.randrange(m)
        chosen = [start]
        acc = table[start]
        while len(chosen) < s and steps < budget:
            steps += m
            cnt = np.bitwise_count(table & acc).sum(axis=1, dtype=np.int64)
            cnt[chosen] = -1
            best = int(cnt.argmax())
            if cnt[best] < s:
                break
            chosen.append(best)
            acc = acc & table[best]
        if len(chosen) == s:
            rows = tuple(sorted(eligible[t][0] for t in chosen))
            cols = tuple(_set_bits(int.from_bytes(acc.tobytes(), "little"))[:s])
            return _verified_block(a, s, rows, cols)
    return None


# ---------------------------------------------------------------------------
# Matrix families


def _require_power_of_two(n: int) -> None:
    if n < 1 or n & (n - 1):
        raise ValueError(f"size {n} is not a power of two")


def gen_sierpinski(n: int) -> BitMatrix:
    """Sierpinski matrix: S_1 = (1), S_2n = (S_n 0; S_n S_n)."""
    _require_power_of_two(n)
    rows = [1]
    size = 1
    while size < n:
        rows = rows + [r | (r << size) for r in rows]
        size *= 2
    return BitMatrix(n, n, rows)


def gen_setintersection(n: int) -> BitMatrix:
    """Set-intersection matrix: K_1 = (0), K_2n = (K_n K_n; K_n J).

    Row/column ``i`` (1-indexed) encodes the subset with characteristic
    bits ``i - 1``; the entry is 1 iff the two subsets intersect.
    """
    _require_power_of_two(n)
    rows = [0]
    size = 1
    while size < n:
        full = (1 << size) - 1
        rows = [r | (r << size) for r in rows] + [r | (full << size) for r in rows]
        size *= 2
    return BitMatrix(n, n, rows)


def gen_hadamard(n: int) -> BitMatrix:
    """Boolean Sylvester-Hadamard matrix: H_1 = (1), H_2n = (H H; H H-bar)."""
    _require_power_of_two(n)
    rows = [1]
    size = 1
    while size < n:
        full = (1 << size) - 1
        rows = [r | (r << size) for r in rows] + [r | ((r ^ full) << size) for r in rows]
        size *= 2
    return BitMatrix(n, n, rows)


def setint_row_alignment(n: int) -> list[int]:
    """Row permutation aligning complement(K_n) with S_n.

    Under this package's subset indexing, row ``i`` (0-indexed) of
    ``complement(gen_setintersection(n))`` equals row ``perm[i]`` of
    ``gen_sierpinski(n)``, with columns aligned identically (the column
    permutation is the identity).
    """
    _require_power_of_two(n)
    return [(n - 1) ^ i for i in range(n)]


def gen_random(m: int, n: int, seed: int) -> BitMatrix:
    """i.i.d. uniform Boolean matrix from the SplitMix64 stream ``seed``.

    Row-major: row ``i`` consumes words ``i * ceil(n/64) ...`` of the
    stream, low word first, masked to ``n`` bits.
    """
    rng = SplitMix64(seed)
    return BitMatrix(m, n, [rng.bits(n) for _ in range(m)])


def example_a() -> BitMatrix:
    """4x4 matrix whose smallest XOR circuit beats every cancellation-free
    circuit by one gate (4 vs 5)."""
    return BitMatrix.from_rows(
        [
            [1, 1, 0, 0],
            [1, 1, 1, 0],
            [1, 1, 1, 1],
            [0, 1, 1, 1],
        ]
    )


def example_b() -> BitMatrix:
    """6x6 matrix with a 6-gate OR circuit but no 6-gate cancellation-free
    circuit (the optima are 6 and 7)."""
    return BitMatrix.from_rows(
        [
            [0, 0, 1, 1, 0, 0],
            [0, 1, 1, 1, 0, 0],
            [1, 1, 1, 1, 0, 0],
            [0, 0, 1, 1, 1, 0],
            [0, 0, 1, 1, 1, 1],
            [1, 1, 1, 1, 1, 1],
        ]
    )


def kst_bound(n: int, a: int) -> float:
    """Zarankiewicz-type cap on the ones of an (a-1)-free n x n matrix:
    ``(a-1)**(1/a) * n**(2-1/a) + (a-1)*n``."""
    if a < 2:
        raise ValueError("a must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    return (a - 1) ** (1.0 / a) * n ** (2.0 - 1.0 / a) + (a - 1) * n
