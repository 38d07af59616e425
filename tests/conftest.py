"""Shared reference implementations (oracles) kept independent of the
library's code paths: plain list-of-lists elimination, itertools
enumeration, and a memo-free search."""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache

from lincirc import BitMatrix, SplitMix64


def ref_rank_gf2(mat: BitMatrix) -> int:
    """Textbook row reduction on 0/1 lists."""
    rows = [mat.row_bits(i) for i in range(mat.rows)]
    rank = 0
    for col in range(mat.cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def ref_det(mat: BitMatrix) -> Fraction:
    """Fraction-based Gaussian elimination determinant."""
    n = mat.rows
    rows = [[Fraction(v) for v in mat.row_bits(i)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


@cache
def _ranks_of_every_square(m: int) -> list[int]:
    """rank Y for every m x m matrix Y, Y's row i being bits m*i.. of
    its index; rows are reduced against a basis with distinct leading
    bits, kept in decreasing order."""
    ranks = []
    for code in range(1 << (m * m)):
        basis = []
        for i in range(m):
            row = (code >> (m * i)) & ((1 << m) - 1)
            for b in basis:
                row = min(row, row ^ b)
            if row:
                basis = sorted(basis + [row], reverse=True)
        ranks.append(len(basis))
    return ranks


def ref_bias_character_sum(mask, inner: int) -> Fraction:
    """The conditional bias of a mask with one open cell (None) from the
    Fourier expansion of BC's law, B m x inner and C inner x m uniform.

    One outer product b c^T has E[(-1)^<Y, b c^T>] = Pr[b^T Y c = 0] -
    Pr[b^T Y c = 1] = 2^-rank(Y), and BC is a sum of ``inner`` independent
    ones, so Pr[BC = X] = 2^(-m^2) sum_Y (-1)^<Y, X> 2^(-inner rank Y)
    over every m x m matrix Y.  Scaled by 2^(m^2 + m inner) each term is
    an integer."""
    m = len(mask)
    x0 = 0
    for i, row in enumerate(mask):
        for j, v in enumerate(row):
            if v is None:
                cell = m * i + j
            else:
                x0 |= v << (m * i + j)
    law = []
    for x in (x0, x0 | 1 << cell):
        by_rank = [0] * (m + 1)  # sum of (-1)^<Y, x> over the Y of each rank
        for y, r in enumerate(_ranks_of_every_square(m)):
            by_rank[r] += 1 - 2 * ((y & x).bit_count() & 1)
        law.append(sum(s << (inner * (m - r)) for r, s in enumerate(by_rank)))
    if law[0] + law[1] == 0:
        raise ValueError("mask has zero acceptance probability")
    return Fraction(law[1], law[0] + law[1])


def ref_mul_gf2(a: BitMatrix, b: BitMatrix) -> list[list[int]]:
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                acc ^= a.entry(i, k) & b.entry(k, j)
            row.append(acc)
        out.append(row)
    return out


def ref_mul_bool(a: BitMatrix, b: BitMatrix) -> list[list[int]]:
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                acc |= a.entry(i, k) & b.entry(k, j)
            row.append(acc)
        out.append(row)
    return out


def ref_has_allones(mat: BitMatrix, size: int) -> bool:
    """Brute-force itertools check for a size x size all-ones block."""
    for rows in itertools.combinations(range(mat.rows), size):
        for cols in itertools.combinations(range(mat.cols), size):
            if all(mat.entry(i, j) for i in rows for j in cols):
                return True
    return False


def random_bits_matrix(rng: SplitMix64, m: int, n: int) -> BitMatrix:
    return BitMatrix(m, n, [rng.bits(n) for _ in range(m)])
