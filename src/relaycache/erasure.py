"""Systematic (n, k) MDS erasure coding over GF(2^8).

The field is GF(256) with the irreducible polynomial x^8+x^4+x^3+x^2+1
(0x11D) and generator 2.  Symbols are bytes, so code words line up with the
byte buffers used for files and signals, and field addition is plain XOR.

The generator matrix is systematic: the first k rows are the identity, the
remaining n-k rows form a Cauchy matrix.  Every square submatrix of a
Cauchy matrix is nonsingular, which makes every k-subset of rows
invertible, i.e. any k of the n output pieces recover the data.

Encoding and decoding both compute rows of a matrix times the pieces.  A
row with several nonzero coefficients is summed as one integer XOR; a row
with one, such as every inverse row for a systematic piece, is a single
byte translation (or the piece itself when the coefficient is 1) and skips
the round trip through ``int``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .combinatorics import enumerate_subsets

_POLY = 0x11D

_EXP = [0] * 512
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _POLY
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]
del _x, _i


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return _EXP[255 - _LOG[a]]


@lru_cache(maxsize=256)
def _scale_table(c: int) -> bytes:
    return bytes(gf_mul(c, v) for v in range(256))


def gf_scale(data: bytes, c: int) -> bytes:
    """Multiply every byte of ``data`` by the field constant ``c``."""
    if c == 0:
        return bytes(len(data))
    if c == 1:
        return data
    return data.translate(_scale_table(c))


def xor_bytes(*buffers: bytes) -> bytes:
    """Bytewise XOR (field addition) of one or more equal-length buffers,
    summed as one integer."""
    size = len(buffers[0])
    acc = 0
    for buf in buffers:
        if len(buf) != size:
            raise ValueError(f"length mismatch: {size} vs {len(buf)}")
        acc ^= int.from_bytes(buf, "big")
    return acc.to_bytes(size, "big")


def _invert(rows: list[list[int]]) -> list[list[int]]:
    """Invert a square matrix over GF(256) by Gauss-Jordan elimination."""
    k = len(rows)
    aug = [list(row) + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(rows)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = gf_inv(aug[col][col])
        aug[col] = [gf_mul(inv, v) for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v ^ gf_mul(factor, p) for v, p in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


@dataclass(frozen=True)
class ErasureCode:
    """Systematic MDS code: n total pieces, any k of which recover the data."""

    n: int
    k: int
    generator: tuple[tuple[int, ...], ...]
    _inverse_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def rows(self, indices: tuple[int, ...]) -> list[list[int]]:
        return [list(self.generator[i - 1]) for i in indices]

    def inverse_for(self, indices: tuple[int, ...]) -> list[list[int]]:
        """Inverse of the k generator rows selected by 1-based ``indices``."""
        cached = self._inverse_cache.get(indices)
        if cached is None:
            cached = _invert(self.rows(indices))
            self._inverse_cache[indices] = cached
        return cached


def make_code(n: int, k: int) -> ErasureCode:
    """Deterministic systematic Cauchy code with n pieces, k of them data.

    Requires 1 <= k <= n <= 255.  The parity rows are 1/(x_i + y_j) with
    x_i = k..n-1 and y_j = 0..k-1; all 2n values are distinct field
    elements, so every denominator is nonzero.
    """
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > 255:
        raise ValueError(f"n={n} exceeds the GF(256) limit of 255 pieces")
    rows = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
    for x in range(k, n):
        rows.append(tuple(gf_inv(x ^ y) for y in range(k)))
    code = ErasureCode(n=n, k=k, generator=tuple(rows))
    _check_mds(code)
    return code


def _check_mds(code: ErasureCode) -> None:
    # Exhaustive for small n; seeded spot checks above that.
    if code.n <= 12:
        subsets = enumerate_subsets(code.n, code.k)
    else:
        rng = random.Random(0xC0DE)
        subsets = [
            tuple(sorted(rng.sample(range(1, code.n + 1), code.k))) for _ in range(50)
        ]
    for indices in subsets:
        try:
            _invert(code.rows(indices))
        except ValueError:
            raise AssertionError(
                f"rows {indices} of the ({code.n},{code.k}) generator are singular"
            ) from None


def _combine(rows: Iterable[Sequence[int]], buffers: list[bytes]) -> list[bytes]:
    """One buffer per row: the GF(256) sum of ``buffers`` scaled by the row.

    A row with one nonzero coefficient is that buffer scaled, with no sum.
    Any other row is the :func:`xor_bytes` of the scaled buffers.
    """
    out = []
    for row in rows:
        if row.count(0) == len(row) - 1:
            coeff = max(row)
            out.append(gf_scale(buffers[row.index(coeff)], coeff))
            continue
        out.append(xor_bytes(*[gf_scale(buf, c) for c, buf in zip(row, buffers) if c]))
    return out


def encode(code: ErasureCode, data: list[bytes]) -> list[bytes]:
    """Encode k equal-length data pieces into n pieces of the same length.

    Systematic: pieces 1..k are the data verbatim.
    """
    if len(data) != code.k:
        raise ValueError(f"expected {code.k} data pieces, got {len(data)}")
    size = len(data[0])
    if any(len(d) != size for d in data):
        raise ValueError("data pieces must all have the same length")
    return list(data) + _combine(code.generator[code.k :], data)


def decode(code: ErasureCode, pieces: list[tuple[int, bytes]]) -> list[bytes]:
    """Recover the k data pieces from any k (1-based index, payload) pairs."""
    if len(pieces) != code.k:
        raise ValueError(f"need exactly {code.k} pieces, got {len(pieces)}")
    indices = tuple(i for i, _ in pieces)
    if len(set(indices)) != code.k:
        raise ValueError(f"duplicate piece indices in {indices}")
    if any(i < 1 or i > code.n for i in indices):
        raise ValueError(f"piece index outside 1..{code.n} in {indices}")
    size = len(pieces[0][1])
    if any(len(p) != size for _, p in pieces):
        raise ValueError("pieces must all have the same length")
    return _combine(code.inverse_for(indices), [payload for _, payload in pieces])
