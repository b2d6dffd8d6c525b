"""Per-file MDS broadcast delivery (``broadcast-mds``).

The fallback that wins when there are more users per relay than files:
every user caches the same M/N prefix of every file, and delivery ignores
demands on the server side entirely.  For each file, the uncached suffix is
split into r parts, expanded into h pieces with an (h, r) MDS code, and
piece i goes over server edge i.  A relay forwards to each neighbor only
the piece of the one file that neighbor asked for, so each user collects r
distinct pieces of its file's suffix and erasure-decodes it.

When the suffix does not split evenly into r parts it is zero-padded.  The
label's ``octets=`` field records the true suffix length; the decoder knows
that length from its own cache and trims the padding with it.

The server signal depends on the library and the cached prefix, never on
the demand.  So each file's h pieces are encoded once per placement, by the
first delivery with a given code, and kept on the :class:`PrefixCache`;
every delivery then only assembles its per-edge records from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from ..erasure import ErasureCode, decode as mds_decode, encode as mds_encode
from ..topology import Network
from .common import (
    CacheView,
    FileLibrary,
    Record,
    SubpacketizationError,
    TransmissionLog,
    payloads,
    validate_demand,
)


@dataclass(frozen=True)
class PrefixCache(CacheView):
    """Every user caches the first ``prefix_bytes`` of every file.

    ``_encoded`` maps an erasure code to the server records that the first
    delivery with it built, by edge; it lives as long as the placement.
    """

    net: Network
    lib: FileLibrary
    storage: Fraction
    prefix_bytes: int
    _encoded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def has(self, user: int, key: int) -> bool:
        return 1 <= key <= self.lib.n_files and self.prefix_bytes > 0

    def get(self, user: int, key: int) -> bytes:
        if not self.has(user, key):
            raise KeyError(f"user {user} does not cache a prefix of file {key}")
        return self.lib.file(key)[: self.prefix_bytes]

    def keys(self, user: int) -> Iterator[int]:
        if self.prefix_bytes > 0:
            yield from range(1, self.lib.n_files + 1)

    def cached_bits(self, user: int) -> int:
        return self.lib.n_files * self.prefix_bytes * 8


def broadcast_place(net: Network, lib: FileLibrary, M) -> PrefixCache:
    """Cache the first M/N of every file, which must be whole bytes."""
    m = Fraction(M, lib.n_files)
    if not 0 <= m <= 1:
        raise ValueError(f"M={M} outside 0..{lib.n_files}")
    prefix = m * lib.file_bytes
    if prefix.denominator != 1:
        raise SubpacketizationError(
            f"file size {lib.file_bytes} bytes times M/N = {m} is not a whole "
            f"number of bytes; need a multiple of {m.denominator}"
        )
    return PrefixCache(net=net, lib=lib, storage=Fraction(M), prefix_bytes=int(prefix))


def _label(n: int, piece: int, octets: int) -> str:
    return f"bc:n={n}:p={piece}:octets={octets}"


def _server_records(cache: PrefixCache, code: ErasureCode) -> list[list[Record]]:
    """by_edge[i - 1][n - 1]: the record of file n on server edge i.

    Encoded on the first call with ``code`` and kept on the placement.
    """
    by_edge = cache._encoded.get(code)
    if by_edge is None:
        lib, r = cache.lib, cache.net.r
        prefix = cache.prefix_bytes
        suffix = lib.file_bytes - prefix
        part_bytes = -(-suffix // r)  # ceil; zero-pad the tail part
        by_edge = [[] for _ in range(code.n)]
        for n in range(1, lib.n_files + 1):
            data = lib.file(n)[prefix:] + bytes(part_bytes * r - suffix)
            parts = [data[j * part_bytes : (j + 1) * part_bytes] for j in range(r)]
            for i, piece in enumerate(mds_encode(code, parts), 1):
                by_edge[i - 1].append(Record(_label(n, i, suffix), piece))
        cache._encoded[code] = by_edge
    return by_edge


def broadcast_mds_deliver(
    net: Network,
    cache: PrefixCache,
    demand: tuple[int, ...],
    code: ErasureCode,
) -> TransmissionLog:
    validate_demand(net, cache.lib.n_files, demand)
    if (code.n, code.k) != (net.h, net.r):
        raise ValueError(f"need an ({net.h}, {net.r}) code, got ({code.n}, {code.k})")
    log = TransmissionLog()
    if cache.prefix_bytes == cache.lib.file_bytes:
        return log
    for i, records in enumerate(_server_records(cache, code), 1):
        log.add_server(i, records)
        for u in net._neighbors[i - 1]:
            log.forward(i, u, [records[demand[u] - 1]])
    return log


def broadcast_decode(
    net: Network,
    user: int,
    cache: PrefixCache,
    demand: tuple[int, ...],
    received: Mapping[int, Sequence[Record]],
    code: ErasureCode,
) -> bytes:
    want = demand[user]
    prefix = cache.get(user, want) if cache.prefix_bytes else b""
    suffix_len = cache.lib.file_bytes - cache.prefix_bytes
    if suffix_len == 0:
        return prefix

    pieces = [
        (i, payloads(user, i, received, [_label(want, i, suffix_len)])[0])
        for i in net.users[user]
    ]
    suffix = b"".join(mds_decode(code, pieces))[:suffix_len]
    return prefix + suffix
