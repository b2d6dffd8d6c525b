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
the demand.  So the :class:`PrefixCache` carries the (h, r) MDS code, built
once by :func:`broadcast_place`, and each file's h pieces are encoded once
per placement, by the first delivery, and kept on it as one batch per
server edge; every delivery sends those batches and has each relay pick
one record of its edge's batch per neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from ..erasure import ErasureCode, decode as mds_decode, encode as mds_encode
from ..topology import Network
from .common import (
    FileLibrary,
    SubpacketizationError,
    memory_ratio,
    payloads,
    relay_code,
    validate_demand,
)
from .log import Batch, Edge, TransmissionLog


@dataclass(frozen=True)
class PrefixCache:
    """Every user caches the first ``prefix_bytes`` of every file; ``code``
    is the (h, r) MDS code of the uncached suffixes."""

    net: Network
    lib: FileLibrary
    prefix_bytes: int
    code: ErasureCode

    @cached_property
    def names(self) -> list[str]:
        """names[n - 1]: file id n as written in labels."""
        return list(map(str, range(1, self.lib.n_files + 1)))

    @cached_property
    def server_batches(self) -> list[Batch]:
        """by_edge[i - 1]: server edge i, whose record n - 1 is file n's
        piece; encoded by the first delivery."""
        lib, r, code, prefix = self.lib, self.net.r, self.code, self.prefix_bytes
        suffix = lib.file_bytes - prefix
        part_bytes = -(-suffix // r)  # ceil; zero-pad the tail part
        # Each file's pieces go straight into their edge's buffer, so no
        # piece outlives its file's encode.
        joined = [bytearray(lib.n_files * part_bytes) for _ in range(code.n)]
        for n in range(1, lib.n_files + 1):
            data = lib.file(n)[prefix:] + bytes(part_bytes * r - suffix)
            parts = [data[j * part_bytes : (j + 1) * part_bytes] for j in range(r)]
            at = slice((n - 1) * part_bytes, n * part_bytes)
            for buf, piece in zip(joined, mds_encode(code, parts)):
                buf[at] = piece
        by_edge = []
        for i in range(1, code.n + 1):
            head, names, tail = _form(self, i)
            by_edge.append(Batch(names, joined.pop(0), part_bytes, head, tail))
        return by_edge

    def get(self, user: int, key: int) -> bytes:
        """File ``key``'s cached prefix; KeyError if the user caches none."""
        if not (1 <= key <= self.lib.n_files and self.prefix_bytes > 0):
            raise KeyError(f"user {user} does not cache a prefix of file {key}")
        return self.lib.file(key)[: self.prefix_bytes]


def broadcast_place(net: Network, lib: FileLibrary, M) -> PrefixCache:
    """Cache the first M/N of every file, which must be whole bytes."""
    m = memory_ratio(M, lib.n_files)
    prefix = m * lib.file_bytes
    if prefix.denominator != 1:
        raise SubpacketizationError(
            f"file size {lib.file_bytes} bytes times M/N = {m} is not a whole "
            f"number of bytes; need a multiple of {m.denominator}"
        )
    return PrefixCache(net, lib, int(prefix), relay_code(net))


def _form(cache: PrefixCache, piece: int) -> tuple[str, list[str], str]:
    """The label form of server edge ``piece``: record n - 1 is file n's."""
    octets = cache.lib.file_bytes - cache.prefix_bytes
    return "bc:n=", cache.names, f":p={piece}:octets={octets}"


def broadcast_mds_deliver(
    net: Network, cache: PrefixCache, demand: tuple[int, ...]
) -> TransmissionLog:
    validate_demand(net, cache.lib.n_files, demand)
    log = TransmissionLog()
    if cache.prefix_bytes == cache.lib.file_bytes:
        return log
    for i, batch in enumerate(cache.server_batches, 1):
        log.add_server(i, batch)
        for u in net._neighbors[i - 1]:
            log.forward(i, u, batch, [demand[u] - 1])
    return log


def broadcast_decode(
    net: Network,
    user: int,
    cache: PrefixCache,
    demand: tuple[int, ...],
    received: Mapping[int, Edge],
) -> bytes:
    want = demand[user]
    prefix = cache.get(user, want) if cache.prefix_bytes else b""
    suffix_len = cache.lib.file_bytes - cache.prefix_bytes
    if suffix_len == 0:
        return prefix

    pieces = [
        (i, payloads(user, i, received, [want - 1], _form(cache, i))) for i in net.users[user]
    ]
    suffix = b"".join(mds_decode(cache.code, pieces))[:suffix_len]
    return prefix + suffix
