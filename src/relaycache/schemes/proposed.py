"""The class-symmetric XOR multicast scheme (scheme id ``proposed``).

Placement splits every file into r * C(Kt, t) equal subfiles, where Kt is
the number of parallel classes and t = Kt*M/N.  A subfile is addressed by
``(n, T, l)``: file id, a t-subset T of class labels, and a copy index l in
1..r.  A user caches exactly the subfiles whose T contains its own class
label, so all users in one parallel class hold identical cache content and
every relay sees the same multiset of caches across its neighbors.

Delivery works per relay.  For each (t+1)-subset C of class labels the
server sends relay i one XOR that combines, for every class c in C, the
subfile ``(d_V, C \\ {c}, j)`` demanded by the unique neighbor V of relay i
in class c, where j is the position of i inside V.  The relay forwards that
signal to exactly those t+1 neighbors.  Each receiver caches every term of
the XOR except its own, cancels them, and over its r relays collects every
missing copy index.

Subfile layout inside a file is T-major: byte offset of ``(T, l)`` is
``(rank(T) * r + (l - 1)) * subfile_bytes`` with T ranked lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from ..combinatorics import binomial, enumerate_subsets, position_in, subset_rank
from ..erasure import xor_bytes
from ..topology import Network
from .common import (
    CacheView,
    FileLibrary,
    IncompleteReceptionError,
    Record,
    SubpacketizationError,
    TransmissionLog,
    fmt_subset,
    grid_t,
    parse_subset,
    validate_demand,
)


@dataclass(frozen=True)
class GroupedCache(CacheView):
    """Per-class uncoded placement over (n, T, l)-indexed subfiles."""

    net: Network
    lib: FileLibrary
    storage: Fraction
    t: int
    subfile_bytes: int

    @property
    def subfiles_per_file(self) -> int:
        return self.net.r * binomial(self.net.num_classes, self.t)

    def subfile(self, n: int, T: tuple[int, ...], l: int) -> bytes:
        """Library-side subfile access (the server may read everything)."""
        rank = subset_rank(self.net.num_classes, T)
        offset = (rank * self.net.r + (l - 1)) * self.subfile_bytes
        return self.lib.file(n)[offset : offset + self.subfile_bytes]

    def has(self, user: int, key: tuple) -> bool:
        n, T, l = key
        return self.net.class_of[user] in T

    def get(self, user: int, key: tuple) -> bytes:
        if not self.has(user, key):
            raise KeyError(f"user {user} does not cache {key}")
        n, T, l = key
        return self.subfile(n, T, l)

    def keys(self, user: int) -> Iterator[tuple]:
        label = self.net.class_of[user]
        for n in range(1, self.lib.n_files + 1):
            for T in enumerate_subsets(self.net.num_classes, self.t):
                if label in T:
                    for l in range(1, self.net.r + 1):
                        yield (n, T, l)

    def cached_bits(self, user: int) -> int:
        per_file = self.net.r * binomial(self.net.num_classes - 1, self.t - 1)
        return self.lib.n_files * per_file * self.subfile_bytes * 8


def proposed_place(net: Network, lib: FileLibrary, M) -> GroupedCache:
    """Split files and populate caches by parallel class.

    M must lie on the grid {0, N/Kt, 2N/Kt, ..., N} and the file size must
    split into r * C(Kt, t) whole-byte subfiles.
    """
    t = grid_t(net.num_classes, lib.n_files, M, "Kt")
    nsub = net.r * binomial(net.num_classes, t)
    if lib.file_bytes % nsub != 0:
        raise SubpacketizationError(
            f"file size {lib.file_bytes} bytes must be divisible by {nsub} "
            f"(= r * C(Kt, t) subfiles)"
        )
    return GroupedCache(
        net=net, lib=lib, storage=Fraction(M), t=t, subfile_bytes=lib.file_bytes // nsub
    )


def _server_label(relay: int, C: tuple[int, ...]) -> str:
    return f"prop:i={relay}:C={fmt_subset(C)}"


def proposed_deliver(
    net: Network, cache: GroupedCache, demand: tuple[int, ...]
) -> TransmissionLog:
    """XOR multicast delivery: one signal per relay per (t+1)-subset of classes."""
    validate_demand(net, cache.lib.n_files, demand)
    log = TransmissionLog()
    kt, t = net.num_classes, cache.t
    if t + 1 > kt:
        return log
    for i in range(1, net.h + 1):
        for C in enumerate_subsets(kt, t + 1):
            payload = bytes(cache.subfile_bytes)
            for c in C:
                u = net._class_rep[(i, c)]
                T = tuple(x for x in C if x != c)
                l = position_in(net.users[u], i)
                payload = xor_bytes(payload, cache.subfile(demand[u], T, l))
            rec = Record(_server_label(i, C), payload)
            log.add_server(i, rec)
            for c in C:
                log.forward(i, net._class_rep[(i, c)], rec)
    return log


def proposed_decode(
    net: Network,
    user: int,
    cache: GroupedCache,
    demand: tuple[int, ...],
    received: Mapping[int, Sequence[Record]],
) -> bytes:
    """Reassemble the demanded file from the cache and the r relay feeds."""
    V = net.users[user]
    mine = net.class_of[user]
    kt, t = net.num_classes, cache.t

    recovered: dict[tuple[tuple[int, ...], int], bytes] = {}
    for i in V:
        l = position_in(V, i)
        for rec in received.get(i, ()):
            C = parse_subset(rec.fields()["C"])
            if mine not in C:
                continue
            payload = rec.payload
            for c in C:
                if c == mine:
                    continue
                other = net._class_rep[(i, c)]
                T_other = tuple(x for x in C if x != c)
                l_other = position_in(net.users[other], i)
                payload = xor_bytes(
                    payload, cache.get(user, (demand[other], T_other, l_other))
                )
            recovered[(tuple(x for x in C if x != mine), l)] = payload

    parts = []
    for T in enumerate_subsets(kt, t):
        for l in range(1, net.r + 1):
            if mine in T:
                parts.append(cache.get(user, (demand[user], T, l)))
            else:
                piece = recovered.get((T, l))
                if piece is None:
                    raise IncompleteReceptionError(
                        f"user {user} is missing subfile (T={fmt_subset(T)}, l={l}); "
                        f"no usable signal from relay {V[l - 1]}"
                    )
                parts.append(piece)
    return b"".join(parts)
