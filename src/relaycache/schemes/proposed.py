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
    Record,
    SubpacketizationError,
    TransmissionLog,
    fmt_subset,
    grid_t,
    payloads,
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
    signals = enumerate_subsets(kt, t + 1)
    for i in range(1, net.h + 1):
        records = []
        for C in signals:
            payload = bytes(cache.subfile_bytes)
            for c in C:
                u = net._class_rep[(i, c)]
                T = tuple(x for x in C if x != c)
                l = position_in(net.users[u], i)
                payload = xor_bytes(payload, cache.subfile(demand[u], T, l))
            records.append(Record(_server_label(i, C), payload))
        log.add_server(i, records)
        for u in net._neighbors[i - 1]:
            mine = net.class_of[u]
            log.forward(i, u, [rec for C, rec in zip(signals, records) if mine in C])
    return log


def proposed_decode(
    net: Network,
    user: int,
    cache: GroupedCache,
    demand: tuple[int, ...],
    received: Mapping[int, Sequence[Record]],
) -> bytes:
    """Reassemble the demanded file from the cache and the r relay feeds.

    Subfile (T, l) with the user's class outside T comes from relay V[l] in
    the signal for C = T + {class}; the user cancels the other t terms.
    """
    V = net.users[user]
    mine = net.class_of[user]
    subsets = enumerate_subsets(net.num_classes, cache.t)
    signals = [tuple(sorted((*T, mine))) for T in subsets if mine not in T]
    # feeds[l - 1] yields relay V[l]'s payload of each signal, in order.
    feeds = [
        iter(payloads(user, i, received, [_server_label(i, C) for C in signals]))
        for i in V
    ]
    parts = []
    for T in subsets:
        if mine in T:
            parts += [cache.get(user, (demand[user], T, l)) for l in range(1, net.r + 1)]
            continue
        C = tuple(sorted((*T, mine)))
        for i, feed in zip(V, feeds):
            piece = next(feed)
            for c in T:
                other = net._class_rep[(i, c)]
                T_other = tuple(x for x in C if x != c)
                l_other = position_in(net.users[other], i)
                piece = xor_bytes(piece, cache.get(user, (demand[other], T_other, l_other)))
            parts.append(piece)
    return b"".join(parts)
