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

Both ends work on all signals of a relay at once, indexed by the plan over
the Kt classes that :class:`.common.PlannedCache` builds once per placement
(``cmcnc`` uses the same plan over the K users; ``routing`` uses its
``subset_plan``).  XOR acts byte by byte, so a relay joins the j-th term of
every signal into one buffer, XORs the t+1 buffers as integers and slices
the signals back out.  A decoder takes what it cancels from
:meth:`.common.SignalPlan.decoding`, reads it on all r relays in one
membership-checked :meth:`GroupedCache.read`, XORs it away from its joined
relay feeds the same way, and slices its file back together from the
decoded and the cached subfiles.

Subfile layout inside a file is T-major: byte offset of ``(T, l)`` is
``(rank(T) * r + (l - 1)) * subfile_bytes`` with T ranked lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from operator import getitem
from typing import Iterator, Mapping, Sequence

from ..combinatorics import binomial, position_in, subset_rank
from ..erasure import xor_bytes
from ..topology import Network
from .common import (
    Batch,
    Edge,
    FileLibrary,
    PlannedCache,
    SignalPlan,
    SubpacketizationError,
    TransmissionLog,
    grid_t,
    in_range,
    is_subset,
    payloads,
    validate_demand,
)


@dataclass(frozen=True)
class GroupedCache(PlannedCache):
    """Per-class uncoded placement over (n, T, l)-indexed subfiles."""

    @property
    def candidates(self) -> int:
        return self.net.num_classes

    @property
    def subfiles_per_file(self) -> int:
        return self.net.r * binomial(self.net.num_classes, self.t)

    @cached_property
    def slices(self) -> list[list[slice]]:
        """slices[l][q]: where subfile (T of rank q, copy l) lies in its
        file, for l in 1..r; slices[0] is empty."""
        r, size = self.net.r, self.subfile_bytes
        count = binomial(self.net.num_classes, self.t)
        return [[]] + [
            [slice((q * r + l - 1) * size, (q * r + l) * size) for q in range(count)]
            for l in range(1, r + 1)
        ]

    def subfiles(
        self, files: Sequence[int], ranks: Sequence[int], copies: Sequence[int]
    ) -> bytes:
        """Library-side access (the server may read everything): subfile
        (files[j], T of rank ranks[j], copies[j]) for every j, concatenated."""
        if not len(files) == len(ranks) == len(copies):
            raise ValueError(
                f"{len(files)} files, {len(ranks)} ranks and {len(copies)} copies differ in length"
            )
        source = {n: self.lib.file(n) for n in set(files)}
        cuts = map(getitem, map(self.slices.__getitem__, copies), ranks)
        return b"".join(map(getitem, map(source.__getitem__, files), cuts))

    def read(
        self, user: int, files: Sequence[int], ranks: Sequence[int], copies: Sequence[int]
    ) -> bytes:
        """What ``user`` caches of :meth:`subfiles` (files, ranks, copies).

        Raises KeyError, naming the first such (n, T, l), unless the user
        caches all of them: T must contain the user's class, n lie in 1..N
        and l in 1..r.
        """
        N, r = self.lib.n_files, self.net.r
        held = self.subset_plan.holds[self.net.class_of[user] - 1]
        if not (held.issuperset(ranks) and in_range(files, N) and in_range(copies, r)):
            n, q, l = next(
                (n, q, l)
                for n, q, l in zip(files, ranks, copies, strict=True)
                if not (q in held and 1 <= n <= N and 1 <= l <= r)
            )
            subsets = self.subset_plan.subsets
            T = subsets[q] if 0 <= q < len(subsets) else q
            raise KeyError(f"user {user} does not cache {(n, T, l)}")
        return self.subfiles(files, ranks, copies)

    def has(self, user: int, key: tuple) -> bool:
        # Sampled symmetry checks make millions of calls: read the sizes behind
        # the n_files and num_classes properties directly.
        n, T, l = key
        net = self.net
        return (
            net.class_of[user] in T
            and 1 <= n <= len(self.lib.files)
            and 1 <= l <= net.r
            and is_subset(T, len(net.classes), self.t)
        )

    def get(self, user: int, key: tuple) -> bytes:
        if not self.has(user, key):
            raise KeyError(f"user {user} does not cache {key}")
        n, T, l = key
        return self.subfiles((n,), (subset_rank(self.net.num_classes, T),), (l,))

    def keys(self, user: int) -> Iterator[tuple]:
        plan = self.subset_plan
        held = map(plan.subsets.__getitem__, plan.held[self.net.class_of[user] - 1])
        return product(range(1, self.lib.n_files + 1), held, range(1, self.net.r + 1))

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


def _form(relay: int, plan: SignalPlan) -> tuple[str, list[str], str]:
    """The label form of ``relay``'s signals: signal s is labelled by its C."""
    return f"prop:i={relay}:C=", plan.names, ""


def _neighbors_of(
    net: Network, demand: tuple[int, ...], relay: int
) -> tuple[list[int], list[int]]:
    """By 0-based class: the file that ``relay``'s neighbor in that class
    demands, and that neighbor's copy index for the relay."""
    users = [net._class_rep[(relay, c)] for c in range(1, net.num_classes + 1)]
    return [demand[u] for u in users], [position_in(net.users[u], relay) for u in users]


def _reassemble(
    cache: GroupedCache, user: int, n: int, order: Sequence[int], decoded: Sequence[bytes]
) -> bytes:
    """File n from ``decoded`` and the subfiles of it that ``user`` caches.

    ``decoded`` holds the subfiles (n, T, l) for l = 1, ..., r in turn and,
    within each l, for the T of rank order[0], order[1], ...
    """
    r, size = cache.net.r, cache.subfile_bytes
    own = cache.subset_plan.held[cache.net.class_of[user] - 1]
    cached = cache.read(
        user, [n] * (len(own) * r), [q for q in own for _ in range(r)], [*range(1, r + 1)] * len(own)
    )
    # parts[q * r + l - 1] is slot (T, l) of the file, T of rank q.  The r
    # copies of a cached T are adjacent in the file and in ``cached``, so
    # they move as one part.
    m = len(order)
    parts = [b""] * ((len(own) + m) * r)
    for w, q in enumerate(own):
        parts[q * r] = cached[w * r * size : (w + 1) * r * size]
    for k, q in enumerate(order):
        parts[q * r : (q + 1) * r] = decoded[k::m]
    return b"".join(parts)


def proposed_deliver(
    net: Network, cache: GroupedCache, demand: tuple[int, ...]
) -> TransmissionLog:
    """XOR multicast delivery: one signal per relay per (t+1)-subset of classes."""
    validate_demand(net, cache.lib.n_files, demand)
    log = TransmissionLog()
    kt, t = net.num_classes, cache.t
    if t + 1 > kt:
        return log
    plan = cache.signal_plan
    # picks[c]: the signals whose C holds class c, which its users receive.
    picks = [tuple(sorted(chain.from_iterable(at[c] for at in plan.at))) for c in range(kt)]
    for i in range(1, net.h + 1):
        file_of, copy_of = _neighbors_of(net, demand, i)
        signals = xor_bytes(
            *[
                cache.subfiles(
                    list(map(file_of.__getitem__, classes)),
                    ranks,
                    list(map(copy_of.__getitem__, classes)),
                )
                for classes, ranks in zip(plan.member, plan.rest)
            ]
        )
        prefix, names, suffix = _form(i, plan)
        batch = Batch(names, signals, cache.subfile_bytes, prefix, suffix)
        log.add_server(i, batch)
        for u in net._neighbors[i - 1]:
            log.forward(i, u, batch, picks[net.class_of[u] - 1])
    return log


def proposed_decode(
    net: Network,
    user: int,
    cache: GroupedCache,
    demand: tuple[int, ...],
    received: Mapping[int, Edge],
) -> bytes:
    """Reassemble the demanded file from the cache and the r relay feeds.

    Subfile (T, l) with the user's class outside T comes from relay V[l] in
    the signal for C = T + {class}; the user cancels the other t terms.
    """
    t = cache.t
    plan = cache.signal_plan
    V = net.users[user]
    mine, blocks, order = plan.decoding(net.class_of[user] - 1)
    feeds = b"".join(payloads(user, i, received, mine, _form(i, plan)) for i in V)
    size = cache.subfile_bytes
    block = len(mine) * len(V) * size
    if len(feeds) != block:
        raise ValueError(f"user {user} received {len(feeds)} signal bytes, expected {block}")

    # Block x of the cancelled terms holds, relay by relay, the term of each
    # signal's x-th other member.
    neighbors = [_neighbors_of(net, demand, i) for i in V]
    files: list[int] = []
    ranks: list[int] = []
    copies: list[int] = []
    for classes, rest in blocks:
        for file_of, copy_of in neighbors:
            files += map(file_of.__getitem__, classes)
            copies += map(copy_of.__getitem__, classes)
            ranks += rest
    cancelled = cache.read(user, files, ranks, copies)
    decoded = xor_bytes(feeds, *[cancelled[x * block : (x + 1) * block] for x in range(t)])
    pieces = [decoded[o : o + size] for o in range(0, block, size)]
    return _reassemble(cache, user, demand[user], order, pieces)
