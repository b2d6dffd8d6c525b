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
``subset_plan``).  Subfiles are read as items by :func:`.common.gather`,
never sliced one by one: subfile (n, T, l) is item rank(T) * r of file n
viewed from copy l on (:attr:`GroupedCache.views`).  XOR acts byte by byte,
so a relay reads the j-th term of every signal, for every j, in one gather
over its neighbors' files with ``which`` the member class, XORs the t+1
blocks as integers and sends the result as one batch.  A decoder reads the
terms it cancels on each relay in one membership-checked
:meth:`GroupedCache.gather`, XORs them away from that relay's feed the same
way, and puts its file back together from the cached and the decoded
subfiles in one more gather.  The tables those reads use are built once per
class and placement and held as arrays: :attr:`GroupedCache.decoders` and
:attr:`GroupedCache.layouts`.

Subfile layout inside a file is T-major: byte offset of ``(T, l)`` is
``(rank(T) * r + (l - 1)) * subfile_bytes`` with T ranked lexicographically.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from typing import Iterator, Mapping, NamedTuple, Sequence

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
    as_items,
    gather,
    grid_t,
    in_range,
    is_subset,
    payloads,
    validate_demand,
)


class ClassLayout(NamedTuple):
    """Where one class finds a file's subfiles, built once per placement.

    Slot ``rank(T) * r + l - 1`` of a file is subfile (T, l).  The class
    puts a file back together from 2r sources: the file from copy l on (its
    :attr:`GroupedCache.views`), for l = 1, ..., r, and then the decoded
    bytes from their copy-l block on.
    """

    which: array  # which[k]: the source of slot k, l - 1 if the class caches it, else r + l - 1
    index: array  # index[k]: the item of slot k in its source, rank(T) * r if cached


@dataclass(frozen=True)
class GroupedCache(PlannedCache):
    """Per-class uncoded placement over (n, T, l)-indexed subfiles.

    Every read goes through :func:`.common.gather` over :attr:`views`, as
    items: subfile (n, T, l) is item ``rank(T) * r`` of file n viewed from
    copy l on.
    """

    @property
    def candidates(self) -> int:
        return self.net.num_classes

    @property
    def subfiles_per_file(self) -> int:
        return self.net.r * binomial(self.net.num_classes, self.t)

    @cached_property
    def views(self) -> list[list]:
        """views[l - 1][n - 1]: file n from subfile (T of rank 0, l) on, as
        :func:`.common.gather` reads its subfiles, without a copy.  Its item
        rank(T) * r is subfile (n, T, l)."""
        size = self.subfile_bytes
        return [
            [as_items(memoryview(f)[(l - 1) * size :], size) for f in self.lib.files]
            for l in range(1, self.net.r + 1)
        ]

    def sources(self, files: Sequence[int], copies: Sequence[int]) -> list:
        """The view of file files[w] from copy copies[w] on, for each w.

        Raises ValueError if the lengths differ, and IndexError for a file id
        outside 1..N or a copy outside 1..r: no index wraps.
        """
        N, r = self.lib.n_files, self.net.r
        if len(files) != len(copies):
            raise ValueError(f"{len(files)} files and {len(copies)} copies differ in length")
        if not (in_range(files, N) and in_range(copies, r)):
            raise IndexError(f"a file id lies outside 1..{N} or a copy outside 1..{r}")
        views = self.views
        return [views[l - 1][n - 1] for n, l in zip(files, copies)]

    @cached_property
    def layouts(self) -> list[ClassLayout]:
        """layouts[c]: the :class:`ClassLayout` of class c (0-based).

        A class decodes the subfiles (T, l) it lacks in the order l = 1, ...,
        r and, within each l, T by increasing rank: so they come from its r
        relays, and routing sends them.  Its cached slots are exactly the
        copies of the T in ``subset_plan.holds[c]``, so ``which`` is 0
        exactly at the items rank(T) * r of the T it caches: at those that
        :meth:`gather` lets it read.
        """
        r = self.net.r
        plan = self.subset_plan
        count = len(plan.subsets)
        in_file = array("I", range(0, count * r, r))  # by rank q: item rank(T) * r
        layouts = []
        for missing in plan.missing:
            own = bytearray(b"\x01") * count  # own[q]: the class caches the T of rank q
            item = array("I", in_file)
            for k, q in enumerate(missing):
                own[q] = 0
                item[q] = k  # the T's item in a decoded block
            which = array("B", bytes(count * r))
            index = item * r  # of the right length; interleaved below
            for l in range(r):
                # Copy l + 1 of a T comes from source l if cached, else r + l.
                which[l::r] = array("B", own.translate(bytes.maketrans(b"\0\1", bytes([r + l, l]))))
                index[l::r] = item
            layouts.append(ClassLayout(which, index))
        return layouts

    @cached_property
    def signal_terms(self) -> tuple[array, array]:
        """(which, items) of every signal's terms, as :meth:`gather` reads
        them over a relay's neighbors by class: block j gives per signal s
        its member class member[j][s] and rank(C minus that member) * r."""
        plan, r = self.signal_plan, self.net.r
        return (
            array("I", chain.from_iterable(plan.member)),
            array("I", chain.from_iterable(map(r.__mul__, rest) for rest in plan.rest)),
        )

    @cached_property
    def decoders(self) -> list[tuple[array, array, array]]:
        """decoders[c]: (signals, which, items) by which class c decodes.

        ``signals``: the positions the class reads on each relay, those of
        :meth:`.common.SignalPlan.decoding` ordered so that it decodes the T
        it lacks by increasing rank, as :attr:`layouts` expects.  Block x of
        ``which`` and ``items``: per signal, its x-th member class other
        than c and rank(C minus that member) * r, the term c cancels, as
        :meth:`gather` reads them over a relay's neighbors by class.
        """
        plan, r = self.signal_plan, self.net.r
        decoders = []
        for c in range(self.candidates):
            signals, blocks, delivered = plan.decoding(c)
            order = sorted(range(len(signals)), key=delivered.__getitem__)
            members = (map(member.__getitem__, order) for member, _ in blocks)
            ranks = (map(rest.__getitem__, order) for _, rest in blocks)
            decoders.append(
                (
                    array("I", map(signals.__getitem__, order)),
                    array("I", chain.from_iterable(members)),
                    array("I", map(r.__mul__, chain.from_iterable(ranks))),
                )
            )
        return decoders

    def subfiles(
        self, files: Sequence[int], ranks: Sequence[int], copies: Sequence[int]
    ) -> bytes:
        """Library-side access (the server may read everything): subfile
        (files[j], T of rank ranks[j], copies[j]) for every j, concatenated.

        Raises ValueError if the lengths differ, and IndexError for a file id
        outside 1..N, a rank outside 0..C(Kt, t) - 1 or a copy outside 1..r:
        no index wraps.
        """
        items = [q * self.net.r for q in ranks]
        return gather(self.sources(files, copies), range(len(files)), items, self.subfile_bytes)

    def read(
        self, user: int, files: Sequence[int], ranks: Sequence[int], copies: Sequence[int]
    ) -> bytes:
        """What ``user`` caches of :meth:`subfiles` (files, ranks, copies), by
        :meth:`gather`: KeyError names the first (n, T, l) it does not cache."""
        items = [q * self.net.r for q in ranks]
        return self.gather(user, files, copies, range(len(files)), items)

    def gather(
        self,
        user: int,
        files: Sequence[int],
        copies: Sequence[int],
        which: Sequence[int],
        items: Sequence[int],
    ) -> bytes:
        """The table-form read: subfile (files[w], T, copies[w]) for every j,
        where w = which[j] and items[j] = rank(T) * r, concatenated.  That is
        item items[j] of source w of :meth:`sources` (files, copies).

        Raises KeyError, naming the first such (n, T, l), unless the user
        caches all of them: T must contain the user's class, n lie in 1..N
        and l in 1..r.  Nothing is read from a file before that check.
        """
        N, r = self.lib.n_files, self.net.r
        # 0 exactly at the items rank(T) * r of the T the user's class caches.
        mask = self.layouts[self.net.class_of[user] - 1].which
        try:
            cached = gather([mask], [0] * len(items), items, 1).count(0) == len(items)
        except IndexError:
            cached = False
        if not (cached and in_range(files, N) and in_range(copies, r)):
            subsets = self.subset_plan.subsets
            for w, k in zip(which, items):
                n, l = files[w], copies[w]
                if not (0 <= k < len(mask) and not mask[k] and 1 <= n <= N and 1 <= l <= r):
                    q, off = divmod(k, r)
                    T = f"item {k}" if off else subsets[q] if 0 <= q < len(subsets) else q
                    raise KeyError(f"user {user} does not cache ({n}, {T}, {l})")
        return gather(self.sources(files, copies), which, items, self.subfile_bytes)

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


def _reassemble(cache: GroupedCache, user: int, n: int, decoded: bytes) -> bytes:
    """File n from the subfiles of it that ``user`` caches and ``decoded``,
    in one :func:`.common.gather` by its class's :class:`ClassLayout`.

    ``decoded`` holds the subfiles (n, T, l) the user lacks, for l = 1, ...,
    r in turn and, within each l, for the T by increasing rank.
    """
    r, size = cache.net.r, cache.subfile_bytes
    c = cache.net.class_of[user] - 1
    block = len(cache.subset_plan.missing[c]) * size
    if len(decoded) != r * block:
        raise ValueError(f"user {user} decoded {len(decoded)} bytes, expected {r * block}")
    view = memoryview(decoded)
    copies = range(1, r + 1)
    sources = cache.sources([n] * r, copies) + [view[l * block :] for l in range(r)]
    which, index = cache.layouts[c]
    return gather(sources, which, index, size)


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
    which, items = cache.signal_terms
    size = cache.subfile_bytes
    block = len(plan.names) * size
    # picks[c]: the signals whose C holds class c, which its users receive.
    picks = [tuple(sorted(chain.from_iterable(at[c] for at in plan.at))) for c in range(kt)]
    for i in range(1, net.h + 1):
        terms = gather(cache.sources(*_neighbors_of(net, demand, i)), which, items, size)
        view = memoryview(terms)
        signals = xor_bytes(*[view[j * block : (j + 1) * block] for j in range(t + 1)])
        prefix, names, suffix = _form(i, plan)
        batch = Batch(names, signals, size, prefix, suffix)
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
    the signal for C = T + {class}; the user cancels the other t terms,
    which it reads in one :meth:`GroupedCache.gather` per relay.
    """
    plan = cache.signal_plan
    signals, which, items = cache.decoders[net.class_of[user] - 1]
    size = cache.subfile_bytes
    block = len(signals) * size
    decoded = []
    for i in net.users[user]:
        feed = payloads(user, i, received, signals, _form(i, plan))
        if len(feed) != block:
            raise ValueError(
                f"user {user} received {len(feed)} signal bytes from relay {i}, expected {block}"
            )
        # Block x of the terms holds, per signal, the term of its x-th other member.
        terms = memoryview(cache.gather(user, *_neighbors_of(net, demand, i), which, items))
        decoded.append(xor_bytes(feed, *[terms[x * block : (x + 1) * block] for x in range(cache.t)]))
    return _reassemble(cache, user, demand[user], b"".join(decoded))
