"""Centralized coded multicast with combination network coding (``cmcnc``).

The baseline ignores the relay layer during placement: file n splits into
C(K, t') subfiles indexed by t'-subsets S of the *global* user set, with
t' = K*M/N, and user k caches exactly the subfiles with k in S.  Delivery
forms one coded signal per (t'+1)-subset S — the XOR of the subfiles each
member of S is missing — then splits it into r equal parts, expands them
with an (h, r) MDS code, and ships piece i over server edge i.  Relays
forward every piece to all of their neighbors; any user sees r distinct
piece indices (its own relay subset) and can rebuild every signal.

Both ends work on all signals of one delivery at once.  XOR and GF(256)
coding act byte by byte, so the concatenation of every signal's j-th term
(or part, or piece) is coded in one call and sliced back per signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple, Sequence

from ..combinatorics import binomial, enumerate_subsets, subset_rank
from ..erasure import ErasureCode, decode as mds_decode, encode as mds_encode
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


@lru_cache(maxsize=32)
def _held(K: int, t: int, k: int) -> frozenset[int]:
    """Ranks of the t-subsets of [K] that contain user k (1-based)."""
    return frozenset(q for q, S in enumerate(enumerate_subsets(K, t)) if k in S)


@dataclass(frozen=True)
class SubsetCache(CacheView):
    """Uncoded placement over (n, S)-indexed subfiles, S a t'-subset of [K].

    Subfile (n, S) is bytes ``[q * subfile_bytes, (q + 1) * subfile_bytes)``
    of file n, where q is the rank of S in enumerate_subsets(K, t').
    """

    net: Network
    lib: FileLibrary
    storage: Fraction
    t: int
    subfile_bytes: int

    def has(self, user: int, key: tuple) -> bool:
        n, S = key
        return (user + 1) in S

    def get(self, user: int, key: tuple) -> bytes:
        if not self.has(user, key):
            raise KeyError(f"user {user} does not cache {key}")
        n, S = key
        return self.read(user, (n,), (subset_rank(self.net.K, S),))

    def read(self, user: int, files: Sequence[int], ranks: Sequence[int]) -> bytes:
        """Concatenated subfiles (files[j], rank ranks[j]) for every j.

        Raises KeyError, naming the first such key, unless the user caches
        all of them.
        """
        held = _held(self.net.K, self.t, user + 1)
        if not held.issuperset(ranks):
            subsets = enumerate_subsets(self.net.K, self.t)
            n, q = next((n, q) for n, q in zip(files, ranks) if q not in held)
            raise KeyError(f"user {user} does not cache {(n, subsets[q])}")
        size = self.subfile_bytes
        source = {n: self.lib.file(n) for n in set(files)}
        return b"".join(
            [source[n][q * size : (q + 1) * size] for n, q in zip(files, ranks)]
        )

    def keys(self, user: int) -> Iterator[tuple]:
        k = user + 1
        for n in range(1, self.lib.n_files + 1):
            for S in enumerate_subsets(self.net.K, self.t):
                if k in S:
                    yield (n, S)

    def cached_bits(self, user: int) -> int:
        per_file = binomial(self.net.K - 1, self.t - 1)
        return self.lib.n_files * per_file * self.subfile_bytes * 8


def cmcnc_place(net: Network, lib: FileLibrary, M) -> SubsetCache:
    """Split files over user subsets; file size must allow the r-way split too."""
    t = grid_t(net.K, lib.n_files, M, "K")
    nsub = net.r * binomial(net.K, t)
    if lib.file_bytes % nsub != 0:
        raise SubpacketizationError(
            f"file size {lib.file_bytes} bytes must be divisible by {nsub} "
            f"(= r * C(K, t') units)"
        )
    return SubsetCache(
        net=net,
        lib=lib,
        storage=Fraction(M),
        t=t,
        subfile_bytes=lib.file_bytes // binomial(net.K, t),
    )


class _Plan(NamedTuple):
    """Every signal of one delivery at t' = t, by index s in delivery order.

    Term position j of signal S is the subfile (d_k, S minus k), k = S[j].
    """

    subsets: list[tuple[int, ...]]  # the (t'+1)-subsets S
    labels: list[list[str]]  # labels[i - 1][s]: the label of piece i
    member: list[list[int]]  # member[j][s]: S[j] - 1, a 0-based user
    rest: list[list[int]]  # rest[j][s]: rank of S minus S[j] among t'-subsets
    at: list[list[list[int]]]  # at[j][u]: every s with S[j] - 1 == u


@lru_cache(maxsize=2)
def _plan(K: int, t: int, h: int) -> _Plan:
    subsets = enumerate_subsets(K, t + 1)
    rank = {S: q for q, S in enumerate(enumerate_subsets(K, t))}
    stems = [f"cm:S={fmt_subset(S)}:p=" for S in subsets]
    at: list[list[list[int]]] = [[[] for _ in range(K)] for _ in range(t + 1)]
    for s, S in enumerate(subsets):
        for j, k in enumerate(S):
            at[j][k - 1].append(s)
    return _Plan(
        subsets=subsets,
        labels=[[stem + str(i) for stem in stems] for i in range(1, h + 1)],
        member=[[S[j] - 1 for S in subsets] for j in range(t + 1)],
        rest=[[rank[S[:j] + S[j + 1 :]] for S in subsets] for j in range(t + 1)],
        at=at,
    )


def cmcnc_deliver(
    net: Network,
    cache: SubsetCache,
    demand: tuple[int, ...],
    code: ErasureCode,
) -> TransmissionLog:
    validate_demand(net, cache.lib.n_files, demand)
    if (code.n, code.k) != (net.h, net.r):
        raise ValueError(
            f"need an ({net.h}, {net.r}) code, got ({code.n}, {code.k})"
        )
    log = TransmissionLog()
    K, t = net.K, cache.t
    if t + 1 > K:
        return log
    plan = _plan(K, t, net.h)
    size = cache.subfile_bytes
    part = size // net.r
    total = len(plan.subsets) * size
    wanted = [cache.lib.file(n) for n in demand]

    coded = 0
    for users, ranks in zip(plan.member, plan.rest):
        terms = b"".join(
            [wanted[u][q * size : (q + 1) * size] for u, q in zip(users, ranks)]
        )
        coded ^= int.from_bytes(terms, "big")
    signals = coded.to_bytes(total, "big")

    parts = [
        b"".join([signals[o : o + part] for o in range(j * part, total, size)])
        for j in range(net.r)
    ]
    for i, piece in enumerate(mds_encode(code, parts), 1):
        chunks = [piece[o : o + part] for o in range(0, len(piece), part)]
        records = list(map(Record, plan.labels[i - 1], chunks))
        log.add_server(i, records)
        for u in net._neighbors[i - 1]:
            log.forward(i, u, records)
    return log


def cmcnc_decode(
    net: Network,
    user: int,
    cache: SubsetCache,
    demand: tuple[int, ...],
    received: Mapping[int, Sequence[Record]],
    code: ErasureCode,
) -> bytes:
    K, t = net.K, cache.t
    size = cache.subfile_bytes
    own = sorted(_held(K, t, user + 1))
    if t == K:
        return cache.read(user, [demand[user]] * len(own), own)

    # My signals, grouped by my position p in S.
    plan = _plan(K, t, net.h)
    groups = [plan.at[p][user] for p in range(t + 1)]
    mine = [s for group in groups for s in group]
    pieces = []
    for i in net.users[user]:
        labels = map(plan.labels[i - 1].__getitem__, mine)
        pieces.append((i, b"".join(payloads(user, i, received, labels))))
    data = mds_decode(code, pieces)
    part = size // net.r
    signals = b"".join([d[o : o + part] for o in range(0, len(data[0]), part) for d in data])

    # Block x holds the term of each signal's x-th other member; my own
    # cached subfiles follow the t blocks.
    users: list[int] = []
    ranks: list[int] = []
    for x in range(t):
        for p, group in enumerate(groups):
            j = x + (x >= p)
            users += map(plan.member[j].__getitem__, group)
            ranks += map(plan.rest[j].__getitem__, group)
    files = [*map(demand.__getitem__, users), *[demand[user]] * len(own)]
    cached = cache.read(user, files, ranks + own)
    block = len(mine) * size
    coded = int.from_bytes(signals, "big")
    for x in range(t):
        coded ^= int.from_bytes(cached[x * block : (x + 1) * block], "big")
    both = cached[t * block :] + coded.to_bytes(block, "big")

    # Subfile q of the file is slot where[q] of ``both``.
    extracted = [plan.rest[p][s] for p, group in enumerate(groups) for s in group]
    where = [0] * binomial(K, t)
    for j, q in enumerate(own + extracted):
        where[q] = j
    return b"".join([both[w * size : (w + 1) * size] for w in where])
