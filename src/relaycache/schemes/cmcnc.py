"""Centralized coded multicast with combination network coding (``cmcnc``).

The baseline ignores the relay layer during placement: file n splits into
C(K, t') subfiles indexed by t'-subsets S of the *global* user set, with
t' = K*M/N, and user k caches exactly the subfiles with k in S.  Delivery
forms one coded signal per (t'+1)-subset S — the XOR of the subfiles each
member of S is missing — then splits it into r equal parts, expands them
with an (h, r) MDS code, and ships piece i over server edge i.  Relays
forward every piece to all of their neighbors; any user sees r distinct
piece indices (its own relay subset) and can rebuild every signal.

The signals are the coded multicast that ``proposed`` runs per relay, here
over the K users, indexed by the one plan of :class:`.common.PlannedCache`.
Both ends work on all signals of one delivery at once.  XOR and GF(256)
coding act byte by byte, so the concatenation of every signal's j-th term
(or part, or piece) is coded in one call and sliced back per signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import getitem
from typing import Iterator, Mapping, Sequence

from ..combinatorics import binomial, subset_rank
from ..erasure import ErasureCode, decode as mds_decode, encode as mds_encode, xor_bytes
from ..topology import Network
from .common import (
    Batch,
    Edge,
    FileLibrary,
    PlannedCache,
    SubpacketizationError,
    TransmissionLog,
    grid_t,
    in_range,
    is_subset,
    payloads,
    validate_demand,
)


@dataclass(frozen=True)
class SubsetCache(PlannedCache):
    """Uncoded placement over (n, S)-indexed subfiles, S a t'-subset of [K].

    Subfile (n, S) is bytes ``[q * subfile_bytes, (q + 1) * subfile_bytes)``
    of file n, where q is the rank of S in enumerate_subsets(K, t').
    """

    @property
    def candidates(self) -> int:
        return self.net.K

    @cached_property
    def slices(self) -> list[slice]:
        """slices[q]: where subfile q lies in its file."""
        size = self.subfile_bytes
        return [slice(q * size, (q + 1) * size) for q in range(binomial(self.net.K, self.t))]

    @cached_property
    def labels(self) -> list[tuple[str, ...]]:
        """labels[i - 1][s]: the label of piece i of signal s."""
        stems = [f"cm:S={name}:p=" for name in self.signal_plan.names]
        return [tuple([stem + str(i) for stem in stems]) for i in range(1, self.net.h + 1)]

    def has(self, user: int, key: tuple) -> bool:
        n, S = key
        return (
            1 <= n <= self.lib.n_files
            and (user + 1) in S
            and is_subset(S, self.net.K, self.t)
        )

    def get(self, user: int, key: tuple) -> bytes:
        if not self.has(user, key):
            raise KeyError(f"user {user} does not cache {key}")
        n, S = key
        return self.read(user, (n,), (subset_rank(self.net.K, S),))

    def read(self, user: int, files: Sequence[int], ranks: Sequence[int]) -> bytes:
        """Concatenated subfiles (files[j], rank ranks[j]) for every j.

        Raises KeyError, naming the first such (n, S), unless the user
        caches all of them: S must contain the user and n lie in 1..N.
        """
        N = self.lib.n_files
        held = self.subset_plan.holds[user]
        ids = set(files)
        if not (held.issuperset(ranks) and in_range(ids, N)):
            n, q = next(
                (n, q)
                for n, q in zip(files, ranks, strict=True)
                if not (q in held and 1 <= n <= N)
            )
            subsets = self.subset_plan.subsets
            S = subsets[q] if 0 <= q < len(subsets) else q
            raise KeyError(f"user {user} does not cache {(n, S)}")
        source = {n: self.lib.file(n) for n in ids}
        return b"".join(
            map(getitem, map(source.__getitem__, files), map(self.slices.__getitem__, ranks))
        )

    def keys(self, user: int) -> Iterator[tuple]:
        plan = self.subset_plan
        held = map(plan.subsets.__getitem__, plan.held[user])
        return product(range(1, self.lib.n_files + 1), held)

    def cached_bits(self, user: int) -> int:
        per_file = binomial(self.net.K - 1, self.t - 1)
        return self.lib.n_files * per_file * self.subfile_bytes * 8


_STRIDE_PART = 32
"""Parts shorter than this many bytes are split and merged by byte column.

Both ways copy the same bytes; they differ in the Python-level steps.  A
column takes one strided copy per byte of a part, a slice one step per
signal.  Timed on CPython 3.11 with r = 2 and a few hundred signals or
more, the columns take 0.05x the time of the slices at 4-byte parts,
0.45x at 32 and 1x-2x at 48-64.
"""


def _split(signals: bytes, r: int, part: int) -> list[bytes]:
    """Part j of every ``r * part``-byte signal, concatenated, for each j < r.

    :func:`_merge` undoes it.
    """
    size = r * part
    if part >= _STRIDE_PART:
        return [
            b"".join([signals[o : o + part] for o in range(j * part, len(signals), size)])
            for j in range(r)
        ]
    parts = []
    for j in range(r):
        out = bytearray(len(signals) // r)
        for b in range(part):
            out[b::part] = signals[j * part + b :: size]
        parts.append(bytes(out))
    return parts


def _merge(parts: Sequence[bytes], part: int) -> bytes:
    """The signals that :func:`_split` cut into ``parts``."""
    size = len(parts) * part
    if part >= _STRIDE_PART:
        return b"".join([p[o : o + part] for o in range(0, len(parts[0]), part) for p in parts])
    out = bytearray(len(parts) * len(parts[0]))
    for j, p in enumerate(parts):
        for b in range(part):
            out[j * part + b :: size] = p[b::part]
    return bytes(out)


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
    if cache.t + 1 > net.K:
        return log
    plan = cache.signal_plan
    size = cache.subfile_bytes
    part = size // net.r
    wanted = [cache.lib.file(n) for n in demand]
    signals = xor_bytes(
        *[
            b"".join(
                map(getitem, map(wanted.__getitem__, users), map(cache.slices.__getitem__, ranks))
            )
            for users, ranks in zip(plan.member, plan.rest)
        ]
    )

    for i, piece in enumerate(mds_encode(code, _split(signals, net.r, part)), 1):
        batch = Batch(cache.labels[i - 1], piece, part)
        log.add_server(i, batch)
        for u in net._neighbors[i - 1]:
            log.forward(i, u, batch)
    return log


def cmcnc_decode(
    net: Network,
    user: int,
    cache: SubsetCache,
    demand: tuple[int, ...],
    received: Mapping[int, Edge],
    code: ErasureCode,
) -> bytes:
    K, t = net.K, cache.t
    size = cache.subfile_bytes
    own = cache.subset_plan.held[user]
    if t == K:
        return cache.read(user, [demand[user]] * len(own), own)

    mine, blocks, extracted = cache.signal_plan.decoding(user)
    pieces = []
    for i in net.users[user]:
        labels = map(cache.labels[i - 1].__getitem__, mine)
        pieces.append((i, b"".join(payloads(user, i, received, labels))))
    signals = _merge(mds_decode(code, pieces), size // net.r)

    # Block x holds the term of each signal's x-th other member; my own
    # cached subfiles follow the t blocks.
    users: list[int] = []
    ranks: list[int] = []
    for member, rest in blocks:
        users += member
        ranks += rest
    files = [*map(demand.__getitem__, users), *[demand[user]] * len(own)]
    cached = cache.read(user, files, ranks + own)
    block = len(mine) * size
    coded = xor_bytes(signals, *[cached[x * block : (x + 1) * block] for x in range(t)])
    both = cached[t * block :] + coded

    # Subfile q of the file is slot where[q] of ``both``.
    where = [0] * binomial(K, t)
    for j, q in enumerate(own + extracted):
        where[q] = j
    return b"".join(map(both.__getitem__, map(cache.slices.__getitem__, where)))
