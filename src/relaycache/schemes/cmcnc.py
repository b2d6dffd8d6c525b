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

Subfiles and pieces are a few bytes at the larger memory points, so each
batch of reads by index is one :func:`.common.gather`: the server's t'+1
terms, a decoder's pieces (through :func:`.common.payloads`), each block
of terms it cancels (through the membership-checked
:meth:`SubsetCache.gather`) and its file put back together.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterator, Mapping, Sequence

from ..combinatorics import binomial, subset_rank
from ..erasure import ErasureCode, decode as mds_decode, encode as mds_encode, xor_bytes
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
    def views(self) -> list:
        """views[n - 1]: file n as :func:`.common.gather` reads its subfiles,
        without a copy."""
        return [as_items(f, self.subfile_bytes) for f in self.lib.files]

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
        """Concatenated subfiles (files[j], rank ranks[j]) for every j; see
        :meth:`gather`."""
        return self.gather(user, files, range(len(files)), ranks)

    def gather(
        self, user: int, files: Sequence[int], which: Sequence[int], ranks: Sequence[int]
    ) -> bytes:
        """Concatenated subfiles (files[which[j]], rank ranks[j]) for every j.

        Raises ValueError if ``which`` and ``ranks`` differ in length or a
        file id lies outside 1..N, and KeyError, naming the first such
        (n, S), unless the user caches all of them: S must contain the user.
        """
        if len(which) != len(ranks):
            raise ValueError(f"{len(which)} files and {len(ranks)} ranks differ in length")
        N = self.lib.n_files
        held = self.subset_plan.holds[user]
        if not (held.issuperset(ranks) and in_range(files, N)):
            for w, q in zip(which, ranks):
                n = files[w]
                if not (q in held and 1 <= n <= N):
                    subsets = self.subset_plan.subsets
                    S = subsets[q] if 0 <= q < len(subsets) else q
                    raise KeyError(f"user {user} does not cache {(n, S)}")
            bad = next(n for n in files if not 1 <= n <= N)
            raise ValueError(f"file id {bad} outside 1..{N}")
        views = self.views
        return gather([views[n - 1] for n in files], which, ranks, self.subfile_bytes)

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


def _form(relay: int, plan: SignalPlan) -> tuple[str, list[str], str]:
    """The label form of piece ``relay`` of every signal, labelled by its S."""
    return "cm:S=", plan.names, f":p={relay}"


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
    wanted = [cache.views[n - 1] for n in demand]
    signals = xor_bytes(
        *[gather(wanted, users, ranks, size) for users, ranks in zip(plan.member, plan.rest)]
    )

    for i, piece in enumerate(mds_encode(code, _split(signals, net.r, part)), 1):
        prefix, names, suffix = _form(i, plan)
        batch = Batch(names, piece, part, prefix, suffix)
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
    wanted = (demand[user],)
    if t == K:
        return cache.gather(user, wanted, [0] * len(own), own)

    plan = cache.signal_plan
    mine, blocks, extracted = plan.decoding(user)
    pieces = [(i, payloads(user, i, received, mine, _form(i, plan))) for i in net.users[user]]
    signals = _merge(mds_decode(code, pieces), size // net.r)

    # Block x holds the term of each signal's x-th other member, subfile
    # rest[s] of the file that member[s] demands.
    coded = xor_bytes(signals, *[cache.gather(user, demand, *block) for block in blocks])
    both = cache.gather(user, wanted, [0] * len(own), own) + coded

    # Subfile q of the file is item where[q] of ``both``.
    where = [0] * binomial(K, t)
    for j, q in enumerate(own + extracted):
        where[q] = j
    return gather([both], [0] * len(where), where, size)
