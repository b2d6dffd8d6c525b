"""Centralized coded multicast with combination network coding (``cmcnc``).

The baseline ignores the relay layer during placement: file n splits into
C(K, t') subfiles (n, S, 1) indexed by t'-subsets S of the *global* user
set, with t' = K*M/N, and user k caches exactly the subfiles with k in S.
Delivery forms one coded signal per (t'+1)-subset S — the XOR of the
subfiles each member of S is missing — then splits it into r equal parts,
expands them with an (h, r) MDS code, and ships piece i over server edge
i.  Relays forward every piece to all of their neighbors; any user sees r
distinct piece indices (its own relay subset) and can rebuild every
signal.

The placement is :class:`.common.PlannedCache`, the one cache of both coded
schemes, with the K users as its candidates and one copy of each subset,
and it carries the (h, r) MDS code that :func:`cmcnc_place` builds.  The
signals are the coded multicast that ``proposed`` runs per relay, here
over the K users, indexed by the one plan that cache builds.
Both ends work on all signals of one delivery at once.  XOR and GF(256)
coding act byte by byte, so the concatenation of every signal's j-th term
(or part, or piece) is coded in one call and sliced back per signal.

Subfiles and pieces are a few bytes at the larger memory points, so each
batch of reads by index is one :func:`.common.gather`: the server's t'+1
terms, a decoder's pieces (through :func:`.common.payloads`), each block
of terms it cancels (through the membership-checked
:meth:`.common.PlannedCache.gather`) and its file put back together.  A
user is its own candidate, so a per-candidate decode table would serve
one user per demand: the decoder runs :meth:`.common.SignalPlan.decoding`
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from ..combinatorics import binomial
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
    gather,
    grid_t,
    payloads,
    relay_code,
    validate_demand,
)


@dataclass(frozen=True)
class SubsetCache(PlannedCache):
    """The ``cmcnc`` placement: the candidates are the K users, each
    t'-subset S is cached once, and user u is candidate u + 1.  So subfile
    (n, S, 1) is bytes ``[q * subfile_bytes, (q + 1) * subfile_bytes)`` of
    file n, where q is the rank of S in enumerate_subsets(K, t').  ``code``
    spreads each signal over the h relays."""

    code: ErasureCode

    @cached_property
    def candidates(self) -> int:
        return self.net.K

    @cached_property
    def copies(self) -> int:
        return 1

    @cached_property
    def label(self) -> Sequence[int]:
        return range(1, self.net.K + 1)


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
        code=relay_code(net),
    )


def cmcnc_deliver(net: Network, cache: SubsetCache, demand: tuple[int, ...]) -> TransmissionLog:
    validate_demand(net, cache.lib.n_files, demand)
    log = TransmissionLog()
    if cache.t + 1 > net.K:
        return log
    plan = cache.signal_plan
    size = cache.subfile_bytes
    part = size // net.r
    wanted = cache.sources(demand, [1] * len(demand))
    signals = xor_bytes(
        *[gather(wanted, users, ranks, size) for users, ranks in zip(plan.member, plan.rest)]
    )

    for i, piece in enumerate(mds_encode(cache.code, _split(signals, net.r, part)), 1):
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
) -> bytes:
    K, t = net.K, cache.t
    size = cache.subfile_bytes
    own = cache.subset_plan.held[user]
    # Every subfile is copy 1; the user caches those of its file at ``own``.
    cached = cache.gather(user, (demand[user],), (1,), [0] * len(own), own)
    if t == K:
        return cached

    plan = cache.signal_plan
    mine, blocks, extracted = plan.decoding(user)
    pieces = [(i, payloads(user, i, received, mine, _form(i, plan))) for i in net.users[user]]
    signals = _merge(mds_decode(cache.code, pieces), size // net.r)

    # Block x holds the term of each signal's x-th other member, subfile
    # rest[s] of the file that member[s] demands.
    ones = (1,) * K
    coded = xor_bytes(signals, *[cache.gather(user, demand, ones, *block) for block in blocks])
    both = cached + coded

    # Subfile q of the file is item where[q] of ``both``.
    where = [0] * binomial(K, t)
    for j, q in enumerate(own + extracted):
        where[q] = j
    return gather([both], [0] * len(where), where, size)
