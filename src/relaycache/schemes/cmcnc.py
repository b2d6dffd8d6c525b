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

:func:`cmcnc_place` builds the one cache of both coded schemes,
:class:`.plan.PlannedCache`, on the grid "K" of :data:`.plan.GRIDS`, with
``code`` the (h, r) MDS code.  The signals are the coded multicast that
``proposed`` runs per relay, here once over the K users, through the same
engine, :meth:`.plan.PlannedCache.multicast`, with one multicast source:
the demand, in copy 1.  XOR and GF(256) coding act byte by byte, so each
part and piece of every signal is coded in one call over their
concatenation and sliced back per signal.

A decoder reads its r pieces at the signals of
:meth:`.plan.Plan.receiving`, grouped by its position in S, in one
:func:`.common.payloads` each, decodes them into its signals and XORs away
the cancellations of the engine (:meth:`.plan.PlannedCache.cancel`): one
per signal, the XOR of every term but its own, where reading each term it
cancels would take t' reads.  The plan proves once, before any byte is
read, that every term so cancelled is a subfile the member caches
(:attr:`.plan.Plan.cancelling`).  Its cached subfiles come in one gather
(:meth:`.plan.PlannedCache.cached`), and its file is put back together in
one more, by its own rank order: a user is its own candidate, so a
per-candidate table would serve one user per demand.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Sequence

from ..combinatorics import binomial
from ..erasure import decode as mds_decode, encode as mds_encode
from ..topology import Network
from .common import FileLibrary, gather, payloads, relay_code, validate_demand
from .log import Batch, Edge, TransmissionLog
from .plan import Plan, PlannedCache, place_planned


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


def _form(relay: int, plan: Plan) -> tuple[str, list[str], str]:
    """The label form of piece ``relay`` of every signal, labelled by its S."""
    return "cm:S=", plan.names, f":p={relay}"


def _sources(demand: tuple[int, ...]) -> list[tuple[tuple[int, ...], list[int]]]:
    """The one multicast source, every user wanting its file in copy 1: the
    ``sources`` of :meth:`PlannedCache.multicast`."""
    return [(demand, [1] * len(demand))]


def cmcnc_place(net: Network, lib: FileLibrary, M) -> PlannedCache:
    """Split files over user subsets: the grid "K"."""
    return place_planned(net, lib, M, "K", relay_code(net))


def cmcnc_deliver(net: Network, cache: PlannedCache, demand: tuple[int, ...]) -> TransmissionLog:
    validate_demand(net, cache.lib.n_files, demand)
    log = TransmissionLog()
    plan = cache.plan
    if plan.t + 1 > net.K:
        return log
    part = cache.subfile_bytes // net.r
    ((signals, _, _),) = cache.multicast(demand, _sources)

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
    cache: PlannedCache,
    demand: tuple[int, ...],
    received: Mapping[int, Edge],
) -> bytes:
    plan, size = cache.plan, cache.subfile_bytes
    if plan.t == net.K:
        return cache.cached(user, demand[user])
    # The plan's proof that the user caches what it cancels comes first.
    (multicast,) = cache.multicast(demand, _sources)
    cached = cache.cached(user, demand[user])

    groups, mine, extracted = plan.receiving(user)
    pieces = [(i, payloads(user, i, received, mine, _form(i, plan))) for i in net.users[user]]
    signals = _merge(mds_decode(cache.code, pieces), size // net.r)
    both = cached + cache.cancel(multicast, groups, signals)

    # Subfile q of the file is item where[q] of ``both``.
    where = [0] * binomial(net.K, plan.t)
    for j, q in enumerate(chain(plan.held[user], extracted)):
        where[q] = j
    return gather([both], [0] * len(where), where, size)
