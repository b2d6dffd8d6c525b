"""Uncoded routing delivery on top of the class-symmetric placement.

Same caches and subfile layout as the ``proposed`` scheme, but the server
ships every missing subfile verbatim instead of XOR-combining them.  The
copy index picks the path: subfile ``(d_V, T, l)`` for user V travels via
relay V[l], so each relay-to-user edge carries exactly the C(Kt-1, t)
missing subfiles with that user's copy index for the relay.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..combinatorics import enumerate_subsets, position_in
from ..topology import Network
from .common import Record, TransmissionLog, fmt_subset, payloads, validate_demand
from .proposed import GroupedCache


def _label(relay: int, V: tuple[int, ...], T: tuple[int, ...], l: int) -> str:
    return f"rt:i={relay}:V={fmt_subset(V)}:T={fmt_subset(T)}:l={l}"


def routing_deliver(
    net: Network, cache: GroupedCache, demand: tuple[int, ...]
) -> TransmissionLog:
    validate_demand(net, cache.lib.n_files, demand)
    log = TransmissionLog()
    subsets = enumerate_subsets(net.num_classes, cache.t)
    for i in range(1, net.h + 1):
        for u in net._neighbors[i - 1]:
            V = net.users[u]
            l = position_in(V, i)
            label = net.class_of[u]
            records = [
                Record(_label(i, V, T, l), cache.subfile(demand[u], T, l))
                for T in subsets
                if label not in T
            ]
            log.add_server(i, records)
            log.forward(i, u, records)
    return log


def routing_decode(
    net: Network,
    user: int,
    cache: GroupedCache,
    demand: tuple[int, ...],
    received: Mapping[int, Sequence[Record]],
) -> bytes:
    V = net.users[user]
    mine = net.class_of[user]
    subsets = enumerate_subsets(net.num_classes, cache.t)
    missing = [T for T in subsets if mine not in T]
    # feeds[l - 1] yields relay V[l]'s copy-l subfile of each missing T, in order.
    feeds = [
        iter(payloads(user, i, received, [_label(i, V, T, l) for T in missing]))
        for l, i in enumerate(V, 1)
    ]
    return b"".join(
        [
            cache.get(user, (demand[user], T, l)) if mine in T else next(feeds[l - 1])
            for T in subsets
            for l in range(1, net.r + 1)
        ]
    )
