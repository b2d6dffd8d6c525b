"""Uncoded routing delivery on top of the class-symmetric placement.

Same caches and subfile layout as the ``proposed`` scheme, but the server
ships every missing subfile verbatim instead of XOR-combining them.  The
copy index picks the path: subfile ``(d_V, T, l)`` for user V travels via
relay V[l], so each relay-to-user edge carries exactly the C(Kt-1, t)
missing subfiles with that user's copy index for the relay.

Both ends work per relay edge from the placement's ``subset_plan``: the
ranks of the T without the user's class name the missing subfiles.  The
server reads them in one call; a decoder looks them up on each of its r
feeds in one :func:`payloads` call and slices its file back together with
what it reads from its cache in one membership-checked
:meth:`GroupedCache.read`.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping

from ..combinatorics import position_in
from ..topology import Network
from .common import Batch, Edge, TransmissionLog, fmt_subset, payloads, validate_demand
from .proposed import GroupedCache, _reassemble


def _labels(relay: int, V: tuple[int, ...], l: int, names: Iterable[str]) -> tuple[str, ...]:
    """Labels of the subfiles (T, l) for user V on ``relay``, each T given
    as written in labels."""
    stem = f"rt:i={relay}:V={fmt_subset(V)}:T="
    tail = f":l={l}"
    return tuple(stem + name + tail for name in names)


def routing_deliver(
    net: Network, cache: GroupedCache, demand: tuple[int, ...]
) -> TransmissionLog:
    validate_demand(net, cache.lib.n_files, demand)
    log = TransmissionLog()
    plan = cache.subset_plan
    size = cache.subfile_bytes
    for i in range(1, net.h + 1):
        for u in net._neighbors[i - 1]:
            V = net.users[u]
            l = position_in(V, i)
            ranks = plan.missing[net.class_of[u] - 1]
            data = cache.subfiles([demand[u]] * len(ranks), ranks, [l] * len(ranks))
            batch = Batch(_labels(i, V, l, map(plan.names.__getitem__, ranks)), data, size)
            log.add_server(i, batch)
            log.forward(i, u, batch)
    return log


def routing_decode(
    net: Network,
    user: int,
    cache: GroupedCache,
    demand: tuple[int, ...],
    received: Mapping[int, Edge],
) -> bytes:
    plan = cache.subset_plan
    V = net.users[user]
    order = plan.missing[net.class_of[user] - 1]
    names = list(map(plan.names.__getitem__, order))
    # Relay V[l] sends the copy-l subfile of each missing T, in order.
    feeds = [payloads(user, i, received, _labels(i, V, l, names)) for l, i in enumerate(V, 1)]
    return _reassemble(cache, user, demand[user], order, list(chain.from_iterable(feeds)))
