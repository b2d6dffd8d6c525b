"""Uncoded routing delivery on top of the class-symmetric placement.

Same caches and subfile layout as the ``proposed`` scheme, but the server
ships every missing subfile verbatim instead of XOR-combining them.  The
copy index picks the path: subfile ``(d_V, T, l)`` for user V travels via
relay V[l], so each relay-to-user edge carries exactly the C(Kt-1, t)
missing subfiles with that user's copy index for the relay.

Both ends work per relay edge from the subset tables of the placement's
:class:`.plan.Plan`: the ranks of the T without the user's class are the
missing subfiles, and their names, built once per plan, label them; the
signal tables of the plan are never built.  The server reads them
in one :func:`.common.gather` and sends them as one batch; a decoder reads
every position of that batch on each of its r feeds in one :func:`payloads`
call, which returns the batch's buffer itself, and puts its file back
together from its cache and the joined feeds in one more gather, by the
class layout that ``proposed`` decodes by too, checked against the class's
row :attr:`.plan.Plan.holds` once, when it is built.
"""

from __future__ import annotations

from typing import Mapping

from ..combinatorics import position_in
from ..topology import Network
from .common import gather, payloads, validate_demand
from .log import Batch, Edge, TransmissionLog
from .plan import PlannedCache, fmt_subset


def _form(relay: int, V: tuple[int, ...], l: int, names: list[str]) -> tuple[str, list[str], str]:
    """The label form of the subfiles (T, l) for user V on ``relay``, each labelled by T."""
    return f"rt:i={relay}:V={fmt_subset(V)}:T=", names, f":l={l}"


def routing_deliver(
    net: Network, cache: PlannedCache, demand: tuple[int, ...]
) -> TransmissionLog:
    validate_demand(net, cache.lib.n_files, demand)
    log = TransmissionLog()
    plan = cache.plan
    size = cache.subfile_bytes
    for i in range(1, net.h + 1):
        for u in net._neighbors[i - 1]:
            V = net.users[u]
            l = position_in(V, i)
            c = cache.label[u] - 1
            ranks = plan.missing[c]
            items = list(map(net.r.__mul__, ranks))
            data = gather(cache.sources((demand[u],), (l,)), [0] * len(ranks), items, size)
            prefix, names, suffix = _form(i, V, l, plan.missing_names[c])
            batch = Batch(names, data, size, prefix, suffix)
            log.add_server(i, batch)
            log.forward(i, u, batch)
    return log


def routing_decode(
    net: Network,
    user: int,
    cache: PlannedCache,
    demand: tuple[int, ...],
    received: Mapping[int, Edge],
) -> bytes:
    plan = cache.plan
    V = net.users[user]
    c = cache.label[user] - 1
    everything = range(len(plan.missing[c]))
    # Relay V[l] sends the copy-l subfile of each missing T, in order.
    feeds = b"".join(
        payloads(user, i, received, everything, _form(i, V, l, plan.missing_names[c]))
        for l, i in enumerate(V, 1)
    )
    return cache.reassemble(user, demand[user], feeds)
