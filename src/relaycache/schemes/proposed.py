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

Each relay runs the coded multicast that ``cmcnc`` runs over the K users,
here over the Kt classes, through the one engine of both coded schemes,
:meth:`.plan.PlannedCache.multicast`, on the :class:`.plan.Plan` of the
grid "Kt" that :func:`proposed_place` builds once per placement.  Each
relay is one multicast source: per class, the file that its neighbor there
demands and that neighbor's copy index for the relay.  The server sends a
relay's signals as one batch, and the relay forwards each neighbor the
positions :attr:`.plan.Plan.receives` gives its class.  A decoder reads
each of its r feeds at the signals that :meth:`.plan.Plan.receiving`
groups by its class's position in C, XORs that relay's cancellations away
(:meth:`.plan.PlannedCache.cancel`), orders what it decoded by the rank of
T, and puts its file back together from the cached and the decoded
subfiles in one gather (:meth:`.plan.PlannedCache.reassemble`, by the
class's :attr:`.plan.Plan.layouts`).  The plan proves once that every term
a class cancels is a subfile it caches, in every copy
(:attr:`.plan.Plan.cancelling`), so no read is checked one by one.

Subfile layout inside a file is T-major: byte offset of ``(T, l)`` is
``(rank(T) * r + (l - 1)) * subfile_bytes`` with T ranked lexicographically.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping

from ..combinatorics import position_in
from ..topology import Network
from .common import FileLibrary, gather, payloads, validate_demand
from .log import Batch, Edge, TransmissionLog
from .plan import Plan, PlannedCache, place_planned


def proposed_place(net: Network, lib: FileLibrary, M) -> PlannedCache:
    """Split files and populate caches by parallel class: the grid "Kt"."""
    return place_planned(net, lib, M, "Kt")


def _form(relay: int, plan: Plan) -> tuple[str, list[str], str]:
    """The label form of ``relay``'s signals: signal s is labelled by its C."""
    return f"prop:i={relay}:C=", plan.names, ""


def _neighbors_of(
    net: Network, demand: tuple[int, ...], relay: int
) -> tuple[list[int], list[int]]:
    """By 0-based class: the file that ``relay``'s neighbor in that class
    demands, and that neighbor's copy index for the relay."""
    users = [net._class_rep[(relay, c)] for c in range(1, net.num_classes + 1)]
    return [demand[u] for u in users], [position_in(net.users[u], relay) for u in users]


def _sources(net: Network, demand: tuple[int, ...]) -> list[tuple[list[int], list[int]]]:
    """The multicast source of every relay, by :func:`_neighbors_of`: the
    ``sources`` of :meth:`PlannedCache.multicast`."""
    return [_neighbors_of(net, demand, i) for i in range(1, net.h + 1)]


def proposed_deliver(
    net: Network, cache: PlannedCache, demand: tuple[int, ...]
) -> TransmissionLog:
    """XOR multicast delivery: one signal per relay per (t+1)-subset of classes."""
    validate_demand(net, cache.lib.n_files, demand)
    log = TransmissionLog()
    plan = cache.plan
    if plan.t + 1 > net.num_classes:
        return log
    for i, (signals, _, _) in enumerate(cache.multicast(demand, partial(_sources, net)), 1):
        prefix, names, suffix = _form(i, plan)
        batch = Batch(names, signals, cache.subfile_bytes, prefix, suffix)
        log.add_server(i, batch)
        for u in net._neighbors[i - 1]:
            log.forward(i, u, batch, plan.receives[cache.label[u] - 1])
    return log


def proposed_decode(
    net: Network,
    user: int,
    cache: PlannedCache,
    demand: tuple[int, ...],
    received: Mapping[int, Edge],
) -> bytes:
    """Reassemble the demanded file from the cache and the r relay feeds.

    Subfile (T, l) with the user's class outside T comes from relay V[l] in
    the signal for C = T + {class}; the user XORs away that relay's
    cancellation of the other t terms, read by :meth:`PlannedCache.cancel`.
    """
    plan, size = cache.plan, cache.subfile_bytes
    if plan.t == plan.candidates:
        return cache.reassemble(user, demand[user], b"")
    # The plan's proof that the class caches what it cancels comes first.
    multicasts = cache.multicast(demand, partial(_sources, net))
    groups, signals, delivered = plan.receiving(cache.label[user] - 1)
    block = len(signals) * size
    decoded = []
    for i in net.users[user]:
        feed = payloads(user, i, received, signals, _form(i, plan))
        if len(feed) != block:
            raise ValueError(
                f"user {user} received {len(feed)} signal bytes from relay {i}, expected {block}"
            )
        decoded.append(cache.cancel(multicasts[i - 1], groups, feed))
    # Copy by copy, the T the user lacks by increasing rank, as Plan.layouts reads them.
    order = sorted(range(len(signals)), key=delivered.__getitem__)
    index = [l * len(signals) + k for l in range(len(decoded)) for k in order]
    ordered = gather([b"".join(decoded)], [0] * len(index), index, size)
    return cache.reassemble(user, demand[user], ordered)
