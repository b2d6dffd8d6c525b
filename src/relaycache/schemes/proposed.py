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

Both ends work on all signals of a relay at once, indexed by the signal
tables of the :class:`.plan.Plan` over the Kt classes with r copies that
:func:`proposed_place` builds once per placement (``cmcnc`` uses the same
kind of plan over the K users; ``routing`` only its subset tables).
:class:`.plan.PlannedCache` is the one cache of both coded schemes; here
its ``label`` is each user's class.  Subfiles are read as items by
:func:`.common.gather`, never sliced one by one: subfile (n, T, l) is item
rank(T) * r of file n viewed from copy l on
(:attr:`.plan.PlannedCache.views`).  XOR acts byte by byte, so a relay
reads the j-th term of every signal, for every j, in one gather over its
neighbors' files with ``which`` the member class, XORs the t+1 blocks as
integers and sends the result as one batch to each neighbor, at the
positions :attr:`.plan.Plan.receives` gives its class.  A decoder reads
the terms it cancels on each relay in one
:meth:`.plan.PlannedCache.cancelled`, XORs them away from that relay's
feed the same way, and puts its file back together from the cached and
the decoded subfiles in one more gather
(:meth:`.plan.PlannedCache.reassemble`).  The tables those reads use are
built once per class and plan, held as arrays and checked against the
class's row of cached subfiles when built, so their reads skip that scan:
:attr:`.plan.Plan.decoders` and :attr:`.plan.Plan.layouts`.

Subfile layout inside a file is T-major: byte offset of ``(T, l)`` is
``(rank(T) * r + (l - 1)) * subfile_bytes`` with T ranked lexicographically.
"""

from __future__ import annotations

from typing import Mapping

from ..combinatorics import position_in
from ..erasure import xor_bytes
from ..topology import Network
from .common import FileLibrary, gather, payloads, validate_demand
from .log import Batch, Edge, TransmissionLog
from .plan import Plan, PlannedCache, place_planned


def proposed_place(net: Network, lib: FileLibrary, M) -> PlannedCache:
    """Split files and populate caches by parallel class.

    M must lie on the grid {0, N/Kt, 2N/Kt, ..., N} and the file size must
    split into r * C(Kt, t) whole-byte subfiles.
    """
    return place_planned(net, lib, M, net.class_of, net.r, "Kt")


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


def proposed_deliver(
    net: Network, cache: PlannedCache, demand: tuple[int, ...]
) -> TransmissionLog:
    """XOR multicast delivery: one signal per relay per (t+1)-subset of classes."""
    validate_demand(net, cache.lib.n_files, demand)
    log = TransmissionLog()
    plan = cache.plan
    t = plan.t
    if t + 1 > net.num_classes:
        return log
    which, items = plan.signal_terms
    size = cache.subfile_bytes
    block = len(plan.names) * size
    for i in range(1, net.h + 1):
        terms = gather(cache.sources(*_neighbors_of(net, demand, i)), which, items, size)
        view = memoryview(terms)
        signals = xor_bytes(*[view[j * block : (j + 1) * block] for j in range(t + 1)])
        prefix, names, suffix = _form(i, plan)
        batch = Batch(names, signals, size, prefix, suffix)
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
    the signal for C = T + {class}; the user cancels the other t terms,
    which it reads in one :meth:`PlannedCache.cancelled` per relay.
    """
    plan = cache.plan
    signals = plan.decoders[cache.label[user] - 1][0]
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
        terms = memoryview(cache.cancelled(user, *_neighbors_of(net, demand, i)))
        blocks = [terms[x * block : (x + 1) * block] for x in range(plan.t)]
        decoded.append(xor_bytes(feed, *blocks))
    return cache.reassemble(user, demand[user], b"".join(decoded))
