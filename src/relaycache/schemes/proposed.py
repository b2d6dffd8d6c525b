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
tables of the :class:`.plan.Plan` of the grid "Kt" that
:func:`proposed_place` builds once per placement, into the one cache of
both coded schemes, :class:`.plan.PlannedCache`.  Subfiles are read as items by
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
:attr:`.plan.Plan.decoders` and :attr:`.plan.Plan.layouts`.  The signals
of a decoder are checked once, too, against the positions a relay forwards
to its class, so a feed picked at those very positions is read without the
per-read check of :func:`.common.payloads`.

Every term of every signal is a library subfile, fixed for the placement,
so the placement keeps the int form of each subfile of a file once the
file is read (:attr:`.plan.PlannedCache.ints`).  At subfiles of
``_INT_BYTES`` or more both ends work on those ints instead of the joined
blocks: the server picks the t+1 term ints of each signal
(:func:`.common.pick` over :meth:`.plan.PlannedCache.int_sources`), XORs
them and converts once per signal; a decoder converts only the feed it
received, and XORs away the ints of the terms it cancels, which
:meth:`.plan.PlannedCache.cancelled_ints` reads with the checks of
:meth:`.plan.PlannedCache.cancelled`.  So a placement that serves many
demands converts each subfile it reads once, not once per demand.

Subfile layout inside a file is T-major: byte offset of ``(T, l)`` is
``(rank(T) * r + (l - 1)) * subfile_bytes`` with T ranked lexicographically.
"""

from __future__ import annotations

from itertools import repeat
from operator import xor
from typing import Mapping

from ..combinatorics import position_in
from ..erasure import xor_bytes
from ..topology import Network
from .common import FileLibrary, gather, payloads, pick, validate_demand
from .log import Batch, Edge, TransmissionLog
from .plan import Plan, PlannedCache, place_planned


_INT_BYTES = 256
"""Subfiles of at least this many bytes are XORed as the placement's int
forms, one int per subfile; smaller ones as joined blocks.

The int path takes a few Python-level steps per signal, the block path a
few per relay plus a conversion of every term on every demand.  Timed on
CPython 3.11 (x86-64) over every grid M of comb(6,2) at N = 10 and of
comb(9,3) at N = 28 (M = 2, 26), with 20 demands served per placement, the
int path takes 1.1x-1.3x the time of the blocks at 128 bytes, 1.04x-1.12x
at 192, 0.93x at 256, 0.82x-0.96x at 384 and 0.69x at 4 kB.  With one
demand per placement it breaks even between 384 bytes and 1 kB.
"""


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


def _on_ints(cache: PlannedCache) -> bool:
    """Whether the signals XOR the int forms of ``cache``: at subfiles of
    ``_INT_BYTES`` or more, when each signal has a term to cancel."""
    plan = cache.plan
    return 0 < plan.t < plan.candidates and cache.subfile_bytes >= _INT_BYTES


def _xor_blocks(terms: list[int], blocks: int, size: int) -> bytes:
    """Per k, the XOR of item k of each of the ``blocks`` equal blocks of
    ``terms``, as ``size`` bytes, big-endian; joined in order of k."""
    n = len(terms) // blocks
    signals = terms[:n]
    for x in range(1, blocks):
        signals = map(xor, signals, terms[x * n : (x + 1) * n])
    return b"".join(map(int.to_bytes, signals, repeat(size), repeat("big")))


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
    ints = _on_ints(cache)
    for i in range(1, net.h + 1):
        sources = _neighbors_of(net, demand, i)
        if ints:
            signals = _xor_blocks(pick(cache.int_sources(*sources), which, items), t + 1, size)
        else:
            view = memoryview(gather(cache.sources(*sources), which, items, size))
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
    which it reads in one :meth:`PlannedCache.cancelled` per relay, or
    :meth:`PlannedCache.cancelled_ints` at subfiles of ``_INT_BYTES`` or more.
    """
    plan, c = cache.plan, cache.label[user] - 1
    signals = plan.decoders[c][0]
    size = cache.subfile_bytes
    block = len(signals) * size
    ints = _on_ints(cache)
    decoded = []
    for i in net.users[user]:
        feed = payloads(user, i, received, signals, _form(i, plan), plan.receives[c])
        if len(feed) != block:
            raise ValueError(
                f"user {user} received {len(feed)} signal bytes from relay {i}, expected {block}"
            )
        sources = _neighbors_of(net, demand, i)
        # Block x of the terms holds, per signal, the term of its x-th other member.
        if ints:
            view = memoryview(feed)
            terms = [int.from_bytes(view[k : k + size], "big") for k in range(0, block, size)]
            decoded.append(_xor_blocks(terms + cache.cancelled_ints(user, *sources), plan.t + 1, size))
        else:
            terms = memoryview(cache.cancelled(user, *sources))
            blocks = [terms[x * block : (x + 1) * block] for x in range(plan.t)]
            decoded.append(xor_bytes(feed, *blocks))
    return cache.reassemble(user, demand[user], b"".join(decoded))
