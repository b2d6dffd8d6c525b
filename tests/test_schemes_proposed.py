"""Class-symmetric XOR multicast and the routing delivery that shares its caches."""

import dataclasses
import itertools
import math
import os
import random
import re
import subprocess
import sys
from array import array
from collections import Counter
from fractions import Fraction

import pytest

import relaycache
from relaycache.combinatorics import binomial, enumerate_subsets
from relaycache.schemes import (
    GridError,
    cmcnc_decode,
    cmcnc_deliver,
    cmcnc_place,
    IncompleteReceptionError,
    SubpacketizationError,
    all_demands,
    distinct_demand,
    proposed,
    proposed_decode,
    proposed_deliver,
    proposed_place,
    random_demand,
    random_library,
    routing_decode,
    routing_deliver,
)
from relaycache.schemes import common, plan
from relaycache.schemes.plan import Plan
from relaycache.topology import affine_plane, combination_network
import support
from support import checked_read, relay_neighborhood, user_index
from test_golden import edge_records


def subfile_oracle(lib, kt, r, t, n, T, l):
    """Test-local slice: T-major layout recomputed from first principles."""
    subsets = list(itertools.combinations(range(1, kt + 1), t))
    size = lib.file_bytes // (r * math.comb(kt, t))
    offset = (subsets.index(tuple(T)) * r + (l - 1)) * size
    return lib.file(n)[offset : offset + size]


def read(cache, user, keys):
    """The gather read of subfiles ``keys`` (n, T, l) of comb(4,2), whose
    Kt = 3 classes rank each T by :func:`enumerate_subsets`."""
    rank = {T: q for q, T in enumerate(enumerate_subsets(3, cache.plan.t))}
    files, copies = [n for n, _, _ in keys], [l for _, _, l in keys]
    items = [rank[T] * cache.plan.copies for _, T, _ in keys]
    return checked_read(cache, user, files, copies, range(len(keys)), items)


def cached_keys(cache, user):
    """The subfiles (n, T, l) that ``user`` may read, from the row that
    gates every read: file-major, then T by rank, then copy."""
    subsets = enumerate_subsets(cache.plan.candidates, cache.plan.t)
    held = [k for k, bit in enumerate(cache.plan.holds[cache.label[user] - 1]) if bit]
    r = cache.plan.copies
    return [
        (n, subsets[k // r], l)
        for n in range(1, cache.lib.n_files + 1)
        for k in held
        for l in range(1, r + 1)
    ]


def oracle(lib, t, keys):
    """Subfiles ``keys`` of comb(4,2) (Kt = 3, r = 2) at grid point t, joined."""
    return b"".join(subfile_oracle(lib, 3, 2, t, n, T, l) for n, T, l in keys)


def xor(*bufs):
    out = bytes(len(bufs[0]))
    for b in bufs:
        out = bytes(x ^ y for x, y in zip(out, b))
    return out


@pytest.fixture(scope="module")
def lib6(comb42):
    # 6 files, 30 bytes each: exact for proposed (divisor 6) and cmcnc.
    return random_library(6, 30, seed=101)


class TestPlacement:
    def test_grid_violations(self, comb42, lib6):
        with pytest.raises(GridError):
            proposed_place(comb42, lib6, 1)
        with pytest.raises(GridError):
            proposed_place(comb42, lib6, 7)

    def test_subpacketization_error_names_divisor(self, comb42):
        lib = random_library(6, 5, seed=1)
        with pytest.raises(SubpacketizationError, match="6"):
            proposed_place(comb42, lib, 2)

    def test_group_caches_first_class_subfiles(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 2)
        assert cache.plan.t == 1
        assert cache.subfile_bytes * 6 == lib6.file_bytes
        for subset, label in [((1, 2), 1), ((3, 4), 1), ((1, 3), 2), ((2, 4), 2)]:
            u = user_index(comb42, subset)
            assert comb42.class_of[u] == label
            expected = {(n, (label,), l) for n in range(1, 7) for l in (1, 2)}
            assert set(cached_keys(cache, u)) == expected
            assert read(cache, u, sorted(expected)) == oracle(lib6, 1, sorted(expected))

    def test_cached_bytes_match_library(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 2)
        u = user_index(comb42, (1, 3))
        for key in cached_keys(cache, u):
            assert read(cache, u, [key]) == oracle(lib6, 1, [key])

    @pytest.mark.parametrize("M", [0, 2, 4, 6])
    def test_budget_is_exactly_mf(self, comb42, lib6, M):
        cache = proposed_place(comb42, lib6, M)
        for u in range(comb42.K):
            held = cache.plan.holds[comb42.class_of[u] - 1].count(1)
            assert held * cache.plan.copies * lib6.n_files * cache.subfile_bytes * 8 == M * lib6.file_bits
            keys = cached_keys(cache, u)
            got = read(cache, u, keys)
            assert got == oracle(lib6, cache.plan.t, keys)
            assert len(got) * 8 == M * lib6.file_bits

    def test_read_checks_file_and_copy_bounds(self, comb42, lib6):
        # N = 6, r = 2, t = 1: the user's class is in T, but file 0 or 7, or
        # copy 0 or 3, is not a subfile it caches, and its read is refused.
        cache = proposed_place(comb42, lib6, 2)
        u = user_index(comb42, (1, 2))
        assert (6, (1,), 2) in cached_keys(cache, u)
        assert read(cache, u, [(6, (1,), 2)]) == oracle(lib6, 1, [(6, (1,), 2)])
        for key in [(1, (1,), 3), (3, (1,), 0), (7, (1,), 1), (0, (1,), 1)]:
            assert key not in cached_keys(cache, u)
            with pytest.raises(KeyError):
                read(cache, u, [key])

    def test_read_matches_get(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 4)
        u = user_index(comb42, (1, 3))
        keys = sorted(cached_keys(cache, u), key=lambda key: (key[2], key[1], -key[0]))
        assert read(cache, u, keys) == oracle(lib6, 2, keys)
        assert checked_read(cache, u, [], [], range(0), []) == b""

    @pytest.mark.parametrize(
        "files,ranks,copies,named",
        [
            ([1, 2], [0, 1], [1, 1], "(2, (2,), 1)"),
            ([1, 7, 1], [0, 0, 1], [2, 1, 1], "(7, (1,), 1)"),
            ([1, 1], [0, 0], [2, 3], "(1, (1,), 3)"),
            ([5], [0], [0], "(5, (1,), 0)"),
            ([0, 1], [0, 2], [1, 1], "(0, (1,), 1)"),
        ],
    )
    def test_read_names_first_uncached_key(self, comb42, lib6, files, ranks, copies, named):
        cache = proposed_place(comb42, lib6, 2)
        u = user_index(comb42, (1, 2))
        with pytest.raises(KeyError, match=re.escape(f"user {u} does not cache {named}")):
            checked_read(cache, u, files, copies, range(len(files)), [q * cache.plan.copies for q in ranks])

    @pytest.mark.parametrize(
        "files,ranks,copies",
        [
            ([1], [-1], [1]),  # a negative rank once wrapped to the last T
            ([1], [3], [1]),  # C(3, 1) = 3 ranks: 0, 1 and 2
            ([1], [0], [-1]),  # a negative copy once wrapped to copy r
            ([1], [0], [0]),
            ([1], [0], [3]),
            ([1, 1], [0, 2], [1, 3]),
            ([0], [0], [1]),
            ([7], [0], [1]),
            ([-1], [0], [1]),
        ],
    )
    def test_subfiles_refuse_what_does_not_exist(self, comb42, lib6, files, ranks, copies):
        # N = 6, Kt = 3, t = 1, r = 2: no index wraps or spills into the next subfile.
        cache = proposed_place(comb42, lib6, 2)
        items = [q * cache.plan.copies for q in ranks]
        with pytest.raises(IndexError):
            common.gather(cache.sources(files, copies), range(len(files)), items, cache.subfile_bytes)

    def test_subfiles_match_the_oracle(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 2)
        keys = list(itertools.product([6, 1, 3], range(3), [2, 1]))
        files, ranks, copies = zip(*keys)
        expected = b"".join(subfile_oracle(lib6, 3, 2, 1, n, ((q + 1),), l) for n, q, l in keys)
        items = [q * cache.plan.copies for q in ranks]
        got = common.gather(cache.sources(files, copies), range(len(files)), items, cache.subfile_bytes)
        assert got == expected

    @pytest.mark.parametrize("ranks,copies,named", [([-1], [1], "(1, -1, 1)"), ([0], [-1], "(1, (1,), -1)")])
    def test_read_refuses_negative_indices(self, comb42, lib6, ranks, copies, named):
        cache = proposed_place(comb42, lib6, 2)
        u = user_index(comb42, (1, 2))
        with pytest.raises(KeyError, match=re.escape(f"user {u} does not cache {named}")):
            checked_read(cache, u, [1], copies, range(1), [q * cache.plan.copies for q in ranks])

    def test_m_zero_empty(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 0)
        assert cache.plan.holds == [bytes(2)] * 3 and cached_keys(cache, 0) == []

    def test_m_full_caches_everything(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 6)
        keys = list(itertools.product(range(1, 7), [(1, 2, 3)], [1, 2]))
        assert cached_keys(cache, 0) == keys
        assert read(cache, 0, keys) == oracle(lib6, 3, keys) == b"".join(lib6.files)

    def test_placement_is_demand_independent(self, comb42, lib6):
        a = proposed_place(comb42, lib6, 2)
        b = proposed_place(comb42, lib6, 2)
        assert a.plan.holds == b.plan.holds
        keys = cached_keys(a, 3)
        for cache in (a, b):
            assert read(cache, 3, keys) == oracle(lib6, 1, keys)

    @pytest.mark.parametrize("M", [0, 2, 4, 6])
    def test_relay_symmetry_of_cache_views(self, comb42, lib6, M):
        cache = proposed_place(comb42, lib6, M)
        views = []
        for relay in range(1, comb42.h + 1):
            hood = relay_neighborhood(comb42, relay)
            views.append(Counter(cache.plan.holds[cache.label[u] - 1] for u in hood))
        assert all(v == views[0] for v in views)


class TestDelivery:
    def test_example_signals_relay_one(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 2)
        demand = distinct_demand(comb42, 6)
        log = proposed_deliver(comb42, cache, demand)
        d = {V: demand[user_index(comb42, V)] for V in comb42.users}
        sub = lambda n, T, l: subfile_oracle(lib6, 3, 2, 1, n, T, l)
        expected = {
            "prop:i=1:C=1.2": xor(sub(d[(1, 2)], (2,), 1), sub(d[(1, 3)], (1,), 1)),
            "prop:i=1:C=1.3": xor(sub(d[(1, 2)], (3,), 1), sub(d[(1, 4)], (1,), 1)),
            "prop:i=1:C=2.3": xor(sub(d[(1, 3)], (3,), 1), sub(d[(1, 4)], (2,), 1)),
        }
        got = dict(edge_records(log.server_edges[1]))
        assert got == expected

    def test_example_signals_relay_two(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 2)
        demand = distinct_demand(comb42, 6)
        log = proposed_deliver(comb42, cache, demand)
        d = {V: demand[user_index(comb42, V)] for V in comb42.users}
        sub = lambda n, T, l: subfile_oracle(lib6, 3, 2, 1, n, T, l)
        # User {1,2} takes copy 2 through relay 2; {2,3} and {2,4} take copy 1.
        expected = {
            "prop:i=2:C=1.2": xor(sub(d[(1, 2)], (2,), 2), sub(d[(2, 4)], (1,), 1)),
            "prop:i=2:C=1.3": xor(sub(d[(1, 2)], (3,), 2), sub(d[(2, 3)], (1,), 1)),
            "prop:i=2:C=2.3": xor(sub(d[(2, 4)], (3,), 1), sub(d[(2, 3)], (2,), 1)),
        }
        got = dict(edge_records(log.server_edges[2]))
        assert got == expected

    def test_forwarding_matches_example(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 2)
        log = proposed_deliver(comb42, cache, distinct_demand(comb42, 6))
        u12 = user_index(comb42, (1, 2))
        labels = [label for label, _ in edge_records(log.relay_edges[(1, u12)])]
        assert labels == ["prop:i=1:C=1.2", "prop:i=1:C=1.3"]
        u23 = user_index(comb42, (2, 3))
        labels = [label for label, _ in edge_records(log.relay_edges[(2, u23)])]
        assert labels == ["prop:i=2:C=1.3", "prop:i=2:C=2.3"]

    @pytest.mark.parametrize("M,t", [(0, 0), (2, 1), (4, 2)])
    def test_signal_counts(self, comb42, lib6, M, t):
        cache = proposed_place(comb42, lib6, M)
        log = proposed_deliver(comb42, cache, distinct_demand(comb42, 6))
        kt = comb42.num_classes
        for relay in range(1, comb42.h + 1):
            assert len(log.server_edges[relay]) == binomial(kt, t + 1)
        for (relay, user), records in log.relay_edges.items():
            assert len(records) == binomial(kt - 1, t)
            # the counting identity for received signals per relay
            assert len(records) == (t + 1) * binomial(kt, t + 1) // kt

    def test_m_equals_n_sends_nothing(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 6)
        log = proposed_deliver(comb42, cache, distinct_demand(comb42, 6))
        assert not log.server_edges and not log.relay_edges

    def test_rates_are_half_and_third(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 2)
        log = proposed_deliver(comb42, cache, distinct_demand(comb42, 6))
        assert Fraction(log.server_bits(1), lib6.file_bits) == Fraction(1, 2)
        assert Fraction(log.relay_bits(1, 0), lib6.file_bits) == Fraction(1, 3)

    def test_relay_edges_subset_of_server_edges(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 2)
        log = proposed_deliver(comb42, cache, distinct_demand(comb42, 6))
        for (relay, _), edge in log.relay_edges.items():
            server = set(edge_records(log.server_edges[relay]))
            for record in edge_records(edge):
                assert record in server

    def test_batches_share_the_plan_names(self, comb42, lib6):
        # Every relay's batch is labelled by the placement's one names list,
        # and each class's neighbors share one picks tuple.
        cache = proposed_place(comb42, lib6, 2)
        log = proposed_deliver(comb42, cache, distinct_demand(comb42, 6))
        edges = [*log.server_edges.values(), *log.relay_edges.values()]
        assert all(batch.names is cache.plan.names for e in edges for batch, _ in e.parts)
        picks = {}
        for (_, u), edge in log.relay_edges.items():
            ((_, p),) = edge.parts
            assert picks.setdefault(comb42.class_of[u], p) is p


class TestDecode:
    @pytest.mark.parametrize("M", [0, Fraction(2, 3), Fraction(4, 3), 2])
    def test_all_demands_recover_exactly(self, comb42, M):
        lib = random_library(2, 30, seed=202)
        cache = proposed_place(comb42, lib, M)
        for demand in all_demands(comb42, 2):
            log = proposed_deliver(comb42, cache, demand)
            for u in range(comb42.K):
                out = proposed_decode(comb42, u, cache, demand, log.to_user(u))
                assert out == lib.file(demand[u])

    def test_the_multicast_is_built_once_per_demand(self, comb42, lib6, monkeypatch):
        # comb(4,2): 6 users decode each of two demands from the multicast
        # that its delivery built; no decode builds one of its own.
        calls = []
        sources = proposed._sources
        monkeypatch.setattr(proposed, "_sources", lambda net, demand: calls.append(demand) or sources(net, demand))
        cache = proposed_place(comb42, lib6, 2)
        demands = [distinct_demand(comb42, 6), (1,) * comb42.K]
        for demand in demands:
            log = proposed_deliver(comb42, cache, demand)
            for u in range(comb42.K):
                assert proposed_decode(comb42, u, cache, demand, log.to_user(u)) == lib6.file(demand[u])
        assert calls == demands

    def test_cache_only_when_m_equals_n(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 6)
        out = proposed_decode(comb42, 0, cache, distinct_demand(comb42, 6), {})
        assert out == lib6.file(1)

    def test_missing_relay_is_named(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 2)
        demand = distinct_demand(comb42, 6)
        log = proposed_deliver(comb42, cache, demand)
        received = log.to_user(0)
        received.pop(1)
        with pytest.raises(IncompleteReceptionError, match="relay 1"):
            proposed_decode(comb42, 0, cache, demand, received)


class TestRouting:
    def test_rates_match_uncoded_accounting(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 2)
        log = routing_deliver(comb42, cache, distinct_demand(comb42, 6))
        assert Fraction(log.server_bits(1), lib6.file_bits) == 1
        assert Fraction(log.relay_bits(1, 0), lib6.file_bits) == Fraction(1, 3)

    def test_rates_on_larger_network(self, comb62):
        lib = random_library(50, 20, seed=5)
        cache = proposed_place(comb62, lib, 10)
        log = routing_deliver(comb62, cache, distinct_demand(comb62, 50))
        assert Fraction(log.server_bits(3), lib.file_bits) == 2

    def test_copy_index_follows_relay_position(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 2)
        log = routing_deliver(comb42, cache, distinct_demand(comb42, 6))
        label = re.compile(r"rt:i=(\d+):V=([\d.]+):T=[\d.-]+:l=(\d+)")
        for relay, edge in log.server_edges.items():
            for name, _ in edge_records(edge):
                i, V, l = label.fullmatch(name).groups()
                assert int(i) == relay
                assert tuple(int(x) for x in V.split("."))[int(l) - 1] == relay

    @pytest.mark.parametrize("M", [0, Fraction(2, 3), Fraction(4, 3), 2])
    def test_all_demands_recover_exactly(self, comb42, M):
        lib = random_library(2, 30, seed=303)
        cache = proposed_place(comb42, lib, M)
        for demand in all_demands(comb42, 2):
            log = routing_deliver(comb42, cache, demand)
            for u in range(comb42.K):
                out = routing_decode(comb42, u, cache, demand, log.to_user(u))
                assert out == lib.file(demand[u])

    def test_m_equals_n_sends_nothing(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 6)
        log = routing_deliver(comb42, cache, distinct_demand(comb42, 6))
        assert not log.server_edges

    def test_missing_relay_is_named(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 2)
        demand = distinct_demand(comb42, 6)
        log = routing_deliver(comb42, cache, demand)
        received = log.to_user(2)
        received.pop(4)
        with pytest.raises(IncompleteReceptionError, match="relay 4"):
            routing_decode(comb42, 2, cache, demand, received)


def decode_everyone(net, cache, lib, demand):
    """Both schemes' decoded files for every user, against the library."""
    for deliver, decode in ((proposed_deliver, proposed_decode), (routing_deliver, routing_decode)):
        log = deliver(net, cache, demand)
        for u in range(net.K):
            assert decode(net, u, cache, demand, log.to_user(u)) == lib.file(demand[u]), (
                deliver.__name__, u, demand,
            )


NETWORKS = {
    "comb:4,2": lambda: combination_network(4, 2),
    "comb:6,3": lambda: combination_network(6, 3),
    "affine:3": lambda: affine_plane(3),
}


class TestGatherPaths:
    """Decoding reads through :func:`gather` as machine-width items at 1, 2,
    4 and 8 bytes and by slices at other sizes; both must be exact."""

    @pytest.mark.parametrize("size", [1, 2, 4, 8, 3, 12])
    @pytest.mark.parametrize("topology", NETWORKS)
    def test_every_user_decodes_at_every_grid_t(self, topology, size):
        net = NETWORKS[topology]()
        kt, n_files = net.num_classes, 3
        rng = random.Random(f"{topology}/{size}")
        for t in range(kt + 1):
            lib = random_library(n_files, size * net.r * math.comb(kt, t), seed=rng.randrange(2**32))
            cache = proposed_place(net, lib, Fraction(t * n_files, kt))
            assert (cache.plan.t, cache.subfile_bytes) == (t, size)
            decode_everyone(net, cache, lib, random_demand(net, n_files, rng))


def cancelled_terms(cache, net, user, relay, demand):
    """(files, copies, which, items): every term that ``user`` cancels on
    ``relay``, read from the plan's signal tables at the signals
    :meth:`Plan.receiving` gives its class.  Per signal, in order, each
    member of C but the user's class, and rank(C minus that member) * r."""
    plan = cache.plan
    files, copies = proposed._neighbors_of(net, demand, relay)
    groups, _, _ = plan.receiving(cache.label[user] - 1)
    which, items = [], []
    for p, group, _ in groups:
        for s in group:
            for q in range(plan.t + 1):
                if q != p:
                    which.append(plan.member[q][s])
                    items.append(plan.rest[q][s] * plan.copies)
    return files, copies, which, items


def bad_table(cache, net, user):
    """(files, copies, which, items, outside): the terms the user cancels on
    its first relay, with one item moved to the T of rank ``outside``,
    which the user's class does not cache."""
    c = net.class_of[user] - 1
    demand = distinct_demand(net, cache.lib.n_files)
    files, copies, which, items = cancelled_terms(cache, net, user, net.users[user][0], demand)
    outside = cache.plan.missing[c][0]
    items = array("I", items)
    items[len(items) // 2] = outside * net.r
    return files, copies, which, items, outside


class TestHonestDecoders:
    """A decoder reads from the library only what its class caches."""

    def test_every_decoding_table_passes_the_check(self, comb42, lib6):
        # Every term that a user cancels, by the plan's signal tables, passes
        # the oracle read, on each of its relays.
        cache = proposed_place(comb42, lib6, 4)
        demand = distinct_demand(comb42, 6)
        for u in range(comb42.K):
            for i in comb42.users[u]:
                files, copies, which, items = cancelled_terms(cache, comb42, u, i, demand)
                assert items and len(checked_read(cache, u, files, copies, which, items)) == len(items) * 5

    @pytest.mark.parametrize("M", [2, 4])
    def test_a_rank_outside_the_class_is_refused_before_any_read(self, comb42, lib6, M, monkeypatch):
        cache = proposed_place(comb42, lib6, M)
        u = user_index(comb42, (1, 3))
        files, copies, which, items, outside = bad_table(cache, comb42, u)
        T = tuple(itertools.combinations(range(1, 4), cache.plan.t))[outside]
        assert comb42.class_of[u] not in T
        views = {id(view) for per_copy in cache.views for view in per_copy}
        read = []
        kernel = support.gather

        def spy(sources, *args):
            read.extend(id(source) for source in sources if id(source) in views)
            return kernel(sources, *args)

        monkeypatch.setattr(support, "gather", spy)
        good = cancelled_terms(cache, comb42, u, comb42.users[u][0], distinct_demand(comb42, 6))
        assert checked_read(cache, u, *good)
        assert read, "the spy saw no read of a cached subfile"
        read.clear()
        with pytest.raises(KeyError, match=re.escape(f"user {u} does not cache")) as info:
            checked_read(cache, u, files, copies, which, items)
        assert str(T) in str(info.value)
        assert not read, "a file was read before the membership check"

    @pytest.mark.parametrize(
        "items,named",
        [([1], "item 1"), ([-2], "-1"), ([6], "3"), ([2], "(2,)")],
    )
    def test_items_off_the_class_are_named(self, comb42, lib6, items, named):
        # Kt = 3, t = 1, r = 2: class 1 may read items 0 only; item 1 is
        # copy 2 of T = (1,) read as copy 1, which only a source may choose.
        cache = proposed_place(comb42, lib6, 2)
        u = user_index(comb42, (1, 2))
        with pytest.raises(KeyError, match=re.escape(f"does not cache (1, {named}, 1)")):
            checked_read(cache, u, [1], [1], [0], items)

    @pytest.mark.parametrize("files,copies", [([0], [1]), ([7], [1]), ([1], [0]), ([1], [3])])
    def test_sources_off_the_library_are_refused(self, comb42, lib6, files, copies):
        cache = proposed_place(comb42, lib6, 2)
        u = user_index(comb42, (1, 2))
        with pytest.raises(KeyError, match=re.escape(f"({files[0]}, (1,), {copies[0]})")):
            checked_read(cache, u, files, copies, [0], [0])

    def test_the_check_survives_optimized_python(self):
        # python -O strips assert statements; the plan's proof must not be
        # one.  Term 1 of signal 0 is moved to a T without member 0, so that
        # member would cancel a subfile it does not cache: delivery and every
        # decode refuse, on both forms of the multicast.
        script = (
            "from relaycache.schemes import distinct_demand, plan, proposed_decode, proposed_deliver, proposed_place, random_library\n"
            "from relaycache.topology import combination_network\n"
            "net = combination_network(4, 2)\n"
            "demand = distinct_demand(net, 6)\n"
            "for size in (5, plan._INT_BYTES):\n"
            "    lib = random_library(6, 6 * size, seed=1)\n"
            "    log = proposed_deliver(net, proposed_place(net, lib, 2), demand)\n"
            "    cache = proposed_place(net, lib, 2)\n"
            "    p = cache.plan\n"
            "    rest = [list(column) for column in p.rest]\n"
            "    rest[1][0] = p.missing[p.member[0][0]][0]\n"
            "    p.__dict__['rest'] = rest\n"
            "    for run in [lambda: proposed_deliver(net, cache, demand)] + [\n"
            "        lambda u=u: proposed_decode(net, u, cache, demand, log.to_user(u)) for u in range(net.K)\n"
            "    ]:\n"
            "        try:\n"
            "            run()\n"
            "        except KeyError as exc:\n"
            "            print('refused', exc)\n"
            "    print('read' if 'views' in vars(cache) else 'unread')\n"
        )
        src = os.path.dirname(os.path.dirname(relaycache.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        refused = "refused 'term 1 of a signal is not the subfile of C minus its member'"
        assert out.stdout.splitlines() == ([refused] * (1 + 6) + ["unread"]) * 2, out.stdout


RULE = plan._INT_BYTES

# scheme -> (place, deliver, decode, candidates of its grid).
PIPES = {
    "proposed": (proposed_place, proposed_deliver, proposed_decode, lambda net: net.num_classes),
    "cmcnc": (cmcnc_place, cmcnc_deliver, cmcnc_decode, lambda net: net.K),
}


def serve(net, cache, demand, scheme="proposed"):
    """(digest of the delivery, every user's decoded file)."""
    _, deliver, decode, _ = PIPES[scheme]
    log = deliver(net, cache, demand)
    return log.digest(), [decode(net, u, cache, demand, log.to_user(u)) for u in range(net.K)]


class TestIntPath:
    """Subfiles of ``_INT_BYTES`` or more are XORed as the int forms that the
    placement keeps, smaller ones as joined blocks; both give the same bytes,
    in both coded schemes."""

    @pytest.mark.parametrize("size", [1, 3, RULE - 1, RULE, 1001])
    @pytest.mark.parametrize("topology", ["comb:4,2", "comb:6,2"])
    def test_both_paths_give_one_log_and_one_file(self, topology, size, monkeypatch):
        h, r = map(int, topology.split(":")[1].split(","))
        net = combination_network(h, r)
        n_files = 3
        rng = random.Random(f"{topology}/{size}")
        for scheme, (place, _, _, candidates) in PIPES.items():
            n = candidates(net)
            # cmcnc splits each subfile into r parts, so its subfiles are
            # multiples of r; it runs at both ends of its grid, whose middle
            # on comb(6,2) would take C(15, 7) subfiles per file.
            unit = size if scheme == "proposed" else r * max(1, size // r)
            points = range(n + 1) if scheme == "proposed" else sorted({0, 1, 2, n - 2, n - 1, n})
            for t in points:
                units = net.r * math.comb(n, t) if scheme == "proposed" else math.comb(n, t)
                lib = random_library(n_files, unit * units, seed=rng.randrange(2**32))
                demand = random_demand(net, n_files, rng)
                served = {}
                for rule in (1, 2**40):  # every size on the int path, then none
                    monkeypatch.setattr(plan, "_INT_BYTES", rule)
                    cache = place(net, lib, Fraction(t * n_files, n))
                    assert cache.subfile_bytes == unit
                    served[rule] = serve(net, cache, demand, scheme)
                    built = any(ints is not None for ints in vars(cache).get("ints", []))
                    assert built == (rule == 1 and t < n), (scheme, rule, t)
                assert served[1] == served[2**40], (scheme, size, t)
                assert served[1][1] == [lib.file(d) for d in demand]

    def test_the_rule_picks_the_path(self, comb42):
        # Kt = 3, r = 2, t = 1: six subfiles per file.
        for size, on_ints in [(RULE - 1, False), (RULE, True)]:
            lib = random_library(3, 6 * size, seed=size)
            cache = proposed_place(comb42, lib, 1)
            demand = (1,) * comb42.K
            assert serve(comb42, cache, demand)[1] == [lib.file(1)] * comb42.K
            assert ("ints" in vars(cache)) == on_ints

    def test_a_copy_over_another_library_builds_its_own_ints(self, comb42):
        lib = random_library(3, 6 * RULE, seed=1)
        other = random_library(3, 6 * RULE, seed=2)
        cache = proposed_place(comb42, lib, 1)
        demand = (1, 2, 3) * 2
        serve(comb42, cache, demand)
        first = list(map(tuple, cache.ints))
        copy = dataclasses.replace(cache, lib=other)
        assert "ints" not in vars(copy) and "served" not in vars(copy)
        # The copy serves the demand from its own library, through ints of its own.
        assert serve(comb42, copy, demand)[1] == [other.file(d) for d in demand]
        assert copy.ints is not cache.ints
        for n, ints in enumerate(copy.ints, 1):
            if ints is not None:
                f = other.file(n)
                assert ints == [int.from_bytes(f[k : k + RULE], "big") for k in range(0, len(f), RULE)]
                assert ints != first[n - 1]
        assert list(map(tuple, cache.ints)) == first

    @pytest.mark.parametrize("files,copies", [([0], [1]), ([4], [1]), ([1], [0]), ([1], [3])])
    def test_a_source_off_the_library_is_refused_before_any_int(self, comb42, files, copies, monkeypatch):
        # The last relay's source has its last class's file or copy out of
        # range: every source is checked before any int is built or read.
        lib = random_library(3, 6 * RULE, seed=3)
        cache = proposed_place(comb42, lib, 1)
        demand = (1, 2, 3, 1, 2, 3)
        *good, (f, l) = proposed._sources(comb42, demand)
        bad = [*good, ([*f[:-1], *files], [*l[:-1], *copies])]
        read = []
        monkeypatch.setattr(plan, "pick", lambda *args: read.append(args))
        with pytest.raises(IndexError, match=re.escape("a file id lies outside 1..3 or a copy outside 1..2")):
            cache.multicast(demand, lambda demand: bad)
        with pytest.raises(IndexError):
            cache.int_sources(files, copies)
        assert not read
        assert all(ints is None for ints in vars(cache).get("ints", []))
        assert cache.served == [None] * 2
