"""Class-symmetric XOR multicast and the routing delivery that shares its caches."""

import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import pytest

from relaycache.combinatorics import binomial
from relaycache.schemes import (
    GridError,
    IncompleteReceptionError,
    SubpacketizationError,
    all_demands,
    distinct_demand,
    proposed_decode,
    proposed_deliver,
    proposed_place,
    random_library,
    routing_decode,
    routing_deliver,
)
from relaycache.topology import relay_neighborhood
from test_golden import edge_records


def subfile_oracle(lib, kt, r, t, n, T, l):
    """Test-local slice: T-major layout recomputed from first principles."""
    subsets = list(itertools.combinations(range(1, kt + 1), t))
    size = lib.file_bytes // (r * math.comb(kt, t))
    offset = (subsets.index(tuple(T)) * r + (l - 1)) * size
    return lib.file(n)[offset : offset + size]


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
        assert cache.t == 1
        assert cache.subfiles_per_file == 6
        for subset, label in [((1, 2), 1), ((3, 4), 1), ((1, 3), 2), ((2, 4), 2)]:
            u = comb42.user_index(subset)
            expected = {(n, (label,), l) for n in range(1, 7) for l in (1, 2)}
            assert cache.signature(u) == expected

    def test_cached_bytes_match_library(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 2)
        u = comb42.user_index((1, 3))
        for key, payload in cache.materialize(u).items():
            n, T, l = key
            assert payload == subfile_oracle(lib6, 3, 2, 1, n, T, l)

    @pytest.mark.parametrize("M", [0, 2, 4, 6])
    def test_budget_is_exactly_mf(self, comb42, lib6, M):
        cache = proposed_place(comb42, lib6, M)
        for u in range(comb42.K):
            assert cache.cached_bits(u) == M * lib6.file_bits
            assert sum(len(v) for v in cache.materialize(u).values()) * 8 == (
                M * lib6.file_bits
            )

    def test_has_and_get_check_file_and_copy_bounds(self, comb42, lib6):
        # N = 6, r = 2, t = 1: the user's class is in T, but file 0 or 7,
        # copy 0 or 3, or a T of the wrong size is not a subfile it caches.
        cache = proposed_place(comb42, lib6, 2)
        u = comb42.user_index((1, 2))
        assert cache.has(u, (6, (1,), 2))
        for key in [(1, (1,), 3), (3, (1,), 0), (7, (1,), 1), (0, (1,), 1), (1, (1, 2), 1)]:
            assert not cache.has(u, key)
            with pytest.raises(KeyError):
                cache.get(u, key)

    @pytest.mark.parametrize("T", [(2, 1), (1, 1), (0, 1), (1, 4)])
    def test_has_and_get_refuse_malformed_subsets(self, comb42, lib6, T):
        # Kt = 3, t = 2: T holds the user's class 1 and has size t, but is
        # not an increasing subset of 1..3.
        cache = proposed_place(comb42, lib6, 4)
        u = comb42.user_index((1, 2))
        assert comb42.class_of[u] == 1
        assert not cache.has(u, (1, T, 1))
        with pytest.raises(KeyError):
            cache.get(u, (1, T, 1))

    def test_read_matches_get(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 4)
        u = comb42.user_index((1, 3))
        ranks = {T: q for q, T in enumerate(itertools.combinations(range(1, 4), 2))}
        keys = sorted(cache.keys(u), key=lambda key: (key[2], key[1], -key[0]))
        files, subsets, copies = zip(*keys)
        got = cache.read(u, files, [ranks[T] for T in subsets], copies)
        assert got == b"".join(cache.get(u, key) for key in keys)
        assert cache.read(u, [], [], []) == b""

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
        u = comb42.user_index((1, 2))
        with pytest.raises(KeyError, match=re.escape(f"user {u} does not cache {named}")):
            cache.read(u, files, ranks, copies)

    def test_m_zero_empty(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 0)
        assert cache.signature(0) == frozenset()

    def test_m_full_caches_everything(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 6)
        assert len(list(cache.keys(0))) == 6 * cache.subfiles_per_file

    def test_placement_is_demand_independent(self, comb42, lib6):
        a = proposed_place(comb42, lib6, 2)
        b = proposed_place(comb42, lib6, 2)
        assert a.materialize(3) == b.materialize(3)

    @pytest.mark.parametrize("M", [0, 2, 4, 6])
    def test_relay_symmetry_of_cache_views(self, comb42, lib6, M):
        cache = proposed_place(comb42, lib6, M)
        views = []
        for relay in range(1, comb42.h + 1):
            hood = relay_neighborhood(comb42, relay)
            views.append(Counter(cache.signature(u) for u in hood))
        assert all(v == views[0] for v in views)


class TestDelivery:
    def test_example_signals_relay_one(self, comb42, lib6):
        cache = proposed_place(comb42, lib6, 2)
        demand = distinct_demand(comb42, 6)
        log = proposed_deliver(comb42, cache, demand)
        d = {V: demand[comb42.user_index(V)] for V in comb42.users}
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
        d = {V: demand[comb42.user_index(V)] for V in comb42.users}
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
        u12 = comb42.user_index((1, 2))
        labels = [label for label, _ in edge_records(log.relay_edges[(1, u12)])]
        assert labels == ["prop:i=1:C=1.2", "prop:i=1:C=1.3"]
        u23 = comb42.user_index((2, 3))
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
        assert all(batch.names is cache.signal_plan.names for e in edges for batch, _ in e.parts)
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
