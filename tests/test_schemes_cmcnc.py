"""CM-CNC baseline: global-subset placement plus MDS piece delivery."""

import dataclasses
import random
import re
from fractions import Fraction

import pytest

from relaycache.combinatorics import binomial, enumerate_subsets
from relaycache.schemes import (
    GridError,
    all_demands,
    cmcnc_decode,
    cmcnc_deliver,
    cmcnc_place,
    distinct_demand,
    random_demand,
    random_library,
)
from relaycache.erasure import xor_bytes
from relaycache.schemes import cmcnc, proposed, proposed_decode, proposed_deliver, proposed_place
from relaycache.schemes import plan as planned
from relaycache.schemes.cmcnc import _STRIDE_PART, _merge, _split
from relaycache.schemes.common import gather
from relaycache.topology import combination_network
from support import checked_read, subset_rank
from test_golden import edge_records


def oracle(lib, K, t, keys):
    """Subfiles ``keys`` (n, S, 1), joined: subfile (n, S, 1) starts at byte
    rank(S) * size of file n, S ranked by :func:`enumerate_subsets`."""
    subsets = enumerate_subsets(K, t)
    size = lib.file_bytes // len(subsets)
    at = [subsets.index(S) * size for _, S, _ in keys]
    return b"".join(lib.file(n)[a : a + size] for (n, _, _), a in zip(keys, at))


# scheme -> (place, deliver, decode, a signal of its plan at M = 2 on comb(4,2)).
PIPES = {
    "cmcnc": (cmcnc_place, cmcnc_deliver, cmcnc_decode, 7),
    "proposed": (proposed_place, proposed_deliver, proposed_decode, 1),
}


def read(cache, user, key):
    """The gather read of subfile ``key`` (n, S, l)."""
    n, S, l = key
    return checked_read(cache, user, [n], [l], range(1), [subset_rank(cache.net.K, S) * cache.plan.copies])


@pytest.fixture(scope="module")
def lib30(comb42):
    # divisor r*C(6,2) = 30 bytes at M=2
    return random_library(6, 30, seed=77)


class TestPlacement:
    def test_subset_counts_and_budget(self, comb42, lib30):
        cache = cmcnc_place(comb42, lib30, 2)
        assert cache.plan.t == 2
        assert binomial(comb42.K, cache.plan.t) == 15
        subsets = enumerate_subsets(comb42.K, 2)
        for u in range(comb42.K):
            row = cache.plan.holds[u]
            assert row == bytes(u + 1 in S for S in subsets)
            assert row.count(1) == binomial(5, 1) == 5
            assert row.count(1) * lib30.n_files * cache.subfile_bytes * 8 == 2 * lib30.file_bits

    def test_grid_violation(self, comb42, lib30):
        with pytest.raises(GridError):
            cmcnc_place(comb42, lib30, Fraction(1, 2))

    def test_m_zero_empty(self, comb42, lib30):
        cache = cmcnc_place(comb42, lib30, 0)
        assert cache.plan.holds == [b"\0"] * comb42.K

    def test_batched_read_matches_get(self, comb42, lib30):
        cache = cmcnc_place(comb42, lib30, 2)
        keys = [(3, (1, 4), 1), (1, (1, 2), 1), (6, (1, 4), 1), (3, (1, 4), 1)]
        files, subsets, copies = zip(*keys)
        ranks = [subset_rank(comb42.K, S) for S in subsets]
        data = checked_read(cache, 0, files, copies, range(len(files)), [q * cache.plan.copies for q in ranks])
        assert data == oracle(lib30, comb42.K, 2, keys)
        assert checked_read(cache, 0, [], [], range(0), []) == b""

    def test_batched_read_refuses_uncached_keys(self, comb42, lib30):
        cache = cmcnc_place(comb42, lib30, 2)
        cached, foreign = subset_rank(comb42.K, (1, 2)), subset_rank(comb42.K, (2, 3))
        with pytest.raises(KeyError, match=r"user 0 does not cache \(5, \(2, 3\), 1\)"):
            checked_read(cache, 0, [1, 5], [1, 1], range(2), [q * cache.plan.copies for q in (cached, foreign)])
        with pytest.raises(KeyError):
            read(cache, 0, (5, (2, 3), 1))

    def test_read_checks_file_and_copy_bounds(self, comb42, lib30):
        # N = 6, t' = 2, one copy: user 0 is in S, but file 0 or 99, or copy
        # 0 or 2, is not a subfile it caches, and its read is refused.
        cache = cmcnc_place(comb42, lib30, 2)
        assert cache.plan.holds[0][subset_rank(comb42.K, (1, 2))] == 1
        assert read(cache, 0, (6, (1, 2), 1)) == oracle(lib30, comb42.K, 2, [(6, (1, 2), 1)])
        for key in [(99, (1, 2), 1), (0, (1, 2), 1), (1, (1, 2), 0), (1, (1, 2), 2)]:
            with pytest.raises(KeyError):
                read(cache, 0, key)

    @pytest.mark.parametrize(
        "files,ranks,named",
        [
            ([1], [99], "(1, 99)"),
            ([1], [-1], "(1, -1)"),
            ([7], [0], "(7, (1, 2))"),
            ([1, 0], [0, 1], "(0, (1, 3))"),
        ],
    )
    def test_read_names_out_of_range_key(self, comb42, lib30, files, ranks, named):
        # ``named`` is the (n, S) of the refused key, whose copy is 1.
        cache = cmcnc_place(comb42, lib30, 2)
        key = f"{named[:-1]}, 1)"
        with pytest.raises(KeyError, match=re.escape(f"user 0 does not cache {key}")):
            checked_read(cache, 0, files, [1] * len(files), range(len(files)), [q * cache.plan.copies for q in ranks])

    def test_read_refuses_lengths_that_differ(self, comb42, lib30):
        # Each of these read one subfile, or a zip() error, before the check.
        cache = cmcnc_place(comb42, lib30, 2)
        q, other = subset_rank(comb42.K, (1, 2)), subset_rank(comb42.K, (1, 3))
        for files, ranks in [([1, 1, 1], [q]), ([1], [q, other]), ([1], [q, 99])]:
            with pytest.raises(ValueError, match="differ in length"):
                checked_read(cache, 0, files, [1] * len(files), range(len(files)), [q * cache.plan.copies for q in ranks])
        with pytest.raises(ValueError, match="differ in length"):
            checked_read(cache, 0, [1], [1, 1], range(1), [q * cache.plan.copies])
        with pytest.raises(ValueError, match="differ in length"):
            checked_read(cache, 0, (1, 2), (1, 1), [0, 1, 1], [q, other])

    def test_gather_reads_through_a_file_table(self, comb42, lib30):
        cache = cmcnc_place(comb42, lib30, 2)
        keys = [(3, (1, 4), 1), (1, (1, 2), 1), (6, (1, 4), 1), (3, (1, 4), 1)]
        ranks = [subset_rank(comb42.K, S) for _, S, _ in keys]
        data = checked_read(cache, 0, (1, 3, 6), (1, 1, 1), [1, 0, 2, 1], ranks)
        assert data == oracle(lib30, comb42.K, 2, keys)
        # A file id outside 1..N is refused, named by the key that reads it or,
        # when no key does, as a file id, before any read.
        with pytest.raises(KeyError, match=re.escape("user 0 does not cache (7, (1, 2), 1)")):
            checked_read(cache, 0, (1, 7), (1, 1), [0, 1], [ranks[1], ranks[1]])
        with pytest.raises(IndexError, match=re.escape("a file id lies outside 1..6")):
            checked_read(cache, 0, (1, 7), (1, 1), [0, 0], [ranks[1], ranks[1]])

    def test_subpacketization_on_larger_network(self, comb62):
        # t' = 3 at M=10, N=50: r*C(15,3) units
        lib = random_library(50, 910, seed=9)
        cache = cmcnc_place(comb62, lib, 10)
        assert comb62.r * binomial(comb62.K, cache.plan.t) == 910


class TestDelivery:
    def test_rates_two_thirds(self, comb42, lib30):
        cache = cmcnc_place(comb42, lib30, 2)
        log = cmcnc_deliver(comb42, cache, distinct_demand(comb42, 6))
        for relay in range(1, 5):
            assert Fraction(log.server_bits(relay), lib30.file_bits) == Fraction(2, 3)
        for (relay, user), _ in log.relay_edges.items():
            assert Fraction(log.relay_bits(relay, user), lib30.file_bits) == Fraction(
                2, 3
            )

    def test_every_piece_reaches_every_neighbor(self, comb42, lib30):
        cache = cmcnc_place(comb42, lib30, 2)
        log = cmcnc_deliver(comb42, cache, distinct_demand(comb42, 6))
        for relay in range(1, 5):
            server_labels = [label for label, _ in edge_records(log.server_edges[relay])]
            for user in range(comb42.K):
                if relay in comb42.users[user]:
                    labels = [label for label, _ in edge_records(log.relay_edges[(relay, user)])]
                    assert labels == server_labels

    def test_batches_share_the_plan_names(self, comb42, lib30):
        cache = cmcnc_place(comb42, lib30, 2)
        log = cmcnc_deliver(comb42, cache, distinct_demand(comb42, 6))
        edges = [*log.server_edges.values(), *log.relay_edges.values()]
        assert all(batch.names is cache.plan.names for e in edges for batch, _ in e.parts)
        assert {batch.suffix for e in log.server_edges.values() for batch, _ in e.parts} == {
            f":p={i}" for i in range(1, 5)
        }

    def test_m_equals_n_sends_nothing(self, comb42, lib30):
        cache = cmcnc_place(comb42, lib30, 6)
        log = cmcnc_deliver(comb42, cache, distinct_demand(comb42, 6))
        assert not log.server_edges


class TestDecode:
    @pytest.mark.parametrize("M", [0, Fraction(2, 3), Fraction(4, 3), 2])
    def test_all_demands_recover_exactly(self, comb42, M):
        lib = random_library(2, 30, seed=404)
        cache = cmcnc_place(comb42, lib, M)
        for demand in all_demands(comb42, 2):
            log = cmcnc_deliver(comb42, cache, demand)
            for u in range(comb42.K):
                out = cmcnc_decode(comb42, u, cache, demand, log.to_user(u))
                assert out == lib.file(demand[u])

    def test_seeded_random_demands(self, comb42, lib30):
        cache = cmcnc_place(comb42, lib30, 2)
        rng = random.Random(17)
        for _ in range(20):
            demand = random_demand(comb42, 6, rng)
            log = cmcnc_deliver(comb42, cache, demand)
            for u in range(comb42.K):
                out = cmcnc_decode(comb42, u, cache, demand, log.to_user(u))
                assert out == lib30.file(demand[u])

    def test_cache_only_when_m_equals_n(self, comb42, lib30):
        cache = cmcnc_place(comb42, lib30, 6)
        out = cmcnc_decode(comb42, 0, cache, distinct_demand(comb42, 6), {})
        assert out == lib30.file(1)


class TestSharedCancellation:
    """Each member of a signal cancels the XOR of every other term, built
    once per demand by the placement; the plan proves once that those terms
    are cached."""

    @pytest.mark.parametrize("table", ["member", "rest"])
    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("scheme", ["cmcnc", "proposed"])
    def test_a_plan_entry_one_off_is_refused_before_any_byte_is_read(self, comb42, lib30, scheme, table, delta, monkeypatch):
        # cmcnc at t' = 2 over the 6 users, proposed at t = 1 over the 3
        # classes of comb(4,2): term 1 of one signal one off.
        place, deliver, decode, signal = PIPES[scheme]
        demand = distinct_demand(comb42, 6)
        log = deliver(comb42, place(comb42, lib30, 2), demand)
        cache = place(comb42, lib30, 2)
        plan = cache.plan
        plan.rest, plan.at
        columns = [list(column) for column in getattr(plan, table)]
        columns[1][signal] += delta
        plan.__dict__[table] = columns
        read = []
        for module in (planned, cmcnc, proposed):
            monkeypatch.setattr(module, "gather", lambda *args: read.append(args) or gather(*args))
        views = lambda: [args for args in read if any(isinstance(src, memoryview) for src in args[0])]
        with pytest.raises(KeyError, match="term 1 of a signal"):
            deliver(comb42, cache, demand)
        for u in range(comb42.K):
            with pytest.raises(KeyError, match="term 1 of a signal"):
                decode(comb42, u, cache, demand, log.to_user(u))
        assert "views" not in vars(cache) and not views(), "a byte was read before the plan's check"
        assert cache.served == [None] * 2

    def test_one_placement_serves_demands_in_turn(self, comb42, lib30):
        # d1, d2, d1: each demand rebuilds what the last one kept, and every
        # user decodes each exactly.
        cache = cmcnc_place(comb42, lib30, 2)
        d1, d2 = distinct_demand(comb42, 6), (6, 6, 1, 2, 2, 5)
        for demand in (d1, d2, d1):
            log = cmcnc_deliver(comb42, cache, demand)
            assert cache.served[0] == demand
            for u in range(comb42.K):
                assert cmcnc_decode(comb42, u, cache, demand, log.to_user(u)) == lib30.file(demand[u])

    def test_a_copy_over_another_library_starts_with_nothing_served(self, comb42, lib30):
        cache = cmcnc_place(comb42, lib30, 2)
        demand = distinct_demand(comb42, 6)
        log = cmcnc_deliver(comb42, cache, demand)
        assert cache.served[0] == demand
        other = random_library(6, 30, seed=78)
        copy = dataclasses.replace(cache, lib=other)
        assert copy.plan is cache.plan and copy.served == [None] * 2
        log = cmcnc_deliver(comb42, copy, demand)
        assert cmcnc_decode(comb42, 0, copy, demand, log.to_user(0)) == other.file(demand[0])
        assert copy.served[0] == demand and copy.served[1] != cache.served[1]

    def test_the_cancellations_are_the_xor_of_every_other_term(self, comb42, lib30):
        cache = cmcnc_place(comb42, lib30, 2)
        demand = (3, 1, 4, 1, 5, 6)
        ((signals, ints, cancels),) = cache.multicast(demand, cmcnc._sources)
        assert ints is None
        size, subsets = cache.subfile_bytes, enumerate_subsets(comb42.K, 2)
        for s, C in enumerate(enumerate_subsets(comb42.K, 3)):
            terms = [oracle(lib30, comb42.K, 2, [(demand[k - 1], tuple(x for x in C if x != k), 1)]) for k in C]
            assert signals[s * size : (s + 1) * size] == xor_bytes(*terms)
            for p in range(3):
                assert cancels[p][s * size : (s + 1) * size] == xor_bytes(*terms[:p], *terms[p + 1 :])
        assert len(subsets) * size == lib30.file_bytes

    def test_a_network_of_more_than_64_users(self):
        # comb(9,3) has 84 users, so the plan's masks are wider than any
        # array item; at t' = 1 every user still decodes.
        net = combination_network(9, 3)
        lib = random_library(2, net.r * net.K, seed=84)
        cache = cmcnc_place(net, lib, Fraction(2, net.K))
        assert cache.plan.t == 1
        demand = tuple(u % 2 + 1 for u in range(net.K))
        log = cmcnc_deliver(net, cache, demand)
        for u in range(net.K):
            assert cmcnc_decode(net, u, cache, demand, log.to_user(u)) == lib.file(demand[u])


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("part", [0, 1, 2, _STRIDE_PART - 1, _STRIDE_PART, _STRIDE_PART + 1, 100])
@pytest.mark.parametrize("count", [0, 1, 5, 40])
def test_split_cuts_each_signal_into_r_parts_and_merge_undoes_it(r, part, count):
    # Byte columns below _STRIDE_PART, slices from it on: both must cut
    # signal s into its r consecutive parts, part j of every signal in order.
    signals = random.Random(r * 1000 + part * 50 + count).randbytes(count * r * part)
    size = r * part
    expected = [
        b"".join(signals[s * size + j * part : s * size + (j + 1) * part] for s in range(count))
        for j in range(r)
    ]
    assert _split(signals, r, part) == expected
    assert _merge(expected, part) == signals
