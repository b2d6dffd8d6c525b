"""Per-file MDS broadcast: the few-files fallback delivery."""

from fractions import Fraction

import pytest

from relaycache.schemes import (
    PrefixCache,
    SubpacketizationError,
    all_demands,
    broadcast_decode,
    broadcast_mds_deliver,
    broadcast_place,
    random_library,
    uniform_demand,
)


class TestRates:
    def test_full_broadcast_rate_at_m_zero(self, comb42):
        lib = random_library(2, 8, seed=21)
        demand = (1, 2, 1, 2, 1, 2)
        cache = broadcast_place(comb42, lib, 0)
        log = broadcast_mds_deliver(comb42, cache, demand)
        for relay in range(1, 5):
            assert Fraction(log.server_bits(relay), lib.file_bits) == 1
        for (relay, user), _ in log.relay_edges.items():
            assert Fraction(log.relay_bits(relay, user), lib.file_bits) == Fraction(
                1, 2
            )

    def test_m_equals_n_sends_nothing(self, comb42):
        lib = random_library(2, 8, seed=22)
        cache = broadcast_place(comb42, lib, 2)
        log = broadcast_mds_deliver(comb42, cache, uniform_demand(comb42))
        assert not log.server_edges and not log.relay_edges


class TestPlacement:
    def test_prefix_budget(self, comb42):
        lib = random_library(2, 8, seed=23)
        cache = broadcast_place(comb42, lib, 1)
        assert cache.prefix_bytes == 4
        assert cache.cached_bits(0) == 1 * lib.file_bits
        assert cache.get(0, 2) == lib.file(2)[:4]

    def test_fractional_prefix_rejected(self, comb42):
        lib = random_library(2, 5, seed=24)
        with pytest.raises(SubpacketizationError):
            broadcast_place(comb42, lib, 1)

    @pytest.mark.parametrize("M", [-1, Fraction(-1, 2), Fraction(5, 2), 3])
    def test_memory_outside_zero_to_n_rejected(self, comb42, M):
        lib = random_library(2, 8, seed=25)
        with pytest.raises(ValueError) as exc:
            broadcast_place(comb42, lib, M)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"M={M} outside 0..2"

    def test_prefix_not_whole_bytes_message(self, comb42):
        lib = random_library(3, 8, seed=26)
        with pytest.raises(SubpacketizationError) as exc:
            broadcast_place(comb42, lib, 1)
        assert str(exc.value) == (
            "file size 8 bytes times M/N = 1/3 is not a whole number of bytes; "
            "need a multiple of 3"
        )


class TestDecode:
    def test_all_demands_recover_exactly(self, comb42):
        lib = random_library(2, 8, seed=25)
        cache = broadcast_place(comb42, lib, 0)
        for demand in all_demands(comb42, 2):
            log = broadcast_mds_deliver(comb42, cache, demand)
            for u in range(comb42.K):
                out = broadcast_decode(comb42, u, cache, demand, log.to_user(u))
                assert out == lib.file(demand[u])

    def test_partial_caching_round_trip(self, comb42):
        lib = random_library(2, 8, seed=26)
        cache = broadcast_place(comb42, lib, 1)
        demand = (2, 2, 1, 1, 2, 1)
        log = broadcast_mds_deliver(comb42, cache, demand)
        for u in range(comb42.K):
            out = broadcast_decode(comb42, u, cache, demand, log.to_user(u))
            assert out == lib.file(demand[u])

    def test_padded_suffix_round_trip(self, comb42):
        # 5-byte suffix does not split into 2 parts; padding must be trimmed.
        lib = random_library(3, 5, seed=27)
        cache = broadcast_place(comb42, lib, 0)
        demand = (3, 1, 2, 3, 1, 2)
        log = broadcast_mds_deliver(comb42, cache, demand)
        assert log.server_edges[1].parts[0][0].labels[0] == "bc:n=1:p=1:octets=5"
        for u in range(comb42.K):
            out = broadcast_decode(comb42, u, cache, demand, log.to_user(u))
            assert out == lib.file(demand[u])

    def test_cache_only_when_m_equals_n(self, comb42):
        lib = random_library(2, 8, seed=28)
        cache = broadcast_place(comb42, lib, 2)
        assert broadcast_decode(comb42, 0, cache, (1,) * 6, {}) == lib.file(1)

    def test_no_prefix_cached_still_decodes(self, comb42):
        lib = random_library(2, 8, seed=29)
        cache = broadcast_place(comb42, lib, 0)
        assert cache.prefix_bytes == 0 and not list(cache.keys(0))
        with pytest.raises(KeyError):
            cache.get(0, 1)
        demand = (2, 1, 2, 1, 2, 1)
        log = broadcast_mds_deliver(comb42, cache, demand)
        for u in range(comb42.K):
            out = broadcast_decode(comb42, u, cache, demand, log.to_user(u))
            assert out == lib.file(demand[u])

    def test_prefix_comes_through_the_cache(self, comb42, monkeypatch):
        lib = random_library(2, 8, seed=30)
        cache = broadcast_place(comb42, lib, 1)
        demand = (1, 2, 1, 2, 1, 2)
        log = broadcast_mds_deliver(comb42, cache, demand)

        def refuse(self, user, key):
            raise KeyError(f"user {user} does not cache a prefix of file {key}")

        monkeypatch.setattr(PrefixCache, "get", refuse)
        with pytest.raises(KeyError, match="does not cache a prefix of file 2"):
            broadcast_decode(comb42, 1, cache, demand, log.to_user(1))
