"""Shared plumbing: libraries, demand vectors, records, logs, and the plan."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relaycache.schemes.common import (
    FileLibrary,
    Record,
    TransmissionLog,
    all_demands,
    distinct_demand,
    fmt_subset,
    plan_signals,
    random_library,
    uniform_demand,
    validate_demand,
)


class TestFileLibrary:
    def test_properties(self):
        lib = FileLibrary((b"abcd", b"wxyz"))
        assert lib.n_files == 2 and lib.file_bytes == 4 and lib.file_bits == 32
        assert lib.file(2) == b"wxyz"

    def test_validation(self):
        with pytest.raises(ValueError, match="same size"):
            FileLibrary((b"ab", b"abc"))
        with pytest.raises(ValueError, match="at least one"):
            FileLibrary(())
        with pytest.raises(ValueError, match="nonempty"):
            FileLibrary((b"",))

    def test_file_id_range(self):
        lib = random_library(3, 8, seed=0)
        with pytest.raises(ValueError):
            lib.file(0)
        with pytest.raises(ValueError):
            lib.file(4)

    def test_random_library_is_seeded(self):
        assert random_library(2, 16, seed=5).files == random_library(2, 16, 5).files


class TestDemands:
    def test_distinct_by_enumeration_order(self, comb42):
        assert distinct_demand(comb42, 6) == (1, 2, 3, 4, 5, 6)
        with pytest.raises(ValueError, match="N >= K"):
            distinct_demand(comb42, 5)

    def test_uniform(self, comb42):
        assert uniform_demand(comb42, 3) == (3,) * 6

    def test_all_demands_cardinality(self, comb42):
        assert sum(1 for _ in all_demands(comb42, 2)) == 64

    def test_validate(self, comb42):
        with pytest.raises(ValueError, match="entries"):
            validate_demand(comb42, 2, (1, 1))
        with pytest.raises(ValueError, match="1..2"):
            validate_demand(comb42, 2, (1, 1, 1, 1, 1, 3))


class TestSubsetLabels:
    def test_empty_renders_as_dash(self):
        assert fmt_subset(()) == "-"


@st.composite
def plan_case(draw):
    n = draw(st.integers(1, 8))
    return n, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


class TestSignalPlan:
    @given(plan_case())
    def test_decoding_matches_definition(self, case):
        n, t, c = case
        subsets = list(itertools.combinations(range(n), t))
        signals = list(itertools.combinations(range(n), t + 1))
        rank = {T: q for q, T in enumerate(subsets)}
        mine, blocks, delivered = plan_signals(n, t).decoding(c)

        assert sorted(mine) == [s for s, C in enumerate(signals) if c in C]
        assert len(blocks) == t and len(delivered) == len(mine)
        for k, s in enumerate(mine):
            C = signals[s]
            others = [y for y in C if y != c]
            assert delivered[k] == rank[tuple(others)]
            for x, (member, rest) in enumerate(blocks):
                assert member[k] == others[x]
                assert rest[k] == rank[tuple(y for y in C if y != others[x])]


class TestTransmissionLog:
    def test_relays_forward_only_what_they_received(self):
        log = TransmissionLog()
        rec = Record("x:i=1:C=1", b"\x01")
        log.add_server(1, [rec])
        log.forward(1, 0, [rec])
        with pytest.raises(ValueError, match="cannot forward"):
            log.forward(2, 0, [rec])

    def test_bit_accounting(self):
        log = TransmissionLog()
        log.add_server(1, [Record("a", b"xy")])
        log.add_server(1, [Record("b", b"z")])
        assert log.server_bits(1) == 24
        assert log.server_bits(2) == 0
        assert log.relay_bits(1, 0) == 0

    def test_record_fields(self):
        rec = Record("prop:i=2:C=1.3", b"")
        assert rec._fields == ("label", "payload")
        assert (rec.label, rec.payload) == ("prop:i=2:C=1.3", b"")
        assert rec.bits == 0

    def test_serialization_shape_and_digest(self):
        log = TransmissionLog()
        rec = Record("a:i=1:C=1", b"\xab")
        log.add_server(1, [rec])
        log.forward(1, 4, [rec])
        data = log.to_dict()
        assert data["server_edges"] == [
            {
                "relay": 1,
                "signals": [{"label": "a:i=1:C=1", "bits": 8, "payload": "ab"}],
            }
        ]
        assert data["relay_edges"][0]["user"] == 4
        assert log.digest() == log.digest()
        assert log.to_json().endswith("\n")

    def test_to_user_groups_by_relay(self):
        log = TransmissionLog()
        r1, r2 = Record("a:i=1", b"1"), Record("b:i=2", b"2")
        log.add_server(1, [r1])
        log.add_server(2, [r2])
        log.forward(1, 0, [r1])
        log.forward(2, 0, [r2])
        log.forward(2, 1, [r2])
        assert log.to_user(0) == {1: [r1], 2: [r2]}
        assert log.to_user(1) == {2: [r2]}

    def test_empty_sequences_add_no_edge(self):
        log = TransmissionLog()
        log.add_server(1, [])
        log.forward(1, 0, [])
        assert (log.server_edges, log.relay_edges) == ({}, {})
        assert log.to_dict() == TransmissionLog().to_dict()
        assert log.digest() == TransmissionLog().digest()
        rec = Record("a:i=1", b"1")
        log.add_server(1, [rec])
        log.forward(1, 0, ())
        log.forward(1, 2, [rec])
        assert log.relay_edges == {(1, 2): [rec]}

    def test_batch_forward_checks_every_record(self):
        log = TransmissionLog()
        log.add_server(1, [Record("a:i=1", b"1")])
        with pytest.raises(ValueError, match="cannot forward 'z:i=1'"):
            log.forward(1, 0, [Record("a:i=1", b"1"), Record("z:i=1", b"9")])
        with pytest.raises(ValueError, match="cannot forward"):
            log.forward(2, 0, [Record("a:i=1", b"1")])
        assert log.relay_edges == {}
