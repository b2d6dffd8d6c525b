"""Shared plumbing: libraries, demand vectors, records, logs, and the plan."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relaycache.schemes import proposed_place, routing_deliver
from relaycache.schemes.common import (
    Batch,
    Edge,
    FileLibrary,
    IncompleteReceptionError,
    Record,
    TransmissionLog,
    _Rendered,
    all_demands,
    distinct_demand,
    fmt_subset,
    payloads,
    plan_signals,
    random_library,
    uniform_demand,
    validate_demand,
)
from test_golden import reference_digest


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


def batch_of(label, payload):
    """A one-record batch."""
    return Batch([label], payload, len(payload))


class TestTransmissionLog:
    def test_relays_forward_only_what_they_received(self):
        log = TransmissionLog()
        batch = batch_of("x:i=1:C=1", b"\x01")
        log.add_server(1, batch)
        log.forward(1, 0, batch)
        with pytest.raises(ValueError, match="relay 2 cannot forward 'x:i=1:C=1'"):
            log.forward(2, 0, batch)

    def test_bit_accounting(self):
        log = TransmissionLog()
        log.add_server(1, batch_of("a", b"xy"))
        log.add_server(1, batch_of("b", b"z"))
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
        batch = batch_of("a:i=1:C=1", b"\xab")
        log.add_server(1, batch)
        log.forward(1, 4, batch)
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
        b1, b2 = batch_of("a:i=1", b"1"), batch_of("b:i=2", b"2")
        log.add_server(1, b1)
        log.add_server(2, b2)
        log.forward(1, 0, b1)
        log.forward(2, 0, b2)
        log.forward(2, 1, b2)
        assert log.to_user(0) == {1: log.relay_edges[(1, 0)], 2: log.relay_edges[(2, 0)]}
        assert log.to_user(1) == {2: log.relay_edges[(2, 1)]}
        assert list(log.to_user(0)[2]) == [Record("b:i=2", b"2")]

    def test_empty_sequences_add_no_edge(self):
        # Routing at t = Kt forwards an empty batch that add_server never
        # stored, so neither an empty batch nor empty picks are checked.
        log = TransmissionLog()
        empty = Batch((), b"", 4)
        log.add_server(1, empty)
        log.forward(1, 0, empty)  # never stored on the server edge
        log.forward(2, 0, empty, [])
        assert (log.server_edges, log.relay_edges) == ({}, {})
        assert log.to_dict() == TransmissionLog().to_dict()
        assert log.digest() == TransmissionLog().digest()
        log, batch = served_batch()
        stray = Batch(("z:i=1",), b"\x09\x09", 2)
        log.forward(1, 3, batch, [])
        log.forward(1, 3, stray, ())
        log.forward(5, 3, batch, [])
        assert sorted(log.relay_edges) == [(1, 0), (1, 1), (1, 2)]


def served_batch():
    """A log with one 3-record batch on server edge 1, forwarded whole to
    users 0 and 1 and picked (records 2 and 0) to user 2."""
    log = TransmissionLog()
    batch = Batch(("a:i=1", "b:i=1", "c:i=1"), b"\x01\x02\x03\x04\x05\x06", 2)
    log.add_server(1, batch)
    log.forward(1, 0, batch)
    log.forward(1, 1, batch)
    log.forward(1, 2, batch, [2, 0])
    return log, batch


def records(batch, positions):
    p = batch.part
    return [Record(batch.labels[k], batch.data[k * p : (k + 1) * p]) for k in positions]


def flipped(batch):
    """A copy of ``batch`` with its first byte flipped."""
    return Batch(batch.labels, bytes([batch.data[0] ^ 0x40]) + batch.data[1:], batch.part)


class TestBatchLog:
    def test_whole_forward_shares_the_server_batch(self):
        log, batch = served_batch()
        assert log.server_edges[1].parts == [(batch, None)]
        assert log.relay_edges[(1, 0)].parts[0][0] is batch
        assert log.relay_edges[(1, 1)].parts[0][0] is batch
        assert log.relay_edges[(1, 2)].parts == [(batch, [2, 0])]

    def test_batch_with_a_label_off_the_server_edge_is_refused(self):
        log, batch = served_batch()
        stray = Batch(("a:i=1", "z:i=1"), b"\x01\x02\x09\x09", 2)
        with pytest.raises(ValueError, match="relay 1 cannot forward 'a:i=1'"):
            log.forward(1, 3, stray)
        with pytest.raises(ValueError, match="relay 1 cannot forward 'z:i=1'"):
            log.forward(1, 3, stray, [1, 0])
        # A copy of a served batch carries the same records, but a relay
        # forwards only the object it received.
        copy = Batch(batch.labels, batch.data, batch.part)
        with pytest.raises(ValueError, match="cannot forward 'b:i=1'"):
            log.forward(1, 3, copy, [1])
        with pytest.raises(ValueError, match="cannot forward"):
            log.forward(1, 3, copy)
        assert (1, 3) not in log.relay_edges

    def test_a_batch_from_another_relay_is_refused(self):
        log, batch = served_batch()
        other = Batch(("a:i=2",), b"\x07\x08", 2)
        log.add_server(2, other)
        log.forward(2, 3, other)
        with pytest.raises(ValueError, match="relay 1 cannot forward 'a:i=2'"):
            log.forward(1, 3, other)
        with pytest.raises(ValueError, match="relay 2 cannot forward 'a:i=1'"):
            log.forward(2, 3, batch)
        with pytest.raises(ValueError, match="relay 4 cannot forward"):
            log.forward(4, 3, batch, [0])
        assert list(log.relay_edges[(2, 3)]) == records(other, [0])
        assert (1, 3) not in log.relay_edges

    def test_picks_must_lie_in_the_batch(self):
        log, batch = served_batch()
        with pytest.raises(IndexError):
            log.forward(1, 3, batch, [3])
        with pytest.raises(IndexError):
            log.forward(1, 3, batch, [0, -1])
        with pytest.raises(IndexError):
            log.forward(1, 3, Batch((), b"", 1), [0])
        with pytest.raises(ValueError, match="need 6 bytes"):
            Batch(("a", "b", "c"), b"\x00", 2)
        assert (1, 3) not in log.relay_edges

    def test_len_is_the_record_count(self):
        log, batch = served_batch()
        assert len(log.server_edges[1]) == len(log.relay_edges[(1, 0)]) == 3
        assert len(log.relay_edges[(1, 2)]) == 2
        log.add_server(1, batch_of("d:i=1", b"\x07"))
        assert len(log.server_edges[1]) == 4
        assert log.server_bits(1) == 8 * 7 and log.relay_bits(1, 2) == 8 * 4

    def test_edges_iterate_as_records(self):
        log, batch = served_batch()
        assert list(log.server_edges[1]) == records(batch, [0, 1, 2])
        assert list(log.relay_edges[(1, 0)]) == records(batch, [0, 1, 2])
        assert list(log.relay_edges[(1, 2)]) == records(batch, [2, 0])

    @pytest.mark.parametrize(
        "edit",
        [
            lambda parts: parts.append((batch_of("a:i=1", b"\xff\xff"), None)),
            lambda parts: parts.__setitem__(0, (flipped(parts[0][0]), parts[0][1])),
            lambda parts: parts.pop(),
        ],
        ids=["append", "setitem", "pop"],
    )
    @pytest.mark.parametrize("user", [0, 2])
    def test_edit_of_one_relay_edge_leaves_the_rest(self, edit, user):
        # Fault injection edits a relay edge's parts by hand: that must
        # change no batch and no other edge, nor their rendered bytes.
        log, batch = served_batch()
        others = [edge for key, edge in log.relay_edges.items() if key != (1, user)]
        before = [list(edge) for edge in [log.server_edges[1], *others]]
        rendered = [_Rendered().edge(edge) for edge in [log.server_edges[1], *others]]
        edit(log.relay_edges[(1, user)].parts)
        assert batch.data == b"\x01\x02\x03\x04\x05\x06"
        assert [list(edge) for edge in [log.server_edges[1], *others]] == before
        render = _Rendered()
        assert [render.edge(edge) for edge in [log.server_edges[1], *others]] == rendered
        assert log.to_user(user)[1] is log.relay_edges[(1, user)]
        assert log.digest() == reference_digest(log)

    def test_to_user_follows_relay_edges_set_and_deleted(self):
        log, batch = served_batch()
        edge = Edge()
        edge.parts.append((batch, [1]))
        log.relay_edges[(2, 2)] = edge
        del log.relay_edges[(1, 2)]
        assert log.to_user(2) == {2: edge}
        assert TransmissionLog(relay_edges={(1, 0): edge}).to_user(0) == {1: edge}

    def test_payloads_on_whole_and_picked_edges(self):
        log, batch = served_batch()
        rx = log.to_user(2)
        assert payloads(2, 1, rx, ["a:i=1", "c:i=1"]) == [b"\x01\x02", b"\x05\x06"]
        with pytest.raises(IncompleteReceptionError, match="did not receive 'b:i=1' from relay 1"):
            payloads(2, 1, rx, ["a:i=1", "b:i=1"])
        assert payloads(0, 1, log.to_user(0), ["c:i=1", "b:i=1"]) == [b"\x05\x06", b"\x03\x04"]

    def test_a_missing_relay_raises(self):
        log, _ = served_batch()
        rx = log.to_user(2)
        with pytest.raises(IncompleteReceptionError, match="user 2 did not receive 'a:i=1' from relay 2"):
            payloads(2, 2, rx, ["a:i=1"])
        with pytest.raises(IncompleteReceptionError, match="'a:i=1' from relay 1"):
            payloads(2, 1, {}, ["a:i=1"])
        assert payloads(2, 2, rx, []) == []

    def test_payloads_on_multi_part_edges(self, comb42):
        log, batch = served_batch()
        later = Batch(("d:i=1", "a:i=1"), b"\x07\x08\x09\x0a", 2)
        log.add_server(1, later)
        log.forward(1, 2, later, [1])
        # The last record with a label wins, across parts as within one.
        assert payloads(2, 1, log.to_user(2), ["a:i=1", "c:i=1"]) == [b"\x09\x0a", b"\x05\x06"]
        assert payloads(0, 1, log.server_edges, ["d:i=1", "b:i=1", "a:i=1"]) == [
            b"\x07\x08",
            b"\x03\x04",
            b"\x09\x0a",
        ]
        with pytest.raises(IncompleteReceptionError, match="'d:i=1' from relay 1"):
            payloads(2, 1, log.to_user(2), ["d:i=1"])
        # Routing sends one batch per neighbor over each server edge.
        cache = proposed_place(comb42, random_library(6, 12, seed=4), 2)
        log = routing_deliver(comb42, cache, distinct_demand(comb42, 6))
        for relay, edge in log.server_edges.items():
            assert len(edge.parts) > 1
            found = dict(edge)
            assert payloads(0, relay, log.server_edges, found) == list(found.values())


LABELS = st.sampled_from(["a", "b", 'q"', "c\\d", "é", "x:i=1"])


@st.composite
def new_batches(draw, min_size=0):
    part = draw(st.integers(0, 3))
    labels = draw(st.lists(LABELS, min_size=min_size, max_size=5))
    data = draw(st.binary(min_size=len(labels) * part, max_size=len(labels) * part))
    return Batch(labels, data, part)


@st.composite
def batch_logs(draw):
    """A log built from random batches, forwards and part appends, with the
    same log kept as plain record lists."""
    log = TransmissionLog()
    server: dict[int, list[Record]] = {}
    relay: dict[tuple[int, int], list[Record]] = {}
    batches: list[tuple[int, Batch]] = []
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(["server", "whole", "picked", "append"]))
        if op == "server" or not batches:
            relay_id = draw(st.integers(1, 3))
            batch = draw(new_batches())
            log.add_server(relay_id, batch)
            if batch.labels:
                server.setdefault(relay_id, []).extend(records(batch, range(len(batch.labels))))
            batches.append((relay_id, batch))
            continue
        user = draw(st.integers(0, 3))
        relay_id, batch = draw(st.sampled_from(batches))
        n = len(batch.labels)
        picks = draw(st.lists(st.integers(0, n - 1), max_size=6)) if n else []
        if op == "append":
            # A part put on a relay edge by hand, as a fault would: a batch
            # of the log or a new one, on any relay's edge.
            relay_id = draw(st.integers(1, 3))
            if draw(st.booleans()):
                batch, picks = draw(new_batches(min_size=1)), None
            elif not picks:
                continue
            log.relay_edges.setdefault((relay_id, user), Edge()).parts.append((batch, picks))
        elif op == "whole":
            picks = None
            log.forward(relay_id, user, batch)
        else:
            log.forward(relay_id, user, batch, picks)
        sent = records(batch, range(len(batch.labels)) if picks is None else picks)
        if sent:
            relay.setdefault((relay_id, user), []).extend(sent)
    return log, server, relay


def as_dict(server, relay):
    def signals(recs):
        return [{"label": r.label, "bits": r.bits, "payload": r.payload.hex()} for r in recs]

    return {
        "server_edges": [
            {"relay": i, "signals": signals(recs)} for i, recs in sorted(server.items())
        ],
        "relay_edges": [
            {"relay": i, "user": u, "signals": signals(recs)}
            for (i, u), recs in sorted(relay.items())
        ],
    }


class TestBatchLogAgainstRecordLists:
    @given(batch_logs())
    def test_digest_and_dict_match_the_record_list_form(self, case):
        log, server, relay = case
        assert log.to_dict() == as_dict(server, relay)
        assert log.digest() == reference_digest(log)
        assert {i: list(edge) for i, edge in log.server_edges.items()} == server
        assert {key: list(edge) for key, edge in log.relay_edges.items()} == relay
        for (i, u), recs in relay.items():
            assert len(log.relay_edges[(i, u)]) == len(recs)
            assert log.relay_bits(i, u) == 8 * sum(len(r.payload) for r in recs)
            assert log.to_user(u)[i] is log.relay_edges[(i, u)]
            found = dict(recs)
            assert payloads(u, i, log.to_user(u), found) == list(found.values())
