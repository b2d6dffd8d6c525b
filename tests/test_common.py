"""Shared plumbing: libraries, demand vectors, records, logs, and the plan."""

import dataclasses
import itertools
import json
from array import array

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from relaycache.schemes import proposed_place, routing_deliver
from relaycache.schemes.common import (
    FileLibrary,
    IncompleteReceptionError,
    all_demands,
    as_items,
    distinct_demand,
    gather,
    holds_all,
    payloads,
    random_library,
    uniform_demand,
    validate_demand,
)
from relaycache.schemes.log import Batch, Edge, TransmissionLog
from relaycache.schemes.plan import Plan, fmt_subset
from test_golden import assert_matches_reference, edge_records, reference_digest, signals, written


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
        # What candidate c decodes by: its signals, grouped by its position
        # p in C, and per signal the T of C minus c.
        n, t, c = case
        subsets = list(itertools.combinations(range(n), t))
        signals = list(itertools.combinations(range(n), t + 1))
        rank = {T: q for q, T in enumerate(subsets)}
        groups, mine, delivered = Plan(n, t, 1).receiving(c)

        assert sorted(mine) == [s for s, C in enumerate(signals) if c in C]
        assert mine == [s for _, group, _ in groups for s in group]
        assert len(delivered) == len(mine)
        for p, group, pick in groups:
            assert group and all(signals[s][p] == c for s in group)
            assert list(pick(list(range(len(signals))))) == list(group)
        for k, s in enumerate(mine):
            assert delivered[k] == rank[tuple(y for y in signals[s] if y != c)]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_decoding_matches_a_per_signal_listing(self, n):
        # Every t, t = n - 1 included: there every group of signals by the
        # position of c holds 0 or 1 signals.
        for t in range(n):
            subsets = list(itertools.combinations(range(n), t))
            signals = list(itertools.combinations(range(n), t + 1))
            rank = {T: q for q, T in enumerate(subsets)}
            plan = Plan(n, t, 1)
            for c in range(n):
                at = [[s for s, C in enumerate(signals) if C[p] == c] for p in range(t + 1)]
                mine = [s for group in at for s in group]
                delivered = [rank[tuple(y for y in signals[s] if y != c)] for s in mine]
                groups, got, extracted = plan.receiving(c)
                assert [(p, list(group)) for p, group, _ in groups] == [(p, g) for p, g in enumerate(at) if g]
                assert (got, extracted) == (mine, delivered), (n, t, c)

    @given(plan_case())
    def test_at_matches_definition(self, case):
        n, t, _ = case
        signals = list(itertools.combinations(range(n), t + 1))
        at = Plan(n, t, 1).at
        assert [list(map(list, groups)) for groups in at] == [
            [[s for s, C in enumerate(signals) if C[j] == c] for c in range(n)] for j in range(t + 1)
        ]


SIZES = [*range(10), 12, 16, 44]


def slice_join(sources, which, index, size):
    return b"".join(sources[w][k * size : (k + 1) * size] for w, k in zip(which, index))


@st.composite
def gather_cases(draw):
    """(sources, which, index, size): one to three sources of whole items,
    some with a trailing part shorter than an item, and indices into them."""
    size = draw(st.sampled_from(SIZES))
    counts = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    sources = [
        draw(st.binary(min_size=count * size, max_size=count * size + max(size - 1, 0)))
        for count in counts
    ]
    # At size 0 every item is empty, so any index past 0 names one too.
    items = [(w, k) for w, count in enumerate(counts) for k in range(count if size else 4)]
    pairs = draw(st.lists(st.sampled_from(items), max_size=12)) if items else []
    return sources, [w for w, _ in pairs], [k for _, k in pairs], size


class TestGather:
    @given(gather_cases(), st.booleans())
    def test_matches_slice_join(self, case, as_views):
        sources, which, index, size = case
        expected = slice_join(sources, which, index, size)
        if as_views:
            sources = [as_items(source, size) for source in sources]
        assert gather(sources, which, index, size) == expected

    def test_empty_index_and_one_source(self):
        assert gather([b"abcd"], [], [], 2) == b""
        assert gather([b"abcdef"], [0, 0], [2, 0], 2) == b"efab"
        assert gather([b"abcdef"], range(1), [1], 3) == b"def"

    @given(gather_cases(), st.sampled_from(["past", "negative", "source", "negative source"]))
    def test_refuses_an_item_that_does_not_exist(self, case, fault):
        sources, which, index, size = case
        assume(index)
        j = len(index) // 2
        w = which[j]
        if fault == "past":
            assume(size)
            index[j] = len(sources[w]) // size
        elif fault == "negative":
            index[j] = -1 - index[j]
        elif fault == "source":
            which[j] = len(sources)
        else:
            which[j] = -1
        with pytest.raises(IndexError):
            gather(sources, which, index, size)
        with pytest.raises(IndexError):
            gather([as_items(source, size) for source in sources], which, index, size)

    @pytest.mark.parametrize("code", ["B", "I", "Q"])
    def test_reads_unsigned_array_tables(self, code):
        # An unsigned array holds no negative index, so it is not scanned.
        index = array(code, [2, 0, 1])
        assert gather([b"abcdef"], array(code, [0, 0, 0]), index, 2) == b"efabcd"
        assert gather([b"ab", b"cd"], array(code, [1, 0]), array(code, [0, 0]), 2) == b"cdab"

    @pytest.mark.parametrize("code", ["b", "i", "q"])
    def test_refuses_negative_indices_in_signed_arrays(self, code):
        with pytest.raises(IndexError):
            gather([b"abcdef"], [0, 0], array(code, [0, -1]), 2)
        with pytest.raises(IndexError):
            gather([b"ab", b"cd"], array(code, [0, -1]), [0, 0], 2)

    @pytest.mark.parametrize("size", [2, 3])
    def test_refuses_lengths_that_differ(self, size):
        with pytest.raises(ValueError, match="differ in length"):
            gather([b"abcdef"], [0, 0], [0], size)
        with pytest.raises(ValueError, match="differ in length"):
            gather([b"abcdef"], [0], [0, 1], size)


class TestHoldsAll:
    ROW = b"\1\0\1"

    @pytest.mark.parametrize(
        "items,held",
        [
            ([], True),
            ([0, 2, 0], True),
            (array("I", [2, 0]), True),
            (range(0, 3, 2), True),
            ([0, 1], False),
            ([-1], False),  # would wrap to the held item 2
            ([-3], False),  # would wrap to the held item 0
            (array("i", [0, -1]), False),
            ([3], False),
            ([2, 2**64], False),
        ],
    )
    def test_an_item_is_held_only_inside_the_row(self, items, held):
        assert holds_all(self.ROW, items) is held

    @given(st.binary(max_size=40), st.lists(st.integers(-50, 50), max_size=8))
    def test_matches_the_set_of_held_items(self, row, items):
        held = {k for k, bit in enumerate(row) if bit}
        assert holds_all(row, items) == held.issuperset(items)


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

    def test_serialization_shape_and_digest(self):
        log = TransmissionLog()
        batch = batch_of("a:i=1:C=1", b"\xab")
        log.add_server(1, batch)
        log.forward(1, 4, batch)
        data = json.loads(written(log, indent=2))
        assert data["server_edges"] == [
            {
                "relay": 1,
                "signals": [{"label": "a:i=1:C=1", "bits": 8, "payload": "ab"}],
            }
        ]
        assert data["relay_edges"][0]["user"] == 4
        assert log.digest() == log.digest()
        assert written(log, indent=2).startswith(b'{\n  "relay_edges": [\n    {\n      "relay": 1,')

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
        assert edge_records(log.to_user(0)[2]) == [("b:i=2", b"2")]

    def test_empty_sequences_add_no_edge(self):
        # Routing at t = Kt forwards an empty batch that add_server never
        # stored, so neither an empty batch nor empty picks are checked.
        log = TransmissionLog()
        empty = Batch((), b"", 4)
        log.add_server(1, empty)
        log.forward(1, 0, empty)  # never stored on the server edge
        log.forward(2, 0, empty, [])
        assert (log.server_edges, log.relay_edges) == ({}, {})
        assert written(log, indent=2) == written(TransmissionLog(), indent=2)
        assert log.digest() == TransmissionLog().digest()
        log, batch = served_batch()
        stray = Batch(("z:i=1",), b"\x09\x09", 2)
        log.forward(1, 3, batch, [])
        log.forward(1, 3, stray, ())
        log.forward(5, 3, batch, [])
        assert sorted(log.relay_edges) == [(1, 0), (1, 1), (1, 2)]


def served_batch():
    """A log with one 3-record batch on server edge 1, labelled 'a:i=1',
    'b:i=1' and 'c:i=1', forwarded whole to users 0 and 1 and picked
    (records 2 and 0) to user 2."""
    log = TransmissionLog()
    batch = Batch(("a", "b", "c"), b"\x01\x02\x03\x04\x05\x06", 2, suffix=":i=1")
    log.add_server(1, batch)
    log.forward(1, 0, batch)
    log.forward(1, 1, batch)
    log.forward(1, 2, batch, [2, 0])
    return log, batch


def records(batch, positions):
    p = batch.part
    return [(batch.labels[k], batch.data[k * p : (k + 1) * p]) for k in positions]


def flipped(batch):
    """A copy of ``batch`` with its first byte flipped."""
    return dataclasses.replace(batch, data=bytes([batch.data[0] ^ 0x40]) + batch.data[1:])


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
        copy = dataclasses.replace(batch)
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
        assert edge_records(log.relay_edges[(2, 3)]) == records(other, [0])
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

    def test_edges_serialize_as_their_records(self):
        log, batch = served_batch()
        data = json.loads(written(log))
        assert data["server_edges"][0]["signals"] == signals(records(batch, [0, 1, 2]))
        assert [edge["signals"] for edge in data["relay_edges"]] == [
            signals(records(batch, positions)) for positions in ([0, 1, 2], [0, 1, 2], [2, 0])
        ]

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
        before = [edge_records(edge) for edge in [log.server_edges[1], *others]]
        edit(log.relay_edges[(1, user)].parts)
        assert batch.data == b"\x01\x02\x03\x04\x05\x06"
        assert [edge_records(edge) for edge in [log.server_edges[1], *others]] == before
        assert log.to_user(user)[1] is log.relay_edges[(1, user)]
        assert_matches_reference(log)

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
        assert payloads(2, 1, rx, [0, 2], batch.form) == b"\x01\x02\x05\x06"
        with pytest.raises(IncompleteReceptionError, match="did not receive 'b:i=1' from relay 1"):
            payloads(2, 1, rx, [0, 1], batch.form)
        assert payloads(0, 1, log.to_user(0), [2, 1], batch.form) == b"\x05\x06\x03\x04"
        # A form with equal names answers; another suffix does not.
        assert payloads(0, 1, log.to_user(0), [1], ("", ("a", "b", "c"), ":i=1")) == b"\x03\x04"
        with pytest.raises(IncompleteReceptionError, match="did not receive 'a:i=2' from relay 1"):
            payloads(0, 1, log.to_user(0), [0], ("", batch.names, ":i=2"))

    def test_a_missing_relay_raises(self):
        log, batch = served_batch()
        rx = log.to_user(2)
        with pytest.raises(IncompleteReceptionError, match="user 2 did not receive 'a:i=1' from relay 2"):
            payloads(2, 2, rx, [0], batch.form)
        with pytest.raises(IncompleteReceptionError, match="'a:i=1' from relay 1"):
            payloads(2, 1, {}, [0], batch.form)
        assert payloads(2, 2, rx, [], batch.form) == b""

    def test_payloads_of_a_whole_batch(self):
        log, batch = served_batch()
        rx = log.to_user(0)
        # All positions in order are the batch buffer itself; any other
        # sequence of them, however long, is gathered.
        assert payloads(0, 1, rx, range(3), batch.form) is batch.data
        assert payloads(0, 1, rx, [0, 1, 2], batch.form) is batch.data
        assert payloads(0, 1, rx, [2, 1, 0], batch.form) == b"\x05\x06\x03\x04\x01\x02"
        assert payloads(0, 1, rx, [1, 1, 1], batch.form) == b"\x03\x04" * 3

    @pytest.mark.parametrize("positions", [[3], [-1], [-4], [0, 5]])
    def test_payloads_refuse_positions_outside_the_form(self, positions):
        log, batch = served_batch()
        later = dataclasses.replace(batch, data=b"\x07\x08\x09\x0a\x0b\x0c")
        log.add_server(1, later)
        log.forward(1, 1, later, [1])
        bad = next(k for k in positions if not 0 <= k < 3)
        # Whole, picked, multi-part and missing feeds alike.
        for user in range(3):
            for rx in (log.to_user(user), {}):
                with pytest.raises(IndexError, match=rf"position {bad} lies outside the 3 records"):
                    payloads(user, 1, rx, positions, batch.form)

    def test_payloads_on_multi_part_edges(self, comb42):
        log, batch = served_batch()
        later = dataclasses.replace(batch, data=b"\x07\x08\x09\x0a\x0b\x0c")
        log.add_server(1, later)
        log.forward(1, 2, later, [0])
        # The last record at a position wins, across parts as within one.
        assert payloads(2, 1, log.to_user(2), [0, 2], batch.form) == b"\x07\x08\x05\x06"
        # A part of another form answers only for its own form, even where
        # it renders the same label.
        other = Batch(("d", "a"), b"\x0d\x0e\x0f\x10", 2, suffix=":i=1")
        log.add_server(1, other)
        log.forward(1, 2, other, [1])
        assert payloads(2, 1, log.to_user(2), [0, 2], batch.form) == b"\x07\x08\x05\x06"
        assert payloads(2, 1, log.to_user(2), [1], other.form) == b"\x0f\x10"
        assert payloads(0, 1, log.server_edges, [1, 0], batch.form) == b"\x09\x0a\x07\x08"
        with pytest.raises(IncompleteReceptionError, match="'d:i=1' from relay 1"):
            payloads(2, 1, log.to_user(2), [0], other.form)
        # Routing sends one batch per neighbor over each server edge.
        cache = proposed_place(comb42, random_library(6, 12, seed=4), 2)
        log = routing_deliver(comb42, cache, distinct_demand(comb42, 6))
        for relay, edge in log.server_edges.items():
            assert len(edge.parts) > 1
            for batch, _ in edge.parts:
                positions = range(len(batch.names))
                sent = [payload for _, payload in records(batch, positions)]
                assert payloads(0, relay, log.server_edges, positions, batch.form) == b"".join(sent)


LABELS = st.sampled_from(["a", "b", 'q"', "c\\d", "é", "x:i=1"])


@st.composite
def new_batches(draw, min_size=0):
    part = draw(st.integers(0, 3))
    names = draw(st.lists(LABELS, min_size=min_size, max_size=5))
    data = draw(st.binary(min_size=len(names) * part, max_size=len(names) * part))
    prefix, suffix = draw(st.sampled_from(["", "p:", 'q"'])), draw(st.sampled_from(["", ":é"]))
    return Batch(names, data, part, prefix, suffix)


@st.composite
def batch_logs(draw):
    """A log built from random batches, forwards and part appends, with the
    same log kept as plain record lists."""
    log = TransmissionLog()
    server: dict[int, list[tuple[str, bytes]]] = {}
    relay: dict[tuple[int, int], list[tuple[str, bytes]]] = {}
    batches: list[tuple[int, Batch]] = []
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(["server", "whole", "picked", "append"]))
        if op == "server" or not batches:
            relay_id = draw(st.integers(1, 3))
            batch = draw(new_batches())
            log.add_server(relay_id, batch)
            if batch.names:
                server.setdefault(relay_id, []).extend(records(batch, range(len(batch.names))))
            batches.append((relay_id, batch))
            continue
        user = draw(st.integers(0, 3))
        relay_id, batch = draw(st.sampled_from(batches))
        n = len(batch.names)
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
        sent = records(batch, range(len(batch.names)) if picks is None else picks)
        if sent:
            relay.setdefault((relay_id, user), []).extend(sent)
    return log, server, relay


def as_dict(server, relay):
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
        expected = as_dict(server, relay)
        assert written(log) == json.dumps(expected, sort_keys=True, separators=(",", ":")).encode()
        assert written(log, indent=2) == json.dumps(expected, indent=2, sort_keys=True).encode()
        assert log.digest() == reference_digest(log)
        assert {i: edge_records(edge) for i, edge in log.server_edges.items()} == server
        assert {key: edge_records(edge) for key, edge in log.relay_edges.items()} == relay
        for (i, u), recs in relay.items():
            assert len(log.relay_edges[(i, u)]) == len(recs)
            assert log.relay_bits(i, u) == 8 * sum(len(payload) for _, payload in recs)
            assert log.to_user(u)[i] is log.relay_edges[(i, u)]
            for batch, _ in log.relay_edges[(i, u)].parts:
                # The last record at each position among the parts of this form.
                found = {}
                for other, picks in log.relay_edges[(i, u)].parts:
                    if other.form == batch.form:
                        at = range(len(other.names)) if picks is None else picks
                        found.update((k, other.data[k * other.part : (k + 1) * other.part]) for k in at)
                assert payloads(u, i, log.to_user(u), list(found), batch.form) == b"".join(found.values())
