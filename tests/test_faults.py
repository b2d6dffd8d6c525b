"""Fault injection: every decoder against a dropped or corrupted record.

Each scheme runs on comb(4,2) at M=2 with distinct demands.  A relay edge
that loses a record the user needs must end in IncompleteReceptionError
naming that record's label and the relay; a flipped payload byte must show
up as a decode failure in run_scheme and verify_all_demands.
"""

import dataclasses
import re

import pytest

from relaycache import harness
from relaycache.harness import SCHEME_IDS, run_scheme, verify_all_demands
from relaycache.schemes import (
    Batch,
    Edge,
    IncompleteReceptionError,
    TransmissionLog,
    distinct_demand,
    random_library,
)
from relaycache.schemes import plan
from test_golden import edge_records

M = 2
LIB = random_library(6, 30, seed=11)


def drop_each(net, scheme, user, relay, lib=LIB):
    """Decode ``user`` once per record of edge (relay, user), that record
    dropped; yields (its label, error or None).

    Every scheme's relay edge carries one batch; record k is dropped by
    forwarding that batch again with every position but k.
    """
    demand = distinct_demand(net, 6)
    _, deliver, decode = harness._pipeline(net, lib, M, scheme, None)
    log = deliver(demand)
    edge = log.relay_edges[(relay, user)]
    ((batch, picks),) = edge.parts
    positions = range(len(batch.labels)) if picks is None else picks
    for k, (label, _) in enumerate(edge_records(edge)):
        rest = TransmissionLog(server_edges=log.server_edges)
        rest.forward(relay, user, batch, [*positions[:k], *positions[k + 1 :]])
        received = {**log.to_user(user), relay: rest.relay_edges.get((relay, user), Edge())}
        try:
            out = decode(user, demand, received)
        except IncompleteReceptionError as exc:
            yield label, exc
        else:
            assert out == lib.file(demand[user]), "an unused record changed the output"
            yield label, None


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_dropped_record_names_signal_and_relay(comb42, scheme):
    failures = 0
    for user in range(comb42.K):
        for relay in comb42.users[user]:
            for label, exc in drop_each(comb42, scheme, user, relay):
                if exc is None:
                    continue
                failures += 1
                msg = str(exc)
                assert re.search(rf"\bfrom relay {relay}\b", msg), msg
                assert repr(label) in msg, msg
    assert failures


# The first record relay 1 owes user 0, who sits on relays 1 and 2.
FIRST_FROM_RELAY_1 = {
    "proposed": "prop:i=1:C=1.2",
    "routing": "rt:i=1:V=1.2:T=2:l=1",
    "cmcnc": "cm:S=1.2.3:p=1",
    "broadcast-mds": "bc:n=1:p=1:octets=20",
}


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_foreign_batch_is_not_read_as_the_relays_own(comb42, scheme):
    """Relay 2's server batch put by hand on relay 1's edge to user 0, with
    the same picks, is not read as relay 1's records."""
    user = 0
    i, j = comb42.users[user]
    demand = distinct_demand(comb42, 6)
    _, deliver, decode = harness._pipeline(comb42, LIB, M, scheme, None)
    log = deliver(demand)
    ((_, picks),) = log.relay_edges[(i, user)].parts
    ((foreign, _),) = log.relay_edges[(j, user)].parts  # on relay j's server edge
    log.relay_edges[(i, user)].parts = [(foreign, picks)]
    with pytest.raises(IncompleteReceptionError) as caught:
        decode(user, demand, log.to_user(user))
    msg = str(caught.value)
    assert re.search(rf"\bfrom relay {i}\b", msg), msg
    assert repr(FIRST_FROM_RELAY_1[scheme]) in msg, msg


def corrupting(deliver, relay, user, index):
    """``deliver`` with the first payload byte of record ``index`` flipped on
    edge (relay, user): that edge carries a copy of its batch with the byte
    flipped, and the server edge keeps the original."""

    def wrapped(*args, **kwargs):
        log = deliver(*args, **kwargs)
        edge = log.relay_edges[(relay, user)]
        ((batch, picks),) = edge.parts
        data = bytearray(batch.data)
        data[(index if picks is None else picks[index]) * batch.part] ^= 0x40
        edge.parts = [(dataclasses.replace(batch, data=data), picks)]
        return log

    return wrapped


def needed_record(net, scheme, lib=LIB):
    """(relay, user, index) of the first record whose loss stops its user."""
    user = 0
    relay = net.users[user][0]
    for k, (_, exc) in enumerate(drop_each(net, scheme, user, relay, lib)):
        if exc is not None:
            return relay, user, k
    raise AssertionError(f"no record on edge ({relay}, {user}) is needed")


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_flipped_byte_fails_run_scheme(comb42, scheme, monkeypatch):
    relay, user, k = needed_record(comb42, scheme)
    name = harness.SCHEMES[scheme].deliver
    monkeypatch.setattr(harness, name, corrupting(getattr(harness, name), relay, user, k))
    report = run_scheme(comb42, LIB, M, distinct_demand(comb42, 6), scheme)
    assert not report.decode_ok
    assert report.formula_match


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_flipped_byte_fails_verify(comb42, scheme, monkeypatch):
    relay, user, k = needed_record(comb42, scheme)
    name = harness.SCHEMES[scheme].deliver
    monkeypatch.setattr(harness, name, corrupting(getattr(harness, name), relay, user, k))
    report = verify_all_demands(comb42, 6, M, scheme, mode="sampled", seed=3, count=4)
    assert not report.passed
    assert {(u, why) for _, u, why in report.failures} == {(user, "decoded bytes differ")}
    assert len(report.failures) == report.runs == 4


# At 90-byte files no subfile or piece is an array item size: cmcnc has
# 6-byte subfiles and 3-byte pieces, proposed 15-byte subfiles.  So their
# reads take the slice-and-join path, which the 30-byte library never does.
LIB90 = random_library(6, 90, seed=11)
SLICED = ["cmcnc", "proposed"]


@pytest.mark.parametrize("scheme", SLICED)
def test_dropped_record_at_sliced_sizes(comb42, scheme):
    failures = 0
    for user in range(comb42.K):
        for relay in comb42.users[user]:
            for label, exc in drop_each(comb42, scheme, user, relay, LIB90):
                if exc is not None:
                    failures += 1
                    assert re.search(rf"\bfrom relay {relay}\b", str(exc)), exc
                    assert repr(label) in str(exc), exc
    assert failures


@pytest.mark.parametrize("scheme", SLICED)
def test_flipped_byte_at_sliced_sizes(comb42, scheme, monkeypatch):
    relay, user, k = needed_record(comb42, scheme, LIB90)
    name = harness.SCHEMES[scheme].deliver
    monkeypatch.setattr(harness, name, corrupting(getattr(harness, name), relay, user, k))
    report = run_scheme(comb42, LIB90, M, distinct_demand(comb42, 6), scheme)
    assert not report.decode_ok and report.formula_match
    report = verify_all_demands(comb42, 6, M, scheme, mode="sampled", seed=3, count=4, file_bytes=90)
    assert {(u, why) for _, u, why in report.failures} == {(user, "decoded bytes differ")}
    assert len(report.failures) == report.runs == 4


# At 6 * _INT_BYTES-byte files, proposed's subfiles on comb(4,2) at M=2 are
# _INT_BYTES long: its signals XOR the int forms its placement keeps.
LIB_INT = random_library(6, 6 * plan._INT_BYTES, seed=11)


def test_the_int_library_takes_the_int_path(comb42):
    cache, deliver, _ = harness._pipeline(comb42, LIB_INT, M, "proposed", None)
    deliver(distinct_demand(comb42, 6))
    assert all(ints is not None for _, ints, _ in cache.served[1])


def test_dropped_record_on_the_int_path(comb42):
    failures = 0
    for user in range(comb42.K):
        for relay in comb42.users[user]:
            for label, exc in drop_each(comb42, "proposed", user, relay, LIB_INT):
                if exc is not None:
                    failures += 1
                    assert re.search(rf"\bfrom relay {relay}\b", str(exc)), exc
                    assert repr(label) in str(exc), exc
    assert failures


def test_flipped_byte_on_the_int_path(comb42, monkeypatch):
    relay, user, k = needed_record(comb42, "proposed", LIB_INT)
    name = harness.SCHEMES["proposed"].deliver
    monkeypatch.setattr(harness, name, corrupting(getattr(harness, name), relay, user, k))
    report = run_scheme(comb42, LIB_INT, M, distinct_demand(comb42, 6), "proposed")
    assert not report.decode_ok and report.formula_match
    report = verify_all_demands(
        comb42, 6, M, "proposed", mode="sampled", seed=3, count=4, file_bytes=LIB_INT.file_bytes
    )
    assert {(u, why) for _, u, why in report.failures} == {(user, "decoded bytes differ")}
    assert len(report.failures) == report.runs == 4
