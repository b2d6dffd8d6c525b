"""Fault injection: every decoder against a dropped or corrupted record.

Each scheme runs on comb(4,2) at M=2 with distinct demands.  A relay edge
that loses a record the user needs must end in IncompleteReceptionError
naming that record's label and the relay; a flipped payload byte must show
up as a decode failure in run_scheme and verify_all_demands.
"""

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

M = 2
LIB = random_library(6, 30, seed=11)


def drop_each(net, scheme, user, relay):
    """Decode ``user`` once per record of edge (relay, user), that record
    dropped; yields (record, error or None).

    Every scheme's relay edge carries one batch; record k is dropped by
    forwarding that batch again with every position but k.
    """
    demand = distinct_demand(net, 6)
    _, deliver, decode = harness._pipeline(net, LIB, M, scheme, None)
    log = deliver(demand)
    edge = log.relay_edges[(relay, user)]
    ((batch, picks),) = edge.parts
    positions = range(len(batch.labels)) if picks is None else picks
    for k, rec in enumerate(edge):
        rest = TransmissionLog(server_edges=log.server_edges)
        rest.forward(relay, user, batch, [*positions[:k], *positions[k + 1 :]])
        received = {**log.to_user(user), relay: rest.relay_edges.get((relay, user), Edge())}
        try:
            out = decode(user, demand, received)
        except IncompleteReceptionError as exc:
            yield rec, exc
        else:
            assert out == LIB.file(demand[user]), "an unused record changed the output"
            yield rec, None


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_dropped_record_names_signal_and_relay(comb42, scheme):
    failures = 0
    for user in range(comb42.K):
        for relay in comb42.users[user]:
            for rec, exc in drop_each(comb42, scheme, user, relay):
                if exc is None:
                    continue
                failures += 1
                msg = str(exc)
                assert re.search(rf"\bfrom relay {relay}\b", msg), msg
                assert repr(rec.label) in msg, msg
    assert failures


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
        edge.parts = [(Batch(batch.labels, data, batch.part), picks)]
        return log

    return wrapped


def needed_record(net, scheme):
    """(relay, user, index) of the first record whose loss stops its user."""
    user = 0
    relay = net.users[user][0]
    for k, (_, exc) in enumerate(drop_each(net, scheme, user, relay)):
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
