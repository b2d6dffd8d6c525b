"""One serve step for run, sweep and verify.

``harness._serve`` delivers a demand, measures it and decodes every user,
for :func:`run_scheme` and :func:`verify_all_demands` alike.  So verify
refuses uneven edge loads as run does, and the CLI then exits 1 with one
JSON error record.  A decoder that raises is a recorded failure of its
user rather than the end of a sweep, and the CLI names the first failure
of each failing cell on stderr.
"""

import json

import pytest

from relaycache import harness
from relaycache.cli import main as cli_main
from relaycache.erasure import make_code
from relaycache.harness import verify_all_demands
from relaycache.schemes import Batch, random_library

SWEEP = ["sweep", "--topology", "comb:4,2", "--N", "6"]


def extra_load(edge):
    """A proposed_deliver that puts one more record on server edge 1, or on
    relay edge (1, its first user) only."""
    deliver = harness.proposed_deliver

    def uneven(net, cache, demand, *extra):
        log = deliver(net, cache, demand, *extra)
        batch = Batch(["extra"], b"\x07", 1)
        relays = [1] if edge == "server" else range(1, net.h + 1)
        for i in relays:
            log.add_server(i, batch)
        if edge == "relay":
            log.forward(1, net._neighbors[0][0], batch)
        return log

    return uneven


@pytest.mark.parametrize("edge", ["server", "relay"])
def test_verify_refuses_uneven_edges(comb42, monkeypatch, edge):
    monkeypatch.setattr(harness, "proposed_deliver", extra_load(edge))
    with pytest.raises(RuntimeError, match=f"{edge} edges are not symmetric"):
        verify_all_demands(comb42, 2, 2, "proposed", mode="sampled", seed=1, count=1)


@pytest.mark.parametrize("edge", ["server", "relay"])
def test_uneven_edges_end_a_sweep_in_an_error_record(monkeypatch, capsys, edge):
    monkeypatch.setattr(harness, "proposed_deliver", extra_load(edge))
    assert cli_main(SWEEP) == 1
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["error"] == "AsymmetricLoadError"
    assert record["message"].startswith(f"{edge} edges are not symmetric: [")


def test_a_raising_decoder_fails_its_cell_and_the_sweep_goes_on(monkeypatch, capsys):
    # comb(4,2), N = 6: the cmcnc grid point M = 2 is t' = 2.
    decode = harness.cmcnc_decode

    def flaky(net, user, cache, demand, received, *extra):
        if cache.plan.t == 2 and user == 3:
            raise RuntimeError("injected")
        return decode(net, user, cache, demand, received, *extra)

    monkeypatch.setattr(harness, "cmcnc_decode", flaky)
    assert cli_main(SWEEP) == 1
    out, err = capsys.readouterr()
    rows = out.splitlines()
    assert len(rows) == 13  # header + 3 schemes x 4 points
    failed = [row for row in rows[1:] if row.endswith(",false")]
    assert [row.split(",")[:7] for row in failed] == [["cmcnc", "4", "2", "6", "3", "6", "2"]]
    (line,) = err.splitlines()
    assert json.loads(line) == {
        "scheme": "cmcnc",
        "M": "2",
        "demand": [1, 2, 3, 4, 5, 6],
        "user": 3,
        "error": "RuntimeError: injected",
    }


@pytest.mark.parametrize(
    "argv,runs",
    [
        (["run", "--topology", "comb:4,2", "--N", "6", "--M", "2", "--schemes", "proposed"], 1),
        (["verify", "--topology", "comb:4,2", "--N", "2", "--M", "2", "--schemes", "proposed",
          "--demands", "seeded-random", "--count", "3"], 3),
    ],
)
def test_wrong_bytes_are_named_once_per_cell(monkeypatch, capsys, argv, runs):
    decode = harness.proposed_decode

    def wrong(net, user, cache, demand, received):
        out = decode(net, user, cache, demand, received)
        return bytes([out[0] ^ 1]) + out[1:] if user == 0 else out

    monkeypatch.setattr(harness, "proposed_decode", wrong)
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    if argv[0] == "verify":
        assert out == f"proposed M=2: 0/{runs} demand vectors decode\n"
    (line,) = err.splitlines()
    record = json.loads(line)
    assert (record["scheme"], record["M"], record["user"]) == ("proposed", "2", 0)
    assert record["error"] == "decoded bytes differ" and len(record["demand"]) == 6


def test_passing_runs_write_nothing_to_stderr(capsys):
    assert cli_main(SWEEP) == 0
    assert capsys.readouterr().err == ""


def test_verify_counts_each_failing_draw_of_a_repeated_demand(monkeypatch, capsys):
    # Sampled demands are drawn with replacement: on comb(4,2) with N = 2,
    # seed 0 draws (1, 2, 1, 1, 1, 1) twice among 20, and both draws fail.
    decode = harness.proposed_decode
    repeated = (1, 2, 1, 1, 1, 1)

    def fails_one(net, user, cache, demand, received):
        out = decode(net, user, cache, demand, received)
        return out[::-1] if demand == repeated and user == 0 else out

    monkeypatch.setattr(harness, "proposed_decode", fails_one)
    argv = ["verify", "--topology", "comb:4,2", "--N", "2", "--M", "2", "--schemes", "proposed",
            "--demands", "seeded-random", "--count", "20", "--seed", "0"]
    assert cli_main(argv) == 1
    out, _ = capsys.readouterr()
    assert out == "proposed M=2: 18/20 demand vectors decode\n"


def test_the_pipeline_takes_no_code(comb42):
    # Each placement builds its own (h, r) code; the fifth parameter stays
    # for the bench worker's calls, which pass None.
    lib = random_library(2, 30, seed=1)
    with pytest.raises(ValueError, match="code must be None"):
        harness._pipeline(comb42, lib, 2, "cmcnc", make_code(comb42.h, comb42.r))
