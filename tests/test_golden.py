"""Golden wire format: pinned log digests and log JSON for every scheme.

The pins were recorded from the per-signal implementation on comb(4,2)
with N=6, F=30 bytes and library seed 2016.  A change to any label,
payload, edge order or serialization detail shows up here first.
"""

import hashlib
import json

import pytest

from relaycache.cli import main
from relaycache.harness import SCHEME_IDS, run_scheme_with_log
from relaycache.schemes import Record, TransmissionLog, distinct_demand, random_library

DIGESTS = {
    "proposed": "ca111e0a7f54ea42beac104e06b98c07a94d2b076f0c68627375b7575e1c9613",
    "routing": "01566bcd2f167f0d7eefa1660953d6e6029b7a99bf134adbf48bec785a80f0f3",
    "cmcnc": "f10368eb8a05c8c567c63396d9e5c58266fea46d08c1a1b3a40ab1a50bae6e09",
    "broadcast-mds": "705d868821aaa724f875e8d4d5e1cc110ce62852d877a55bc8227e29c8b366c2",
}

JSON_SHA256 = {
    "proposed": "a7b837ac34229a4489e1ffb5d1cd814c592754a46c60d11c6811d74dea729ca1",
    "routing": "7a4d8541f8dd499b6df6fbe23d2e1374665713fa1d771bb899b319c610ae2bb6",
    "cmcnc": "637a2ae831929dcf3936f502051e6700e31ded9e7061c240408cf2270173c229",
    "broadcast-mds": "d73c793494a7461ba1969c7ce6bf8e392261eb4a42778d6b7988a6e432e75d9f",
}

# cmcnc at the ends of its memory grid, with repeated demands.
CMCNC_EXTRA = {
    0: "0089da63740370fb8a4242a4e3dce0e264cc78a3971a5bfc7b13d9518924565f",
    4: "94aa2d678537dabcb9b371587019c404a4a1a6e80ea3ea2d82d42a562de0cd4f",
}


# proposed and routing at M=0, 4 and 6 (t=0, 2, 3) with distinct demands:
# (log_digest, sha256 of to_json()).  At t=2 every proposed signal cancels
# two cached terms; at t=3 nothing is sent.  Recorded from the per-term
# implementation, before per-relay batching.
CLASS_EXTRA = {
    ("proposed", 0): (
        "b5d08df3262e9692b47645895065bf4c1c9ecde635ae4a3a570e760e8cea9dc2",
        "acbca35bba544626a713906aedc6685124662af27b0eda5fbb8f92442d2b59b3",
    ),
    ("proposed", 4): (
        "0d5e0038041666391afde34994d6e6d630394969d2ba1e1fdd08897a017fb293",
        "8b60af2c707b4a9cb6f67ae1b2cb3b2f320beada28bddec962c1174072d3ec59",
    ),
    ("proposed", 6): (
        "6507f4f6742a9a258c397dadcc7a846d5bdb6be7f4ee936374cd643fa3a04ec3",
        "8dcfa0fedef0d7eeed7178e7e8ec924817480cd8399c06055347aeb9a1c2cceb",
    ),
    ("routing", 0): (
        "bfd496b54b1194ecfa6310517ac3713aaa78023be9359ea6fe1d5a326fd744ac",
        "e3009bc92a6fa7602130236f6a9e399fb6f85047032f32b09dbcedbce53fe4d3",
    ),
    ("routing", 4): (
        "c5331960f7abe92001fce0d9c138c2afb8513b6559d2d27e4df063e67b75dada",
        "53bbd5858f20d2fe92261f241ca4b1dc4a1101cab072f2f57c38a7ec75d992af",
    ),
    ("routing", 6): (
        "6507f4f6742a9a258c397dadcc7a846d5bdb6be7f4ee936374cd643fa3a04ec3",
        "8dcfa0fedef0d7eeed7178e7e8ec924817480cd8399c06055347aeb9a1c2cceb",
    ),
}


@pytest.fixture(scope="module")
def lib():
    return random_library(6, 30, seed=2016)


@pytest.fixture(scope="module")
def logs(comb42, lib):
    out = {}
    demand = distinct_demand(comb42, 6)
    for scheme in SCHEME_IDS:
        report, log = run_scheme_with_log(comb42, lib, 2, demand, scheme)
        assert report.decode_ok and report.formula_match
        out[scheme] = (report, log)
    return out


def reference_digest(log: TransmissionLog) -> str:
    """The digest's definition: sha256 of the compact, key-sorted log JSON."""
    blob = json.dumps(log.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_log_digest_pinned(logs, scheme):
    report, log = logs[scheme]
    assert report.log_digest == log.digest() == DIGESTS[scheme]


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_log_json_pinned(logs, scheme):
    _, log = logs[scheme]
    assert hashlib.sha256(log.to_json().encode()).hexdigest() == JSON_SHA256[scheme]


@pytest.mark.parametrize("M", sorted(CMCNC_EXTRA))
def test_cmcnc_grid_ends_pinned(comb42, lib, M):
    report, _ = run_scheme_with_log(comb42, lib, M, (1, 1, 2, 2, 3, 3), "cmcnc")
    assert report.decode_ok
    assert report.log_digest == CMCNC_EXTRA[M]


@pytest.mark.parametrize("scheme,M", sorted(CLASS_EXTRA))
def test_class_schemes_off_t1_pinned(comb42, lib, scheme, M):
    demand = distinct_demand(comb42, 6)
    report, log = run_scheme_with_log(comb42, lib, M, demand, scheme)
    assert report.decode_ok and report.formula_match
    digest, json_pin = CLASS_EXTRA[scheme, M]
    assert report.log_digest == log.digest() == digest
    assert sha256(log.to_json().encode()) == json_pin


class TestStreamedDigest:
    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_matches_reference_for_every_scheme(self, logs, scheme):
        _, log = logs[scheme]
        assert log.digest() == reference_digest(log)

    def test_matches_reference_on_awkward_labels(self):
        log = TransmissionLog()
        recs = [
            Record('q:"quoted"', b"\x00\xff"),
            Record("b:back\\slash", b""),
            Record("u:café:Σ:\U0001f600", b"\x10\x20\x30"),
            Record("c:ctrl\n\t\x01", b"\x7f"),
        ]
        for relay in (2, 1):
            log.add_server(relay, recs)
        for relay, user in ((1, 3), (1, 0), (2, 0)):
            log.forward(relay, user, recs[::-1])
        assert log.digest() == reference_digest(log)

    def test_distinct_payload_under_a_shared_label(self):
        # A relay edge may carry a record equal in label but not in payload
        # to its server copy; the digest must render each one on its own.
        log = TransmissionLog()
        rec = Record("x:i=1", b"\x01\x02")
        log.add_server(1, [rec])
        log.forward(1, 0, [rec])
        log.relay_edges[(1, 0)].append(Record("x:i=1", b"\x01\x03"))
        assert log.digest() == reference_digest(log)

    def test_empty_log(self):
        log = TransmissionLog()
        assert log.digest() == reference_digest(log)


# CLI output files on comb(4,2), N=6, seed 7, every scheme where the command
# takes schemes (run takes one at a time).  Recorded before the scheme
# registry replaced the per-scheme dispatch in the harness and the CLI.
CLI_BASE = ["--topology", "comb:4,2", "--N", "6", "--seed", "7"]
ALL_FOUR = ["--schemes", "proposed,routing,cmcnc,broadcast-mds"]
STRUCTURED = ["--format", "structured"]
RUN_PINS = {
    "proposed": "5fa54d73c142435102721d666f2aaaecf77bbe23a6f179ceff74448faaef4ec9",
    "routing": "c9913fc3e2d1eb8fbc6d3cda2fecb1c7e258f5501cae870067ef72fc1b38c047",
    "cmcnc": "1840407726cdd7da51057a89f9a7a8778e1f5199e4ee4eac41ea04821c06def1",
    "broadcast-mds": "994dff4f44a687d9d3f879624ca0abe2e141d568190d6c3cef52771e0d682a7c",
}

# output file -> (argv, sha256 of its bytes)
CLI_OUTPUTS = {
    "sweep.csv": (
        ["sweep", "--M", "grid", *ALL_FOUR],
        "e9ff2917181e4921ad1eb9c60b192f2aae64dea5bb75fb97210b374256ef6464",
    ),
    "sweep.json": (
        ["sweep", "--M", "grid", *ALL_FOUR, *STRUCTURED],
        "e88d53e1d1ed4ab60f33e0e7bf00aee70babf44c8deb51d63de1a7116a478773",
    ),
    "compare.csv": (
        ["compare", "--M", "grid"],
        "e43a6adfac356c9f065154dd14b9510e5c1a6f837a75fa0fc234aae27bffdcdf",
    ),
    "compare.json": (
        ["compare", "--M", "grid", *STRUCTURED],
        "d468907f5767ba1169f606d15ec042048032ca6324e2e9e7adf8fe2586cf0c27",
    ),
    "verify.json": (
        ["verify", "--M", "grid", *ALL_FOUR, "--demands", "seeded-random",
         "--count", "5"],
        "56f4f7ec49ef35598ecc30ba06e96628fe7fbfb77db2d990fe382b3c4f2e9d56",
    ),
    **{
        f"run_{s}_report.json": (["run", "--M", "2", "--schemes", s], pin)
        for s, pin in RUN_PINS.items()
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("filename", sorted(CLI_OUTPUTS))
def test_cli_output_pinned(tmp_path, capsys, filename):
    argv, pin = CLI_OUTPUTS[filename]
    assert main([*argv, *CLI_BASE, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sha256((tmp_path / filename).read_bytes()) == pin


@pytest.mark.parametrize("filename", ["sweep.csv", "sweep.json", "compare.csv", "compare.json"])
def test_table_on_stdout_pinned(capsys, filename):
    argv, pin = CLI_OUTPUTS[filename]
    assert main([*argv, *CLI_BASE]) == 0
    assert sha256(capsys.readouterr().out.encode()) == pin
