"""Golden wire format: pinned log digests and log JSON for every scheme.

The pins were recorded from the per-signal implementation on comb(4,2)
with N=6, F=30 bytes and library seed 2016.  A change to any label,
payload, edge order or serialization detail shows up here first.
"""

import dataclasses
import functools
import gc
import hashlib
import json
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relaycache import harness
from relaycache.cli import main
from relaycache.harness import (
    SCHEME_IDS,
    run_scheme_with_log,
    scheme_file_divisor,
    verify_all_demands,
)
from relaycache.schemes import (
    Batch,
    Edge,
    IncompleteReceptionError,
    TransmissionLog,
    broadcast_decode,
    broadcast_mds_deliver,
    broadcast_place,
    distinct_demand,
    random_demand,
    random_library,
)
from relaycache.topology import (
    affine_plane,
    combination_network,
    custom_network,
    network_to_dict,
)

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
# (log_digest, sha256 of the indented log JSON).  At t=2 every proposed
# signal cancels two cached terms; at t=3 nothing is sent.  Recorded from the
# per-term implementation, before per-relay batching.
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


def edge_records(edge: Edge) -> list[tuple[str, bytes]]:
    """The (label, payload) records of ``edge``, in order."""
    out = []
    for batch, picks in edge.parts:
        p, labels = batch.part, batch.labels
        positions = range(len(labels)) if picks is None else picks
        out += [(labels[k], batch.data[k * p : (k + 1) * p]) for k in positions]
    return out


def signals(recs: list[tuple[str, bytes]]) -> list[dict]:
    return [
        {"label": label, "bits": 8 * len(payload), "payload": payload.hex()}
        for label, payload in recs
    ]


def reference_dict(log: TransmissionLog) -> dict:
    """The log as the dict its JSON serializes, built record by record."""
    return {
        "server_edges": [
            {"relay": relay, "signals": signals(edge_records(edge))}
            for relay, edge in sorted(log.server_edges.items())
        ],
        "relay_edges": [
            {"relay": relay, "user": user, "signals": signals(edge_records(edge))}
            for (relay, user), edge in sorted(log.relay_edges.items())
        ],
    }


def reference_digest(log: TransmissionLog) -> str:
    """The digest's definition: sha256 of the compact, key-sorted log JSON."""
    blob = json.dumps(reference_dict(log), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def reference_json(log: TransmissionLog) -> str:
    """The log file ``run --out`` writes: indented, key-sorted log JSON."""
    return json.dumps(reference_dict(log), indent=2, sort_keys=True) + "\n"


def written(log: TransmissionLog, indent: int | None = None) -> bytes:
    chunks: list[bytes] = []
    log.write(chunks.append, indent)
    return b"".join(chunks)


def assert_matches_reference(log: TransmissionLog) -> None:
    """Both layouts of the streamed log, and its digest, against the reference."""
    compact = json.dumps(reference_dict(log), sort_keys=True, separators=(",", ":"))
    assert written(log) == compact.encode()
    assert written(log, indent=2) + b"\n" == reference_json(log).encode()
    assert log.digest() == reference_digest(log)


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_log_digest_pinned(logs, scheme):
    report, log = logs[scheme]
    assert report.log_digest == log.digest() == DIGESTS[scheme]


@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_log_json_pinned(logs, scheme):
    _, log = logs[scheme]
    assert sha256(written(log, indent=2) + b"\n") == JSON_SHA256[scheme]


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
    assert sha256(written(log, indent=2) + b"\n") == json_pin


# Every grid point of proposed and routing (t) and of cmcnc (t') on five
# topologies with N=4: each cell at its own smallest file size
# (scheme_file_divisor), library seed 2016, and the demand drawn by
# random.Random(t).  cmcnc is pinned where that file size is at most 3,000
# bytes.  Recorded on the separate per-scheme plan tables, before both coded
# schemes shared one.
TWO_CLASS_USERS = [(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7), (2, 5, 8), (3, 6, 9)]
GRID_NETS = {
    "comb:4,2": lambda: combination_network(4, 2),
    "comb:6,2": lambda: combination_network(6, 2),
    "comb:6,3": lambda: combination_network(6, 3),
    "affine:3": lambda: affine_plane(3),
    "two-class": lambda: custom_network(9, 3, TWO_CLASS_USERS),
}
GRID_PINS = {
    ('comb:4,2', 'cmcnc', 0): "280744fe6150789f447e8b5c8f53647171d7cc1a268cd5ac369800319959503a",
    ('comb:4,2', 'cmcnc', 1): "3ca37e81ee5958784cda1385cd9e7c622b18bd526738ba61338098bb4c23e5ef",
    ('comb:4,2', 'cmcnc', 2): "cba7c23a757b2b93fad4af2334efe22800dbd9514c5a5d992008720786c19fab",
    ('comb:4,2', 'cmcnc', 3): "539e9c44ea1df107284f8804aa621fb276ae5d519bf0336b0627bac561c0d7cf",
    ('comb:4,2', 'cmcnc', 4): "338c62f996cbf0f6d55716ef5fd52ab30354bd3bd6991c84f6556291f65f2ea5",
    ('comb:4,2', 'cmcnc', 5): "49ffcdc963d3ae1de02597635d5fb78c59ffee4c8e2ce575e173948c8985e8c5",
    ('comb:4,2', 'cmcnc', 6): "6507f4f6742a9a258c397dadcc7a846d5bdb6be7f4ee936374cd643fa3a04ec3",
    ('comb:6,2', 'proposed', 0): "1d88df73b8f9ac8a048679cf51d249ba8f3540eec1d65a12b0bb6ecbc48925d0",
    ('comb:6,2', 'proposed', 1): "c780ad20e97a506daede41ac8ed1302e77fcd5caaa88bfd656248339d73cbf27",
    ('comb:6,2', 'proposed', 2): "3be2eb3d4f1b8ec15636494cf3374eec0780b7fd9fd78376f632b02288447ffe",
    ('comb:6,2', 'proposed', 3): "5382fa2e81ba663cc7ba2add91531bd749bc853958b2099365f92462b9b69ef3",
    ('comb:6,2', 'proposed', 4): "a24c88b766cf0a5c1f711e49aca3fd76a8da72f34c3f2fc4e89ed6212fce96fc",
    ('comb:6,2', 'proposed', 5): "6507f4f6742a9a258c397dadcc7a846d5bdb6be7f4ee936374cd643fa3a04ec3",
    ('comb:6,2', 'routing', 0): "667ef404176dc6e48490d4da8100f5af45d6bbeab92e68afaa7362c72ae0ac60",
    ('comb:6,2', 'routing', 1): "8b35ea0aea1feae38926f3d24feeafa9f27c0047e02401640047d1a4ada5bab2",
    ('comb:6,2', 'routing', 2): "7a989117dc2233338dfab572d7da0900957bbba98d3ceef646aed14b63b4c689",
    ('comb:6,2', 'routing', 3): "ddf71d3e9bd5f376b75a305984950fb320ecc398947c1d4d0a60ab875f8951b7",
    ('comb:6,2', 'routing', 4): "0331cebcb095321d9dc062a1f4a1f1caefc8fbf1a45fb0811a6e14e1f5e9c8ca",
    ('comb:6,2', 'routing', 5): "6507f4f6742a9a258c397dadcc7a846d5bdb6be7f4ee936374cd643fa3a04ec3",
    ('comb:6,2', 'cmcnc', 0): "72715aad8862069bde2b63d57549329e2561ea387f2968514fb2ed60664416b6",
    ('comb:6,2', 'cmcnc', 1): "88a1ceb7bb79f5aa45f551103850b6e177d490a3cdbdc8df3ad3ddd0a7086927",
    ('comb:6,2', 'cmcnc', 2): "79c66b74591e8c96a87292eea5ab3c53b498e333a749e3e1460c5f35a2c4c78c",
    ('comb:6,2', 'cmcnc', 3): "1196c24e2d4312e979a6a528022d87fbfe7aed6cdcf817a8175858e46328b03a",
    ('comb:6,2', 'cmcnc', 4): "fcedd3670e7db2e05470028d71487a85139c4a0489126a17570d22549e831d82",
    ('comb:6,2', 'cmcnc', 11): "4fca2bc3cf9e28a940b037a54ae34684294e8eb6f539536b83aec9263c3b8dbf",
    ('comb:6,2', 'cmcnc', 12): "ba864337e924e997a0ccf15042c598bc34cbe99cfe4c1e1eb5ccbc04b4d39f73",
    ('comb:6,2', 'cmcnc', 13): "542a83a9de7ee9cc65d4fa23614b89a8a7c57b10b716caf298fad58fe33a2360",
    ('comb:6,2', 'cmcnc', 14): "fc55c0d983a20fc3865ed028577efd46cdab22b294234d7300aabb3a48a5217d",
    ('comb:6,2', 'cmcnc', 15): "6507f4f6742a9a258c397dadcc7a846d5bdb6be7f4ee936374cd643fa3a04ec3",
    ('comb:6,3', 'proposed', 0): "f9b6644ed60cfd20d6c81ef61efe54d2037ebb029dbe88475ab4411899e7befa",
    ('comb:6,3', 'proposed', 1): "0f2ac556807f2b2b0f4a69eba5c770eedda276a161fda02a19d771ca7c41bd8f",
    ('comb:6,3', 'proposed', 2): "ccf7b2ec9b6f843ce6f4bcd5cf233e56c747d83a2240aa258c8035254b45adc8",
    ('comb:6,3', 'proposed', 3): "6e52e671f12e102933a01aa31efd17afa0f27ca6aeeff6b5d02c4de252ff6294",
    ('comb:6,3', 'proposed', 4): "ff1397e185b514bf2735ac6555abc3fa69a0753e6d995556e5e58ee6fde0a9a8",
    ('comb:6,3', 'proposed', 5): "f8311d689fabce739c2a7a011c219bd8ec5f17a878d09de2bd506cc997bce6c6",
    ('comb:6,3', 'proposed', 6): "34847f791af8e63c0a6b161fd70fde044f947ed5a9b060b7aa371dafc2a45296",
    ('comb:6,3', 'proposed', 7): "203f54ef4e79e8fda856978d504ad9a3c7a3b7c60a3cafd3467de1c612ef90d0",
    ('comb:6,3', 'proposed', 8): "d7b3cc198d59bb01446e8a8587fa3a6c3a5aa721bd7a1414ab3925ffe2a312aa",
    ('comb:6,3', 'proposed', 9): "e3d0eb05e8071d3c0c176c2af439d5af6290c176d541217ca0735874a4f28f45",
    ('comb:6,3', 'proposed', 10): "6507f4f6742a9a258c397dadcc7a846d5bdb6be7f4ee936374cd643fa3a04ec3",
    ('comb:6,3', 'routing', 0): "4a53bd545f55766ee83d6c0fd66b136ef06b413645f8df860f17ca265cc1c081",
    ('comb:6,3', 'routing', 1): "6dce3107238efd58d12e7ea254027e065e89e9fc5219a7c4e08e6dbd332e8c8a",
    ('comb:6,3', 'routing', 2): "264f624f4e3d8d5e7793f50e4a115476bb533ffce0ded6beebc287877c48856a",
    ('comb:6,3', 'routing', 3): "2965eee22bb1066e13e3750d7c0f55ff246654b13d0424e1a54e43fe18540a63",
    ('comb:6,3', 'routing', 4): "5c6184e2db0945ea347a03a5408c6fdefe603af0074f5f1369c1c50b4da51464",
    ('comb:6,3', 'routing', 5): "db15a401ebeb890d60f354eb1f4345acf774d25d31c1f655f40a93853a0258f5",
    ('comb:6,3', 'routing', 6): "7d9b7fcd5840208d36d584959c75e2f12deb621afe05f250a8d84f8e042a2011",
    ('comb:6,3', 'routing', 7): "c4ffc38368112010c293ba86d9968c4b6ad7599bac1a8f3f1e32e12e719507fb",
    ('comb:6,3', 'routing', 8): "f689a9e1d1d9d80c701cfb97bc6c04efa163cbc2d9919c7fc9f74215ada543a8",
    ('comb:6,3', 'routing', 9): "7d7628620d10c2dfa9c300df5d8676671374ae42613b0e55ed24804a36ee5083",
    ('comb:6,3', 'routing', 10): "6507f4f6742a9a258c397dadcc7a846d5bdb6be7f4ee936374cd643fa3a04ec3",
    ('comb:6,3', 'cmcnc', 0): "c37747291482d74a93d84e38a4c1a1fe962919b632f5418f9988d9c0b2435489",
    ('comb:6,3', 'cmcnc', 1): "a0efa699de6e5ad96bdd11d42f19da60182215a3357dcdc5c1540a554ee46984",
    ('comb:6,3', 'cmcnc', 2): "36d73232c62943c036d663c6d78095db280ae86009d90d8e910cf7635e8790a7",
    ('comb:6,3', 'cmcnc', 18): "dca0852b5c62f1ec0b8fecfe76fc4cd552201eca69482733aa785a615d1e23d7",
    ('comb:6,3', 'cmcnc', 19): "ace7363afb08155aaf8d198591b954a727234f6f9af1e60785a1f9ef416468b0",
    ('comb:6,3', 'cmcnc', 20): "6507f4f6742a9a258c397dadcc7a846d5bdb6be7f4ee936374cd643fa3a04ec3",
    ('affine:3', 'proposed', 0): "f99be6ae2d8f39456f334c354b858a30d87041dd9fd174c858a64173f1872464",
    ('affine:3', 'proposed', 1): "94a4490cf8f9114bf2328a9747b760a22aa323d7a9047b73a45d5cbea2e1d36d",
    ('affine:3', 'proposed', 2): "c1a496e9947130fd1875e67379b73ab1661e8e1fd43c8347c981fb2ea63defb1",
    ('affine:3', 'proposed', 3): "ca9e0eb5690c0a427c0b2cd62953955602f36afedf52dbf6f9a26a5aa8762e95",
    ('affine:3', 'proposed', 4): "6507f4f6742a9a258c397dadcc7a846d5bdb6be7f4ee936374cd643fa3a04ec3",
    ('affine:3', 'routing', 0): "3ac267d21fadcc0ace52674e589a6e2da23b9c9af464d0d54000c4b97594a79f",
    ('affine:3', 'routing', 1): "63627e3a1c3000fd8303ae49dc048bb57deadda448e904bc35c7b507ed56a8e5",
    ('affine:3', 'routing', 2): "902dd8c96b7fb3579a2695ccd9fc50e1e9faa9a526a3959c1507fe2840af03e6",
    ('affine:3', 'routing', 3): "7f65d4f863f298537b3a0a26ffed578aa83a5ad3db08fb80e9df0e86688fae22",
    ('affine:3', 'routing', 4): "6507f4f6742a9a258c397dadcc7a846d5bdb6be7f4ee936374cd643fa3a04ec3",
    ('affine:3', 'cmcnc', 0): "47457da3262055d31038919a46bc8b4afe602fa0a53aff1a3450e5168b1527d0",
    ('affine:3', 'cmcnc', 1): "df4a06040bf354fcdca2f2f50787f2f1b4d9ee1d8cd29075279929661681fa8f",
    ('affine:3', 'cmcnc', 2): "9cb710b2a84dba38d158a411617521af019c6aeefa535e3af3fd9bff10a25bf5",
    ('affine:3', 'cmcnc', 3): "e3ee606b1f8efb2bd35c986d44ac381ec8c14a394c87d071251fc9acff94a64a",
    ('affine:3', 'cmcnc', 4): "6803b4cecdd07e28198a3e123a680e14362402e2f898938f1d33f5842f3e7baa",
    ('affine:3', 'cmcnc', 5): "56f95b83251dd49224af75750c82dc608bdb6393fdf7fca9c5ac9b85281748dc",
    ('affine:3', 'cmcnc', 6): "ee8890b42ecf646bfc6437ab9451eec7a55c69c0400299e14d5a6771e9602ff6",
    ('affine:3', 'cmcnc', 7): "b2e113280b0fa5f9433651d5b8170f431b8f04bfd63b8591f52a96c25fb3ac90",
    ('affine:3', 'cmcnc', 8): "ce48d28c1b1e0b18a5f084c9a0b637d901d71d5a84ea2f696cb481dca9d7ee5d",
    ('affine:3', 'cmcnc', 9): "8bac4126f0eb3b221cd0add151501582ea49427d58eea107c857c2d331d830cc",
    ('affine:3', 'cmcnc', 10): "e6a259afd0e595ff6d4104e0ce60009fc3fe472cbe5e0c21fd3b759341645716",
    ('affine:3', 'cmcnc', 11): "2d7b06a03e9157e878007d7d2150fc3c2d00db39d6174122a8609ffef92b50e4",
    ('affine:3', 'cmcnc', 12): "6507f4f6742a9a258c397dadcc7a846d5bdb6be7f4ee936374cd643fa3a04ec3",
    ('two-class', 'proposed', 0): "44e1dc806aab59507d58d90b8acb72fc2199490ea8710b2d68c58857f28d5a94",
    ('two-class', 'proposed', 1): "5b2e8b02a5ac1bde2a5c42eb060565ea4dc846d86a4c4706febda3e339b12f50",
    ('two-class', 'proposed', 2): "6507f4f6742a9a258c397dadcc7a846d5bdb6be7f4ee936374cd643fa3a04ec3",
    ('two-class', 'routing', 0): "bc5daec64c1e14640a8a32633d38b2eda00a2675a8114dfd95869cc02de0d9fd",
    ('two-class', 'routing', 1): "722b5809dc05b747c084918f788e9c6d17bfc077144589ffeaf5a73164419314",
    ('two-class', 'routing', 2): "6507f4f6742a9a258c397dadcc7a846d5bdb6be7f4ee936374cd643fa3a04ec3",
    ('two-class', 'cmcnc', 0): "25a9135483f4b12c9076a9a857cdb967f23128bf29ab163dd6cab08dca2a44e9",
    ('two-class', 'cmcnc', 1): "d0f0569e26f253b28a4ccabc1ffc13b3c225e99729150d83287cd7505a9c9466",
    ('two-class', 'cmcnc', 2): "c7f00ba218ed867d6d341e63e1decd134a862ed2e5906de97c462e83d5a22da6",
    ('two-class', 'cmcnc', 3): "5ca39bc3a654b8e42c189629f8396035e47e057ee48e482d78d9c92e4ffd15f3",
    ('two-class', 'cmcnc', 4): "ea7e63c78bb8bee35b577bb8ca3aff35cd53c185b6144e53cd80a66c4778406c",
    ('two-class', 'cmcnc', 5): "7ea7d5a47db0e7ec59a174194c2edb66e38539efc9f4fd974ae72d59395dbd8d",
    ('two-class', 'cmcnc', 6): "6507f4f6742a9a258c397dadcc7a846d5bdb6be7f4ee936374cd643fa3a04ec3",
}


@functools.cache
def grid_net(name):
    return GRID_NETS[name]()


@pytest.mark.parametrize("topology,scheme,t", sorted(GRID_PINS))
def test_grid_digest_pinned(topology, scheme, t):
    net, N = grid_net(topology), 4
    M = Fraction(N * t, net.K if scheme == "cmcnc" else net.num_classes)
    lib = random_library(N, scheme_file_divisor(net, N, M, scheme), seed=2016)
    demand = random_demand(net, N, random.Random(t))
    report, _ = run_scheme_with_log(net, lib, M, demand, scheme)
    assert report.decode_ok and report.formula_match
    assert report.log_digest == GRID_PINS[topology, scheme, t]


# sha256 of the key-sorted network_to_dict JSON of comb(h, r) for r >= 3,
# where the Baranyai classes come from one integral max flow per ground
# element.  Which member each class grows depends on the flow's arc and
# search order, so these pin the class labels that every r >= 3 log digest
# carries.  Recorded from the scipy.sparse.csgraph.maximum_flow (Dinic)
# construction, before the pure-Python flow replaced it.
TOPOLOGY_PINS = {
    (6, 3): "626fcf955a9037602ea3150aec634eafc0a3b0f6a03b380e05087a8e31ed30da",
    (9, 3): "a8323327f2049a5935719e4714993d081ca8093843b6c3fc506cb44ab0fa04b4",
    (8, 4): "ff9617cf55c8c0d22deb192a16724f85e23c771e438d797a01663480d03bb3fa",
    (12, 3): "ac1ab54c2c6ad06f1eb00af6337ad3551b6c9dedb8ff59f8a26fcd247589432e",
    (12, 4): "4248e987bd173ffe490c7d178e659b0450e82876d9a13cafeaec0c12d2abe412",
    (10, 5): "9b5abdb6d45c52086448af7fdfb788ef23510f9b60d17fcb79efa0992ecbea95",
    (12, 6): "a9a81203e34a0434b56c3373d3e7ae6e5eec52ad23a5b459aa3e02f8f474adad",
    (15, 3): "1c3743818f45c3de95261bcdffafebd508785aefbe2ab8dbea8e4fac987ee9c0",
    (15, 5): "bff2dc611a2b5bfd5cd02e2c36fd49f7ac115adda249ca539bf3cddbe0177b29",
    (14, 7): "bef8bfc721bf24347d82cb85fb1c2b8d37940dccabbba7cef6decabc19384c69",
    (16, 4): "451fd97610776457df348df1c510876a5927dcc480857289e0bfad298e494a2c",
}


@pytest.mark.parametrize("h,r", sorted(TOPOLOGY_PINS))
def test_combination_network_pinned(h, r):
    blob = json.dumps(network_to_dict(combination_network(h, r)), sort_keys=True)
    assert sha256(blob.encode()) == TOPOLOGY_PINS[h, r]


class TestStreamedDigest:
    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_matches_reference_for_every_scheme(self, logs, scheme):
        _, log = logs[scheme]
        assert_matches_reference(log)

    def test_matches_reference_on_awkward_labels(self):
        log = TransmissionLog()
        batches = [
            Batch(['q:"quoted"'], b"\x00\xff", 2),
            Batch(["b:back\\slash"], b"", 0),
            Batch(["u:café:Σ:\U0001f600"], b"\x10\x20\x30", 3),
            Batch(["c:ctrl\n\t\x01"], b"\x7f", 1),
        ]
        for relay in (2, 1):
            for batch in batches:
                log.add_server(relay, batch)
        for relay, user in ((1, 3), (1, 0), (2, 0)):
            for batch in batches[::-1]:
                log.forward(relay, user, batch)
        # A record picked twice appears twice.
        log.forward(2, 3, batches[0], [0, 0])
        assert_matches_reference(log)

    def test_distinct_payload_under_a_shared_label(self):
        # A relay edge may carry a record equal in label but not in payload
        # to its server copy; the digest must render each one on its own.
        log = TransmissionLog()
        batch = Batch(["x:i=1"], b"\x01\x02", 2)
        log.add_server(1, batch)
        log.forward(1, 0, batch)
        log.relay_edges[(1, 0)].parts.append((Batch(["x:i=1"], b"\x01\x03", 2), None))
        assert_matches_reference(log)

    def test_parts_without_records(self):
        # Parts put on an edge by hand may hold no records: they add no text,
        # and an edge of such parts, or of none, has empty signals.
        log = TransmissionLog()
        batch = Batch(["x:i=1", "y:i=1"], b"\x01\x02", 1)
        log.add_server(1, batch)
        log.forward(1, 0, batch)
        parts = log.relay_edges[(1, 0)].parts
        parts.insert(0, (batch, []))
        parts += [(Batch([], b"", 2), None), (batch, [1])]
        log.relay_edges[(1, 1)] = Edge()
        log.relay_edges[(1, 2)] = Edge()
        log.relay_edges[(1, 2)].parts.append((batch, []))
        assert_matches_reference(log)

    def test_empty_log(self):
        log = TransmissionLog()
        assert_matches_reference(log)
        assert written(log, indent=2) == b'{\n  "relay_edges": [],\n  "server_edges": []\n}'


# Names, prefixes and suffixes that JSON must escape: quotes, backslashes,
# control characters (NUL included), DEL and non-ASCII text.
AWKWARD = st.text(st.sampled_from('ab,:="\\\0\n\x1f\x7féΣ€\U0001f600'), max_size=4)


@st.composite
def random_logs(draw) -> TransmissionLog:
    """Logs with parts put on edges by hand: empty batches and zero-size
    parts, names sequences shared between batches, picks with repeats, and
    one edge that alternates between two batches, whole and picked."""
    shared = draw(st.lists(AWKWARD, max_size=5))
    batches = []
    for _ in range(draw(st.integers(2, 5))):
        names = shared if draw(st.booleans()) else draw(st.lists(AWKWARD, max_size=5))
        part = draw(st.integers(0, 3))
        data = draw(st.binary(min_size=len(names) * part, max_size=len(names) * part))
        batches.append(Batch(names, data, part, draw(AWKWARD), draw(AWKWARD)))

    def parts(size):
        out = []
        for batch in draw(st.lists(st.sampled_from(batches), max_size=size)):
            n = len(batch.names)
            picks = draw(st.none() | st.lists(st.integers(0, n - 1), max_size=6)) if n else None
            out.append((batch, picks))
        return out

    log = TransmissionLog()
    for relay in draw(st.sets(st.integers(1, 4), max_size=3)):
        log.server_edges[relay] = edge = Edge()
        edge.parts += [(batch, None) for batch in draw(st.lists(st.sampled_from(batches), max_size=3))]
    for key in draw(st.sets(st.tuples(st.integers(1, 4), st.integers(0, 5)), max_size=5)):
        log.relay_edges[key] = edge = Edge()
        edge.parts += parts(4)
    # The worst case for a writer that holds one batch: A, B, A, B, A.
    a, b = batches[:2]
    alternate = [(a, None), (b, None), (a, [0] * len(a.names) or None), (b, None), (a, None)]
    log.relay_edges.setdefault((0, 0), Edge()).parts += alternate
    return log


class TestRandomLogs:
    @given(random_logs())
    def test_both_layouts_and_the_digest_match_the_reference(self, log):
        assert_matches_reference(log)


def batch_text(batch: Batch) -> int:
    """Bytes of the compact JSON of every record of ``batch``, by the reference."""
    p = batch.part
    records = [(label, batch.data[k * p : (k + 1) * p]) for k, label in enumerate(batch.labels)]
    return len(json.dumps(signals(records), separators=(",", ":"))) - 2


@pytest.mark.parametrize("scheme", ["routing", "proposed"])
def test_the_digest_holds_one_batch_at_a_time(scheme):
    # comb(9,3), N = 28, M = 2: routing sends 252 batches of 351 records, one
    # per relay-user pair, and proposed 9 batches of 3,276 records that each
    # relay's 28 users pick from.  Their texts add up to 5.5 and 1.6 MB, 252
    # and 9 times the largest one.
    net = combination_network(9, 3)
    lib = random_library(28, scheme_file_divisor(net, 28, 2, scheme), seed=1)
    _, deliver, _ = harness._pipeline(net, lib, 2, scheme, None)
    log = deliver(random_demand(net, 28, random.Random(1)))
    largest = max(batch_text(batch) for edge in log.server_edges.values() for batch, _ in edge.parts)
    digest = log.digest()
    gc.collect()
    tracemalloc.start()
    try:
        assert log.digest() == digest
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * largest, f"the digest peaked at {peak} bytes, {peak / largest:.1f}x {largest}"


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
# The run_<scheme>_log.json files of the same runs.  Recorded while the log
# file was built as one dict per record and rendered by json.dumps.
RUN_LOG_PINS = {
    "proposed": "32fd08c0be4ad57eaca156804691dad7bbf0f3e9b98687427ff3a12bbab1e6f4",
    "routing": "928a147a38f77451c56e3acee2fda184d202f4f0dc0315be1a598a5350a25793",
    "cmcnc": "927cb39d94031a8bad65edfe779db5e4fae19ff92331b93e477e72265d4cc0f2",
    "broadcast-mds": "dcf341ce1675ee4400192d6caaef23a74e085239423fbdd845706b6ddce3a2dc",
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
    **{
        f"run_{s}_log.json": (["run", "--M", "2", "--schemes", s], pin)
        for s, pin in RUN_LOG_PINS.items()
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


# verify_all_demands on comb(6,2), mode="sampled", seed=5, 20 demands, one
# placement each: (sha256 of the report's to_dict() JSON, sha256 of the 20
# log digests joined by newlines).  broadcast-mds uses N=4 and 28-byte files,
# so on the integer M grid the uncached suffix (28, 21, 14 or 7 bytes) needs
# zero padding to split into r=2 parts at M=1 and 3, and none at M=2.  cmcnc
# uses N=3 at t' = 0, 1, 2, 13 and 14 (M = t'/5) with the smallest exact
# file size.  Recorded while broadcast-mds encoded on every delivery.
VERIFY_SEED, VERIFY_COUNT = 5, 20
VERIFY_CELLS = {
    ("broadcast-mds", 4, Fraction(1), 28): (
        "51179ba0b0231f91b952c7d04fda124e420f56ee900ccea3f9602007581e937e",
        "5d3dd28eefc2459daf7d0f7cb2e68481bdd3f3a88f7d55418853629db4bf51e1",
    ),
    ("broadcast-mds", 4, Fraction(2), 28): (
        "b0e2fdb57285f388cd2e24b34404fce72df56995fcacfe088027e6a4db490f30",
        "e368d659abadf1eeac3571b907f09a8d6abefd243ceb85872a89d85ccc01ff72",
    ),
    ("broadcast-mds", 4, Fraction(3), 28): (
        "9ae0d52b5c3991b0766d588a1130e6d92ce60e65478aa3ae84cd40113ad2407f",
        "c427ff1d49924a1cc9400f8dc5f539003f128019e7e4973d4ea15d80dc2a3864",
    ),
    ("cmcnc", 3, Fraction(0, 5), None): (
        "a1bb765d52af7a2f1ca064a05be021b8ba9a5573c333e633f69a5a1e19935637",
        "cef0d5d7f0d5bf916ef9a71005c87c893067eaf91eb31161b68a1a54afc82938",
    ),
    ("cmcnc", 3, Fraction(1, 5), None): (
        "485fbfb3758f179370a273b79e06544078aa40391382ccfbe11cc8dd17ddc6e7",
        "8ebc32fe9397e9f2658ca35c5efb370188548c78b08ee8aed5409200ad519c96",
    ),
    ("cmcnc", 3, Fraction(2, 5), None): (
        "db9bb21f4dfed5894de7ea35912cd49121e149eb62f9188cd33ac52b1bf3e31a",
        "3af606c44dc5f997f346da5361618ada5540b470a772743b3f2dd62c379998b2",
    ),
    ("cmcnc", 3, Fraction(13, 5), None): (
        "85a888731ae1f0c4b43d6ff12b41ae955313436e32d0d2b9998bfda7c2f7c7d3",
        "65c6bae4cebfa8e9240e52411c58fca76de55a18f0d9953daf0dd292d4211d67",
    ),
    ("cmcnc", 3, Fraction(14, 5), None): (
        "c2cae70103a6372f84751ed53d1b0ec2db05ab3b1ab2efb342892a3be6c16f3f",
        "cd3cdfbeccb40ebe73d83ba1c8813b158f14de5f399e472e3a8bfd52e2d6f6c6",
    ),
}


def verified_logs(net, scheme, N, M, file_bytes):
    """(report, log digests) of one sampled verify_all_demands cell; the logs
    come from one more placement of the same library, over the same demands."""
    report = verify_all_demands(
        net, N, M, scheme, mode="sampled", seed=VERIFY_SEED, count=VERIFY_COUNT,
        file_bytes=file_bytes,
    )
    lib = random_library(N, report.file_bytes, seed=report.library_seed)
    _, deliver, _ = harness._pipeline(net, lib, M, scheme, None)
    rng = random.Random(VERIFY_SEED)
    demands = [random_demand(net, N, rng) for _ in range(VERIFY_COUNT)]
    return report, [deliver(d).digest() for d in demands]


@pytest.mark.parametrize(
    "scheme,N,M,file_bytes",
    sorted(VERIFY_CELLS, key=str),
    ids=lambda v: str(v) if isinstance(v, Fraction) else None,
)
def test_verify_cell_pinned(comb62, scheme, N, M, file_bytes):
    report, digests = verified_logs(comb62, scheme, N, M, file_bytes)
    assert report.passed and report.runs == VERIFY_COUNT
    blob = json.dumps(report.to_dict(), sort_keys=True).encode()
    pins = (sha256(blob), sha256("\n".join(digests).encode()))
    assert pins == VERIFY_CELLS[scheme, N, M, file_bytes]


@pytest.mark.parametrize("M", [1, 2])
def test_broadcast_shared_placement_logs_match_fresh(comb62, M):
    """Every delivery from one broadcast-mds placement logs what a fresh
    placement's first delivery logs, also with two placements over different
    libraries; a damaged log still fails to decode."""
    N = 4
    libs = [random_library(N, 28, seed=seed) for seed in (1, 2)]
    caches = [broadcast_place(comb62, lib, M) for lib in libs]
    rng = random.Random(M)
    for _ in range(5):
        demand = random_demand(comb62, N, rng)
        logs = []
        for lib, cache in zip(libs, caches):
            log = broadcast_mds_deliver(comb62, cache, demand)
            fresh = broadcast_mds_deliver(comb62, broadcast_place(comb62, lib, M), demand)
            assert log.digest() == fresh.digest()
            logs.append(log)
        payloads = [{payload for _, payload in edge_records(log.server_edges[1])} for log in logs]
        assert not payloads[0] & payloads[1]

    lib, cache = libs[0], caches[0]
    demand = random_demand(comb62, N, rng)
    user = 0
    relay = comb62.users[user][0]
    log = broadcast_mds_deliver(comb62, cache, demand)
    received = log.to_user(user)
    ((label, _),) = edge_records(received[relay])
    with pytest.raises(IncompleteReceptionError, match=re.escape(repr(label))):
        broadcast_decode(comb62, user, cache, demand, {**received, relay: Edge()})
    ((batch, picks),) = received[relay].parts
    data = bytearray(batch.data)
    data[picks[0] * batch.part] ^= 0x40
    flipped = Edge()
    flipped.parts.append((dataclasses.replace(batch, data=data), picks))
    out = broadcast_decode(comb62, user, cache, demand, {**received, relay: flipped})
    assert out != lib.file(demand[user])
    # The damage stays in that log: the next delivery decodes again.
    log = broadcast_mds_deliver(comb62, cache, demand)
    for u in range(comb62.K):
        assert broadcast_decode(comb62, u, cache, demand, log.to_user(u)) == lib.file(demand[u])
