"""Checks that hold however the package is run: under ``python -O``, and
with numpy and scipy impossible to import."""

import ast
import hashlib
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from relaycache.cli import main as cli_main
from relaycache.combinatorics import binomial
from relaycache.harness import _measure
from relaycache.schemes import Batch, Edge, TransmissionLog
from relaycache.topology import WIRES_CAP

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` on this checkout's sources."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        **kwargs,
    )


def symmetric_log(net) -> TransmissionLog:
    """One 2-byte record on every server edge and every relay edge."""
    log = TransmissionLog()
    for i in range(1, net.h + 1):
        batch = Batch([f"x:i={i}"], b"\x00\x01", 2)
        log.add_server(i, batch)
        for u in net._neighbors[i - 1]:
            log.forward(i, u, batch)
    return log


def test_no_assert_statements_in_src():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"python -O strips these checks: {found}"


def test_sweep_under_python_O(capsys):
    args = ["sweep", "--topology", "comb:4,2", "--N", "6"]
    proc = run_python("-O", "-m", "relaycache.cli", *args)
    assert proc.returncode == 0, proc.stderr
    assert cli_main(args) == 0
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout.count("\n") == 13  # header + 3 schemes x 4 points


class TestMeasureSymmetry:
    def test_symmetric_log_measures(self, comb42):
        half = Fraction(1, 2)
        assert _measure(comb42, symmetric_log(comb42), 32) == (half, half)

    def test_asymmetric_server_edges_raise(self, comb42):
        log = symmetric_log(comb42)
        log.add_server(3, Batch(["extra"], b"\x07", 1))
        with pytest.raises(RuntimeError, match="server edges are not symmetric"):
            _measure(comb42, log, 32)

    def test_asymmetric_relay_edges_raise(self, comb42):
        log = symmetric_log(comb42)
        log.relay_edges[(1, 0)] = Edge()  # the edge loses its one record
        with pytest.raises(RuntimeError, match="relay edges are not symmetric"):
            _measure(comb42, log, 32)

    def test_raises_under_python_O(self):
        code = (
            "from relaycache.harness import _measure\n"
            "from relaycache.schemes import Batch, TransmissionLog\n"
            "from relaycache.topology import combination_network\n"
            "net = combination_network(4, 2)\n"
            "log = TransmissionLog()\n"
            "log.add_server(1, Batch(['x'], b'12', 2))\n"
            "try:\n"
            "    _measure(net, log, 16)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
        )
        proc = run_python("-O", "-c", code)
        assert proc.returncode == 0, proc.stderr
        assert "server edges are not symmetric" in proc.stdout


def test_import_loads_neither_numpy_nor_scipy():
    # A None entry in sys.modules makes every import of that name raise
    # ImportError, so the r = 3 sweep (Baranyai classes built by max flow)
    # must run on the standard library alone.
    code = (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "from relaycache import cli\n"
        "sys.exit(cli.main(['sweep', '--topology', 'comb:9,3', '--N', '28',\n"
        "                   '--M', '2', '--schemes', 'proposed']))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.splitlines()[1]
    assert row.startswith("proposed,9,3,84,28,28,2,") and row.endswith(",true")


def _cap_address_space(limit: int = 2**31):
    # 2 GiB by default: a library that does get allocated ends in MemoryError
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_oversized_library_is_refused_before_allocating():
    # r * C(28, 14) subfiles per file: 84 files of 120,349,800 bytes.
    args = ["run", "--topology", "comb:9,3", "--N", "84", "--M", "42",
            "--schemes", "proposed"]
    proc = run_python("-m", "relaycache.cli", *args, preexec_fn=_cap_address_space)
    assert proc.returncode == 2, proc.stderr
    record = json.loads(proc.stderr)
    assert record["error"] == "BudgetError"
    assert "10109383200 bytes" in record["message"]


def test_many_small_files_are_refused_before_allocating():
    # 2^30 one-byte files are a 1 GiB payload, at the cap, but each file is
    # also a bytes object and a tuple slot: 42 GiB in all.
    args = ["run", "--topology", "comb:4,2", "--N", str(2**30), "--F", "8", "--M", "0",
            "--schemes", "broadcast-mds"]
    proc = run_python("-m", "relaycache.cli", *args, preexec_fn=_cap_address_space)
    assert proc.returncode == 2, proc.stderr
    record = json.loads(proc.stderr)
    assert record["error"] == "BudgetError"
    assert "1073741824 bytes plus" in record["message"]


def test_run_out_streams_the_log_in_bounded_memory(tmp_path):
    # A 26.8 MB log, 178 times the 150 kB library: written edge by edge it
    # fits under a 256 MiB address space, as a dict per record it does not.
    args = ["run", "--topology", "comb:6,2", "--N", "15", "--M", "6",
            "--schemes", "cmcnc", "--out", str(tmp_path)]
    proc = run_python("-m", "relaycache.cli", *args,
                      preexec_fn=partial(_cap_address_space, 2**28))
    assert proc.returncode == 0, proc.stderr
    log = (tmp_path / "run_cmcnc_log.json").read_bytes()
    assert len(log) == 26_828_850
    assert hashlib.sha256(log).hexdigest() == (
        "7b416888f500422b619062a34a0a86852f4b40526f76ff1e864e59630098e21c"
    )


@pytest.mark.parametrize(
    "topology,wires",
    [("comb:30,15", "2326762800 wires"), ("affine:10007", "1002201610392 wires")],
)
def test_oversized_network_is_refused_before_building(topology, wires):
    # C(30, 15) users of 15 relays, or 10007^2 + 10007 lines of 10007 points:
    # either one ended in MemoryError under a 1 GiB address space.
    args = ["topology", "--topology", topology]
    proc = run_python("-m", "relaycache.cli", *args,
                      preexec_fn=partial(_cap_address_space, 2**30))
    assert proc.returncode == 2, proc.stderr
    record = json.loads(proc.stderr)
    assert record["error"] == "BudgetError"
    assert wires in record["message"]


def test_a_tiny_file_naming_a_billion_relays_is_refused(tmp_path):
    # One user on relay 1 of h = 10^9: checking that its class covers every
    # relay built a set of 10^9 ints, a MemoryError under a 1 GiB address space.
    path = tmp_path / "huge-h.json"
    path.write_text('{"h": 1000000000, "r": 1, "users": [[1]], "classes": [[0]]}')
    proc = run_python("-m", "relaycache.cli", "topology", "--topology", str(path),
                      preexec_fn=partial(_cap_address_space, 2**30))
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr) == {
        "error": "NotResolvableError",
        "message": "class (0,) does not cover all 1000000000 relays",
    }


def test_the_network_cap_admits_comb_20_10():
    # 184,756 users of 10 relays: it builds in about 30 s and 170 MB.
    assert binomial(20, 10) * 10 <= WIRES_CAP < binomial(30, 15) * 15
