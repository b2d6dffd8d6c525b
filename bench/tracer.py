"""In-memory spans for the benchmark's traced pass.

The traced pass runs the program's own code path, the same one a plain
pass runs: ``relaycache.cli.main`` for the sweeps and
``harness.verify_all_demands`` for ``bigfile-verify``.  :func:`instrument`
swaps the names through which the harness calls each layer for wrappers
that open a span around the call:

    cell         one run_scheme / verify_all_demands call (see Tracer.in_cell)
      library    random_library            (verify; the sweeps build it in the CLI)
      place      <s>_place
      make_code  make_code                 (cmcnc, broadcast-mds)
      deliver    <s>_deliver               (erasure.encode spans inside)
      measure    TransmissionLog.server_bits / relay_bits
      to_user    TransmissionLog.to_user
      decode     <s>_decode                (erasure.decode spans inside)
      formula    formula_rates             (run_scheme only)
      digest     TransmissionLog.digest    (run_scheme only)

A span is ``(name, start, end, parent index, cell id)``.  The simulated
statistics of a cell come from the same calls: the record counts from each
log that ``deliver`` returns, the edge loads from the values that
``server_bits`` and ``relay_bits`` return to the harness.  Every swapped
name is put back when the caller's ``ExitStack`` closes.

If the harness stops calling a layer through these names, that layer's
spans vanish and ``trace.coverage`` drops; ``run.py`` warns below 0.9.
"""

from __future__ import annotations

import json
from contextlib import ExitStack, contextmanager
from time import perf_counter

from workloads import PER_LAYER, SCHEMES, STAT_KEYS


@contextmanager
def swap(owner, attr: str, replacement):
    """Replace ``owner.attr`` for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Records spans and per-cell counts in memory.

    A span is a list ``[name, start, end, parent span, cell id]`` and the
    stack holds the open spans themselves, not their positions: the
    calibration sampler opens spans from a signal handler, which may run
    between any two statements here (its own spans always close before it
    returns).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.cells: list[dict] = []
        self.cell: int | None = None

    def _open(self, name: str) -> list:
        entry = [name, perf_counter(), None, self.stack[-1] if self.stack else None, self.cell]
        self.spans.append(entry)
        self.stack.append(entry)
        return entry

    def _close(self, entry: list) -> None:
        entry[2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        entry = self._open(name)
        try:
            yield
        finally:
            self._close(entry)

    def in_cell(self, fn, scheme_at: int):
        """``fn`` with each call one ``cell`` span; the scheme id is argument ``scheme_at``."""

        def cell(*args, **kwargs):
            stats = dict.fromkeys(STAT_KEYS)
            stats.update(records_server=0, records_relay=0)
            self.cells.append({"scheme": args[scheme_at], "stats": stats})
            self.cell = len(self.cells) - 1
            try:
                with self.span("cell"):
                    return fn(*args, **kwargs)
            finally:
                self.cell = None

        return cell

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` inside a span; ``on_return(cell, args, result)`` then updates the cell."""

        def wrapper(*args, **kwargs):
            entry = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(entry)
            if on_return is not None and self.cell is not None:
                on_return(self.cells[self.cell], args, out)
            return out

        return wrapper

    def rows(self) -> list[tuple]:
        """Spans as ``(name, start, end, parent index or -1, cell id)``."""
        index = {id(entry): i for i, entry in enumerate(self.spans)}
        return [
            (name, start, end, -1 if parent is None else index[id(parent)], cell)
            for name, start, end, parent, cell in self.spans
        ]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for row in self.rows():
                fh.write(json.dumps(row) + "\n")

    # -- metrics ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics, for every scheme id; zero where a scheme did not run."""
        rows = self.rows()
        child = [0.0] * len(rows)
        kernel = [0.0] * len(rows)  # calibration kernel time anywhere below a span
        for name, start, end, parent, _ in rows:
            if parent >= 0:
                child[parent] += end - start
            if name == "calibrate":
                while parent >= 0:
                    kernel[parent] += end - start
                    parent = rows[parent][3]
        out = {name: 0 for name in PER_LAYER}
        harness_self = cli_self = topology = covered = wall = 0.0
        for idx, (name, start, end, parent, cell) in enumerate(rows):
            own = end - start - child[idx]
            if name == "cli.main":
                cli_self += own
            elif name == "topology.build":
                topology += end - start
            elif name == "cell":
                harness_self += own
                wall += end - start - kernel[idx]
            elif name.startswith("erasure."):
                s = self.cells[cell]["scheme"]
                out[f"{name}_s.{s}"] += own
            elif name != "calibrate" and cell is not None and rows[parent][0] == "cell":
                covered += end - start - kernel[idx]
                key = f"{name}_s.{self.cells[cell]['scheme']}"
                if key in out:
                    out[key] += own
        for cell in self.cells:
            s = cell["scheme"]
            for key in STAT_KEYS:
                out[f"{key}.{s}"] += cell["stats"][key] or 0
            for op in ("encode", "decode"):
                for unit in ("calls", "bytes"):
                    if f"erasure.{op}_{unit}" in cell:
                        out[f"erasure.{op}_{unit}.{s}"] += cell[f"erasure.{op}_{unit}"]
        for s in SCHEMES:
            records = out[f"records_server.{s}"] + out[f"records_relay.{s}"]
            relay = out[f"records_relay.{s}"]
            out[f"deliver_us_per_record.{s}"] = 1e6 * out[f"deliver_s.{s}"] / records if records else 0.0
            out[f"decode_us_per_record.{s}"] = 1e6 * out[f"decode_s.{s}"] / relay if relay else 0.0
        out["topology.build_s"] = topology
        out["harness.self_s"] = harness_self
        out["cli.self_s"] = cli_self
        out["trace.coverage"] = covered / wall if wall else 0.0
        return {"metrics": out}


def _count(name: str, size):
    """Adds one call and ``size(args[1])`` input bytes to the cell."""

    def hook(cell: dict, args: tuple, _) -> None:
        cell[name + "_calls"] = cell.get(name + "_calls", 0) + 1
        cell[name + "_bytes"] = cell.get(name + "_bytes", 0) + size(args[1])

    return hook


def _records(cell: dict, _, log) -> None:
    stats = cell["stats"]
    stats["records_server"] += sum(len(v) for v in log.server_edges.values())
    stats["records_relay"] += sum(len(v) for v in log.relay_edges.values())


def _load(edge: str):
    """Folds one edge's bit count into the cell's minimum and maximum."""
    lo, hi = f"bits_{edge}_min", f"bits_{edge}_max"

    def hook(cell: dict, _, bits: int) -> None:
        stats = cell["stats"]
        stats[lo] = bits if stats[lo] is None else min(stats[lo], bits)
        stats[hi] = bits if stats[hi] is None else max(stats[hi], bits)

    return hook


def instrument(stack: ExitStack, tracer: Tracer) -> None:
    """Swap every name the harness calls a layer through for a traced wrapper."""
    from relaycache import harness
    from relaycache.schemes import broadcast, cmcnc
    from relaycache.schemes.common import TransmissionLog

    def put(owner, attr: str, name: str, on_return=None) -> None:
        stack.enter_context(swap(owner, attr, tracer.wrap(name, getattr(owner, attr), on_return)))

    for attr in ("proposed_place", "cmcnc_place", "broadcast_place"):
        put(harness, attr, "place")
    for attr in ("proposed_deliver", "routing_deliver", "cmcnc_deliver", "broadcast_mds_deliver"):
        put(harness, attr, "deliver", _records)
    for attr in ("proposed_decode", "routing_decode", "cmcnc_decode", "broadcast_decode"):
        put(harness, attr, "decode")
    put(harness, "make_code", "make_code")
    put(harness, "formula_rates", "formula")
    put(harness, "random_library", "library")
    put(TransmissionLog, "server_bits", "measure", _load("server"))
    put(TransmissionLog, "relay_bits", "measure", _load("relay"))
    put(TransmissionLog, "to_user", "to_user")
    put(TransmissionLog, "digest", "digest")
    encoded = _count("erasure.encode", lambda parts: sum(len(p) for p in parts))
    decoded = _count("erasure.decode", lambda pieces: sum(len(p) for _, p in pieces))
    for mod in (cmcnc, broadcast):
        put(mod, "mds_encode", "erasure.encode", encoded)
        put(mod, "mds_decode", "erasure.decode", decoded)
