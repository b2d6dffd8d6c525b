"""The benchmark's workloads, shared by the orchestrator and the worker.

Nothing here imports relaycache, so the orchestrator never loads the
library and the worker's set-up time covers the whole import.
"""

from __future__ import annotations

DEFAULT_SEED = 9
"""Seed at which the golden pins in ``pins.json`` were recorded."""

CHECK_SEED = 10
"""Second seed used by ``pin.py`` to show which pins do not depend on the seed."""

SCHEMES = ("proposed", "routing", "cmcnc", "broadcast-mds")
"""Every scheme id; per-layer metrics exist for each, zero where unused."""

SWEEPS = {
    "sweep-comb62": [
        "sweep", "--topology", "comb:6,2", "--N", "50",
        "--M", "grid", "--schemes", "all",
    ],
    "class-comb93": [
        "sweep", "--topology", "comb:9,3", "--N", "28",
        "--M", "2,26", "--schemes", "proposed,routing",
    ],
}
"""Sweep workloads: ``relaycache`` argv without ``--seed``."""

BIGFILE = {
    "h": 6,
    "r": 2,
    "N": 10,
    "M": (2, 4, 6, 8),
    "schemes": ("proposed", "routing", "broadcast-mds"),
    "target_bytes": 200_000,
    "demands_per_cell": 20,
}
"""``bigfile-verify``: sampled ``verify_all_demands`` on large files."""

WORKLOADS = (*SWEEPS, "bigfile-verify")

STAT_KEYS = (
    "records_server", "records_relay", "bits_server_min", "bits_server_max",
    "bits_relay_min", "bits_relay_max",
)
"""Simulated statistics of a cell, pinned exactly."""

SCHEME_TIMES = ("place_s", "deliver_s", "decode_s", "measure_s", "to_user_s", "digest_s", "formula_s")
ERASURE_CALLERS = ("cmcnc", "broadcast-mds")


def _per_layer() -> dict[str, str]:
    units = {"topology.build_s": "s"}
    for s in SCHEMES:
        units.update({f"{key}.{s}": "s" for key in SCHEME_TIMES})
        units[f"deliver_us_per_record.{s}"] = "us"
        units[f"decode_us_per_record.{s}"] = "us"
        units.update({f"{key}.{s}": "count" if key.startswith("records") else "bit" for key in STAT_KEYS})
    for s in ERASURE_CALLERS:
        for op in ("encode", "decode"):
            units[f"erasure.{op}_calls.{s}"] = "count"
            units[f"erasure.{op}_s.{s}"] = "s"
            units[f"erasure.{op}_bytes.{s}"] = "byte"
    units.update({"harness.self_s": "s", "cli.self_s": "s", "trace.coverage": "ratio", "trace.overhead_frac": "ratio"})
    return units


PER_LAYER = _per_layer()
"""Every per-layer metric and its unit; the same set on every workload."""


def sweep_argv(workload: str, seed: int) -> list[str]:
    return [*SWEEPS[workload], "--seed", str(seed)]
