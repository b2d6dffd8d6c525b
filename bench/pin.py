"""Record the golden pins in ``bench/pins.json`` from the current sources.

    python3 bench/pin.py

Run it only when an output is meant to change, and say why in the change
that commits the new pins.  For every workload it makes a plain and a
traced pass at the pinned seed and a traced pass at a second seed, and
refuses to write anything unless every cell decodes and matches its closed
form, the plain and traced passes agree, and the CSV and simulated
statistics are the same at both seeds.  The last condition is what lets
``run.py`` compare the CSV and the statistics at any seed.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from run import PINS, RUN_BUDGET_S, SRC, spawn
from workloads import CHECK_SEED, DEFAULT_SEED, SWEEPS, WORKLOADS


def _golden(workload: str, cell: dict):
    return cell["log_digest"] if workload in SWEEPS else cell["verify"]


def pins_for(workload: str) -> dict:
    deadline = perf_counter() + 3 * RUN_BUDGET_S
    plain = spawn(workload, DEFAULT_SEED, "plain", deadline)
    traced = spawn(workload, DEFAULT_SEED, "trace", deadline)
    other = spawn(workload, CHECK_SEED, "trace", deadline)
    problems = []
    for p in (plain, traced, other):
        for cell in p["cells"]:
            ok = cell["formula_match"] and (cell["decode_ok"] if workload in SWEEPS else not cell["failed_ops"])
            if not ok or p["rc"] != 0:
                problems.append(f"seed {p['seed']} {p['mode']}: {cell['scheme']} M={cell['M']} fails")
    if [_golden(workload, c) for c in plain["cells"]] != [_golden(workload, c) for c in traced["cells"]]:
        problems.append("plain and traced passes disagree")
    if [c["stats"] for c in traced["cells"]] != [c["stats"] for c in other["cells"]]:
        problems.append(f"simulated statistics differ between seeds {DEFAULT_SEED} and {CHECK_SEED}")
    if workload in SWEEPS and not plain["csv"] == traced["csv"] == other["csv"]:
        problems.append("CSV differs between passes or seeds")
    if problems:
        raise SystemExit(f"{workload}: not pinned:\n  " + "\n  ".join(problems))
    return {
        "pinned_seed": DEFAULT_SEED,
        "cells": [[c["scheme"], c["M"]] for c in plain["cells"]],
        "csv": plain.get("csv"),
        "stats": [c["stats"] for c in traced["cells"]],
        "golden": [_golden(workload, c) for c in plain["cells"]],
    }


def main() -> int:
    if not (SRC / "relaycache" / "__init__.py").is_file():
        print(f"error: no relaycache sources under {SRC}", file=sys.stderr)
        return 2
    pins = {w: pins_for(w) for w in WORKLOADS}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
