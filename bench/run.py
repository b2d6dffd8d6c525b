"""relaycache benchmark: one workload, timed from outside, outputs checked.

    python3 bench/run.py --workload sweep-comb62 --seed 9 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports ``relaycache`` from
``src/`` and from nowhere else.  Each pass of the workload runs in a fresh
interpreter (``worker.py``), one process with no extra threads.  Passes
repeat for about ``--seconds`` seconds and every timing is the median over
the passes.  When ``--seed`` is not the pinned seed, every second pass runs
at the pinned seed instead, so every run checks the golden pins as well as
that two passes at ``--seed`` give identical output.
``--trace 1`` adds a traced pass and reports the per-layer metrics instead
of the end-to-end ones.

Standard output lists every metric by name with its unit; its last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
full record of the run (passes, failures with what is needed to replay
them, machine and versions) goes to ``bench/out/``.  The exit code is 0
only when every output matches its pin and every cell decodes and matches
its closed form; it is 2 when there is no ``src/relaycache`` to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
from workloads import BIGFILE, DEFAULT_SEED, PER_LAYER, SWEEPS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PINS = BENCH / "pins.json"

MIN_PASSES = 3
MAX_PRINTED_FAILURES = 20
MIN_COVERAGE = 0.9
RUN_BUDGET_S = 170.0
"""Every child is killed once the run has used this much time."""

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def spawn(workload: str, seed: int, mode: str, deadline: float, spans: Path | None = None) -> dict:
    """Run one pass in a fresh interpreter and return its JSON record."""
    env = {
        **os.environ,
        "PYTHONPATH": str(SRC),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("time budget used up before the next pass")
    k0 = calibrate.kernel()
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [*cmd, "--t0", repr(t0), "--k0", repr(k0)], env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass at seed {seed} did not finish in time") from None
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["relaycache_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported relaycache from {result['relaycache_file']}, not from {SRC}")
    result["elapsed_s"] = elapsed
    return result


def replay(workload: str, seed: int, scheme: str, M: str, file_bytes: int) -> str:
    """A command that reruns one cell on its own, on the same library."""
    if workload in SWEEPS:
        argv = list(SWEEPS[workload])
        argv[argv.index("--M") + 1] = M
        argv[argv.index("--schemes") + 1] = scheme
        argv[0] = "run"
        argv += ["--F", str(8 * file_bytes), "--seed", str(seed)]
        return "PYTHONPATH=src python3 -m relaycache.cli " + " ".join(argv)
    return (
        f"PYTHONPATH=src python3 -c 'import relaycache as rc; print(rc.verify_all_demands("
        f"rc.combination_network({BIGFILE['h']}, {BIGFILE['r']}), {BIGFILE['N']}, {M}, \"{scheme}\", "
        f"mode=\"sampled\", seed={seed}, count={BIGFILE['demands_per_cell']}, file_bytes={file_bytes}).to_dict())'"
    )


def check(workload: str, result: dict, reference: dict | None, pins: dict, golden: bool) -> tuple[int, int, list]:
    """Checks one pass; returns (operations attempted, operations failed, failure records).

    ``golden`` compares with the pins recorded at the pinned seed;
    ``reference`` is an earlier pass at the same seed that must agree
    byte for byte.  The CSV and the simulated statistics do not depend on
    the seed (``pin.py`` checks this), so they are compared on every pass.
    Each failure record names the workload, seed, scheme, M, demand and
    user, and a command that replays the cell.  Cells a crashed pass did
    not reach count as failed.
    """
    cells = result["cells"]
    ran = [[c["scheme"], c["M"]] for c in cells]
    if ran != pins["cells"][:len(ran)]:
        raise BenchError(f"{workload}: the pass ran other cells than the pins name")
    sweep = workload in SWEEPS
    if sweep:
        # Header, one row per cell, then whatever follows: together the whole text.
        n = len(pins["cells"])
        lines, pin_lines = result["csv"].splitlines(keepends=True), pins["csv"].splitlines(keepends=True)
        rows, pin_rows = lines[1:1 + n], pin_lines[1:1 + n]
        outside = lines[:1] + lines[1 + n:] != pin_lines[:1] + pin_lines[1 + n:]
    crashed = any("error" in c for c in cells)
    key = "log_digest" if sweep else "verify"
    # A sweep exits 1 when a cell fails; only an exit code no cell explains is charged to all cells.
    explained = any(not c["formula_match"] or not c.get("decode_ok", True) for c in cells)
    attempted = failed = 0
    records = []
    for i, cell in enumerate(cells):
        attempted += cell["ops"]
        reasons = []
        if result["rc"] != 0 and not explained:
            reasons.append(f"exit code {result['rc']}")
        if result["threads"] != 1:
            reasons.append(f"{result['threads']} threads in the worker")
        if "error" in cell:
            reasons.append(f"raised {cell['error']}")
        if not cell["formula_match"]:
            reasons.append("formula_match=false")
        if sweep and crashed and not result["csv"]:
            reasons.append("no CSV printed: a cell of the pass raised")
        elif sweep and rows[i:i + 1] != pin_rows[i:i + 1]:
            reasons.append(f"CSV row {rows[i:i + 1]} differs from pin {pin_rows[i:i + 1]}")
        elif sweep and outside:
            reasons.append("CSV header or lines after the cell rows differ from pin")
        if golden and cell[key] != pins["golden"][i]:
            reasons.append(f"{key} differs from pin")
        if reference is not None and cell[key] != reference["cells"][i][key]:
            reasons.append(f"{key} differs from another pass at this seed")
        if "stats" in cell and cell["stats"] != pins["stats"][i]:
            reasons.append(f"simulated statistics {cell['stats']} differ from pin {pins['stats'][i]}")
        base = {"workload": workload, "seed": result["seed"], "pass": result["mode"],
                "scheme": cell["scheme"], "M": cell["M"],
                "replay": replay(workload, result["seed"], cell["scheme"], cell["M"], result["file_bytes"])}
        if sweep:
            bad = [(cell["demand"], u, why) for u, why in cell.get("failed_users", [])] if not cell["decode_ok"] else []
            bad_ops = 0 if cell["decode_ok"] else 1
        else:
            bad = cell["verify"]["failures"] if cell["verify"] else []
            bad_ops = cell["failed_ops"]
        records += [{**base, "demand": d, "user": u, "reason": why} for d, u, why in bad]
        if reasons:
            failed += cell["ops"]
            records.append({**base, "demand": cell.get("demand", "all sampled"), "user": "all",
                            "reason": "; ".join(reasons)})
        else:
            failed += bad_ops
    for scheme, M in pins["cells"][len(cells):]:
        ops = 1 if sweep else BIGFILE["demands_per_cell"]
        attempted += ops
        failed += ops
        records.append({"workload": workload, "seed": result["seed"], "pass": result["mode"], "scheme": scheme, "M": M,
                        "replay": replay(workload, result["seed"], scheme, M, result["file_bytes"]),
                        "demand": "all", "user": "all", "reason": "not run: an earlier cell of the pass raised"})
    if sweep and result["csv"] != pins["csv"] and not failed:
        raise BenchError(f"{workload}: CSV differs from pin, but no cell was charged for it")
    return attempted, failed, records


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "not a git checkout"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "not a git checkout"


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "relaycache").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(versions: dict) -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _src_sha256(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    start = perf_counter()
    deadline = start + RUN_BUDGET_S
    pins = json.loads(PINS.read_text())[workload]

    # Timed passes alternate between --seed and the pinned seed, so every
    # run checks the golden pins; both seeds give the same amount of work.
    cycle = [seed] if seed == DEFAULT_SEED else [seed, DEFAULT_SEED]
    passes: list[dict] = []
    while True:
        passes.append(spawn(workload, cycle[len(passes) % len(cycle)], "plain", deadline))
        elapsed = perf_counter() - start
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical / 2 > seconds:
            break
    checked = list(passes)
    spans = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{workload}-seed{seed}-spans.jsonl"
        traced = spawn(workload, seed, "trace", deadline, spans)
        checked.append(traced)

    attempted = failed = 0
    failures = []
    for p in checked:
        reference = next(q for q in passes if q["seed"] == p["seed"])
        n, f, records = check(workload, p, None if p is reference else reference, pins, golden=p["seed"] == DEFAULT_SEED)
        attempted += n
        failed += f
        failures += records

    raw = {"wall_s": [p["wall_raw_s"] for p in passes], "setup_s": [p["setup_raw_s"] for p in passes]}
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_kb"] / 1024 for p in passes],
    }
    lines = [f"workload {workload}, seed {seed}: {len(passes)} timed passes at seeds {sorted(set(cycle))}"
             + (", traced pass" if trace else "")]
    for name, unit in END_TO_END:
        lo, hi = quartiles(samples[name])
        lines.append(f"  {name} = {statistics.median(samples[name]):.6f} {unit}"
                     f"  (median of {len(passes)}; quartiles {lo:.6f} .. {hi:.6f})")
        if name in raw:
            lines.append(f"    {name} unscaled = {statistics.median(raw[name]):.6f} {unit}  (host seconds as measured)")
    lines.append(f"  failed_frac = {failed / attempted:.6f} ratio  ({failed} of {attempted} operations failed)")
    if trace:
        layer = dict(traced["metrics"])
        layer["trace.overhead_frac"] = traced["wall_s"] / statistics.median(samples["wall_s"]) - 1
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
        for name, unit in PER_LAYER.items():
            lines.append(f"  {name} = {layer[name]} {unit}")
        if layer["trace.coverage"] < MIN_COVERAGE:
            lines.append(f"  WARNING trace.coverage {layer['trace.coverage']:.3f} < {MIN_COVERAGE}: the harness no longer "
                         "calls some layer through the names bench/tracer.py wraps; update tracer.instrument")
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": metadata(passes[0]["versions"]),
        "passes": [{k: p[k] for k in ("seed", "mode", "setup_s", "wall_s", "setup_raw_s", "wall_raw_s", "cell_s", "samples",
                                        "peak_rss_kb", "elapsed_s", "threads") if k in p}
                   for p in checked],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "spans": str(spans.relative_to(ROOT)) if spans else None,
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    m = record["machine"]
    lines.append(f"  machine: commit {m['commit']}, src {m['src_sha256'][:12]}, Python {m['python']}, "
                 f"numpy {m['numpy']}, scipy {m['scipy']}, nproc {m['nproc']}, {m['cpu_model']}")
    for f in failures[:MAX_PRINTED_FAILURES]:
        lines.append("  FAILED " + json.dumps(f))
    if len(failures) > MAX_PRINTED_FAILURES:
        lines.append(f"  ... {len(failures) - MAX_PRINTED_FAILURES} more failure records in {record_path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relaycache" / "__init__.py").is_file():
        print(f"error: no relaycache sources under {SRC}", file=sys.stderr)
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
