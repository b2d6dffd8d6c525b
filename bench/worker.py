"""One pass of one workload in a fresh interpreter.

Usage (``run.py`` starts it; it is not meant to be run by hand):

    python3 bench/worker.py --workload W --seed S --mode plain|trace \
        --t0 T --k0 K [--spans FILE]

``--t0`` is the orchestrator's ``time.perf_counter()`` just before it
started this process; the clock is system-wide, so ``setup_s`` runs from
that instant to the start of the first cell.  ``--k0`` is the calibration
kernel's time just before ``--t0``.  ``plain`` calls the public entry
points with tracing off and only times each cell from outside.  ``trace``
calls the same entry points with every layer wrapped by
:func:`tracer.instrument`.  Either way the last line of standard output is
one JSON object describing the pass, also when a cell raised.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
from fractions import Fraction
from time import perf_counter

import calibrate
from tracer import swap
from workloads import BIGFILE, SWEEPS, sweep_argv


def _threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


class Stamps:
    """Times each cell and keeps what it returned.

    The full calibration kernel runs once before the first cell, closing
    the set-up interval.  From then until :meth:`finish` a
    :class:`calibrate.Sampler` runs short kernels every 0.1 s; their time
    is taken out of the cells and their speed scales them.  In a traced
    pass each kernel run is a ``calibrate`` span, so no layer is charged
    for it.  A cell that raises is kept as ``describe(*args)`` plus the
    error, in place of its result, and the exception goes on.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.ready: float | None = None
        self.first_kernel: float | None = None
        self.sampler = calibrate.Sampler(tracer)
        self.results: list = []
        self.cells: list[tuple[float, float]] = []

    def wrap(self, fn, describe):
        def stamped(*args, **kwargs):
            if self.ready is None:
                self.ready = perf_counter()
                with self.tracer.span("calibrate") if self.tracer else contextlib.nullcontext():
                    self.first_kernel = calibrate.kernel()
                self.sampler.__enter__()
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.results.append({**describe(*args), "error": f"{type(exc).__name__}: {exc}"})
                raise
            self.cells.append((start, perf_counter()))
            self.results.append(out)
            return out

        return stamped

    def crashed(self) -> bool:
        return bool(self.results) and isinstance(self.results[-1], dict)

    def finish(self) -> None:
        if self.ready is not None:
            self.sampler.__exit__()

    def times(self) -> tuple[list[float], list[float]]:
        """Each cell's time without the kernel runs in it, unscaled and scaled."""
        raw, scaled = [], []
        for start, end in self.cells:
            net = end - start - sum(d for _, d in self.sampler.within(start, end))
            raw.append(net)
            scaled.append(calibrate.scale(net, self.sampler.around(start, end)))
        return raw, scaled


def _sweep_cell(report) -> dict:
    if isinstance(report, dict):
        return {**report, "decode_ok": False, "formula_match": False, "log_digest": None, "ops": 1}
    return {
        "scheme": report.scheme,
        "M": str(report.measured.M),
        "demand": list(report.demand),
        "decode_ok": report.decode_ok,
        "formula_match": report.formula_match,
        "log_digest": report.log_digest,
        "ops": 1,
    }


def _tracer(mode: str):
    if mode != "trace":
        return None
    from tracer import Tracer

    return Tracer()


def run_sweep(workload: str, seed: int, mode: str, out: dict):
    import relaycache.cli as cli

    out["relaycache_file"] = cli.__file__
    argv = sweep_argv(workload, seed)
    csv = io.StringIO()
    tracer = _tracer(mode)
    stamps = Stamps(tracer)
    describe = lambda net, lib, M, demand, scheme: {"scheme": scheme, "M": str(Fraction(M)), "demand": list(demand)}
    try:
        with contextlib.ExitStack() as stack:
            run_scheme = cli.run_scheme
            if tracer is not None:
                from tracer import instrument

                run_scheme = tracer.in_cell(run_scheme, scheme_at=4)
                stack.enter_context(swap(cli, "combination_network", tracer.wrap("topology.build", cli.combination_network)))
                stack.enter_context(swap(cli, "random_library", tracer.wrap("library", cli.random_library)))
                instrument(stack, tracer)
                stack.enter_context(tracer.span("cli.main"))
            stack.enter_context(swap(cli, "run_scheme", stamps.wrap(run_scheme, describe)))
            stack.enter_context(contextlib.redirect_stdout(csv))
            out["rc"] = cli.main(argv)
    except Exception:
        if not stamps.crashed():
            raise
        out["rc"] = 1
    out["cells"] = [_sweep_cell(r) for r in stamps.results]
    if tracer is not None:
        for cell, traced in zip(out["cells"], tracer.cells):
            if "error" not in cell:
                cell["stats"] = traced["stats"]
    out["csv"] = csv.getvalue()
    cfg = cli.parse_config(argv)
    out["file_bytes"] = cli.auto_file_bytes(cfg.net, cfg.n_files, cfg.m_values, cfg.schemes)
    return stamps, tracer


def run_bigfile(seed: int, mode: str, out: dict):
    import relaycache as rc

    out["relaycache_file"] = rc.__file__
    tracer = _tracer(mode)
    with tracer.span("topology.build") if tracer else contextlib.nullcontext():
        net = rc.combination_network(BIGFILE["h"], BIGFILE["r"])
    n_files, Ms, schemes = BIGFILE["N"], BIGFILE["M"], BIGFILE["schemes"]
    unit = rc.auto_file_bytes(net, n_files, Ms, schemes)
    file_bytes = unit * max(1, round(BIGFILE["target_bytes"] / unit))
    count = BIGFILE["demands_per_cell"]
    stamps = Stamps(tracer)
    describe = lambda net, n_files, M, scheme: {"scheme": scheme, "M": str(Fraction(M))}
    with contextlib.ExitStack() as stack:
        verify = rc.verify_all_demands
        if tracer is not None:
            from tracer import instrument

            verify = tracer.in_cell(verify, scheme_at=3)
            instrument(stack, tracer)
        verify = stamps.wrap(verify, describe)
        for scheme in schemes:
            for M in Ms:
                try:
                    verify(net, n_files, M, scheme, mode="sampled", seed=seed, count=count, file_bytes=file_bytes)
                except Exception:  # noqa: BLE001 - Stamps keeps it as this cell's result
                    continue
    rng = random.Random(seed)
    demands = [rc.random_demand(net, n_files, rng) for _ in range(count)]
    cells = []
    for i, report in enumerate(stamps.results):
        if isinstance(report, dict):
            cells.append({**report, "verify": None, "formula_match": False, "ops": count, "failed_ops": count})
            continue
        failed = {tuple(f[0]) for f in report.failures}
        formula = rc.formula_rates(report.scheme, net.K, net.h, net.r, n_files, report.M)
        cell = {
            "scheme": report.scheme,
            "M": str(report.M),
            "verify": report.to_dict(),
            "formula_match": list(report.rate_pairs) == [(formula.r1, formula.r2)],
            "ops": report.runs,
            "failed_ops": sum(d in failed for d in demands),
        }
        if tracer is not None:
            cell["stats"] = tracer.cells[i]["stats"]
        cells.append(cell)
    out["cells"] = cells
    out["rc"] = 0
    out["file_bytes"] = file_bytes
    return stamps, tracer


def replay_users(workload: str, seed: int, cell: dict) -> list:
    """Name the users a failing sweep cell does not decode, for the replay record.

    The cell runs again through the harness's own place/deliver/decode
    pipeline, and every user is decoded: ``run_scheme`` stops at the
    first user that fails, and a decoder that raises stops it altogether.
    """
    import relaycache.cli as cli
    from relaycache import harness

    cfg = cli.parse_config(sweep_argv(workload, seed))
    lib = harness.random_library(
        cfg.n_files, harness.auto_file_bytes(cfg.net, cfg.n_files, cfg.m_values, cfg.schemes), cfg.seed
    )
    demand = tuple(cell["demand"])
    try:
        _, deliver, decode = harness._pipeline(cfg.net, lib, Fraction(cell["M"]), cell["scheme"], None)
        log = deliver(demand)
    except Exception as exc:  # noqa: BLE001 - reported as the failure of every user
        return [["all", f"{type(exc).__name__}: {exc}"]]
    bad = []
    for u in range(cfg.net.K):
        try:
            if decode(u, demand, log.to_user(u)) != lib.file(demand[u]):
                bad.append([u, "decoded bytes differ"])
        except Exception as exc:  # noqa: BLE001 - reported as the failure of this user
            bad.append([u, f"{type(exc).__name__}: {exc}"])
    return bad


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--k0", type=float, help="calibration kernel seconds just before --t0")
    parser.add_argument("--spans")
    args = parser.parse_args()

    out = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    if args.workload in SWEEPS:
        stamps, tracer = run_sweep(args.workload, args.seed, args.mode, out)
    else:
        stamps, tracer = run_bigfile(args.seed, args.mode, out)
    stamps.finish()
    raw, scaled = stamps.times()
    out["setup_raw_s"] = stamps.ready - args.t0
    out["setup_s"] = calibrate.scale(
        out["setup_raw_s"], [(calibrate.ITERATIONS, args.k0), (calibrate.ITERATIONS, stamps.first_kernel)]
    )
    out["wall_raw_s"] = sum(raw)
    out["wall_s"] = sum(scaled)
    out["cell_s"] = raw
    out["samples"] = len(stamps.sampler.samples)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["threads"] = _threads()
    if tracer is not None:
        out.update(tracer.layer_metrics())
        if args.spans:
            tracer.write(args.spans)
    if args.workload in SWEEPS:
        for cell in out["cells"]:
            if not cell["decode_ok"] and "failed_users" not in cell:
                cell["failed_users"] = replay_users(args.workload, args.seed, cell)
    import numpy
    import scipy

    out["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
