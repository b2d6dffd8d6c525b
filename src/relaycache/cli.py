"""Command-line front end.

Subcommands:

* ``topology`` — build or load a network, validate it, print a summary,
  optionally save the canonical topology file.
* ``run`` — one scheme, one demand vector: dump the transmission log and a
  report with measured-vs-formula rates.
* ``verify`` — exhaustive or sampled decode verification.
* ``sweep`` — (M grid) x (schemes) simulation table as CSV, formula and
  measured columns side by side.
* ``compare`` — closed-form rate/subpacketization quotients of the
  class-symmetric scheme over cmcnc.

Exit codes: 0 success, 1 verification failure, 2 configuration error.
``run``, ``sweep`` and ``verify`` write the first decode failure of each
failing cell to stderr as one JSON line (scheme, M, demand, user, error).
Uneven edge loads stop the command with exit 1 and one JSON error record.
Rates in CSV output are exact fraction strings so identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

from .harness import (
    SCHEME_IDS,
    SCHEMES,
    AsymmetricLoadError,
    auto_file_bytes,
    comparison_ratios,
    preflight,
    run_scheme,
    run_scheme_with_log,
    verify_all_demands,
)
from .schemes.common import (
    BudgetError,
    FileLibrary,
    SubpacketizationError,
    distinct_demand,
    random_demand,
    random_library,
    uniform_demand,
)
from .schemes.plan import GridError, grid_points
from .topology import (
    Network,
    NotResolvableError,
    affine_plane,
    combination_network,
    load_network,
    save_network,
)

DEMAND_MODES = ("distinct", "all-same", "seeded-random", "exhaustive")


class ConfigError(ValueError):
    """Invalid command line or configuration file."""


@dataclass
class ExperimentConfig:
    command: str
    net: Network
    count: int
    seed: int
    fmt: str
    n_files: int | None = None
    file_bytes: int | None = None  # None: the smallest size exact for every cell
    m_values: list[Fraction] = field(default_factory=list)
    schemes: list[str] = field(default_factory=list)
    demand_mode: str = "distinct"
    out: Path | None = None


def _build_network(spec: str) -> Network:
    if ":" in spec:
        kind, _, params = spec.partition(":")
        try:
            if kind == "comb":
                h, r = (int(x) for x in params.split(","))
                return combination_network(h, r)
            if kind == "affine":
                return affine_plane(int(params))
        except (NotResolvableError, BudgetError):
            raise
        except ValueError as exc:
            raise ConfigError(f"bad topology spec {spec!r}: {exc}") from None
        raise ConfigError(f"unknown topology generator {kind!r} (use comb: or affine:)")
    try:
        return load_network(spec)
    except OSError as exc:
        raise ConfigError(f"cannot read topology file {spec!r}: {exc.strerror}") from None


def _parse_m_values(text: str, net: Network, n_files: int) -> list[Fraction]:
    if text == "grid":
        return grid_points(net.num_classes, n_files)
    try:
        values = [Fraction(part) for part in text.split(",") if part != ""]
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad --M value list {text!r}") from None
    if not values:
        raise ConfigError("--M list is empty")
    for v in values:
        if not 0 <= v <= n_files:
            raise ConfigError(f"M={v} outside 0..{n_files}")
    return values


def _parse_schemes(text: str) -> list[str]:
    if text == "all":
        return [name for name, spec in SCHEMES.items() if spec.in_all]
    names = text.split(",")
    for name in names:
        if name not in SCHEME_IDS:
            raise ConfigError(
                f"unknown scheme {name!r}; expected one of {SCHEME_IDS} or 'all'"
            )
    return names


# Flag -> (value type, choices or None, default, help).  A --config field
# must have its flag's type and lie in its choices, as the flag must.
_FLAGS = {
    "topology": (str, None, None, "comb:h,r | affine:q | file"),
    "N": (int, None, None, "number of files"),
    "F": (str, None, "auto", "file size in bits, or 'auto'"),
    "M": (str, None, "grid", "comma list of sizes, or 'grid'"),
    "schemes": (str, None, "all", "comma list, or 'all'"),
    "demands": (str, DEMAND_MODES, None, None),
    "count": (int, None, 100, "sampled demand count"),
    "seed": (int, None, 0, None),
    "out": (str, None, None, "output directory"),
    "format": (str, ("csv", "structured"), "csv", None),
}


def _argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaycache",
        description="Coded caching over resolvable two-hop relay networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("topology", "run", "verify", "sweep", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON file with flag defaults")
        for flag, (kind, choices, _, text) in _FLAGS.items():
            p.add_argument(f"--{flag}", type=kind, choices=choices, help=text)
    return parser


def _merge_config_file(ns: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from --config JSON; explicit flags win."""
    from_file: dict = {}
    if ns.config is not None:
        try:
            from_file = json.loads(Path(ns.config).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config file {ns.config!r}: {exc}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read config file {ns.config!r}: {exc.strerror}") from None
        if not isinstance(from_file, dict):
            raise ConfigError("config file must contain a JSON object")
        unknown = set(from_file) - set(_FLAGS)
        if unknown:
            raise ConfigError(f"unknown config file field(s): {sorted(unknown)}")
    for key, (kind, choices, default, _) in _FLAGS.items():
        value = from_file.get(key)
        # JSON true and false are bools, which Python counts as ints.
        if value is not None and type(value) is not kind:
            article = "an integer" if kind is int else "a string"
            raise ConfigError(f"config field {key!r} must be {article}, got {value!r}")
        if value is not None and choices and value not in choices:
            raise ConfigError(f"config field {key!r} must be one of {choices}, got {value!r}")
        if getattr(ns, key) is None:
            setattr(ns, key, default if value is None else value)
    if ns.count < 1:
        raise ConfigError(f"--count must be at least 1, got {ns.count}")
    return ns


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Validate argv (plus optional --config file) into an ExperimentConfig.

    A ConfigError names the first offending field; command-line flags
    override config-file values; ``--help`` raises argparse's SystemExit(0).
    """
    parser = _argument_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # not the exit 0 of --help
            raise ConfigError("invalid command line (see usage above)") from None
        raise
    ns = _merge_config_file(ns)

    if ns.topology is None:
        raise ConfigError("--topology is required (flag or config file)")
    if ns.command != "topology" and ns.N is None:
        raise ConfigError(f"--N is required for {ns.command}")
    net = _build_network(ns.topology)
    cfg = ExperimentConfig(
        command=ns.command,
        net=net,
        n_files=ns.N,
        seed=ns.seed,
        count=ns.count,
        out=Path(ns.out) if ns.out else None,
        fmt=ns.format,
    )
    if ns.command == "topology":
        return cfg

    if ns.N is None or ns.N < 1:
        raise ConfigError(f"--N must be positive, got {ns.N}")
    cfg.m_values = _parse_m_values(ns.M, net, ns.N)
    cfg.schemes = _parse_schemes(ns.schemes)
    if ns.command == "run" and len(cfg.schemes) > 1:
        raise ConfigError("run takes a single scheme (use --schemes <name>)")

    if ns.F != "auto":
        try:
            bits = int(ns.F)
        except ValueError:
            raise ConfigError(
                f"--F must be an integer bit count or 'auto', got {ns.F!r}"
            ) from None
        if bits < 8 or bits % 8:
            raise ConfigError(f"--F must be a positive multiple of 8, got {bits}")
        cfg.file_bytes = bits // 8

    if ns.demands is None:
        # Distinct demands need one file per user; fall back when short.
        cfg.demand_mode = "distinct" if ns.N >= net.K else "seeded-random"
    else:
        cfg.demand_mode = ns.demands
    if cfg.demand_mode == "distinct" and ns.N < net.K:
        raise ConfigError(f"--demands distinct needs N >= K ({ns.N} < {net.K})")
    if cfg.demand_mode == "exhaustive" and ns.command != "verify":
        raise ConfigError("--demands exhaustive is only valid for verify")
    if ns.command == "verify" and cfg.demand_mode in ("distinct", "all-same"):
        raise ConfigError("verify needs --demands exhaustive or seeded-random")
    return cfg


def _library(cfg: ExperimentConfig) -> FileLibrary:
    """The library of run and sweep, built once every cell, in the order they
    run, passes :func:`preflight`: a plan that placement would refuse costs
    no library."""
    size = cfg.file_bytes or auto_file_bytes(cfg.net, cfg.n_files, cfg.m_values, cfg.schemes)
    preflight(cfg.net, cfg.n_files, size, product(cfg.schemes, sorted(cfg.m_values)))
    return random_library(cfg.n_files, size, cfg.seed)


def _demand(cfg: ExperimentConfig) -> tuple[int, ...]:
    if cfg.demand_mode == "distinct":
        return distinct_demand(cfg.net, cfg.n_files)
    if cfg.demand_mode == "all-same":
        return uniform_demand(cfg.net, 1)
    return random_demand(cfg.net, cfg.n_files, random.Random(cfg.seed))


def _write_table(
    cfg: ExperimentConfig, name: str, header: str, rows: list[list], records: list
) -> Path | None:
    """Write ``rows`` as CSV, or ``records`` as JSON with --format structured,
    to ``<--out>/<name>.csv|json`` or to stdout; returns the --out directory."""
    if cfg.fmt == "structured":
        suffix, text = "json", json.dumps(records, indent=2, sort_keys=True) + "\n"
    else:
        lines = [header, *(",".join(map(str, row)) for row in rows)]
        suffix, text = "csv", "\n".join(lines) + "\n"
    out = cfg.out
    if out is None:
        print(text, end="")
    else:
        (out / f"{name}.{suffix}").write_text(text)
    return out


def _cmd_topology(cfg: ExperimentConfig) -> int:
    net = cfg.net
    print(
        f"h={net.h} r={net.r} K={net.K} Ktilde={net.num_classes} "
        f"(valid resolvable design)"
    )
    for idx, cls in enumerate(net.classes, start=1):
        members = " ".join("{" + ",".join(map(str, net.users[i])) + "}" for i in cls)
        print(f"class {idx}: {members}")
    out = cfg.out
    if out is not None:
        save_network(net, out / "topology.json")
        print(f"saved {out / 'topology.json'}")
    return 0


def _cmd_run(cfg: ExperimentConfig) -> int:
    if len(cfg.m_values) != 1:
        raise ConfigError("run takes a single --M value")
    scheme = cfg.schemes[0]
    lib = _library(cfg)
    demand = _demand(cfg)
    M = cfg.m_values[0]
    report, log = run_scheme_with_log(cfg.net, lib, M, demand, scheme)
    _failure_record(scheme, M, report.failures)

    out = cfg.out
    if out is not None:
        with open(out / f"run_{scheme}_log.json", "wb") as f:
            log.write(f.write, indent=2)
            f.write(b"\n")
        (out / f"run_{scheme}_report.json").write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    ok = report.decode_ok and report.formula_match
    print(
        f"{scheme}: M={M} R1={report.measured.r1} R2={report.measured.r2} "
        f"decode={'ok' if report.decode_ok else 'FAIL'} "
        f"formula={'match' if report.formula_match else 'MISMATCH'} "
        f"signals={sum(len(v) for v in log.server_edges.values())}"
    )
    return 0 if ok else 1


def _cmd_verify(cfg: ExperimentConfig) -> int:
    mode = "exhaustive" if cfg.demand_mode == "exhaustive" else "sampled"
    reports = []
    ok = True
    for scheme in cfg.schemes:
        for M in cfg.m_values:
            report = verify_all_demands(
                cfg.net,
                cfg.n_files,
                M,
                scheme,
                mode=mode,
                seed=cfg.seed if mode == "sampled" else None,
                count=cfg.count if mode == "sampled" else None,
                file_bytes=cfg.file_bytes,
            )
            reports.append(report)
            _failure_record(scheme, M, report.failures)
            ok = ok and report.passed
            good = report.runs - report.failed_runs
            print(f"{scheme} M={M}: {good}/{report.runs} demand vectors decode")
    if cfg.out is not None:
        payload = [r.to_dict() for r in reports]
        (cfg.out / "verify.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    return 0 if ok else 1


SWEEP_COLUMNS = (
    "scheme,h,r,K,Ktilde,N,M,R1_formula,R1_measured,R2_formula,R2_measured,"
    "subpacketization,decode_ok"
)


def _cmd_sweep(cfg: ExperimentConfig) -> int:
    lib = _library(cfg)
    demand = _demand(cfg)
    rows = []
    reports = []
    ok = True
    for scheme in cfg.schemes:
        for M in sorted(cfg.m_values):
            report = run_scheme(cfg.net, lib, M, demand, scheme)
            reports.append(report)
            _failure_record(scheme, M, report.failures)
            ok = ok and report.decode_ok and report.formula_match
            rows.append(
                [
                    scheme,
                    report.h,
                    report.r,
                    report.K,
                    report.num_classes,
                    report.n_files,
                    M,
                    report.formula.r1,
                    report.measured.r1,
                    report.formula.r2,
                    report.measured.r2,
                    report.formula.subpacketization,
                    "true" if report.decode_ok else "false",
                ]
            )
    records = [r.to_dict() for r in reports]
    out = _write_table(cfg, "sweep", SWEEP_COLUMNS, rows, records)
    if out is not None:
        print(f"sweep {'ok' if ok else 'FAILED'}: {len(rows)} cells -> {out}")
    return 0 if ok else 1


COMPARE_COLUMNS = (
    "h,r,K,Ktilde,N,M,r1_ratio,r2_ratio,subpack_ratio_exact,subpack_ratio_approx"
)


def _cmd_compare(cfg: ExperimentConfig) -> int:
    net = cfg.net
    rows = []
    records = []
    for M in sorted(cfg.m_values):
        ratios = comparison_ratios(net.K, net.h, net.r, cfg.n_files, M)
        records.append({"M": str(M), **ratios.to_dict()})
        exact = ratios.subpack_ratio_exact
        rows.append(
            [
                net.h,
                net.r,
                net.K,
                net.num_classes,
                cfg.n_files,
                M,
                ratios.r1_ratio,
                ratios.r2_ratio,
                "" if exact is None else exact,
                repr(ratios.subpack_ratio_approx),
            ]
        )
    _write_table(cfg, "compare", COMPARE_COLUMNS, rows, records)
    return 0


def execute(cfg: ExperimentConfig) -> int:
    """Dispatch a validated config; returns the process exit code."""
    handlers = {
        "topology": _cmd_topology,
        "run": _cmd_run,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
        "compare": _cmd_compare,
    }
    try:
        # --out is made before any work, so one that cannot be made costs none.
        if cfg.out is not None:
            cfg.out.mkdir(parents=True, exist_ok=True)
        return handlers[cfg.command](cfg)
    except (
        ConfigError, NotResolvableError, GridError, SubpacketizationError, BudgetError,
        OSError,  # an --out directory that cannot be made or written
    ) as exc:
        _error_record(exc)
        return 2
    except AsymmetricLoadError as exc:
        _error_record(exc)
        return 1


def _error_record(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _failure_record(scheme: str, M: Fraction, failures: tuple) -> None:
    """The first decode failure of a cell, if any, as one JSON line on stderr."""
    if failures:
        demand, user, why = failures[0]
        record = {"scheme": scheme, "M": str(M), "demand": list(demand), "user": user, "error": why}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        cfg = parse_config(argv)
    except SystemExit:  # --help
        return 0
    except (ConfigError, NotResolvableError, ValueError) as exc:
        _error_record(exc)
        return 2
    return execute(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
