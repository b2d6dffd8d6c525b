"""End-to-end simulation runs and exact rate accounting.

Rates are exact rationals throughout: every per-edge bit count is an
integer multiple of a common subfile size, so measured rates and closed-form
rates either match exactly or not at all — no tolerances.  Floats appear
only in the entropy-based subpacketization approximation.

R1 is the worst server->relay edge load divided by the file size F; R2 the
worst relay->user edge load.  All schemes here load their edges uniformly,
and :func:`_serve` checks that symmetry on every demand it serves.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .combinatorics import binomial
from .erasure import make_code  # noqa: F401 - unused; the bench tracer wraps it here
from .schemes.broadcast import broadcast_decode, broadcast_mds_deliver, broadcast_place
from .schemes.cmcnc import cmcnc_decode, cmcnc_deliver, cmcnc_place
from .schemes.common import (
    BudgetError,
    FileLibrary,
    all_demands,
    check_library_bytes,
    check_plan_slots,
    grid_t,
    memory_ratio,
    random_demand,
    random_library,
)
from .schemes.proposed import proposed_decode, proposed_deliver, proposed_place
from .schemes.routing import routing_decode, routing_deliver
from .topology import Network

EXHAUSTIVE_CAP = 4096


class AsymmetricLoadError(RuntimeError):
    """The edges of one kind carry unequal loads, so no per-edge rate exists."""


@dataclass(frozen=True)
class RatePoint:
    """(M, R1, R2) plus the per-file subfile count, tagged formula/measured."""

    M: Fraction
    r1: Fraction
    r2: Fraction
    subpacketization: int | None
    source: str

    def to_dict(self) -> dict:
        return {
            "M": str(self.M),
            "R1": str(self.r1),
            "R2": str(self.r2),
            "subpacketization": self.subpacketization,
            "source": self.source,
        }


def _check_params(K: int, h: int, r: int, N: int) -> int:
    """Validate shared parameters; returns the class count Kt = K*r/h."""
    if min(K, h, r, N) < 1 or r > h:
        raise ValueError(f"bad parameters K={K}, h={h}, r={r}, N={N}")
    kt = Fraction(K * r, h)
    if kt.denominator != 1:
        raise ValueError(f"K*r/h = {kt} is not an integer; not a resolvable geometry")
    return int(kt)


def _grid_int(value: Fraction) -> int | None:
    return int(value) if value.denominator == 1 else None


def _closed_form_r1(users: int, m: Fraction, r: int) -> Fraction:
    """Coded-multicast server rate over ``users`` sharing-candidates."""
    return Fraction(users) * (1 - m) / (r * (1 + users * m))


@dataclass(frozen=True)
class Scheme:
    """Everything the harness and the CLI know about one scheme id.

    ``grid`` names the sharing candidates its memory grid runs over: "Kt"
    parallel classes or "K" users, with t = n*M/N a whole number at a grid
    point; None means any M in [0, N].  At a grid point of n candidates a
    file splits into ``subfiles(r, n, t)`` parts and ``rates(n, N, r, m)``
    is the closed-form (R1, R2), m = M/N.  ``place``, ``deliver`` and
    ``decode`` name the layer functions in this module, with one signature
    for every scheme: (net, lib, M), (net, cache, demand) and (net, user,
    cache, demand, received).  They are looked up on every call, so a
    replaced module attribute takes effect.  A grid scheme's plan holds
    ``copies(r)`` copies of each t-subset.  ``in_all`` puts the scheme in
    ``--schemes all``.
    """

    grid: str | None
    rates: Callable[[int, int, int, Fraction], tuple[Fraction, Fraction]]
    place: str
    deliver: str
    decode: str
    subfiles: Callable[[int, int, int], int] = lambda r, n, t: r * binomial(n, t)
    copies: Callable[[int], int] = lambda r: 1
    in_all: bool = True


SCHEMES = {
    "proposed": Scheme(
        grid="Kt",
        rates=lambda n, N, r, m: (_closed_form_r1(n, m, r), (1 - m) / r),
        place="proposed_place",
        deliver="proposed_deliver",
        decode="proposed_decode",
        copies=lambda r: r,
    ),
    "routing": Scheme(
        grid="Kt",
        rates=lambda n, N, r, m: (n * (1 - m) / r, (1 - m) / r),
        place="proposed_place",
        deliver="routing_deliver",
        decode="routing_decode",
        copies=lambda r: r,
    ),
    "cmcnc": Scheme(
        grid="K",
        rates=lambda n, N, r, m: (_closed_form_r1(n, m, r),) * 2,
        place="cmcnc_place",
        deliver="cmcnc_deliver",
        decode="cmcnc_decode",
    ),
    "broadcast-mds": Scheme(
        grid=None,
        rates=lambda n, N, r, m: (N * (1 - m) / r, (1 - m) / r),
        place="broadcast_place",
        deliver="broadcast_mds_deliver",
        decode="broadcast_decode",
        subfiles=lambda r, n, t: r,
        in_all=False,
    ),
}

SCHEME_IDS = tuple(SCHEMES)


def scheme_spec(scheme: str) -> Scheme:
    """The registry entry of ``scheme``; ValueError for an unknown id."""
    try:
        return SCHEMES[scheme]
    except KeyError:
        raise ValueError(
            f"unknown scheme {scheme!r}; expected one of {SCHEME_IDS}"
        ) from None


def _grid_size(spec: Scheme, K: int, kt: int) -> int:
    return kt if spec.grid == "Kt" else K


def formula_rates(scheme: str, K: int, h: int, r: int, N: int, M) -> RatePoint:
    """Closed-form rate point for one scheme.

    On the scheme's memory grid this is the exact closed form; between grid
    points, rates come from memory sharing (the lower convex envelope of
    the grid points).  Subpacketization is only defined on the grid.
    """
    spec = scheme_spec(scheme)
    kt = _check_params(K, h, r, N)
    M = Fraction(M)
    m = memory_ratio(M, N)
    n = t = None
    if spec.grid is not None:
        n = _grid_size(spec, K, kt)
        t = _grid_int(n * m)
        if t is None:
            corners = [Fraction(j * N, n) for j in range(n + 1)]
            pairs = [spec.rates(n, N, r, Mj / N) for Mj in corners]
            r1, r2 = (
                memory_sharing_envelope(zip(corners, rates)).value(M)
                for rates in zip(*pairs)
            )
            return RatePoint(M, r1, r2, None, "formula")
    r1, r2 = spec.rates(n, N, r, m)
    return RatePoint(M, r1, r2, spec.subfiles(r, n, t), "formula")


def achievable_rate(K: int, h: int, r: int, N: int, M) -> RatePoint:
    """Best achievable (R1, R2) combining multicast and per-file broadcast.

    At each grid point R1 is the smaller of the class-symmetric multicast
    rate and the per-file broadcast rate (N/r)(1-m) — the latter wins when
    there are more classes than files and caches are small.  Off-grid
    values come from the lower convex envelope of those points.
    """
    kt = _check_params(K, h, r, N)
    M = Fraction(M)
    m = memory_ratio(M, N)
    multicast, broadcast = SCHEMES["proposed"].rates, SCHEMES["broadcast-mds"].rates
    points = []
    for j in range(kt + 1):
        mj = Fraction(j, kt)
        r1 = min(multicast(kt, N, r, mj)[0], broadcast(kt, N, r, mj)[0])
        points.append((mj * N, r1))
    return RatePoint(
        M=M,
        r1=memory_sharing_envelope(points).value(M),
        r2=broadcast(kt, N, r, m)[1],
        subpacketization=None,
        source="formula",
    )


# ---------------------------------------------------------------------------
# Memory sharing


@dataclass(frozen=True)
class Envelope:
    """Lower convex envelope of (M, value) points; piecewise linear."""

    vertices: tuple[tuple[Fraction, Fraction], ...]

    def value(self, M) -> Fraction:
        M = Fraction(M)
        left, right, w = self._segment(M)
        return w * left[1] + (1 - w) * right[1]

    def combination(self, M) -> list[tuple[Fraction, Fraction]]:
        """Corner points and weights whose mix achieves the envelope at M."""
        M = Fraction(M)
        left, right, w = self._segment(M)
        if w == 1:
            return [(left[0], Fraction(1))]
        if w == 0:
            return [(right[0], Fraction(1))]
        return [(left[0], w), (right[0], 1 - w)]

    def _segment(self, M: Fraction):
        xs = [v[0] for v in self.vertices]
        if not xs[0] <= M <= xs[-1]:
            raise ValueError(f"M={M} outside the envelope range {xs[0]}..{xs[-1]}")
        j = bisect.bisect_left(xs, M)
        if xs[j] == M:
            return self.vertices[j], self.vertices[j], Fraction(1)
        left, right = self.vertices[j - 1], self.vertices[j]
        w = (right[0] - M) / (right[0] - left[0])
        return left, right, w


def memory_sharing_envelope(points: Iterable[tuple]) -> Envelope:
    """Lower convex envelope of distinct-(M, value) points."""
    pts = sorted((Fraction(x), Fraction(y)) for x, y in points)
    if not pts:
        raise ValueError("need at least one point")
    if len({x for x, _ in pts}) != len(pts):
        raise ValueError("points must have distinct M values")
    hull: list[tuple[Fraction, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return Envelope(vertices=tuple(hull))


# ---------------------------------------------------------------------------
# Ratio analytics


def binary_entropy_nats(p) -> float:
    """-p ln p - (1-p) ln(1-p), with 0 ln 0 = 0."""
    p = float(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p={p} outside [0, 1]")
    acc = 0.0
    if p > 0:
        acc -= p * math.log(p)
    if p < 1:
        acc -= (1 - p) * math.log(1 - p)
    return acc


@dataclass(frozen=True)
class ComparisonRatios:
    """Multicast-vs-cmcnc advantage at one memory point."""

    r1_ratio: Fraction
    r2_ratio: Fraction
    subpack_ratio_exact: Fraction | None
    subpack_ratio_approx: float

    def to_dict(self) -> dict:
        return {
            "r1_ratio": str(self.r1_ratio),
            "r2_ratio": str(self.r2_ratio),
            "subpack_ratio_exact": (
                str(self.subpack_ratio_exact)
                if self.subpack_ratio_exact is not None
                else None
            ),
            "subpack_ratio_approx": self.subpack_ratio_approx,
        }


def comparison_ratios(K: int, h: int, r: int, N: int, M) -> ComparisonRatios:
    """Rate and subpacketization quotients of the class-symmetric scheme
    over cmcnc.

    The exact subfile-count quotient C(Kt, Kt*m)/C(K, K*m) needs M on both
    grids and is None otherwise; the entropy approximation
    exp(-K (1 - r/h) H_e(m)) is always returned and is only order-of-
    magnitude accurate.
    """
    kt = _check_params(K, h, r, N)
    M = Fraction(M)
    m = memory_ratio(M, N)
    r1_ratio = (Fraction(1, K) + m) / (Fraction(1, kt) + m)
    r2_ratio = Fraction(1, K) + m
    t, tp = _grid_int(kt * m), _grid_int(K * m)
    exact = None
    if t is not None and tp is not None:
        exact = Fraction(binomial(kt, t), binomial(K, tp))
    approx = math.exp(-K * (1 - r / h) * binary_entropy_nats(m))
    return ComparisonRatios(
        r1_ratio=r1_ratio,
        r2_ratio=r2_ratio,
        subpack_ratio_exact=exact,
        subpack_ratio_approx=approx,
    )


# ---------------------------------------------------------------------------
# Simulation harness


def scheme_file_divisor(net: Network, n_files: int, M, scheme: str) -> int:
    """Byte divisor that makes every split in ``scheme`` exact at this M."""
    spec = scheme_spec(scheme)
    if spec.grid is None:
        # The cached M/N of each file and the r parts of the rest are whole bytes.
        return spec.subfiles(net.r, None, None) * memory_ratio(M, n_files).denominator
    n = _grid_size(spec, net.K, net.num_classes)
    return spec.subfiles(net.r, n, grid_t(n, n_files, M, spec.grid))


def preflight(
    net: Network, n_files: int, file_bytes: int, cells: Iterable[tuple[str, Fraction]]
) -> None:
    """The refusals that building a library of ``n_files`` files of
    ``file_bytes`` and placing each (scheme, M) of ``cells`` on it would meet
    first, in that order, made from sizes alone: BudgetError for a library
    over its cap, then for each cell GridError off the scheme's grid and
    BudgetError for a plan over PLAN_SLOTS_CAP slots."""
    check_library_bytes(n_files, file_bytes)
    for scheme, M in cells:
        spec = scheme_spec(scheme)
        if spec.grid is not None:
            n = _grid_size(spec, net.K, net.num_classes)
            check_plan_slots(n, grid_t(n, n_files, M, spec.grid), spec.copies(net.r), spec.grid)


def auto_file_bytes(
    net: Network, n_files: int, M_values: Sequence, schemes: Sequence[str]
) -> int:
    """Smallest file size (bytes) exact for every (scheme, M) combination."""
    size = 1
    for scheme in schemes:
        for M in M_values:
            size = math.lcm(size, scheme_file_divisor(net, n_files, M, scheme))
    return size


@dataclass(frozen=True)
class SchemeReport:
    """Outcome of one place->deliver->decode run."""

    scheme: str
    h: int
    r: int
    K: int
    num_classes: int
    n_files: int
    file_bits: int
    demand: tuple[int, ...]
    measured: RatePoint
    formula: RatePoint
    formula_match: bool
    failures: tuple[tuple, ...]
    log_digest: str

    @property
    def decode_ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "h": self.h,
            "r": self.r,
            "K": self.K,
            "Ktilde": self.num_classes,
            "N": self.n_files,
            "F_bits": self.file_bits,
            "demand": list(self.demand),
            "measured": self.measured.to_dict(),
            "formula": self.formula.to_dict(),
            "formula_match": self.formula_match,
            "decode_ok": self.decode_ok,
            "log_digest": self.log_digest,
        }


def _measure(net: Network, log, file_bits: int) -> tuple[Fraction, Fraction]:
    """(R1, R2) of ``log``; AsymmetricLoadError unless each edge kind is
    loaded evenly."""
    server = [log.server_bits(i) for i in range(1, net.h + 1)]
    relay = [
        log.relay_bits(i, u)
        for i in range(1, net.h + 1)
        for u in net._neighbors[i - 1]
    ]
    if len(set(server)) != 1:
        raise AsymmetricLoadError(f"server edges are not symmetric: {server}")
    if len(set(relay)) != 1:
        raise AsymmetricLoadError(f"relay edges are not symmetric: {relay}")
    return Fraction(server[0], file_bits), Fraction(relay[0], file_bits)


def _serve(net: Network, lib: FileLibrary, deliver, decode_user, demand):
    """Deliver one demand, measure it and decode every user: (log, R1, R2,
    failures), a failure (demand, user, why) for an exception or wrong bytes."""
    log = deliver(demand)
    r1, r2 = _measure(net, log, lib.file_bits)
    failures = []
    for u in range(net.K):
        try:
            out = decode_user(u, demand, log.to_user(u))
        except Exception as exc:  # noqa: BLE001 - recorded, not swallowed
            failures.append((demand, u, f"{type(exc).__name__}: {exc}"))
            continue
        if out != lib.file(demand[u]):
            failures.append((demand, u, "decoded bytes differ"))
    return log, r1, r2, failures


def _pipeline(net: Network, lib: FileLibrary, M, scheme: str, code: None):
    """Returns (cache, deliver(demand) -> log, decode(user, demand, received));
    ``code`` must be None, as each placement builds the MDS code it needs."""
    if code is not None:
        raise ValueError("code must be None: each placement builds its own MDS code")
    spec = scheme_spec(scheme)
    layer = globals()
    cache = layer[spec.place](net, lib, M)
    return (
        cache,
        lambda d: layer[spec.deliver](net, cache, d),
        lambda u, d, rx: layer[spec.decode](net, u, cache, d, rx),
    )


def run_scheme(
    net: Network, lib: FileLibrary, M, demand: tuple[int, ...], scheme: str
) -> SchemeReport:
    """Execute place->deliver->decode and compare measured rates to formulas."""
    report, _ = run_scheme_with_log(net, lib, M, demand, scheme)
    return report


def run_scheme_with_log(net: Network, lib: FileLibrary, M, demand: tuple[int, ...], scheme: str):
    """Like :func:`run_scheme` but also returns the transmission log."""
    M = Fraction(M)
    _, deliver, decode_user = _pipeline(net, lib, M, scheme, None)
    log, r1, r2, failures = _serve(net, lib, deliver, decode_user, demand)
    formula = formula_rates(scheme, net.K, net.h, net.r, lib.n_files, M)
    measured = RatePoint(M, r1, r2, formula.subpacketization, "measured")
    report = SchemeReport(
        scheme=scheme,
        h=net.h,
        r=net.r,
        K=net.K,
        num_classes=net.num_classes,
        n_files=lib.n_files,
        file_bits=lib.file_bits,
        demand=tuple(demand),
        measured=measured,
        formula=formula,
        formula_match=(r1 == formula.r1 and r2 == formula.r2),
        failures=tuple(failures),
        log_digest=log.digest(),
    )
    return report, log


@dataclass(frozen=True)
class VerificationReport:
    """Decode verification over many demand vectors."""

    scheme: str
    n_files: int
    M: Fraction
    mode: str
    seed: int | None
    runs: int
    failed_runs: int  # runs with a failure; a sampled demand drawn twice runs twice
    failures: tuple[tuple, ...]
    worst_server_bits: int
    worst_relay_bits: int
    rate_pairs: tuple[tuple[Fraction, Fraction], ...]
    demand_independent: bool
    library_seed: int
    file_bytes: int

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "N": self.n_files,
            "M": str(self.M),
            "mode": self.mode,
            "seed": self.seed,
            "runs": self.runs,
            "failures": [list(f) for f in self.failures],
            "worst_server_bits": self.worst_server_bits,
            "worst_relay_bits": self.worst_relay_bits,
            "rate_pairs": [[str(a), str(b)] for a, b in self.rate_pairs],
            "demand_independent": self.demand_independent,
            "library_seed": self.library_seed,
            "file_bytes": self.file_bytes,
            "passed": self.passed,
        }


def verify_all_demands(
    net: Network,
    n_files: int,
    M,
    scheme: str,
    mode: str = "exhaustive",
    seed: int | None = None,
    count: int | None = None,
    file_bytes: int | None = None,
) -> VerificationReport:
    """Run deliver->decode for many demand vectors against one placement.

    ``exhaustive`` covers all N^K demand vectors and ``sampled`` draws
    ``count`` vectors from a generator seeded with ``seed``; either refuses
    more than EXHAUSTIVE_CAP before drawing any.  The library is seeded and
    recorded, so any failure is replayable, and is built only once
    :func:`preflight` passes.

    It checks that every user decodes its file bit-exactly and that each
    edge kind is loaded evenly (AsymmetricLoadError otherwise, as in run).
    It does not compare the measured rates with the closed form: the
    distinct (R1, R2) pairs are recorded in ``rate_pairs``, not checked.
    """
    M = Fraction(M)
    if mode == "exhaustive":
        total = n_files**net.K
        if total > EXHAUSTIVE_CAP:
            raise BudgetError(
                f"exhaustive verification needs N^K <= {EXHAUSTIVE_CAP}, "
                f"got {total}; use sampled mode"
            )
        demands = list(all_demands(net, n_files))
    elif mode == "sampled":
        if seed is None or count is None:
            raise ValueError("sampled mode needs seed and count")
        if count > EXHAUSTIVE_CAP:
            raise BudgetError(f"sampled verification needs count <= {EXHAUSTIVE_CAP}, got {count}")
        rng = random.Random(seed)
        demands = [random_demand(net, n_files, rng) for _ in range(count)]
    else:
        raise ValueError(f"unknown mode {mode!r}; expected exhaustive or sampled")

    library_seed = seed if seed is not None else 0
    if file_bytes is None:
        file_bytes = auto_file_bytes(net, n_files, [M], [scheme])
    preflight(net, n_files, file_bytes, [(scheme, M)])
    lib = random_library(n_files, file_bytes, seed=library_seed)

    _, deliver, decode_user = _pipeline(net, lib, M, scheme, None)
    failures, rate_pairs, failed_runs = [], [], 0
    for demand in demands:
        _, r1, r2, failed = _serve(net, lib, deliver, decode_user, demand)
        failures += failed
        failed_runs += bool(failed)
        if (r1, r2) not in rate_pairs:
            rate_pairs.append((r1, r2))
    return VerificationReport(
        scheme=scheme,
        n_files=n_files,
        M=M,
        mode=mode,
        seed=seed,
        runs=len(demands),
        failed_runs=failed_runs,
        failures=tuple(failures),
        worst_server_bits=int(max((r1 for r1, _ in rate_pairs), default=0) * lib.file_bits),
        worst_relay_bits=int(max((r2 for _, r2 in rate_pairs), default=0) * lib.file_bits),
        rate_pairs=tuple(rate_pairs),
        demand_independent=len(rate_pairs) <= 1,
        library_seed=library_seed,
        file_bytes=file_bytes,
    )
