"""Acceptance suite: the release gate, one test per criterion.

Each criterion prints a single ``ACCEPTANCE n: PASS/FAIL`` line (run with
``pytest -s`` to see them live) and enforces its runtime budget.  All rate
assertions are exact rational comparisons, never float tolerances.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from relaycache.cli import main as cli_main
from relaycache.combinatorics import binomial, enumerate_subsets
from relaycache.erasure import decode as mds_decode, encode as mds_encode, make_code
from relaycache.harness import (
    achievable_rate,
    auto_file_bytes,
    comparison_ratios,
    formula_rates,
    run_scheme,
    run_scheme_with_log,
    verify_all_demands,
)
from relaycache.schemes import distinct_demand, random_library
from relaycache.topology import (
    affine_plane,
    baranyai_partition,
    combination_network,
    custom_network,
)
from support import relay_neighborhood, user_index
from test_golden import edge_records

F = Fraction


class _Budget:
    def __init__(self, number: int, title: str, seconds: float):
        self.number, self.title, self.seconds = number, title, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"ACCEPTANCE {self.number:02d} [{self.title}]: FAIL "
                  f"({elapsed:.2f}s)")
            return False
        verdict = "PASS" if elapsed < self.seconds else "FAIL (over budget)"
        print(f"ACCEPTANCE {self.number:02d} [{self.title}]: {verdict} "
              f"({elapsed:.2f}s, budget {self.seconds:g}s)")
        assert elapsed < self.seconds, (
            f"criterion {self.number} took {elapsed:.2f}s, budget {self.seconds}s"
        )
        return False


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def test_criterion_01_golden_signal_sets():
    """Server->relay signals on the (4,2) network match the known XOR table
    label for label, and the measured rates are exactly (1/2, 1/3)."""
    with _Budget(1, "golden signal sets", 1.0):
        net = combination_network(4, 2)
        lib = random_library(6, 30, seed=11)
        demand = distinct_demand(net, 6)
        report, log = run_scheme_with_log(net, lib, 2, demand, "proposed")

        def sub(n, T, l):
            subsets = list(itertools.combinations(range(1, 4), 1))
            size = lib.file_bytes // 6
            offset = (subsets.index(T) * 2 + (l - 1)) * size
            return lib.file(n)[offset : offset + size]

        d = {V: demand[user_index(net, V)] for V in net.users}
        expected_g1 = {
            "prop:i=1:C=1.2": _xor(sub(d[(1, 2)], (2,), 1), sub(d[(1, 3)], (1,), 1)),
            "prop:i=1:C=1.3": _xor(sub(d[(1, 2)], (3,), 1), sub(d[(1, 4)], (1,), 1)),
            "prop:i=1:C=2.3": _xor(sub(d[(1, 3)], (3,), 1), sub(d[(1, 4)], (2,), 1)),
        }
        expected_g2 = {
            "prop:i=2:C=1.2": _xor(sub(d[(1, 2)], (2,), 2), sub(d[(2, 4)], (1,), 1)),
            "prop:i=2:C=1.3": _xor(sub(d[(1, 2)], (3,), 2), sub(d[(2, 3)], (1,), 1)),
            "prop:i=2:C=2.3": _xor(sub(d[(2, 4)], (3,), 1), sub(d[(2, 3)], (2,), 1)),
        }
        assert dict(edge_records(log.server_edges[1])) == expected_g1
        assert dict(edge_records(log.server_edges[2])) == expected_g2
        assert report.measured.r1 == F(1, 2)
        assert report.measured.r2 == F(1, 3)
        assert report.decode_ok and report.formula_match


def test_criterion_02_exhaustive_decode_three_schemes():
    """All 64 demand vectors on comb(4,2) with N=2 decode bit-exactly for
    proposed, routing, and cmcnc at every common grid point."""
    with _Budget(2, "exhaustive decode", 10.0):
        net = combination_network(4, 2)
        grid = [0, F(2, 3), F(4, 3), 2]
        for scheme in ("proposed", "routing", "cmcnc"):
            for M in grid:
                report = verify_all_demands(net, 2, M, scheme, mode="exhaustive")
                assert report.runs == 64
                assert report.passed, (scheme, M, report.failures[:3])


def test_criterion_03_rate_table_reproduction():
    """Formula rates across the M grid of the (6,2) network with N=50, and
    measured == formula exactly at every grid point, with the
    class-symmetric scheme dominating both baselines pointwise.

    Expected values are the closed forms evaluated exactly (e.g. cmcnc at
    M=20 is 9/14, at M=40 is 3/26; proposed at M=40 is 1/10).
    """
    with _Budget(3, "rate table reproduction", 30.0):
        net = combination_network(6, 2)
        N = 50
        grid = [0, 10, 20, 30, 40, 50]
        expected_r1 = {
            "proposed": [F(5, 2), F(1), F(1, 2), F(1, 4), F(1, 10), F(0)],
            "cmcnc": [F(15, 2), F(3, 2), F(9, 14), F(3, 10), F(3, 26), F(0)],
            "routing": [F(5, 2), F(2), F(3, 2), F(1), F(1, 2), F(0)],
        }
        for scheme, values in expected_r1.items():
            for M, want in zip(grid, values):
                assert formula_rates(scheme, 15, 6, 2, N, M).r1 == want, (scheme, M)

        size = auto_file_bytes(net, N, grid, list(expected_r1))
        lib = random_library(N, size, seed=33)
        demand = distinct_demand(net, N)
        for scheme in expected_r1:
            for M in grid:
                report = run_scheme(net, lib, M, demand, scheme)
                assert report.formula_match, (scheme, M)
                assert report.decode_ok, (scheme, M)

        for M in grid:
            prop = formula_rates("proposed", 15, 6, 2, N, M)
            for other in ("cmcnc", "routing"):
                base = formula_rates(other, 15, 6, 2, N, M)
                assert prop.r1 <= base.r1 and prop.r2 <= base.r2, (other, M)


def test_criterion_04_broadcast_branch_of_the_rate_minimum():
    """With more classes than files (comb(4,2), N=2) the per-file broadcast
    term wins at M=0: the achievable R1 is 1.0 and broadcast-mds attains it
    with full decode over all 64 demands."""
    with _Budget(4, "broadcast rate branch", 5.0):
        net = combination_network(4, 2)
        point = achievable_rate(6, 4, 2, 2, 0)
        assert point.r1 == 1
        # the multicast term alone would have been 3/2
        assert formula_rates("proposed", 6, 4, 2, 2, 0).r1 == F(3, 2)

        lib = random_library(2, 8, seed=44)
        report = run_scheme(net, lib, 0, (1, 2, 1, 2, 1, 2), "broadcast-mds")
        assert report.measured.r1 == 1 and report.formula_match

        verdict = verify_all_demands(net, 2, 0, "broadcast-mds", mode="exhaustive")
        assert verdict.runs == 64 and verdict.passed


def test_criterion_05_parallel_class_partitions():
    """Partition validity for every required (h, r): class count, coverage,
    and exactly-once appearance of every r-subset."""
    with _Budget(5, "parallel-class partitions", 10.0):
        for h, r in [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 2)]:
            classes = baranyai_partition(h, r)
            assert len(classes) == binomial(h - 1, r - 1), (h, r)
            for cls in classes:
                covered = sorted(x for m in cls for x in m)
                assert covered == list(range(1, h + 1)), (h, r, cls)
            flat = sorted(m for cls in classes for m in cls)
            assert flat == enumerate_subsets(h, r), (h, r)


def test_criterion_06_affine_planes():
    """affine(3) is valid with the two axis-parallel classes as expected,
    and affine(2) has the same user set as comb(4,2)."""
    with _Budget(6, "affine planes", 1.0):
        net = affine_plane(3)  # construction validates every invariant
        by_class = [[net.users[i] for i in cls] for cls in net.classes]
        assert by_class[0] == [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
        assert by_class[1] == [(1, 4, 7), (2, 5, 8), (3, 6, 9)]
        assert set(affine_plane(2).users) == set(combination_network(4, 2).users)


def _assert_symmetric_cache_views(net):
    """Every relay sees the same multiset of neighbor caches.

    A user's cache is the set that gates its every read, ``holds`` of its
    class in the placement's plan.  Where the plan has at most 20,000
    subsets the check compares those sets themselves.  Past that size,
    whose subfile counts are the point of the subpacketization comparison,
    it compares the classes, on which alone a user's set depends.  The
    plan depends on the classes, t and r alone, so no library and no cache
    are needed.
    """
    from relaycache.schemes.plan import Plan

    kt = net.num_classes
    for t in range(kt + 1):
        plan = Plan(kt, t, net.r)
        if binomial(kt, t) <= 20_000:
            view = lambda u: plan.holds[net.class_of[u] - 1]
        else:
            view = net.class_of.__getitem__
        views = [
            Counter(map(view, relay_neighborhood(net, relay)))
            for relay in range(1, net.h + 1)
        ]
        assert all(v == views[0] for v in views), (net, t)


def test_criterion_07_placement_symmetry_everywhere():
    """The relay-side cache view is identical across relays for every
    generated topology and every grid M."""
    with _Budget(7, "placement symmetry", 5.0):
        networks = [
            combination_network(4, 2),
            combination_network(6, 2),
            combination_network(6, 3),
            combination_network(8, 2),
            combination_network(8, 4),
            combination_network(9, 3),
            combination_network(10, 2),
            affine_plane(2),
            affine_plane(3),
            custom_network(
                9,
                3,
                [(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7), (2, 5, 8), (3, 6, 9)],
            ),
        ]
        for net in networks:
            _assert_symmetric_cache_views(net)


def test_criterion_08_erasure_round_trips():
    """Every piece subset of every required code shape round-trips."""
    with _Budget(8, "erasure round trips", 5.0):
        for n, k in [(3, 2), (4, 2), (6, 3), (6, 2)]:
            code = make_code(n, k)
            rng = random.Random(800 + 10 * n + k)
            data = [rng.randbytes(128) for _ in range(k)]
            pieces = mds_encode(code, data)
            for idx in itertools.combinations(range(1, n + 1), k):
                got = mds_decode(code, [(i, pieces[i - 1]) for i in idx])
                assert got == data, (n, k, idx)


def test_criterion_09_ratio_analysis():
    """Closed-form rate ratios equal the formula-rate quotients exactly and
    sit below 1; the exact subfile-count ratio at M=10 is 1/91 and the
    entropy approximation agrees within a factor of 3."""
    with _Budget(9, "ratio analysis", 1.0):
        for M in (10, 20, 30, 40):
            cr = comparison_ratios(15, 6, 2, 50, M)
            prop = formula_rates("proposed", 15, 6, 2, 50, M)
            cm = formula_rates("cmcnc", 15, 6, 2, 50, M)
            assert cr.r1_ratio == prop.r1 / cm.r1 < 1, M
            assert cr.r2_ratio == prop.r2 / cm.r2 < 1, M
        cr = comparison_ratios(15, 6, 2, 50, 10)
        assert cr.subpack_ratio_exact == F(1, 91)
        quotient = float(cr.subpack_ratio_exact) / cr.subpack_ratio_approx
        assert F(1, 3) < F(quotient) < 3


def test_criterion_10_sweep_determinism(tmp_path):
    """Two identical sweep invocations produce byte-identical CSV files."""
    with _Budget(10, "sweep determinism", 60.0):
        args = [
            "sweep", "--topology", "comb:6,2", "--N", "50", "--M", "grid",
            "--schemes", "all", "--seed", "9",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        csv_a = (a / "sweep.csv").read_bytes()
        assert csv_a == (b / "sweep.csv").read_bytes()
        assert len(csv_a.splitlines()) == 19  # header + 3 schemes x 6 points
