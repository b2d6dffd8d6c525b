"""Formula evaluation, envelopes, ratios, and end-to-end run verification."""

import importlib
import math
from contextlib import ExitStack
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycache import harness
from relaycache.harness import (
    EXHAUSTIVE_CAP,
    SCHEMES,
    achievable_rate,
    auto_file_bytes,
    binary_entropy_nats,
    comparison_ratios,
    formula_rates,
    memory_sharing_envelope,
    run_scheme,
    scheme_file_divisor,
    verify_all_demands,
)
from relaycache.schemes import broadcast_place, distinct_demand, random_library, uniform_demand
from relaycache.schemes.plan import GRIDS, grid_points
from relaycache.topology import affine_plane, combination_network, custom_network
from support import TWO_CLASS_USERS

F = Fraction

# The resolvable designs the cross-topology properties draw from.
DESIGNS = {
    "comb42": lambda: combination_network(4, 2),
    "affine3": lambda: affine_plane(3),
    "two-class-design": lambda: custom_network(9, 3, TWO_CLASS_USERS),
}


class TestFormulaRates:
    def test_proposed_on_grid(self):
        assert formula_rates("proposed", 15, 6, 2, 50, 20).r1 == F(1, 2)
        assert formula_rates("proposed", 15, 6, 2, 50, 20).r2 == F(3, 10)
        assert formula_rates("proposed", 15, 6, 2, 50, 20).subpacketization == 20

    def test_cmcnc_example(self):
        rp = formula_rates("cmcnc", 6, 4, 2, 6, 2)
        assert rp.r1 == rp.r2 == F(2, 3)
        assert rp.subpacketization == 30

    def test_routing_at_m_zero(self):
        rp = formula_rates("routing", 15, 6, 2, 50, 0)
        assert rp.r1 == F(15, 6) and rp.r2 == F(1, 2)

    def test_broadcast(self):
        rp = formula_rates("broadcast-mds", 6, 4, 2, 2, 0)
        assert rp.r1 == 1 and rp.r2 == F(1, 2) and rp.subpacketization == 2

    def test_off_grid_uses_memory_sharing(self):
        # comb(4,2), N=6: grid vertices (0, 3/2) and (2, 1/2)
        rp = formula_rates("proposed", 6, 4, 2, 6, 1)
        assert rp.r1 == 1
        assert rp.subpacketization is None

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            formula_rates("magic", 6, 4, 2, 6, 2)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            formula_rates("proposed", 6, 4, 2, 6, 7)

    @pytest.mark.parametrize("scheme", ["proposed", "routing", "cmcnc"])
    def test_monotone_nonincreasing_in_m(self, scheme):
        values = [formula_rates(scheme, 15, 6, 2, 50, M) for M in range(0, 51, 10)]
        for a, b in zip(values, values[1:]):
            assert a.r1 >= b.r1 and a.r2 >= b.r2

    def test_dominance_at_interior_grid_points(self):
        for M in (10, 20, 30, 40):
            prop = formula_rates("proposed", 15, 6, 2, 50, M)
            cm = formula_rates("cmcnc", 15, 6, 2, 50, M)
            rt = formula_rates("routing", 15, 6, 2, 50, M)
            assert prop.r1 < cm.r1 and prop.r2 < cm.r2
            assert prop.r1 < rt.r1 and prop.r2 == rt.r2


class TestAchievableRate:
    def test_broadcast_branch_wins_with_few_files(self):
        # comb(4,2), N=2: 3 classes > 2 files, so at M=0 the per-file
        # broadcast term N/r = 1 beats the multicast term 3/2.
        assert achievable_rate(6, 4, 2, 2, 0).r1 == 1

    def test_multicast_branch_with_many_files(self):
        assert achievable_rate(6, 4, 2, 6, 0).r1 == F(3, 2)

    def test_off_grid_chord(self):
        assert achievable_rate(6, 4, 2, 6, 1).r1 == 1

    def test_memory_sharing_beats_a_non_hull_grid_point(self):
        # comb(10,2): 45 users, 9 classes, N=2 files.  The broadcast branch
        # makes the pointwise minimum non-convex, so at M = 2/9 the grid
        # point itself (8/9) sits above the hull: mixing the M=0 and
        # M=10/9 placements 4:1 achieves 13/15.
        grid_point = min(
            F(9) * (1 - F(1, 9)) / (2 * (1 + 9 * F(1, 9))),
            F(2, 2) * (1 - F(1, 9)),
        )
        assert grid_point == F(8, 9)
        assert achievable_rate(45, 10, 2, 2, F(2, 9)).r1 == F(13, 15) < grid_point

    def test_full_cache(self):
        rp = achievable_rate(6, 4, 2, 6, 6)
        assert rp.r1 == 0 and rp.r2 == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            achievable_rate(6, 4, 2, 6, -1)


class TestEnvelope:
    POINTS = [(0, F(3, 2)), (2, F(1, 2)), (4, F(1, 6)), (6, 0)]

    def test_on_vertex(self):
        env = memory_sharing_envelope(self.POINTS)
        assert env.value(2) == F(1, 2)
        # chord test: the vertex beats averaging its neighbors
        assert F(1, 2) < (F(3, 2) + F(1, 6)) / 2

    def test_two_point_midpoint_is_mean(self):
        env = memory_sharing_envelope([(0, 1), (4, 3)])
        assert env.value(2) == 2

    def test_single_point_is_constant(self):
        env = memory_sharing_envelope([(3, F(7, 2))])
        assert env.value(3) == F(7, 2)

    def test_combination_reconstructs_value(self):
        env = memory_sharing_envelope(self.POINTS)
        combo = env.combination(1)
        assert sum(w for _, w in combo) == 1
        lookup = dict(self.POINTS)
        assert sum(w * lookup[x] for x, w in combo) == env.value(1)

    def test_query_outside_range(self):
        env = memory_sharing_envelope(self.POINTS)
        with pytest.raises(ValueError, match="outside"):
            env.value(7)

    def test_empty_and_duplicate_points(self):
        with pytest.raises(ValueError):
            memory_sharing_envelope([])
        with pytest.raises(ValueError, match="distinct"):
            memory_sharing_envelope([(1, 2), (1, 3)])

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.fractions(0, 10)),
            min_size=1,
            max_size=8,
            unique_by=lambda p: p[0],
        )
    )
    @settings(max_examples=100)
    def test_envelope_properties(self, points):
        env = memory_sharing_envelope(points)
        # below every input point, and convex (slopes nondecreasing)
        for x, y in points:
            assert env.value(x) <= y
        verts = env.vertices
        slopes = [
            (b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(verts, verts[1:])
        ]
        assert all(s1 <= s2 for s1, s2 in zip(slopes, slopes[1:]))


class TestEntropy:
    def test_endpoints(self):
        assert binary_entropy_nats(0) == 0
        assert binary_entropy_nats(1) == 0

    def test_maximum(self):
        assert binary_entropy_nats(0.5) == pytest.approx(math.log(2), rel=1e-15)

    def test_point_two_against_high_precision_value(self):
        # -0.2 ln 0.2 - 0.8 ln 0.8, evaluated at 30 digits then rounded
        assert binary_entropy_nats(0.2) == pytest.approx(
            0.500402423538187880, rel=1e-12
        )

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_out_of_range(self, p):
        with pytest.raises(ValueError):
            binary_entropy_nats(p)


class TestComparisonRatios:
    def test_rate_ratios_match_closed_forms_and_quotients(self):
        cr = comparison_ratios(15, 6, 2, 50, 10)
        assert cr.r1_ratio == F(2, 3)
        assert cr.r2_ratio == F(4, 15)
        prop = formula_rates("proposed", 15, 6, 2, 50, 10)
        cm = formula_rates("cmcnc", 15, 6, 2, 50, 10)
        assert cr.r1_ratio == prop.r1 / cm.r1
        assert cr.r2_ratio == prop.r2 / cm.r2

    def test_subpacketization_ratio(self):
        cr = comparison_ratios(15, 6, 2, 50, 10)
        assert cr.subpack_ratio_exact == F(1, 91)
        ratio = float(cr.subpack_ratio_exact) / cr.subpack_ratio_approx
        assert 1 / 3 < ratio < 3

    def test_off_grid_exact_unavailable(self):
        cr = comparison_ratios(15, 6, 2, 50, F(1, 3))
        assert cr.subpack_ratio_exact is None
        assert cr.subpack_ratio_approx > 0

    @given(st.sampled_from(sorted(DESIGNS)), st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_quotients_are_those_of_the_closed_forms(self, design, N):
        """At every point of both grids below M = N the rate quotients are
        those of formula_rates, and at every point of both grids the exact
        subfile quotient is that of the two subpacketizations; off either
        grid it is None.  M runs over the grid of 2 * lcm(Kt, K) steps,
        which holds both grids and points off both."""
        net = DESIGNS[design]()
        args = (net.K, net.h, net.r, N)
        sizes = [GRIDS[SCHEMES[s].grid](net.K, net.num_classes, net.r)[0] for s in ("proposed", "cmcnc")]
        common = set.intersection(*(set(grid_points(n, N)) for n in sizes))
        for M in grid_points(2 * math.lcm(*sizes), N):
            cr = comparison_ratios(*args, M)
            ours, theirs = (formula_rates(s, *args, M) for s in ("proposed", "cmcnc"))
            if M not in common:
                assert cr.subpack_ratio_exact is None, M
                continue
            assert cr.subpack_ratio_exact == F(ours.subpacketization, theirs.subpacketization), M
            if M < N:
                assert cr.r1_ratio == ours.r1 / theirs.r1, M
                assert cr.r2_ratio == ours.r2 / theirs.r2, M


# Every entry point that takes M states one rule: M must lie in 0..N.
# comb(4,2): K=6, h=4, r=2; N=6 files.
M_RANGE_ENTRY_POINTS = {
    "formula_rates": lambda M: formula_rates("proposed", 6, 4, 2, 6, M),
    "achievable_rate": lambda M: achievable_rate(6, 4, 2, 6, M),
    "comparison_ratios": lambda M: comparison_ratios(6, 4, 2, 6, M),
    "scheme_file_divisor": lambda M: scheme_file_divisor(
        combination_network(4, 2), 6, M, "broadcast-mds"
    ),
    "broadcast_place": lambda M: broadcast_place(
        combination_network(4, 2), random_library(6, 24, seed=1), M
    ),
}


@pytest.mark.parametrize("M", [-1, 7])
@pytest.mark.parametrize("entry", M_RANGE_ENTRY_POINTS)
def test_memory_outside_zero_to_n_is_refused_everywhere(entry, M):
    with pytest.raises(ValueError) as exc:
        M_RANGE_ENTRY_POINTS[entry](M)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"M={M} outside 0..6"


class TestRunScheme:
    def test_example_rates(self, comb42):
        lib = random_library(6, 30, seed=3)
        rep = run_scheme(comb42, lib, 2, distinct_demand(comb42, 6), "proposed")
        assert rep.measured.r1 == F(1, 2) and rep.measured.r2 == F(1, 3)
        assert rep.formula_match and rep.decode_ok
        assert len(rep.log_digest) == 64

    def test_larger_network_distinct_demands(self, comb62):
        lib = random_library(50, 910, seed=4)
        rep = run_scheme(comb62, lib, 10, distinct_demand(comb62, 50), "proposed")
        assert rep.measured.r1 == 1 and rep.measured.r2 == F(2, 5)

    @pytest.mark.parametrize("scheme", ["proposed", "routing", "cmcnc"])
    def test_full_cache_zero_rates(self, comb42, scheme):
        lib = random_library(6, 30, seed=5)
        rep = run_scheme(comb42, lib, 6, uniform_demand(comb42), scheme)
        assert rep.measured.r1 == 0 and rep.measured.r2 == 0
        assert rep.formula_match and rep.decode_ok

    def test_broadcast_measured_matches_formula(self, comb42):
        lib = random_library(2, 8, seed=6)
        rep = run_scheme(comb42, lib, 0, (1, 2, 2, 1, 1, 2), "broadcast-mds")
        assert rep.measured.r1 == 1 and rep.formula_match and rep.decode_ok

    def test_digest_is_reproducible(self, comb42):
        lib = random_library(6, 30, seed=7)
        d = distinct_demand(comb42, 6)
        a = run_scheme(comb42, lib, 2, d, "proposed")
        b = run_scheme(comb42, lib, 2, d, "proposed")
        assert a.log_digest == b.log_digest


class TestCrossTopology:
    """The pipelines must work on any resolvable design, not only on
    complete combination networks."""

    @pytest.mark.parametrize(
        "make_net",
        [
            lambda: affine_plane(3),
            lambda: custom_network(9, 3, TWO_CLASS_USERS),
            lambda: combination_network(6, 3),
        ],
        ids=["affine3", "two-class-design", "comb63"],
    )
    @pytest.mark.parametrize("scheme", ["proposed", "routing", "cmcnc", "broadcast-mds"])
    def test_mid_grid_run(self, make_net, scheme):
        net = make_net()
        n_files = net.K
        M = F(n_files, net.num_classes)  # one replication step
        size = auto_file_bytes(net, n_files, [M], [scheme])
        lib = random_library(n_files, size, seed=606)
        rep = run_scheme(net, lib, M, distinct_demand(net, n_files), scheme)
        assert rep.decode_ok and rep.formula_match, (scheme, net)

    @given(st.sampled_from(sorted(DESIGNS)), st.data())
    @settings(max_examples=12, deadline=None)
    def test_relay_relabeling(self, design, data):
        """Renaming the relays by any permutation of [h] keeps every scheme
        decoding and on its closed form at every grid point."""
        net = DESIGNS[design]()
        perm = data.draw(st.permutations(range(1, net.h + 1)), label="relay map")
        net = custom_network(net.h, net.r, [[perm[i - 1] for i in V] for V in net.users])
        n_files = net.K
        for scheme, spec in SCHEMES.items():
            steps = GRIDS[spec.grid](net.K, net.num_classes, net.r)[0] if spec.grid else net.num_classes
            for j, M in enumerate(grid_points(steps, n_files)):
                size = auto_file_bytes(net, n_files, [M], [scheme])
                lib = random_library(n_files, size, seed=j)
                rep = run_scheme(net, lib, M, distinct_demand(net, n_files), scheme)
                assert rep.decode_ok and rep.formula_match, (scheme, M, perm)


class TestVerifyAllDemands:
    @pytest.mark.parametrize("scheme", ["proposed", "cmcnc"])
    def test_exhaustive_all_pass(self, comb42, scheme):
        report = verify_all_demands(comb42, 2, 2, scheme, mode="exhaustive")
        assert report.runs == 64
        assert report.passed
        assert report.demand_independent

    def test_sampled_without_runs_is_refused(self, comb42, monkeypatch):
        # No demand drawn means nothing verified: no vacuous pass, and no
        # library built first.
        built = []
        monkeypatch.setattr(harness, "random_library", lambda *a, **k: built.append(a))
        for count in (0, -3):
            with pytest.raises(ValueError, match=f"count >= 1, got {count}"):
                verify_all_demands(comb42, 2, 2, "proposed", mode="sampled", seed=1, count=count)
        assert built == []

    def test_sampled_runs_decode(self, comb62):
        report = verify_all_demands(
            comb62, 50, 10, "routing", mode="sampled", seed=2, count=5
        )
        assert report.runs == 5 and report.passed

    def test_cap_is_named(self, comb62):
        with pytest.raises(ValueError, match=str(EXHAUSTIVE_CAP)):
            verify_all_demands(comb62, 50, 10, "proposed", mode="exhaustive")

    def test_unknown_mode(self, comb42):
        with pytest.raises(ValueError, match="mode"):
            verify_all_demands(comb42, 2, 2, "proposed", mode="sorta")


class TestAutoFileBytes:
    def test_covers_every_scheme_divisor(self, comb42):
        size = auto_file_bytes(comb42, 6, [0, 2, 4, 6], ["proposed", "cmcnc"])
        for M, scheme, divisor in [
            (2, "proposed", 6),
            (4, "proposed", 6),
            (2, "cmcnc", 30),
            (4, "cmcnc", 30),
        ]:
            assert size % divisor == 0

    def test_broadcast_prefix_denominator(self, comb42):
        size = auto_file_bytes(comb42, 3, [1], ["broadcast-mds"])
        assert (size * F(1, 3)).denominator == 1
        assert size % comb42.r == 0


def test_the_bench_tracer_sees_every_layer_of_every_scheme(comb42, monkeypatch):
    """bench/tracer.py times each layer by swapping the names through which
    the harness calls it; a run that bypasses them loses its spans."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    tracer = importlib.import_module("tracer")
    lib = random_library(6, auto_file_bytes(comb42, 6, [2], list(SCHEMES)), seed=3)
    for scheme in SCHEMES:
        spans = tracer.Tracer()
        with ExitStack() as stack:
            tracer.instrument(stack, spans)
            assert run_scheme(comb42, lib, 2, distinct_demand(comb42, 6), scheme).decode_ok
        names = [row[0] for row in spans.rows()]
        assert [names.count(layer) for layer in ("place", "deliver", "decode")] == [1, 1, comb42.K], scheme
