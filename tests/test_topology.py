"""Topology constructions, resolvability validation, and the file format."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycache.combinatorics import binomial, enumerate_subsets
from relaycache.topology import (
    Network,
    NotResolvableError,
    _flow_step,
    affine_plane,
    baranyai_partition,
    combination_network,
    custom_network,
    load_network,
    save_network,
)
from support import relay_neighborhood


def brute_force_has_resolution(h, r, users) -> bool:
    """Independent oracle: exhaustive search over all class partitions."""
    if h % r != 0:
        return False
    b = h // r
    if len(users) % b != 0:
        return False

    def recurse(remaining):
        if not remaining:
            return True
        first = remaining[0]
        for rest in itertools.combinations(remaining[1:], b - 1):
            cls = (first,) + rest
            covered = set()
            for u in cls:
                if covered & set(u):
                    break
                covered |= set(u)
            else:
                if covered == set(range(1, h + 1)):
                    left = [u for u in remaining if u not in cls]
                    if recurse(left):
                        return True
        return False

    return recurse(sorted(users))


class TestCombinationNetwork:
    def test_4_2_matches_known_classes(self):
        net = combination_network(4, 2)
        assert net.K == 6 and net.num_classes == 3
        by_class = [[net.users[i] for i in cls] for cls in net.classes]
        assert by_class == [
            [(1, 2), (3, 4)],
            [(1, 3), (2, 4)],
            [(1, 4), (2, 3)],
        ]

    def test_6_2_parameters(self):
        net = combination_network(6, 2)
        assert (net.K, net.num_classes) == (15, 5)
        assert all(len(cls) == 3 for cls in net.classes)

    def test_3_2_not_resolvable(self):
        with pytest.raises(NotResolvableError):
            combination_network(3, 2)

    def test_2_2_degenerate(self):
        net = combination_network(2, 2)
        assert net.users == ((1, 2),)
        assert net.num_classes == 1


class TestBaranyai:
    @pytest.mark.parametrize(
        "h,r", [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 2), (10, 5)]
    )
    def test_partition_is_valid(self, h, r):
        classes = baranyai_partition(h, r)
        assert len(classes) == binomial(h - 1, r - 1)
        for cls in classes:
            assert len(cls) == h // r
            covered = sorted(x for m in cls for x in m)
            assert covered == list(range(1, h + 1))
        flat = sorted(m for cls in classes for m in cls)
        assert flat == enumerate_subsets(h, r)

    def test_6_3_class_count(self):
        classes = baranyai_partition(6, 3)
        assert len(classes) == 10
        assert sum(len(c) for c in classes) == 20

    def test_2_2_single_class(self):
        assert baranyai_partition(2, 2) == [[(1, 2)]]

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            baranyai_partition(7, 3)

    def test_deterministic(self):
        assert baranyai_partition(9, 3) == baranyai_partition(9, 3)

    def test_flow_short_of_one_unit_per_class_raises(self):
        # Two classes may only grow their empty member, but C(1, 1) = 1 of
        # them may take element 1: the max flow is 1, not 2.
        with pytest.raises(RuntimeError, match="infeasible at stage 0: flow 1 < 2"):
            _flow_step([[()], [()]], 2, 2, 0)


class TestAffinePlane:
    def test_q2_matches_combination_4_2(self):
        assert set(affine_plane(2).users) == set(combination_network(4, 2).users)

    def test_q3_axis_classes(self):
        net = affine_plane(3)
        assert (net.h, net.r, net.K, net.num_classes) == (9, 3, 12, 4)
        by_class = [[net.users[i] for i in cls] for cls in net.classes]
        assert by_class[0] == [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
        assert by_class[1] == [(1, 4, 7), (2, 5, 8), (3, 6, 9)]

    def test_q5_invariants(self):
        net = affine_plane(5)
        assert (net.h, net.K, net.num_classes) == (25, 30, 6)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_line_intersections(self, q):
        net = affine_plane(q)
        for a, b in itertools.combinations(range(net.K), 2):
            shared = set(net.users[a]) & set(net.users[b])
            if net.class_of[a] == net.class_of[b]:
                assert not shared
            else:
                assert len(shared) == 1

    @pytest.mark.parametrize("q", [4, 6, 1, 9])
    def test_non_prime_rejected(self, q):
        with pytest.raises(ValueError):
            affine_plane(q)


class TestCustomNetwork:
    EX2_USERS = [(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7), (2, 5, 8), (3, 6, 9)]

    def test_search_finds_two_classes(self):
        net = custom_network(9, 3, self.EX2_USERS)
        by_class = [[net.users[i] for i in cls] for cls in net.classes]
        assert by_class == [
            [(1, 2, 3), (4, 5, 6), (7, 8, 9)],
            [(1, 4, 7), (2, 5, 8), (3, 6, 9)],
        ]

    def test_single_explicit_class(self):
        net = custom_network(4, 2, [(1, 2), (3, 4)], classes=[[(1, 2), (3, 4)]])
        assert net.num_classes == 1

    def test_all_pairs_of_three_unresolvable(self):
        users = [(1, 2), (1, 3), (2, 3)]
        with pytest.raises(NotResolvableError):
            custom_network(3, 2, users)
        assert not brute_force_has_resolution(3, 2, users)

    def test_search_agrees_with_brute_force_on_subfamilies(self):
        # Drop one class of comb(6,2); the rest must still resolve, and
        # removing a single user from that must not.
        full = combination_network(6, 2)
        keep = [u for i, u in enumerate(full.users) if i not in full.classes[0]]
        net = custom_network(6, 2, keep)
        assert net.num_classes == 4
        assert brute_force_has_resolution(6, 2, keep)
        broken = keep[1:]
        with pytest.raises(NotResolvableError):
            custom_network(6, 2, broken)
        assert not brute_force_has_resolution(6, 2, broken)

    def test_bad_classes_rejected(self):
        with pytest.raises(NotResolvableError):
            custom_network(4, 2, [(1, 2), (1, 3)], classes=[[(1, 2), (1, 3)]])

    def test_duplicate_users_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            custom_network(4, 2, [(1, 2), (1, 2)])

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            custom_network(4, 2, [(1, 2, 3), (4,)])


class TestRelayNeighborhood:
    def test_example_neighborhood(self):
        net = combination_network(4, 2)
        got = [net.users[i] for i in relay_neighborhood(net, 1)]
        assert got == [(1, 2), (1, 3), (1, 4)]

    def test_affine_one_user_per_class(self):
        net = affine_plane(3)
        for relay in range(1, net.h + 1):
            hood = relay_neighborhood(net, relay)
            assert len(hood) == 4
            assert sorted(net.class_of[u] for u in hood) == [1, 2, 3, 4]

    def test_degenerate(self):
        net = combination_network(2, 2)
        assert relay_neighborhood(net, 2) == [0]

    def test_out_of_range(self):
        net = combination_network(4, 2)
        with pytest.raises(ValueError):
            relay_neighborhood(net, 5)

    @pytest.mark.parametrize(
        "net",
        [combination_network(6, 2), combination_network(6, 3), affine_plane(3)],
        ids=["comb62", "comb63", "affine3"],
    )
    def test_class_labels_are_a_permutation(self, net):
        for relay in range(1, net.h + 1):
            hood = relay_neighborhood(net, relay)
            assert len(hood) == net.num_classes
            labels = sorted(net.class_of[u] for u in hood)
            assert labels == list(range(1, net.num_classes + 1))


class TestFileFormat:
    def test_round_trip_is_lossless(self, tmp_path):
        net = combination_network(6, 2)
        path = tmp_path / "net.json"
        save_network(net, path)
        assert load_network(path) == net

    def test_saved_form_is_canonical_bytes(self, tmp_path):
        net = affine_plane(3)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_network(net, p1)
        save_network(load_network(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"h": 4, "r": 2, "users": []}')
        with pytest.raises(ValueError, match="classes"):
            load_network(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="malformed"):
            load_network(path)

    def test_non_canonical_input_is_normalized(self, tmp_path):
        # Users listed out of order; loading must produce the canonical net.
        path = tmp_path / "scrambled.json"
        path.write_text(
            '{"h": 4, "r": 2, "users": [[3,4],[1,2],[2,4],[1,3],[2,3],[1,4]],'
            ' "classes": [[0,1],[2,3],[4,5]]}'
        )
        assert load_network(path) == combination_network(4, 2)


class TestNetworkValidation:
    def test_classes_must_partition(self):
        users = ((1, 2), (3, 4), (1, 3), (2, 4), (1, 4), (2, 3))
        with pytest.raises(ValueError, match="partition"):
            Network(h=4, r=2, users=users, classes=((0, 1), (0, 1), (2, 3)))

    def test_overlapping_class_members(self):
        with pytest.raises(NotResolvableError, match="overlap"):
            Network(h=4, r=2, users=((1, 2), (2, 3)), classes=((0, 1),))

    def test_class_must_cover_all_relays(self):
        with pytest.raises(NotResolvableError, match="cover"):
            Network(h=4, r=2, users=((1, 2),), classes=((0,),))

    @given(st.sampled_from([(4, 2), (6, 2), (6, 3), (8, 4), (9, 3)]))
    @settings(max_examples=5, deadline=None)
    def test_generated_networks_expose_consistent_degrees(self, shape):
        h, r = shape
        net = combination_network(h, r)
        assert net.num_classes == net.K * r // h
        for u, subset in enumerate(net.users):
            assert len(subset) == r
            for relay in subset:
                assert u in relay_neighborhood(net, relay)
