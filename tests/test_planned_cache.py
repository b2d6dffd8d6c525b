"""The one cache of both coded schemes, under both placements.

``proposed`` caches over the Kt parallel classes with r copies of each
subset, ``cmcnc`` over the K users with one copy; both through
:class:`relaycache.schemes.common.PlannedCache`.  The oracle here is built
from :func:`enumerate_subsets` and the documented byte offset
``(rank(T) * copies + l - 1) * size``, never from the cache's own tables.
"""

import dataclasses
import gc
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

import relaycache
from relaycache import harness
from relaycache.combinatorics import enumerate_subsets
from relaycache.schemes import (
    FileLibrary,
    cmcnc_decode,
    cmcnc_deliver,
    cmcnc_place,
    distinct_demand,
    proposed_decode,
    proposed_deliver,
    proposed_place,
    random_library,
)
from relaycache.schemes import common, proposed
from relaycache.topology import BudgetError, affine_plane, combination_network

# placement -> (place, candidates, copies, label): the three facts that
# define it, read from the network alone.
PLACEMENTS = {
    "proposed": (
        proposed_place,
        lambda net: net.num_classes,
        lambda net: net.r,
        lambda net: net.class_of,
    ),
    "cmcnc": (cmcnc_place, lambda net: net.K, lambda net: 1, lambda net: range(1, net.K + 1)),
}

# placement -> (deliver, decode) of the scheme that places with it.
PIPELINES = {
    "proposed": (proposed_deliver, proposed_decode),
    "cmcnc": (cmcnc_deliver, cmcnc_decode),
}

NETWORKS = {
    "comb:4,2": lambda: combination_network(4, 2),
    "comb:6,3": lambda: combination_network(6, 3),
    "affine:3": lambda: affine_plane(3),
}

N_FILES = 2
# Keys times users checked at one grid t.  cmcnc on comb(6,3) has C(20, t)
# subsets at t, 2^20 over its grid, more than a unit test can visit; within
# this budget it checks both ends of its grid, t <= 2 and t >= 18.  Every
# other case checks every grid t.
KEY_BUDGET = 40_000


def placed(name, net, t):
    """(cache, library, label, copies, subsets, size) of placement ``name``
    on ``net`` at grid point t, with 2-byte units of the cmcnc split."""
    place, candidates, copies, label = PLACEMENTS[name]
    n, r = candidates(net), copies(net)
    lib = random_library(N_FILES, net.r * comb(n, t) * 2, seed=1000 * n + t)
    cache = place(net, lib, Fraction(t * N_FILES, n))
    size = lib.file_bytes // (r * comb(n, t))
    return cache, lib, label(net), r, enumerate_subsets(n, t), size


def grid(name, net):
    _, candidates, copies, _ = PLACEMENTS[name]
    n = candidates(net)
    return [
        t for t in range(n + 1) if net.K * N_FILES * copies(net) * comb(n, t) <= KEY_BUDGET
    ]


@pytest.mark.parametrize("topology", NETWORKS)
@pytest.mark.parametrize("name", PLACEMENTS)
def test_every_key_against_the_oracle(name, topology):
    net = NETWORKS[topology]()
    candidates = PLACEMENTS[name][1](net)
    points = grid(name, net)
    assert points[0] == 0 and points[-1] == candidates
    for t in points:
        cache, lib, label, copies, subsets, size = placed(name, net, t)
        assert cache.plan.t == t and cache.subfile_bytes == size
        assert list(cache.label) == list(label)
        # The row every read is checked against is 1 exactly at the items
        # rank(T) * copies of the T that contain the candidate: M * F bits.
        M = Fraction(t * N_FILES, candidates)
        for c in range(candidates):
            row = cache.plan.holds[c]
            assert row == bytes(c + 1 in T and l == 0 for T in subsets for l in range(copies))
            assert row.count(1) * copies * N_FILES * size * 8 == M * lib.file_bits
        # Every key is read once through gather, by a user whose candidate is
        # its first; at t = 0 no user caches anything.
        reader = {}
        for u in range(net.K):
            reader.setdefault(label[u], u)
        for q, T in enumerate(subsets if t else []):
            u = reader[T[0]]
            for n in range(1, N_FILES + 1):
                for l in range(1, copies + 1):
                    at = (q * copies + l - 1) * size
                    got = cache.gather(u, [n], [l], range(1), [q * copies])
                    assert got == lib.file(n)[at : at + size]
            # Off the library or the copies, nothing is cached.
            for n, l in [(0, 1), (N_FILES + 1, 1), (1, 0), (1, copies + 1)]:
                with pytest.raises(KeyError):
                    cache.gather(u, [n], [l], range(1), [q * copies])


def ranks(name, net, t):
    """(cache, user, held, lacked) at grid point t: the ranks of the first T
    that holds the user's candidate and of the first that lacks it."""
    cache, _, label, _, subsets, _ = placed(name, net, t)
    u = net.K - 1
    held = next(q for q, T in enumerate(subsets) if label[u] in T)
    lacked = next(q for q, T in enumerate(subsets) if label[u] not in T)
    return cache, u, held, lacked


@pytest.mark.parametrize("name", PLACEMENTS)
@pytest.mark.parametrize("t", [1, 2])
def test_an_uncached_read_is_refused_before_any_byte(name, t, monkeypatch):
    cache, u, held, lacked = ranks(name, combination_network(4, 2), t)
    views = {id(view) for per_copy in cache.views for view in per_copy}
    read = []
    kernel = common.gather

    def spy(sources, *args):
        read.extend(id(source) for source in sources if id(source) in views)
        return kernel(sources, *args)

    monkeypatch.setattr(common, "gather", spy)
    assert cache.gather(u, [1], [1], range(1), [held * cache.plan.copies])
    assert read, "the spy saw no read of a cached subfile"
    read.clear()
    with pytest.raises(KeyError, match=re.escape(f"user {u} does not cache (2, ")):
        cache.gather(u, [1, 2], [1, 1], range(2), [q * cache.plan.copies for q in (held, lacked)])
    assert not read, "a file was read before the membership check"


@pytest.mark.parametrize("name", PLACEMENTS)
def test_a_copy_shares_the_plan(name, monkeypatch):
    # A copy of a placement over another library reads through the same
    # tables: once the original has decoded, the copy builds none.
    built = []
    for table in ("enumerate_subsets", "combinations"):
        real = getattr(common, table)
        monkeypatch.setattr(
            common, table, lambda *a, _real=real, _table=table: built.append(_table) or _real(*a)
        )
    net = combination_network(4, 2)
    cache, lib, *_ = placed(name, net, 1)
    other = random_library(N_FILES, lib.file_bytes, seed=7)
    copy = dataclasses.replace(cache, lib=other)
    assert copy.plan is cache.plan
    deliver, decode = PIPELINES[name]
    demand = tuple(u % N_FILES + 1 for u in range(net.K))
    u = net.K - 1
    log = deliver(net, cache, demand)
    assert decode(net, u, cache, demand, log.to_user(u)) == lib.file(demand[u])
    assert built, "the spy saw no table built"
    built.clear()
    log = deliver(net, copy, demand)
    assert decode(net, u, copy, demand, log.to_user(u)) == other.file(demand[u])
    assert built == [], f"the copy built {built}"


@pytest.mark.parametrize("name", PLACEMENTS)
def test_both_placements_are_one_cache_type(name):
    # The facts that set the placements apart are data of the one cache:
    # each user's candidate, and the MDS code that only cmcnc spreads by.
    net = combination_network(4, 2)
    place, _, _, label = PLACEMENTS[name]
    cache = place(net, random_library(6, 60, seed=1), 2)
    assert type(cache) is common.PlannedCache
    assert cache.label == label(net)
    assert (cache.code is not None) == (name == "cmcnc")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_layout_outside_the_cache_is_refused_when_built(flags):
    # The last class's missing ranks lose their first, so its layout would
    # read that T's subfiles from the file; the table must not be built,
    # also under python -O, which strips assert statements.
    script = (
        "from relaycache.schemes import proposed_place, random_library\n"
        "from relaycache.topology import combination_network\n"
        "plan = proposed_place(combination_network(4, 2), random_library(6, 60, seed=1), 2).plan\n"
        "missing = [list(ranks) for ranks in plan.missing]\n"
        "del missing[-1][0]\n"
        "plan.__dict__['missing'] = missing\n"
        "try:\n"
        "    plan.layouts\n"
        "except KeyError as exc:\n"
        "    print('refused', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(relaycache.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "refused 'the layout of candidate 3 reads a subfile it does not cache'\n"


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_decoder_outside_the_cache_is_refused_when_built(flags):
    # With the two rest columns swapped, each signal's term for the other
    # member is the subfile of C minus the decoder's own class, one it does
    # not cache; the table must not be built, also under python -O.
    script = (
        "from relaycache.schemes import proposed_place, random_library\n"
        "from relaycache.topology import combination_network\n"
        "plan = proposed_place(combination_network(4, 2), random_library(6, 60, seed=1), 2).plan\n"
        "plan.__dict__['rest'] = plan.rest[::-1]\n"
        "try:\n"
        "    plan.decoders\n"
        "except KeyError as exc:\n"
        "    print('refused', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(relaycache.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "refused 'the decoder of candidate 1 reads a subfile it does not cache'\n"


@pytest.mark.parametrize("files", [None, [0, 1, 1], [1, 1, 7]])
def test_a_decoder_read_checks_its_sources_as_gather_does(files):
    # The decoder table skips the membership scan, not the file and copy
    # checks: out of range, it fails exactly as the full check does.
    net = combination_network(4, 2)
    cache = proposed_place(net, random_library(6, 60, seed=1), 2)
    demand = distinct_demand(net, 6)
    for u in range(net.K):
        _, which, items = cache.plan.decoders[cache.label[u] - 1]
        for i in net.users[u]:
            sources = proposed._neighbors_of(net, demand, i)
            if files is None:
                assert cache.cancelled(u, *sources) == cache.gather(u, *sources, which, items)
                continue
            sources = (files, sources[1])
            with pytest.raises((KeyError, IndexError)) as full:
                cache.gather(u, *sources, which, items)
            with pytest.raises(full.type, match=re.escape(str(full.value))):
                cache.cancelled(u, *sources)


def test_the_plan_keeps_little_after_a_cmcnc_run():
    # cmcnc on comb(6,2) at N = 50, M = 20, the largest plan of the sweep
    # benchmark: Plan(15, 6, 1), 5,005 subsets and 6,435 signals.  What the
    # placement keeps once every user has decoded is its plan's tables.
    net, n_files, M = combination_network(6, 2), 50, 20
    lib = random_library(n_files, harness.auto_file_bytes(net, n_files, [M], ["cmcnc"]), seed=5)
    demand = tuple(u % n_files + 1 for u in range(net.K))
    tracemalloc.start()
    try:
        cache = cmcnc_place(net, lib, M)
        log = cmcnc_deliver(net, cache, demand)
        for u in range(net.K):
            assert cmcnc_decode(net, u, cache, demand, log.to_user(u)) == lib.file(demand[u])
        del log
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 3.5e6, f"the placement keeps {kept} bytes"
    assert "subsets" not in vars(cache.plan)


def test_an_oversized_plan_is_refused_before_it_is_built():
    # comb(12,6) has 462 classes and r = 6: at t = 2 its plan would index
    # 462 * 6 * C(462, 2) = 295,193,052 slots.  The cap comes before the
    # subpacketization check, which these 1-byte files fail.
    net = combination_network(12, 6)
    lib = FileLibrary((b"x",) * 462)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="295193052 slots, more than the cap of 4194304"):
        proposed_place(net, lib, 2)
    assert time.perf_counter() - start < 0.5
    # The largest plan built elsewhere, the one-shot cmcnc run on comb(8,2)
    # at N = 28, M = 4, has 28 * C(28, 4) = 573,300 slots and is admitted.
    net = combination_network(8, 2)
    lib = random_library(28, harness.auto_file_bytes(net, 28, [4], ["cmcnc"]), seed=1)
    assert cmcnc_place(net, lib, 4).plan == common.Plan(28, 4, 1)


@pytest.mark.parametrize(
    "scheme,M,slots",
    [("proposed", 2, 295_193_052), ("routing", 2, 295_193_052), ("cmcnc", 1, 394_017_624)],
)
def test_the_preflight_refuses_what_placement_refuses(scheme, M, slots):
    # comb(12,6) with N = 462: t = 2 over the 462 classes, or over the 924
    # users, from sizes alone; placement on 1-byte files says the same.
    net, N = combination_network(12, 6), 462
    with pytest.raises(BudgetError, match=f"needs {slots} slots") as early:
        harness.preflight(net, N, 1, [("broadcast-mds", M), (scheme, M)])
    place = getattr(harness, harness.SCHEMES[scheme].place)
    with pytest.raises(BudgetError) as late:
        place(net, FileLibrary((b"x",) * N), M)
    assert str(early.value) == str(late.value)


@pytest.mark.parametrize("scheme", ["proposed", "routing", "cmcnc"])
@pytest.mark.parametrize("net", [combination_network(4, 2), combination_network(6, 3)], ids=["comb42", "comb63"])
def test_the_preflight_counts_the_copies_the_plan_holds(net, scheme):
    N = net.num_classes
    harness.preflight(net, N, 1, [(scheme, 1)])
    lib = random_library(N, harness.auto_file_bytes(net, N, [1], [scheme]), seed=1)
    cache = getattr(harness, harness.SCHEMES[scheme].place)(net, lib, 1)
    assert cache.plan.copies == harness.SCHEMES[scheme].copies(net.r)


def test_the_slot_cap_is_inclusive():
    common.check_plan_slots(2**21, 0, 2, "K")  # exactly PLAN_SLOTS_CAP
    with pytest.raises(BudgetError, match="4194305 slots"):
        common.check_plan_slots(2**22 + 1, 0, 1, "K")


# scheme -> the tables of its plan that it never reads, so never builds.
UNREAD = {
    "proposed": {"subsets", "missing_names"},
    "cmcnc": {"subsets", "missing", "missing_names", "layouts", "decoders"},
    "routing": {"subsets", "names", "member", "rest", "at", "signal_terms", "receives", "decoders"},
}


@pytest.mark.parametrize("scheme", UNREAD)
def test_a_scheme_builds_only_the_tables_it_reads(scheme):
    net, n_files, M = combination_network(4, 2), 6, 2
    lib = random_library(n_files, harness.auto_file_bytes(net, n_files, [M], [scheme]), seed=3)
    cache, deliver, decode = harness._pipeline(net, lib, M, scheme, None)
    demand = distinct_demand(net, n_files)
    log = deliver(demand)
    for u in range(net.K):
        assert decode(u, demand, log.to_user(u)) == lib.file(demand[u])
    built = vars(cache.plan).keys()
    assert "holds" in built and not UNREAD[scheme] & built, sorted(built)


def test_the_check_survives_optimized_python():
    # python -O strips assert statements; the check must not be one.
    script = (
        "from relaycache.schemes import cmcnc_place, proposed_place, random_library\n"
        "from relaycache.topology import combination_network\n"
        "net = combination_network(4, 2)\n"
        "lib = random_library(6, 60, seed=1)\n"
        "for place in (proposed_place, cmcnc_place):\n"
        "    cache = place(net, lib, 2)\n"
        "    u = net.K - 1\n"
        "    q = cache.plan.missing[cache.label[u] - 1][0]\n"
        "    try:\n"
        "        cache.gather(u, [1], [1], range(1), [q * cache.plan.copies])\n"
        "    except KeyError as exc:\n"
        "        print('refused', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(relaycache.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2 and all(line.startswith("refused") for line in lines), out.stdout
