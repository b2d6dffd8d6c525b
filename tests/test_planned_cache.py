"""The one cache of both coded schemes, under both placements.

``proposed`` caches over the Kt parallel classes with r copies of each
subset, ``cmcnc`` over the K users with one copy; both through
:class:`relaycache.schemes.plan.PlannedCache`.  The oracle here is built
from :func:`enumerate_subsets` and the documented byte offset
``(rank(T) * copies + l - 1) * size``, never from the cache's own tables.
"""

import dataclasses
import gc
from array import array
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
    GridError,
    IncompleteReceptionError,
    cmcnc_decode,
    cmcnc_deliver,
    cmcnc_place,
    distinct_demand,
    proposed_decode,
    proposed_deliver,
    proposed_place,
    random_library,
)
from relaycache.schemes import plan, proposed
from relaycache.topology import BudgetError, affine_plane, combination_network
from support import checked_read

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
            held = [q for q, T in enumerate(subsets) if c + 1 in T]
            assert list(cache.plan.held[c]) == held
        # Each user's own read gives copy 1 of every subfile it caches.
        for u in range(net.K):
            for n in range(1, N_FILES + 1):
                own = [(q * copies) * size for q, T in enumerate(subsets) if label[u] in T]
                assert cache.cached(u, n) == b"".join(lib.file(n)[a : a + size] for a in own)
        # Every key is read once through the oracle read, by a user whose
        # candidate is its first; at t = 0 no user caches anything.
        reader = {}
        for u in range(net.K):
            reader.setdefault(label[u], u)
        for q, T in enumerate(subsets if t else []):
            u = reader[T[0]]
            for n in range(1, N_FILES + 1):
                for l in range(1, copies + 1):
                    at = (q * copies + l - 1) * size
                    got = checked_read(cache, u, [n], [l], range(1), [q * copies])
                    assert got == lib.file(n)[at : at + size]
            # Off the library or the copies, nothing is cached.
            for n, l in [(0, 1), (N_FILES + 1, 1), (1, 0), (1, copies + 1)]:
                with pytest.raises(KeyError):
                    checked_read(cache, u, [n], [l], range(1), [q * copies])


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
    # Term 1 of signal 0 moved to the first T that lacks member 0's
    # candidate: that member would cancel a subfile it does not cache.  The
    # plan refuses before the engine reads a byte; a fresh placement reads.
    net = combination_network(4, 2)
    cache, lib, *_ = placed(name, net, t)
    deliver, decode = PIPELINES[name]
    demand = tuple(u % N_FILES + 1 for u in range(net.K))
    log = deliver(net, cache, demand)
    assert "views" in vars(cache) or "ints" in vars(cache)
    cache = dataclasses.replace(cache, plan=plan.Plan(*dataclasses.astuple(cache.plan)))
    p = cache.plan
    owner = p.member[0][0]
    rest = [list(column) for column in p.rest]
    rest[1][0] = next(q for q, row in enumerate(p.holds[owner][:: p.copies]) if not row)
    p.__dict__["rest"] = rest
    with pytest.raises(KeyError, match="term 1 of a signal is not the subfile of C minus its member"):
        deliver(net, cache, demand)
    for u in range(net.K):
        with pytest.raises(KeyError, match="term 1 of a signal"):
            decode(net, u, cache, demand, log.to_user(u))
    assert "views" not in vars(cache) and "ints" not in vars(cache)


@pytest.mark.parametrize("name", PLACEMENTS)
def test_a_copy_shares_the_plan(name, monkeypatch):
    # A copy of a placement over another library reads through the same
    # tables: once the original has decoded, the copy builds none.
    built = []
    real = plan.combinations
    monkeypatch.setattr(plan, "combinations", lambda *a: built.append("combinations") or real(*a))
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
    assert type(cache) is plan.PlannedCache
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
    # not cache; the plan's proof refuses it before any decoder reads, also
    # under python -O.
    script = (
        "from relaycache.schemes import distinct_demand, proposed_decode, proposed_deliver, proposed_place, random_library\n"
        "from relaycache.topology import combination_network\n"
        "net = combination_network(4, 2)\n"
        "lib = random_library(6, 60, seed=1)\n"
        "demand = distinct_demand(net, 6)\n"
        "log = proposed_deliver(net, proposed_place(net, lib, 2), demand)\n"
        "cache = proposed_place(net, lib, 2)\n"
        "cache.plan.__dict__['rest'] = cache.plan.rest[::-1]\n"
        "try:\n"
        "    proposed_decode(net, 0, cache, demand, log.to_user(0))\n"
        "except KeyError as exc:\n"
        "    print('refused', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(relaycache.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "refused 'term 0 of a signal is not the subfile of C minus its member'\n"


def test_the_cached_ranks_are_checked_against_the_row_when_built(monkeypatch):
    # A table of cached ranks one off from the row is refused, once, when
    # built, so the reads by it need no membership scan.
    plan_ = cmcnc_place(combination_network(4, 2), random_library(6, 30, seed=1), 2).plan
    real = plan.compress
    monkeypatch.setattr(plan, "compress", lambda data, row: real(data, row[1:] + row[:1]))
    with pytest.raises(KeyError, match="the cached ranks of candidate 1 name a subfile it does not cache"):
        plan_.held


def test_a_decoder_reading_a_signal_no_relay_forwards_is_refused():
    # Without one of the positions a relay forwards to class 1, its users
    # would read a signal the relay does not pick for them: each read is
    # checked against the picks, and the first one missing is named.
    net = combination_network(4, 2)
    cache = proposed_place(net, random_library(6, 60, seed=1), 2)
    receives = list(cache.plan.receives)
    dropped, receives[0] = receives[0][0], receives[0][1:]
    cache.plan.__dict__["receives"] = receives
    demand = distinct_demand(net, 6)
    log = proposed_deliver(net, cache, demand)
    for u in range(net.K):
        if cache.label[u] != 1:
            assert proposed_decode(net, u, cache, demand, log.to_user(u)) == cache.lib.file(demand[u])
            continue
        label = re.escape(f"prop:i={net.users[u][0]}:C={cache.plan.names[dropped]}")
        with pytest.raises(IncompleteReceptionError, match=f"did not receive '{label}'"):
            proposed_decode(net, u, cache, demand, log.to_user(u))


# (candidates, t): both ends of the grid, the middle, the largest plan of the
# sweep benchmark, and masks wider than any array item.
CANCELLING = [(6, 0), (6, 1), (6, 2), (6, 5), (15, 6), (70, 2), (70, 68)]


@pytest.mark.parametrize("n,t", CANCELLING)
def test_the_cancellation_proof_holds_and_at_lists_each_members_signals(n, t):
    p = plan.Plan(n, t, 1)
    assert p.cancelling is p.at
    for j, column in enumerate(p.member):
        assert list(map(list, p.at[j])) == [[s for s, m in enumerate(column) if m == c] for c in range(n)]


@pytest.mark.parametrize("n,t", [case for case in CANCELLING if 0 < case[1] < case[0] - 1])
@pytest.mark.parametrize("table", ["member", "rest"])
@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("term,signal", [(0, 0), (-1, 0.5), (-1, -1)])
def test_the_cancellation_proof_refuses_an_entry_one_off(n, t, table, delta, term, signal):
    # One entry of a built table one off, at the first, a middle or the last
    # signal, of the first or last term: the plan refuses it, off the table
    # too, before a decoder could read by it.
    p = plan.Plan(n, t, 1)
    p.rest, p.at
    columns = [list(column) for column in getattr(p, table)]
    column = columns[term]
    column[int(signal * len(column)) if signal != -1 else -1] += delta
    p.__dict__[table] = columns
    with pytest.raises(KeyError, match="term [0-9]+ of a signal"):
        p.cancelling


def test_the_cancellation_proof_refuses_a_member_twice():
    # Term 1 made a copy of term 0: every term is still C minus its member,
    # but the member at position 1 would cancel its own subfile.
    p = plan.Plan(6, 2, 1)
    member, rest = p.member, p.rest
    p.__dict__["member"] = [member[0], list(member[0]), member[2]]
    p.__dict__["rest"] = [rest[0], list(rest[0]), rest[2]]
    with pytest.raises(KeyError, match=r"the members of a signal are not its t \+ 1 candidates"):
        p.cancelling


@pytest.mark.parametrize("files", [None, [0, 1, 1], [1, 1, 7]])
def test_a_decoder_read_checks_its_sources_as_gather_does(files, monkeypatch):
    # The engine skips the membership scan, not the file and copy checks:
    # out of range, it fails as PlannedCache.sources does, before any byte
    # is read.  In range, each cancellation is the XOR of the terms that the
    # member reads through the oracle read.
    net = combination_network(4, 2)
    cache = proposed_place(net, random_library(6, 60, seed=1), 2)
    demand = distinct_demand(net, 6)
    sources = proposed._sources(net, demand)
    plan_, size = cache.plan, cache.subfile_bytes
    if files is not None:
        bad = [*sources[:-1], (files, sources[-1][1])]
        plan_.cancelling  # the proof reads its own masks, no file
        read = []
        monkeypatch.setattr(plan, "gather", lambda *args: read.append(args))
        with pytest.raises(IndexError) as full:
            cache.sources(*bad[-1])
        with pytest.raises(IndexError, match=re.escape(str(full.value))):
            cache.multicast(demand, lambda demand: bad)
        assert not read and cache.served == [None] * 2
        return
    multicasts = cache.multicast(demand, lambda demand: sources)
    for u in range(net.K):
        groups, signals, _ = plan_.receiving(cache.label[u] - 1)
        for i in net.users[u]:
            _, _, cancels = multicasts[i - 1]
            for p, group, _ in groups:
                for s in group:
                    others = [q for q in range(plan_.t + 1) if q != p]
                    which = [plan_.member[q][s] for q in others]
                    items = [plan_.rest[q][s] * plan_.copies for q in others]
                    terms = checked_read(cache, u, *sources[i - 1], which, items)
                    cancel = int.from_bytes(cancels[p][s * size : (s + 1) * size], "big")
                    xored = 0
                    for k in range(0, len(terms), size):
                        xored ^= int.from_bytes(terms[k : k + size], "big")
                    assert cancel == xored


# What the tables of Plan(15, 6, 1), the largest plan of the sweep benchmark
# (cmcnc on comb(6,2) at N = 50, M = 20), kept when they were lists of ints,
# in bytes by tracemalloc on CPython 3.11 (x86-64), and the transient of the
# cancellation proof over them.  holds and held are built together, as the
# rows give the held ranks.  names, a list of str, is held as it was.
LIST_TABLES_KEPT = {
    ("holds", "held"): 205_066,
    ("member",): 564_176,
    ("rest",): 525_056,
    ("at",): 565_872,
    ("receives",): 361_360,
    ("missing",): 542_896,
    ("layouts",): 384_700,
}
LIST_PROOF_PEAK = 402_102
LIST_SIGNAL_TABLES_KEPT = 1_653_520  # member, rest and at


def least_item_size(top):
    return next(size for size in (1, 2, 4, 8) if top < 256**size)


def test_the_plan_tables_are_compact_unsigned_columns():
    # Every integer column of the plan is bytes or an unsigned array, of the
    # least item size that holds the largest value of its table.
    p = plan.Plan(15, 6, 1)
    tables = {
        "member": p.member,
        "rest": p.rest,
        "terms": p.terms,
        "at": [column for groups in p.at for column in groups],
        "held": p.held,
        "missing": p.missing,
        "receives": p.receives,
        "layouts index": [index for _, index in p.layouts],
        "layouts which": [which for which, _ in p.layouts],
    }
    for name, columns in tables.items():
        top = max(max(column, default=0) for column in columns)
        for column in columns:
            assert isinstance(column, bytes) or (isinstance(column, array) and column.typecode in "BHIQ"), name
            size = 1 if isinstance(column, bytes) else column.itemsize
            assert size == least_item_size(top), (name, size, top)
    # Candidates up to 14, ranks of T up to 5,004 and signals up to 6,434.
    assert isinstance(p.member[0], bytes) and p.rest[0].typecode == p.at[0][0].typecode == "H"


@pytest.mark.parametrize(
    "top,code",
    [
        (0, "B"),
        (255, "B"),  # n = 256 candidates
        (256, "H"),  # n = 257
        (65_535, "H"),
        (65_536, "I"),
        (2**32 - 1, "I"),
        (2**32, "Q"),
        (2**64, None),
    ],
)
def test_the_column_size_rule_at_its_boundaries(top, code):
    # The rule is called directly: no plan this large is built.
    assert plan.column_code(top) == code
    if code is None:
        return
    values = [0, 1, top // 2, top]
    column = plan.column(top, iter(values))
    assert list(column) == values
    assert (type(column), getattr(column, "typecode", "B")) == ((bytes, "B") if code == "B" else (array, code))


def test_the_signal_tables_keep_a_quarter_and_no_build_peaks_above_the_lists():
    # ROADMAP item 6 on Plan(15, 6, 1): member, rest and at keep at most a
    # quarter of what their lists kept, and no table needs more at its peak
    # than its lists kept; the proof needs no more than it did.
    def traced(p, tables):
        gc.collect()
        tracemalloc.start()
        try:
            for table in tables:
                getattr(p, table)
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    kept, _ = traced(plan.Plan(15, 6, 1), ["member", "rest", "at"])
    assert kept <= LIST_SIGNAL_TABLES_KEPT / 4, kept
    needs = {"rest": ["member"], "at": ["member"], "receives": ["at"], "missing": ["holds"], "layouts": ["missing", "holds"]}
    peaks = {}
    for tables, budget in LIST_TABLES_KEPT.items():
        p = plan.Plan(15, 6, 1)
        for table in needs.get(tables[0], []):
            getattr(p, table)
        peaks[tables] = traced(p, tables)[1]
    assert all(peaks[tables] <= budget for tables, budget in LIST_TABLES_KEPT.items()), peaks
    p = plan.Plan(15, 6, 1)
    p.member, p.rest, p.at
    _, proof = traced(p, ["cancelling"])
    assert proof <= LIST_PROOF_PEAK, proof


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


def test_the_int_forms_cover_the_demanded_files_and_go_with_the_placement():
    # comb(6,2) at N = 10, M = 4 (Kt = 5, t = 2, r = 2): 20 subfiles of 4 kB
    # per file, on the int path.  A demand of files 3 and 7 alone builds the
    # int forms of those two files, at most 1.2 times their bytes, and none
    # of them outlives the placement.
    net, n_files, M = combination_network(6, 2), 10, 4
    lib = random_library(n_files, 20 * 4096, seed=7)
    demand = tuple(3 if u % 2 else 7 for u in range(net.K))
    proposed_deliver(net, proposed_place(net, lib, M), demand)  # the network's own tables
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        cache = proposed_place(net, lib, M)
        assert cache.subfile_bytes >= plan._INT_BYTES
        log = proposed_deliver(net, cache, demand)
        for u in range(net.K):
            assert proposed_decode(net, u, cache, demand, log.to_user(u)) == lib.file(demand[u])
        del log
        # The last multicast refers to the term ints; it goes first.
        assert all(ints is not None for _, ints, _ in cache.served[1])
        del vars(cache)["served"]
        gc.collect()
        with_ints, _ = tracemalloc.get_traced_memory()
        built = [n for n, ints in enumerate(cache.ints, 1) if ints is not None]
        del vars(cache)["ints"]
        gc.collect()
        without, _ = tracemalloc.get_traced_memory()
        del cache
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built == [3, 7]
    held = with_ints - without
    assert 2 * lib.file_bytes <= held <= 1.2 * 2 * lib.file_bytes, held
    assert after - base <= 1024, after - base


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
    assert cmcnc_place(net, lib, 4).plan == plan.Plan(28, 4, 1)


@pytest.mark.parametrize(
    "scheme,M,slots",
    [
        ("proposed", 2, 295_193_052),
        ("routing", 2, 295_193_052),
        ("cmcnc", 1, 394_017_624),
        *(pytest.param(s, Fraction(1, 4), None, id=f"{s}-off-grid") for s in ("proposed", "routing", "cmcnc")),
    ],
)
def test_the_preflight_refuses_what_placement_refuses(scheme, M, slots):
    # comb(12,6) with N = 462: t = 2 over the 462 classes, or over the 924
    # users, from sizes alone; placement on 1-byte files says the same.  At
    # M = 1/4, t is 1/4 or 1/2: both refuse it off the grid first.
    net, N = combination_network(12, 6), 462
    grid = harness.SCHEMES[scheme].grid
    error, match = (BudgetError, f"needs {slots} slots") if slots else (GridError, f"N/{grid} = ")
    with pytest.raises(error, match=match) as early:
        harness.preflight(net, N, 1, [("broadcast-mds", M), (scheme, M)])
    place = getattr(harness, harness.SCHEMES[scheme].place)
    with pytest.raises(error) as late:
        place(net, FileLibrary((b"x",) * N), M)
    assert str(early.value) == str(late.value)


@pytest.mark.parametrize("scheme", ["proposed", "routing", "cmcnc"])
@pytest.mark.parametrize("net", [combination_network(4, 2), combination_network(6, 3)], ids=["comb42", "comb63"])
def test_the_preflight_counts_the_copies_the_plan_holds(net, scheme):
    # The preflight and the placement size one plan, by one rule: grid_plan.
    N, spec = net.num_classes, harness.SCHEMES[scheme]
    harness.preflight(net, N, 1, [(scheme, 1)])
    lib = random_library(N, harness.auto_file_bytes(net, N, [1], [scheme]), seed=1)
    cache = getattr(harness, spec.place)(net, lib, 1)
    assert cache.plan == plan.grid_plan(net, N, 1, spec.grid)


def test_the_slot_cap_is_inclusive():
    plan.check_plan_slots(2**21, 0, 2, "K")  # exactly PLAN_SLOTS_CAP
    with pytest.raises(BudgetError, match="4194305 slots"):
        plan.check_plan_slots(2**22 + 1, 0, 1, "K")


# scheme -> the tables of its plan that it never reads, so never builds.
UNREAD = {
    "proposed": {"missing_names"},
    "cmcnc": {"missing", "missing_names", "layouts"},
    "routing": {"names", "member", "rest", "terms", "at", "receives"},
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
    # python -O strips assert statements; the plan's proof must not be one.
    # Term 1 of signal 0 moved to a T without member 0 is refused when
    # either placement delivers.
    script = (
        "from relaycache.schemes import cmcnc_deliver, cmcnc_place, proposed_deliver, proposed_place, random_library\n"
        "from relaycache.topology import combination_network\n"
        "net = combination_network(4, 2)\n"
        "lib = random_library(6, 60, seed=1)\n"
        "for place, deliver in ((proposed_place, proposed_deliver), (cmcnc_place, cmcnc_deliver)):\n"
        "    cache = place(net, lib, 2)\n"
        "    p = cache.plan\n"
        "    rest = [list(column) for column in p.rest]\n"
        "    rest[1][0] = p.missing[p.member[0][0]][0]\n"
        "    p.__dict__['rest'] = rest\n"
        "    try:\n"
        "        deliver(net, cache, (1, 2, 3, 4, 5, 6))\n"
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
