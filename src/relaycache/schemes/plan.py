"""The XOR-multicast plan and the one cache of both coded schemes.

Both coded schemes run the coded multicast of Maddah-Ali and Niesen
("Fundamental limits of caching", IEEE Trans. IT 2014) over the candidates
of their grid in :data:`GRIDS`: ``proposed`` once per relay over "Kt",
``cmcnc`` once over "K".  Both place files with :func:`place_planned` into
the one cache here, :class:`PlannedCache`, keyed by subfile ``(n, T, l)``.
Its :class:`Plan` (candidates, t, copies) holds every index table of the
multicast, each built on first use, and every copy of the placement reads
through that one plan.  The rest of a placement is data: ``label``, each
user's candidate, and ``code``, the MDS code that spreads ``cmcnc``'s
signals over the relays.  ``broadcast-mds`` keys its ``PrefixCache`` by
file id.

Both schemes send and decode through one engine.  A signal XORs t+1 terms,
so the member at position p of a signal cancels one thing, the XOR of every
term but its own.  :meth:`PlannedCache.multicast` builds, per multicast,
the signals that delivery sends and those cancellations, for the last call
only; a decoder XORs them away from its feed with
:meth:`PlannedCache.cancel`.  The plan proves once, over bitmasks, that
every term a member cancels so is a subfile it caches
(:attr:`Plan.cancelling`), and raises ``KeyError`` before any byte is read
if not, so no read is checked one by one.  One constant,
:data:`_INT_BYTES`, picks the engine's form by subfile size: joined blocks
below it, and from it on the int forms of the subfiles, which the
placement keeps (:attr:`PlannedCache.ints`).

Cache objects are lazy views over the library: no subfile is copied.  What
a candidate caches is one byte row, :attr:`Plan.holds`.  The tables by
which a decoder reads its cached subfiles (:attr:`Plan.held`,
:attr:`Plan.layouts`) are checked against the row by one rule,
:func:`holds_all`, once, when they are built, and their reads skip that
scan.  The ints and the last multicast come from the placement's own
library, so they live on the placement, never on the plan.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, combinations, compress, repeat
from math import comb
from operator import add, itemgetter, sub, xor
from typing import Callable, Iterable, Sequence

from ..erasure import ErasureCode, xor_bytes
from ..topology import BudgetError, Network
from .common import (
    FileLibrary,
    SubpacketizationError,
    _negative,
    as_items,
    gather,
    holds_all,
    in_range,
    pick,
)


# Most subfile slots a placement's plan may index, candidates * copies * C(n, t):
# the bytes of its rows (Plan.holds), and at least the entries of each signal
# table, as (t + 1) * C(n, t + 1) <= n * C(n, t).
PLAN_SLOTS_CAP = 2**22


_INT_BYTES = 256
"""Subfiles of at least this many bytes are XORed as the placement's int
forms, one int per subfile; smaller ones as joined blocks.  The one switch
between the two forms of :meth:`PlannedCache.multicast`, for both schemes.

The int form takes a few Python-level steps per signal, the block form a
few per multicast plus a conversion of every term on every demand.  Timed
for ``proposed`` on CPython 3.11 (x86-64) over every grid M of comb(6,2) at
N = 10 and of comb(9,3) at N = 28 (M = 2, 26), with 20 demands served per
placement, the int form takes 1.1x-1.3x the time of the blocks at 128
bytes, 1.04x-1.12x at 192, 0.93x at 256, 0.82x-0.96x at 384 and 0.69x at 4
kB.  With one demand per placement it breaks even between 384 bytes and 1
kB.
"""


# What a coded scheme's grid symbol means, from K, Kt and r: (candidates,
# copies of each t-subset).  "Kt": the parallel classes, one copy per relay
# of a user (proposed, routing); "K": the users, one copy (cmcnc).
GRIDS = {"Kt": lambda K, kt, r: (kt, r), "K": lambda K, kt, r: (K, 1)}


class GridError(ValueError):
    """Storage size M is off the scheme's memory grid (t would be fractional)."""


def grid_t(n: int, n_files: int, M, symbol: str) -> int:
    """Replication degree t = n*M/N over ``n`` sharing candidates (Kt classes
    or K users, named ``symbol`` in the message); GridError off the grid."""
    t = Fraction(M) * n / n_files
    if t.denominator != 1 or not 0 <= t <= n:
        step = Fraction(n_files, n)
        raise GridError(
            f"M={M} is not a multiple of N/{symbol} = {step} within [0, {n_files}]"
        )
    return int(t)


def grid_points(n: int, n_files: int) -> list[Fraction]:
    """The storage sizes M = j*N/n, j = 0..n, where :func:`grid_t` gives t = j."""
    return [Fraction(j * n_files, n) for j in range(n + 1)]


def grid_units(r: int, n: int, t: int) -> int:
    """The r * C(n, t) whole-byte units a file splits into at t over n
    candidates: r copies of each subfile ("Kt"), or r parts of each ("K")."""
    return r * comb(n, t)


def grid_plan(net: Network, n_files: int, M, grid: str) -> Plan:
    """The :class:`Plan` of ``grid`` at storage M, with no table built:
    GridError from :func:`grid_t`, then BudgetError from :func:`check_plan_slots`."""
    n, copies = GRIDS[grid](net.K, net.num_classes, net.r)
    t = grid_t(n, n_files, M, grid)
    check_plan_slots(n, t, copies, grid)
    return Plan(n, t, copies)


def check_plan_slots(n: int, t: int, copies: int, symbol: str) -> None:
    """BudgetError if a plan over ``n`` candidates (named ``symbol`` in the
    message) with ``copies`` copies of each t-subset would index more than
    PLAN_SLOTS_CAP slots, n * copies * C(n, t); it counts from binomials."""
    slots = n * copies * comb(n, t)
    if slots > PLAN_SLOTS_CAP:
        raise BudgetError(
            f"a plan over {symbol} = {n} candidates with {copies} copies of C({n}, {t}) subsets needs "
            f"{slots} slots, more than the cap of {PLAN_SLOTS_CAP}"
        )


def fmt_subset(subset: tuple[int, ...]) -> str:
    return ".".join(map(str, subset)) if subset else "-"


# Each unsigned array type code, by item size, and the least int it cannot hold.
_LIMITS = [(code, 1 << 8 * array(code).itemsize) for code in "BHIQ"]


def column_code(top: int) -> str | None:
    """The array type code of least item size that holds every int in
    0..top, of "BHIQ", or None if none does."""
    return next((code for code, limit in _LIMITS if top < limit), None)


def column(top: int, values: Iterable[int]) -> bytes | array:
    """``values``, each in 0..top, as an unsigned column of the least item
    size, :func:`column_code`: ``bytes`` at one byte, an array above."""
    code = column_code(top)
    if code == "B":
        return bytes(iter(values))  # of an array, bytes() would copy its raw bytes
    if code != "H":
        return array(code, values)
    # array("H") parses each int three times as slowly as array("I"), so the
    # items are built at 4 bytes and cut to their low-order halves.
    halves = memoryview(array("I", values)).cast("B").cast("H")
    return array("H", halves[sys.byteorder == "big" :: 2].tobytes())


def _pack(masks: Iterable[int], n: int) -> bytes:
    """Bitmasks of n candidates, one item each, little-endian: items of 4
    or 8 bytes, the fast array types, or whole bytes when neither holds n
    bits."""
    code = next((code for code in "IQ" if n <= 8 * array(code).itemsize), None)
    if code is None:
        return b"".join([m.to_bytes((n + 7) // 8, "little") for m in masks])
    items = array(code, masks)
    if sys.byteorder == "big":
        items.byteswap()
    return items.tobytes()


def _groups(values: Sequence[int], n: int) -> list[bytes | array]:
    """groups[c]: every s with values[s] == c, increasing, for c < n, each
    a :func:`column` of the positions of ``values``."""
    # The positions stably sorted by value, cut where the value changes.
    key, top = values.__getitem__, len(values) - 1
    order = sorted(range(len(values)), key=key)
    cuts = [bisect_left(order, c, key=key) for c in range(n + 1)]
    return [column(top, order[a:b]) for a, b in zip(cuts, cuts[1:])]


@dataclass(frozen=True)
class Plan:
    """Every index table of the uncoded placement over the t-subsets T of
    ``candidates`` sharing candidates, each T cached in ``copies`` copies,
    and of its multicast: signal s XORs t+1 terms of the (t+1)-subset C of
    rank s, term j the subfile of C minus C[j] that C[j] demands.

    The tables depend on these three numbers alone, never on the library,
    so every copy of a placement reads through one plan.  Candidates are
    0-based in the tables and 1-based in the subsets.  Each table is built
    on first use: ``cmcnc`` never builds :attr:`missing` or
    :attr:`layouts`, and ``routing`` never builds the signal tables
    :attr:`names`, :attr:`member`, :attr:`rest`, :attr:`terms` and
    :attr:`at`.  The tables enumerate the subsets with
    ``itertools.combinations`` and keep no tuple of them.

    Every integer column is unsigned, of the least item size that holds
    the largest value it may take, known from binomials before it is
    built (:func:`column`): candidates go up to n - 1, ranks of T to
    C(n, t) - 1, signals to C(n, t + 1) - 1 and items of a file to
    copies * C(n, t) - 1.  Each column is built at C level, with no list
    of its ints in between, and its reads skip the sign scan
    (:func:`.common.gather`).  Only the labels, :attr:`names` and
    :attr:`missing_names`, are lists of str.
    """

    candidates: int
    t: int
    copies: int

    @cached_property
    def holds(self) -> list[bytes]:
        """holds[c]: the row of candidate c, ``copies * C(candidates, t)``
        bytes, 1 at item rank(T) * copies of each T that contains c and 0
        elsewhere: the items its users may read, by :func:`holds_all`."""
        n, t, r = self.candidates, self.t, self.copies
        # Bit c of the mask of each T, read from the byte that holds it.
        masks = _pack(map(sum, combinations([1 << c for c in range(n)], t)), n)
        w = len(masks) // comb(n, t)
        bit = [(bytes(1 << b) + b"\1" * (1 << b)) * (128 >> b) for b in range(8)]  # bit[b][x]: bit b of x
        rows = []
        for c in range(n):
            row = masks[c // 8 :: w].translate(bit[c % 8])
            if r > 1:
                spread = bytearray(r * len(row))
                spread[::r] = row
                row = bytes(spread)
            rows.append(row)
        return rows

    @cached_property
    def held(self) -> list[bytes | array]:
        """held[c]: ranks of the T that contain c, increasing, for
        :meth:`PlannedCache.cached`.

        Raises KeyError, once per table, if the item rank(T) * copies of a
        rank lies outside the row :attr:`holds` of its candidate.
        """
        r, ranks = self.copies, comb(self.candidates, self.t)
        held = []
        for c, row in enumerate(self.holds):
            own = column(ranks - 1, compress(range(ranks), row[::r]))
            if not holds_all(row, own if r == 1 else column(r * ranks - 1, map(r.__mul__, own))):
                raise KeyError(f"the cached ranks of candidate {c + 1} name a subfile it does not cache")
            held.append(own)
        return held

    @cached_property
    def missing(self) -> list[bytes | array]:
        """missing[c]: ranks of the T without c, increasing."""
        ranks = list(range(comb(self.candidates, self.t)))  # one int per rank, for every row
        flip = bytes.maketrans(b"\0\1", b"\1\0")  # a row's held ranks become its missing ones
        return [column(len(ranks) - 1, compress(ranks, row[:: self.copies].translate(flip))) for row in self.holds]

    @cached_property
    def missing_names(self) -> list[list[str]]:
        """missing_names[c][k]: the T of rank missing[c][k] as written in labels."""
        names = list(map(fmt_subset, combinations(range(1, self.candidates + 1), self.t)))
        return [list(map(names.__getitem__, ranks)) for ranks in self.missing]

    @cached_property
    def names(self) -> list[str]:
        """names[s]: the C of rank s, 1-based, as written in labels."""
        labels = [str(c) for c in range(1, self.candidates + 1)]
        return list(map(".".join, combinations(labels, self.t + 1)))

    @cached_property
    def member(self) -> list[bytes | array]:
        """member[j][s]: C[j] of the C of rank s."""
        n, t = self.candidates, self.t
        # Every C in rank order, member by member: column j is every (t+1)-th.
        flat = column(n - 1, chain.from_iterable(combinations(range(n), t + 1)))
        return [flat[j :: t + 1] for j in range(t + 1)]

    @cached_property
    def rest(self) -> list[bytes | array]:
        """rest[j][s]: rank of C minus C[j] among the T."""
        n, t, member = self.candidates, self.t, self.member
        ranks = comb(n, t)
        # The C with first member a (0-based) come in order, and C minus C[0] runs
        # through the t-subsets above a: the last C(n - 1 - a, t) ranks.  C minus
        # C[j + 1] differs from C minus C[j] only at index j, which holds C[j]
        # instead of C[j + 1], and rank(T) = C(n, t) - 1 - sum over m of
        # term[t - m][T[m]], T 0-based.
        first = chain.from_iterable(range(ranks - comb(n - 1 - a, t), ranks) for a in range(n))
        rest = [column(ranks - 1, first)]
        term = [[comb(n - 1 - c, k) for c in range(n)] for k in range(t + 1)]
        for j in range(t):
            up, down = (map(term[t - j].__getitem__, member[x]) for x in (j + 1, j))
            rest.append(column(ranks - 1, map(sub, map(add, rest[j], up), down)))
        return rest

    @cached_property
    def at(self) -> list[list[bytes | array]]:
        """at[j][c]: every s with C[j] == c, increasing."""
        return [_groups(values, self.candidates) for values in self.member]

    def receiving(self, c: int) -> tuple[list[tuple[int, Sequence[int], Callable]], list[int], list[int]]:
        """(groups, signals, delivered) for candidate c.

        ``groups``: (p, at[p][c], picker) for every position p that c takes
        in some C, in order; the picker reads a signal column at at[p][c].
        ``signals``: every s with c in C, grouped by the position of c in C
        and increasing within each group.  ``delivered``: per signal, the
        rank of C minus c, the T whose subfile c decodes from it.
        """
        # One C-level picker per nonempty group, reused for every column: an
        # itemgetter of the group, or of a one-item slice for a lone signal.
        # Near t = n - 1 most groups are empty and the rest are lone.
        groups = [
            (p, group, itemgetter(*group) if len(group) > 1 else itemgetter(slice(group[0], group[0] + 1)))
            for p, group in ((p, at[c]) for p, at in enumerate(self.at))
            if group
        ]
        signals = [s for _, group, _ in groups for s in group]
        delivered: list[int] = []
        for p, _, pick in groups:
            delivered += pick(self.rest[p])
        return groups, signals, delivered

    @cached_property
    def cancelling(self) -> list[list[bytes | array]]:
        """:attr:`at`, once the plan has proved that member p of every C
        caches every term of C but its own, for
        :meth:`PlannedCache.multicast`: a receiver then cancels the XOR of
        those t terms, read whole from one column per position p.

        The proof is over bitmasks of the candidates, one column of masks of
        every signal s at a time: for each q, the mask of the T of rank
        rest[q][s] XOR the bit of member[q][s] is the mask of C, the
        (t+1)-subset of rank s (so the member lies in C and the T is C minus
        it: a T holds t bits and C t + 1), and the bits of the t + 1 members
        XOR to C (so the members are distinct).  Member p of C then lies in
        the T of every term q != p, and so caches that term in every copy
        l.  :attr:`at` lists at[p][c] the signals
        with member[p][s] == c, by its construction from :attr:`member`.  So
        the shared cancellation needs no check per read.  The columns may
        be any sequences of ints: a list is scanned for negative entries
        first, so that no index wraps.

        Raises KeyError, once per plan, if any of this fails, an index out of
        range included.
        """
        n, t = self.candidates, self.t
        signals = comb(n, t + 1)
        bits = [1 << c for c in range(n)]
        subsets = list(map(sum, combinations(bits, t)))  # by rank of T

        def masks(table: list[int], values: Sequence[int]) -> int:
            # The masks in table at the signals' entries of values, packed
            # into one int; IndexError outside the table, no index wrapped.
            if len(values) != signals or _negative(values):
                raise IndexError
            return int.from_bytes(_pack(map(table.__getitem__, values), n), "little")

        every = int.from_bytes(_pack(map(sum, combinations(bits, t + 1)), n), "little")  # C by C
        members = 0
        for q, (who, ranks) in enumerate(zip(self.member, self.rest)):
            try:
                single = masks(bits, who)
                union = masks(subsets, ranks) ^ single
            except IndexError:
                raise KeyError(f"term {q} of a signal lies outside the plan") from None
            if union != every:
                raise KeyError(f"term {q} of a signal is not the subfile of C minus its member")
            members ^= single
        if members != every:
            raise KeyError("the members of a signal are not its t + 1 candidates")
        return self.at

    @cached_property
    def layouts(self) -> list[tuple[array, bytes | array]]:
        """layouts[c]: (which, index), where candidate c finds a file's slots.

        Slot ``rank(T) * copies + l - 1`` of a file is subfile (T, l).  The
        candidate puts a file back together from 2 * copies sources: the
        file from copy l on (its :attr:`PlannedCache.views`), for l = 1,
        ..., copies, and then the decoded bytes from their copy-l block on.
        Slot k is item ``index[k]`` of source ``which[k]``: source l - 1 and
        item rank(T) * copies if c caches T, else source copies + l - 1.

        A candidate decodes the subfiles (T, l) it lacks in the order l = 1,
        ..., copies and, within each l, T by increasing rank: so they come
        from a user's r relays in ``proposed``, and ``routing`` sends them.
        Raises KeyError, once per table, if a slot read from the file lies
        outside the row :attr:`holds` of its candidate.
        """
        r = self.copies
        ranks = comb(self.candidates, self.t)
        in_file = array("I", range(0, ranks * r, r))  # by rank q: item rank(T) * r
        layouts = []
        for c, (missing, row) in enumerate(zip(self.missing, self.holds)):
            own = bytearray(b"\x01") * ranks  # own[q]: the candidate caches the T of rank q
            item = in_file[:]
            for k, q in enumerate(missing):
                own[q] = 0
                item[q] = k  # the T's item in a decoded block
            if not holds_all(row, array("I", compress(in_file, own))):
                raise KeyError(f"the layout of candidate {c + 1} reads a subfile it does not cache")
            which = array("B", bytes(ranks * r))
            index = item * r  # of the right length; interleaved below
            for l in range(r):
                # Copy l + 1 of a T comes from source l if cached, else r + l.
                which[l::r] = array("B", own.translate(bytes.maketrans(b"\0\1", bytes([r + l, l]))))
                index[l::r] = item
            layouts.append((which, column(ranks * r - 1, index)))  # an item of a file or a block
        return layouts

    @cached_property
    def terms(self) -> list[bytes | array]:
        """terms[q][s]: rest[q][s] * copies, the item of term q of signal s
        in the view of its member's file (:meth:`PlannedCache.sources`)."""
        r, top = self.copies, comb(self.candidates, self.t) * self.copies - 1
        return self.rest if r == 1 else [column(top, map(r.__mul__, ranks)) for ranks in self.rest]

    @cached_property
    def receives(self) -> list[bytes | array]:
        """receives[c]: every s with c in C, increasing: the signals that a
        relay forwards to its neighbor of candidate c."""
        at, top = self.at, comb(self.candidates, self.t + 1) - 1
        return [column(top, sorted(chain.from_iterable(groups[c] for groups in at))) for c in range(self.candidates)]


@dataclass(frozen=True)
class PlannedCache:
    """The uncoded placement of Maddah-Ali and Niesen over the t-subsets of
    the sharing candidates that its :class:`Plan` gives: the one cache of
    both coded schemes, built by :func:`place_planned`.  ``label[user]`` is
    the candidate of a user, 1-based, and ``code`` the (h, r) MDS code that
    spreads the signals over the relays, or None if the scheme codes none.

    File n splits into ``copies * C(candidates, t)`` subfiles (n, T, l), T a
    t-subset of 1..candidates and l a copy in 1..copies, at byte offset
    ``(rank(T) * copies + l - 1) * subfile_bytes`` with T ranked
    lexicographically.  A user caches exactly the subfiles whose T holds
    ``label[user]``.

    Every read goes through :func:`gather` over :attr:`views`, as items:
    subfile (n, T, l) is item ``rank(T) * copies`` of file n viewed from
    copy l on; or through :func:`pick` over the same items of
    :attr:`ints`, their int forms.  The views and the ints live as long as
    the placement, and the plan's tables as long as the plan: a copy of
    the placement over another library reads through the same tables, but
    through views and ints of its own.
    """

    net: Network
    lib: FileLibrary
    plan: Plan
    subfile_bytes: int
    label: Sequence[int]
    code: ErasureCode | None = None

    @cached_property
    def views(self) -> list[list]:
        """views[l - 1][n - 1]: file n from subfile (T of rank 0, l) on, as
        :func:`gather` reads its subfiles, without a copy.  Its item
        rank(T) * copies is subfile (n, T, l)."""
        size = self.subfile_bytes
        return [
            [as_items(memoryview(f)[l * size :], size) for f in self.lib.files]
            for l in range(self.plan.copies)
        ]

    @cached_property
    def ints(self) -> list[list[int] | None]:
        """ints[n - 1]: the int form, big-endian, of every subfile of file n,
        slot by slot, or None until the first read of file n through
        :meth:`int_sources`.  Slot ``rank(T) * copies + l - 1`` is subfile
        (n, T, l).  Built from this placement's library alone: a copy of the
        placement over another library builds its own."""
        return [None] * self.lib.n_files

    @cached_property
    def served(self) -> list:
        """[demand, multicasts] of the last demand that :meth:`multicast`
        served, or [None] * 2 before the first.  Built from this placement's
        library alone: a copy of the placement over another library builds
        its own."""
        return [None] * 2

    def multicast(
        self, demand: Sequence[int], sources: Callable[[tuple], list[tuple[Sequence[int], Sequence[int]]]]
    ) -> list[tuple]:
        """Per source (files, copies) of ``sources(demand)``: (signals, ints,
        cancels) of the XOR multicast over the plan's candidates, candidate c
        wanting file files[c] in copy copies[c].  ``sources`` is a function
        of the demand alone, the same on every call for a placement.

        Block q holds, per signal s, term q: subfile (n, T, l) of the file n
        and copy l that member[q][s] wants, T of rank rest[q][s].
        ``signals``: the XOR of all t + 1 blocks, signal by signal, the bytes
        that delivery sends.  Member p of signal s recovers its term from
        signal s XOR its cancellation, the XOR of every block but block p at
        s, which :meth:`cancel` reads.  Below :data:`_INT_BYTES` ``ints`` is
        None and ``cancels[p]`` holds those cancellations, joined; from it
        on, ``ints[s]`` is the int of signal s and ``cancels[p]`` block p as
        the placement's :attr:`ints`, so the cancellation is ints[s] ^
        cancels[p][s].

        Only the last demand's multicasts are kept (:attr:`served`), and
        they are dropped before the next ones are built.  The plan's proof
        that a member caches every term it cancels (:attr:`Plan.cancelling`)
        comes first, and raises KeyError before any byte is read; then the
        errors of :meth:`sources`, for every source before any is read.
        """
        served, demand = self.served, tuple(demand)
        if served[0] != demand:
            served[:] = None, None
            plan, size = self.plan, self.subfile_bytes
            plan.cancelling  # the proof comes before any byte is read
            wanted = sources(demand)
            for source in wanted:  # every source is checked before any is read
                self._pairs(*source)
            terms = list(zip(plan.member, plan.terms))
            built = []
            if size >= _INT_BYTES:
                for source in wanted:
                    ints = self.int_sources(*source)
                    blocks = [pick(ints, who, items) for who, items in terms]
                    signals = [reduce(xor, column) for column in zip(*blocks)]
                    built.append((b"".join(map(int.to_bytes, signals, repeat(size), repeat("big"))), signals, blocks))
            else:
                length = len(plan.names) * size
                for source in wanted:
                    view = self.sources(*source)
                    blocks = [int.from_bytes(gather(view, who, items, size), "big") for who, items in terms]
                    signals = reduce(xor, blocks, 0)
                    cancels = [(signals ^ block).to_bytes(length, "big") for block in blocks]
                    built.append((signals.to_bytes(length, "big"), None, cancels))
            served[:] = demand, built
        return served[1]

    def cancel(self, multicast: tuple, groups: list[tuple[int, list[int], Callable]], feed: bytes) -> bytes:
        """``feed``, the signals of one :meth:`multicast` that a member
        received at ``groups`` of :meth:`Plan.receiving`, in their order,
        XOR the cancellation of each: the terms the member decodes."""
        _, ints, cancels = multicast
        size = self.subfile_bytes
        if ints is None:
            cancel = [gather([cancels[p]], [0] * len(group), group, size) for p, group, _ in groups]
            return xor_bytes(feed, b"".join(cancel))
        view = memoryview(feed)
        received = (int.from_bytes(view[k : k + size], "big") for k in range(0, len(view), size))
        known = chain.from_iterable(map(xor, at(ints), at(cancels[p])) for p, _, at in groups)
        return b"".join([(x ^ y).to_bytes(size, "big") for x, y in zip(received, known)])

    def _pairs(self, files: Sequence[int], copies: Sequence[int]) -> zip:
        """(n, l) for each source; the errors of :meth:`sources`."""
        N, r = self.lib.n_files, self.plan.copies
        if len(files) != len(copies):
            raise ValueError(f"{len(files)} files and {len(copies)} copies differ in length")
        if not (in_range(files, N) and in_range(copies, r)):
            raise IndexError(f"a file id lies outside 1..{N} or a copy outside 1..{r}")
        return zip(files, copies)

    def sources(self, files: Sequence[int], copies: Sequence[int]) -> list:
        """The view of file files[w] from copy copies[w] on, for each w.

        Raises ValueError if the lengths differ, and IndexError for a file id
        outside 1..N or a copy outside 1..copies: no index wraps.
        """
        views = self.views
        return [views[l - 1][n - 1] for n, l in self._pairs(files, copies)]

    def int_sources(self, files: Sequence[int], copies: Sequence[int]) -> list[list[int]]:
        """:meth:`sources` in int form, for :func:`pick`: item rank(T) *
        copies of source w is the int of subfile (files[w], T, copies[w]),
        for :meth:`multicast` from :data:`_INT_BYTES` on.

        The errors of :meth:`sources`, raised before any int is built.  The
        first read of a file converts each of its subfiles once, into
        :attr:`ints`; later reads convert nothing.
        """
        ints, size = self.ints, self.subfile_bytes
        pairs = list(self._pairs(files, copies))
        for n in {n for n, _ in pairs if ints[n - 1] is None}:
            view = memoryview(self.lib.files[n - 1])
            ends = range(size, len(view) + 1, size)
            ints[n - 1] = [int.from_bytes(view[end - size : end], "big") for end in ends]
        return [ints[n - 1][l - 1 :] for n, l in pairs]

    def cached(self, user: int, n: int) -> bytes:
        """Subfile (n, T, 1) of every T that the user caches, by increasing
        rank, joined: one :func:`gather` by the user's :attr:`Plan.held`.

        The plan checked the table's items against the candidate's row when
        it built the table, so only n is checked here, with the errors of
        :meth:`sources`.
        """
        r = self.plan.copies
        held = self.plan.held[self.label[user] - 1]
        items = held if r == 1 else array("I", map(r.__mul__, held))
        return gather(self.sources((n,), (1,)), [0] * len(items), items, self.subfile_bytes)

    def reassemble(self, user: int, n: int, decoded: bytes) -> bytes:
        """File n from the subfiles of it that ``user`` caches and ``decoded``,
        in one :func:`gather` by its candidate's :attr:`Plan.layouts`.

        ``decoded`` holds the subfiles (n, T, l) the user lacks, for l = 1,
        ..., copies in turn and, within each l, for the T by increasing rank.
        """
        plan, size = self.plan, self.subfile_bytes
        r, c = plan.copies, self.label[user] - 1
        block = len(plan.missing[c]) * size
        if len(decoded) != r * block:
            raise ValueError(f"user {user} decoded {len(decoded)} bytes, expected {r * block}")
        view = memoryview(decoded)
        sources = self.sources([n] * r, range(1, r + 1)) + [view[l * block :] for l in range(r)]
        which, index = plan.layouts[c]
        return gather(sources, which, index, size)


def place_planned(net: Network, lib: FileLibrary, M, grid: str, code=None) -> PlannedCache:
    """The :class:`PlannedCache` of ``lib`` at storage M on ``grid``: a user
    caches as its class on "Kt", as itself on "K"; ``code`` is the MDS code
    of the signals, if any.  The refusals of :func:`grid_plan`, then
    SubpacketizationError unless the file splits into :func:`grid_units`."""
    plan = grid_plan(net, lib.n_files, M, grid)
    units = grid_units(net.r, plan.candidates, plan.t)
    if lib.file_bytes % units != 0:
        raise SubpacketizationError(
            f"file size {lib.file_bytes} bytes must be divisible by {units} "
            f"(= r * C({grid}, t) subfiles)"
        )
    label = net.class_of if grid == "Kt" else range(1, net.K + 1)
    size = lib.file_bytes // (plan.copies * comb(plan.candidates, plan.t))
    return PlannedCache(net, lib, plan, size, label, code)
