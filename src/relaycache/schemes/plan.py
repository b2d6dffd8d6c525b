"""The XOR-multicast plan and the one cache of both coded schemes.

Cache objects are lazy views over the library: no subfile is copied.  A
decoder reads cached bytes through its cache alone, and the read raises
``KeyError`` for anything the user did not cache, which keeps decoders
honest about what they may read: :meth:`PlannedCache.gather` for the
coded schemes, and ``PrefixCache.get`` for ``broadcast-mds``.  A coded
read is checked against one byte row per candidate, :attr:`Plan.holds`,
by one rule, :func:`holds_all`; a table the plan builds for reading
(:attr:`Plan.held`, :attr:`Plan.layouts`, :attr:`Plan.decoders`) is
checked against the row once, when it is built, and its reads skip that
scan.  ``cmcnc`` reads no term one by one: each member of a signal cancels
the XOR of all its other terms, which :meth:`PlannedCache.multicast`
builds once per demand and a decoder reads whole at its own signals.  The
plan proves once, over bitmasks, that every term a member cancels so is
a subfile it caches (:attr:`Plan.cancelling`), and raises ``KeyError``
before any byte is read if not.

Both coded schemes run the coded multicast of Maddah-Ali and Niesen
("Fundamental limits of caching", IEEE Trans. IT 2014) over the candidates
of their grid in :data:`GRIDS`: ``proposed`` per relay over "Kt", ``cmcnc``
over "K".  Both place files with :func:`place_planned` into the one cache here,
:class:`PlannedCache`, keyed by subfile ``(n, T, l)``.  Its :class:`Plan`
(candidates, t, copies) holds every index table of the multicast, each
built on first use, and every copy of the placement reads through that one
plan.  The rest of a placement is data: ``label``, each user's candidate,
and ``code``, the MDS code that spreads ``cmcnc``'s signals over the
relays.  ``broadcast-mds`` keys its ``PrefixCache`` by file id.

A placement also keeps the int form of each subfile of every file read
through :meth:`PlannedCache.int_sources` (:attr:`PlannedCache.ints`), for
``proposed``'s XOR multicast at large subfiles, and the signals and
cancellations of the last demand it served (:attr:`PlannedCache.served`),
for ``cmcnc``.  Both come from the placement's own library, so they live
on the placement, never on the plan, and a decoder reads them only by a
checked table (:meth:`PlannedCache.cancelled_ints`, :attr:`Plan.cancelling`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, combinations, compress, count, islice, starmap
from math import comb
from operator import add, itemgetter, sub, xor
from typing import Callable, Iterable, Sequence

from ..combinatorics import enumerate_subsets
from ..erasure import ErasureCode
from ..topology import BudgetError, Network
from .common import (
    FileLibrary,
    SubpacketizationError,
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


@dataclass(frozen=True)
class Plan:
    """Every index table of the uncoded placement over the t-subsets T of
    ``candidates`` sharing candidates, each T cached in ``copies`` copies,
    and of its multicast: signal s XORs t+1 terms of the (t+1)-subset C of
    rank s, term j the subfile of C minus C[j] that C[j] demands.

    The tables depend on these three numbers alone, never on the library,
    so every copy of a placement reads through one plan.  Candidates are
    0-based in the tables and 1-based in the subsets.  Each table is built
    on first use: ``cmcnc`` never builds :attr:`missing`, :attr:`layouts`
    or :attr:`decoders`, and ``routing`` never builds the signal tables
    :attr:`names`, :attr:`member`, :attr:`rest` and :attr:`at`.  The
    tables enumerate the subsets with ``itertools.combinations`` and keep
    no tuple of them.
    """

    candidates: int
    t: int
    copies: int

    def subset(self, q: int) -> tuple[int, ...]:
        """The T of rank q, 1-based; read only to name a refused subfile."""
        return next(islice(combinations(range(1, self.candidates + 1), self.t), q, None))

    @cached_property
    def holds(self) -> list[bytes]:
        """holds[c]: the row of candidate c, ``copies * C(candidates, t)``
        bytes, 1 at item rank(T) * copies of each T that contains c and 0
        elsewhere: the items :meth:`PlannedCache.gather` lets its users read,
        by :func:`holds_all`."""
        n, t, r = self.candidates, self.t, self.copies
        rows = [bytearray(r * comb(n, t)) for _ in range(n)]
        for k, T in zip(count(0, r), combinations(range(n), t)):  # no tuple kept
            for c in T:
                rows[c][k] = 1
        return list(map(bytes, rows))

    @cached_property
    def held(self) -> list[array]:
        """held[c]: ranks of the T that contain c, increasing, for
        :meth:`PlannedCache.cached`.

        Raises KeyError, once per table, if the item rank(T) * copies of a
        rank lies outside the row :attr:`holds` of its candidate.
        """
        r = self.copies
        ranks = range(comb(self.candidates, self.t))
        held = []
        for c, row in enumerate(self.holds):
            own = array("I", compress(ranks, row[::r]))
            if not holds_all(row, own if r == 1 else array("I", map(r.__mul__, own))):
                raise KeyError(f"the cached ranks of candidate {c + 1} name a subfile it does not cache")
            held.append(own)
        return held

    @cached_property
    def missing(self) -> list[list[int]]:
        """missing[c]: ranks of the T without c, increasing."""
        ranks = list(range(comb(self.candidates, self.t)))
        flip = bytes.maketrans(b"\0\1", b"\1\0")  # a row's held ranks become its missing ones
        return [list(compress(ranks, row[:: self.copies].translate(flip))) for row in self.holds]

    @cached_property
    def missing_names(self) -> list[list[str]]:
        """missing_names[c][k]: the T of rank missing[c][k] as written in labels."""
        names = list(map(fmt_subset, combinations(range(1, self.candidates + 1), self.t)))
        return [list(map(names.__getitem__, ranks)) for ranks in self.missing]

    @cached_property
    def names(self) -> list[str]:
        """names[s]: the C of rank s, 1-based, as written in labels."""
        n, t = self.candidates, self.t
        signals = combinations(range(1, n + 1), t + 1)  # enumerate_subsets's order; no list kept
        return list(starmap(".".join(["{}"] * (t + 1)).format, signals))

    @cached_property
    def member(self) -> list[list[int]]:
        """member[j][s]: C[j] of the C of rank s."""
        n, t = self.candidates, self.t
        signals = enumerate_subsets(n, t + 1) if t < n else []
        return [[C[j] - 1 for C in signals] for j in range(t + 1)]

    @cached_property
    def rest(self) -> list[list[int]]:
        """rest[j][s]: rank of C minus C[j] among the T."""
        n, t, member = self.candidates, self.t, self.member
        ranks = list(range(comb(n, t)))  # so that equal ranks share one int object
        # The C with first member a (0-based) come in order, and C minus C[0] runs
        # through the t-subsets above a: the last C(n - 1 - a, t) ranks.  C minus
        # C[j + 1] differs from C minus C[j] only at index j, which holds C[j]
        # instead of C[j + 1], and rank(T) = C(n, t) - 1 - sum over m of
        # term[t - m][T[m]], T 0-based.
        first = chain.from_iterable(ranks[len(ranks) - comb(n - 1 - a, t) :] for a in range(n))
        rest = [list(first)]
        term = [[comb(n - 1 - c, k) for c in range(n)] for k in range(t + 1)]
        for j in range(t):
            up, down = (map(term[t - j].__getitem__, member[x]) for x in (j + 1, j))
            rest.append(list(map(sub, map(add, rest[j], up), down)))
        return rest[:1] + [list(map(ranks.__getitem__, column)) for column in rest[1:]]

    @cached_property
    def at(self) -> list[list[list[int]]]:
        """at[j][c]: every s with C[j] == c, increasing."""
        n, t = self.candidates, self.t
        # at[j]: the signals stably sorted by C[j], cut where C[j] changes, as
        # found in the column: so at[j][c] holds exactly the s with C[j] == c.
        ids = list(range(comb(n, t + 1)))  # so that the at[j] share one int object per s
        at = []
        for column in self.member:
            order = sorted(ids, key=column.__getitem__)
            cuts = [bisect_left(order, c, key=column.__getitem__) for c in range(n + 1)]
            at.append(list(map(order.__getitem__, map(slice, cuts, cuts[1:]))))
        return at

    def receiving(self, c: int) -> tuple[list[tuple[int, list[int], Callable]], list[int], list[int]]:
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

    def decoding(self, c: int) -> tuple[list[int], list[tuple[list[int], list[int]]], list[int]]:
        """(signals, blocks, delivered) for candidate c: those of
        :meth:`receiving`, and ``blocks[x]``, (member, rest) lists giving,
        per signal, its x-th member other than c and the rank of C minus
        that member, the term c cancels.
        """
        groups, signals, delivered = self.receiving(c)

        def column(table: list[list[int]], x: int) -> list[int]:
            """Per signal, table[j][s] for the x-th member j of C other than c."""
            out: list[int] = []
            for p, _, pick in groups:
                out += pick(table[x + (x >= p)])
            return out

        blocks = [(column(self.member, x), column(self.rest, x)) for x in range(self.t)]
        return signals, blocks, delivered

    @cached_property
    def cancelling(self) -> list[list[list[int]]]:
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
        the T of every term q != p.  :attr:`at` lists at[p][c] the signals
        with member[p][s] == c, by its construction from :attr:`member`.  So
        the shared cancellation needs no check per read.

        Raises KeyError, once per plan, if any of this fails, an index out of
        range included.
        """
        n, t = self.candidates, self.t
        # Masks of w bytes: the item size of the least array type that holds
        # n bits, or whole bytes when none does.
        code = next((code for code in "BHIQ" if 8 * array(code).itemsize >= n), None)
        w = array(code).itemsize if code else (n + 7) // 8

        def pack(masks: Iterable[int]) -> bytes:
            return array(code, masks).tobytes() if code else b"".join([m.to_bytes(w, "little") for m in masks])

        bits = [1 << c for c in range(n)]
        subsets, singles = pack(map(sum, combinations(bits, t))), pack(bits)
        every = int.from_bytes(pack(map(sum, combinations(bits, t + 1))), "little")  # C by C
        zeros = [0] * comb(n, t + 1)
        members = 0
        for q, (who, ranks) in enumerate(zip(self.member, self.rest)):
            try:
                single = int.from_bytes(gather([singles], zeros, who, w), "little")
                union = int.from_bytes(gather([subsets], zeros, ranks, w), "little") ^ single
            except (IndexError, ValueError):
                raise KeyError(f"term {q} of a signal lies outside the plan") from None
            if union != every:
                raise KeyError(f"term {q} of a signal is not the subfile of C minus its member")
            members ^= single
        if members != every:
            raise KeyError("the members of a signal are not its t + 1 candidates")
        return self.at

    @cached_property
    def layouts(self) -> list[tuple[array, array]]:
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
            item = array("I", in_file)
            for k, q in enumerate(missing):
                own[q] = 0
                item[q] = k  # the T's item in a decoded block
            if not holds_all(row, list(compress(in_file, own))):
                raise KeyError(f"the layout of candidate {c + 1} reads a subfile it does not cache")
            which = array("B", bytes(ranks * r))
            index = item * r  # of the right length; interleaved below
            for l in range(r):
                # Copy l + 1 of a T comes from source l if cached, else r + l.
                which[l::r] = array("B", own.translate(bytes.maketrans(b"\0\1", bytes([r + l, l]))))
                index[l::r] = item
            layouts.append((which, index))
        return layouts

    @cached_property
    def signal_terms(self) -> tuple[array, array]:
        """(which, items) of every signal's terms, as :func:`gather` reads
        them over the candidates' files: block j gives per signal s its
        member member[j][s] and rank(C minus that member) * copies."""
        r = self.copies
        return (
            array("I", chain.from_iterable(self.member)),
            array("I", chain.from_iterable(map(r.__mul__, rest) for rest in self.rest)),
        )

    @cached_property
    def receives(self) -> list[tuple[int, ...]]:
        """receives[c]: every s with c in C, increasing: the signals that a
        relay forwards to its neighbor of candidate c."""
        at = self.at
        return [
            tuple(sorted(chain.from_iterable(column[c] for column in at)))
            for c in range(self.candidates)
        ]

    @cached_property
    def decoders(self) -> list[tuple[array, array, array]]:
        """decoders[c]: (signals, which, items) by which candidate c decodes.

        ``signals``: the positions c reads on each relay, those of
        :meth:`decoding` ordered so that c decodes the T it lacks by
        increasing rank, as :attr:`layouts` expects.  Block x of ``which``
        and ``items``: per signal, its x-th member other than c and rank(C
        minus that member) * copies, the term c cancels, for
        :meth:`PlannedCache.cancelled` over a relay's neighbors by candidate.

        Raises KeyError, once per table, if an item lies outside the row
        :attr:`holds` of its candidate, or a signal outside what a relay
        forwards to it, :attr:`receives`: so neither the reads by these
        tables nor their feeds (:func:`.common.payloads` with ``covering``)
        need a membership check of their own.
        """
        r = self.copies
        decoders = []
        for c, row in enumerate(self.holds):
            signals, blocks, delivered = self.decoding(c)
            if not set(self.receives[c]).issuperset(signals):
                raise KeyError(f"the decoder of candidate {c + 1} reads a signal no relay forwards to it")
            order = sorted(range(len(signals)), key=delivered.__getitem__)
            members = (map(member.__getitem__, order) for member, _ in blocks)
            ranks = (map(rest.__getitem__, order) for _, rest in blocks)
            items = array("I", map(r.__mul__, chain.from_iterable(ranks)))
            if not holds_all(row, items):
                raise KeyError(f"the decoder of candidate {c + 1} reads a subfile it does not cache")
            decoders.append(
                (
                    array("I", map(signals.__getitem__, order)),
                    array("I", chain.from_iterable(members)),
                    items,
                )
            )
        return decoders


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
        """[demand, signals, cancels] of the last demand that
        :meth:`multicast` served, or [None] * 3 before the first.  Built from
        this placement's library alone: a copy of the placement over another
        library builds its own."""
        return [None] * 3

    def multicast(self, demand: Sequence[int]) -> tuple[bytes, list[bytes]]:
        """(signals, cancels) of the XOR multicast over the candidates, each
        wanting file demand[c] of a plan of one copy, as on the grid "K".

        Block q holds, per signal s, term q: subfile (n, T, 1) of the file n
        that member[q][s] wants, T of rank rest[q][s].  ``signals``: the XOR
        of all t + 1 blocks, signal by signal.  ``cancels[p]``: the XOR of
        every block but block p, so member p of signal s recovers its term
        from signal s XOR cancels[p] at s.  The blocks are built as ints once
        per demand, and both kept for the last demand only (:attr:`served`).

        A decoder reads ``cancels[p]`` only at :attr:`Plan.cancelling`, the
        positions of the plan's proof that they XOR terms it caches, which
        raises KeyError before any byte is read.  ValueError for a plan of
        more than one copy.
        """
        served, demand = self.served, tuple(demand)
        if served[0] != demand:
            plan, size = self.plan, self.subfile_bytes
            if plan.copies != 1:
                raise ValueError(f"a multicast over one copy, not {plan.copies}")
            plan.cancelling  # the proof comes before any byte is read
            wanted = self.sources(demand, [1] * len(demand))
            blocks = [
                int.from_bytes(gather(wanted, who, ranks, size), "big")
                for who, ranks in zip(plan.member, plan.rest)
            ]
            signals, length = reduce(xor, blocks, 0), len(plan.names) * size
            cancels = [(signals ^ block).to_bytes(length, "big") for block in blocks]
            served[:] = demand, signals.to_bytes(length, "big"), cancels
        return served[1], served[2]

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
        copies of source w is the int of subfile (files[w], T, copies[w]).

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

    def gather(
        self,
        user: int,
        files: Sequence[int],
        copies: Sequence[int],
        which: Sequence[int],
        items: Sequence[int],
    ) -> bytes:
        """The table-form read: subfile (files[w], T, copies[w]) for every j,
        where w = which[j] and items[j] = rank(T) * copies, concatenated.
        That is item items[j] of source w of :meth:`sources` (files, copies).

        Raises ValueError if ``which`` and ``items``, or ``files`` and
        ``copies``, differ in length, and KeyError, naming the first such
        (n, T, l), unless the user caches all of them: the row
        :attr:`Plan.holds` of the user's candidate must hold every item, n
        lie in 1..N and l in 1..copies.  IndexError for a file or copy out of
        range that no item reads.  Nothing is read from a file before these
        checks.
        """
        self._check(user, files, copies, which, items, checked=False)
        return gather(self.sources(files, copies), which, items, self.subfile_bytes)

    def cached(self, user: int, n: int) -> bytes:
        """Subfile (n, T, 1) of every T that the user caches, by increasing
        rank, joined: one :func:`gather` by the user's :attr:`Plan.held`.

        The plan checked the table's items against the candidate's row when
        it built the table, so only n is checked here, with the errors of
        :meth:`gather`.
        """
        r = self.plan.copies
        held = self.plan.held[self.label[user] - 1]
        items = held if r == 1 else array("I", map(r.__mul__, held))
        which = [0] * len(items)
        self._check(user, (n,), (1,), which, items, checked=True)
        return gather(self.sources((n,), (1,)), which, items, self.subfile_bytes)

    def cancelled(self, user: int, files: Sequence[int], copies: Sequence[int]) -> bytes:
        """:meth:`gather` of the items by which the user's candidate decodes,
        its table :attr:`Plan.decoders`, over the sources (files, copies).

        The plan checked the table's items against the candidate's row when
        it built the table, so only ``files`` and ``copies`` are checked here,
        with the errors of :meth:`gather`.
        """
        which, items = self._decoder(user, files, copies)
        return gather(self.sources(files, copies), which, items, self.subfile_bytes)

    def cancelled_ints(self, user: int, files: Sequence[int], copies: Sequence[int]) -> list[int]:
        """:meth:`cancelled` as the int of each item, from :attr:`ints`, with
        its checks, made before any int is read or built."""
        which, items = self._decoder(user, files, copies)
        return pick(self.int_sources(files, copies), which, items)

    def _decoder(self, user: int, files: Sequence[int], copies: Sequence[int]) -> tuple[array, array]:
        """(which, items) of the user's table :attr:`Plan.decoders`, once
        ``files`` and ``copies`` pass the checks of :meth:`gather`."""
        _, which, items = self.plan.decoders[self.label[user] - 1]
        self._check(user, files, copies, which, items, checked=True)
        return which, items

    def _check(self, user, files, copies, which, items, checked: bool) -> None:
        """The checks of :meth:`gather`; no membership scan if the plan
        ``checked`` the items."""
        if len(which) != len(items):
            raise ValueError(f"{len(which)} sources and {len(items)} items differ in length")
        if len(files) != len(copies):
            raise ValueError(f"{len(files)} files and {len(copies)} copies differ in length")
        plan = self.plan
        N, r = self.lib.n_files, plan.copies
        row = plan.holds[self.label[user] - 1]
        if not ((checked or holds_all(row, items)) and in_range(files, N) and in_range(copies, r)):
            for w, k in zip(which, items):
                n, l = files[w], copies[w]
                if not (holds_all(row, [k]) and 1 <= n <= N and 1 <= l <= r):
                    q, off = divmod(k, r)
                    T = f"item {k}" if off else plan.subset(q) if 0 <= k < len(row) else q
                    raise KeyError(f"user {user} does not cache ({n}, {T}, {l})")
            # Every item read is cached: a file or copy that none reads is out of range.
            raise IndexError(f"a file id lies outside 1..{N} or a copy outside 1..{r}")

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
