"""Shared plumbing for the placement/delivery/decode pipelines.

Conventions used by every scheme:

* Files, subfiles, signals, and pieces are ``bytes``; sizes are exact and
  all arithmetic on them is bit-exact (XOR, slicing, GF(256) scaling).
* A demand vector is a tuple of length K mapping user index (0-based
  position in ``net.users``) to a requested file id in 1..N.
* Every transmitted signal is a record: a position in its batch's label
  form and a payload.  The position is the signal's identity, the rank the
  placement's plan gives it; the canonical label, rendered from the form
  only for output, makes two runs of one experiment byte-identical logs.
  Each scheme builds its label form with one function, which delivery and
  decoding both call, and no code parses a label back.  Decoders read
  records by plan position with :func:`payloads`, which joins them.
* Subfiles and records of one size are items, and :func:`gather` is the one
  kernel that reads items by index from one or more buffers.  At an array
  item size (1, 2, 4 or 8 bytes) it reads them as ints through memoryviews,
  one C-level step per item; other sizes are sliced and joined.  ``cmcnc``,
  ``proposed`` and ``routing`` read through it at both ends, and so does
  :func:`payloads`.
* Records travel in batches, and only in batches.  A :class:`Batch` is a
  label form, one payload buffer and a part size: the signals a scheme
  already builds as one joined buffer.  Each edge of a
  :class:`TransmissionLog` is an :class:`Edge` of batches, and a relay edge
  holds the very batch of its server edge, whole or at picked positions.
  So one buffer, and one names sequence of the placement, serve every
  edge that carries a batch.
* :meth:`TransmissionLog.write` is the one serializer: the digest hashes
  its compact JSON, and ``run --out`` streams its indented JSON to a file.
* Relays can only forward what they received: :meth:`TransmissionLog.forward`
  rejects a batch that is not, as the same object, on that relay's server
  edge.

Cache objects are lazy views over the library: no subfile is copied.  A
decoder reads cached bytes through its cache alone, and the read raises
``KeyError`` for anything the user did not cache, which keeps decoders
honest about what they may read: :meth:`PlannedCache.gather` for the
coded schemes, and ``PrefixCache.get`` for ``broadcast-mds``.  A coded
read is checked against one byte row per candidate, :attr:`Plan.holds`,
by one rule, :func:`holds_all`; a table the plan builds for reading
(:attr:`Plan.layouts`, :attr:`Plan.decoders`) is checked against the row
once, when it is built, and its reads skip that scan.

Both coded schemes run the coded multicast of Maddah-Ali and Niesen
("Fundamental limits of caching", IEEE Trans. IT 2014) over n sharing
candidates: ``proposed`` per relay over the Kt parallel classes with r
copies of each subset, ``cmcnc`` over the K users with one copy.  Both
place files with :func:`place_planned` into the one cache here,
:class:`PlannedCache`, keyed by subfile ``(n, T, l)``.  Its :class:`Plan`
(candidates, t, copies) holds every index table of the multicast, each
built on first use, and every copy of the placement reads through that one
plan.  The rest of a placement is data: ``label``, each user's candidate,
and ``code``, the MDS code that spreads ``cmcnc``'s signals over the
relays.  ``broadcast-mds`` keys its ``PrefixCache`` by file id.
"""

from __future__ import annotations

import hashlib
import random
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, combinations, compress, count, product, starmap
from json.encoder import encode_basestring_ascii
from math import comb
from operator import add, getitem, itemgetter, sub
from typing import Callable, Collection, Iterator, Mapping, Sequence

from ..combinatorics import enumerate_subsets
from ..erasure import ErasureCode, make_code
from ..topology import BudgetError, Network


class GridError(ValueError):
    """Storage size M is off the scheme's memory grid (t would be fractional)."""


class SubpacketizationError(ValueError):
    """File size is not divisible into the required number of equal subfiles."""


class IncompleteReceptionError(RuntimeError):
    """A decoder is missing signals from one of its relays."""


# Largest library random_library builds: 1 GiB, refused before allocating.
LIBRARY_BYTES_CAP = 2**30

# Most subfile slots a placement's plan may index, candidates * copies * C(n, t):
# the bytes of its rows (Plan.holds), and at least the entries of each signal
# table, as (t + 1) * C(n, t + 1) <= n * C(n, t).
PLAN_SLOTS_CAP = 2**22


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


def memory_ratio(M, n_files: int) -> Fraction:
    """m = M/N exactly; ValueError unless M lies in 0..N."""
    m = Fraction(M) / n_files
    if not 0 <= m <= 1:
        raise ValueError(f"M={M} outside 0..{n_files}")
    return m


def in_range(values: Collection[int], top: int) -> bool:
    """Every value lies in 1..top."""
    return not values or (1 <= min(values) and max(values) <= top)


@dataclass(frozen=True)
class FileLibrary:
    """N files of identical size, as opaque byte buffers."""

    files: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if not self.files:
            raise ValueError("library needs at least one file")
        size = len(self.files[0])
        if size < 1:
            raise ValueError("files must be nonempty")
        if any(len(f) != size for f in self.files):
            raise ValueError("all files must have the same size")

    @property
    def n_files(self) -> int:
        return len(self.files)

    @property
    def file_bytes(self) -> int:
        return len(self.files[0])

    @property
    def file_bits(self) -> int:
        return 8 * len(self.files[0])

    def file(self, n: int) -> bytes:
        if not 1 <= n <= len(self.files):
            raise ValueError(f"file id {n} outside 1..{len(self.files)}")
        return self.files[n - 1]


def random_library(n_files: int, file_bytes: int, seed: int) -> FileLibrary:
    """N seeded random files; BudgetError above LIBRARY_BYTES_CAP, overhead included."""
    # Each file also costs a bytes object's header and a slot in the tuple.
    payload, overhead = n_files * file_bytes, n_files * (sys.getsizeof(b"") + 8)
    if payload + overhead > LIBRARY_BYTES_CAP:
        raise BudgetError(
            f"library of {n_files} files x {file_bytes} bytes = {payload} bytes "
            f"plus {overhead} bytes of file objects exceeds the cap of {LIBRARY_BYTES_CAP}"
        )
    rng = random.Random(seed)
    return FileLibrary(tuple(rng.randbytes(file_bytes) for _ in range(n_files)))


def relay_code(net: Network) -> ErasureCode:
    """The (h, r) MDS code over the relays; BudgetError above h = 255."""
    if net.h > 255:
        raise BudgetError(f"{net.h} relays exceed the GF(256) limit of 255 MDS pieces")
    return make_code(net.h, net.r)


# ---------------------------------------------------------------------------
# Gathering items


# The array type code of each array item size: 1, 2, 4 and 8 bytes.
_CODES = {array(code).itemsize: code for code in "BHIQ"}


def as_items(buffer, size: int):
    """``buffer`` as :func:`gather` reads its ``size``-byte items, without a
    copy: a memoryview of them as ints at an array item size, otherwise the
    buffer itself.  A trailing part shorter than an item is not an item."""
    code = _CODES.get(size)
    if code is None or (isinstance(buffer, memoryview) and buffer.format == code):
        return buffer
    view = memoryview(buffer)
    return view[: len(view) - len(view) % size].cast(code)


def _negative(values: Sequence[int]) -> bool:
    """Whether some value is negative (or 2**64 or more).  An unsigned array
    refuses such an int in one C-level pass, twice as fast as ``min``.  An
    array of an unsigned type (an upper-case code) holds none, unscanned."""
    if isinstance(values, array) and values.typecode.isupper():
        return False
    try:
        array("Q", values)
    except OverflowError:
        return True
    return False


def _picker(index: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A function from a sequence to its items at ``index``, as a tuple: one
    C-level step per call once it is built."""
    if len(index) > 1:
        return itemgetter(*index)
    return lambda seq: tuple([seq[k] for k in index])


def holds_all(row: bytes, items: Sequence[int]) -> bool:
    """Whether ``row`` is nonzero at every item: the one membership rule of
    a :class:`Plan` row.  A negative item, or one at len(row) or above, is
    not held; no index wraps."""
    if _negative(items):
        return False
    try:
        return all(_picker(items)(row))
    except IndexError:
        return False


def gather(sources: Sequence, which: Sequence[int], index: Sequence[int], size: int) -> bytes:
    """Item ``index[j]`` of source ``which[j]`` for every j, concatenated.

    Item k of a source is its bytes ``[k * size, (k + 1) * size)``; a source
    is a buffer or what :func:`as_items` made of one.  At an array item size
    (1, 2, 4 or 8 bytes) each item is read as an int, one C-level step per
    item with no bytes object per item and no copy of the sources; any other
    size slices and joins.  Raises ValueError if ``which`` and ``index``
    differ in length, and IndexError for a source or an item that does not
    exist; a negative index never wraps.  At size 0 every item is empty.
    """
    if len(which) != len(index):
        raise ValueError(f"{len(which)} sources and {len(index)} indices differ in length")
    views = [as_items(source, size) for source in sources]
    # Items of one source are read without a lookup of their source.
    one = len(views) == 1 and which.count(0) == len(which)
    if (not one and _negative(which)) or _negative(index):
        raise IndexError("a source or item index is negative or too large")
    code = _CODES.get(size)
    if one:
        (view,) = views
        if code:
            return array(code, _picker(index)(view)).tobytes()
        out = b"".join([view[k * size : (k + 1) * size] for k in index])
    elif code:
        return array(code, list(map(getitem, _picker(which)(views), index))).tobytes()
    else:
        pairs = zip(_picker(which)(views), index)
        out = b"".join([view[k * size : (k + 1) * size] for view, k in pairs])
    if len(out) != len(index) * size:
        raise IndexError(f"an item index lies outside its source of {size}-byte items")
    return out


# ---------------------------------------------------------------------------
# Demand vectors


def validate_demand(net: Network, n_files: int, demand: tuple[int, ...]) -> None:
    if len(demand) != net.K:
        raise ValueError(f"demand has {len(demand)} entries for {net.K} users")
    if any(not 1 <= d <= n_files for d in demand):
        raise ValueError(f"demand values must lie in 1..{n_files}")


def distinct_demand(net: Network, n_files: int) -> tuple[int, ...]:
    """User j requests file j; requires at least K files."""
    if n_files < net.K:
        raise ValueError(f"distinct demands need N >= K ({n_files} < {net.K})")
    return tuple(range(1, net.K + 1))


def uniform_demand(net: Network, file_id: int = 1) -> tuple[int, ...]:
    return (file_id,) * net.K


def random_demand(net: Network, n_files: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randint(1, n_files) for _ in range(net.K))


def all_demands(net: Network, n_files: int) -> Iterator[tuple[int, ...]]:
    """All N^K demand vectors in lexicographic order."""
    return product(range(1, n_files + 1), repeat=net.K)


# ---------------------------------------------------------------------------
# The XOR-multicast plan


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
    :attr:`names`, :attr:`member`, :attr:`rest` and :attr:`at`.  No
    scheme builds :attr:`subsets`: the tables enumerate the subsets with
    ``itertools.combinations`` and keep no tuple of them.
    """

    candidates: int
    t: int
    copies: int

    @cached_property
    def subsets(self) -> list[tuple[int, ...]]:
        """subsets[q]: the T of rank q, 1-based; read only to name a refused
        subfile."""
        return enumerate_subsets(self.candidates, self.t)

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
    def held(self) -> list[list[int]]:
        """held[c]: ranks of the T that contain c, increasing."""
        ranks = list(range(comb(self.candidates, self.t)))  # one int object per rank, shared
        return [list(compress(ranks, row[:: self.copies])) for row in self.holds]

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
        # at[j]: the signals stably sorted by C[j], cut where C[j] changes.  C[j]
        # is c (0-based) in C(c, j) * C(n - 1 - c, t - j) signals: j members of C
        # lie below c and t - j above.
        ids = list(range(comb(n, t + 1)))  # so that the at[j] share one int object per s
        at = []
        for j, column in enumerate(self.member):
            order = sorted(ids, key=column.__getitem__)
            cuts = list(accumulate((comb(c, j) * comb(n - 1 - c, t - j) for c in range(n)), initial=0))
            at.append(list(map(order.__getitem__, map(slice, cuts, cuts[1:]))))
        return at

    def decoding(self, c: int) -> tuple[list[int], list[tuple[list[int], list[int]]], list[int]]:
        """(signals, blocks, delivered) for candidate c.

        ``signals``: every s with c in C, grouped by the position of c in C
        and increasing within each group.
        ``blocks[x]``: (member, rest) lists giving, per signal, its x-th
        member other than c and the rank of C minus that member, the term c
        cancels.  ``delivered``: per signal, the rank of C minus c.
        """
        # One C-level picker per nonempty group, reused for every column: an
        # itemgetter of the group, or of a one-item slice for a lone signal.
        # Near t = n - 1 most groups are empty and the rest are lone.
        groups = [(p, at[c]) for p, at in enumerate(self.at) if at[c]]
        picks = [
            (p, itemgetter(*group) if len(group) > 1 else itemgetter(slice(group[0], group[0] + 1)))
            for p, group in groups
        ]

        def column(table: list[list[int]], x: int) -> list[int]:
            """Per signal, table[j][s] for the x-th member j of C other than c."""
            out: list[int] = []
            for p, pick in picks:
                out += pick(table[x + (x >= p)])
            return out

        blocks = [(column(self.member, x), column(self.rest, x)) for x in range(self.t)]
        signals = [s for _, group in groups for s in group]
        delivered: list[int] = []
        for p, pick in picks:
            delivered += pick(self.rest[p])
        return signals, blocks, delivered

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
        :attr:`holds` of its candidate: so the reads by these tables need no
        membership check of their own.
        """
        r = self.copies
        decoders = []
        for c, row in enumerate(self.holds):
            signals, blocks, delivered = self.decoding(c)
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
    copy l on.  The views live as long as the placement, and the plan's
    tables as long as the plan: a copy of the placement over another
    library reads through the same ones.
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

    def sources(self, files: Sequence[int], copies: Sequence[int]) -> list:
        """The view of file files[w] from copy copies[w] on, for each w.

        Raises ValueError if the lengths differ, and IndexError for a file id
        outside 1..N or a copy outside 1..copies: no index wraps.
        """
        N, r = self.lib.n_files, self.plan.copies
        if len(files) != len(copies):
            raise ValueError(f"{len(files)} files and {len(copies)} copies differ in length")
        if not (in_range(files, N) and in_range(copies, r)):
            raise IndexError(f"a file id lies outside 1..{N} or a copy outside 1..{r}")
        views = self.views
        return [views[l - 1][n - 1] for n, l in zip(files, copies)]

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
        return self._read(user, files, copies, which, items, checked=False)

    def cancelled(self, user: int, files: Sequence[int], copies: Sequence[int]) -> bytes:
        """:meth:`gather` of the items by which the user's candidate decodes,
        its table :attr:`Plan.decoders`, over the sources (files, copies).

        The plan checked the table's items against the candidate's row when
        it built the table, so only ``files`` and ``copies`` are checked here,
        with the errors of :meth:`gather`.
        """
        _, which, items = self.plan.decoders[self.label[user] - 1]
        return self._read(user, files, copies, which, items, checked=True)

    def _read(self, user, files, copies, which, items, checked: bool) -> bytes:
        """:meth:`gather`; no membership scan if the plan ``checked`` the items."""
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
                    T = f"item {k}" if off else plan.subsets[q] if 0 <= k < len(row) else q
                    raise KeyError(f"user {user} does not cache ({n}, {T}, {l})")
            # Every item read is cached: a file or copy that none reads is out of range.
            raise IndexError(f"a file id lies outside 1..{N} or a copy outside 1..{r}")
        views = self.views
        sources = [views[l - 1][n - 1] for n, l in zip(files, copies)]
        return gather(sources, which, items, self.subfile_bytes)

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


def place_planned(
    net: Network, lib: FileLibrary, M, label: Sequence[int], copies: int, symbol: str, code=None
) -> PlannedCache:
    """The :class:`PlannedCache` of ``lib`` at storage M: user u caches as
    candidate label[u] of n = max(label), named ``symbol`` in messages, each
    T in ``copies`` copies; ``code`` is the MDS code of the signals, if any.

    M must lie on the grid of :func:`grid_t`, and the file must split into
    r * C(n, t) whole-byte units: ``copies`` subfiles of each T, or the r
    parts of each subfile that the MDS code spreads.  BudgetError, before
    either split is checked and before any table is built, if the plan
    would index more than PLAN_SLOTS_CAP slots, n * copies * C(n, t).
    """
    n = max(label)
    t = grid_t(n, lib.n_files, M, symbol)
    slots = n * copies * comb(n, t)
    if slots > PLAN_SLOTS_CAP:
        raise BudgetError(
            f"a plan over {symbol} = {n} candidates with {copies} copies of C({n}, {t}) subsets needs "
            f"{slots} slots, more than the cap of {PLAN_SLOTS_CAP}"
        )
    units = net.r * comb(n, t)
    if lib.file_bytes % units != 0:
        raise SubpacketizationError(
            f"file size {lib.file_bytes} bytes must be divisible by {units} "
            f"(= r * C({symbol}, t) subfiles)"
        )
    size = lib.file_bytes // (copies * comb(n, t))
    return PlannedCache(net, lib, Plan(n, t, copies), size, label, code)


# ---------------------------------------------------------------------------
# Signals and logs


# A label form (prefix, names, suffix): position k is labelled prefix + names[k] + suffix.
Form = tuple[str, Sequence[str], str]


@dataclass(frozen=True, eq=False)
class Batch:
    """Records that share one payload buffer; never changed once built.

    The k-th record is position k of the label form ``(prefix, names,
    suffix)``, with bytes ``[k * part, (k + 1) * part)`` of ``data``.  Its
    label ``prefix + names[k] + suffix`` is rendered only for output; a
    scheme passes one ``names`` sequence of its placement to all of its
    batches.  Two batches are equal only if they are the same object.
    """

    names: Sequence[str]
    data: bytes
    part: int
    prefix: str = ""
    suffix: str = ""

    def __post_init__(self) -> None:
        # bytes(b) is b itself; a mutable buffer is copied once, here.
        object.__setattr__(self, "data", bytes(self.data))
        if len(self.data) != len(self.names) * self.part:
            raise ValueError(
                f"{len(self.names)} records of {self.part} bytes need "
                f"{len(self.names) * self.part} bytes, got {len(self.data)}"
            )

    @property
    def form(self) -> Form:
        return self.prefix, self.names, self.suffix

    @property
    def labels(self) -> list[str]:
        """Every record's label, rendered anew on each read."""
        prefix, suffix = self.prefix, self.suffix
        return [prefix + name + suffix for name in self.names]


def _count(batch: Batch, picks: Sequence[int] | None) -> int:
    """Records in a part of an edge."""
    return len(batch.names) if picks is None else len(picks)


class Edge:
    """The records on one edge, held as parts ``(batch, picks)``: the whole
    batch when ``picks`` is None, else its records at the positions in
    ``picks``, in that order.  ``len`` is the record count.
    """

    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts: list[tuple[Batch, Sequence[int] | None]] = []

    def __len__(self) -> int:
        return sum(_count(batch, picks) for batch, picks in self.parts)

    @property
    def bits(self) -> int:
        return 8 * sum(batch.part * _count(batch, picks) for batch, picks in self.parts)


def payloads(
    user: int, relay: int, received: Mapping[int, Edge], positions: Sequence[int], form: Form
) -> bytes:
    """The payloads of the records at ``positions`` of the label form
    ``form`` in ``relay``'s feed to ``user``, joined in order; the last one,
    if the feed holds a position more than once.

    Only parts whose batch has that form answer, so a batch of another
    form, such as another relay's, is never read as this one.  A single
    part answers with one :func:`gather`, or with its buffer itself when a
    whole batch is read at all of its positions in order.  Raises
    IndexError for a position outside the form before reading anything,
    and IncompleteReceptionError naming the label of the first position the
    relay did not deliver.
    """
    prefix, names, suffix = form
    n = len(names)
    if positions and (_negative(positions) or max(positions) >= n):
        bad = next(k for k in positions if not 0 <= k < n)
        raise IndexError(
            f"position {bad} lies outside the {n} records of the form read from relay {relay}"
        )
    edge = received.get(relay)
    parts = [part for part in edge.parts if part[0].form == form] if edge else []
    if len(parts) == 1:
        ((batch, picks),) = parts
        if picks is None and len(positions) == n and list(positions) == list(range(n)):
            return batch.data
        if picks is None or set(picks).issuperset(positions):
            return gather([batch.data], [0] * len(positions), positions, batch.part)
    found: dict[int, bytes] = {}
    for batch, picks in parts:
        data, part = batch.data, batch.part
        at = range(len(batch.names)) if picks is None else picks
        found.update((k, data[k * part : (k + 1) * part]) for k in at)
    try:
        return b"".join(map(found.__getitem__, positions))
    except KeyError as exc:
        label = prefix + names[exc.args[0]] + suffix
        raise IncompleteReceptionError(
            f"user {user} did not receive {label!r} from relay {relay}"
        ) from None


def _render(batch: Batch, layout: tuple[str, str, str]) -> list[str]:
    """Each record of ``batch`` as its JSON object: ``layout`` is the text
    before the label (with ``%d`` for the bits), between the label and the
    payload hex, and after the hex."""
    head, mid, tail = layout
    prefix, names, suffix = batch.form
    # JSON escapes char by char, so a label's text is its escaped prefix, name
    # and suffix.  Names that need no escape (none lengthens) go in as they are.
    head = head % (8 * batch.part) + encode_basestring_ascii(prefix)[:-1]
    mid = encode_basestring_ascii(suffix)[1:] + mid
    plain = "".join(names)
    if len(encode_basestring_ascii(plain)) != len(plain) + 2:
        names = [encode_basestring_ascii(name)[1:-1] for name in names]
    hexed = batch.data.hex(",", batch.part).split(",") if batch.part else [""] * len(names)
    return [f"{head}{name}{mid}{x}{tail}" for name, x in zip(names, hexed)]


@dataclass
class TransmissionLog:
    """Every signal on every server->relay and relay->user edge.

    Each edge is an :class:`Edge` of batches.  A scheme sends a batch per
    server edge (or per relay-user pair) built from the buffer it already
    joined, and a relay forwards that same batch object, whole or at picked
    positions, so one buffer serves every edge that carries it.  A relay
    edge may only carry a batch that is on that relay's server edge (relays
    have no other input).  :meth:`write` serializes it.
    """

    server_edges: dict[int, Edge] = field(default_factory=dict)
    relay_edges: dict[tuple[int, int], Edge] = field(default_factory=dict)

    def add_server(self, relay: int, batch: Batch) -> None:
        """Append ``batch`` to server edge ``relay``; an empty batch adds no edge."""
        if batch.names:
            self.server_edges.setdefault(relay, Edge()).parts.append((batch, None))

    def forward(
        self, relay: int, user: int, batch: Batch, picks: Sequence[int] | None = None
    ) -> None:
        """Append ``batch`` to edge (relay, user): whole, or its records at
        ``picks`` in that order.  The batch must be on the relay's server
        edge, as the same object.  A batch or picks with no records adds no
        edge and is not checked."""
        n = len(batch.names)
        if not _count(batch, picks):
            return
        if picks is not None and not (0 <= min(picks) and max(picks) < n):
            raise IndexError(f"picks outside the {n} records of the batch")
        server = self.server_edges.get(relay, Edge())
        if not any(batch is sent for sent, _ in reversed(server.parts)):
            first = batch.labels[0 if picks is None else picks[0]]
            raise ValueError(
                f"relay {relay} cannot forward {first!r}: its batch is not on the relay's server edge"
            )
        self.relay_edges.setdefault((relay, user), Edge()).parts.append((batch, picks))

    def server_bits(self, relay: int) -> int:
        edge = self.server_edges.get(relay)
        return edge.bits if edge else 0

    def relay_bits(self, relay: int, user: int) -> int:
        edge = self.relay_edges.get((relay, user))
        return edge.bits if edge else 0

    def to_user(self, user: int) -> dict[int, Edge]:
        return {relay: edge for (relay, u), edge in self.relay_edges.items() if u == user}

    def write(self, write: Callable[[bytes], object], indent: int | None = None) -> None:
        """Stream the log to the bytes sink ``write``, one edge at a time, as
        the key-sorted JSON of its record lists that the ``json`` module
        writes: compact when ``indent`` is None, else indented.

        A batch is rendered once; its text is kept for the walk, at most the
        server edges' text.  So are the records of the last batch picked
        from, as every scheme picks from one batch per relay.
        """
        pad = ["" if indent is None else "\n" + " " * (indent * k) for k in range(6)]
        c = ":" if indent is None else ": "
        layout = (
            f'{{{pad[5]}"bits"{c}%d,{pad[5]}"label"{c}',
            f',{pad[5]}"payload"{c}"',
            f'"{pad[4]}}}',
        )
        sep = f",{pad[4]}"
        whole: dict[int, bytes] = {}  # by batch identity: the log holds every batch
        picked: dict[int, list[str]] = {}  # the records of the last batch picked from

        def text(part: tuple[Batch, Sequence[int] | None]) -> bytes:
            batch, picks = part
            key = id(batch)
            if key not in whole or (picks is not None and key not in picked):
                rendered = _render(batch, layout)
                whole[key] = sep.join(rendered).encode()
                if picks is not None:
                    picked.clear()
                    picked[key] = rendered
            if picks is None:
                return whole[key]
            return sep.join(map(picked[key].__getitem__, picks)).encode()

        relay_edges = sorted(self.relay_edges.items())
        server_edges = [((i,), edge) for i, edge in sorted(self.server_edges.items())]
        for opening, name, edges, close in (
            ("{", "relay_edges", relay_edges, f'],{pad[3]}"user"{c}%d{pad[2]}}}'),
            (",", "server_edges", server_edges, f"]{pad[2]}}}"),
        ):
            write(f'{opening}{pad[1]}"{name}"{c}['.encode())
            lead = pad[2]
            for (relay, *user), edge in edges:
                inner = (pad[4], pad[3]) if len(edge) else ("", "")
                write(f'{lead}{{{pad[3]}"relay"{c}{relay},{pad[3]}"signals"{c}[{inner[0]}'.encode())
                write(sep.encode().join(filter(None, map(text, edge.parts))))
                write((inner[1] + close % tuple(user)).encode())
                lead = f",{pad[2]}"
            write(f"{pad[1] if edges else ''}]".encode())
        write(f"{pad[0]}}}".encode())

    def digest(self) -> str:
        """sha256 of the compact :meth:`write` text."""
        sha = hashlib.sha256()
        self.write(sha.update)
        return sha.hexdigest()
