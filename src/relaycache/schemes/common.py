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
  :func:`payloads`.  :func:`pick` is the same read by index into a list,
  for the int forms of large subfiles in the multicast of both coded
  schemes.

The transmission log and its wire format are in :mod:`.log`, which imports
nothing else from the package; the multicast plan and the cache of both
coded schemes are in :mod:`.plan`, which reads through this module.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from operator import getitem, itemgetter
from typing import Callable, Collection, Iterator, Mapping, Sequence

from ..erasure import ErasureCode, make_code
from ..topology import BudgetError, Network
from .log import Edge, Form
from .log import TransmissionLog  # noqa: F401 - unused; the bench tracer imports it from here


class SubpacketizationError(ValueError):
    """File size is not divisible into the required number of equal subfiles."""


class IncompleteReceptionError(RuntimeError):
    """A decoder is missing signals from one of its relays."""


# Largest library random_library builds: 1 GiB, refused before allocating.
LIBRARY_BYTES_CAP = 2**30


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


def check_library_bytes(n_files: int, file_bytes: int) -> None:
    """BudgetError if N files of ``file_bytes`` exceed LIBRARY_BYTES_CAP, overhead included."""
    # Each file also costs a bytes object's header and a slot in the tuple.
    payload, overhead = n_files * file_bytes, n_files * (sys.getsizeof(b"") + 8)
    if payload + overhead > LIBRARY_BYTES_CAP:
        raise BudgetError(
            f"library of {n_files} files x {file_bytes} bytes = {payload} bytes "
            f"plus {overhead} bytes of file objects exceeds the cap of {LIBRARY_BYTES_CAP}"
        )


def random_library(n_files: int, file_bytes: int, seed: int) -> FileLibrary:
    """N seeded random files; BudgetError from :func:`check_library_bytes` first."""
    check_library_bytes(n_files, file_bytes)
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
    refuses such an int in one C-level pass, twice as fast as ``min``.
    ``bytes`` and an array of an unsigned type (an upper-case code) hold
    none, unscanned."""
    if isinstance(values, bytes) or (isinstance(values, array) and values.typecode.isupper()):
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
        return all(map(getitem, repeat(row), items))  # no tuple of the items' ints
    except IndexError:
        return False


def pick(sources: Sequence[Sequence], which: Sequence[int], index: Sequence[int]) -> list:
    """Item ``index[j]`` of source ``which[j]`` for every j, as a list: the
    read of :func:`gather` at an array item size, over any sequences, such
    as the int forms of :meth:`.plan.PlannedCache.int_sources`.  Raises
    ValueError if ``which`` and ``index`` differ in length, and IndexError
    for a source or an item that does not exist; no index wraps."""
    if len(which) != len(index):
        raise ValueError(f"{len(which)} sources and {len(index)} indices differ in length")
    if _negative(which) or _negative(index):
        raise IndexError("a source or item index is negative or too large")
    return list(map(getitem, _picker(which)(sources), index))


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
# Reading records


def payloads(
    user: int,
    relay: int,
    received: Mapping[int, Edge],
    positions: Sequence[int],
    form: Form,
) -> bytes:
    """The payloads of the records at ``positions`` of the label form
    ``form`` in ``relay``'s feed to ``user``, joined in order; the last one,
    if the feed holds a position more than once.

    Only parts whose batch has that form answer, so a batch of another
    form, such as another relay's, is never read as this one.  A single
    part answers with one :func:`gather`, or with its buffer itself when a
    whole batch is read at all of its positions in order; its picks must
    hold every position, checked on each read.  Raises IndexError for a
    position outside the form before reading anything, and
    IncompleteReceptionError naming the label of the first position the
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
        # A range compares in O(1); any other sequence item by item.
        if picks is None and len(positions) == n and (
            positions == range(n) if isinstance(positions, range) else list(positions) == list(range(n))
        ):
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
