"""Shared plumbing for the placement/delivery/decode pipelines.

Conventions used by every scheme:

* Files, subfiles, signals, and pieces are ``bytes``; sizes are exact and
  all arithmetic on them is bit-exact (XOR, slicing, GF(256) scaling).
* A demand vector is a tuple of length K mapping user index (0-based
  position in ``net.users``) to a requested file id in 1..N.
* Every transmitted signal is a :class:`Record` with a canonical label, so
  two runs of the same experiment produce byte-identical logs.  The label
  is the signal's only identity: each scheme builds it with one function,
  which delivery and decoding both call, and no code parses it back.
  Decoders look records up by label with :func:`payloads`.
* Records travel in batches, and only in batches.  A :class:`Batch` is a
  label tuple, one payload buffer and a part size: the signals a scheme
  already builds as one joined buffer.  Each edge of a
  :class:`TransmissionLog` is an :class:`Edge` of batches, and a relay edge
  holds the very batch of its server edge, whole or at picked positions.
  So one buffer and one label -> position map serve every edge that
  carries a batch, and the digest renders each batch once.  An edge
  iterates as its records, and the wire format is that of a plain list of
  records.
* Relays can only forward what they received: :meth:`TransmissionLog.forward`
  rejects a batch that is not, as the same object, on that relay's server
  edge.

Cache objects are lazy views over the library: they answer membership and
content queries per user without materializing every subfile.  Each scheme's
cache defines ``has(user, key)``, ``get(user, key)``, ``keys(user)`` and
``cached_bits(user)``; the key shape is scheme-specific.  ``get`` raises
``KeyError`` for anything the user did not cache, which keeps decoders
honest about what they may read.  :class:`CacheView` derives
``signature(user)`` and ``materialize(user)`` from ``keys`` and ``get``.

Both coded schemes run the coded multicast of Maddah-Ali and Niesen
("Fundamental limits of caching", IEEE Trans. IT 2014) over n sharing
candidates: ``proposed`` per relay over the Kt parallel classes, ``cmcnc``
over the K users.  The one index plan of that multicast lives here, in
:class:`PlannedCache`, which both schemes' caches extend: a
:class:`SubsetPlan` and a :class:`SignalPlan`, built once per placement.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import lt
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ..combinatorics import enumerate_subsets
from ..topology import Network


class GridError(ValueError):
    """Storage size M is off the scheme's memory grid (t would be fractional)."""


class SubpacketizationError(ValueError):
    """File size is not divisible into the required number of equal subfiles."""


class IncompleteReceptionError(RuntimeError):
    """A decoder is missing signals from one of its relays."""


class BudgetError(ValueError):
    """A run would exceed a fixed size budget (library bytes, demand vectors)."""


# Largest library random_library builds: 1 GiB, refused before allocating.
LIBRARY_BYTES_CAP = 2**30


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


def in_range(values: Collection[int], top: int) -> bool:
    """Every value lies in 1..top."""
    return not values or (1 <= min(values) and max(values) <= top)


def is_subset(S: Sequence[int], top: int, size: int) -> bool:
    """S is a ``size``-subset of 1..top, strictly increasing."""
    return (
        len(S) == size
        and (not S or (1 <= S[0] and S[-1] <= top))
        and all(map(lt, S, S[1:]))
    )


class CacheView:
    """``signature`` and ``materialize`` for caches that define ``keys`` and ``get``."""

    def signature(self, user: int) -> frozenset:
        return frozenset(self.keys(user))

    def materialize(self, user: int) -> dict:
        return {key: self.get(user, key) for key in self.keys(user)}


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
    """N seeded random files; BudgetError above LIBRARY_BYTES_CAP in total."""
    if n_files * file_bytes > LIBRARY_BYTES_CAP:
        raise BudgetError(
            f"library of {n_files} files x {file_bytes} bytes = "
            f"{n_files * file_bytes} bytes exceeds the cap of {LIBRARY_BYTES_CAP}"
        )
    rng = random.Random(seed)
    return FileLibrary(tuple(rng.randbytes(file_bytes) for _ in range(n_files)))


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
    import itertools

    return itertools.product(range(1, n_files + 1), repeat=net.K)


# ---------------------------------------------------------------------------
# The XOR-multicast plan


def fmt_subset(subset: tuple[int, ...]) -> str:
    return ".".join(map(str, subset)) if subset else "-"


@dataclass(frozen=True)
class SubsetPlan:
    """The t-subsets T of n sharing candidates, by rank; candidates are 0-based.

    ``names`` and ``missing`` are built on first use: of the schemes, only
    ``routing`` reads them.
    """

    subsets: list[tuple[int, ...]]  # subsets[q]: the T of rank q, 1-based
    held: list[list[int]]  # held[c]: ranks of the T that contain c, increasing
    holds: list[frozenset[int]]  # holds[c]: held[c] as a set, for membership checks

    @cached_property
    def names(self) -> list[str]:
        """names[q]: the T of rank q as written in labels."""
        return list(map(fmt_subset, self.subsets))

    @cached_property
    def missing(self) -> list[list[int]]:
        """missing[c]: ranks of the T without c, increasing."""
        everything = frozenset(range(len(self.subsets)))
        return [sorted(everything - hold) for hold in self.holds]


class SignalPlan(NamedTuple):
    """The (t+1)-subsets C of n sharing candidates, by rank s; candidates are
    0-based.

    Signal C is the XOR of t+1 terms.  Term j is the subfile indexed by C
    minus C[j] of the file that candidate C[j] demands.
    """

    names: list[str]  # names[s]: the C of rank s, 1-based, as written in labels
    member: list[list[int]]  # member[j][s]: C[j]
    rest: list[list[int]]  # rest[j][s]: rank of C minus C[j] among the T
    at: list[list[list[int]]]  # at[j][c]: every s with C[j] == c, increasing

    def decoding(self, c: int) -> tuple[list[int], list[tuple[list[int], list[int]]], list[int]]:
        """(signals, blocks, delivered) for candidate c.

        ``signals``: every s with c in C, grouped by the position of c in C
        and increasing within each group.
        ``blocks[x]``: (member, rest) lists giving, per signal, its x-th
        member other than c and the rank of C minus that member, the term c
        cancels.  ``delivered``: per signal, the rank of C minus c.
        """
        groups = [at[c] for at in self.at]
        blocks = []
        for x in range(len(groups) - 1):
            member: list[int] = []
            rest: list[int] = []
            for p, group in enumerate(groups):
                j = x + (x >= p)
                member += map(self.member[j].__getitem__, group)
                rest += map(self.rest[j].__getitem__, group)
            blocks.append((member, rest))
        signals = list(chain.from_iterable(groups))
        delivered: list[int] = []
        for p, group in enumerate(groups):
            delivered += map(self.rest[p].__getitem__, group)
        return signals, blocks, delivered


def plan_subsets(n: int, t: int) -> SubsetPlan:
    subsets = enumerate_subsets(n, t)
    held: list[list[int]] = [[] for _ in range(n)]
    for q, T in enumerate(subsets):
        for c in T:
            held[c - 1].append(q)
    return SubsetPlan(subsets, held, list(map(frozenset, held)))


def plan_signals(n: int, t: int) -> SignalPlan:
    rank = {T: q for q, T in enumerate(enumerate_subsets(n, t))}
    signals = enumerate_subsets(n, t + 1) if t < n else []
    at: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(t + 1)]
    for s, C in enumerate(signals):
        for j, c in enumerate(C):
            at[j][c - 1].append(s)
    return SignalPlan(
        names=list(map(fmt_subset, signals)),
        member=[[C[j] - 1 for C in signals] for j in range(t + 1)],
        rest=[[rank[C[:j] + C[j + 1 :]] for C in signals] for j in range(t + 1)],
        at=at,
    )


@dataclass(frozen=True)
class PlannedCache(CacheView):
    """Uncoded placement over the t-subsets of ``candidates``, with its plan.

    The plan lives as long as the placement: one run of a scheme at one
    memory point, over every demand it serves.
    """

    net: Network
    lib: FileLibrary
    storage: Fraction
    t: int
    subfile_bytes: int

    @property
    def candidates(self) -> int:
        raise NotImplementedError

    @cached_property
    def subset_plan(self) -> SubsetPlan:
        return plan_subsets(self.candidates, self.t)

    @cached_property
    def signal_plan(self) -> SignalPlan:
        return plan_signals(self.candidates, self.t)


# ---------------------------------------------------------------------------
# Signals and logs


class Record(NamedTuple):
    """One signal on one edge: canonical label plus payload bytes."""

    label: str
    payload: bytes

    @property
    def bits(self) -> int:
        return 8 * len(self.payload)


@dataclass(frozen=True, eq=False)
class Batch:
    """Records that share one payload buffer; never changed once built.

    Record k is ``labels[k]`` with bytes ``[k * part, (k + 1) * part)`` of
    ``data``.  Two batches are equal only if they are the same object.
    """

    labels: tuple[str, ...]
    data: bytes
    part: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        # bytes(b) is b itself; a mutable buffer is copied once, here.
        object.__setattr__(self, "data", bytes(self.data))
        if len(self.data) != len(self.labels) * self.part:
            raise ValueError(
                f"{len(self.labels)} records of {self.part} bytes need "
                f"{len(self.labels) * self.part} bytes, got {len(self.data)}"
            )

    @cached_property
    def index(self) -> dict[str, int]:
        """label -> position of its last record, built on the first lookup
        and shared by every edge that carries the whole batch."""
        return dict(zip(self.labels, range(len(self.labels))))

    def payloads(self, positions: Iterable[int]) -> list[bytes]:
        """The payloads of the records at ``positions``."""
        data, part = self.data, self.part
        return [data[k * part : (k + 1) * part] for k in positions]


def _count(batch: Batch, picks: Sequence[int] | None) -> int:
    """Records in a part of an edge."""
    return len(batch.labels) if picks is None else len(picks)


class Edge:
    """The records on one edge, held as parts ``(batch, picks)``: the whole
    batch when ``picks`` is None, else its records at the positions in
    ``picks``, in that order.  Iterating yields each :class:`Record`.
    """

    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts: list[tuple[Batch, Sequence[int] | None]] = []

    def __len__(self) -> int:
        return sum(_count(batch, picks) for batch, picks in self.parts)

    def __iter__(self) -> Iterator[Record]:
        for batch, picks in self.parts:
            positions = range(len(batch.labels)) if picks is None else picks
            yield from map(Record, map(batch.labels.__getitem__, positions), batch.payloads(positions))

    @property
    def bits(self) -> int:
        return 8 * sum(batch.part * _count(batch, picks) for batch, picks in self.parts)


def payloads(
    user: int, relay: int, received: Mapping[int, Edge], labels: Iterable[str]
) -> list[bytes]:
    """The payload of the last record with each label in ``relay``'s feed to
    ``user``, in order.

    Raises IncompleteReceptionError naming the first label the relay did not
    deliver.
    """
    edge = received.get(relay, Edge())
    try:
        if len(edge.parts) == 1:
            batch, picks = edge.parts[0]
            if picks is None:
                index = batch.index
            else:
                index = dict(zip(map(batch.labels.__getitem__, picks), picks))
            return batch.payloads(list(map(index.__getitem__, labels)))
        found = dict(edge)
        return [found[label] for label in labels]
    except KeyError as exc:
        raise IncompleteReceptionError(
            f"user {user} did not receive {exc.args[0]!r} from relay {relay}"
        ) from None


def _signals(records: Iterable[Record]) -> list[dict]:
    return [
        {"label": r.label, "bits": r.bits, "payload": r.payload.hex()} for r in records
    ]


def _render(batch: Batch) -> list[str]:
    """Each record of ``batch`` as its compact JSON object."""
    head = '{"bits":%d,"label":' % (8 * batch.part)
    hexed = batch.data.hex(",", batch.part).split(",") if batch.part else [""] * len(batch.labels)
    return [
        f'{head}{encode_basestring_ascii(label)},"payload":"{x}"}}'
        for label, x in zip(batch.labels, hexed)
    ]


class _Rendered:
    """Edges as the comma-joined JSON objects of their records.

    Each batch is rendered once and reused on every edge that carries it:
    as one buffer where an edge carries it whole, record by record where an
    edge picks from it.  Keyed by batch identity, as the log holds every
    batch while this lives.
    """

    def __init__(self) -> None:
        self.whole: dict[int, bytes] = {}
        self.records: dict[int, list[str]] = {}

    def edge(self, edge: Edge) -> bytes:
        out = []
        for batch, picks in edge.parts:
            key = id(batch)
            if picks is not None:
                if key not in self.records:
                    self.records[key] = _render(batch)
                out.append(",".join(map(self.records[key].__getitem__, picks)).encode())
                continue
            if key not in self.whole:
                records = self.records.get(key) or _render(batch)
                self.whole[key] = ",".join(records).encode()
            out.append(self.whole[key])
        return b",".join(out)


@dataclass
class TransmissionLog:
    """Every signal on every server->relay and relay->user edge.

    Each edge is an :class:`Edge` of batches.  A scheme sends a batch per
    server edge (or per relay-user pair) built from the buffer it already
    joined, and a relay forwards that same batch object, whole or at picked
    positions, so one buffer serves every edge that carries it.  A relay
    edge may only carry a batch that is on that relay's server edge (relays
    have no other input).
    """

    server_edges: dict[int, Edge] = field(default_factory=dict)
    relay_edges: dict[tuple[int, int], Edge] = field(default_factory=dict)

    def add_server(self, relay: int, batch: Batch) -> None:
        """Append ``batch`` to server edge ``relay``; an empty batch adds no edge."""
        if batch.labels:
            self.server_edges.setdefault(relay, Edge()).parts.append((batch, None))

    def forward(
        self, relay: int, user: int, batch: Batch, picks: Sequence[int] | None = None
    ) -> None:
        """Append ``batch`` to edge (relay, user): whole, or its records at
        ``picks`` in that order.  The batch must be on the relay's server
        edge, as the same object.  A batch or picks with no records adds no
        edge and is not checked."""
        n = len(batch.labels)
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

    def to_dict(self) -> dict:
        return {
            "server_edges": [
                {"relay": relay, "signals": _signals(edge)}
                for relay, edge in sorted(self.server_edges.items())
            ],
            "relay_edges": [
                {"relay": relay, "user": user, "signals": _signals(edge)}
                for (relay, user), edge in sorted(self.relay_edges.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def digest(self) -> str:
        """sha256 of ``json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":"))``, streamed one edge at a time.

        Each batch is rendered once and its bytes are reused on every edge
        that carries it.
        """
        render = _Rendered().edge
        sha = hashlib.sha256(b'{"relay_edges":[')
        sep = b""
        for (relay, user), edge in sorted(self.relay_edges.items()):
            sha.update(sep + b'{"relay":%d,"signals":[' % relay)
            sha.update(render(edge))
            sha.update(b'],"user":%d}' % user)
            sep = b","
        sha.update(b'],"server_edges":[')
        sep = b""
        for relay, edge in sorted(self.server_edges.items()):
            sha.update(sep + b'{"relay":%d,"signals":[' % relay)
            sha.update(render(edge))
            sha.update(b"]}")
            sep = b","
        sha.update(b"]}")
        return sha.hexdigest()
