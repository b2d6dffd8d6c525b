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
* Relays can only forward what they received: :meth:`TransmissionLog.forward`
  rejects a record that is not already on that relay's server edge.

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
from json.encoder import encode_basestring_ascii
from operator import attrgetter, lt
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
        signals = [s for group in groups for s in group]
        delivered = [self.rest[p][s] for p, group in enumerate(groups) for s in group]
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


def payloads(
    user: int, relay: int, received: Mapping[int, Sequence[Record]], labels: Iterable[str]
) -> list[bytes]:
    """The payloads of ``labels`` in ``relay``'s feed to ``user``, in order.

    Raises IncompleteReceptionError naming the first label the relay did not
    deliver.
    """
    feed = dict(received.get(relay, ()))
    try:
        return [feed[label] for label in labels]
    except KeyError as exc:
        raise IncompleteReceptionError(
            f"user {user} did not receive {exc.args[0]!r} from relay {relay}"
        ) from None


_label_of = attrgetter("label")
_payload_of = attrgetter("payload")


def _bits(records: Sequence[Record]) -> int:
    return 8 * sum(map(len, map(_payload_of, records)))


def _signals(records: Sequence[Record]) -> list[dict]:
    return [
        {"label": r.label, "bits": r.bits, "payload": r.payload.hex()} for r in records
    ]


class _Fragments(dict):
    """Record -> its compact JSON object as bytes, rendered on first use."""

    def __missing__(self, rec: Record) -> bytes:
        label, payload = rec
        text = '{"bits":%d,"label":%s,"payload":"%s"}' % (
            8 * len(payload),
            encode_basestring_ascii(label),
            payload.hex(),
        )
        out = self[rec] = text.encode()
        return out


@dataclass
class TransmissionLog:
    """Every signal on every server->relay and relay->user edge.

    Relay edges may only carry records already present on that relay's
    server edge (relays have no other input).
    """

    server_edges: dict[int, list[Record]] = field(default_factory=dict)
    relay_edges: dict[tuple[int, int], list[Record]] = field(default_factory=dict)
    _seen: dict[int, set[str]] = field(default_factory=dict, repr=False)

    def add_server(self, relay: int, records: Sequence[Record]) -> None:
        """Append ``records`` to server edge ``relay``; none adds no edge."""
        if records:
            self._seen.setdefault(relay, set()).update(map(_label_of, records))
            self.server_edges.setdefault(relay, []).extend(records)

    def forward(self, relay: int, user: int, records: Sequence[Record]) -> None:
        """Append ``records`` to edge (relay, user); each must already be on
        the relay's server edge.  None adds no edge."""
        seen = self._seen.get(relay, set())
        if not seen.issuperset(map(_label_of, records)):
            label = next(r.label for r in records if r.label not in seen)
            raise ValueError(
                f"relay {relay} cannot forward {label!r}: not on its server edge"
            )
        if records:
            self.relay_edges.setdefault((relay, user), []).extend(records)

    def server_bits(self, relay: int) -> int:
        return _bits(self.server_edges.get(relay, ()))

    def relay_bits(self, relay: int, user: int) -> int:
        return _bits(self.relay_edges.get((relay, user), ()))

    def to_user(self, user: int) -> dict[int, list[Record]]:
        return {
            relay: records
            for (relay, u), records in self.relay_edges.items()
            if u == user
        }

    def to_dict(self) -> dict:
        return {
            "server_edges": [
                {"relay": relay, "signals": _signals(records)}
                for relay, records in sorted(self.server_edges.items())
            ],
            "relay_edges": [
                {"relay": relay, "user": user, "signals": _signals(records)}
                for (relay, user), records in sorted(self.relay_edges.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def digest(self) -> str:
        """sha256 of ``json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":"))``, streamed one edge at a time.

        Each distinct record is rendered once and reused on every edge that
        carries it.
        """
        fragment = _Fragments().__getitem__
        sha = hashlib.sha256(b'{"relay_edges":[')
        sep = b""
        for (relay, user), records in sorted(self.relay_edges.items()):
            signals = b",".join(map(fragment, records))
            edge = b'{"relay":%d,"signals":[%s],"user":%d}' % (relay, signals, user)
            sha.update(sep + edge)
            sep = b","
        sha.update(b'],"server_edges":[')
        sep = b""
        for relay, records in sorted(self.server_edges.items()):
            signals = b",".join(map(fragment, records))
            sha.update(sep + b'{"relay":%d,"signals":[%s]}' % (relay, signals))
            sep = b","
        sha.update(b"]}")
        return sha.hexdigest()
