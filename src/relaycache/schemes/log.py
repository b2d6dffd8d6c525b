"""The transmission log and its wire format.

* Records travel in batches, and only in batches.  A :class:`Batch` is a
  label form, one payload buffer and a part size: the signals a scheme
  already builds as one joined buffer.  Each edge of a
  :class:`TransmissionLog` is an :class:`Edge` of batches, and a relay edge
  holds the very batch of its server edge, whole or at picked positions.
  So one buffer, and one names sequence of the placement, serve every
  edge that carries a batch.
* :meth:`TransmissionLog.write` is the one serializer: the digest hashes
  its compact JSON, and ``run --out`` streams its indented JSON to a file.
  It holds one batch's text at a time and renders a batch again where it
  comes again, so its memory follows the largest batch, not the log.
* Relays can only forward what they received: :meth:`TransmissionLog.forward`
  rejects a batch that is not, as the same object, on that relay's server
  edge.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Sequence


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


def _escaped(names: Sequence[str]) -> Sequence[str]:
    """Each name as JSON writes it between its quotes: ``names`` itself when
    every character is printable ASCII other than a quote or a backslash,
    the characters JSON writes as they are."""
    plain = "".join(names)
    if plain.isascii() and plain.isprintable() and '"' not in plain and "\\" not in plain:
        return names
    return [encode_basestring_ascii(name)[1:-1] for name in names]


# Records per piece of a rendered batch.  Each buffer a piece needs stays
# within tens of kB, which the allocator reuses from piece to piece; the
# buffers of a whole large batch would be mapped anew on every render.
_PIECE = 1024


def _render(batch: Batch, names: Sequence[str], layout: tuple[str, str, str], cut: str) -> Iterator[bytes]:
    """Each record of ``batch`` as its JSON object, joined by ``cut``, in
    encoded pieces of _PIECE records; joined by ``cut`` again, the pieces
    are the batch's text.  ``names`` is :func:`_escaped` of its names, and
    ``layout`` the text before the label (with ``%d`` for the bits), between
    the label and the payload hex, and after the hex.

    A piece's constant text, names and hex go into one list by slice
    assignment and then one join, so no string is built per record.
    """
    head, mid, tail = layout
    head = head % (8 * batch.part) + encode_basestring_ascii(batch.prefix)[:-1]
    mid = encode_basestring_ascii(batch.suffix)[1:] + mid
    data, part, n = batch.data, batch.part, len(names)
    for start in range(0, n, _PIECE):
        k = min(n - start, _PIECE)
        pieces = [tail + cut + head, None, mid, None] * k
        pieces[0] = head
        pieces[1::4] = names[start : start + k]
        pieces[3::4] = data[start * part : (start + k) * part].hex(",", part).split(",") if part else [""] * k
        pieces.append(tail)
        text = "".join(pieces)
        del pieces  # the pieces go before the encoded copy is made
        yield text.encode()


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
        """Stream the log to the bytes sink ``write``, part by part, as the
        key-sorted JSON of its record lists that the ``json`` module writes:
        compact when ``indent`` is None, else indented.

        It holds the text of one batch at a time: the text of the last batch
        written whole, which the next edges reuse while they carry it (a
        relay forwards one batch to each of its users), or the records of the
        last batch picked from.  Any other batch, on a server edge too, is
        rendered again where it comes, so what ``write`` holds does not grow
        with the log.  Whether a names sequence needs escapes is found once
        per call.
        """
        pad = ["" if indent is None else "\n" + " " * (indent * k) for k in range(6)]
        c = ":" if indent is None else ": "
        layout = (
            f'{{{pad[5]}"bits"{c}%d,{pad[5]}"label"{c}',
            f',{pad[5]}"payload"{c}"',
            f'"{pad[4]}}}',
        )
        sep = f",{pad[4]}"
        bsep = sep.encode()
        escaped: dict[int, Sequence[str]] = {}  # by identity: the log holds every names sequence
        held: tuple[Batch | None, bool, list[bytes]] = (None, False, [])

        def put(batch: Batch, picks: Sequence[int] | None, gap: bytes) -> bytes:
            """Write the part's records, after ``gap`` if it has any; the gap
            before the next part."""
            nonlocal held
            whole = picks is None
            if held[0] is not batch or held[1] != whole:
                held = (None, False, [])  # the old text goes before the new one is made
                names = escaped.get(id(batch.names))
                if names is None:
                    names = escaped[id(batch.names)] = _escaped(batch.names)
                texts = _render(batch, names, layout, sep if whole else "\0")
                if whole:
                    held = (batch, True, list(texts))
                else:
                    records: list[bytes] = []
                    for text in texts:  # ASCII without control characters: "\0" cuts it
                        records += text.split(b"\0")
                    held = (batch, False, records)
            for chunk in held[2] if whole else [bsep.join(map(held[2].__getitem__, picks))]:
                if chunk:
                    write(gap)
                    write(chunk)
                    gap = bsep
            return gap

        for opening, name, edges, close in (
            ("{", "relay_edges", self.relay_edges, f'],{pad[3]}"user"{c}%d{pad[2]}}}'),
            (",", "server_edges", self.server_edges, f"]{pad[2]}}}"),
        ):
            write(f'{opening}{pad[1]}"{name}"{c}['.encode())
            lead = pad[2]
            for key in sorted(edges):
                edge = edges[key]
                relay, *user = key if type(key) is tuple else (key,)
                inner = (pad[4], pad[3]) if len(edge) else ("", "")
                write(f'{lead}{{{pad[3]}"relay"{c}{relay},{pad[3]}"signals"{c}[{inner[0]}'.encode())
                gap = b""
                for batch, picks in edge.parts:
                    gap = put(batch, picks, gap)
                write((inner[1] + close % tuple(user)).encode())
                lead = f",{pad[2]}"
            write(f"{pad[1] if edges else ''}]".encode())
        write(f"{pad[0]}}}".encode())

    def digest(self) -> str:
        """sha256 of the compact :meth:`write` text."""
        sha = hashlib.sha256()
        self.write(sha.update)
        return sha.hexdigest()
