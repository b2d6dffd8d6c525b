"""Decoders see only what their user caches: a poisoned-library check.

For each user u the library is rebuilt with every byte u does not cache
changed to a random other value.  What u caches comes from the definition
of each placement, never from a cache table:

* ``proposed`` and ``routing`` cache, of every file, the subfiles (T, l)
  whose t-subset T of the Kt classes holds u's class; ``cmcnc`` those whose
  t-subset of the K users holds u.  Subfile (T, l) lies at byte offset
  ``(rank(T) * copies + l - 1) * size``, T ranked as
  :func:`enumerate_subsets` lists them, with r copies or one.
* ``broadcast-mds`` caches the first M/N of every file.

Delivery reads the true library.  User u then decodes with its cache over
the poisoned library, and must still get its file: a decoder that reads a
byte u does not cache gets a wrong one.  The bytes the mask keeps are what
u stores, so their count is the memory constraint M * F, measured.
"""

import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest

from relaycache import harness
from relaycache.combinatorics import enumerate_subsets
from relaycache.schemes import (
    FileLibrary,
    broadcast_decode,
    cmcnc_decode,
    proposed,
    proposed_decode,
    random_demand,
    random_library,
    routing_decode,
)
from relaycache.topology import affine_plane, combination_network

N_FILES = 4
# Bytes.  A grid point whose library is larger is skipped: only cmcnc on
# comb(6,3) has one, and it keeps t' <= 4 and t' >= 16 of its 21 points (a
# decode near t' = 10 takes seconds per user).  Every poisoned copy of a
# placement reads through the placement's one plan, so the cost of a point
# is its decodes, not a rebuild of the plan per user.
LIBRARY_CAP = 2**16

NETWORKS = {
    "comb:4,2": lambda: combination_network(4, 2),
    "comb:6,3": lambda: combination_network(6, 3),
    "affine:3": lambda: affine_plane(3),
}

# scheme -> (decoder, candidates, copies, candidate of user u, 1-based), read
# from the network alone; the prefix placement of broadcast-mds has none.
CLASSES = (lambda net: net.num_classes, lambda net: net.r, lambda net, u: net.class_of[u])
SCHEMES = {
    "proposed": (proposed_decode, *CLASSES),
    "routing": (routing_decode, *CLASSES),
    "cmcnc": (cmcnc_decode, lambda net: net.K, lambda net: 1, lambda net, u: u + 1),
    "broadcast-mds": (broadcast_decode, lambda net: net.num_classes, None, None),
}


def grid(scheme, net):
    """The memory points of ``scheme``'s grid, over the classes for broadcast-mds."""
    n = SCHEMES[scheme][1](net)
    return [Fraction(j * N_FILES, n) for j in range(n + 1)]


def mask(scheme, net, M, file_bytes, u) -> bytes:
    """Per byte of a file: 0 where user u caches it, 0xff where it does not."""
    _, candidates, copies, label = SCHEMES[scheme]
    if copies is None:
        prefix = Fraction(M, N_FILES) * file_bytes
        return bytes(int(prefix)) + b"\xff" * (file_bytes - int(prefix))
    n, r = candidates(net), copies(net)
    t = n * M / N_FILES
    subsets = enumerate_subsets(n, int(t))
    size = file_bytes // (r * len(subsets))
    kept, lost = bytes(r * size), b"\xff" * (r * size)
    c = label(net, u)
    return b"".join([kept if c in T else lost for T in subsets])


def poison(lib: FileLibrary, keep: bytes, rng: random.Random) -> FileLibrary:
    """``lib`` with every byte outside ``keep`` changed to another value."""
    size = lib.file_bytes
    where = int.from_bytes(keep, "big")
    files = []
    for f in lib.files:
        noise = int.from_bytes(rng.randbytes(size).replace(b"\0", b"\1"), "big")
        files.append((int.from_bytes(f, "big") ^ (noise & where)).to_bytes(size, "big"))
    return FileLibrary(tuple(files))


def decode_poisoned(scheme, net, M, file_bytes, rng) -> list:
    """Deliver one random demand from a library of ``file_bytes``-byte
    files and decode every user u over the library poisoned outside u's
    cache; the poisoned copies of the placement, one per user."""
    decode = SCHEMES[scheme][0]
    lib = random_library(N_FILES, file_bytes, seed=rng.randrange(2**32))
    demand = random_demand(net, N_FILES, rng)
    cache, deliver, _ = harness._pipeline(net, lib, M, scheme, None)
    log = deliver(demand)
    copies = []
    for u in range(net.K):
        keep = mask(scheme, net, M, file_bytes, u)
        assert len(keep) == file_bytes
        # The memory constraint: u stores M * F bits, counted byte by byte.
        assert 8 * N_FILES * keep.count(0) == M * lib.file_bits, (M, u)
        poisoned = dataclasses.replace(cache, lib=poison(lib, keep, rng))
        out = decode(net, u, poisoned, demand, log.to_user(u))
        assert out == lib.file(demand[u]), f"{scheme} M={M} user {u} read an uncached byte"
        copies.append(poisoned)
    return copies


@pytest.mark.parametrize("topology", NETWORKS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_user_decodes_from_what_it_caches(scheme, topology):
    net = NETWORKS[topology]()
    rng = random.Random(f"{scheme} {topology}")
    points = 0
    for M in grid(scheme, net):
        file_bytes = harness.auto_file_bytes(net, N_FILES, [M], [scheme])
        if N_FILES * file_bytes > LIBRARY_CAP:
            continue
        points += 1
        decode_poisoned(scheme, net, M, file_bytes, rng)
    assert points >= 2, "fewer than two grid points fit the library cap"


@pytest.mark.parametrize("topology", NETWORKS)
def test_proposed_decodes_from_what_it_caches_on_the_int_path(topology):
    # Subfiles of _INT_BYTES: every cancelled term is read from the int
    # forms of the poisoned copy, which that copy builds from its own library.
    net = NETWORKS[topology]()
    rng = random.Random(f"ints {topology}")
    points = 0
    for M in grid("proposed", net):
        t = int(M * net.num_classes / N_FILES)
        file_bytes = net.r * comb(net.num_classes, t) * proposed._INT_BYTES
        if N_FILES * file_bytes > LIBRARY_CAP or not 0 < t < net.num_classes:
            continue
        points += 1
        for poisoned in decode_poisoned("proposed", net, M, file_bytes, rng):
            assert proposed._on_ints(poisoned)
            assert any(ints is not None for ints in poisoned.ints), f"M={M} decoded off the int path"
    assert points >= 1, "no grid point on the int path fits the library cap"
