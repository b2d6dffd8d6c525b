"""Helpers that only the tests use: lookups the package itself never needs,
the oracle read of a planned cache, and one copy of a design that several
suites run."""

from itertools import combinations, islice

from relaycache.combinatorics import binomial
from relaycache.schemes.common import gather, holds_all, in_range
from relaycache.topology import Network

# Two parallel classes of three users over nine relays.
TWO_CLASS_USERS = [(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7), (2, 5, 8), (3, 6, 9)]


def relay_neighborhood(net: Network, relay: int) -> list[int]:
    """Indices of the users connected to ``relay`` (ascending)."""
    if not 1 <= relay <= net.h:
        raise ValueError(f"relay {relay} outside 1..{net.h}")
    return list(net._neighbors[relay - 1])


def user_index(net: Network, subset: tuple[int, ...]) -> int:
    """Index of the user wired to the relays ``subset``."""
    try:
        return net.users.index(tuple(subset))
    except ValueError:
        raise ValueError(f"{subset} is not a user of this network") from None


def subset_rank(m: int, subset: tuple[int, ...]) -> int:
    """0-based index of ``subset`` within enumerate_subsets(m, len(subset)),
    computed combinatorially: the tests' oracle of the plan's ranks."""
    k = len(subset)
    if k > m:
        raise ValueError(f"subset size {k} exceeds ground-set size {m}")
    rank = 0
    prev = 0
    for j, v in enumerate(subset):
        if v <= prev or v > m:
            raise ValueError(f"{subset} is not a sorted subset of [{m}]")
        for w in range(prev + 1, v):
            rank += binomial(m - w, k - j - 1)
        prev = v
    return rank


def checked_read(cache, user: int, files, copies, which, items) -> bytes:
    """The oracle read of a :class:`PlannedCache`: subfile (files[w], T,
    copies[w]) for every j, where w = which[j] and items[j] = rank(T) *
    copies, concatenated, once every one of them is checked to lie in the
    user's cache.

    Raises ValueError if ``which`` and ``items``, or ``files`` and
    ``copies``, differ in length, and KeyError, naming the first such
    (n, T, l), unless the user caches all of them: the row
    :attr:`Plan.holds` of the user's candidate must hold every item, n lie
    in 1..N and l in 1..copies.  IndexError for a file or copy out of range
    that no item reads.  Nothing is read from a file before these checks.
    """
    if len(which) != len(items):
        raise ValueError(f"{len(which)} sources and {len(items)} items differ in length")
    if len(files) != len(copies):
        raise ValueError(f"{len(files)} files and {len(copies)} copies differ in length")
    plan = cache.plan
    N, r = cache.lib.n_files, plan.copies
    row = plan.holds[cache.label[user] - 1]
    if not (holds_all(row, items) and in_range(files, N) and in_range(copies, r)):
        for w, k in zip(which, items):
            n, l = files[w], copies[w]
            if not (holds_all(row, [k]) and 1 <= n <= N and 1 <= l <= r):
                q, off = divmod(k, r)
                subsets = combinations(range(1, plan.candidates + 1), plan.t)
                T = f"item {k}" if off else next(islice(subsets, q, None)) if 0 <= k < len(row) else q
                raise KeyError(f"user {user} does not cache ({n}, {T}, {l})")
        # Every item read is cached: a file or copy that none reads is out of range.
        raise IndexError(f"a file id lies outside 1..{N} or a copy outside 1..{r}")
    return gather(cache.sources(files, copies), which, items, cache.subfile_bytes)
