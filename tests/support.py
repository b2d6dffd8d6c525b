"""Helpers that only the tests use: lookups the package itself never needs,
and one copy of a design that several suites run."""

from relaycache.combinatorics import binomial
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
