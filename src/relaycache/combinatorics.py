"""Deterministic subset enumeration and index maps.

Ground sets are 1-based throughout: ``[m]`` means ``{1, ..., m}``.  A subset
is a strictly increasing tuple of ints.  The lexicographic enumeration order
fixed here is load-bearing: every delivery pipeline emits its signals by
iterating subsets in this order, so the order determines the byte layout of
every transmission log.
"""

from __future__ import annotations

import itertools
import math


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 when k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def enumerate_subsets(m: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of [m] in lexicographic order.

    Returns C(m, k) strictly increasing tuples.  The order is a pure
    function of (m, k) and is identical across runs and platforms.
    """
    if m < 0:
        raise ValueError(f"ground-set size must be nonnegative, got {m}")
    if k < 0 or k > m:
        raise ValueError(f"subset size {k} outside 0..{m}")
    return list(itertools.combinations(range(1, m + 1), k))


def position_in(subset: tuple[int, ...], element: int) -> int:
    """1-based position of ``element`` within the sorted tuple ``subset``.

    This is the inverse of element access: position_in(V, V[j-1]) == j.
    """
    try:
        return subset.index(element) + 1
    except ValueError:
        raise ValueError(f"{element} is not a member of {subset}") from None

