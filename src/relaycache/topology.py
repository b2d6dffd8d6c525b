"""Resolvable two-hop relay topologies.

A network has h relays and K users, each user wired to a distinct r-subset
of the relays.  The user set is *resolvable* when it splits into parallel
classes: groups of pairwise-disjoint subsets that each cover all h relays.
Every relay then sees exactly one user from every class, which is the
structural fact the class-symmetric caching scheme is built on.

Constructions provided here:

* ``combination_network(h, r)`` — all C(h, r) subsets, partitioned into
  C(h-1, r-1) classes (possible exactly when r divides h, by Baranyai's
  theorem).
* ``affine_plane(q)`` — the q^2 + q lines of the affine plane of prime
  order q, in their q + 1 natural parallel classes.
* ``custom_network`` — user-supplied designs, with validation or an exact
  backtracking search for a resolution.

The two generators refuse a network above ``WIRES_CAP`` user-relay wires
with :class:`BudgetError` before building anything.

Everything is canonicalized on construction: users sorted lexicographically,
classes sorted by their smallest member, so equal designs compare equal and
serialize to identical bytes.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .combinatorics import binomial, enumerate_subsets


class NotResolvableError(ValueError):
    """The user set admits no partition into parallel classes."""


class BudgetError(ValueError):
    """A run would exceed a fixed size budget (network, library bytes, demand vectors)."""


# Largest generated network: K users wired to r relays each make K * r wires,
# refused before building.  comb(20, 10) has 1,847,560; an affine user holds
# q relays, so a cap on users alone would admit affine planes that run out of
# memory (affine(211), 9.4 M wires, peaks near 600 MB).
WIRES_CAP = 2**21


def _check_wires(K: int, r: int) -> None:
    if K * r > WIRES_CAP:
        raise BudgetError(
            f"network of {K} users on {r} relays each = {K * r} wires "
            f"exceeds the cap of {WIRES_CAP}"
        )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, repr=False)
class Network:
    """Immutable resolvable topology.

    ``users`` are sorted r-subsets of [h]; ``classes`` partitions the user
    *indices* (0-based positions in ``users``) into parallel classes.
    Construction canonicalizes the representation and verifies every
    resolvability invariant, so a Network that exists is valid.
    """

    h: int
    r: int
    users: tuple[tuple[int, ...], ...]
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ValueError(f"relay count must be positive, got {self.h}")
        if self.r < 1 or self.r > self.h:
            raise ValueError(f"fan-in {self.r} outside 1..{self.h}")
        users = tuple(tuple(u) for u in self.users)
        for u in users:
            if len(u) != self.r:
                raise ValueError(f"user {u} does not have size {self.r}")
            if any(not 1 <= x <= self.h for x in u) or list(u) != sorted(set(u)):
                raise ValueError(f"user {u} is not a sorted subset of [{self.h}]")
        if len(set(users)) != len(users):
            raise ValueError("duplicate users")
        if not users:
            raise ValueError("network needs at least one user")

        order = sorted(range(len(users)), key=lambda i: users[i])
        remap = {old: new for new, old in enumerate(order)}
        canon_users = tuple(users[i] for i in order)

        seen: set[int] = set()
        canon_classes = []
        for cls in self.classes:
            if any(not 0 <= i < len(users) for i in cls):
                raise ValueError(f"class {cls} has an out-of-range user index")
            members = tuple(sorted(remap[i] for i in cls))
            seen.update(members)
            covered: set[int] = set()
            for i in members:
                u = set(canon_users[i])
                if covered & u:
                    raise NotResolvableError(
                        f"class {members} contains overlapping users"
                    )
                covered |= u
            # Every user's relays lie in 1..h, checked above, so a count suffices.
            if len(covered) != self.h:
                raise NotResolvableError(
                    f"class {members} does not cover all {self.h} relays"
                )
            canon_classes.append(members)
        if len(seen) != len(users) or sum(len(c) for c in canon_classes) != len(users):
            raise ValueError("classes are not a partition of the user indices")
        canon_classes.sort(key=lambda c: c[0])

        object.__setattr__(self, "users", canon_users)
        object.__setattr__(self, "classes", tuple(canon_classes))

        # Each relay must see every class exactly once (the per-relay
        # restatement of resolvability; implied by the above, checked
        # anyway as a construction self-check).
        for i in range(1, self.h + 1):
            labels = sorted(self.class_of[u] for u in self._neighbors[i - 1])
            if labels != list(range(1, self.num_classes + 1)):
                raise NotResolvableError(f"relay {i} sees classes {labels}")

    @property
    def K(self) -> int:
        return len(self.users)

    @property
    def num_classes(self) -> int:
        """Users per relay; also the number of parallel classes (K*r/h)."""
        return len(self.classes)

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        """1-based parallel-class label of each user index."""
        labels = [0] * self.K
        for label, cls in enumerate(self.classes, start=1):
            for i in cls:
                labels[i] = label
        return tuple(labels)

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        byrelay: list[list[int]] = [[] for _ in range(self.h)]
        for idx, u in enumerate(self.users):
            for i in u:
                byrelay[i - 1].append(idx)
        return tuple(tuple(v) for v in byrelay)

    @cached_property
    def _class_rep(self) -> dict[tuple[int, int], int]:
        """(relay, class label) -> the unique neighboring user in that class."""
        rep = {}
        for i in range(1, self.h + 1):
            for u in self._neighbors[i - 1]:
                rep[(i, self.class_of[u])] = u
        return rep

    def __repr__(self) -> str:
        return (
            f"Network(h={self.h}, r={self.r}, K={self.K}, "
            f"classes={self.num_classes})"
        )


# ---------------------------------------------------------------------------
# Parallel-class constructions


def _round_robin_pairs(h: int) -> list[list[tuple[int, ...]]]:
    """Circle-method 1-factorization of the complete graph on h (even) nodes."""
    m = h - 1
    classes = []
    for k in range(m):
        cls = [tuple(sorted((h, k + 1)))]
        for i in range(1, (h - 2) // 2 + 1):
            a = (k + i) % m + 1
            b = (k - i) % m + 1
            cls.append(tuple(sorted((a, b))))
        classes.append(cls)
    return classes


def _flow_step(
    classes: list[list[tuple[int, ...]]], h: int, r: int, placed: int
) -> list[tuple[int, ...]]:
    """Pick, per class, which member absorbs element placed+1.

    One augmentation stage of the integral-flow construction: a class may
    grow any one of its members by the new element, and each member shape S
    must absorb it in exactly C(h-placed-1, r-|S|-1) classes overall.  A
    fractional assignment with those totals always exists, so an integral
    max flow of value len(classes) does too.

    The flow is Dinic's (1970): BFS levels, then a DFS with a current-arc
    pointer per node that augments one path at a time by its bottleneck.
    Which of the maximum flows it finds, and so every r >= 3 class label,
    depends on the order each node tries its arcs in: ascending head node,
    always.
    """
    s = len(classes)
    types = sorted({m for cls in classes for m in cls if len(m) < r})
    type_node = {t: s + 1 + j for j, t in enumerate(types)}
    sink = s + 1 + len(types)

    # res[u][v]: residual capacity of arc u -> v.  Node 0 is the source, 1..s
    # the classes, the types follow in sorted order and the sink is last.
    # Adding the arcs in this order inserts each node's heads, reverse arcs
    # included, in ascending order.
    res: list[dict[int, int]] = [{} for _ in range(sink + 1)]
    for c, cls in enumerate(classes, start=1):
        res[0][c], res[c][0] = 1, 0
        for t, mult in sorted(Counter(m for m in cls if len(m) < r).items()):
            res[c][type_node[t]], res[type_node[t]][c] = mult, 0
    for j, t in enumerate(types, start=s + 1):
        res[j][sink], res[sink][j] = binomial(h - placed - 1, r - len(t) - 1), 0

    heads = [list(arcs) for arcs in res]
    value = 0
    while True:
        level, queue = [0] + [-1] * sink, [0]
        for u in queue:
            for v in heads[u]:
                if res[u][v] and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            break
        current, path = [0] * (sink + 1), [0]
        while path:
            u = path[-1]
            if u == sink:
                pushed = min(res[a][b] for a, b in zip(path, path[1:]))
                for a, b in zip(path, path[1:]):
                    res[a][b] -= pushed
                    res[b][a] += pushed
                value, path = value + pushed, [0]
                continue
            out, i, up = heads[u], current[u], level[u] + 1
            while i < len(out) and not (res[u][out[i]] and level[out[i]] == up):
                i += 1
            current[u] = i
            if i < len(out):
                path.append(out[i])
            else:  # a dead end: no arc out of u reaches the sink this phase
                level[path.pop()] = -1

    if value != s:
        raise RuntimeError(
            f"augmentation infeasible at stage {placed}: flow {value} < {s}"
        )
    # The flow on arc c -> v is the residual of its reverse arc v -> c.
    choice = [
        next((types[v - s - 1] for v in heads[c] if v and res[v][c]), None)
        for c in range(1, s + 1)
    ]
    if None in choice:
        c = choice.index(None)
        raise RuntimeError(f"class {c} absorbs no element at stage {placed}")
    return choice


def baranyai_partition(h: int, r: int) -> list[list[tuple[int, ...]]]:
    """Partition all C(h, r) r-subsets of [h] into C(h-1, r-1) parallel classes.

    Each class holds h/r pairwise-disjoint subsets covering [h].  Requires
    r | h.  Pairs use the classical round-robin rotation; the general case
    runs Baranyai's integral-flow augmentation, adding one ground-set
    element per stage.  Output is canonical (classes sorted by their
    lexicographically smallest member) and identical across runs.
    """
    if h < 1 or r < 1 or r > h:
        raise ValueError(f"need 1 <= r <= h, got h={h}, r={r}")
    if h % r != 0:
        raise ValueError(f"{r} does not divide {h}; no parallel-class partition")

    if r == 2:
        classes = _round_robin_pairs(h)
    else:
        s = binomial(h - 1, r - 1)
        b = h // r
        working: list[list[tuple[int, ...]]] = [[() for _ in range(b)] for _ in range(s)]
        for placed in range(h):
            choice = _flow_step(working, h, r, placed)
            for cls, grow in zip(working, choice):
                cls[cls.index(grow)] = tuple(sorted(grow + (placed + 1,)))
        classes = working

    canon = sorted([sorted(cls) for cls in classes], key=lambda c: c[0])
    flat = [m for cls in canon for m in cls]
    if sorted(flat) != enumerate_subsets(h, r):
        raise RuntimeError(f"partition of the {r}-subsets of [{h}] does not cover")
    return canon


def combination_network(h: int, r: int) -> Network:
    """The network whose users are all C(h, r) r-subsets of the h relays."""
    if h < 1 or r < 1 or r > h:
        raise ValueError(f"need 1 <= r <= h, got h={h}, r={r}")
    if h % r != 0:
        raise NotResolvableError(
            f"the full ({h} choose {r}) network is not resolvable: "
            f"{r} does not divide {h}"
        )
    _check_wires(binomial(h, r), r)
    classes = baranyai_partition(h, r)
    return custom_network(h, r, [m for cls in classes for m in cls], classes)


def affine_plane(q: int) -> Network:
    """Network from the affine plane of prime order q: h = q^2, r = q.

    Point (x, y) in Z_q x Z_q is numbered q*x + y + 1.  Users are the
    q^2 + q lines; classes are the q + 1 pencils of parallel lines
    (the vertical lines x = b, then one class per slope a: y = a*x + b).
    """
    _check_wires(q * q + q, q)  # first: the primality test is trial division
    if not _is_prime(q):
        raise ValueError(f"affine-plane order must be prime, got {q}")

    def point(x: int, y: int) -> int:
        return q * x + y + 1

    classes: list[list[tuple[int, ...]]] = []
    classes.append([tuple(point(b, y) for y in range(q)) for b in range(q)])
    for a in range(q):
        classes.append(
            [
                tuple(sorted(point(x, (a * x + b) % q) for x in range(q)))
                for b in range(q)
            ]
        )
    return custom_network(q * q, q, [m for cls in classes for m in cls], classes)


def custom_network(
    h: int,
    r: int,
    users: list[tuple[int, ...]],
    classes: list[list[tuple[int, ...]]] | None = None,
) -> Network:
    """Build a network from an explicit user list.

    With ``classes`` (given as lists of user subsets) they are validated
    against the resolvability definition.  Without them, an exact
    backtracking search looks for a resolution; NotResolvableError means
    the search space was exhausted.  Intended for desk-scale designs.
    """
    norm = [tuple(sorted(u)) for u in users]
    if len(set(norm)) != len(norm):
        raise ValueError("duplicate users")
    for u in norm:
        if len(u) != r:
            raise ValueError(f"user {u} does not have size {r}")

    if classes is not None:
        index = {u: i for i, u in enumerate(norm)}
        try:
            idx_classes = tuple(tuple(index[tuple(sorted(m))] for m in cls) for cls in classes)
        except KeyError as exc:
            raise ValueError(f"class member {exc.args[0]} is not a user") from None
        return Network(h=h, r=r, users=tuple(norm), classes=idx_classes)

    found = _search_resolution(h, r, norm)
    if found is None:
        raise NotResolvableError(
            f"no parallel-class partition exists for these {len(norm)} users"
        )
    return Network(h=h, r=r, users=tuple(norm), classes=tuple(found))


def _search_resolution(
    h: int, r: int, users: list[tuple[int, ...]]
) -> list[tuple[int, ...]] | None:
    """Exact cover search: partition user indices into parallel classes."""
    K = len(users)
    if h % r != 0 or K % (h // r) != 0:
        return None
    containing: list[list[int]] = [[] for _ in range(h + 1)]
    for idx, u in enumerate(users):
        for e in u:
            containing[e].append(idx)

    assigned = [False] * K
    classes: list[list[int]] = []

    def complete_class(covered: set[int], members: list[int]) -> bool:
        if len(covered) == h:
            classes.append(list(members))
            if solve():
                return True
            classes.pop()
            return False
        lowest = min(e for e in range(1, h + 1) if e not in covered)
        for idx in containing[lowest]:
            if assigned[idx] or covered & set(users[idx]):
                continue
            assigned[idx] = True
            members.append(idx)
            if complete_class(covered | set(users[idx]), members):
                return True
            members.pop()
            assigned[idx] = False
        return False

    def solve() -> bool:
        first = next((i for i in range(K) if not assigned[i]), None)
        if first is None:
            return True
        assigned[first] = True
        ok = complete_class(set(users[first]), [first])
        if not ok:
            assigned[first] = False
        return ok

    if solve():
        return [tuple(sorted(c)) for c in classes]
    return None


# ---------------------------------------------------------------------------
# Topology file format: JSON with fields h, r, users (1-based relay labels),
# classes (0-based user indices).  Saved form is canonical; load validates.


def network_to_dict(net: Network) -> dict:
    return {
        "h": net.h,
        "r": net.r,
        "users": [list(u) for u in net.users],
        "classes": [list(c) for c in net.classes],
    }


def _int_lists(value) -> bool:
    # type(x) is int: JSON true and false are bools, which subclass int.
    return isinstance(value, list) and all(
        isinstance(u, list) and all(type(x) is int for x in u) for u in value
    )


def network_from_dict(data: dict) -> Network:
    for key in ("h", "r", "users", "classes"):
        if key not in data:
            raise ValueError(f"topology file is missing field '{key}'")
        if key in ("h", "r") and type(data[key]) is not int:
            raise ValueError(f"topology field '{key}' must be an int, got {data[key]!r}")
        if key in ("users", "classes") and not _int_lists(data[key]):
            raise ValueError(f"topology field '{key}' must be a list of int lists")
    return Network(h=data["h"], r=data["r"], users=data["users"], classes=data["classes"])


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(network_to_dict(net), indent=2, sort_keys=True) + "\n"
    )


def load_network(path: str | Path) -> Network:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed topology file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"topology file {path} must contain a JSON object")
    return network_from_dict(data)
