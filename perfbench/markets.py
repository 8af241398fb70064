"""Seeded market generators and a plain YAML writer for the benchmark.

Every market is a `Market`: dense indices on both sides, vertices named
`x<i>` / `y<j>`, optional preference lists and an optional compatibility
block. The writer emits the satmatch market format directly with string
formatting, so generating inputs never touches the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass
class Market:
    x_count: int
    y_count: int
    x_adj: list[list[int]]  # ascending Y-indices per X-vertex
    x_lists: Optional[list[list[int]]] = None  # preference lists, best first
    y_lists: Optional[list[list[int]]] = None
    classes: Optional[int] = None  # compatibility: number of classes
    x_membership: Optional[list[list[int]]] = None
    y_class: Optional[list[int]] = None

    @property
    def y_adj(self) -> list[list[int]]:
        rows: list[list[int]] = [[] for _ in range(self.y_count)]
        for i, row in enumerate(self.x_adj):
            for j in row:
                rows[j].append(i)
        return rows

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.x_adj) for j in row]


def xn(i: int) -> str:
    return f"x{i}"


def yn(j: int) -> str:
    return f"y{j}"


def to_yaml(m: Market) -> str:
    """The market in satmatch's schema_version "1" format."""
    out = ['schema_version: "1"']
    out.append("x_names: [" + ", ".join(xn(i) for i in range(m.x_count)) + "]")
    out.append("y_names: [" + ", ".join(yn(j) for j in range(m.y_count)) + "]")
    edges = m.edges
    if edges:
        out.append("edges:")
        out.extend(f"  - [{xn(i)}, {yn(j)}]" for i, j in edges)
    else:
        out.append("edges: []")
    if m.x_lists is not None:
        out.append("preferences:")
        for i, lst in enumerate(m.x_lists):
            out.append(f"  {xn(i)}: [" + ", ".join(yn(j) for j in lst) + "]")
        for j, lst in enumerate(m.y_lists):
            out.append(f"  {yn(j)}: [" + ", ".join(xn(i) for i in lst) + "]")
    if m.classes is not None:
        out.append("compatibility:")
        out.append("  classes: [" + ", ".join(f"c{c}" for c in range(m.classes)) + "]")
        out.append("  x_membership:")
        for i, cs in enumerate(m.x_membership):
            out.append(f"    {xn(i)}: [" + ", ".join(f"c{c}" for c in cs) + "]")
        out.append("  y_class:")
        for j, c in enumerate(m.y_class):
            out.append(f"    {yn(j)}: c{c}")
    return "\n".join(out) + "\n"


def _shuffled_lists(rng: random.Random, rows: list[list[int]]) -> list[list[int]]:
    out = []
    for row in rows:
        lst = list(row)
        rng.shuffle(lst)
        out.append(lst)
    return out


def with_random_prefs(m: Market, rng: random.Random) -> Market:
    m.x_lists = _shuffled_lists(rng, m.x_adj)
    m.y_lists = _shuffled_lists(rng, m.y_adj)
    return m


def sparse(n: int, degree: int, rng: random.Random) -> Market:
    """n x n, each X-vertex adjacent to `degree` distinct random Y-vertices."""
    x_adj = [sorted(rng.sample(range(n), degree)) for _ in range(n)]
    return Market(n, n, x_adj)


def dense(a: int, b: int, density: float, rng: random.Random) -> Market:
    """Each of the a*b pairs is an edge with probability `density`."""
    x_adj = [[j for j in range(b) if rng.random() < density] for _ in range(a)]
    return Market(a, b, x_adj)


def complete(a: int, b: int) -> Market:
    return Market(a, b, [list(range(b)) for _ in range(a)])


def near_complete(a: int, b: int, missing: int, rng: random.Random) -> Market:
    """K(a, b) less `missing` distinct random edges."""
    gone = set(rng.sample(range(a * b), missing))
    x_adj = [[j for j in range(b) if i * b + j not in gone] for i in range(a)]
    return Market(a, b, x_adj)


def diagonal(n: int) -> Market:
    """n disjoint pairs (x_i, y_i): exactly one stable matching."""
    m = Market(n, n, [[i] for i in range(n)])
    m.x_lists = [[i] for i in range(n)]
    m.y_lists = [[i] for i in range(n)]
    return m


def latin(n: int) -> Market:
    """Complete n x n with cyclic Latin-square preferences.

    x_i ranks y_{i+d} at position d and y_j ranks x_{j-d} at position
    n-1-d (indices mod n), so each cyclic shift {(x_i, y_{i+k})} gives every
    X-vertex rank k and every Y-vertex rank n-1-k: no pair blocks it, and
    all n shifts are stable.
    """
    m = complete(n, n)
    m.x_lists = [[(i + d) % n for d in range(n)] for i in range(n)]
    m.y_lists = [[(j + 1 + p) % n for p in range(n)] for j in range(n)]
    return m


def classes_market(
    n_classes: int, members: int, slots: int, shared: int, rng: random.Random
) -> Market:
    """A compatibility market: `members` exclusive X-members and about
    `slots` Y-slots per class, plus `shared` X-vertices in two classes.

    Slot counts vary by one around `slots`, so some classes may fall short
    of their members and the coverage verdict can go either way.
    """
    x_membership = [[c] for c in range(n_classes) for _ in range(members)]
    for _ in range(shared):
        x_membership.append(sorted(rng.sample(range(n_classes), 2)))
    y_class = [
        c for c in range(n_classes) for _ in range(slots + rng.choice((-1, 0, 1)))
    ]
    x_adj = [
        [j for j, c in enumerate(y_class) if c in cs] for cs in x_membership
    ]
    return Market(
        len(x_membership),
        len(y_class),
        x_adj,
        classes=n_classes,
        x_membership=x_membership,
        y_class=y_class,
    )
