"""Immutable bipartite graphs, matchings, and the structural queries on them.

Vertices are dense integer indices per side; a `Vertex` pairs the side with
the index. Display names (strings) belong to the file layer, never here.
Each result has one stored form: a `Matching` is its X-partner vector, from
which it derives the Y side, and a `Component` is its original vertex
indices and edge count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import InputError


class Side(enum.Enum):
    X = "x"
    Y = "y"

    @property
    def opposite(self) -> "Side":
        return Side.Y if self is Side.X else Side.X

    def __repr__(self) -> str:  # keep error messages short
        return f"Side.{self.name}"


class Vertex(NamedTuple):
    side: Side
    index: int

    def __repr__(self) -> str:
        # x[3] / y[0]; brackets make clear these are 0-based indices, not names
        return f"{self.side.value}[{self.index}]"


class BipartiteGraph:
    """A bipartite graph on X = {0..x_count-1}, Y = {0..y_count-1}.

    Adjacency is stored once per side as tuples of strictly increasing index
    tuples; the Y side is the exact transpose of the X side. Nothing else
    about the edges is stored: a vertex's degree is its row's length, and
    `edges()` lists them all. `masks(side)` gives the same rows as int
    bitmasks, built on first use and kept in the instance, so they are
    freed with it. Instances are immutable and hashable.
    """

    __slots__ = ("x_count", "y_count", "x_adj", "y_adj", "_x_masks", "_y_masks")

    def __init__(self, x_count: int, y_count: int, edges: Iterable[tuple[int, int]]):
        if not (isinstance(x_count, int) and isinstance(y_count, int)):
            raise InputError(f"side sizes must be integers, got {x_count!r}, {y_count!r}")
        if x_count < 0 or y_count < 0:
            raise InputError(f"side sizes must be nonnegative, got {x_count}, {y_count}")
        x_rows: list[list[int]] = [[] for _ in range(x_count)]
        y_rows: list[list[int]] = [[] for _ in range(y_count)]
        seen = set()
        for edge in edges:
            try:
                xi, yi = edge
            except (TypeError, ValueError):
                raise InputError(f"edge {edge!r} is not an (x, y) index pair") from None
            if not (isinstance(xi, int) and isinstance(yi, int)):
                raise InputError(f"edge ({xi!r}, {yi!r}): indices must be integers")
            if not (0 <= xi < x_count):
                raise InputError(f"edge ({xi}, {yi}): X-index {xi} out of range [0, {x_count})")
            if not (0 <= yi < y_count):
                raise InputError(f"edge ({xi}, {yi}): Y-index {yi} out of range [0, {y_count})")
            if (xi, yi) in seen:
                raise InputError(f"duplicate edge ({xi}, {yi})")
            seen.add((xi, yi))
            x_rows[xi].append(yi)
            y_rows[yi].append(xi)
        self.x_count = x_count
        self.y_count = y_count
        self.x_adj = tuple(tuple(sorted(row)) for row in x_rows)
        self.y_adj = tuple(tuple(sorted(row)) for row in y_rows)
        self._x_masks: Optional[tuple[int, ...]] = None
        self._y_masks: Optional[tuple[int, ...]] = None

    # -- basic queries ------------------------------------------------------

    def side_count(self, side: Side) -> int:
        return self.x_count if side is Side.X else self.y_count

    def adjacency(self, side: Side) -> tuple[tuple[int, ...], ...]:
        """Adjacency rows for one side; row v lists opposite-side indices."""
        return self.x_adj if side is Side.X else self.y_adj

    def masks(self, side: Side) -> tuple[int, ...]:
        """Adjacency rows for one side as bitmasks: bit u of row v is set
        iff u is in adjacency(side)[v]."""
        if side is Side.X:
            if self._x_masks is None:
                self._x_masks = _row_masks(self.x_adj)
            return self._x_masks
        if self._y_masks is None:
            self._y_masks = _row_masks(self.y_adj)
        return self._y_masks

    def vertices(self, side: Side) -> Iterator[Vertex]:
        for i in range(self.side_count(side)):
            yield Vertex(side, i)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (x-index, y-index), ascending."""
        for xi, row in enumerate(self.x_adj):
            for yi in row:
                yield (xi, yi)

    def check_vertex(self, v: Vertex) -> None:
        if not isinstance(v, Vertex) or not isinstance(v.side, Side):
            raise InputError(f"{v!r} is not a vertex")
        if not (0 <= v.index < self.side_count(v.side)):
            raise InputError(
                f"{v!r} out of range: side {v.side.value} has "
                f"{self.side_count(v.side)} vertices"
            )

    # -- structure ----------------------------------------------------------

    def components(self) -> list["Component"]:
        """Maximal connected pieces, by original indices and edge count.

        Order is deterministic: pieces containing an X-vertex come first,
        sorted by their smallest original X-index; pure-Y pieces (isolated
        Y-vertices) follow, sorted by Y-index.
        """
        seen_x = [False] * self.x_count
        seen_y = [False] * self.y_count
        pieces: list[Component] = []
        for start in range(self.x_count):
            if seen_x[start]:
                continue
            xs, ys, edges = [start], [], 0
            seen_x[start] = True
            for i in xs:  # xs grows as the piece is found
                edges += len(self.x_adj[i])
                for j in self.x_adj[i]:
                    if not seen_y[j]:
                        seen_y[j] = True
                        ys.append(j)
                        for k in self.y_adj[j]:
                            if not seen_x[k]:
                                seen_x[k] = True
                                xs.append(k)
            pieces.append(Component(tuple(sorted(xs)), tuple(sorted(ys)), edges))
        for j in range(self.y_count):
            if not seen_y[j]:
                pieces.append(Component((), (j,), 0))
        return pieces

    def is_connected(self) -> bool:
        if self.x_count + self.y_count == 0:
            return False
        return len(self.components()) == 1

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.x_count == other.x_count
            and self.y_count == other.y_count
            and self.x_adj == other.x_adj
        )

    def __hash__(self) -> int:
        return hash((self.x_count, self.y_count, self.x_adj))

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph({self.x_count}, {self.y_count}, "
            f"{list(self.edges())!r})"
        )


def _row_masks(rows: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    masks = []
    for row in rows:
        mask = 0
        for u in row:
            mask |= 1 << u
        masks.append(mask)
    return tuple(masks)


@dataclass(frozen=True)
class Component:
    """One connected piece: the original indices of its X- and Y-vertices,
    ascending, and the number of edges among them (every edge at one of its
    vertices, since the piece is maximal)."""

    x_vertices: tuple[int, ...]
    y_vertices: tuple[int, ...]
    edge_count: int

    @property
    def biclique(self) -> bool:
        """True iff every cross-side pair of the piece is an edge."""
        return self.edge_count == len(self.x_vertices) * len(self.y_vertices)

    @property
    def balanced(self) -> bool:
        return len(self.x_vertices) == len(self.y_vertices)


class Matching:
    """A partial matching, stored as its X-partner vector; None marks unmatched.

    partner_of_x[i] is the Y-index matched to X-vertex i (or None). The
    constructor derives the mirror partner_of_y over `y_count` Y-vertices and
    raises InputError for a partner out of range or taken twice, so the two
    maps always agree. Equality and hashing use the partner maps only, so
    matchings found by different routes compare equal.
    """

    __slots__ = ("partner_of_x", "partner_of_y")

    def __init__(self, partner_of_x: Sequence[Optional[int]], y_count: int):
        self.partner_of_x = tuple(partner_of_x)
        partner_of_y: list[Optional[int]] = [None] * y_count
        for i, j in enumerate(self.partner_of_x):
            if j is None:
                continue
            if not isinstance(j, int) or not 0 <= j < y_count:
                raise InputError(
                    f"X-vertex {i}: partner {j!r} out of range [0, {y_count})"
                )
            if partner_of_y[j] is not None:
                raise InputError(
                    f"Y-vertex {j} is the partner of both X-vertex "
                    f"{partner_of_y[j]} and X-vertex {i}"
                )
            partner_of_y[j] = i
        self.partner_of_y = tuple(partner_of_y)

    def partner(self, v: Vertex) -> Optional[Vertex]:
        if v.side is Side.X:
            j = self.partner_of_x[v.index]
            return None if j is None else Vertex(Side.Y, j)
        i = self.partner_of_y[v.index]
        return None if i is None else Vertex(Side.X, i)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in enumerate(self.partner_of_x) if j is not None]

    def matched_set(self, side: Side) -> frozenset[int]:
        """Indices on `side` that have a partner."""
        row = self.partner_of_x if side is Side.X else self.partner_of_y
        return frozenset(i for i, p in enumerate(row) if p is not None)

    @property
    def size(self) -> int:
        return sum(1 for p in self.partner_of_x if p is not None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return (
            self.partner_of_x == other.partner_of_x
            and self.partner_of_y == other.partner_of_y
        )

    def __hash__(self) -> int:
        return hash(self.partner_of_x)

    def __repr__(self) -> str:
        return f"Matching({self.pairs()!r})"
