"""Strict preference instances over a graph's neighborhoods.

An instance gives every vertex a strict ranking of exactly its neighbors,
so acceptability coincides with the edge relation by construction and
"prefers being unmatched to an unacceptable partner" needs no sentinel.
"""

from __future__ import annotations

import math
import random
from itertools import permutations, product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InstanceCapExceeded, PreferenceError
from .graph import BipartiteGraph, Side, Vertex

DEFAULT_INSTANCE_CAP = 10**6

# rank reported for "unmatched": worse than any real list position
UNMATCHED_RANK = 1 << 30


def _rank_table(lst: tuple[int, ...]) -> dict[int, int]:
    """Each entry of one list mapped to its position in it."""
    return dict(zip(lst, range(len(lst))))


class PreferenceInstance:
    """One strict ranking per vertex, most preferred first.

    x_lists[i] / y_lists[j] hold opposite-side indices. Rank dicts are
    precomputed so preference comparisons are O(1). The constructor trusts
    its input; use `validate` to build an instance from raw data.
    """

    __slots__ = ("x_lists", "y_lists", "x_rank", "y_rank")

    def __init__(
        self,
        x_lists: Iterable[Sequence[int]],
        y_lists: Iterable[Sequence[int]],
    ):
        self.x_lists = tuple(map(tuple, x_lists))
        self.y_lists = tuple(map(tuple, y_lists))
        self.x_rank = tuple(map(_rank_table, self.x_lists))
        self.y_rank = tuple(map(_rank_table, self.y_lists))

    @classmethod
    def _ranked(
        cls,
        x_lists: tuple[tuple[int, ...], ...],
        y_lists: tuple[tuple[int, ...], ...],
        x_rank: tuple[dict[int, int], ...],
        y_rank: tuple[dict[int, int], ...],
    ) -> "PreferenceInstance":
        """An instance from list tuples and their rank tables, as given:
        the tables are shared with the caller, not copied."""
        self = object.__new__(cls)
        self.x_lists, self.y_lists = x_lists, y_lists
        self.x_rank, self.y_rank = x_rank, y_rank
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferenceInstance):
            return NotImplemented
        return self.x_lists == other.x_lists and self.y_lists == other.y_lists

    def __hash__(self) -> int:
        return hash((self.x_lists, self.y_lists))

    def __repr__(self) -> str:
        return f"PreferenceInstance({self.x_lists!r}, {self.y_lists!r})"


def validate(
    graph: BipartiteGraph,
    table: Mapping[Vertex, Sequence[Vertex]],
    describe: Callable[[Vertex], str] = repr,
) -> PreferenceInstance:
    """Check raw ranking data against the graph and build an instance.

    `table` must hold one entry per vertex of both sides, each an ordering
    of exactly that vertex's neighborhood. Every defect raises a
    PreferenceError naming the offending vertex; `describe` lets callers
    that own display names control how vertices are rendered.
    """
    for v in table:
        if not isinstance(v, Vertex) or not (
            0 <= v.index < graph.side_count(v.side)
        ):
            shown = describe(v) if isinstance(v, Vertex) else repr(v)
            raise PreferenceError(f"preference list given for unknown vertex {shown}")

    def build_side(side: Side) -> list[tuple[int, ...]]:
        rows = []
        for v in graph.vertices(side):
            if v not in table:
                raise PreferenceError(f"no preference list for {describe(v)}")
            entries = table[v]
            seen = set()
            row = []
            for k, c in enumerate(entries):
                if not isinstance(c, Vertex):
                    raise PreferenceError(
                        f"list for {describe(v)} contains {c!r}, not a vertex",
                        vertex=v,
                        entry=k,
                    )
                if c.side is v.side:
                    raise PreferenceError(
                        f"list for {describe(v)} contains same-side vertex "
                        f"{describe(c)}",
                        vertex=v,
                        entry=k,
                    )
                if c.index in seen:
                    raise PreferenceError(
                        f"list for {describe(v)} contains {describe(c)} twice",
                        vertex=v,
                        entry=k,
                    )
                seen.add(c.index)
                row.append(c.index)
            neighborhood = graph.adjacency(side)[v.index]
            adjacent = set(neighborhood)
            for k, c_index in enumerate(row):
                if c_index not in adjacent:
                    raise PreferenceError(
                        f"list for {describe(v)} contains "
                        f"{describe(Vertex(side.opposite, c_index))}, "
                        f"which is not adjacent to it",
                        vertex=v,
                        entry=k,
                    )
            for n_index in neighborhood:
                if n_index not in seen:
                    raise PreferenceError(
                        f"list for {describe(v)} omits neighbor "
                        f"{describe(Vertex(side.opposite, n_index))}",
                        vertex=v,
                    )
            rows.append(tuple(row))
        return rows

    return PreferenceInstance(build_side(Side.X), build_side(Side.Y))


def instance_count(graph: BipartiteGraph) -> int:
    """|P| = product of (deg v)! over all vertices of both sides."""
    total = 1
    for row in graph.x_adj:
        total *= math.factorial(len(row))
    for row in graph.y_adj:
        total *= math.factorial(len(row))
    return total


def enumerate_all(
    graph: BipartiteGraph, cap: int = DEFAULT_INSTANCE_CAP
) -> Iterator[PreferenceInstance]:
    """Yield every preference instance exactly once.

    Order is lexicographic in per-vertex permutation indices, X side first.
    Refuses up front (with the computed count) when the instance count
    exceeds `cap`, so callers can fall back to sampling. Each vertex's
    permutations and their rank tables are built once per graph and shared
    by every instance that uses them, so each yielded instance equals, and
    ranks as, `PreferenceInstance(x_lists, y_lists)` built from its lists.
    """
    total = instance_count(graph)
    if total > cap:
        raise InstanceCapExceeded(total, cap)
    a = graph.x_count
    pools = [
        tuple((perm, _rank_table(perm)) for perm in permutations(row))
        for row in graph.x_adj + graph.y_adj
    ]
    for combo in product(*pools):
        lists, ranks = zip(*combo) if combo else ((), ())
        yield PreferenceInstance._ranked(lists[:a], lists[a:], ranks[:a], ranks[a:])


def sample_uniform(graph: BipartiteGraph, seed: int) -> PreferenceInstance:
    """One instance with each list an independent uniform permutation.

    Identical (graph, seed) pairs reproduce identical instances, and the
    bits themselves are pinned: one `random.Random(seed)` shuffles the X
    rows, then the Y rows, each side in index order. A row of length 0 or 1
    is kept as it is: shuffling it would draw no bits, so skipping it leaves
    every later row's bits unchanged. The release gate's counts in
    tests/test_acceptance.py (c1's and c8's `stable_matchings`) depend on
    those bits, so a faster sampler must reproduce them exactly.
    """
    shuffle = random.Random(seed).shuffle

    def shuffled(rows: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
        out = []
        for row in rows:
            if len(row) > 1:
                lst = list(row)
                shuffle(lst)
                row = tuple(lst)
            out.append(row)
        return out

    return PreferenceInstance(shuffled(graph.x_adj), shuffled(graph.y_adj))
