"""Stable-matching engine.

Deferred acceptance, stability checks, enumeration of all stable matchings
by a walk over the rotation lattice from the X-optimal matching (McVitie &
Wilson 1971; Gusfield & Irving 1989, ch. 2-3), classical maximum matching,
and the matched-set invariance that enumeration asserts on every member it
returns (the set of unmatched vertices is the same in every stable matching
of an instance, so a disagreement can only be an engine bug), and
StableSet.always_unmatched, the one test of "unmatched in every member".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import EngineInvariantError, InputError, SearchCapExceeded
from .graph import BipartiteGraph, Matching, Side, Vertex
from .prefs import UNMATCHED_RANK, PreferenceInstance

DEFAULT_NODE_CAP = 10**7


class BlockingPair(NamedTuple):
    x: Vertex
    y: Vertex


@dataclass(frozen=True)
class StableSet:
    """The complete set of stable matchings of one instance.

    matched_x / matched_y hold the indices matched in every member; the
    constructor path (enumerate_stable) has already asserted, with
    Matching.matched_set on each returned member, that those sets agree
    across members on both sides. always_unmatched(v) scans every member
    for a partner of v.
    """

    graph: BipartiteGraph
    matchings: tuple[Matching, ...]
    matched_x: frozenset[int]
    matched_y: frozenset[int]
    nodes_visited: int

    @property
    def x_saturating(self) -> bool:
        return len(self.matched_x) == self.graph.x_count

    @property
    def y_saturating(self) -> bool:
        return len(self.matched_y) == self.graph.y_count

    @property
    def perfect(self) -> bool:
        return self.x_saturating and self.y_saturating

    def always_unmatched(self, v: Vertex) -> bool:
        """True iff v has no partner in any member."""
        return all(m.partner(v) is None for m in self.matchings)


def _check_shapes(graph: BipartiteGraph, instance: PreferenceInstance) -> None:
    if len(instance.x_lists) != graph.x_count or len(instance.y_lists) != graph.y_count:
        raise InputError(
            f"instance shaped for {len(instance.x_lists)}+{len(instance.y_lists)} "
            f"vertices, graph has {graph.x_count}+{graph.y_count}"
        )


def _propose(
    lists: tuple[tuple[int, ...], ...],
    other_rank: tuple[dict[int, int], ...],
    other_count: int,
) -> tuple[list[int], list[int], int]:
    """One-sided deferred acceptance on index arrays; -1 marks unmatched.

    Free proposers wait on a plain stack. The order they move in changes
    neither the outcome nor the proposals made: each proposer walks down
    its list to its optimal stable partner, or to the end of the list.
    Returns both partner arrays and the number of proposals made.
    """
    n = len(lists)
    partner = [-1] * n
    other_partner = [-1] * other_count
    next_choice = [0] * n
    free = [i for i in range(n) if lists[i]]
    while free:
        p = free.pop()
        choices = lists[p]
        target = choices[next_choice[p]]
        next_choice[p] += 1
        holder = other_partner[target]
        if holder < 0:
            partner[p] = target
            other_partner[target] = p
        elif other_rank[target][p] < other_rank[target][holder]:
            partner[p] = target
            other_partner[target] = p
            partner[holder] = -1
            if next_choice[holder] < len(lists[holder]):
                free.append(holder)
        else:
            if next_choice[p] < len(choices):
                free.append(p)
    return partner, other_partner, sum(next_choice)


def _to_partner_tuple(row: Sequence[int]) -> tuple[Optional[int], ...]:
    return tuple(None if i < 0 else i for i in row)


def deferred_acceptance(
    graph: BipartiteGraph,
    instance: PreferenceInstance,
    proposing: Side = Side.X,
) -> Matching:
    """The proposing side's optimal stable matching (Gale–Shapley).

    With proposing = X every X-vertex weakly prefers its partner here to
    its partner in any other stable matching; at most one proposal per
    edge is made.
    """
    _check_shapes(graph, instance)
    if proposing is Side.X:
        px, _, _ = _propose(instance.x_lists, instance.y_rank, graph.y_count)
    else:
        _, px, _ = _propose(instance.y_lists, instance.x_rank, graph.x_count)
    return Matching(_to_partner_tuple(px), graph.y_count)


def _blocking_pairs(
    graph: BipartiteGraph,
    instance: PreferenceInstance,
    matching: Matching,
) -> Iterator[BlockingPair]:
    """Blocking pairs of `matching`, in ascending (x-index, y-index) order.

    An edge (x, y) blocks when both endpoints strictly prefer each other to
    their current partners (an unmatched endpoint prefers any neighbor).
    """
    _check_shapes(graph, instance)
    if (
        len(matching.partner_of_x) != graph.x_count
        or len(matching.partner_of_y) != graph.y_count
    ):
        raise InputError("matching does not fit the graph")
    px = matching.partner_of_x
    py = matching.partner_of_y
    for xi in range(graph.x_count):
        xr = instance.x_rank[xi]
        p = px[xi]
        limit = UNMATCHED_RANK if p is None else xr[p]
        for yi in graph.x_adj[xi]:
            if xr[yi] < limit:
                holder = py[yi]
                if holder is None or instance.y_rank[yi][xi] < instance.y_rank[yi][holder]:
                    yield BlockingPair(Vertex(Side.X, xi), Vertex(Side.Y, yi))


def find_blocking_pairs(
    graph: BipartiteGraph,
    instance: PreferenceInstance,
    matching: Matching,
) -> list[BlockingPair]:
    """All blocking pairs of `matching`, in ascending (x-index, y-index) order."""
    return list(_blocking_pairs(graph, instance, matching))


def is_stable(
    graph: BipartiteGraph,
    instance: PreferenceInstance,
    matching: Matching,
) -> bool:
    """True iff no edge blocks the matching (early exit on the first)."""
    return next(_blocking_pairs(graph, instance, matching), None) is None


def enumerate_stable(
    graph: BipartiteGraph,
    instance: PreferenceInstance,
    cap: int = DEFAULT_NODE_CAP,
) -> StableSet:
    """The complete set of stable matchings, sorted by X-partner vector.

    Deferred acceptance run both ways gives the X-optimal matching M0 and
    the Y-optimal Mz. Every stable matching is reached from M0 by
    eliminating exposed rotations (McVitie & Wilson 1971; Gusfield & Irving
    1989, ch. 2-3). In a stable matching M, each matched x with
    M(x) != Mz(x) takes as s(x) the first y after M(x) on its list that
    prefers x to M(y), and next(x) = M(s(x)); the cycles of x -> next(x)
    are the rotations exposed in M, and moving every x on one to s(x) gives
    a stable successor. An explicit stack and one map from each visited
    partner vector to its Matching visit each stable matching once; the
    Matching is built when its vector is popped, and M(y) is read from it.
    -1 marks unmatched in the vectors. Nodes count the proposals of both
    runs plus every list entry scanned; raises SearchCapExceeded once they
    exceed `cap`.

    Every member matches the same vertices on both sides, which is asserted
    before returning (EngineInvariantError otherwise). So the -1 entries sit
    at the same places in every vector, and the sorted order depends only
    on who is matched to whom.
    """
    _check_shapes(graph, instance)
    x_lists = instance.x_lists
    x_rank = instance.x_rank
    y_rank = instance.y_rank
    m0, _, nodes = _propose(x_lists, y_rank, graph.y_count)
    _, mz, z_proposals = _propose(instance.y_lists, x_rank, graph.x_count)
    nodes += z_proposals
    # every stable partner of x lies between M0(x) and Mz(x) on its list
    estimate = 1
    for x, y in enumerate(m0):
        if y >= 0:
            estimate *= x_rank[x][mz[x]] - x_rank[x][y] + 1
    if nodes > cap:
        raise SearchCapExceeded(nodes, cap, estimate)

    first = tuple(m0)
    found: dict[tuple[int, ...], Optional[Matching]] = {first: None}
    stack = [first]
    while stack:
        m = stack.pop()
        matching = found[m] = Matching(_to_partner_tuple(m), graph.y_count)
        py = matching.partner_of_y
        s: dict[int, int] = {}
        nxt: dict[int, int] = {}
        for x, y in enumerate(m):
            if y == mz[x]:
                continue
            lst = x_lists[x]
            for i in range(x_rank[x][y] + 1, len(lst)):
                nodes += 1
                t = lst[i]
                h = py[t]
                if h is None:
                    break  # t is single in every stable matching: x never passes it
                if y_rank[t][x] < y_rank[t][h]:
                    s[x] = t
                    nxt[x] = h
                    break
        if nodes > cap:
            raise SearchCapExceeded(nodes, cap, estimate)
        state: dict[int, bool] = {}  # True while on the current path
        for x in nxt:
            path = []
            while x in nxt and x not in state:
                state[x] = True
                path.append(x)
                x = nxt[x]
            if state.get(x):  # the path closed a rotation at x
                succ = list(m)
                for r in path[path.index(x):]:
                    succ[r] = s[r]
                key = tuple(succ)
                if key not in found:
                    found[key] = None
                    stack.append(key)
            for r in path:
                state[r] = False

    matchings = tuple(found[key] for key in sorted(found))
    matched_x = matchings[0].matched_set(Side.X)
    matched_y = matchings[0].matched_set(Side.Y)
    for member in matchings[1:]:
        mx = member.matched_set(Side.X)
        my = member.matched_set(Side.Y)
        if mx != matched_x or my != matched_y:
            raise EngineInvariantError(
                f"matched sets differ across stable matchings: "
                f"{sorted(matched_x)}/{sorted(matched_y)} vs "
                f"{sorted(mx)}/{sorted(my)} — engine bug"
            )
    return StableSet(
        graph=graph,
        matchings=matchings,
        matched_x=matched_x,
        matched_y=matched_y,
        nodes_visited=nodes,
    )


def augment(
    masks: Sequence[int],
    owner: dict[int, int],
    start: int,
    seen: int,
) -> tuple[bool, int]:
    """Kuhn's augmenting-path search from left vertex `start`, on an explicit stack.

    Bit r of `masks[u]` is set when left vertex u may take right vertex r;
    they are tried lowest bit first. `owner` maps each held right vertex to
    its left vertex and is updated in place when a path is found. A right
    vertex whose bit is set in `seen` is never used, so pre-seeding `seen`
    excludes it. Returns whether a path was found and the final `seen`:
    on success that adds the right vertices the search visited, the one
    free vertex it took among them; on failure `owner` is untouched and
    `seen` adds every right vertex alternating-reachable from `start`, all
    of them held.
    """
    unseen = ~seen
    lefts = [start]  # left vertices on the current alternating path
    rights: list[int] = []  # rights[k] links lefts[k] to lefts[k + 1]
    stack = [masks[start]]
    while stack:
        avail = stack[-1] & unseen
        if avail:
            low = avail & -avail
            unseen ^= low
            r = low.bit_length() - 1
            holder = owner.get(r)
            if holder is None:
                owner[r] = lefts[-1]
                for left, right in zip(lefts, rights):
                    owner[right] = left
                return True, ~unseen
            lefts.append(holder)
            rights.append(r)
            stack.append(masks[holder])
        else:
            stack.pop()
            lefts.pop()
            if rights:
                rights.pop()
    return False, ~unseen


def maximum_matching(graph: BipartiteGraph) -> Matching:
    """A maximum-cardinality matching via augmenting paths (stability ignored).

    The matching itself is not unique; its size is, and that size is what
    the saturation cross-checks consume.
    """
    masks = graph.masks(Side.X)
    owner: dict[int, int] = {}
    for x in range(graph.x_count):
        augment(masks, owner, x, 0)
    px: list[Optional[int]] = [None] * graph.x_count
    for y, x in owner.items():
        px[x] = y
    return Matching(px, graph.y_count)
