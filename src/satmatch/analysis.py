"""Saturation analysis.

Decides whether every stable matching of a graph saturates one side no
matter what the preferences are. The decisive per-vertex question: can
v's neighborhood be fully absorbed by v's competitors — is there a
matching, avoiding v, that covers every option in N(v)? `vertex_report`
answers it: each option takes a free competitor if it has one and runs an
augmenting-path search only when none is free. The answer is one of two
certificates:

* If yes, v can be stranded. The caller that prints or checks a
  stranding instance builds it with `adversarial_instance`, which finds
  the absorbing matching again with plain ascending augmenting paths,
  pairing each option with a champion competitor; preferences in which
  every option and its champion rank each other first strand v in every
  stable matching of that instance.
* If no, some set of options is a blockade: more options than the
  competitors adjacent to them, so however the options match away from v,
  one of them is left over — and an unmatched option next to an unmatched
  v is a blocking pair. v is matched in every stable matching of every
  instance, and the blockade set is the certificate.

Two cheap certificates are reported alongside because they explain most
real cases and need no matching computation:

* bounded claimants — the vertices competing for v's options, N(N(v)),
  are no more numerous than the options N(v) themselves (then N(v) itself
  is a blockade);
* a dedicated neighbor — some neighbor of v has no other option (a
  one-vertex blockade).

Either implies a blockade, but not conversely: two options sharing their
only competitor block absorption even when the claimant count stays under
the option count and nobody is dedicated.

The search runs on the int bitmasks of `BipartiteGraph.masks`, one per
vertex, whose bit c is set when c is a neighbor: the claimants are the OR
of the option masks and their count its `bit_count()`, the free and seen
competitors are masks too, and the one augmenting-path search,
`engine.augment`, tries competitors lowest bit first, the same ascending
order as a walk down the adjacency lists. The free-competitor step (Kuhn's
cheap assignment) takes the lowest set bit of an option's mask and the
free mask; it runs on every vertex, and on K(n,n) it makes one search per
vertex instead of one per option. Neither certificate depends on it.
Whether N(v) can be absorbed does not depend on the order of the search.
The blockade is the set of options alternating-reachable from the first
option u* whose ascending prefix cannot be absorbed: every search that
keeps the earlier options absorbed stops at the same u*, and that set is
the prefix's Dulmage–Mendelsohn overfull part, which is unique whatever
paths were taken. The champions are searched for only when an instance is
built, so they always come from plain ascending augmenting paths.
`certify_blockade` rechecks a blockade from the masks alone before it is
printed: it must lie inside N(v) and outnumber its competitors.

Each verdict stores only what its search found; whether it holds, and
each vertex's status, are derived from that.

The perfect-matching variants characterize when every stable matching is
perfect for all preferences: for a connected balanced graph this happens
exactly when the graph is a balanced biclique, and in general exactly when
every component is a balanced biclique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional

from .engine import augment
from .errors import EngineInvariantError, InputError
from .graph import BipartiteGraph, Component, Side, Vertex
from .prefs import PreferenceInstance


@dataclass(frozen=True)
class VertexReport:
    """Per-vertex certificate data: what the search found, and what follows.

    `blockade` is the certifying option set, present exactly when v is
    `satisfied`: matched in every stable matching of every preference
    instance. `dedicated` is the cheap one-vertex certificate and
    `bounded` (claimants <= options) the other. A `strandable` vertex is
    neither satisfied nor isolated: its options can all be absorbed,
    which the free-competitor step decided without keeping the absorbing
    matching; the caller that wants its stranding instance builds it with
    `adversarial_instance`. An isolated vertex is vacuously bounded
    (0 <= 0) yet can never be matched: blockade None, not satisfied, not
    strandable.
    """

    vertex: Vertex
    options: int
    claimants: int
    dedicated: Optional[Vertex]
    blockade: Optional[tuple[Vertex, ...]]

    @property
    def satisfied(self) -> bool:
        return self.blockade is not None

    @property
    def isolated(self) -> bool:
        return self.options == 0

    @property
    def bounded(self) -> bool:
        return self.claimants <= self.options

    @property
    def strandable(self) -> bool:
        return not self.satisfied and not self.isolated


@dataclass(frozen=True)
class SaturationVerdict:
    """Does every stable matching saturate `side`, for every instance?

    holds ⇔ every report is satisfied. When it fails because some vertex
    is strandable, `first_strandable` is the first such report; the caller
    that wants a stranding instance builds it with `adversarial_instance`.
    An all-isolated failure has no strandable report (no instance is
    needed — an isolated vertex is never matched).
    """

    side: Side
    reports: tuple[VertexReport, ...]

    @property
    def holds(self) -> bool:
        return all(r.satisfied for r in self.reports)

    @property
    def first_strandable(self) -> Optional[VertexReport]:
        return next((r for r in self.reports if r.strandable), None)


def _neighborhood(masks: tuple[int, ...], indices: Iterable[int]) -> int:
    """N(indices) as a bitmask: the OR of their adjacency masks."""
    reach = 0
    for u in indices:
        reach |= masks[u]
    return reach


def vertex_report(graph: BipartiteGraph, v: Vertex) -> VertexReport:
    """Certify v, or decide that it can be stranded.

    Competitor sets are bitmasks over v's own side, built from the masks
    of v's options: the claimants N(N(v)) are their OR, counted with
    `bit_count()`, and always include v itself when v has any option. The
    dedicated neighbor is the lowest-index option whose mask is v's bit
    alone. The options are placed in ascending order over the competitors
    other than v: each takes the lowest set bit of its mask and the free
    mask if there is one, and otherwise runs one augmenting-path search
    with v's bit pre-seen; the first option u that search cannot place
    ends it. That failed search returns as seen exactly the competitors
    alternating-reachable from u, all of them taken, so u and the options
    they absorb form the blockade: a set adjacent to strictly fewer
    competitors than its own size.

    The free-competitor step runs on every vertex. It changes which
    competitor absorbs which option, but not u or the set reachable from
    it, so the blockade is the same as plain ascending search would give.
    A vertex whose options are all placed can be stranded; its champions
    are left to `adversarial_instance`.
    """
    graph.check_vertex(v)
    opp = v.side.opposite
    row = graph.adjacency(v.side)[v.index]
    comasks = graph.masks(opp)
    mine = 1 << v.index
    reach = _neighborhood(comasks, row)
    free = reach & ~mine  # competitors not yet absorbing an option
    dedicated = next((Vertex(opp, u) for u in row if comasks[u] == mine), None)

    taken: dict[int, int] = {}  # competitor -> option it absorbs
    blockade = None
    for u in row:
        avail = comasks[u] & free
        if avail:
            low = avail & -avail
            free ^= low
            taken[low.bit_length() - 1] = u
            continue
        found, seen = augment(comasks, taken, u, mine)
        if not found:
            stuck = sorted([u] + [w for c, w in taken.items() if seen >> c & 1])
            blockade = tuple(Vertex(opp, w) for w in stuck)
            break
        free &= ~seen  # the one free competitor a path visits is the one it takes
    return VertexReport(
        vertex=v,
        options=len(row),
        claimants=reach.bit_count(),
        dedicated=dedicated,
        blockade=blockade,
    )


def certify_blockade(graph: BipartiteGraph, report: VertexReport) -> None:
    """Recheck `report`'s blockade B against the graph alone.

    B must lie inside N(v) and be deficient: the competitors N(B) other
    than v must number fewer than B's options. A report without a
    blockade passes. A blockade that fails either test would print a false
    guarantee, so this raises EngineInvariantError.
    """
    if report.blockade is None:
        return
    v = report.vertex
    opp = v.side.opposite
    options = graph.masks(v.side)[v.index]
    for u in report.blockade:
        if u.side is not opp or not options >> u.index & 1:
            raise EngineInvariantError(
                f"the blockade of {v!r} holds {u!r}, which is not an option of it"
            )
    chosen = {u.index for u in report.blockade}
    across = _neighborhood(graph.masks(opp), chosen) & ~(1 << v.index)
    if across.bit_count() >= len(chosen):
        raise EngineInvariantError(
            f"the blockade of {v!r} is not deficient: "
            f"{counted(across.bit_count(), 'competitor')} besides it for "
            f"{counted(len(chosen), 'option')}"
        )


def counted(n: int, noun: str) -> str:
    """`n` followed by `noun`, made plural unless n is 1."""
    return f"{n} {noun}{'' if n == 1 else 's'}"


def guarantee(
    graph: BipartiteGraph, report: VertexReport, name: Callable[[Vertex], str]
) -> str:
    """Why no preference instance strands `report.vertex`, in words.

    For a report that is satisfied or isolated; `name` renders each vertex
    (`repr` gives x[i]/y[j]). The first reason that applies is given:
    isolation, bounded claimants, a dedicated neighbor, then the blockade
    with the competitors N(blockade) ∖ {v} that it outnumbers.
    """
    v = report.vertex
    if report.isolated:
        return (
            f"{name(v)} is isolated: it is unmatched in every matching already, "
            f"no special instance is needed"
        )
    if not report.satisfied:
        raise ValueError(f"{v!r} can be stranded; it has no guarantee to explain")
    why = f"{name(v)} is guaranteed a partner in every stable matching: its "
    if report.bounded:
        verb = "fits" if report.claimants == 1 else "fit"
        return why + (
            f"{counted(report.claimants, 'claimant')} {verb} within its "
            f"{counted(report.options, 'option')}"
        )
    if report.dedicated is not None:
        return why + f"neighbor {name(report.dedicated)} has degree 1, dedicated to it"
    comasks = graph.masks(v.side.opposite)
    across = _neighborhood(comasks, (u.index for u in report.blockade))
    across &= ~(1 << v.index)
    shown = ", ".join(name(u) for u in report.blockade)
    return why + (
        f"options {shown} have only {counted(across.bit_count(), 'competitor')} "
        f"besides it, so one of them always falls to it"
    )


def saturation_verdict(graph: BipartiteGraph, side: Side = Side.X) -> SaturationVerdict:
    """The full verdict for one side, with per-vertex certificates; the
    caller builds any stranding instance from `first_strandable`."""
    reports = tuple(vertex_report(graph, v) for v in graph.vertices(side))
    return SaturationVerdict(side=side, reports=reports)


def _champions(graph: BipartiteGraph, v: Vertex) -> tuple[int, ...]:
    """The absorbing matching of plain ascending Kuhn: champions[k] is the
    competitor of v that absorbs option graph.adjacency(v.side)[v.index][k].

    Each option in ascending order runs one augmenting-path search over the
    competitors other than v, trying them in ascending order. An option
    that cannot be placed means v was wrongly reported strandable, which
    raises EngineInvariantError.
    """
    row = graph.adjacency(v.side)[v.index]
    comasks = graph.masks(v.side.opposite)
    taken: dict[int, int] = {}  # competitor -> option it absorbs
    for u in row:
        found, _ = augment(comasks, taken, u, 1 << v.index)
        if not found:
            raise EngineInvariantError(
                f"{v!r} was reported strandable, but option "
                f"{Vertex(v.side.opposite, u)!r} cannot be absorbed"
            )
    absorbed_by = {u: c for c, u in taken.items()}
    return tuple(absorbed_by[u] for u in row)


def adversarial_instance(
    graph: BipartiteGraph, report: VertexReport
) -> PreferenceInstance:
    """A preference instance under which `report.vertex` is unmatched in
    every stable matching.

    `report` is the vertex's `vertex_report` on `graph`. The instance
    exists exactly when v is strandable; otherwise this raises an
    InputError whose message is v's `guarantee`. The report keeps no
    absorbing matching, so this runs the one plain ascending
    augmenting-path pass that finds it: the champion competitor of every
    option of v. If that pass cannot absorb every option, the report was
    wrong and this raises EngineInvariantError rather than build an
    instance that does not strand v. The construction then sets:

    * every option of v ranks its champion first, its other neighbors
      next by ascending index, and v dead last;
    * every claimant other than v ranks its neighbors inside N(v) above
      its neighbors outside N(v), each block ascending, except that a
      champion puts the option it absorbs first;
    * all remaining lists are plain ascending.

    Each champion and its option rank each other first, so every stable
    matching pairs them (a mutual-first pair left apart blocks). That
    covers all of N(v), and v — ranked last by every option — is left
    unmatched in every stable matching, not merely in one.
    """
    if not report.strandable:
        raise InputError(guarantee(graph, report, repr))

    v = report.vertex
    opp = v.side.opposite
    adj = graph.adjacency(v.side)
    coadj = graph.adjacency(opp)
    options = graph.masks(v.side)[v.index]
    champions = dict(zip(adj[v.index], _champions(graph, v)))  # option -> competitor
    absorbs = {c: u for u, c in champions.items()}  # competitor -> its option
    claimants = _neighborhood(graph.masks(opp), adj[v.index]) & ~(1 << v.index)

    # v's side: claimants crowd into N(v), champions lead with their option;
    # v itself and bystanders rank by ascending index.
    same_side_lists = []
    for i, row in enumerate(adj):
        if claimants >> i & 1:
            inside = [u for u in row if options >> u & 1]
            outside = [u for u in row if not options >> u & 1]
            if i in absorbs:
                first = absorbs[i]
                inside = [first] + [u for u in inside if u != first]
            same_side_lists.append(tuple(inside + outside))
        else:
            same_side_lists.append(tuple(row))

    # opposite side: v's options rank champion first and v dead last;
    # everyone else ascending.
    other_side_lists = []
    for u, row in enumerate(coadj):
        if options >> u & 1:
            first = champions[u]
            rest = [w for w in row if w != v.index and w != first]
            other_side_lists.append(tuple([first] + rest + [v.index]))
        else:
            other_side_lists.append(tuple(row))

    if v.side is Side.X:
        return PreferenceInstance(same_side_lists, other_side_lists)
    return PreferenceInstance(other_side_lists, same_side_lists)


class CompletenessVerdict(NamedTuple):
    holds: bool
    missing_edge: Optional[tuple[Vertex, Vertex]]


def connected_perfect_verdict(graph: BipartiteGraph) -> CompletenessVerdict:
    """For a connected balanced graph: is every stable matching perfect, always?

    Holds exactly when the graph is a balanced biclique. When false, the
    lowest-index missing edge is reported. Disconnected or unbalanced input
    is an error; use component_perfect_verdict for those.
    """
    if graph.x_count != graph.y_count or graph.x_count == 0:
        raise InputError(
            f"needs a connected graph with equal nonempty sides, got "
            f"{graph.x_count}+{graph.y_count}; for general graphs use "
            f"component_perfect_verdict"
        )
    if not graph.is_connected():
        raise InputError(
            "needs a connected graph; for disconnected graphs use "
            "component_perfect_verdict"
        )
    if graph.is_biclique():
        return CompletenessVerdict(True, None)
    for xi, row in enumerate(graph.x_adj):
        have = set(row)
        for yi in range(graph.y_count):
            if yi not in have:
                return CompletenessVerdict(
                    False, (Vertex(Side.X, xi), Vertex(Side.Y, yi))
                )
    raise AssertionError("unreachable: non-biclique with no missing edge")


@dataclass(frozen=True)
class ComponentVerdict:
    components: tuple[Component, ...]

    @property
    def holds(self) -> bool:
        return all(p.biclique and p.balanced for p in self.components)


def component_perfect_verdict(graph: BipartiteGraph) -> ComponentVerdict:
    """For a balanced graph: is every stable matching perfect, always?

    Holds exactly when every component is a biclique with equal side sizes.
    Component-level balance matters: two bicliques of shapes 1x2 and 2x1
    balance globally, yet each strands a vertex in every matching.
    """
    if graph.x_count != graph.y_count:
        raise InputError(
            f"sides must balance for a perfect matching to exist at all, "
            f"got {graph.x_count}+{graph.y_count}"
        )
    return ComponentVerdict(components=tuple(graph.components()))


@dataclass(frozen=True)
class PerfectVerdict:
    x: SaturationVerdict
    y: SaturationVerdict

    @property
    def holds(self) -> bool:
        return self.x.holds and self.y.holds


def perfect_verdict(graph: BipartiteGraph) -> PerfectVerdict:
    """Is every stable matching perfect for every instance? Any graph allowed.

    A matching is perfect iff it saturates both sides, so this is the
    conjunction of the two one-sided verdicts; on balanced graphs it agrees
    with component_perfect_verdict.
    """
    return PerfectVerdict(
        x=saturation_verdict(graph, Side.X), y=saturation_verdict(graph, Side.Y)
    )
