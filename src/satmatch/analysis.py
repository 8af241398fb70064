"""Saturation analysis.

Decides whether every stable matching of a graph saturates one side no
matter what the preferences are. The decisive per-vertex question: can
v's neighborhood be fully absorbed by v's competitors — is there a
matching, avoiding v, that covers every option in N(v)? One routine,
`_absorb`, answers it for `vertex_report`: each option in ascending order
takes a free competitor if it has one and runs an augmenting-path search
only when none is free. The answer is one of two certificates:

* If yes, v can be stranded, and the absorbing matching the search found
  is kept as the certificate. The caller that prints or checks a
  stranding instance builds it with `adversarial_instance`, which runs
  `_absorb` again with the free-competitor step off (plain ascending
  augmenting paths), pairing each option with a champion competitor;
  preferences in which every option and its champion rank each other
  first strand v in every stable matching of that instance.
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
free mask; it runs in every verdict, and on K(n,n) it makes one search
per vertex instead of one per option. Neither certificate depends on it.
Whether N(v) can be absorbed does not depend on the order of the search.
The blockade is the set of options alternating-reachable from the first
option u* whose ascending prefix cannot be absorbed: every search that
keeps the earlier options absorbed stops at the same u*, and that set is
the prefix's Dulmage–Mendelsohn overfull part, which is unique whatever
paths were taken. The champions are searched for only when an instance is
built, so they always come from plain ascending augmenting paths.
`certify_blockade` rechecks a blockade from the masks alone before it is
printed: it must lie inside N(v) and outnumber its competitors.
`certify_absorption` rechecks a kept absorbing matching the same way: its
competitors must be distinct, none of them v, each adjacent to its option.

`saturation_verdict` runs one search per neighbourhood, not per vertex.
Two vertices of one side with the same adjacency mask, twins, get the same
report apart from `vertex`: swapping them is an automorphism of the graph
that fixes every option, so the options of one can be absorbed without it
exactly when those of the other can, the claimant counts agree, neither
has a dedicated option (each option is adjacent to both), and the
blockade is the same unique overfull part. A twin's absorbing matching is
its representative's with the two vertices swapped, since the
representative's matching may use the twin as a competitor.
`saturation_holds`, which answers only whether the verdict holds, makes
its reports the same way, one at a time, and stops at the first vertex
that is not satisfied.

Each verdict stores only what its search found; whether it holds, and
each vertex's status, are derived from that.

The perfect-matching variants characterize when every stable matching is
perfect for all preferences: for a connected balanced graph this happens
exactly when the graph is a balanced biclique, and in general exactly when
every component is a balanced biclique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

# certify_stranding calls through the module, so that patching
# engine.deferred_acceptance or engine.is_stable reaches it
from . import engine
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
    neither satisfied nor isolated: its options can all be absorbed, and
    `absorbers` is the absorbing matching the search found, the competitor
    (an index on v's side) of each option of v in ascending order. It is
    left out of comparisons: twins and other search orders find other
    matchings for the same verdict, and `certify_absorption` checks it.
    The caller that wants a stranding instance builds it with
    `adversarial_instance`. An isolated vertex is vacuously bounded
    (0 <= 0) yet can never be matched: blockade None, not satisfied, not
    strandable.
    """

    vertex: Vertex
    options: int
    claimants: int
    dedicated: Optional[Vertex]
    blockade: Optional[tuple[Vertex, ...]]
    absorbers: Optional[tuple[int, ...]] = field(compare=False, repr=False)

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
    """Does every stable matching saturate one side, for every instance?

    `reports` holds one report per vertex of that side, in index order;
    each report's `vertex` names the side. holds ⇔ every report is
    satisfied. When it fails because some vertex is strandable,
    `first_strandable` is the first such report; the caller that wants a
    stranding instance builds it with `adversarial_instance`. An
    all-isolated failure has no strandable report (no instance is needed —
    an isolated vertex is never matched).
    """

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


def _absorb(
    comasks: tuple[int, ...], row: tuple[int, ...], mine: int, free: int
) -> tuple[bool, tuple[int, ...]]:
    """Place the options `row` with competitors outside `mine`, the one
    absorption loop behind every verdict and every champion.

    Options go in ascending order. Each takes the lowest competitor of its
    mask that is still in `free` if there is one, and otherwise runs one
    `augment` with `mine` pre-seen. Returns (True, the competitor of each
    option of `row`) when all are placed. Otherwise the first option u
    that cannot be placed ends the loop, and this returns (False, u with
    the options held by the competitors alternating-reachable from it,
    ascending); u is the last of them, since every other was placed before
    it. With `free` = 0 the loop is plain ascending Kuhn.
    """
    taken: dict[int, int] = {}  # competitor -> option it absorbs
    for u in row:
        avail = comasks[u] & free
        if avail:
            low = avail & -avail
            free ^= low
            taken[low.bit_length() - 1] = u
            continue
        found, seen = augment(comasks, taken, u, mine)
        if not found:
            stuck = [u] + [w for c, w in taken.items() if seen >> c & 1]
            return False, tuple(sorted(stuck))
        free &= ~seen  # the one free competitor a path visits is the one it takes
    absorbed_by = dict(zip(taken.values(), taken))  # option -> competitor
    return True, tuple(map(absorbed_by.__getitem__, row))


def vertex_report(graph: BipartiteGraph, v: Vertex) -> VertexReport:
    """Certify v, or decide that it can be stranded.

    Competitor sets are bitmasks over v's own side, built from the masks
    of v's options: the claimants N(N(v)) are their OR, counted with
    `bit_count()`, and always include v itself when v has any option. The
    dedicated neighbor is the lowest-index option whose mask is v's bit
    alone. `_absorb` then places the options over the competitors other
    than v, with every claimant but v free at the start. The first option
    u it cannot place ends it; its failed search returns as seen exactly
    the competitors alternating-reachable from u, all of them taken, so u
    and the options they absorb form the blockade: a set adjacent to
    strictly fewer competitors than its own size.

    The free-competitor step changes which competitor absorbs which
    option, but not u or the set reachable from it, so the blockade is the
    same as plain ascending search would give. A vertex whose options are
    all placed can be stranded; the report keeps the matching that placed
    them, and its champions are left to `adversarial_instance`.
    """
    graph.check_vertex(v)
    opp = v.side.opposite
    row = graph.adjacency(v.side)[v.index]
    comasks = graph.masks(opp)
    mine = 1 << v.index
    reach = _neighborhood(comasks, row)
    dedicated = next((Vertex(opp, u) for u in row if comasks[u] == mine), None)
    placed, found = _absorb(comasks, row, mine, reach & ~mine)
    return VertexReport(
        vertex=v,
        options=len(row),
        claimants=reach.bit_count(),
        dedicated=dedicated,
        blockade=None if placed else tuple(Vertex(opp, w) for w in found),
        absorbers=found if placed and row else None,
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


def certify_absorption(graph: BipartiteGraph, report: VertexReport) -> None:
    """Recheck a strandable `report`'s absorbing matching against the graph.

    Each option of v must have an absorber, and the absorbers must be
    distinct competitors other than v, each adjacent to its option: a
    matching of N(v) that avoids v (McConnell, Mehlhorn, Näher & Schweitzer,
    Computer Science Review 5(2), 2011, on certifying algorithms). That
    costs O(deg v). A report that is not strandable passes. A matching that
    fails would print a false "can be stranded", so this raises
    EngineInvariantError.
    """
    if not report.strandable:
        return
    v = report.vertex
    opp = v.side.opposite
    row = graph.adjacency(v.side)[v.index]
    if report.absorbers is None or len(report.absorbers) != len(row):
        raise EngineInvariantError(
            f"{v!r} was reported strandable without an absorber for each option"
        )
    comasks = graph.masks(opp)
    used = 0
    for u, c in zip(row, report.absorbers):
        if c == v.index:
            raise EngineInvariantError(
                f"the absorbing matching of {v!r} gives option {Vertex(opp, u)!r} "
                f"to {v!r} itself"
            )
        if c < 0 or not comasks[u] >> c & 1:
            raise EngineInvariantError(
                f"the absorbing matching of {v!r} gives option {Vertex(opp, u)!r} "
                f"to {Vertex(v.side, c)!r}, which is not adjacent to it"
            )
        if used >> c & 1:
            raise EngineInvariantError(
                f"the absorbing matching of {v!r} gives {Vertex(v.side, c)!r} "
                f"two options"
            )
        used |= 1 << c


def certify_stranding(
    graph: BipartiteGraph,
    instance: PreferenceInstance,
    v: Vertex,
    name: Callable[[Vertex], str],
) -> None:
    """Recheck that `instance` leaves v unmatched in every stable matching.

    Every list must rank exactly its vertex's neighbors, and one
    X-proposing deferred-acceptance run must give a stable matching in
    which v is unmatched. Every stable matching of such an instance matches
    the same vertices (Roth 1986), so that covers all of them, with no
    enumeration and no search cap. `name` renders v, as in `guarantee`.
    A failed check would print a false counterexample, so this raises
    EngineInvariantError.
    """
    sides = ((instance.x_lists, graph.x_adj), (instance.y_lists, graph.y_adj))
    if any(tuple(map(tuple, map(sorted, lists))) != rows for lists, rows in sides):
        raise EngineInvariantError(
            f"the instance built to strand {name(v)} does not rank exactly "
            f"each vertex's neighbors"
        )
    m = engine.deferred_acceptance(graph, instance)
    if not engine.is_stable(graph, instance, m):
        raise EngineInvariantError(
            "X-proposing deferred acceptance returned an unstable matching"
        )
    if m.partner(v) is not None:
        raise EngineInvariantError(
            f"the instance built to strand {name(v)} matches it in its "
            f"X-optimal stable matching"
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


def _reports(graph: BipartiteGraph, side: Side) -> Iterator[VertexReport]:
    """Each vertex's report on `side`, in index order, each made as it is
    taken.

    Twins share one search: the first vertex with a given adjacency mask
    runs `vertex_report`, and every later twin gets a copy of its report.
    That is exact, because swapping two twins is an automorphism of the
    graph that fixes all their options (see the module docstring); the
    copy's absorbing matching swaps the two, as the representative's may
    use the twin as a competitor.
    """
    first: dict[int, VertexReport] = {}  # adjacency mask -> its first report
    for v, mask in zip(graph.vertices(side), graph.masks(side)):
        rep = first.get(mask)
        if rep is None:
            rep = first[mask] = vertex_report(graph, v)
        else:
            absorbers = rep.absorbers
            if absorbers is not None:
                mine = rep.vertex.index
                absorbers = tuple(mine if c == v.index else c for c in absorbers)
            rep = VertexReport(
                v, rep.options, rep.claimants, rep.dedicated, rep.blockade, absorbers
            )
        yield rep


def saturation_verdict(graph: BipartiteGraph, side: Side = Side.X) -> SaturationVerdict:
    """The full verdict for one side, with per-vertex certificates; the
    caller builds any stranding instance from `first_strandable`. Twins
    share one search (see `_reports`)."""
    return SaturationVerdict(tuple(_reports(graph, side)))


def saturation_holds(graph: BipartiteGraph, side: Side = Side.X) -> bool:
    """`saturation_verdict(graph, side).holds`, decided only up to the
    first vertex that is not satisfied: no report after it is made."""
    return all(r.satisfied for r in _reports(graph, side))


def adversarial_instance(
    graph: BipartiteGraph, report: VertexReport
) -> PreferenceInstance:
    """A preference instance under which `report.vertex` is unmatched in
    every stable matching.

    `report` is the vertex's `vertex_report` on `graph`. The instance
    exists exactly when v is strandable; otherwise this raises an
    InputError whose message is v's `guarantee`. The champion competitor
    of every option of v comes from `_absorb` with its free-competitor
    step off (`free` = 0), which is plain ascending Kuhn, the search the
    counterexamples pinned in the golden files follow. The report's own
    `absorbers` cannot serve: they come from the same loop with that step
    on, and a twin's report holds a copy with the twins swapped. If that
    pass cannot absorb every option, the report was wrong and this raises
    EngineInvariantError, naming the first option left over, rather than
    build an instance that does not strand v. The construction then sets:

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
    comasks = graph.masks(opp)
    placed, found = _absorb(comasks, adj[v.index], 1 << v.index, 0)
    if not placed:
        raise EngineInvariantError(
            f"{v!r} was reported strandable, but option "
            f"{Vertex(opp, found[-1])!r} cannot be absorbed"
        )
    champions = dict(zip(adj[v.index], found))  # option -> competitor
    absorbs = {c: u for u, c in champions.items()}  # competitor -> its option
    claimants = _neighborhood(comasks, adj[v.index]) & ~(1 << v.index)

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
    lowest-index missing edge is reported: rows ascend strictly, so it lies
    in the first row shorter than `y_count`, at the first position k that
    does not hold k, or else just past the row's end. Disconnected or
    unbalanced input is an error; use component_perfect_verdict for those.
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
    for xi, row in enumerate(graph.x_adj):
        if len(row) < graph.y_count:
            yi = next((k for k, y in enumerate(row) if y != k), len(row))
            return CompletenessVerdict(False, (Vertex(Side.X, xi), Vertex(Side.Y, yi)))
    return CompletenessVerdict(True, None)


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
