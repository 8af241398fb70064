"""A seeded falsifier for the saturation verdict past the brute-force wall.

Brute force checks what a satisfied verdict promises only up to 4x4. Here
the promise itself is tried on seeded random graphs with 5 to 16 vertices
a side: a satisfied vertex v is matched in every stable matching of every
preference instance. Every stable matching of one instance matches the
same vertices (the rural hospitals theorem: Roth, Econometrica 54(2),
1986), so one X-proposing deferred-acceptance run per instance decides
whether v is matched in all of them, on either side.

Each satisfied vertex is tried on a few uniform instances and on one aimed
at it: every option ranks v last, and every claimant ranks v's options
first. That is the shape of `adversarial_instance`, the instance that
strands a vertex whose options can be absorbed. A checker that shares a
misreading of the verdict's condition cannot hide it from this test,
since nothing here restates the condition. A seeded hill-climb then walks
from the aimed instance toward one that strands v, one swap at a time,
and v must stay matched all the way.
"""

from __future__ import annotations

import random

from satmatch import analysis, engine, prefs
from satmatch.graph import BipartiteGraph, Side, Vertex
from satmatch.prefs import PreferenceInstance

SEED = 5
DENSITIES = (0.15, 0.25, 0.4)
SAMPLES = 3  # uniform instances per satisfied vertex, besides the aimed one
CLIMB_STEPS = 8  # swaps tried per satisfied vertex, from the aimed instance


def _random_graph(rng: random.Random, density: float) -> BipartiteGraph:
    x_count, y_count = rng.randint(5, 16), rng.randint(5, 16)
    edges = [
        (i, j) for i in range(x_count) for j in range(y_count) if rng.random() < density
    ]
    return BipartiteGraph(x_count, y_count, edges)


def _biclique_union(rng: random.Random) -> BipartiteGraph:
    """Balanced bicliques of 1 to 4 vertices a side, 5 to 16 vertices a
    side in all, with the indices shuffled: a graph whose every stable
    matching is perfect."""
    n = rng.randint(5, 16)
    xs, ys = rng.sample(range(n), n), rng.sample(range(n), n)
    edges, start = [], 0
    while start < n:
        block = range(start, start + rng.randint(1, min(4, n - start)))
        edges += [(xs[a], ys[b]) for a in block for b in block]
        start = block.stop
    return BipartiteGraph(n, n, edges)


def _aimed_at(graph: BipartiteGraph, v: Vertex) -> PreferenceInstance:
    """Every option of v ranks v last and every claimant ranks its options
    of v first, each block ascending; every other list is ascending."""
    options = set(graph.adjacency(v.side)[v.index])
    own = [
        [u for u in row if u in options] + [u for u in row if u not in options]
        for row in graph.adjacency(v.side)
    ]
    other = [
        [w for w in row if w != v.index] + [v.index] if u in options else list(row)
        for u, row in enumerate(graph.adjacency(v.side.opposite))
    ]
    if v.side is Side.X:
        return PreferenceInstance(own, other)
    return PreferenceInstance(other, own)


def _climb(graph: BipartiteGraph, v: Vertex, rng: random.Random) -> int:
    """Hill-climb from `_aimed_at(graph, v)` toward an instance that
    strands v, and return how many deferred-acceptance runs it made.

    Each step swaps two adjacent entries, drawn from `rng`, within one
    claimant's block of v's options: the part of the aimed instance that
    decides which competitor takes which option. The swap is kept when v's
    partner is no better for v than before, and undone otherwise. v must
    be matched after every step. A vertex with no such pair is skipped."""
    aimed = _aimed_at(graph, v)
    lists = [list(map(list, aimed.x_lists)), list(map(list, aimed.y_lists))]
    own = lists[v.side is Side.Y]
    ranked = own[v.index]  # v's own list, ascending; no step swaps it
    options = set(ranked)
    moves = [
        (row, k)
        for i, row in enumerate(own)
        if i != v.index
        for k in range(sum(u in options for u in row) - 1)
    ]
    if not moves:
        return 0
    worst = 0
    for step in range(CLIMB_STEPS + 1):
        if step:
            row, k = rng.choice(moves)
            row[k], row[k + 1] = row[k + 1], row[k]
        instance = PreferenceInstance(*lists)
        partner = engine.deferred_acceptance(graph, instance).partner(v)
        assert partner is not None, (
            f"{v!r} was reported satisfied on {graph!r}, but is unmatched in "
            f"every stable matching of {instance.x_lists!r} / {instance.y_lists!r}"
        )
        rank = ranked.index(partner.index)
        if rank >= worst:
            worst = rank
        else:
            row[k], row[k + 1] = row[k + 1], row[k]
    return CLIMB_STEPS + 1


def _try_every_satisfied_vertex(graph: BipartiteGraph, rng: random.Random) -> int:
    """Run deferred acceptance on each satisfied vertex's instances, with
    the uniform ones' seeds drawn from `rng`, and return how many ran. Each
    run must match its vertex, and must be perfect when the perfect verdict
    holds."""
    verdict = analysis.perfect_verdict(graph)
    runs = 0
    for report in verdict.x.reports + verdict.y.reports:
        if not report.satisfied:
            continue
        v = report.vertex
        seeds = [rng.getrandbits(32) for _ in range(SAMPLES)]
        instances = [prefs.sample_uniform(graph, seed) for seed in seeds]
        for instance in [*instances, _aimed_at(graph, v)]:
            m = engine.deferred_acceptance(graph, instance)
            runs += 1
            assert m.partner(v) is not None, (
                f"{v!r} was reported satisfied on {graph!r}, with blockade "
                f"{report.blockade!r}, but is unmatched in every stable matching "
                f"of {instance.x_lists!r} / {instance.y_lists!r}"
            )
            if verdict.holds:
                assert m.size == graph.x_count == graph.y_count, (
                    f"the perfect verdict holds on {graph!r}, but {m!r} is a stable "
                    f"matching of {instance.x_lists!r} / {instance.y_lists!r}"
                )
    return runs


def test_satisfied_vertices_are_matched_on_random_graphs():
    rng = random.Random(SEED)
    runs = sum(
        _try_every_satisfied_vertex(_random_graph(rng, DENSITIES[k % 3]), rng)
        for k in range(400)
    )
    assert runs > 4000  # the seed gives about 6,000


def test_every_stable_matching_is_perfect_on_unions_of_balanced_bicliques():
    rng = random.Random(SEED)
    for _ in range(20):
        graph = _biclique_union(rng)
        assert analysis.perfect_verdict(graph).holds
        runs = _try_every_satisfied_vertex(graph, rng)
        assert runs == 2 * graph.x_count * (SAMPLES + 1)


def test_hill_climbs_toward_stranding_leave_satisfied_vertices_matched():
    graphs, climb = random.Random(SEED), random.Random(SEED + 1)
    runs = 0
    for k in range(400):
        graph = _random_graph(graphs, DENSITIES[k % 3])
        verdict = analysis.perfect_verdict(graph)
        for report in verdict.x.reports + verdict.y.reports:
            if report.satisfied:
                runs += _climb(graph, report.vertex, climb)
    assert runs > 4000  # the seed gives about 6,000
