"""Per-vertex ground truth: every report's `satisfied` against brute force.

On a graph whose preference instances are all enumerated, a vertex is
guaranteed a partner exactly when every instance's stable matchings match
it. Every stable matching of one instance matches the same vertices (Roth,
Econometrica 54(2), 1986), so that is membership in `StableSet.matched_x`
(or `matched_y`) of every instance. This checks each vertex's report, both
ways, on graphs where the blockade criterion decides: a "blockade-only"
X-vertex is satisfied, yet neither bounded nor given a dedicated option.
The release gate's own suites (c1-c8) compare whole-side verdicts, which
fail on every such 4x3 graph because another vertex can be stranded.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import lru_cache
from itertools import combinations

import pytest

from conftest import guarded_4x5
from satmatch import analysis, engine, harness, prefs
from satmatch.graph import BipartiteGraph, Side, Vertex


def _deficient(g: BipartiteGraph, i: int) -> bool:
    """Some set of x_i's options has fewer competitors other than x_i than
    members, found by trying every set: x_i is guaranteed a partner."""
    row = g.x_adj[i]
    return any(
        len({c for u in options for c in g.y_adj[u]} - {i}) < k
        for k in range(1, len(row) + 1)
        for options in combinations(row, k)
    )


def _blockade_only(g: BipartiteGraph, i: int) -> bool:
    """x_i is guaranteed by a blockade alone, found without the search: its
    claimants outnumber its options, no option has degree 1, and yet some
    set of its options has fewer competitors other than x_i than members."""
    row = g.x_adj[i]
    if len({c for u in row for c in g.y_adj[u]}) <= len(row):
        return False
    if any(len(g.y_adj[u]) == 1 for u in row):
        return False
    return _deficient(g, i)


@lru_cache(maxsize=1)
def _blockade_only_4x3() -> tuple[BipartiteGraph, ...]:
    """The graphs up to 4x3 with a blockade-only X-vertex."""
    return tuple(
        g
        for g in harness.all_graphs(4, 3)
        if any(_blockade_only(g, i) for i in range(g.x_count))
    )


def _mismatches(g: BipartiteGraph) -> tuple[int, list[tuple[Vertex, bool]]]:
    """Enumerate every instance of g; return how many, and each vertex whose
    report's `satisfied` disagrees with being matched in all of them."""
    always = {Side.X: set(range(g.x_count)), Side.Y: set(range(g.y_count))}
    count = 0
    for p in prefs.enumerate_all(g):
        count += 1
        ss = engine.enumerate_stable(g, p)
        always[Side.X] &= ss.matched_x
        always[Side.Y] &= ss.matched_y
    wrong = [
        (r.vertex, r.satisfied)
        for side in (Side.X, Side.Y)
        for r in analysis.saturation_verdict(g, side).reports
        if r.satisfied != (r.vertex.index in always[side])
    ]
    return count, wrong


def test_blockade_only_4x3_graphs_match_the_brute_force_guarantee():
    graphs = _blockade_only_4x3()
    assert len(graphs) == 54
    # each has X-side twins, so the reports checked include shared ones
    assert all(len(set(g.masks(Side.X))) < g.x_count for g in graphs)
    instances = 0
    for g in graphs:
        count, wrong = _mismatches(g)
        assert wrong == [], g
        instances += count
    assert instances == 72_576


def test_a_seeded_sample_of_blockade_only_4x4_graphs_matches_the_brute_force_guarantee():
    """Beyond the release gate's sizes: of the 65,536 4x4 graphs, those
    with a blockade-only X-vertex and at most 10^4 instances, of which a
    seeded sample of 12 is enumerated in full."""
    graphs = [
        g
        for g in harness.graphs_of_shape(4, 4)
        if any(_blockade_only(g, i) for i in range(g.x_count))
    ]
    assert len(graphs) == 1_944
    small = [g for g in graphs if prefs.instance_count(g) <= 10**4]
    assert len(small) == 1_224
    instances = 0
    for g in random.Random(34).sample(small, 12):
        count, wrong = _mismatches(g)
        assert wrong == [], g
        instances += count
    assert instances == 27_072


def test_failing_3x3_graphs_match_the_brute_force_guarantee():
    """Every graph up to 3x3 on which some X-vertex can go unmatched, picked
    by trying every option set. No blockade-only vertex occurs this small,
    but 527 of these graphs also hold guaranteed X-vertices, 710 in all,
    which the whole-side verdicts of c1 never check one by one."""
    graphs, guaranteed = [], []
    for g in harness.all_graphs(3, 3):
        deficient = [i for i in range(g.x_count) if _deficient(g, i)]
        if len(deficient) < g.x_count:
            graphs.append(g)
            guaranteed.append(len(deficient))
    assert len(graphs) == 627
    assert (sum(k > 0 for k in guaranteed), sum(guaranteed)) == (527, 710)
    instances = 0
    for g in graphs:
        count, wrong = _mismatches(g)
        assert wrong == [], g
        instances += count
    assert instances == 89_240


def test_guarded_4x5_matches_the_brute_force_guarantee():
    g = guarded_4x5()
    assert _blockade_only(g, 0)
    assert _mismatches(g) == (1_152, [])


@pytest.mark.parametrize(
    "change, wrong",
    [
        # guarded_4x5's blockade-only x0 reported strandable
        (
            lambda r: replace(r, blockade=None) if r.vertex == Vertex(Side.X, 0) else r,
            (Vertex(Side.X, 0), False),
        ),
        # a strandable vertex reported guaranteed
        (
            lambda r: replace(r, blockade=(Vertex(Side.X, 1),)) if r.strandable else r,
            (Vertex(Side.Y, 3), True),
        ),
    ],
    ids=["blockade-only-strandable", "strandable-guaranteed"],
)
def test_the_check_catches_a_wrong_report(monkeypatch, change, wrong):
    real = analysis.vertex_report
    monkeypatch.setattr(analysis, "vertex_report", lambda g, v: change(real(g, v)))
    assert wrong in _mismatches(guarded_4x5())[1]
