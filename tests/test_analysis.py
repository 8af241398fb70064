"""Saturation verdicts, certificates, and adversarial constructions."""

from __future__ import annotations

import dataclasses
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    X,
    Y,
    balanced_graphs,
    biclique,
    graphs,
    guarded_4x5,
    hub_4x4,
    lopsided_blocks,
    mixed_3x4,
    path4,
    path5,
    twin_blocks,
)
from satmatch import analysis, cli, engine, harness
from satmatch.analysis import (
    adversarial_instance,
    component_perfect_verdict,
    connected_perfect_verdict,
    guarantee,
    perfect_verdict,
    saturation_verdict,
    vertex_report,
)
from satmatch.errors import EngineInvariantError, InputError
from satmatch.graph import BipartiteGraph, Side, Vertex
from satmatch.prefs import sample_uniform

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def _strands(graph: BipartiteGraph, v: Vertex, instance) -> bool:
    """True iff v is unmatched in every stable matching of the instance."""
    ss = engine.enumerate_stable(graph, instance)
    return all(m.partner(v) is None for m in ss.matchings)


def _stranding(graph: BipartiteGraph, v: Vertex):
    return adversarial_instance(graph, vertex_report(graph, v))


def _competitors(graph: BipartiteGraph, v: Vertex, options) -> set[int]:
    """N(options) minus v, as opposite-of-options indices."""
    coadj = graph.adjacency(v.side.opposite)
    return {c for u in options for c in coadj[u.index]} - {v.index}


# -- cheap certificates --------------------------------------------------------


def _bound(graph: BipartiteGraph, v: Vertex) -> tuple[bool, int, int]:
    r = vertex_report(graph, v)
    return r.bounded, r.options, r.claimants


def test_claimant_bound_values():
    g = path4()
    assert _bound(g, X(0)) == (True, 2, 2)
    assert _bound(g, X(1)) == (False, 1, 2)
    assert _bound(g, Y(0)) == (False, 1, 2)
    assert _bound(g, Y(1)) == (True, 2, 2)


def test_claimant_bound_on_isolated_vertex():
    g = BipartiteGraph(2, 1, [(0, 0)])
    assert _bound(g, X(1)) == (True, 0, 0)


def test_dedicated_neighbor_picks_lowest_index():
    g = mixed_3x4()
    assert vertex_report(g, X(2)).dedicated == Y(2)
    assert vertex_report(g, X(0)).dedicated is None
    # two pendants: the lower index wins
    h = BipartiteGraph(1, 2, [(0, 0), (0, 1)])
    assert vertex_report(h, X(0)).dedicated == Y(0)


def test_blockade_values_on_path4():
    g = path4()
    # y0 has no competitor for x0: a one-option blockade
    assert vertex_report(g, X(0)).blockade == (Y(0),)
    # x1's single option y1 can be absorbed by x0: no blockade
    assert vertex_report(g, X(1)).blockade is None


def test_blockade_on_mixed_3x4():
    g = mixed_3x4()
    # y0 and y3 have x1 as their only competitor against x0
    assert vertex_report(g, X(0)).blockade == (Y(0), Y(3))
    assert vertex_report(g, X(1)).blockade == (Y(0), Y(3))
    assert vertex_report(g, X(2)).blockade == (Y(2),)


def test_blockade_beyond_the_cheap_certificates():
    """Neither certificate fires for x0, yet x0 is guaranteed a partner:
    its options y0 and y1 share x1 as their only other suitor."""
    g = guarded_4x5()
    r = vertex_report(g, X(0))
    assert not r.bounded
    assert r.dedicated is None
    assert r.blockade == (Y(0), Y(1))
    assert r.satisfied


def test_blockade_is_genuinely_deficient_on_fixtures():
    for g, v in [
        (path4(), X(0)),
        (mixed_3x4(), X(0)),
        (mixed_3x4(), X(2)),
        (guarded_4x5(), X(0)),
    ]:
        s = vertex_report(g, v).blockade
        assert len(_competitors(g, v, s)) < len(s)


# -- per-vertex reports and verdicts ------------------------------------------


def _champions(g: BipartiteGraph, v: Vertex) -> tuple[int, ...]:
    """v's champions: `_absorb` with no competitor free, as
    `adversarial_instance` runs it."""
    row = g.adjacency(v.side)[v.index]
    placed, found = analysis._absorb(g.masks(v.side.opposite), row, 1 << v.index, 0)
    assert placed, (g, v)
    return found


def test_vertex_report_fields():
    r = vertex_report(path4(), X(1))
    assert r.vertex == X(1)
    assert r.options == 1
    assert r.claimants == 2
    assert not r.bounded
    assert r.dedicated is None
    assert r.blockade is None
    assert not r.satisfied
    assert not r.isolated
    assert _champions(path4(), X(1)) == (0,)  # x0 absorbs y1, x1's only option


def test_champions_align_with_the_options():
    # x2's options y0 and y1 are absorbed by x0 and x1, one each
    g = BipartiteGraph(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)])
    assert _champions(g, X(2)) == (1, 0)
    # a satisfied vertex carries a blockade, and its options cannot be
    # absorbed: the loop returns the options reachable from the one left over
    assert vertex_report(path4(), X(0)).blockade == (Y(0),)
    assert analysis._absorb(path4().masks(Side.Y), (0,), 1, 0) == (False, (0,))
    # x2's options y0 and y1 share their only competitor x0: y1 is left over
    # and is the last of the stuck options
    g = BipartiteGraph(3, 2, [(0, 0), (0, 1), (2, 0), (2, 1)])
    assert analysis._absorb(g.masks(Side.Y), (0, 1), 1 << 2, 0) == (False, (0, 1))
    # a report that wrongly calls either vertex strandable gets no instance
    for graph, v, option in ((path4(), X(0), 0), (g, X(2), 1)):
        forged = dataclasses.replace(vertex_report(graph, v), blockade=None)
        with pytest.raises(
            EngineInvariantError,
            match=rf"^x\[{v.index}\] was reported strandable, but option "
            rf"y\[{option}\] cannot be absorbed$",
        ):
            analysis.adversarial_instance(graph, forged)


def test_isolated_vertex_report():
    g = BipartiteGraph(2, 1, [(0, 0)])
    r = vertex_report(g, X(1))
    assert r.isolated
    assert r.bounded  # vacuously: 0 claimants, 0 options
    assert r.blockade is None
    assert not r.satisfied


def test_saturation_verdict_on_path4():
    v = saturation_verdict(path4(), Side.X)
    assert not v.holds
    assert [r.satisfied for r in v.reports] == [True, False]
    failing = v.first_strandable
    assert failing.vertex == X(1)
    instance = adversarial_instance(path4(), failing)
    assert instance.x_lists == ((1, 0), (1,))
    assert instance.y_lists == ((0,), (0, 1))
    assert _strands(path4(), X(1), instance)


def test_saturation_verdict_on_path5():
    # y2 is dedicated to x1, so the extra leaf repairs the path4 failure
    v = saturation_verdict(path5(), Side.X)
    assert v.holds
    assert v.first_strandable is None
    assert v.reports[1].dedicated == Y(2)


def test_saturation_verdict_holds_on_mixed_3x4():
    v = saturation_verdict(mixed_3x4(), Side.X)
    assert v.holds
    assert all(r.satisfied for r in v.reports)


def test_saturation_verdict_fails_on_hub():
    # x1 and x3 both depend entirely on the hub y1
    v = saturation_verdict(hub_4x4(), Side.X)
    assert not v.holds
    assert [r.vertex for r in v.reports if not r.satisfied] == [X(1), X(3)]
    failing = v.first_strandable
    assert failing.vertex == X(1)
    assert _strands(hub_4x4(), X(1), adversarial_instance(hub_4x4(), failing))


def test_saturation_verdict_mirrors_sides():
    # path4 seen from Y: y0's only option x0 can be absorbed by y1
    v = saturation_verdict(path4(), Side.Y)
    assert not v.holds
    assert [r.satisfied for r in v.reports] == [False, True]
    failing = v.first_strandable
    assert failing.vertex == Y(0)
    instance = adversarial_instance(path4(), failing)
    assert instance.x_lists == ((1, 0), (1,))
    assert instance.y_lists == ((0,), (0, 1))
    assert _strands(path4(), Y(0), instance)


def test_saturation_verdict_with_only_isolated_failures():
    g = BipartiteGraph(2, 1, [(0, 0)])
    v = saturation_verdict(g, Side.X)
    assert not v.holds
    assert v.first_strandable is None  # nothing to construct: x1 has no edges
    assert [r.isolated for r in v.reports] == [False, True]


def test_saturation_verdict_on_guarded_graph():
    """Regression: a guarantee that neither cheap certificate explains."""
    v = saturation_verdict(guarded_4x5(), Side.X)
    assert v.holds
    r = v.reports[0]
    assert (not r.bounded) and r.dedicated is None and r.satisfied


def test_k33_verdict_backed_by_sampling():
    g = biclique(3, 3)
    assert saturation_verdict(g, Side.X).holds
    for seed in range(300):
        ss = engine.enumerate_stable(g, sample_uniform(g, seed))
        assert ss.x_saturating


# -- adversarial construction --------------------------------------------------


def test_adversarial_refuses_isolated():
    g = BipartiteGraph(2, 1, [(0, 0)])
    with pytest.raises(InputError, match="isolated"):
        _stranding(g, X(1))


def test_adversarial_refuses_bounded():
    with pytest.raises(InputError, match="2 claimants fit within its 2 options"):
        _stranding(path4(), X(0))


def test_adversarial_refuses_dedicated():
    with pytest.raises(InputError, match=r"y\[2\] has degree 1, dedicated"):
        _stranding(mixed_3x4(), X(2))


def test_adversarial_refuses_blockade():
    with pytest.raises(
        InputError, match=r"y\[0\], y\[1\] have only 1 competitor besides it"
    ):
        _stranding(guarded_4x5(), X(0))


def test_guarantee_wording_is_singular_for_one():
    g = BipartiteGraph(2, 1, [(0, 0)])
    assert guarantee(g, vertex_report(g, X(0)), repr) == (
        "x[0] is guaranteed a partner in every stable matching: its "
        "1 claimant fits within its 1 option"
    )
    with pytest.raises(ValueError, match="can be stranded"):
        guarantee(path4(), vertex_report(path4(), X(1)), repr)


def test_adversarial_rejects_unknown_vertex():
    with pytest.raises(InputError, match="out of range"):
        _stranding(path4(), X(9))


def test_adversarial_instance_on_path4():
    inst = _stranding(path4(), X(1))
    assert inst.x_lists == ((1, 0), (1,))
    assert inst.y_lists == ((0,), (0, 1))
    ss = engine.enumerate_stable(path4(), inst)
    assert [m.pairs() for m in ss.matchings] == [[(0, 1)]]


def test_adversarial_instance_structure_on_hub():
    g = hub_4x4()
    inst = _stranding(g, X(1))
    options = set(g.x_adj[1])
    for u in options:
        row = inst.y_lists[u]
        # the target is ranked dead last by each of its options
        assert row[-1] == 1
        # option and champion rank each other first
        champion = row[0]
        assert inst.x_lists[champion][0] == u
    # claimants put options of the target before everything else
    claimants = {i for u in options for i in g.y_adj[u]} - {1}
    for i in claimants:
        row = inst.x_lists[i]
        inside = [k for k, u in enumerate(row) if u in options]
        outside = [k for k, u in enumerate(row) if u not in options]
        assert not outside or not inside or max(inside) < min(outside)
    # bystanders keep plain ascending lists
    for u in set(range(g.y_count)) - options:
        assert inst.y_lists[u] == g.y_adj[u]
    assert _strands(g, X(1), inst)


def test_adversarial_instance_strands_every_hub_dependent():
    g = hub_4x4()
    for target in (X(1), X(3)):
        assert _strands(g, target, _stranding(g, target))


def test_adversarial_instance_with_shared_options():
    # x0 and x1 compete for {y0, y1}; each can still be stranded
    g = BipartiteGraph(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)])
    for i in range(3):
        target = X(i)
        assert vertex_report(g, target).blockade is None
        assert _strands(g, target, _stranding(g, target))


def test_adversarial_instance_for_y_side_target():
    g = lopsided_blocks()
    inst = _stranding(g, Y(0))
    assert _strands(g, Y(0), inst)


def _recording_searches(monkeypatch) -> list[tuple[int, bool]]:
    """Patch analysis.augment to record (start option, found) per search."""
    searches = []
    real = analysis.augment

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        searches.append((args[2], result[0]))
        return result

    monkeypatch.setattr(analysis, "augment", recording)
    return searches


def test_each_built_instance_runs_one_plain_ascending_pass(monkeypatch, capsys):
    """vertex_report places X(1)'s one option on a free competitor, X(0),
    so the only searches for that strandable vertex are its instance's
    plain pass: one successful search per option, in ascending order."""
    searches = _recording_searches(monkeypatch)
    market = os.path.join(os.path.dirname(__file__), os.pardir, "markets", "path4.yaml")
    assert cli.main(["adversary", market, "--target", "x2"]) == 0
    capsys.readouterr()
    assert searches == [(1, True)]  # x2 is X(1); its one option is y2, Y(1)
    searches.clear()
    failing = saturation_verdict(path4(), Side.X).first_strandable
    assert failing.vertex == X(1)
    adversarial_instance(path4(), failing)
    # x0's first option has no competitor at all; then X(1)'s instance pass
    assert searches == [(0, False), (1, True)]


def test_a_strandable_vertex_with_free_competitors_runs_no_search(monkeypatch):
    """x2 is neither bounded (3 claimants, 2 options) nor dedicated, and
    each of its options finds a free competitor, so deciding it searches
    nothing; plain ascending search would run once per option."""
    searches = _recording_searches(monkeypatch)
    g = BipartiteGraph(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)])
    r = vertex_report(g, X(2))
    assert not r.bounded and r.dedicated is None
    assert not r.satisfied and not r.isolated
    assert searches == []
    adversarial_instance(g, r)
    assert searches == [(0, True), (1, True)]


def test_a_report_wrongly_marked_strandable_builds_no_instance(monkeypatch, capsys):
    """path4's x0 has a blockade; a report that says otherwise must not
    yield an instance, since no instance can strand x0. `adversary` exits
    4 on it, an internal failure."""
    forged = dataclasses.replace(
        vertex_report(path4(), X(0)), dedicated=None, blockade=None
    )
    with pytest.raises(EngineInvariantError, match="reported strandable"):
        adversarial_instance(path4(), forged)

    monkeypatch.setattr(analysis, "vertex_report", lambda graph, v: forged)
    market = os.path.join(os.path.dirname(__file__), os.pardir, "markets", "path4.yaml")
    assert cli.main(["adversary", market, "--target", "x1"]) == 4
    assert capsys.readouterr().err.startswith("error: internal: EngineInvariantError: ")


# -- references that never run the search --------------------------------------


def _random_graphs(count: int, max_side: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        a, b = rng.randint(2, max_side), rng.randint(2, max_side)
        p = rng.choice((0.4, 0.5, 0.6, 0.7))
        cells = [(i, j) for i in range(a) for j in range(b)]
        yield BipartiteGraph(a, b, [e for e in cells if rng.random() < p])


def _reference_blockade(g: BipartiteGraph, v: Vertex):
    """The options that competitors cannot absorb, found by brute force.

    For the smallest k such that no matching of v's first k+1 options
    (ascending) to competitors other than v covers all of them, the options
    of that prefix that some maximum matching leaves unmatched; None when
    every prefix can be absorbed.
    """
    row = g.adjacency(v.side)[v.index]
    coadj = g.adjacency(v.side.opposite)
    competitors = [c for c in range(len(g.adjacency(v.side))) if c != v.index]
    at = {c: k for k, c in enumerate(competitors)}
    for k in range(len(row)):
        prefix = row[: k + 1]
        sub = BipartiteGraph(
            len(prefix),
            len(competitors),
            [(i, at[c]) for i, u in enumerate(prefix) for c in coadj[u] if c in at],
        )
        matchings = [m.partner_of_x for m in harness.all_matchings(sub)]
        fewest_left = min(m.count(None) for m in matchings)
        if fewest_left > 0:
            maximum = [m for m in matchings if m.count(None) == fewest_left]
            return tuple(
                Vertex(v.side.opposite, u)
                for i, u in enumerate(prefix)
                if any(m[i] is None for m in maximum)
            )
    return None


def test_blockade_matches_the_brute_force_prefix_reference():
    kinds = {"bounded": 0, "dedicated": 0, "other satisfied": 0, "strandable": 0}
    for g in _random_graphs(300, 6, seed=10):
        for side in (Side.X, Side.Y):
            for v in g.vertices(side):
                r = vertex_report(g, v)
                expected = _reference_blockade(g, v)
                assert r.blockade == expected, (g, v)
                assert r.satisfied == (expected is not None)
                if r.isolated:
                    continue
                kind = (
                    "bounded" if r.bounded
                    else "dedicated" if r.dedicated is not None
                    else "other satisfied" if r.satisfied
                    else "strandable"
                )
                kinds[kind] += 1
    assert min(kinds.values()) >= 10, kinds  # every kind of vertex is exercised


def _plain_kuhn(g: BipartiteGraph, v: Vertex):
    """Champions from plain ascending augmenting paths avoiding v, or None."""
    coadj = g.adjacency(v.side.opposite)
    owner: dict[int, int] = {}

    def place(u: int, seen: set[int]) -> bool:
        for c in coadj[u]:
            if c != v.index and c not in seen:
                seen.add(c)
                if c not in owner or place(owner[c], seen):
                    owner[c] = u
                    return True
        return False

    row = g.adjacency(v.side)[v.index]
    if not all(place(u, set()) for u in row):
        return None
    absorbed_by = {u: c for c, u in owner.items()}
    return tuple(absorbed_by[u] for u in row)


def test_champions_are_those_of_plain_ascending_kuhn():
    strandable = 0
    for g in _random_graphs(300, 8, seed=9):
        for side in (Side.X, Side.Y):
            for r in saturation_verdict(g, side).reports:
                if not r.satisfied and not r.isolated:
                    champions = _champions(g, r.vertex)
                    assert champions == _plain_kuhn(g, r.vertex), (g, r.vertex)
                    strandable += 1
    assert strandable >= 200


def test_certificates_hold_on_graphs_wider_than_one_machine_word():
    """Masks of 65 to 200 bits: every report's certificate rechecked with
    plain set arithmetic. Claimants are |N(N(v))|; a blockade lies inside
    N(v) and outnumbers its competitors; a strandable vertex's champions
    are distinct competitors other than v, each adjacent to its option."""
    rng = random.Random(2020)
    kinds = {"other satisfied": 0, "strandable": 0}
    for _ in range(12):
        # each x_i takes 1-4 options near its own position on the Y side, so
        # neighbors share competitors and some blockades need the search
        a, b = rng.randint(65, 200), rng.randint(65, 200)
        edges = set()
        for i in range(a):
            for _ in range(rng.randint(1, 4)):
                edges.add((i, min(b - 1, max(0, i * b // a + rng.randint(-2, 2)))))
        g = BipartiteGraph(a, b, sorted(edges))
        for side in (Side.X, Side.Y):
            adj, coadj = g.adjacency(side), g.adjacency(side.opposite)
            for r in saturation_verdict(g, side).reports:
                v = r.vertex.index
                row = set(adj[v])
                assert r.claimants == len({c for u in row for c in coadj[u]})
                if r.blockade is not None:
                    s = {u.index for u in r.blockade}
                    assert all(u.side is side.opposite for u in r.blockade)
                    assert s <= row
                    assert len({c for u in s for c in coadj[u]} - {v}) < len(s)
                    if not r.bounded and r.dedicated is None:
                        kinds["other satisfied"] += 1
                elif r.strandable:
                    champions = _champions(g, r.vertex)
                    assert len(set(champions)) == len(row)
                    assert v not in champions
                    assert all(c in coadj[u] for u, c in zip(adj[v], champions))
                    kinds["strandable"] += 1
    assert min(kinds.values()) >= 10, kinds


def test_a_biclique_side_costs_one_failing_search(monkeypatch):
    """Every vertex of K(n,n) is bounded, so its options take free
    competitors and only the last one, with none left, searches. All n
    vertices of a side are twins, so that search runs once per side."""
    calls = []
    real = analysis.augment

    def counting(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result[0])
        return result

    monkeypatch.setattr(analysis, "augment", counting)
    n = 30
    verdict = saturation_verdict(biclique(n, n), Side.X)
    assert verdict.holds
    assert calls == [False]
    assert [r.vertex.index for r in verdict.reports] == list(range(n))


# -- hypothesis cross-checks ---------------------------------------------------


@given(graphs())
@PROPERTY_SETTINGS
def test_reports_are_internally_consistent(g: BipartiteGraph):
    for side in (Side.X, Side.Y):
        verdict = saturation_verdict(g, side)
        coadj = g.adjacency(side.opposite)
        for r in verdict.reports:
            row = g.adjacency(side)[r.vertex.index]
            assert r.options == len(row)
            assert r.claimants == len({c for u in row for c in coadj[u]})
            lone = [u for u in row if len(coadj[u]) == 1]
            assert r.dedicated == (
                Vertex(side.opposite, min(lone)) if lone else None
            )
            if not r.satisfied and not r.isolated:
                # an absorbing matching: one distinct competitor per option
                champions = _champions(g, r.vertex)
                assert len(set(champions)) == len(row)
                assert r.vertex.index not in champions
                assert all(c in coadj[u] for u, c in zip(row, champions))
            if r.isolated:
                assert not r.satisfied
            elif r.bounded or r.dedicated is not None:
                assert r.satisfied


@given(graphs())
@PROPERTY_SETTINGS
def test_blockades_are_deficient_option_subsets(g: BipartiteGraph):
    for side in (Side.X, Side.Y):
        for r in saturation_verdict(g, side).reports:
            if r.blockade is None:
                continue
            s = r.blockade
            row = g.adjacency(side)[r.vertex.index]
            assert {u.index for u in s} <= set(row)
            assert list(s) == sorted(s)
            assert len(_competitors(g, r.vertex, s)) < len(s)


def _has_deficient_option_set(g: BipartiteGraph, v: Vertex) -> bool:
    """Brute force over every S ⊆ N(v): is |N(S) minus v| < |S| for one?"""
    options = g.adjacency(v.side)[v.index]
    coadj = g.adjacency(v.side.opposite)
    others = [sum(1 << c for c in coadj[u] if c != v.index) for u in options]
    union = [0] * (1 << len(options))  # competitor bitmask of each subset
    for s in range(1, len(union)):
        lowest = (s & -s).bit_length() - 1
        union[s] = union[s & (s - 1)] | others[lowest]
        if union[s].bit_count() < s.bit_count():
            return True
    return False


@given(graphs(max_x=12, max_y=12))
@PROPERTY_SETTINGS
def test_satisfied_exactly_when_some_option_set_is_deficient(g: BipartiteGraph):
    for side in (Side.X, Side.Y):
        for r in saturation_verdict(g, side).reports:
            assert r.satisfied == _has_deficient_option_set(g, r.vertex)
            if r.blockade is not None:
                competitors = _competitors(g, r.vertex, r.blockade)
                assert len(competitors) < len(r.blockade)


@given(graphs(max_x=3, max_y=3))
@PROPERTY_SETTINGS
def test_unsatisfied_vertices_can_all_be_stranded(g: BipartiteGraph):
    for side in (Side.X, Side.Y):
        for r in saturation_verdict(g, side).reports:
            if r.satisfied or r.isolated:
                with pytest.raises(InputError):
                    adversarial_instance(g, r)
            else:
                inst = adversarial_instance(g, r)
                assert _strands(g, r.vertex, inst)


@given(graphs(max_x=3, max_y=3))
@PROPERTY_SETTINGS
def test_counterexample_instance_strands_its_vertex(g: BipartiteGraph):
    failing = saturation_verdict(g, Side.X).first_strandable
    if failing is None:
        return
    assert _strands(g, failing.vertex, adversarial_instance(g, failing))


@st.composite
def twin_graphs(draw, max_x: int = 9, max_y: int = 9) -> BipartiteGraph:
    """A blow-up of a small base graph, with a few edges flipped: vertices
    that copy one base vertex are twins unless a flip tells them apart."""
    base = draw(graphs(max_x=3, max_y=3))
    if base.x_count == 0 or base.y_count == 0:
        return base
    a = draw(st.integers(base.x_count, max_x))
    b = draw(st.integers(base.y_count, max_y))
    copy_x = draw(st.lists(st.integers(0, base.x_count - 1), min_size=a, max_size=a))
    copy_y = draw(st.lists(st.integers(0, base.y_count - 1), min_size=b, max_size=b))
    cells = {(i, j) for i in range(a) for j in range(b)}
    flips = set(draw(st.lists(st.sampled_from(sorted(cells)), max_size=3)))
    masks = base.masks(Side.X)
    edges = {(i, j) for i, j in cells if masks[copy_x[i]] >> copy_y[j] & 1}
    return BipartiteGraph(a, b, sorted(edges ^ flips))


def _assert_shared_equals_unshared(g: BipartiteGraph) -> None:
    """The shared verdict's reports against one `vertex_report` per vertex:
    every field `analyze` prints is compared, the kept matching of a
    strandable vertex (left out of equality) is certified."""
    for side in (Side.X, Side.Y):
        shared = saturation_verdict(g, side).reports
        assert [r.vertex for r in shared] == list(g.vertices(side))
        for r in shared:
            alone = vertex_report(g, r.vertex)
            assert r == alone  # so are bounded, satisfied, isolated, strandable
            assert (r.absorbers is None) == (not r.strandable)
            analysis.certify_absorption(g, r)


@given(twin_graphs())
@PROPERTY_SETTINGS
def test_twins_share_a_report_equal_to_their_own_search(g: BipartiteGraph):
    _assert_shared_equals_unshared(g)


@given(graphs())
@PROPERTY_SETTINGS
def test_shared_verdict_equals_the_unshared_search_up_to_4x4(g: BipartiteGraph):
    _assert_shared_equals_unshared(g)


def test_saturation_holds_agrees_with_the_verdict_on_every_graph_up_to_3x3():
    for g in harness.all_graphs(3, 3):
        for side in (Side.X, Side.Y):
            assert analysis.saturation_holds(g, side) == saturation_verdict(g, side).holds


def test_a_twin_copies_its_representatives_matching_with_the_two_swapped():
    # x0 and x1 are twins on {y0, y1}; x2 competes for y0 only. x0's search
    # lets x1 absorb an option, which x1's copy must give to x0 instead.
    g = BipartiteGraph(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)])
    first, twin, _ = saturation_verdict(g, Side.X).reports
    assert first.strandable and 1 in first.absorbers
    assert twin.absorbers == tuple(0 if c == 1 else c for c in first.absorbers)
    for r in (first, twin):
        analysis.certify_absorption(g, r)
    plain_copy = dataclasses.replace(twin, absorbers=first.absorbers)
    with pytest.raises(EngineInvariantError, match=r"to x\[1\] itself"):
        analysis.certify_absorption(g, plain_copy)


@pytest.mark.parametrize(
    "absorbers, message",
    [
        (None, r"x\[0\] was reported strandable without an absorber for each option"),
        ((1,), "without an absorber for each option"),
        ((0, 1), r"gives option y\[0\] to x\[0\] itself"),
        ((2, 2), r"gives option y\[1\] to x\[2\], which is not adjacent to it"),
        ((-1, 1), r"gives option y\[0\] to x\[-1\], which is not adjacent to it"),
        ((1, 1), r"gives x\[1\] two options"),
    ],
)
def test_certify_absorption_rejects_a_bad_matching(absorbers, message):
    # x0's options y0 and y1: x1 is adjacent to both, x2 to y0 only
    g = BipartiteGraph(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)])
    report = vertex_report(g, X(0))
    analysis.certify_absorption(g, report)
    with pytest.raises(EngineInvariantError, match=message):
        analysis.certify_absorption(g, dataclasses.replace(report, absorbers=absorbers))


# -- perfect-matching verdicts -------------------------------------------------


def test_connected_verdict_on_bicliques():
    assert connected_perfect_verdict(biclique(2, 2)) == (True, None)
    assert connected_perfect_verdict(biclique(1, 1)) == (True, None)


def test_connected_verdict_reports_lowest_missing_edge():
    g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
    assert connected_perfect_verdict(g) == (False, (X(1), Y(1)))
    h = BipartiteGraph(2, 2, [(0, 1), (1, 0), (1, 1)])
    assert connected_perfect_verdict(h) == (False, (X(0), Y(0)))


def test_connected_verdict_input_errors():
    with pytest.raises(InputError, match="equal nonempty sides"):
        connected_perfect_verdict(path5())
    with pytest.raises(InputError, match="equal nonempty sides"):
        connected_perfect_verdict(BipartiteGraph(0, 0, []))
    with pytest.raises(InputError, match="connected"):
        connected_perfect_verdict(twin_blocks())


def test_component_verdict_on_twin_blocks():
    v = component_perfect_verdict(twin_blocks())
    assert v.holds
    assert len(v.components) == 2
    assert all(s.biclique and s.balanced for s in v.components)


def test_component_verdict_on_lopsided_blocks():
    """Globally balanced, but the pieces are 1x2 and 2x1: always a leftover."""
    v = component_perfect_verdict(lopsided_blocks())
    assert not v.holds
    assert [(s.x_vertices, s.y_vertices) for s in v.components] == [
        ((0,), (0, 1)),
        ((1, 2), (2,)),
    ]
    assert all(s.biclique and not s.balanced for s in v.components)


def test_component_verdict_on_non_biclique_piece():
    v = component_perfect_verdict(path4())
    assert not v.holds
    assert len(v.components) == 1
    assert not v.components[0].biclique
    assert v.components[0].balanced


def test_component_verdict_rejects_unbalanced_sides():
    with pytest.raises(InputError, match="sides must balance"):
        component_perfect_verdict(path5())


def test_perfect_verdict_combines_sides():
    v = perfect_verdict(twin_blocks())
    assert v.holds and v.x.holds and v.y.holds
    w = perfect_verdict(hub_4x4())
    assert not w.holds
    u = perfect_verdict(path5())  # unbalanced is fine here: Y can't saturate
    assert not u.holds


@given(balanced_graphs())
@PROPERTY_SETTINGS
def test_perfect_verdict_agrees_with_component_verdict(g: BipartiteGraph):
    assert perfect_verdict(g).holds == component_perfect_verdict(g).holds
