"""Deferred acceptance, stability scans, exhaustive enumeration."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from conftest import (
    X,
    Y,
    biclique,
    graph_with_instance,
    graphs,
    guarded_4x5,
    lopsided_blocks,
    path4,
    path5,
    twin_blocks,
)
from satmatch import harness, prefs
from satmatch.engine import (
    DEFAULT_NODE_CAP,
    BlockingPair,
    deferred_acceptance,
    enumerate_stable,
    find_blocking_pairs,
    is_stable,
    maximum_matching,
)
from satmatch.errors import InputError, SearchCapExceeded
from satmatch.graph import BipartiteGraph, Matching, Side
from satmatch.prefs import PreferenceInstance

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def _square_cycle() -> tuple[BipartiteGraph, PreferenceInstance]:
    """K_{2,2} with opposed tastes: two stable matchings."""
    g = biclique(2, 2)
    inst = PreferenceInstance([(0, 1), (1, 0)], [(1, 0), (0, 1)])
    return g, inst


def test_deferred_acceptance_x_proposing():
    g, inst = _square_cycle()
    m = deferred_acceptance(g, inst, proposing=Side.X)
    assert m.pairs() == [(0, 0), (1, 1)]


def test_deferred_acceptance_y_proposing():
    g, inst = _square_cycle()
    m = deferred_acceptance(g, inst, proposing=Side.Y)
    assert m.pairs() == [(0, 1), (1, 0)]


def test_deferred_acceptance_leaves_contested_vertex_out():
    # x0 and x1 both want only y1; y1 keeps its favorite
    g = path4()
    inst = PreferenceInstance([(1, 0), (1,)], [(0,), (0, 1)])
    m = deferred_acceptance(g, inst)
    assert m.pairs() == [(0, 1)]
    assert m.partner(X(1)) is None
    assert m.partner(Y(0)) is None


def test_shape_mismatch_is_rejected():
    g, inst = _square_cycle()
    with pytest.raises(InputError):
        deferred_acceptance(path5(), inst)  # 2+3 graph, 2+2 instance
    with pytest.raises(InputError):
        find_blocking_pairs(g, inst, Matching.from_pairs(path5(), []))


def test_blocking_pairs_of_the_empty_matching():
    g, inst = _square_cycle()
    found = find_blocking_pairs(g, inst, Matching.from_pairs(g, []))
    # every edge blocks, reported in ascending index order
    assert found == [
        BlockingPair(X(0), Y(0)),
        BlockingPair(X(0), Y(1)),
        BlockingPair(X(1), Y(0)),
        BlockingPair(X(1), Y(1)),
    ]
    assert not is_stable(g, inst, Matching.from_pairs(g, []))


def test_blocking_pair_needs_both_sides_willing():
    g = biclique(2, 2)
    inst = PreferenceInstance([(0, 1), (0, 1)], [(0, 1), (0, 1)])
    swapped = Matching.from_pairs(g, [(0, 1), (1, 0)])
    # x0 and y0 both rank each other first: the only block
    assert find_blocking_pairs(g, inst, swapped) == [BlockingPair(X(0), Y(0))]
    assert not is_stable(g, inst, swapped)
    assert is_stable(g, inst, Matching.from_pairs(g, [(0, 0), (1, 1)]))


def test_enumerate_stable_finds_both_square_matchings():
    g, inst = _square_cycle()
    ss = enumerate_stable(g, inst)
    assert len(ss.matchings) == 2
    assert [m.pairs() for m in ss.matchings] == [
        [(0, 0), (1, 1)],
        [(0, 1), (1, 0)],
    ]
    assert ss.matched_x == frozenset({0, 1})
    assert ss.matched_y == frozenset({0, 1})
    assert ss.x_saturating and ss.y_saturating and ss.perfect


def test_enumerate_stable_unique_matching():
    g = biclique(2, 2)
    inst = PreferenceInstance(g.x_adj, g.y_adj)  # everyone agrees
    ss = enumerate_stable(g, inst)
    assert [m.pairs() for m in ss.matchings] == [[(0, 0), (1, 1)]]


def test_enumerate_stable_on_empty_graph():
    g = BipartiteGraph(0, 0, [])
    ss = enumerate_stable(g, PreferenceInstance([], []))
    assert len(ss.matchings) == 1
    assert ss.matchings[0].size == 0
    assert ss.perfect  # vacuously


def test_enumerate_stable_without_edges():
    g = BipartiteGraph(2, 2, [])
    ss = enumerate_stable(g, PreferenceInstance([(), ()], [(), ()]))
    assert len(ss.matchings) == 1
    assert ss.matched_x == frozenset()
    assert not ss.x_saturating


def test_search_cap():
    g = biclique(3, 3)
    inst = PreferenceInstance(g.x_adj, g.y_adj)
    with pytest.raises(SearchCapExceeded) as exc:
        enumerate_stable(g, inst, cap=3)
    assert exc.value.cap == 3
    assert exc.value.visited > 3
    assert exc.value.estimate == 1  # both optimal matchings coincide


def test_maximum_matching_sizes():
    assert maximum_matching(path4()).size == 2
    assert maximum_matching(biclique(3, 3)).size == 3
    assert maximum_matching(twin_blocks()).size == 4
    assert maximum_matching(lopsided_blocks()).size == 2
    assert maximum_matching(guarded_4x5()).size == 4
    assert maximum_matching(BipartiteGraph(2, 2, [])).size == 0


def test_maximum_matching_on_a_long_staircase():
    # x_i takes y_{i-1} or y_i: each search walks the chain back to x_0
    n = 2000
    edges = [(i, i) for i in range(n)] + [(i, i - 1) for i in range(1, n)]
    assert maximum_matching(BipartiteGraph(n, n, edges)).size == n


@given(graphs(max_x=4, max_y=12))
@PROPERTY_SETTINGS
def test_maximum_matching_size_matches_brute_force(g: BipartiteGraph):
    best = max(m.size for m in harness.all_matchings(g))
    assert maximum_matching(g).size == best


def test_maximum_matching_is_a_valid_matching():
    m = maximum_matching(guarded_4x5())
    Matching.from_pairs(guarded_4x5(), m.pairs())  # validates edges + injectivity


def test_enumerator_equals_oracle_exhaustively():
    """Every graph up to 2x2, every preference instance: exact agreement."""
    for g in harness.all_graphs(2, 2):
        for inst in prefs.enumerate_all(g):
            mine = {m.partner_of_x for m in enumerate_stable(g, inst).matchings}
            oracle = {
                m.partner_of_x for m in harness.naive_stable_matchings(g, inst)
            }
            assert mine == oracle, (g, inst)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("density", [0.25, 0.5, 0.75, 1.0])
def test_enumerator_equals_oracle_on_larger_graphs(n, density):
    rng = random.Random(f"oracle/{n}/{density}")
    for _ in range(3):
        edges = [(i, j) for i in range(n) for j in range(n) if rng.random() < density]
        g = BipartiteGraph(n, n, edges)
        inst = prefs.sample_uniform(g, rng.randrange(1 << 30))
        mine = [m.partner_of_x for m in enumerate_stable(g, inst).matchings]
        oracle = {m.partner_of_x for m in harness.naive_stable_matchings(g, inst)}
        assert len(mine) == len(oracle)
        assert set(mine) == oracle, (g, inst)


def test_complete_random_20x20_within_the_default_cap():
    g = biclique(20, 20)
    inst = prefs.sample_uniform(g, 4)
    ss = enumerate_stable(g, inst)
    assert ss.nodes_visited <= DEFAULT_NODE_CAP
    assert len(ss.matchings) > 1
    for side in (Side.X, Side.Y):
        assert deferred_acceptance(g, inst, side) in ss.matchings
    assert all(is_stable(g, inst, m) for m in ss.matchings)


def test_cyclic_latin_lists_every_shift():
    # x_i ranks y_{i+d} d-th and y_j ranks x_{j-d} (n-1-d)-th, indices mod n
    n = 12
    inst = PreferenceInstance(
        [[(i + d) % n for d in range(n)] for i in range(n)],
        [[(j + 1 + p) % n for p in range(n)] for j in range(n)],
    )
    ss = enumerate_stable(biclique(n, n), inst)
    assert [m.partner_of_x for m in ss.matchings] == [
        tuple((i + k) % n for i in range(n)) for k in range(n)
    ]


@given(graph_with_instance())
@PROPERTY_SETTINGS
def test_enumerator_equals_oracle(pair):
    g, inst = pair
    mine = {m.partner_of_x for m in enumerate_stable(g, inst).matchings}
    oracle = {m.partner_of_x for m in harness.naive_stable_matchings(g, inst)}
    assert mine == oracle


@given(graph_with_instance())
@PROPERTY_SETTINGS
def test_enumerated_matchings_are_stable_and_share_matched_sets(pair):
    g, inst = pair
    ss = enumerate_stable(g, inst)
    assert ss.matchings
    for m in ss.matchings:
        assert is_stable(g, inst, m)
        assert find_blocking_pairs(g, inst, m) == []
        assert m.matched_set(Side.X) == ss.matched_x
        assert m.matched_set(Side.Y) == ss.matched_y


@given(graph_with_instance())
@PROPERTY_SETTINGS
def test_proposing_side_optimality(pair):
    g, inst = pair
    ss = enumerate_stable(g, inst)
    for side in (Side.X, Side.Y):
        da = deferred_acceptance(g, inst, proposing=side)
        assert da.partner_of_x in {m.partner_of_x for m in ss.matchings}
        for m in ss.matchings:
            for v in g.vertices(side):
                # the proposing side never does better in any other member
                assert not prefs.prefers(inst, v, m.partner(v), da.partner(v))


@given(graph_with_instance())
@PROPERTY_SETTINGS
def test_stable_size_never_exceeds_maximum(pair):
    g, inst = pair
    best = maximum_matching(g).size
    for m in enumerate_stable(g, inst).matchings:
        assert m.size <= best
