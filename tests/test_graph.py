"""Graph and matching primitives."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import X, Y, graphs, lopsided_blocks, path4, twin_blocks
from satmatch.errors import InputError
from satmatch.graph import BipartiteGraph, Matching, Side, Vertex

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)


def test_side_opposite():
    assert Side.X.opposite is Side.Y
    assert Side.Y.opposite is Side.X


def test_vertex_repr_reads_like_a_name():
    assert repr(X(3)) == "x[3]"
    assert repr(Y(0)) == "y[0]"


def test_construction_sorts_and_freezes_adjacency():
    g = BipartiteGraph(2, 3, [(1, 2), (0, 1), (0, 0), (1, 0)])
    assert g.x_adj == ((0, 1), (0, 2))
    assert g.y_adj == ((0, 1), (0,), (1,))
    assert list(g.edges()) == [(0, 0), (0, 1), (1, 0), (1, 2)]


@pytest.mark.parametrize(
    "x_count,y_count,edges",
    [
        (-1, 2, []),
        (2, -1, []),
        (2, 2, [(2, 0)]),
        (2, 2, [(0, 2)]),
        (2, 2, [(-1, 0)]),
        (2, 2, [(0, 0), (0, 0)]),
        (1, 1, [("0", 0)]),
        (1, 1, [(0, None)]),
        (1, 1, [(0.0, 0)]),
        (1.0, 1, []),
    ],
)
def test_construction_rejects_bad_input(x_count, y_count, edges):
    with pytest.raises(InputError):
        BipartiteGraph(x_count, y_count, edges)


def test_degree_and_neighborhood():
    g = path4()
    assert g.adjacency(Side.X) == ((0, 1), (1,))
    assert g.adjacency(Side.Y) == ((0,), (0, 1))


def test_check_vertex_bounds():
    g = path4()
    with pytest.raises(InputError):
        g.check_vertex(X(2))
    with pytest.raises(InputError):
        g.check_vertex(Y(-1))


def test_vertices_iterates_in_index_order():
    g = path4()
    assert list(g.vertices(Side.X)) == [X(0), X(1)]
    assert list(g.vertices(Side.Y)) == [Y(0), Y(1)]


def test_components_of_twin_blocks():
    pieces = twin_blocks().components()
    assert len(pieces) == 2
    assert pieces[0].x_vertices == (0, 1)
    assert pieces[0].y_vertices == (0, 1)
    assert pieces[1].x_vertices == (2, 3)
    assert pieces[1].y_vertices == (2, 3)
    for piece in pieces:
        assert piece.edge_count == 4
        assert piece.biclique
        assert piece.balanced


def test_components_pick_up_isolated_vertices():
    g = BipartiteGraph(2, 2, [(0, 0)])
    pieces = g.components()
    # x0-y0 edge, then isolated x1, then isolated y1
    assert [(p.x_vertices, p.y_vertices, p.edge_count) for p in pieces] == [
        ((0,), (0,), 1),
        ((1,), (), 0),
        ((), (1,), 0),
    ]
    # a lone vertex is a biclique (no cross-side pair is missing), never balanced
    assert [(p.biclique, p.balanced) for p in pieces] == [
        (True, True),
        (True, False),
        (True, False),
    ]


def test_a_component_missing_an_edge_is_no_biclique():
    (piece,) = path4().components()
    assert piece.edge_count == 3
    assert not piece.biclique
    assert piece.balanced


def test_connectivity():
    assert path4().is_connected()
    assert not twin_blocks().is_connected()
    assert not lopsided_blocks().is_connected()
    assert not BipartiteGraph(0, 0, []).is_connected()
    assert not BipartiteGraph(1, 1, []).is_connected()


def test_graph_equality_ignores_edge_order():
    a = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
    b = BipartiteGraph(2, 2, [(1, 1), (0, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != BipartiteGraph(2, 2, [(0, 0)])


def test_matching_from_pairs_and_accessors():
    m = Matching((0, None), 2)  # the single pair (0, 0)
    assert m.partner(X(0)) == Y(0)
    assert m.partner(Y(0)) == X(0)
    assert m.partner(X(1)) is None
    assert m.pairs() == [(0, 0)]
    assert m.size == 1
    assert m.matched_set(Side.X) == frozenset({0})
    assert m.matched_set(Side.Y) == frozenset({0})


def test_matching_equality():
    a = Matching([0, 1], 2)
    b = Matching((0, 1), 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != Matching((1, 0), 2)
    assert a != Matching((0, 1), 3)  # same pairs, one more Y-vertex


def test_matching_derives_the_y_side():
    m = Matching((2, None, 0), 4)
    assert m.partner_of_y == (2, None, 0, None)
    assert m.partner(Y(2)) == X(0)
    assert m.partner(Y(3)) is None
    assert m.matched_set(Side.Y) == frozenset({0, 2})


@pytest.mark.parametrize(
    "partner_of_x, y_count, message",
    [
        ((0, 0), 2, "Y-vertex 0 is the partner of both X-vertex 0 and X-vertex 1"),
        ((None, 2), 2, r"X-vertex 1: partner 2 out of range \[0, 2\)"),
        ((-1, None), 2, r"X-vertex 0: partner -1 out of range \[0, 2\)"),
        ((0,), 0, r"X-vertex 0: partner 0 out of range \[0, 0\)"),
    ],
)
def test_matching_rejects_a_partner_out_of_range_or_taken_twice(
    partner_of_x, y_count, message
):
    with pytest.raises(InputError, match=message):
        Matching(partner_of_x, y_count)


def test_empty_matching():
    m = Matching((None, None), 2)
    assert m.size == 0
    assert m.pairs() == []
    assert m.matched_set(Side.X) == frozenset()


@given(graphs())
@PROPERTY_SETTINGS
def test_components_partition_the_graph(g: BipartiteGraph):
    pieces = g.components()
    seen_x = [i for p in pieces for i in p.x_vertices]
    seen_y = [j for p in pieces for j in p.y_vertices]
    assert sorted(seen_x) == list(range(g.x_count))
    assert sorted(seen_y) == list(range(g.y_count))
    assert sum(p.edge_count for p in pieces) == len(list(g.edges()))
    for p in pieces:
        inside = set(p.y_vertices)
        assert all(set(g.x_adj[i]) <= inside for i in p.x_vertices)
        assert p.edge_count == sum(len(g.x_adj[i]) for i in p.x_vertices)
        assert p.biclique == all(set(g.x_adj[i]) == inside for i in p.x_vertices)
        assert p.balanced == (len(p.x_vertices) == len(p.y_vertices))
