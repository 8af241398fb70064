"""Preference instances: validation, counting, enumeration, sampling."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from conftest import X, Y, biclique, graph_with_instance, graphs, path4
from satmatch import prefs
from satmatch.errors import InstanceCapExceeded, PreferenceError
from satmatch.graph import BipartiteGraph, Side, Vertex
from satmatch.harness import all_graphs
from satmatch.prefs import (
    PreferenceInstance,
    enumerate_all,
    instance_count,
    sample_uniform,
    validate,
)

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)


def _neighborhoods(g: BipartiteGraph) -> dict[Vertex, list[Vertex]]:
    """A valid raw table: every vertex ranks its neighbors ascending."""
    return {
        v: [Vertex(s.opposite, u) for u in g.adjacency(s)[v.index]]
        for s in Side
        for v in g.vertices(s)
    }


def _canonical(g: BipartiteGraph) -> PreferenceInstance:
    """Every list ascending by index."""
    return PreferenceInstance(g.x_adj, g.y_adj)


def test_rank_and_list_accessors():
    inst = PreferenceInstance([(1, 0), (1,)], [(0,), (1, 0)])
    assert inst.x_lists == ((1, 0), (1,))
    assert inst.y_lists[1] == (1, 0)
    assert inst.x_rank == ({1: 0, 0: 1}, {1: 0})
    assert inst.y_rank[1] == {1: 0, 0: 1}


def test_instance_equality():
    a = _canonical(path4())
    b = PreferenceInstance([(0, 1), (1,)], [(0,), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != PreferenceInstance([(1, 0), (1,)], [(0,), (0, 1)])


def test_validate_accepts_a_full_table():
    g = path4()
    table = {
        X(0): [Y(1), Y(0)],
        X(1): [Y(1)],
        Y(0): [X(0)],
        Y(1): [X(0), X(1)],
    }
    inst = validate(g, table)
    assert inst.x_lists == ((1, 0), (1,))
    assert inst.y_lists == ((0,), (0, 1))


def test_validate_unknown_vertex_key():
    g = path4()
    table = _neighborhoods(g)
    table[X(5)] = []
    with pytest.raises(PreferenceError, match="unknown vertex"):
        validate(g, table)


def test_validate_missing_list():
    g = path4()
    table = _neighborhoods(g)
    del table[Y(0)]
    with pytest.raises(PreferenceError, match="no preference list"):
        validate(g, table)


def test_validate_non_vertex_entry():
    g = path4()
    table = _neighborhoods(g)
    table[X(1)] = ["y1"]
    with pytest.raises(PreferenceError, match="not a vertex"):
        validate(g, table)


def test_validate_same_side_entry():
    g = path4()
    table = _neighborhoods(g)
    table[X(0)] = [X(1), Y(0)]
    with pytest.raises(PreferenceError, match="same-side"):
        validate(g, table)


def test_validate_duplicate_entry():
    g = path4()
    table = _neighborhoods(g)
    table[X(0)] = [Y(0), Y(0)]
    with pytest.raises(PreferenceError, match="twice"):
        validate(g, table)


def test_validate_non_adjacent_entry():
    g = path4()
    table = _neighborhoods(g)
    table[X(1)] = [Y(0), Y(1)]
    with pytest.raises(PreferenceError, match="not adjacent"):
        validate(g, table)


def test_validate_omitted_neighbor():
    g = path4()
    table = _neighborhoods(g)
    table[X(0)] = [Y(1)]
    with pytest.raises(PreferenceError, match="omits neighbor"):
        validate(g, table)


def test_validate_reports_a_stranger_before_an_omission():
    # y2 is a stranger to x0 at entry 1, and x0's neighbor y0 is missing
    g = BipartiteGraph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
    table = _neighborhoods(g)
    table[X(0)] = [Y(1), Y(2)]
    with pytest.raises(PreferenceError, match="not adjacent") as caught:
        validate(g, table)
    assert "y[2]" in str(caught.value)
    assert caught.value.vertex == X(0)
    assert caught.value.entry == 1


def test_validate_uses_describe_for_names():
    g = path4()
    table = _neighborhoods(g)
    del table[X(1)]
    names = {X(0): "ann", X(1): "bob", Y(0): "sew", Y(1): "cut"}
    with pytest.raises(PreferenceError, match="bob"):
        validate(g, table, describe=names.get)


def test_instance_count_values():
    assert instance_count(path4()) == 4  # 2! * 1! * 1! * 2!
    assert instance_count(biclique(2, 2)) == 16  # (2!)^4
    assert instance_count(biclique(3, 3)) == 46656  # (3!)^6
    assert instance_count(BipartiteGraph(2, 2, [])) == 1


def test_enumerate_all_is_exhaustive_and_distinct():
    g = path4()
    seen = list(enumerate_all(g))
    assert len(seen) == 4
    assert len(set(seen)) == 4
    # lexicographic in permutation pools: the all-ascending instance first
    assert seen[0] == _canonical(g)


def test_enumerated_instances_equal_freshly_built_ones():
    """The shared rank tables rank exactly as an instance built from scratch,
    on every graph up to 2x3 and on K(3,2)."""
    for g in [*all_graphs(2, 3), biclique(3, 2)]:
        for inst in enumerate_all(g):
            fresh = PreferenceInstance(inst.x_lists, inst.y_lists)
            assert inst == fresh
            assert (inst.x_rank, inst.y_rank) == (fresh.x_rank, fresh.y_rank)


def test_enumerate_all_respects_cap():
    with pytest.raises(InstanceCapExceeded) as exc:
        list(enumerate_all(biclique(3, 3), cap=100))
    assert exc.value.count == 46656
    assert exc.value.cap == 100


def test_sample_uniform_is_deterministic():
    g = biclique(3, 3)
    assert sample_uniform(g, 7) == sample_uniform(g, 7)
    assert len({sample_uniform(g, s) for s in range(20)}) > 1


def test_sample_uniform_draws_the_bits_of_one_shuffle_per_row():
    """The release gate's pinned counts depend on these bits: one
    random.Random(seed) shuffling every row, X rows first."""
    rng = random.Random(20)
    lengths = set()
    for _ in range(300):
        a, b = rng.randint(0, 5), rng.randint(0, 5)
        density = rng.choice((0.2, 0.5, 0.9))
        g = BipartiteGraph(
            a, b, [(i, j) for i in range(a) for j in range(b) if rng.random() < density]
        )
        seed = rng.getrandbits(32)
        reference = random.Random(seed)
        rows = []
        for row in g.x_adj + g.y_adj:
            lst = list(row)
            reference.shuffle(lst)
            rows.append(tuple(lst))
            lengths.add(min(len(row), 2))
        assert sample_uniform(g, seed) == PreferenceInstance(rows[:a], rows[a:])
    assert lengths == {0, 1, 2}


@given(graph_with_instance())
@PROPERTY_SETTINGS
def test_sampled_lists_are_neighborhood_permutations(pair):
    g, inst = pair
    for side, rows in ((Side.X, inst.x_lists), (Side.Y, inst.y_lists)):
        adj = g.adjacency(side)
        assert len(rows) == g.side_count(side)
        for i, row in enumerate(rows):
            assert tuple(sorted(row)) == adj[i]


@given(graphs(max_x=2, max_y=2))
@PROPERTY_SETTINGS
def test_enumeration_matches_the_count(g: BipartiteGraph):
    seen = set(enumerate_all(g))
    assert len(seen) == instance_count(g)
