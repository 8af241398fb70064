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
    misreport_y_optimal,
    path4,
    path5,
    twin_blocks,
)
from satmatch import engine, harness, prefs
from satmatch.engine import (
    DEFAULT_NODE_CAP,
    BlockingPair,
    StableSet,
    augment,
    deferred_acceptance,
    enumerate_stable,
    find_blocking_pairs,
    is_stable,
    maximum_matching,
)
from satmatch.errors import EngineInvariantError, InputError, SearchCapExceeded
from satmatch.graph import BipartiteGraph, Matching, Side
from satmatch.prefs import UNMATCHED_RANK, PreferenceInstance

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


def _order_free_proposals(lists, rank, partner) -> int:
    """Proposals of deferred acceptance in any order: each proposer reaches
    its final partner, or the end of its list when it ends unmatched."""
    return sum(
        len(lst) if q < 0 else rank[i][q] + 1
        for i, (lst, q) in enumerate(zip(lists, partner))
    )


def test_proposal_count_does_not_depend_on_proposer_order():
    rng = random.Random(1962)
    singles = 0
    for _ in range(400):
        a, b = rng.randint(0, 7), rng.randint(0, 7)
        edges = [(i, j) for i in range(a) for j in range(b) if rng.random() < 0.6]
        g = BipartiteGraph(a, b, edges)
        inst = prefs.sample_uniform(g, rng.getrandbits(32))
        px, _, x_proposals = engine._propose(inst.x_lists, inst.y_rank, b)
        py, _, y_proposals = engine._propose(inst.y_lists, inst.x_rank, a)
        assert x_proposals == _order_free_proposals(inst.x_lists, inst.x_rank, px)
        assert y_proposals == _order_free_proposals(inst.y_lists, inst.y_rank, py)
        ss = enumerate_stable(g, inst)
        if len(ss.matchings) == 1:
            # M0 = Mz, so the walk scans no list entry
            singles += 1
            assert ss.nodes_visited == x_proposals + y_proposals
    assert singles > 100


def test_shape_mismatch_is_rejected():
    g, inst = _square_cycle()
    with pytest.raises(InputError):
        deferred_acceptance(path5(), inst)  # 2+3 graph, 2+2 instance
    with pytest.raises(InputError):
        find_blocking_pairs(g, inst, Matching((None, None), 3))


def test_blocking_pairs_of_the_empty_matching():
    g, inst = _square_cycle()
    found = find_blocking_pairs(g, inst, Matching((None, None), 2))
    # every edge blocks, reported in ascending index order
    assert found == [
        BlockingPair(X(0), Y(0)),
        BlockingPair(X(0), Y(1)),
        BlockingPair(X(1), Y(0)),
        BlockingPair(X(1), Y(1)),
    ]
    assert not is_stable(g, inst, Matching((None, None), 2))


def test_blocking_pair_needs_both_sides_willing():
    g = biclique(2, 2)
    inst = PreferenceInstance([(0, 1), (0, 1)], [(0, 1), (0, 1)])
    swapped = Matching((1, 0), 2)
    # x0 and y0 both rank each other first: the only block
    assert find_blocking_pairs(g, inst, swapped) == [BlockingPair(X(0), Y(0))]
    assert not is_stable(g, inst, swapped)
    assert is_stable(g, inst, Matching((0, 1), 2))


def test_a_pair_that_is_not_an_edge_is_unstable():
    # x0 ranks y1, but the graph has only the edge x0 — y0; no edge blocks
    g = BipartiteGraph(1, 2, [(0, 0)])
    inst = PreferenceInstance([(1, 0)], [(0,), (0,)])
    off_graph = Matching([1], 2)
    assert find_blocking_pairs(g, inst, off_graph) == []
    assert not is_stable(g, inst, off_graph)
    assert is_stable(g, inst, Matching([0], 2))


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


def test_invariant_covers_the_returned_members(monkeypatch):
    # corrupt the second member as it is built: the check must read the
    # Matching objects returned, not the partner vectors walked
    real = engine._to_partner_tuple
    calls = []

    def corrupt_second(row):
        calls.append(row)
        built = real(row)
        return (None,) * len(built) if len(calls) == 2 else built

    monkeypatch.setattr(engine, "_to_partner_tuple", corrupt_second)
    g, inst = _square_cycle()
    with pytest.raises(EngineInvariantError, match="matched sets differ"):
        enumerate_stable(g, inst)


def test_enumerate_stable_builds_one_matching_per_member(monkeypatch):
    real = engine._to_partner_tuple
    calls = []

    def counting(row):
        calls.append(row)
        return real(row)

    monkeypatch.setattr(engine, "_to_partner_tuple", counting)
    # two disjoint opposed squares: the bottom of the 2x2 lattice is
    # reached from both of its parents, and must still be built only once
    g = BipartiteGraph(
        4, 4, [(x, y) for x in range(4) for y in range(4) if x // 2 == y // 2]
    )
    inst = PreferenceInstance(
        [(0, 1), (1, 0), (2, 3), (3, 2)], [(1, 0), (0, 1), (3, 2), (2, 3)]
    )
    ss = enumerate_stable(g, inst)
    assert len(ss.matchings) == 4
    assert len(calls) == len(set(ss.matchings)) == 4


def test_always_unmatched_scans_every_member():
    g = biclique(2, 2)
    alone = Matching((0, None), 2)
    both = Matching((0, 1), 2)
    ss = StableSet(g, (alone, both), frozenset({0}), frozenset({0}), 0)
    assert not ss.always_unmatched(X(1))  # matched in the second member only
    assert not ss.always_unmatched(Y(0))
    single = StableSet(g, (alone,), frozenset({0}), frozenset({0}), 0)
    assert single.always_unmatched(X(1))
    assert single.always_unmatched(Y(1))
    assert not single.always_unmatched(X(0))


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


def test_search_cap_inside_the_lattice_walk():
    """The cyclic 2x2 market: both deferred-acceptance runs make 4
    proposals, and the walk scans 2 more list entries on its way from the
    X-optimal to the Y-optimal matching. A cap of 4 or 5 is passed inside
    the walk, and the error carries the bound on the stable matchings."""
    g = biclique(2, 2)
    inst = PreferenceInstance([(0, 1), (1, 0)], [(1, 0), (0, 1)])
    with pytest.raises(SearchCapExceeded) as exc:
        enumerate_stable(g, inst, cap=3)
    assert (exc.value.visited, exc.value.estimate) == (4, 4)
    for cap in (4, 5):
        with pytest.raises(SearchCapExceeded) as exc:
            enumerate_stable(g, inst, cap=cap)
        assert (exc.value.visited, exc.value.cap, exc.value.estimate) == (6, cap, 4)
    assert len(enumerate_stable(g, inst, cap=6).matchings) == 2


def test_a_walk_that_passes_a_single_vertex_is_an_engine_bug(monkeypatch):
    """x0 ranks y0 then y1, and y0 and y1 each rank only x0: x0-y0 is the
    one stable matching. With the Y-optimal run misreported as x0-y1, the
    scan from y0 reaches y1, single in that matching; the walk raises
    instead of cutting the scan."""
    g = BipartiteGraph(1, 2, [(0, 0), (0, 1)])
    inst = PreferenceInstance([(0, 1)], [(0,), (0,)])
    assert len(enumerate_stable(g, inst).matchings) == 1
    misreport_y_optimal(monkeypatch, [1])
    with pytest.raises(
        EngineInvariantError,
        match=r"^x\[0\] passes y\[1\], single in a stable matching, before its "
        r"Y-optimal partner — engine bug$",
    ):
        enumerate_stable(g, inst)


def _mask(indices) -> int:
    return sum(1 << r for r in set(indices))


def _held_before_search(rng: random.Random, lefts: int, rights: int):
    """Random adjacency, as lists and as masks, with every left vertex but
    the last placed by augment; the last one, which holds nothing, is where
    a search starts."""
    adj = [
        tuple(rng.sample(range(rights), rng.randint(0, rights))) for _ in range(lefts)
    ]
    masks = [_mask(row) for row in adj]
    owner: dict[int, int] = {}
    for u in range(lefts - 1):
        augment(masks, owner, u, 0)
    return adj, masks, owner


def test_augment_never_uses_a_pre_seeded_right_vertex():
    rng = random.Random(15)
    for _ in range(500):
        rights = rng.randint(1, 6)
        adj, masks, owner = _held_before_search(rng, rng.randint(1, 6), rights)
        blocked = set(rng.sample(range(rights), rng.randint(0, rights)))
        before = dict(owner)
        found, seen = augment(masks, owner, len(adj) - 1, _mask(blocked))
        if found:
            assert len(owner) == len(before) + 1
            assert all(owner.get(r) == before.get(r) for r in blocked)
            (taken,) = owner.keys() - before.keys()
            assert seen >> taken & 1  # the free vertex it took was seen


def test_a_failed_augment_leaves_owner_and_reports_what_it_reached():
    rng = random.Random(1955)
    failures = 0
    for _ in range(500):
        rights = rng.randint(1, 6)
        adj, masks, owner = _held_before_search(rng, rng.randint(1, 6), rights)
        blocked = set(rng.sample(range(rights), rng.randint(0, rights)))
        before = dict(owner)
        found, seen = augment(masks, owner, len(adj) - 1, _mask(blocked))
        if found:
            continue
        failures += 1
        assert owner == before
        # right vertices alternating-reachable from the start, avoiding `blocked`
        reach: set[int] = set()
        stack = [len(adj) - 1]
        while stack:
            for r in adj[stack.pop()]:
                if r not in blocked and r not in reach:
                    assert r in owner  # a free one would have ended the search
                    reach.add(r)
                    stack.append(owner[r])
        assert seen == _mask(blocked | reach)
    assert failures > 100


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
    g = guarded_4x5()
    m = maximum_matching(g)
    pairs = m.pairs()
    assert all(j in g.x_adj[i] for i, j in pairs)  # every pair is an edge
    assert len({j for _, j in pairs}) == len(pairs)  # no Y-vertex taken twice
    assert all(m.partner_of_y[j] == i for i, j in pairs)


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
        ranks = inst.x_rank if side is Side.X else inst.y_rank

        def rank(v, partner):
            return UNMATCHED_RANK if partner is None else ranks[v.index][partner.index]

        for m in ss.matchings:
            for v in g.vertices(side):
                # the proposing side never does better in any other member
                assert rank(v, m.partner(v)) >= rank(v, da.partner(v))


@given(graph_with_instance())
@PROPERTY_SETTINGS
def test_stable_size_never_exceeds_maximum(pair):
    g, inst = pair
    best = maximum_matching(g).size
    for m in enumerate_stable(g, inst).matchings:
        assert m.size <= best
