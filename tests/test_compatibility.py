"""Class-structured markets and the coverage verdict."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import X, class_members, class_slots
from satmatch import analysis, engine, harness, prefs
from satmatch.compatibility import (
    ClassSizes,
    CompatibilityMarket,
    coverage_verdict,
    deficient_witness,
    induced_graph,
    verdict_consistency,
)
from satmatch.errors import InputError
from satmatch.graph import BipartiteGraph, Side

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)


def _two_class_market() -> CompatibilityMarket:
    # x0 only in class 0, x1 in both, x2 only in class 1;
    # one slot per class: both classes have 2 members and 1 slot
    return CompatibilityMarket.build(2, [[0], [0, 1], [1]], [0, 1])


def _consistency(market: CompatibilityMarket):
    saturation = analysis.saturation_verdict(induced_graph(market), Side.X)
    return verdict_consistency(market, saturation.holds)


def test_build_normalizes_memberships():
    m = CompatibilityMarket.build(2, [[0, 0], [1, 0], [1]], [0, 1])
    assert m.x_membership == (frozenset({0}), frozenset({0, 1}), frozenset({1}))
    assert m.y_class == (0, 1)


def test_build_rejects_no_classes():
    with pytest.raises(InputError, match="at least one class"):
        CompatibilityMarket.build(0, [], [])


def test_build_rejects_empty_membership():
    with pytest.raises(InputError, match=r"x\[1\] belongs to no class"):
        CompatibilityMarket.build(1, [[0], []], [0])


def test_build_rejects_unknown_class():
    with pytest.raises(InputError, match=r"x\[0\] names unknown class 2"):
        CompatibilityMarket.build(2, [[2], [0], [1]], [0])
    with pytest.raises(InputError, match=r"y\[0\] names unknown class 5"):
        CompatibilityMarket.build(1, [[0]], [5])


def test_build_requires_an_exclusive_member_per_class():
    # class 1 is only ever held jointly with class 0
    with pytest.raises(InputError, match="class 1 has no exclusive member"):
        CompatibilityMarket.build(2, [[0], [0, 1]], [0, 1])


def test_member_and_slot_queries():
    # the counting reference the other tests check coverage_verdict against
    m = _two_class_market()
    assert class_members(m, 0) == [0, 1]
    assert class_members(m, 1) == [1, 2]
    assert class_slots(m, 0) == [0]
    assert class_slots(m, 1) == [1]


def test_induced_graph_edges():
    g = induced_graph(_two_class_market())
    assert g == BipartiteGraph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])


def test_induced_graph_with_empty_class_side():
    # a class with members but no slots induces isolated X-vertices
    m = CompatibilityMarket.build(2, [[0], [1]], [0])
    g = induced_graph(m)
    assert g == BipartiteGraph(2, 1, [(0, 0)])
    assert g.x_adj[1] == ()


def test_coverage_verdict_deficient():
    v = coverage_verdict(_two_class_market())
    assert not v.holds
    assert v.classes == (ClassSizes(2, 1), ClassSizes(2, 1))


def test_coverage_verdict_holds_with_enough_slots():
    m = CompatibilityMarket.build(2, [[0], [0, 1], [1]], [0, 0, 1, 1])
    v = coverage_verdict(m)
    assert v.holds
    assert v.classes == (ClassSizes(2, 2), ClassSizes(2, 2))


def _witness(market: CompatibilityMarket):
    return deficient_witness(market, coverage_verdict(market))


def test_deficient_witness_picks_lowest_exclusive_member():
    assert _witness(_two_class_market()) == 0
    covered = CompatibilityMarket.build(2, [[0], [0, 1], [1]], [0, 0, 1, 1])
    assert _witness(covered) is None
    # class 0 covered, class 1 deficient: witness is class 1's exclusive member
    m = CompatibilityMarket.build(2, [[0], [1], [1]], [0, 1])
    assert _witness(m) == 1
    # x1 belongs to deficient class 1 but also to class 0: x2 is the witness
    m = CompatibilityMarket.build(2, [[0], [0, 1], [1]], [0, 0, 1])
    assert _witness(m) == 2


def test_verdict_consistency_on_small_markets():
    report = _consistency(_two_class_market())
    assert not report.coverage.holds
    assert report.consistent  # both verdicts fail together
    covered = CompatibilityMarket.build(2, [[0], [0, 1], [1]], [0, 0, 1, 1])
    report = _consistency(covered)
    assert report.coverage.holds
    assert report.consistent


def test_consistency_over_every_tiny_market():
    for market in harness.all_compatibility_markets(2, 3):
        assert _consistency(market).consistent, market


def test_deficient_markets_freeze_out_their_witness():
    """For every tiny deficient market, the witness really is stranded:
    either it has no compatible slot at all, or the adversarial instance
    leaves it unmatched in every stable matching."""
    checked = 0
    for market in harness.all_compatibility_markets(2, 3):
        coverage = coverage_verdict(market)
        if coverage.holds:
            continue
        witness = deficient_witness(market, coverage)
        assert witness is not None
        g = induced_graph(market)
        report = analysis.vertex_report(g, X(witness))
        if report.isolated:
            continue  # isolated: stranded in every matching trivially
        inst = analysis.adversarial_instance(g, report)
        ss = engine.enumerate_stable(g, inst)
        assert all(m.partner(X(witness)) is None for m in ss.matchings)
        checked += 1
    assert checked > 0


@st.composite
def markets(draw) -> CompatibilityMarket:
    n = draw(st.integers(1, 3))
    extra = draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=3)
    )
    membership = [frozenset({c}) for c in range(n)] + [
        frozenset(m) for m in extra
    ]
    y_class = draw(st.lists(st.integers(0, n - 1), max_size=4))
    return CompatibilityMarket.build(n, membership, y_class)


@given(markets())
@PROPERTY_SETTINGS
def test_coverage_matches_classwise_counting(market: CompatibilityMarket):
    v = coverage_verdict(market)
    for c, sizes in enumerate(v.classes):
        assert sizes.members == len(class_members(market, c))
        assert sizes.slots == len(class_slots(market, c))
    assert v.holds == all(s.slots >= s.members for s in v.classes)
    assert _consistency(market).consistent


def test_coverage_counts_every_class_of_every_gate_market():
    # the coverage suite's own family: 18,702 markets
    for market in harness.all_compatibility_markets(3, 4):
        assert coverage_verdict(market).classes == tuple(
            ClassSizes(len(class_members(market, c)), len(class_slots(market, c)))
            for c in range(market.n_classes)
        )


@given(markets(), st.integers(0, 2**32 - 1))
@PROPERTY_SETTINGS
def test_positive_coverage_saturates_sampled_instances(market, seed):
    if not coverage_verdict(market).holds:
        return
    g = induced_graph(market)
    ss = engine.enumerate_stable(g, prefs.sample_uniform(g, seed))
    assert ss.x_saturating
