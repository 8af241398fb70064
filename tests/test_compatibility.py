"""Class-structured markets and the coverage verdict."""

from __future__ import annotations

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from conftest import X, class_members, class_slots
from itertools import product

from satmatch import analysis, engine, harness, prefs
from satmatch.compatibility import (
    ClassSizes,
    CompatibilityMarket,
    coverage_verdict,
    deficient_witness,
    exclusive_members,
    induced_graph,
    verdict_consistency,
)
from satmatch.errors import InputError, MarketFormatError
from satmatch.graph import BipartiteGraph, Side
from satmatch.market_io import CompatibilityBlock, MarketFile, parse_market

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


# -- the exclusive-member rule and the induced graph, against the scans -------
# `exclusive_members` and the slot lists of `induced_graph` replaced the
# scans below, which stay here as references.


def _scanned_exclusive(memberships, n_classes: int) -> dict[int, int]:
    """Each class with an exclusive member, mapped to the lowest index of
    one: one scan of every membership per class."""
    found = {}
    for c in range(n_classes):
        for i, m in enumerate(memberships):
            if m == {c}:
                found[c] = i
                break
    return found


def _scanned_witness(market: CompatibilityMarket, coverage) -> int | None:
    for c, sizes in enumerate(coverage.classes):
        if not sizes.covered:
            for i, m in enumerate(market.x_membership):
                if m == {c}:
                    return i
    return None


def _scanned_graph(market: CompatibilityMarket) -> BipartiteGraph:
    edges = [
        (i, j)
        for i, classes in enumerate(market.x_membership)
        for j, c in enumerate(market.y_class)
        if c in classes
    ]
    return BipartiteGraph(len(market.x_membership), len(market.y_class), edges)


def _scanned_family(max_classes: int, max_side: int):
    """all_compatibility_markets as (classes, memberships, slots), with a
    containment test per class for the exclusive-member rule."""
    for n in range(1, max_classes + 1):
        subsets = [
            frozenset(c for c in range(n) if mask >> c & 1) for mask in range(1, 1 << n)
        ]
        singletons = [frozenset((c,)) for c in range(n)]
        for a in range(n, max_side + 1):
            for membership in product(subsets, repeat=a):
                if any(s not in membership for s in singletons):
                    continue
                for b in range(max_side + 1):
                    for y_class in product(range(n), repeat=b):
                        yield n, membership, y_class


def _check_against_scans(market: CompatibilityMarket) -> None:
    exclusive = exclusive_members(market.x_membership)
    assert exclusive == _scanned_exclusive(market.x_membership, market.n_classes)
    assert len(exclusive) == market.n_classes
    coverage = coverage_verdict(market)
    assert deficient_witness(market, coverage) == _scanned_witness(market, coverage)
    assert induced_graph(market) == _scanned_graph(market)


def test_class_rules_agree_with_their_scans_on_every_tiny_market():
    family = list(harness.all_compatibility_markets(2, 3))
    assert [(m.n_classes, m.x_membership, m.y_class) for m in family] == list(
        _scanned_family(2, 3)
    )
    for market in family:
        _check_against_scans(market)


@st.composite
def class_markets(draw, max_classes: int = 6, max_side: int = 10):
    """A valid market: one exclusive member per class, further members of
    one class or of several, in a drawn order, and slots that may leave a
    class with none."""
    n = draw(st.integers(1, max_classes))
    extra = draw(
        st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), max_size=max_side - n)
    )
    membership = draw(st.permutations([frozenset({c}) for c in range(n)] + extra))
    y_class = draw(st.lists(st.integers(0, n - 1), max_size=max_side))
    return CompatibilityMarket.build(n, membership, y_class)


@given(class_markets())
@PROPERTY_SETTINGS
def test_class_rules_agree_with_their_scans(market):
    _check_against_scans(market)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), max_size=10),
        )
    )
)
@PROPERTY_SETTINGS
def test_every_owner_of_the_rule_refuses_the_same_memberships(case):
    # memberships that may leave a class without an exclusive member: the
    # constructor, the file reader and MarketFile refuse the first such class
    n, memberships = case
    exclusive = exclusive_members(memberships)
    assert exclusive == _scanned_exclusive(memberships, n)
    missing = [c for c in range(n) if c not in exclusive]
    classes = [f"c{c}" for c in range(n)]
    xs = [f"x{i}" for i in range(len(memberships))]
    block = CompatibilityBlock(
        classes, {x: [classes[c] for c in sorted(m)] for x, m in zip(xs, memberships)}, {}
    )
    fields = dict(schema_version="1", x_names=xs, y_names=[], edges=[])
    text = yaml.safe_dump({**fields, "compatibility": vars(block)}, sort_keys=False)
    if not missing:
        CompatibilityMarket.build(n, memberships, [])
        assert parse_market(text).compatibility == block
        assert MarketFile(**fields, compatibility=block).compatibility == block
        return
    with pytest.raises(InputError, match=f"^class {missing[0]} has no exclusive"):
        CompatibilityMarket.build(n, memberships, [])
    with pytest.raises(MarketFormatError) as exc:
        parse_market(text)
    assert exc.value.message.startswith(
        f"compatibility: class {classes[missing[0]]!r} has no exclusive member"
    )
    assert exc.value.path == ("compatibility", "classes", missing[0])
    with pytest.raises(MarketFormatError) as built:
        MarketFile(**fields, compatibility=block)
    assert (built.value.message, built.value.path) == (
        exc.value.message,
        exc.value.path,
    )
