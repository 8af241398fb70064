"""The verification suites, including fault injection.

The suites exist to catch bugs in the analysis/engine layers, so the key
tests here break those layers on purpose (monkeypatching the module
attributes the suites call through) and assert the suites notice.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from conftest import biclique, class_members, class_slots, path4
from satmatch import analysis, compatibility, engine, harness, prefs
from satmatch.errors import GraphCountExceeded
from satmatch.graph import BipartiteGraph, Matching, Side, Vertex
from satmatch.prefs import PreferenceInstance


def test_all_graphs_counts():
    assert sum(1 for _ in harness.all_graphs(1, 1)) == 5
    assert sum(1 for _ in harness.all_graphs(2, 2)) == 31  # sum of 2^(a*b)
    sizes = {(g.x_count, g.y_count) for g in harness.all_graphs(2, 1)}
    assert sizes == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)}


def test_graph_count_matches_all_graphs():
    for m in range(4):
        assert harness.graph_count(m, m) == sum(1 for _ in harness.all_graphs(m, m))
    assert harness.graph_count(2, 1) == 1 + 1 + 1 + 2 + 1 + 4
    assert harness.graph_count(4, 4) <= harness.MAX_GRAPHS < harness.graph_count(5, 5)


def _stub_suites(
    monkeypatch, names=("saturation", "perfection", "coverage", "oracle")
) -> list[str]:
    """Replace the named suites with stubs that record their names and do
    no work."""
    ran: list[str] = []
    for name in names:

        def stub(*args, _name=name, **kwargs):
            ran.append(_name)
            return harness.SuiteResult(_name)

        monkeypatch.setattr(harness, f"{name}_suite", stub)
    return ran


def test_run_all_admits_max_side_4(monkeypatch):
    ran = _stub_suites(monkeypatch)
    results = harness.run_all(max_side=4)
    assert ran == ["saturation", "perfection", "coverage", "oracle"]
    assert all(r.passed for r in results)


def test_run_all_refuses_max_side_5_before_any_suite(monkeypatch):
    ran = _stub_suites(monkeypatch)
    with pytest.raises(GraphCountExceeded) as caught:
        harness.run_all(max_side=5)
    assert ran == []
    assert caught.value.count == 35_794_197  # 2^25 at 5x5 alone
    assert caught.value.cap == harness.MAX_GRAPHS
    assert "35794197 graphs" in str(caught.value)


def test_all_graphs_enumerates_every_edge_set():
    square = [g for g in harness.all_graphs(2, 2) if (g.x_count, g.y_count) == (2, 2)]
    assert len(square) == 16
    assert len(set(square)) == 16


def test_all_matchings_on_the_square():
    found = list(harness.all_matchings(biclique(2, 2)))
    assert len(found) == 7  # empty + 4 singles + 2 perfect
    assert len(set(found)) == 7
    sizes = sorted(m.size for m in found)
    assert sizes == [0, 1, 1, 1, 1, 2, 2]


def test_naive_oracle_on_the_square_cycle():
    g = biclique(2, 2)
    inst = PreferenceInstance([(0, 1), (1, 0)], [(1, 0), (0, 1)])
    found = harness.naive_stable_matchings(g, inst)
    assert {m.partner_of_x for m in found} == {(0, 1), (1, 0)}


def test_instances_for_exhaustive_path_ignores_extra():
    g = path4()
    extra = PreferenceInstance(g.x_adj, g.y_adj)
    got = list(harness.instances_for(g, cap=100, seeds=3, seed_base=1, extra=extra))
    assert len(got) == 4  # every instance once; extra not re-injected


def test_instances_for_sampled_path_appends_extra():
    g = biclique(3, 3)
    extra = PreferenceInstance(g.x_adj, g.y_adj)
    got = list(harness.instances_for(g, cap=10, seeds=3, seed_base=1, extra=extra))
    assert len(got) == 4
    assert got[-1] == extra
    no_extra = list(harness.instances_for(g, cap=10, seeds=3, seed_base=1))
    assert len(no_extra) == 3
    assert got[:3] == no_extra  # same seeds, same samples


def test_suite_result_accounting():
    r = harness.SuiteResult(name="demo", counts={"n": 1})
    assert r.passed
    r.violations["bad"] = ["one", "two"]
    assert not r.passed
    d = r.as_dict()
    assert d["name"] == "demo"
    assert not d["passed"]
    assert d["violations"] == {"bad": ["one", "two"]}


def test_saturation_suite_passes_at_small_scale():
    result = harness.saturation_suite(max_side=2, instance_cap=10**4, seeds=20)
    assert result.passed
    assert result.counts["graphs"] == 31
    assert result.counts["adversarial_targets"] > 0
    assert result.counts["instances"] > 0


def test_perfection_suite_passes_at_small_scale():
    result = harness.perfection_suite(max_n=2, instance_cap=10**4, seeds=20)
    assert result.passed
    assert result.counts["graphs"] == 19  # 2^0 + 2^1 + 2^4
    assert result.counts["connected_graphs"] > 0


def test_perfection_suite_confirms_negatives_with_starved_sampling():
    # With one sample per graph, random instances almost never include one
    # whose stable matchings all miss a vertex.  The suite must still confirm
    # its own negative verdicts, which only works because the constructed
    # stranding instance is injected into the sampled stream.
    result = harness.perfection_suite(max_n=2, instance_cap=1, seeds=1)
    assert result.passed


@pytest.mark.parametrize(
    "max_n, cap, sampled",
    [
        (3, harness.DEFAULT_GATE_CAP, 1),  # K(3,3) alone
        (2, 1, 9),  # the balanced graphs with more than one instance
        (2, 0, 19),  # every balanced graph
    ],
)
def test_perfect_counterexample_is_built_only_for_sampled_graphs(
    monkeypatch, max_n, cap, sampled
):
    built = []
    real = harness.perfect_counterexample

    def counting(graph):
        built.append(graph)
        return real(graph)

    monkeypatch.setattr(harness, "perfect_counterexample", counting)
    result = harness.perfection_suite(max_n=max_n, instance_cap=cap, seeds=1)
    assert result.passed
    assert len(built) == sampled
    assert all(prefs.instance_count(g) > cap for g in built)


def test_perfect_counterexample_pins_negative_verdicts():
    # A connected balanced 4x4 graph whose instance space (~4.3e8) dwarfs any
    # sampling budget: the verdict is negative, and the constructed instance
    # proves it without enumerating the space.
    g = BipartiteGraph(4, 4, [
        (0, 0), (0, 1), (0, 2), (0, 3),
        (1, 0), (1, 1), (1, 3),
        (2, 0), (2, 1), (2, 2), (2, 3),
        (3, 0), (3, 1), (3, 2),
    ])
    assert prefs.instance_count(g) > 10**4
    witness = harness.perfect_counterexample(g)
    assert witness is not None
    ss = engine.enumerate_stable(g, witness)
    assert not ss.perfect
    assert harness.perfect_counterexample(biclique(2, 2)) is None
    # fails only at isolated vertices: the ascending instance confirms it
    assert harness.perfect_counterexample(BipartiteGraph(1, 1, [])) is not None


def test_saturation_suite_builds_one_instance_per_target(monkeypatch):
    """Each strandable vertex's instance is built once, and the first of
    a graph also serves as its sampled extra; the verdict builds none."""
    built = []
    real = analysis.adversarial_instance

    def counting(graph, report):
        built.append(report.vertex)
        return real(graph, report)

    monkeypatch.setattr(harness.analysis, "adversarial_instance", counting)
    result = harness.saturation_suite(max_side=2, instance_cap=10**4, seeds=5)
    assert result.passed
    assert len(built) == result.counts["adversarial_targets"] == 10


def test_coverage_suite_passes_at_small_scale():
    result = harness.coverage_suite(max_classes=2, max_side=2, samples=10)
    assert result.passed
    assert result.counts["markets"] == 20
    assert result.counts["adversarial_confirmations"] > 0


def test_oracle_suite_passes_at_small_scale():
    result = harness.oracle_suite(pairs=50, max_side=3)
    assert result.passed
    assert result.counts["pairs"] == 50


def test_run_all_returns_the_four_suites():
    results = harness.run_all(max_side=1, instance_cap=10**4, seeds=2)
    assert [r.name for r in results] == [
        "saturation",
        "perfection",
        "coverage",
        "oracle",
    ]
    assert all(r.passed for r in results)


@pytest.mark.parametrize(
    "max_side, cap, sampled_graphs",
    [
        pytest.param(2, harness.DEFAULT_GATE_CAP, (0, 0), id="2"),
        pytest.param(3, harness.DEFAULT_GATE_CAP, (1, 1), id="3"),  # K(3,3)
        pytest.param(3, 100, (90, 88), id="3-cap100"),
    ],
)
def test_run_all_shares_whole_checks_without_changing_a_count(
    monkeypatch, max_side, cap, sampled_graphs
):
    """The perfection suite takes the saturation suite's whole checks in
    run_all, draws its own samples, and reports what it reports when run
    alone."""
    calls = []
    real = engine.enumerate_stable

    def counting(graph, instance, cap=engine.DEFAULT_NODE_CAP):
        calls.append(graph)
        return real(graph, instance, cap)

    def sampled(graphs):
        return [g for g in graphs if prefs.instance_count(g) > cap]

    monkeypatch.setattr(harness.engine, "enumerate_stable", counting)
    saturation = harness.saturation_suite(max_side, cap, seeds=20)
    saturation_calls = calls[:]
    calls.clear()
    perfection = harness.perfection_suite(max_side, cap, seeds=20)
    perfection_sampled = sampled(calls)
    calls.clear()
    _stub_suites(monkeypatch, ("coverage", "oracle"))
    shared = harness.run_all(max_side, cap, seeds=20)[:2]
    for a, b in zip((saturation, perfection), shared):
        assert a.name == b.name
        assert a.counts == b.counts
        assert a.violations == b.violations
        assert a.passed
    assert (
        len(set(sampled(saturation_calls))),
        len(set(perfection_sampled)),
    ) == sampled_graphs
    # run alone or in run_all, the saturation suite enumerates the same; in
    # run_all the perfection suite enumerates only on the graphs it samples
    assert calls == saturation_calls + perfection_sampled
    assert len(perfection_sampled) < perfection.counts["stable_sets"]


@pytest.mark.parametrize(
    "saturation_side, saturation_cap, perfection_side, perfection_cap",
    [
        pytest.param(1, 10**4, 2, 10**4, id="shorter"),
        pytest.param(2, 10**4, 1, 10**4, id="longer"),
        pytest.param(2, 5, 2, 10**4, id="sampled-there"),
        pytest.param(2, 10**4, 2, 5, id="sampled-here"),
    ],
)
def test_perfection_suite_takes_truths_in_enumeration_order(
    saturation_side, saturation_cap, perfection_side, perfection_cap
):
    """One entry per balanced graph, in the order both suites meet them: a
    list from another max_side or cap lines up with the perfection suite's
    graphs, which report what they report when it runs alone."""
    truths = []
    harness.saturation_suite(saturation_side, saturation_cap, seeds=3, truths=truths)
    assert [check is not None for check in truths] == [
        prefs.instance_count(g) <= saturation_cap
        for n in range(saturation_side + 1)
        for g in harness.graphs_of_shape(n, n)
    ]
    handed = harness.perfection_suite(
        perfection_side, perfection_cap, seeds=3, truths=truths
    )
    assert truths == []
    alone = harness.perfection_suite(perfection_side, perfection_cap, seeds=3)
    assert handed.counts == alone.counts
    assert handed.violations == alone.violations
    assert handed.passed


def test_progress_callback_fires():
    lines = []
    harness.perfection_suite(max_n=1, instance_cap=10**4, seeds=2,
                             progress=lines.append)
    assert lines  # one line per side size
    # the other suites report every 200 graphs or pairs, or 2,000 markets
    lines = []
    harness.saturation_suite(max_side=3, instance_cap=0, seeds=1,
                             progress=lines.append)
    assert lines == [
        "saturation: 200 graphs, 218 instances checked",
        "saturation: 400 graphs, 457 instances checked",
        "saturation: 600 graphs, 720 instances checked",
    ]
    lines = []
    harness.coverage_suite(max_classes=2, max_side=4, samples=1,
                           progress=lines.append)
    assert lines == ["coverage: 2000 markets checked"]
    lines = []
    harness.oracle_suite(pairs=200, max_side=3, progress=lines.append)
    assert lines == ["oracle: 200 pairs checked"]


# -- fault injection: every suite must catch a broken layer --------------------


def test_suite_catches_a_verdict_that_always_holds(monkeypatch):
    def always_holds(graph, side):
        return analysis.SaturationVerdict(reports=())

    monkeypatch.setattr(harness.analysis, "saturation_verdict", always_holds)
    result = harness.saturation_suite(max_side=2, instance_cap=10**4, seeds=5)
    assert not result.passed
    assert result.violations["verdict"]
    assert not result.violations["adversarial"]  # no reports, nothing to strand


def test_suite_catches_an_adversary_that_does_not_strand(monkeypatch):
    def lazy_adversary(graph, report):
        return prefs.PreferenceInstance(graph.x_adj, graph.y_adj)

    monkeypatch.setattr(harness.analysis, "adversarial_instance", lazy_adversary)
    result = harness.saturation_suite(max_side=2, instance_cap=10**4, seeds=5)
    assert not result.passed
    assert result.violations["adversarial"]
    assert not result.violations["verdict"]  # blockade logic untouched


def test_suite_catches_a_broken_deferred_acceptance(monkeypatch):
    def empty_matching(graph, instance, proposing=None, **kwargs):
        return Matching([None] * graph.x_count, graph.y_count)

    monkeypatch.setattr(harness.engine, "deferred_acceptance", empty_matching)
    result = harness.oracle_suite(pairs=50, max_side=2)
    assert not result.passed
    assert result.violations["equality"]


def _failing(result: harness.SuiteResult) -> set[str]:
    """The violation categories in which `result` reports anything."""
    return {category for category, found in result.violations.items() if found}


def test_oracle_suite_catches_an_oracle_that_drops_a_matching(monkeypatch):
    real = harness.naive_stable_matchings

    def one_short(graph, instance):
        return real(graph, instance)[1:]

    monkeypatch.setattr(harness, "naive_stable_matchings", one_short)
    result = harness.oracle_suite(pairs=50, max_side=2)
    # every instance has a stable matching, so every pair is one short
    assert _failing(result) == {"equality"}
    assert len(result.violations["equality"]) == result.counts["pairs"] == 50
    assert all("oracle found" in v for v in result.violations["equality"])


def test_oracle_suite_catches_deferred_acceptance_for_the_other_side(monkeypatch):
    real = harness.engine.deferred_acceptance

    def other_optimum(graph, instance, proposing=Side.X):
        return real(graph, instance, proposing=proposing.opposite)

    monkeypatch.setattr(harness.engine, "deferred_acceptance", other_optimum)
    result = harness.oracle_suite(pairs=100, max_side=4)
    # each result is still stable, so only an instance with two or more
    # stable matchings shows that it is the other side's optimum, and then
    # on both sides
    assert _failing(result) == {"optimality"}
    sides = {
        re.search(r": ([xy])\[\d+\] does better in .* than in the \1-proposing "
                  r"result$", v).group(1)
        for v in result.violations["optimality"]
    }
    assert sides == {"x", "y"}


def test_oracle_suite_catches_a_maximum_matching_that_is_too_small(monkeypatch):
    def empty(graph):
        return Matching([None] * graph.x_count, graph.y_count)

    monkeypatch.setattr(harness.engine, "maximum_matching", empty)
    result = harness.oracle_suite(pairs=50, max_side=2)
    assert _failing(result) == {"maximum"}
    exceeds = [
        v for v in result.violations["maximum"]
        if "a stable matching exceeds the maximum matching size 0" in v
    ]
    assert exceeds
    assert all(
        v in exceeds or "maximum matching size 0 <" in v
        for v in result.violations["maximum"]
    )


def test_coverage_suite_catches_a_freeze_out_that_leaves_the_witness_matched(
    monkeypatch,
):
    real = harness.analysis.adversarial_instance

    def witness_first(graph, report):
        # every option of the witness ranks it first, so every stable
        # matching matches it
        instance = real(graph, report)
        lists = [list(ranked) for ranked in instance.y_lists]
        v = report.vertex.index
        for u in graph.x_adj[v]:
            lists[u] = [v] + [w for w in lists[u] if w != v]
        return PreferenceInstance(instance.x_lists, lists)

    # a witness whose class has no slot is isolated and needs no instance
    built = 0
    for market in harness.all_compatibility_markets(2, 2):
        coverage = compatibility.coverage_verdict(market)
        if not coverage.holds:
            witness = compatibility.deficient_witness(market, coverage)
            (c,) = market.x_membership[witness]
            built += coverage.classes[c].slots > 0

    monkeypatch.setattr(harness.analysis, "adversarial_instance", witness_first)
    result = harness.coverage_suite(max_classes=2, max_side=2, samples=5)
    assert _failing(result) == {"adversarial"}
    assert len(result.violations["adversarial"]) == built > 0
    assert all(
        v.startswith("market ") and v.endswith(" not confirmed")
        for v in result.violations["adversarial"]
    )


def test_suite_catches_a_coverage_verdict_that_always_holds(monkeypatch):
    def always_covered(market):
        sizes = tuple(
            compatibility.ClassSizes(len(class_members(market, c)),
                                     len(class_slots(market, c)))
            for c in range(market.n_classes)
        )
        return compatibility.CoverageVerdict(holds=True, classes=sizes)

    monkeypatch.setattr(compatibility, "coverage_verdict", always_covered)
    result = harness.coverage_suite(max_classes=2, max_side=2, samples=5)
    assert not result.passed
    assert result.violations["saturating"]
    assert result.violations["consistency"]


def test_coverage_suite_records_a_deficiency_the_structure_rules_out(monkeypatch):
    # every class reported with zero slots: the witness of many markets is
    # guaranteed a partner, which nothing can strand
    def no_slots(market):
        sizes = tuple(
            compatibility.ClassSizes(len(class_members(market, c)), 0)
            for c in range(market.n_classes)
        )
        return compatibility.CoverageVerdict(holds=False, classes=sizes)

    satisfied = 0
    for market in harness.all_compatibility_markets(2, 3):
        witness = compatibility.deficient_witness(market, no_slots(market))
        g = compatibility.induced_graph(market)
        satisfied += analysis.vertex_report(g, Vertex(Side.X, witness)).satisfied

    monkeypatch.setattr(compatibility, "coverage_verdict", no_slots)
    result = harness.coverage_suite(max_classes=2, max_side=3, samples=5)
    assert not result.passed
    guaranteed = [
        v for v in result.violations["adversarial"]
        if "deficient but it is matched in every stable matching" in v
    ]
    # one violation per market, even where markets share a graph and witness
    assert len(guaranteed) == satisfied > 0
    assert all(v.startswith("market ") and "x[" in v for v in guaranteed)


def test_coverage_suite_catches_a_structural_verdict_that_always_holds(monkeypatch):
    def always_holds(graph, side):
        return analysis.SaturationVerdict(reports=())

    deficient = sum(
        not compatibility.coverage_verdict(market).holds
        for market in harness.all_compatibility_markets(2, 2)
    )
    monkeypatch.setattr(harness.analysis, "saturation_verdict", always_holds)
    result = harness.coverage_suite(max_classes=2, max_side=2, samples=5)
    assert not result.passed
    # one violation per deficient market, not per distinct induced graph
    assert len(result.violations["consistency"]) == deficient > 0
    assert not result.violations["saturating"]  # class counting untouched


def _counting_draws(monkeypatch) -> list:
    """Patch the coverage suite's sampler to record each (graph, instance)
    it draws, in order."""
    drawn = []
    real = prefs.sample_uniform

    def recording(graph, seed):
        instance = real(graph, seed)
        drawn.append((graph, instance))
        return instance

    monkeypatch.setattr(harness.prefs, "sample_uniform", recording)
    return drawn


def _every_graph_sampled(monkeypatch):
    """No graph fits the sample budget, so the coverage suite checks no graph
    whole and draws every sample."""
    monkeypatch.setattr(harness.prefs, "instance_count", lambda graph: 1 << 200)


def _covered_graphs(max_classes: int, max_side: int, samples: int):
    """The induced graphs of the covered markets with at most `samples`
    instances, and how many covered markets induce a larger graph."""
    small, larger_markets = set(), 0
    for market in harness.all_compatibility_markets(max_classes, max_side):
        if compatibility.coverage_verdict(market).holds:
            g = compatibility.induced_graph(market)
            if prefs.instance_count(g) <= samples:
                small.add(g)
            else:
                larger_markets += 1
    return small, larger_markets


def _covered_markets_of(graph, max_classes: int, max_side: int):
    """The index and market of each covered market that induces `graph`."""
    return [
        (m_index, market)
        for m_index, market in enumerate(
            harness.all_compatibility_markets(max_classes, max_side)
        )
        if compatibility.coverage_verdict(market).holds
        and compatibility.induced_graph(market) == graph
    ]


def _reported_markets(result) -> list[int]:
    """The market index of each `saturating` violation, in order."""
    return [int(v.split()[1]) for v in result.violations["saturating"]]


def _poisoning(monkeypatch, target, poisoned):
    """Patch the engine so that one instance of `target` has only stable
    matchings that leave X unsaturated."""
    real = engine.enumerate_stable

    def one_instance_strands(graph, instance, cap=engine.DEFAULT_NODE_CAP):
        ss = real(graph, instance, cap)
        if (graph, instance) == (target, poisoned):
            return replace(ss, matched_x=frozenset())
        return ss

    monkeypatch.setattr(harness.engine, "enumerate_stable", one_instance_strands)


def test_coverage_suite_runs_each_verdict_and_freeze_out_once(monkeypatch):
    graphs, witnesses, deficient = set(), set(), 0
    for market in harness.all_compatibility_markets(2, 3):
        g = compatibility.induced_graph(market)
        coverage = compatibility.coverage_verdict(market)
        graphs.add(g)
        if not coverage.holds:
            deficient += 1
            witness = compatibility.deficient_witness(market, coverage)
            witnesses.add((g, witness))
    small, larger_markets = _covered_graphs(2, 3, 3)
    calls = {"verdict": 0}
    enumerated = []
    real_verdict, real_enumerate = analysis.saturation_verdict, engine.enumerate_stable

    def counting_verdict(graph, side):
        calls["verdict"] += 1
        return real_verdict(graph, side)

    def recording_enumerate(graph, instance, cap=engine.DEFAULT_NODE_CAP):
        enumerated.append((graph, instance))
        return real_enumerate(graph, instance, cap)

    monkeypatch.setattr(harness.analysis, "saturation_verdict", counting_verdict)
    drawn = _counting_draws(monkeypatch)
    monkeypatch.setattr(harness.engine, "enumerate_stable", recording_enumerate)
    result = harness.coverage_suite(max_classes=2, max_side=3, samples=3)
    assert result.passed
    counts = result.counts
    assert counts["markets"] > len(graphs)  # some markets share a graph
    assert calls["verdict"] == counts["structural_verdicts"] == len(graphs)
    # every instance of a small covered graph is enumerated once, and no
    # sample is drawn there; each larger graph's market draws `samples`
    assert small and larger_markets
    for g in small:
        for p in prefs.enumerate_all(g):
            assert enumerated.count((g, p)) == 1
    assert not any(g in small for g, _ in drawn)
    whole = sum(prefs.instance_count(g) for g in small)
    assert counts["sampled_sets"] == whole + 3 * larger_markets
    assert len(drawn) == 3 * larger_markets
    # every sampled or whole-graph instance is enumerated; every other
    # enumeration is a freeze-out
    assert len(enumerated) == counts["sampled_sets"] + counts["freeze_outs"]
    assert set(drawn) <= set(enumerated)
    assert counts["freeze_outs"] == len(witnesses) < deficient
    # yet every deficient market is confirmed, and every sample counted
    assert counts["adversarial_confirmations"] == deficient
    assert counts["instances"] == 3 * counts["verdicts_true"]
    assert counts["stable_sets"] == counts["instances"] + deficient


def test_non_saturating_instances_are_reported_on_every_covered_market(monkeypatch):
    calls = {"enumerate": 0}
    real = engine.enumerate_stable

    def nothing_matched(graph, instance, cap=engine.DEFAULT_NODE_CAP):
        calls["enumerate"] += 1
        return replace(real(graph, instance, cap), matched_x=frozenset())

    small, larger_markets = _covered_graphs(2, 3, 3)
    monkeypatch.setattr(harness.engine, "enumerate_stable", nothing_matched)
    drawn = _counting_draws(monkeypatch)
    result = harness.coverage_suite(max_classes=2, max_side=3, samples=3)
    counts = result.counts
    # each small graph is still checked whole, every instance of it once,
    # and no sample is drawn there; each larger graph's market draws its own
    whole = sum(prefs.instance_count(g) for g in small)
    assert counts["sampled_sets"] == whole + 3 * larger_markets
    assert calls["enumerate"] == counts["sampled_sets"] + counts["freeze_outs"]
    assert not any(g in small for g, _ in drawn)
    assert len(drawn) == 3 * larger_markets
    # one violation per instance of a small graph, one per later covered
    # market on it, and one per sample of a larger graph's market
    small_markets = counts["verdicts_true"] - larger_markets
    assert len(result.violations["saturating"]) == (
        whole + small_markets - len(small) + 3 * larger_markets
    )
    assert len(set(_reported_markets(result))) == counts["verdicts_true"]


@pytest.mark.parametrize("scale", [(2, 3, 50), (3, 3, 20)])
def test_confirmed_graphs_change_no_count_or_violation(monkeypatch, scale):
    # unpoisoned, then with one of the two instances of a small covered
    # graph stranding X
    target = BipartiteGraph(2, 3, [(0, 0), (0, 1), (1, 2)])
    assert prefs.instance_count(target) <= scale[2]
    poisoned = next(prefs.enumerate_all(target))
    for poison in (False, True):
        monkeypatch.undo()
        if poison:
            _poisoning(monkeypatch, target, poisoned)
        drawn = _counting_draws(monkeypatch)
        confirmed = harness.coverage_suite(*scale)
        confirmed_draws = len(drawn)
        assert not any(g == target for g, _ in drawn)
        _every_graph_sampled(monkeypatch)
        drawn.clear()
        every = harness.coverage_suite(*scale)
        assert bool(every.violations["saturating"]) == poison
        if poison:
            # the whole check reports the target once on every covered market
            # that induces it, and draws nothing there; sampling reports only
            # the samples that drew the poisoned instance
            on_target = [m for m, _ in _covered_markets_of(target, *scale[:2])]
            assert _reported_markets(confirmed) == on_target
            assert set(_reported_markets(every)) <= set(on_target)
            for kind in ("adversarial", "consistency"):
                assert confirmed.violations[kind] == every.violations[kind] == []
        else:
            assert confirmed.violations == every.violations
        sampled = confirmed.counts.pop("sampled_sets")
        assert confirmed.counts == {
            k: v for k, v in every.counts.items() if k != "sampled_sets"
        }
        assert confirmed_draws < len(drawn) == every.counts["sampled_sets"]
        assert len(drawn) == every.counts["instances"]
        assert sampled < every.counts["sampled_sets"]


def test_coverage_suite_draws_fewer_samples_than_it_counts(monkeypatch):
    _, larger_markets = _covered_graphs(2, 3, 50)
    drawn = _counting_draws(monkeypatch)
    result = harness.coverage_suite(max_classes=2, max_side=3, samples=50)
    assert result.passed
    assert len(drawn) == 50 * larger_markets < result.counts["instances"]
    assert result.counts["instances"] == 50 * result.counts["verdicts_true"]


def test_a_graph_with_one_non_saturating_instance_is_reported_on_every_market(
    monkeypatch,
):
    # two covered markets induce this graph, which has two instances, so it
    # is checked whole and no sample is ever drawn on it
    target = BipartiteGraph(2, 3, [(0, 0), (0, 1), (1, 2)])
    poisoned = next(prefs.enumerate_all(target))
    markets = _covered_markets_of(target, 2, 3)
    assert len(markets) == 2
    drawn = _counting_draws(monkeypatch)
    harness.coverage_suite(max_classes=2, max_side=3, samples=50)
    assert not any(graph == target for graph, _ in drawn)

    _poisoning(monkeypatch, target, poisoned)
    drawn.clear()
    result = harness.coverage_suite(max_classes=2, max_side=3, samples=50)
    assert not any(graph == target for graph, _ in drawn)
    # the first market reports the failing instance, the second the stored
    # outcome of the whole check
    (first, first_market), (second, second_market) = markets
    assert result.violations["saturating"] == [
        f"market {first} {first_market!r}: coverage holds but instance 0 has "
        f"a non-saturating stable matching",
        f"market {second} {second_market!r}: coverage holds but an instance "
        f"of its graph has a non-saturating stable matching",
    ]
    assert not result.violations["consistency"] + result.violations["adversarial"]

    # sampling instead reports only the samples that drew the poisoned
    # instance, each on a market the whole check reported
    _every_graph_sampled(monkeypatch)
    sampled = harness.coverage_suite(2, 3, 50)
    assert sampled.violations["saturating"]
    assert set(_reported_markets(sampled)) <= {first, second}


def test_a_failure_found_by_the_whole_check_is_reported(monkeypatch):
    # the graph's one covered market draws no sample: its two instances are
    # checked whole, and the one that leaves X unmatched must be reported
    target = BipartiteGraph(1, 2, [(0, 0), (0, 1)])
    poisoned = PreferenceInstance([(0, 1)], [(0,), (0,)])
    assert poisoned in set(prefs.enumerate_all(target))
    [(m_index, market)] = _covered_markets_of(target, 2, 3)
    _poisoning(monkeypatch, target, poisoned)
    drawn = _counting_draws(monkeypatch)
    result = harness.coverage_suite(2, 3, 3)
    assert not result.passed
    assert result.violations["saturating"] == [
        f"market {m_index} {market!r}: coverage holds but instance 0 has a "
        f"non-saturating stable matching"
    ]
    assert not any(graph == target for graph, _ in drawn)


def test_a_poisoned_instance_of_a_larger_graph_is_reported_per_draw(monkeypatch):
    # two covered markets induce this graph; with 10 samples per market its
    # 16 instances are too many to check whole, so each market draws its own
    target = BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    assert prefs.instance_count(target) > 10
    drawn = _counting_draws(monkeypatch)
    harness.coverage_suite(max_classes=2, max_side=3, samples=10)
    on_target = [instance for graph, instance in drawn if graph == target]
    assert len(on_target) == 20
    poisoned = max(on_target, key=on_target.count)

    _poisoning(monkeypatch, target, poisoned)
    drawn.clear()
    result = harness.coverage_suite(max_classes=2, max_side=3, samples=10)
    assert [p for g, p in drawn if g == target] == on_target
    # one violation per market sample that drew the poisoned instance
    reported = result.violations["saturating"]
    assert len(reported) == on_target.count(poisoned) > 1
    assert len({v.split(":")[0] for v in reported}) == 2  # from both markets
    assert not result.violations["consistency"] + result.violations["adversarial"]


# the suites that enumerate stable sets and recheck their matched sets,
# each at a small scale
_ENUMERATING = {
    "saturation": lambda: harness.saturation_suite(max_side=2, seeds=5),
    "perfection": lambda: harness.perfection_suite(max_n=2, seeds=5),
    # every balanced graph sampled
    "perfection-sampled": lambda: harness.perfection_suite(
        max_n=2, instance_cap=0, seeds=3
    ),
    "oracle": lambda: harness.oracle_suite(pairs=50, max_side=3),
}


@pytest.mark.parametrize(
    "suite, field",
    [
        pytest.param(
            suite, field, id=suite if field == "matched_x" else f"{suite}-{field}"
        )
        for field in ("matched_x", "matched_y")
        for suite in _ENUMERATING
    ],
)
def test_suite_catches_disagreeing_matched_sets(monkeypatch, suite, field):
    real = engine.enumerate_stable

    def corrupted(graph, instance, cap=engine.DEFAULT_NODE_CAP):
        ss = real(graph, instance, cap)
        return replace(ss, **{field: frozenset({10**6})})

    monkeypatch.setattr(harness.engine, "enumerate_stable", corrupted)
    result = _ENUMERATING[suite]()
    assert not result.passed
    assert result.violations["invariance"]
    if field == "matched_y":
        # no suite's ground truth reads the Y side, so only the recheck of
        # every member's matched sets sees the fault
        assert not [k for k, v in result.violations.items() if v and k != "invariance"]


def test_run_all_reports_disagreeing_matched_sets_in_both_graph_suites(
    monkeypatch,
):
    real = engine.enumerate_stable

    def corrupted(graph, instance, cap=engine.DEFAULT_NODE_CAP):
        ss = real(graph, instance, cap)
        return replace(ss, matched_x=frozenset({10**6}))

    monkeypatch.setattr(harness.engine, "enumerate_stable", corrupted)
    perfection_alone = harness.perfection_suite(max_n=2, seeds=5)
    _stub_suites(monkeypatch, ("coverage", "oracle"))
    saturation, perfection = harness.run_all(max_side=2, seeds=5)[:2]
    assert saturation.violations["invariance"]
    assert perfection.violations["invariance"]
    assert perfection.violations == perfection_alone.violations


@pytest.mark.parametrize("suite", list(_ENUMERATING))
def test_enumerating_suites_count_stable_sets_alike(monkeypatch, suite):
    """Every enumeration counts one stable set, and every member of it one
    stable matching and one invariance check."""
    sizes = []
    real = engine.enumerate_stable

    def recording(graph, instance, cap=engine.DEFAULT_NODE_CAP):
        ss = real(graph, instance, cap)
        sizes.append(len(ss.matchings))
        return ss

    monkeypatch.setattr(harness.engine, "enumerate_stable", recording)
    result = _ENUMERATING[suite]()
    assert result.passed
    counts = result.counts
    enumerated = {
        "saturation": ("instances", "adversarial_targets"),
        "perfection": ("instances",),
        "oracle": ("pairs",),
    }[result.name]
    enumerations = sum(counts[key] for key in enumerated)
    assert counts["stable_sets"] == enumerations == len(sizes) > 0
    assert counts["stable_matchings"] == counts["invariance_checks"] == sum(sizes)


def test_perfection_suite_catches_a_broken_component_verdict(monkeypatch):
    def always_perfect(graph):
        return analysis.ComponentVerdict(components=())

    monkeypatch.setattr(
        harness.analysis, "component_perfect_verdict", always_perfect
    )
    result = harness.perfection_suite(max_n=2, instance_cap=10**4, seeds=5)
    assert not result.passed
    assert result.violations["components"]
