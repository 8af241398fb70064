"""The acceptance gate: eight end-to-end checks, one per shipped guarantee.

Each check prints a single [PASS]/[FAIL] line on the real stderr (past
pytest's capture) so a full run reads as a checklist.  The expensive
verification suites run once per module and are shared by the checks
they back; the CLI checks drive the shipped fixture markets through
cmd_analyze exactly as a user would.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from conftest import lopsided_blocks
from satmatch import analysis, cli, engine, harness, prefs

MARKETS = os.path.join(os.path.dirname(__file__), os.pardir, "markets")


def _market(name: str) -> str:
    return os.path.join(MARKETS, name)


@pytest.fixture()
def report(capsys):
    """One [PASS]/[FAIL] line per check, printed past pytest's capture."""

    def _report(name: str, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
        with capsys.disabled():
            print(line, file=sys.stderr)
        assert ok, line

    return _report


def _analyze(capsys, name: str) -> tuple[int, dict]:
    code = cli.main(["analyze", _market(name), "--format", "structured"])
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture(scope="module")
def saturation():
    return harness.saturation_suite(max_side=3, instance_cap=10**4, seeds=200)


@pytest.fixture(scope="module")
def perfection():
    return harness.perfection_suite(max_n=3, instance_cap=10**4, seeds=200)


@pytest.fixture(scope="module")
def coverage():
    return harness.coverage_suite(max_classes=3, max_side=4, samples=50)


@pytest.fixture(scope="module")
def oracle():
    return harness.oracle_suite(pairs=1000, max_side=4)


def test_c1_saturation_verdicts_match_brute_force(saturation, report):
    r = saturation
    ok = (
        not r.violations.get("verdict")
        and r.counts["graphs"] == 689  # every graph with both sides <= 3
        and r.counts["verdicts_true"] == 62
        and r.counts["instances"] == 9504
        and r.counts["stable_sets"] == 10324
        and r.counts["stable_matchings"] == 11717
        and r.counts["invariance_checks"] == 11717
        and r.counts["adversarial_targets"] == 820
        and r.seconds < 120.0
    )
    report(
        "c1 saturation verdict == brute force on all graphs up to 3x3",
        ok,
        f"{r.counts['graphs']} graphs, {r.counts['instances']} instances, "
        f"{len(r.violations.get('verdict', []))} discrepancies, "
        f"{r.seconds:.1f}s",
    )


def test_c2_adversarial_instances_always_strand_their_target(saturation, report):
    r = saturation
    ok = (
        not r.violations.get("adversarial")
        and r.counts["adversarial_targets"] > 0
    )
    report(
        "c2 constructed instances strand every unguaranteed vertex",
        ok,
        f"{r.counts['adversarial_targets']} targets, "
        f"{len(r.violations.get('adversarial', []))} escapes",
    )


def test_c3_matched_sets_agree_across_all_stable_matchings(saturation, report):
    r = saturation
    ok = (
        not r.violations.get("invariance")
        and r.counts["invariance_checks"] > 0
    )
    report(
        "c3 matched sets identical across each instance's stable matchings",
        ok,
        f"{r.counts['invariance_checks']} stable sets rechecked, "
        f"{len(r.violations.get('invariance', []))} violations",
    )


def test_c4_connected_perfection_verdicts_match_brute_force(perfection, report):
    r = perfection
    ok = (
        not r.violations.get("connected")
        and r.counts["connected_graphs"] == 211
        and r.counts["instances"] == 8630
        and r.counts["stable_sets"] == 8630
        and r.counts["invariance_checks"] == 9972
        and r.seconds < 60.0
    )
    report(
        "c4 connected balanced verdict == brute force up to 3+3",
        ok,
        f"{r.counts['connected_graphs']} connected graphs of "
        f"{r.counts['graphs']}, "
        f"{len(r.violations.get('connected', []))} discrepancies, "
        f"{r.seconds:.1f}s",
    )


def test_c5_component_verdicts_cover_disconnected_graphs(perfection, report):
    # The component rule needs per-piece balance: two bicliques shaped 1x2
    # and 2x1 balance globally, yet one vertex of each is stranded in every
    # matching.  Check that case directly, on top of the exhaustive sweep.
    g = lopsided_blocks()
    cv = analysis.component_perfect_verdict(g)
    pv = analysis.perfect_verdict(g)
    instances = list(prefs.enumerate_all(g))
    never_perfect = all(
        not engine.enumerate_stable(g, inst).perfect for inst in instances
    )
    r = perfection
    ok = (
        not r.violations.get("components")
        and r.counts["graphs"] == 531  # balanced graphs, sides 0..3
        and not cv.holds
        and not pv.holds
        and all(s.biclique and not s.balanced for s in cv.components)
        and len(instances) == 4
        and never_perfect
    )
    report(
        "c5 component verdict == brute force on balanced graphs, "
        "including the unbalanced-biclique pair",
        ok,
        f"{r.counts['graphs']} graphs, "
        f"{len(r.violations.get('components', []))} discrepancies; "
        f"1x2+2x1 pair: verdict {cv.holds}, "
        f"perfect in any of {len(instances)} instances: {not never_perfect}",
    )


def test_c6_coverage_verdicts_confirmed_both_ways(coverage, report):
    r = coverage
    ok = (
        not r.violations.get("consistency")
        and not r.violations.get("saturating")
        and not r.violations.get("adversarial")
        and r.counts["markets"] == 18702
        and r.counts["verdicts_true"] == 920
        and r.counts["instances"] == 46000
        and r.counts["stable_sets"] == 63782
        and r.counts["adversarial_confirmations"] == 17782
        and r.seconds < 120.0
    )
    report(
        "c6 class coverage verdict confirmed by sampling and by "
        "counterexample on all markets up to 3 classes, 4 per side",
        ok,
        f"{r.counts['markets']} markets, "
        f"{r.counts['adversarial_confirmations']} deficiency confirmations, "
        f"{sum(map(len, r.violations.values()))} violations, {r.seconds:.1f}s",
    )


def test_c7_fixture_markets_analyze_to_their_known_verdicts(capsys, report):
    failures = []

    code, payload = _analyze(capsys, "path4.yaml")
    rows = {row["vertex"]: row for row in payload["saturation"]["vertices"]}
    if not (
        code == 1
        and payload["saturation"]["failing"] == ["x2"]
        and rows["x2"]["claimants"] == 2
        and rows["x2"]["options"] == 1
    ):
        failures.append("path4 should fail at x2 with 2 claimants on 1 option")

    code, payload = _analyze(capsys, "path5.yaml")
    if not (code == 0 and payload["saturation"]["holds"]):
        failures.append("path5 should hold")

    code, payload = _analyze(capsys, "mixed_3x4.yaml")
    rows = {row["vertex"]: row for row in payload["saturation"]["vertices"]}
    if not (
        code == 0
        and payload["saturation"]["holds"]
        and rows["x3"]["dedicated"] == "y3"
    ):
        failures.append("mixed_3x4 should hold with y3 dedicated to x3")

    code, payload = _analyze(capsys, "hub_4x4.yaml")
    if not (code == 1 and not payload["perfect"]["holds"]):
        failures.append("hub_4x4 should fail perfection")

    code, payload = _analyze(capsys, "twin_blocks.yaml")
    if not (code == 0 and payload["perfect"]["holds"]):
        failures.append("twin_blocks should hold perfection")

    report(
        "c7 shipped fixture markets reproduce their documented verdicts",
        not failures,
        "5 fixtures analyzed" if not failures else "; ".join(failures),
    )


def test_c8_enumeration_agrees_with_the_naive_oracle(oracle, report):
    r = oracle
    ok = (
        r.passed
        and r.counts["pairs"] == 1000
        and r.counts["stable_matchings"] == 1022
        and r.counts["invariance_checks"] == 1022
    )
    report(
        "c8 stable-set enumeration == filtered all-matchings oracle "
        "on 1000 random pairs up to 4x4",
        ok,
        f"{r.counts['pairs']} pairs, {r.counts['stable_matchings']} stable "
        f"matchings compared, {sum(map(len, r.violations.values()))} disagreements",
    )
