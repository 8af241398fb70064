"""Self-tests for the benchmark's checkers.

    python3 -m pytest -q perfbench/test_checks.py

Each checker must accept satmatch's real output and reject a corrupted
copy of it: an added blocking pair, a dropped stable matching, a wrong
blockade, a counterexample that does not strand, a written market that
does not strand, wrong verify counts.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import markets as M  # noqa: E402
import worker  # noqa: E402

CLI = worker.import_cli(os.path.dirname(HERE))


def report(tmp_path, m: M.Market, *argv: str) -> dict:
    path = tmp_path / "market.yaml"
    path.write_text(M.to_yaml(m))
    code, out = worker.call_cli(CLI, [argv[0], str(path), *argv[1:], "--format", "structured"])
    assert code in (0, 1), code
    return json.loads(out)


def rejects(check, *args) -> None:
    with pytest.raises(checks.CheckError):
        check(*args)


def random_complete(n: int, seed: int) -> M.Market:
    rng = random.Random(seed)
    return M.with_random_prefs(M.complete(n, n), rng)


# -- the benchmark's own computations ------------------------------------------


def test_gale_shapley_is_stable_and_proposer_optimal():
    for seed in range(20):
        m = random_complete(5, seed)
        stable = checks.stable_perfect_matchings(m)
        px = checks.optimal(m, "x")
        assert tuple(px) in stable
        for other in stable:
            assert all(
                m.x_lists[i].index(px[i]) <= m.x_lists[i].index(other[i]) for i in range(5)
            )


def test_absorbable_matches_hall_condition():
    rng = random.Random(7)
    for _ in range(200):
        m = M.dense(rng.randint(1, 5), rng.randint(1, 5), 0.5, rng)
        y_adj = m.y_adj
        for v in range(m.x_count):
            options = m.x_adj[v]
            hall = all(
                len({c for u in s for c in y_adj[u]} - {v}) >= len(s)
                for r in range(1, len(options) + 1)
                for s in itertools.combinations(options, r)
            )
            assert checks.absorbable(m.x_adj, y_adj, v) == hall


# -- match -----------------------------------------------------------------------


def test_match_rejects_an_added_blocking_pair(tmp_path):
    m = random_complete(6, 1)
    rep = report(tmp_path, m, "match", "--propose", "x")
    checks.check_match(m, rep, "x")
    px = checks.partner_vector(m, rep["pairs"])
    for a, b in itertools.combinations(range(6), 2):
        bad = list(px)
        bad[a], bad[b] = bad[b], bad[a]
        if checks.blocking_pairs(m.x_lists, m.y_lists, bad):
            break
    corrupt = copy.deepcopy(rep)
    corrupt["pairs"] = [[M.xn(i), M.yn(j)] for i, j in enumerate(bad)]
    rejects(checks.check_match, m, corrupt, "x")


# -- enumerate -------------------------------------------------------------------


def test_enumerate_rejects_a_dropped_matching(tmp_path):
    m = M.latin(5)
    rep = report(tmp_path, m, "enumerate")
    checks.check_enumerate(m, rep, brute_force=True, shifts=True)
    for drop in range(rep["count"]):
        corrupt = copy.deepcopy(rep)
        del corrupt["matchings"][drop]
        corrupt["count"] -= 1
        rejects(checks.check_enumerate, m, corrupt, True, False)
        rejects(checks.check_enumerate, m, corrupt, False, True)


def test_enumerate_rejects_an_added_blocking_pair(tmp_path):
    m = random_complete(6, 3)
    rep = report(tmp_path, m, "enumerate")
    checks.check_enumerate(m, rep, brute_force=True)
    stable = checks.stable_perfect_matchings(m)
    unstable = next(p for p in itertools.permutations(range(6)) if p not in stable)
    corrupt = copy.deepcopy(rep)
    corrupt["matchings"].append({"pairs": [[M.xn(i), M.yn(j)] for i, j in enumerate(unstable)]})
    corrupt["count"] += 1
    rejects(checks.check_enumerate, m, corrupt)


# -- analyze ---------------------------------------------------------------------


def test_analyze_rejects_a_wrong_blockade(tmp_path):
    m = M.complete(3, 3)
    rep = report(tmp_path, m, "analyze")
    checks.check_analyze(m, rep, "x")
    corrupt = copy.deepcopy(rep)
    corrupt["saturation"]["vertices"][0]["blockade"] = ["y0"]  # 2 rivals, not < 1
    rejects(checks.check_analyze, m, corrupt, "x")


def test_analyze_rejects_a_false_guarantee_and_a_bad_counterexample(tmp_path):
    m = M.Market(2, 2, [[0, 1], [1]])  # x1's only option y1 is contested
    rep = report(tmp_path, m, "analyze")
    checks.check_analyze(m, rep, "x")
    assert rep["saturation"]["counterexample"]["vertex"] == "x1"

    guaranteed = copy.deepcopy(rep)
    row = guaranteed["saturation"]["vertices"][1]
    row["blockade"], row["satisfied"] = ["y1"], True
    guaranteed["saturation"]["failing"] = []
    guaranteed["saturation"]["holds"] = True
    guaranteed["saturation"]["counterexample"] = None
    rejects(checks.check_analyze, m, guaranteed, "x")

    matched = copy.deepcopy(rep)
    matched["saturation"]["counterexample"]["preferences"].update(
        {"x0": ["y0", "y1"], "y1": ["x1", "x0"]}
    )
    rejects(checks.check_analyze, m, matched, "x")


def test_analyze_rejects_wrong_components(tmp_path):
    m = M.Market(2, 2, [[0], [1]])
    rep = report(tmp_path, m, "analyze")
    checks.check_analyze(m, rep, "x")
    corrupt = copy.deepcopy(rep)
    pieces = corrupt["components"]["pieces"]
    pieces[0]["y"], pieces[1]["y"] = pieces[1]["y"], pieces[0]["y"]
    rejects(checks.check_analyze, m, corrupt, "x")


# -- adversary -------------------------------------------------------------------


def test_adversary_rejects_a_market_that_does_not_strand(tmp_path):
    m = M.Market(2, 2, [[0, 1], [1]])
    out = tmp_path / "out.yaml"
    rep = report(tmp_path, m, "adversary", "--target", "x1", "--out", str(out))
    import yaml

    written = yaml.safe_load(out.read_text())
    checks.check_adversary(m, rep, "x1", written)
    written["preferences"]["y1"] = ["x1", "x0"]
    rep["preferences"] = written["preferences"]
    rejects(checks.check_adversary, m, rep, "x1", written)


# -- verify ----------------------------------------------------------------------


def test_verify_closed_forms():
    assert checks.closed_form_graph_counts(3) == (689, 531)


def test_verify_rejects_wrong_counts():
    rep = {
        "passed": True,
        "params": {"max_side": 3},
        "suites": [
            {"name": n, "passed": True, "counts": {"graphs": g}}
            for n, g in (("saturation", 689), ("perfection", 531), ("coverage", 0), ("oracle", 0))
        ],
    }
    checks.check_verify(rep)
    corrupt = copy.deepcopy(rep)
    corrupt["suites"][0]["counts"]["graphs"] = 688
    rejects(checks.check_verify, corrupt)
    corrupt = copy.deepcopy(rep)
    corrupt["passed"] = False
    rejects(checks.check_verify, corrupt)
