"""End-to-end CLI behavior: reports, renderings, exit codes."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from satmatch import cli, engine, market_io
from satmatch.errors import EngineInvariantError

MARKETS = os.path.join(os.path.dirname(__file__), os.pardir, "markets")


def _market(name: str) -> str:
    return os.path.join(MARKETS, name)


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _structured(capsys, *argv: str) -> tuple[int, dict]:
    code, out, _ = _run(capsys, *argv, "--format", "structured")
    return code, json.loads(out)


# -- analyze -------------------------------------------------------------------


def test_analyze_path4_fails_at_x2(capsys):
    code, report = _structured(capsys, "analyze", _market("path4.yaml"))
    assert code == 1
    sat = report["saturation"]
    assert sat["side"] == "x"
    assert not sat["holds"]
    assert sat["failing"] == ["x2"]
    assert sat["isolated"] == []
    rows = {row["vertex"]: row for row in sat["vertices"]}
    assert rows["x1"]["bounded"] and rows["x1"]["blockade"] == ["y1"]
    assert rows["x2"]["options"] == 1
    assert rows["x2"]["claimants"] == 2
    assert not rows["x2"]["bounded"]
    assert rows["x2"]["dedicated"] is None
    assert rows["x2"]["blockade"] is None
    ce = sat["counterexample"]
    assert ce["vertex"] == "x2"
    assert ce["preferences"] == {
        "x1": ["y2", "y1"],
        "x2": ["y2"],
        "y1": ["x1"],
        "y2": ["x1", "x2"],
    }
    assert report["perfect"] == {"holds": False, "x_holds": False, "y_holds": False}
    assert report["completeness"] == {
        "applicable": True,
        "holds": False,
        "missing_edge": ["x2", "y1"],
    }
    assert report["components"]["applicable"]
    assert not report["components"]["holds"]
    assert report["coverage"] is None


def test_analyze_path4_text_rendering(capsys):
    code, out, err = _run(capsys, "analyze", _market("path4.yaml"))
    assert code == 1
    assert err == ""
    assert "every stable matching X-saturating for all preferences: NO" in out
    assert "can be stranded" in out
    assert "guaranteed" in out
    assert "counterexample stranding x2:" in out
    assert "x1: y2 > y1" in out
    assert "missing edge [x2, y1]" in out


def test_analyze_path5_holds(capsys):
    code, report = _structured(capsys, "analyze", _market("path5.yaml"))
    assert code == 0
    assert report["saturation"]["holds"]
    assert report["saturation"]["counterexample"] is None
    # 2+3 sides: the balanced-market sections do not apply
    assert not report["completeness"]["applicable"]
    assert not report["components"]["applicable"]
    code, out, _ = _run(capsys, "analyze", _market("path5.yaml"))
    assert code == 0
    assert "n/a" in out


def test_analyze_mixed_3x4(capsys):
    code, report = _structured(capsys, "analyze", _market("mixed_3x4.yaml"))
    assert code == 0
    rows = {row["vertex"]: row for row in report["saturation"]["vertices"]}
    assert rows["x3"]["dedicated"] == "y3"
    assert not rows["x3"]["bounded"]
    assert rows["x3"]["blockade"] == ["y3"]
    assert rows["x1"]["blockade"] == ["y1", "y4"]


def test_analyze_hub_fails_for_both_hub_dependents(capsys):
    code, report = _structured(capsys, "analyze", _market("hub_4x4.yaml"))
    assert code == 1
    assert report["saturation"]["failing"] == ["x2", "x4"]
    assert not report["perfect"]["holds"]


def test_analyze_twin_blocks_perfect(capsys):
    code, report = _structured(capsys, "analyze", _market("twin_blocks.yaml"))
    assert code == 0
    assert report["perfect"]["holds"]
    assert report["components"]["holds"]
    assert all(
        p["biclique"] and p["balanced"] for p in report["components"]["pieces"]
    )
    # disconnected: the connected-market section does not apply
    assert not report["completeness"]["applicable"]
    assert "connected" in report["completeness"]["reason"]


def test_analyze_lopsided_blocks(capsys):
    code, report = _structured(capsys, "analyze", _market("lopsided_blocks.yaml"))
    assert code == 1
    assert not report["components"]["holds"]
    pieces = report["components"]["pieces"]
    assert [(p["x"], p["y"]) for p in pieces] == [
        (["x1"], ["y1", "y2"]),
        (["x2", "x3"], ["y3"]),
    ]
    assert all(p["biclique"] and not p["balanced"] for p in pieces)


def test_analyze_y_side(capsys):
    code, report = _structured(
        capsys, "analyze", _market("path4.yaml"), "--side", "y"
    )
    assert code == 1
    assert report["saturation"]["side"] == "y"
    assert report["saturation"]["failing"] == ["y1"]


def test_analyze_two_classes_coverage(capsys):
    code, report = _structured(capsys, "analyze", _market("two_classes.yaml"))
    assert code == 1  # deficient classes let stable matchings strand ada
    coverage = report["coverage"]
    assert not coverage["holds"]
    assert coverage["consistent"]
    assert coverage["classes"] == [
        {"name": "alpha", "members": 2, "slots": 1, "covered": False},
        {"name": "beta", "members": 2, "slots": 1, "covered": False},
    ]
    code, out, _ = _run(capsys, "analyze", _market("two_classes.yaml"))
    assert "DEFICIENT" in out


def test_analyze_covered_classes(capsys):
    code, report = _structured(capsys, "analyze", _market("covered_classes.yaml"))
    assert code == 0
    assert report["saturation"]["holds"]
    coverage = report["coverage"]
    assert coverage["holds"]
    assert all(row["covered"] for row in coverage["classes"])


# -- match ---------------------------------------------------------------------


def test_match_square_cycle_x_proposing(capsys):
    code, report = _structured(capsys, "match", _market("square_cycle.yaml"))
    assert code == 0
    assert report["pairs"] == [["x1", "y1"], ["x2", "y2"]]
    assert report["stable"]
    assert report["unmatched_x"] == [] and report["unmatched_y"] == []


def test_match_square_cycle_y_proposing(capsys):
    code, report = _structured(
        capsys, "match", _market("square_cycle.yaml"), "--propose", "y"
    )
    assert code == 0
    assert report["pairs"] == [["x1", "y2"], ["x2", "y1"]]
    assert report["stable"]


def test_match_rigged_path_leaves_x2_out(capsys):
    code, report = _structured(capsys, "match", _market("path4_rigged.yaml"))
    assert code == 0
    assert report["pairs"] == [["x1", "y2"]]
    assert report["unmatched_x"] == ["x2"]
    assert report["unmatched_y"] == ["y1"]
    code, out, _ = _run(capsys, "match", _market("path4_rigged.yaml"))
    assert "x1 — y2" in out
    assert "unmatched X: x2" in out


def test_match_requires_preferences(capsys):
    code, out, err = _run(capsys, "match", _market("path4.yaml"))
    assert code == 2
    assert out == ""
    assert "no preferences block" in err


# -- enumerate -----------------------------------------------------------------


def test_enumerate_square_cycle(capsys):
    code, report = _structured(capsys, "enumerate", _market("square_cycle.yaml"))
    assert code == 0
    assert report["count"] == 2
    assert [m["pairs"] for m in report["matchings"]] == [
        [["x1", "y1"], ["x2", "y2"]],
        [["x1", "y2"], ["x2", "y1"]],
    ]
    assert report["x_saturating"] and report["y_saturating"]
    assert report["matched_x"] == ["x1", "x2"]


def test_enumerate_rigged_path(capsys):
    code, report = _structured(capsys, "enumerate", _market("path4_rigged.yaml"))
    assert code == 0
    assert report["count"] == 1
    assert report["matched_x"] == ["x1"]
    assert not report["x_saturating"]


def test_enumerate_tiny_cap(capsys):
    code, out, err = _run(
        capsys, "enumerate", _market("square_cycle.yaml"), "--cap", "1"
    )
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_enumerate_requires_preferences(capsys):
    code, _, err = _run(capsys, "enumerate", _market("path4.yaml"))
    assert code == 2
    assert "no preferences block" in err


# -- adversary -----------------------------------------------------------------


def test_adversary_strands_x2_and_writes_market(capsys, tmp_path):
    out_path = str(tmp_path / "rigged.yaml")
    code, report = _structured(
        capsys,
        "adversary",
        _market("path4.yaml"),
        "--target",
        "x2",
        "--out",
        out_path,
    )
    assert code == 0
    assert report["options"] == 1
    assert report["claimants"] == 2
    assert report["preferences"] == {
        "x1": ["y2", "y1"],
        "x2": ["y2"],
        "y1": ["x1"],
        "y2": ["x1", "x2"],
    }
    assert report["confirmation"] == {
        "within_cap": True,
        "stable_matchings": 1,
        "target_always_unmatched": True,
    }
    # the emitted file is a valid market whose stable matchings strand x2
    bundle = market_io.load_market(out_path)
    ss = engine.enumerate_stable(bundle.graph, bundle.instance)
    x2 = bundle.names.vertex("x2")
    assert all(m.partner(x2) is None for m in ss.matchings)


def test_adversary_inline_market_matches_file(capsys, tmp_path):
    out_path = str(tmp_path / "again.yaml")
    _, report = _structured(
        capsys,
        "adversary",
        _market("path4.yaml"),
        "--target",
        "x2",
        "--out",
        out_path,
    )
    with open(out_path, encoding="utf-8") as fh:
        assert fh.read() == report["market"]


def test_adversary_refuses_bounded_target_with_display_names(capsys):
    code, report = _structured(
        capsys, "adversary", _market("path4.yaml"), "--target", "x1"
    )
    assert code == 1
    assert "x1 is guaranteed a partner" in report["refused"]
    assert "2 claimants fit within its 2 options" in report["refused"]
    code, out, _ = _run(
        capsys, "adversary", _market("path4.yaml"), "--target", "x1"
    )
    assert code == 1
    assert "refused:" in out


def test_adversary_refuses_dedicated_target(capsys):
    code, report = _structured(
        capsys, "adversary", _market("mixed_3x4.yaml"), "--target", "x3"
    )
    assert code == 1
    assert "neighbor y3 has degree 1" in report["refused"]


def test_adversary_refusal_names_blockade_members(capsys, tmp_path):
    # the guarded graph: a1 fails both cheap certificates yet b1 and b2
    # share a2 as their only other suitor, so a1 can never be stranded
    mf = market_io.MarketFile(
        schema_version=market_io.SCHEMA_VERSION,
        x_names=["a1", "a2", "a3", "a4"],
        y_names=["b1", "b2", "b3", "b4", "b5"],
        edges=[
            ("a1", "b1"), ("a1", "b2"), ("a1", "b3"),
            ("a2", "b1"), ("a2", "b2"),
            ("a3", "b3"), ("a3", "b4"),
            ("a4", "b3"), ("a4", "b5"),
        ],
    )
    path = str(tmp_path / "guarded.yaml")
    market_io.save_market(mf, path)
    code, report = _structured(capsys, "adversary", path, "--target", "a1")
    assert code == 1
    assert "options b1, b2 have only 1 competitor besides it" in report["refused"]


def test_adversary_refusal_names_a_vertex_once(capsys, tmp_path):
    # an X-vertex whose display name looks like a Y-vertex index
    mf = market_io.MarketFile("1", ["y[0]", "q"], ["b1", "b2"], [("y[0]", "b1")])
    path = str(tmp_path / "names.yaml")
    market_io.save_market(mf, path)
    code, report = _structured(capsys, "adversary", path, "--target", "y[0]")
    assert code == 1
    assert report["refused"].startswith("y[0] is guaranteed a partner")


def test_adversary_confirms_on_a_dense_20x20_market(capsys, tmp_path):
    rng = random.Random("adversary/20x20")
    xs = [f"x{i}" for i in range(20)]
    ys = [f"y{j}" for j in range(20)]
    edges = [(x, y) for x in xs for y in ys if rng.random() < 0.5]
    path = str(tmp_path / "dense20.yaml")
    market_io.save_market(market_io.MarketFile("1", xs, ys, edges), path)
    code, report = _structured(capsys, "adversary", path, "--target", "x0")
    assert code == 0
    assert report["confirmation"]["within_cap"]
    assert report["confirmation"]["target_always_unmatched"]


def test_adversary_unknown_target(capsys):
    code, _, err = _run(
        capsys, "adversary", _market("path4.yaml"), "--target", "nobody"
    )
    assert code == 2
    assert "no vertex named 'nobody'" in err


def test_adversary_confirmation_cap(capsys):
    code, report = _structured(
        capsys,
        "adversary",
        _market("two_classes.yaml"),
        "--target",
        "ada",
        "--cap",
        "1",
    )
    assert code == 0  # the market still gets emitted; only confirmation skips
    # the stranding instance has exactly one stable matching
    assert report["confirmation"] == {"within_cap": False, "estimate": 1}
    code, out, _ = _run(
        capsys,
        "adversary",
        _market("two_classes.yaml"),
        "--target",
        "ada",
        "--cap",
        "1",
    )
    assert "confirmation skipped" in out


def test_adversary_strands_exclusive_class_member(capsys):
    code, report = _structured(
        capsys, "adversary", _market("two_classes.yaml"), "--target", "ada"
    )
    assert code == 0
    assert report["confirmation"]["target_always_unmatched"]


# -- verify ----------------------------------------------------------------------


def test_verify_tiny_scale(capsys):
    code, report = _structured(
        capsys,
        "verify",
        "--max-side", "1",
        "--seeds", "5",
        "--quiet",
    )
    assert code == 0
    assert report["passed"]
    assert [s["name"] for s in report["suites"]] == [
        "saturation",
        "perfection",
        "coverage",
        "oracle",
    ]
    assert all(s["passed"] for s in report["suites"])
    by_name = {s["name"]: s for s in report["suites"]}
    assert by_name["saturation"]["counts"]["graphs"] == 5
    assert by_name["oracle"]["counts"]["pairs"] == 25


def test_verify_text_rendering(capsys):
    code, out, err = _run(
        capsys, "verify", "--max-side", "1", "--seeds", "2", "--quiet"
    )
    assert code == 0
    assert out.count("[PASS]") == 4
    assert "overall: all suites passed" in out


# -- plumbing ------------------------------------------------------------------


def _diagonal_market(tmp_path) -> str:
    n = 1200
    xs = [f"x{i}" for i in range(n)]
    ys = [f"y{i}" for i in range(n)]
    prefs = {**{x: [y] for x, y in zip(xs, ys)}, **{y: [x] for x, y in zip(xs, ys)}}
    path = str(tmp_path / "diagonal.yaml")
    market_io.save_market(
        market_io.MarketFile("1", xs, ys, list(zip(xs, ys)), prefs), path
    )
    return path


def test_enumerate_long_diagonal(capsys, tmp_path):
    code, report = _structured(capsys, "enumerate", _diagonal_market(tmp_path))
    assert code == 0
    assert report["count"] == 1
    assert report["x_saturating"] and report["y_saturating"]


def test_internal_failure_exits_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise EngineInvariantError("matched sets differ across stable matchings")

    monkeypatch.setattr(engine, "enumerate_stable", broken)
    code, out, err = _run(capsys, "enumerate", _market("square_cycle.yaml"))
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal: EngineInvariantError: ")
    assert len(err.splitlines()) == 1


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: [\n")
    code, out, err = _run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_missing_market_file_exits_2(capsys):
    code, _, err = _run(capsys, "analyze", "does-not-exist.yaml")
    assert code == 2
    assert "error:" in err


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_module_invocation_matches_the_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "satmatch", "analyze", _market("path5.yaml")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "YES" in proc.stdout


def test_structured_output_is_the_full_report(capsys):
    """Everything the text rendering mentions is already in the dict."""
    code, report = _structured(capsys, "analyze", _market("path4.yaml"))
    text = "\n".join(cli._render_analyze(report))
    for row in report["saturation"]["vertices"]:
        assert row["vertex"] in text
        assert str(row["options"]) in text
        assert str(row["claimants"]) in text
