"""End-to-end CLI behavior: reports, renderings, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from conftest import misreport_y_optimal
from satmatch import analysis, cli, compatibility, engine, harness, market_io, prefs
from satmatch.errors import EngineInvariantError, PreferenceError
from satmatch.graph import Matching, Side, Vertex
from satmatch.prefs import PreferenceInstance

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
MARKETS = os.path.join(ROOT, "markets")


def _market(name: str) -> str:
    return os.path.join(MARKETS, name)


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _checkout_env() -> dict[str, str]:
    """The environment of a fresh process that imports this checkout's
    satmatch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(ROOT, "src"), env.get("PYTHONPATH")))
    )
    return env


def _run_python(*argv: str) -> subprocess.CompletedProcess:
    """The interpreter with `argv`, in a fresh process that imports this
    checkout's satmatch."""
    return subprocess.run(
        [sys.executable, *argv],
        env=_checkout_env(),
        capture_output=True,
        text=True,
    )


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    """`python -m satmatch` with `argv`, in a fresh process."""
    return _run_python("-m", "satmatch", *argv)


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


def test_analyze_builds_an_instance_for_the_printed_side_only(capsys, monkeypatch):
    """Both sides of path4 fail; only side X's counterexample is printed,
    so only its instance is built."""
    built = []
    real = analysis.adversarial_instance

    def counting(graph, report):
        built.append(report.vertex)
        return real(graph, report)

    monkeypatch.setattr(cli.analysis, "adversarial_instance", counting)
    code, report = _structured(capsys, "analyze", _market("path4.yaml"), "--side", "x")
    assert code == 1
    assert not report["perfect"]["y_holds"]
    assert built == [Vertex(Side.X, 1)]


def test_analyze_decides_the_unprinted_side_only_up_to_its_first_failure(
    capsys, monkeypatch
):
    """hub_4x4's Y side has four distinct neighbourhoods, and y0, the first,
    can be stranded. analyze --side x searches X's three distinct
    neighbourhoods and then y0 alone; deciding Y whole would search all
    four of its neighbourhoods, seven searches in all."""
    searched = []
    real = analysis.vertex_report

    def counting(graph, v):
        searched.append(v)
        return real(graph, v)

    monkeypatch.setattr(analysis, "vertex_report", counting)
    code, report = _structured(capsys, "analyze", _market("hub_4x4.yaml"), "--side", "x")
    assert code == 1
    assert report["perfect"] == {"holds": False, "x_holds": False, "y_holds": False}
    x = [Vertex(Side.X, i) for i in range(3)]
    assert searched == x + [Vertex(Side.Y, 0)]


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


def test_analyze_text_marks_an_isolated_vertex(capsys, tmp_path):
    market = tmp_path / "iso.yaml"
    market.write_text(
        'schema_version: "1"\nx_names: [a, b]\ny_names: [c, d]\nedges: [[a, c]]\n'
    )
    for side, table in (
        ("x", ["a 1 1 yes c c guaranteed", "b 0 0 yes - - isolated",
               "isolated on side X: b"]),
        ("y", ["c 1 1 yes a a guaranteed", "d 0 0 yes - - isolated",
               "isolated on side Y: d"]),
    ):
        code, out, err = _run(capsys, "analyze", str(market), "--side", side)
        assert (code, err) == (1, "")
        lines = [" ".join(line.split()) for line in out.splitlines()]
        assert lines[1] == (
            f"every stable matching {side.upper()}-saturating for all preferences: NO"
        )
        assert lines[3:6] == table


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
    assert out.splitlines()[-3:] == [
        "every class covers its members: NO (cross-check consistent: yes)",
        "  class alpha: 2 members, 1 slot — DEFICIENT",
        "  class beta: 2 members, 1 slot — DEFICIENT",
    ]


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


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("propose", ["x", "y"])
def test_match_refuses_an_unstable_result(capsys, monkeypatch, fmt, propose):
    # x1 — y1 alone: x2 and y2, unmatched and adjacent, block it
    monkeypatch.setattr(
        engine, "deferred_acceptance", lambda g, p, proposing: Matching((0, None), 2)
    )
    code, out, err = _run(
        capsys, "match", _market("square_cycle.yaml"), "--propose", propose,
        "--format", fmt,
    )
    assert (code, out) == (4, "")
    assert err == (
        f"error: internal: EngineInvariantError: {propose.upper()}-proposing "
        f"deferred acceptance returned an unstable matching\n"
    )


def test_match_refuses_a_pair_that_is_not_an_edge(capsys, monkeypatch):
    # x1 — y2 and x2 — y1: x2 and y1 are not adjacent in path4
    monkeypatch.setattr(
        engine, "deferred_acceptance", lambda g, p, proposing: Matching((1, 0), 2)
    )
    code, out, err = _run(capsys, "match", _market("path4_rigged.yaml"))
    assert (code, out) == (4, "")
    assert err == (
        "error: internal: EngineInvariantError: X-proposing deferred "
        "acceptance returned an unstable matching\n"
    )


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


def test_enumerate_cap_out_inside_the_lattice_walk(capsys):
    # both deferred-acceptance runs make 4 proposals, and the walk scans 2
    # more list entries on its way from the X-optimal to the Y-optimal
    # matching; a cap of 4 or 5 is passed inside the walk
    argv = ["enumerate", _market("square_cycle.yaml"), "--cap"]
    for cap in (4, 5):
        code, out, err = _run(capsys, *argv, str(cap))
        assert (code, out) == (3, "")
        assert err == (
            f"error: stable-matching search visited 6 nodes, above the cap of {cap} "
            "(the instance has at most 4 stable matchings)\n"
        )
    code, out, _ = _run(capsys, *argv, "6")
    assert code == 0
    assert "stable matchings: 2 (6 search nodes, cap 6)" in out


def test_enumerate_exits_4_when_the_lattice_walk_passes_a_single_vertex(
    capsys, monkeypatch, tmp_path
):
    # a misreported Y-optimal run sends ann's scan past cat to dee, who is
    # single in the one stable matching, ann-cat
    path = tmp_path / "m.yaml"
    path.write_text(
        'schema_version: "1"\nx_names: [ann]\ny_names: [cat, dee]\n'
        "edges: [[ann, cat], [ann, dee]]\n"
        "preferences: {ann: [cat, dee], cat: [ann], dee: [ann]}\n"
    )
    misreport_y_optimal(monkeypatch, [1])
    code, out, err = _run(capsys, "enumerate", str(path))
    assert (code, out) == (4, "")
    assert err == (
        "error: internal: EngineInvariantError: x[0] passes y[1], single in a "
        "stable matching, before its Y-optimal partner — engine bug\n"
    )


def test_enumerate_cap_out_with_one_stable_matching_is_singular(capsys):
    code, out, err = _run(
        capsys, "enumerate", _market("single_pair.yaml"), "--cap", "0"
    )
    assert code == 3
    assert out == ""
    assert err == (
        "error: stable-matching search visited 2 nodes, above the cap of 0 "
        "(the instance has at most 1 stable matching)\n"
    )


def test_enumerate_refuses_a_negative_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", _market("square_cycle.yaml"), "--cap", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --cap: must be at least 0, got -1" in captured.err


def test_enumerate_refuses_a_cap_that_is_not_an_int(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", _market("square_cycle.yaml"), "--cap", "abc"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --cap: invalid int value: 'abc'" in captured.err


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


def test_adversary_text_names_the_file_it_wrote(capsys, tmp_path):
    out_path = str(tmp_path / "rigged.yaml")
    argv = ["adversary", _market("path4.yaml"), "--target", "x2"]
    code, out, err = _run(capsys, *argv, "--out", out_path)
    assert (code, err) == (0, "")
    assert f"\nmarket written to {out_path}\nemitted market:\n" in out
    with open(out_path, encoding="utf-8") as fh:
        written = fh.read()
    assert out.endswith("".join(f"  {line}\n" for line in written.splitlines()))
    _, unwritten, _ = _run(capsys, *argv)
    assert "market written to" not in unwritten


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


# Display names that look like indices: an X-vertex "y[0]", a Y-vertex "x[1]".
# Each market refuses the target "y[0]" for one reason, in check order.
_REFUSALS = {
    "isolated": (
        [("q", "x[1]")],
        "y[0] is isolated: it is unmatched in every matching already",
        ["y[0]"],
    ),
    "bounded": (
        [("y[0]", "x[1]")],
        "y[0] is guaranteed a partner in every stable matching: its "
        "1 claimant fits within its 1 option",
        ["y[0]"],
    ),
    "dedicated": (
        [("y[0]", "x[1]"), ("y[0]", "b"), ("q", "b"), ("r", "b")],
        "its neighbor x[1] has degree 1, dedicated to it",
        ["y[0]", "x[1]"],
    ),
    "blockade": (
        [("y[0]", "x[1]"), ("y[0]", "b"), ("y[0]", "c"), ("q", "x[1]"),
         ("q", "b"), ("r", "c"), ("r", "d"), ("s", "c"), ("s", "e")],
        "its options x[1], b have only 1 competitor besides it",
        ["y[0]", "x[1]"],
    ),
}


@pytest.mark.parametrize("reason", list(_REFUSALS))
def test_adversary_refusal_names_a_vertex_once(capsys, tmp_path, reason):
    edges, phrase, named = _REFUSALS[reason]
    xs = ["y[0]", "q", "r", "s"]
    ys = ["x[1]", "b", "c", "d", "e"]
    path = str(tmp_path / "names.yaml")
    market_io.save_market(market_io.MarketFile("1", xs, ys, edges), path)
    code, report = _structured(capsys, "adversary", path, "--target", "y[0]")
    assert code == 1
    refused = report["refused"]
    assert phrase in refused
    for name in named:
        assert refused.count(name) == 1, (name, refused)
    code, out, _ = _run(capsys, "adversary", path, "--target", "y[0]")
    assert code == 1
    assert f"refused: {refused}" in out


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


def test_adversary_confirmation_cap(capsys, tmp_path):
    emitted = tmp_path / "emitted.yaml"
    code, report = _structured(
        capsys,
        "adversary",
        _market("two_classes.yaml"),
        "--target",
        "ada",
        "--cap",
        "1",
        "--out",
        str(emitted),
    )
    assert code == 0  # the market still gets emitted; only confirmation skips
    assert emitted.read_text(encoding="utf-8") == report["market"]
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
    assert "confirmation skipped: search cap reached (at most 1 stable matching)\n" in out


def test_adversary_refuses_a_negative_cap_before_writing(capsys, tmp_path):
    out = tmp_path / "emitted.yaml"
    argv = ["adversary", _market("path4.yaml"), "--target", "x2"]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--cap", "-5", "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --cap: must be at least 0, got -5" in captured.err
    assert not out.exists()


def test_adversary_to_an_unwritable_path_exits_2(capsys, tmp_path):
    out = tmp_path / "no-such-dir" / "emitted.yaml"
    code, stdout, err = _run(
        capsys, "adversary", _market("path4.yaml"), "--target", "x2", "--out", str(out)
    )
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: cannot write --out: [Errno 2] No such file")
    assert len(err.splitlines()) == 1


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


def test_verify_with_no_sampling_budget_confirms_isolated_failures(capsys):
    # every graph has more instances than --cap 0 and --seeds 0 samples
    # none, so a verdict failing only at isolated vertices rests on its extra
    code, out, _ = _run(
        capsys, "verify", "--max-side", "1", "--cap", "0", "--seeds", "0", "--quiet"
    )
    assert code == 0, out
    assert "overall: all suites passed" in out


def test_verify_shows_ten_violations_per_category_and_reports_them_all(
    capsys, monkeypatch
):
    messages = [f"graph {k} is wrong" for k in range(12)]

    def failing_suite(**kwargs):
        return [
            harness.SuiteResult(
                name="saturation",
                counts={"graphs": 12},
                violations={"verdict": list(messages)},
            )
        ]

    monkeypatch.setattr(harness, "run_all", failing_suite)
    code, out, err = _run(capsys, "verify", "--quiet")
    assert code == 1
    assert out.splitlines()[1:] == [
        "[FAIL] saturation (0.0s): graphs 12",
        *(f"    verdict: {msg}" for msg in messages[:10]),
        "    verdict: ... 2 more violations",
        "overall: FAILURES above",
    ]
    assert err == ""
    code, report = _structured(capsys, "verify", "--quiet")
    assert code == 1
    assert report["passed"] is False
    assert report["suites"][0]["violations"] == {"verdict": messages}


def test_verify_progress_goes_to_stderr_and_counts_say_one_in_the_singular(
    capsys, monkeypatch
):
    def timeless(out):  # suite seconds differ from run to run
        return re.sub(r"\(\d+(\.\d+)?s\)", "(s)", out)

    code, out, err = _run(capsys, "verify", "--max-side", "2", "--seeds", "3")
    assert code == 0
    assert err.splitlines() == [
        "perfection: sides 0+0 done (1 graph)",
        "perfection: sides 1+1 done (3 graphs)",
        "perfection: sides 2+2 done (19 graphs)",
    ]
    code, quiet_out, quiet_err = _run(
        capsys, "verify", "--max-side", "2", "--seeds", "3", "--quiet"
    )
    assert code == 0
    assert timeless(quiet_out) == timeless(out)
    assert quiet_err == ""

    code, out, _ = _run(capsys, "verify", "--max-side", "1", "--seeds", "1", "--quiet")
    assert code == 0
    assert ", 1 sample seed, seed " in out.splitlines()[0]

    def failing_suite(**kwargs):
        messages = [f"graph {k} is wrong" for k in range(11)]
        return [
            harness.SuiteResult(
                name="saturation", counts={}, violations={"verdict": messages}
            )
        ]

    monkeypatch.setattr(harness, "run_all", failing_suite)
    code, out, _ = _run(capsys, "verify", "--quiet")
    assert code == 1
    assert "    verdict: ... 1 more violation\n" in out


def test_verify_refuses_an_unbounded_family_up_front(capsys, monkeypatch):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(harness, "saturation_suite", no_suite)
    code, out, err = _run(capsys, "verify", "--max-side", "5", "--quiet")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert "35794197 graphs" in err


@pytest.mark.parametrize(
    "flag, value, bound",
    [("--max-side", "-1", "max_side"), ("--seeds", "-3", "seeds"),
     ("--cap", "-1", "instance_cap")],
)
def test_verify_refuses_a_negative_bound(capsys, monkeypatch, flag, value, bound):
    # a negative bound checks nothing, so it must not pass as a release gate
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    for name in ("saturation", "perfection", "coverage", "oracle"):
        monkeypatch.setattr(harness, f"{name}_suite", no_suite)
    code, out, err = _run(capsys, "verify", flag, value, "--quiet")
    assert code == 2
    assert out == ""
    assert err == f"error: verify bound {bound} must be at least 0, got {value}\n"


def test_verify_help_shows_the_gate_defaults(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for flag, value in (
        ("--max-side MAX_SIDE", harness.DEFAULT_MAX_SIDE),
        ("--cap CAP", harness.DEFAULT_GATE_CAP),
        ("--seeds SEEDS", harness.DEFAULT_SEEDS),
    ):
        assert f"{flag} " in help_text
        assert f"(default: {value})" in help_text
    assert cli.build_parser().parse_args(["verify"]).seed == harness.DEFAULT_SEED


def test_importing_the_cli_leaves_the_release_gate_unloaded():
    # only `verify` needs harness, the largest module
    code = "import sys, satmatch.cli; print('satmatch.harness' in sys.modules)"
    proc = _run_python("-c", code)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


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


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_inconsistent_coverage_cross_check_exits_4(capsys, monkeypatch, fmt):
    real = compatibility.verdict_consistency

    def contradicting(market, saturation_holds):
        return replace(real(market, saturation_holds), consistent=False)

    monkeypatch.setattr(compatibility, "verdict_consistency", contradicting)
    code, out, err = _run(
        capsys, "analyze", _market("two_classes.yaml"), "--format", fmt
    )
    assert (code, out) == (4, "")
    assert err == (
        "error: internal: EngineInvariantError: the class-coverage verdict "
        "disagrees with the X-saturation verdict on the induced graph\n"
    )


@pytest.mark.parametrize(
    "name, verdict, wrong",
    [
        ("component", "component_perfect_verdict", analysis.ComponentVerdict(())),
        (
            "completeness",
            "connected_perfect_verdict",
            analysis.CompletenessVerdict(True, None),
        ),
    ],
)
def test_disagreeing_perfection_verdicts_exit_4(
    capsys, monkeypatch, name, verdict, wrong
):
    # path4 is connected and balanced, and not every stable matching is
    # perfect; each patched verdict says every one is
    monkeypatch.setattr(analysis, verdict, lambda graph: wrong)
    code, out, err = _run(capsys, "analyze", _market("path4.yaml"))
    assert (code, out) == (4, "")
    assert err == (
        f"error: internal: EngineInvariantError: the {name} perfection verdict "
        f"disagrees with the saturation verdicts of both sides\n"
    )


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_adversary_target_matched_in_a_stable_matching_exits_4(
    capsys, monkeypatch, tmp_path, fmt
):
    real = engine.enumerate_stable

    def leaky(g, instance, **kwargs):
        ss = real(g, instance, **kwargs)
        return replace(ss, matchings=ss.matchings + (engine.maximum_matching(g),))

    monkeypatch.setattr(engine, "enumerate_stable", leaky)
    emitted = tmp_path / "emitted.yaml"
    code, out, err = _run(
        capsys,
        "adversary",
        _market("path4.yaml"),
        "--target",
        "x2",
        "--format",
        fmt,
        "--out",
        str(emitted),
    )
    assert (code, out) == (4, "")
    assert err == (
        "error: internal: EngineInvariantError: the instance built to strand "
        "x2 matches it in some stable matching\n"
    )
    assert not emitted.exists()  # a failed confirmation writes no market


def test_adversary_certifies_its_instance_past_the_search_cap(
    capsys, monkeypatch, tmp_path
):
    # the ascending instance lets x2 match y2; --cap 1 stops the enumeration
    # before it could see that, so only the deferred-acceptance check does
    monkeypatch.setattr(
        cli.analysis,
        "adversarial_instance",
        lambda g, report: PreferenceInstance(g.x_adj, g.y_adj),
    )
    emitted = tmp_path / "emitted.yaml"
    argv = ["adversary", _market("path4.yaml"), "--target", "x2", "--cap", "1"]
    code, out, err = _run(capsys, *argv, "--out", str(emitted))
    assert (code, out) == (4, "")
    assert err == (
        "error: internal: EngineInvariantError: the instance built to strand "
        "x2 matches it in its X-optimal stable matching\n"
    )
    assert not emitted.exists()


def test_adversary_refuses_an_unstable_deferred_acceptance_result(
    capsys, monkeypatch, tmp_path
):
    def empty_matching(graph, instance, proposing=Side.X):
        return Matching([None] * graph.x_count, graph.y_count)

    monkeypatch.setattr(engine, "deferred_acceptance", empty_matching)
    emitted = tmp_path / "emitted.yaml"
    argv = ["adversary", _market("path4.yaml"), "--target", "x2", "--cap", "1"]
    code, out, err = _run(capsys, *argv, "--out", str(emitted))
    assert (code, out) == (4, "")
    assert err == (
        "error: internal: EngineInvariantError: X-proposing deferred "
        "acceptance returned an unstable matching\n"
    )
    assert not emitted.exists()


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_analyze_refuses_a_counterexample_that_matches_its_vertex(
    capsys, monkeypatch, fmt
):
    # y2, x2's only option, ranks x2 first, so every stable matching pairs them
    real = analysis.adversarial_instance
    built = []

    def target_first(graph, report):
        instance = real(graph, report)
        v = report.vertex
        u = graph.adjacency(v.side)[v.index][0]
        lists = [list(row) for row in instance.y_lists]
        lists[u] = [v.index] + [w for w in lists[u] if w != v.index]
        built.append((graph, v, PreferenceInstance(instance.x_lists, lists)))
        return built[-1][2]

    monkeypatch.setattr(analysis, "adversarial_instance", target_first)
    code, out, err = _run(capsys, "analyze", _market("path4.yaml"), "--format", fmt)
    assert (code, out) == (4, "")
    assert err == (
        "error: internal: EngineInvariantError: the instance built to strand "
        "x2 matches it in its X-optimal stable matching\n"
    )
    [(graph, v, instance)] = built
    assert v == Vertex(Side.X, 1)
    assert v.index in engine.enumerate_stable(graph, instance).matched_x


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_analyze_refuses_a_counterexample_with_swapped_champions(
    capsys, monkeypatch, fmt
):
    # weld's options ada and bea each get the other's champion; ada is not
    # adjacent to bea's. Only the champions' pass runs with no competitor
    # free; the verdict's own pass is left alone.
    real = analysis._absorb

    def swapped(comasks, row, mine, free):
        placed, found = real(comasks, row, mine, free)
        if placed and not free:
            first, second, *rest = found
            found = (second, first, *rest)
        return placed, found

    monkeypatch.setattr(analysis, "_absorb", swapped)
    path = _market("covered_classes.yaml")
    code, out, err = _run(capsys, "analyze", path, "--side", "y", "--format", fmt)
    assert (code, out) == (4, "")
    assert err == (
        "error: internal: EngineInvariantError: the instance built to strand "
        "weld does not rank exactly each vertex's neighbors\n"
    )
    # the swapped instance is no instance of the market, and with each list
    # cut down to the vertex's neighbors it lets weld match
    g = market_io.load_market(path).graph
    weld = Vertex(Side.Y, 0)
    instance = analysis.adversarial_instance(g, analysis.vertex_report(g, weld))
    table = {
        Vertex(side, i): [Vertex(side.opposite, u) for u in ranked]
        for side, lists in ((Side.X, instance.x_lists), (Side.Y, instance.y_lists))
        for i, ranked in enumerate(lists)
    }
    with pytest.raises(PreferenceError, match="not adjacent"):
        prefs.validate(g, table)
    cut = PreferenceInstance(
        *(
            [[u for u in ranked if u in row] for ranked, row in zip(lists, adj)]
            for lists, adj in ((instance.x_lists, g.x_adj), (instance.y_lists, g.y_adj))
        )
    )
    assert not engine.enumerate_stable(g, cut).always_unmatched(weld)


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_analyze_refuses_a_strandable_row_whose_matching_is_corrupt(
    capsys, monkeypatch, fmt
):
    # weld's kept matching gives ada to sand and bea to paint; swapped, ada
    # goes to paint, which is not adjacent to it
    real = analysis.vertex_report

    def swapped(graph, v):
        r = real(graph, v)
        if r.absorbers is None:
            return r
        first, second, *rest = r.absorbers
        return replace(r, absorbers=(second, first, *rest))

    monkeypatch.setattr(analysis, "vertex_report", swapped)
    path = _market("covered_classes.yaml")
    code, out, err = _run(capsys, "analyze", path, "--side", "y", "--format", fmt)
    assert (code, out) == (4, "")
    assert err == (
        "error: internal: EngineInvariantError: the absorbing matching of "
        "y[0] gives option x[0] to y[1], which is not adjacent to it\n"
    )


def _dropping_last_blockade_option(monkeypatch) -> None:
    """Patch analysis.vertex_report so every blockade loses its last option."""
    real = analysis.vertex_report

    def dropping(graph, v):
        r = real(graph, v)
        if r.blockade is None:
            return r
        return replace(r, blockade=r.blockade[:-1])

    monkeypatch.setattr(analysis, "vertex_report", dropping)


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_analyze_refuses_to_print_a_blockade_that_is_not_deficient(
    capsys, monkeypatch, fmt
):
    # in K(2,2) both options are a blockade, one option alone is not
    _dropping_last_blockade_option(monkeypatch)
    code, out, err = _run(
        capsys, "analyze", _market("twin_blocks.yaml"), "--format", fmt
    )
    assert (code, out) == (4, "")
    assert err == (
        "error: internal: EngineInvariantError: the blockade of x[0] is not "
        "deficient: 1 competitor besides it for 1 option\n"
    )


def test_adversary_refuses_to_print_a_blockade_that_is_not_deficient(
    capsys, monkeypatch
):
    _dropping_last_blockade_option(monkeypatch)
    code, out, err = _run(
        capsys, "adversary", _market("twin_blocks.yaml"), "--target", "x3"
    )
    assert (code, out) == (4, "")
    assert err == (
        "error: internal: EngineInvariantError: the blockade of x[2] is not "
        "deficient: 1 competitor besides it for 1 option\n"
    )


def test_a_blockade_outside_the_options_exits_4(capsys, monkeypatch):
    real = analysis.vertex_report

    def swapped(graph, v):
        r = real(graph, v)
        return replace(r, blockade=(r.blockade[0], Vertex(Side.Y, 2)))

    monkeypatch.setattr(analysis, "vertex_report", swapped)
    code, out, err = _run(
        capsys, "adversary", _market("twin_blocks.yaml"), "--target", "x1"
    )
    assert (code, out) == (4, "")
    assert err == (
        "error: internal: EngineInvariantError: the blockade of x[0] holds "
        "y[2], which is not an option of it\n"
    )


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: [\n")
    code, out, err = _run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_non_utf8_market_exits_2(capsys, tmp_path):
    bad = tmp_path / "bin.yaml"
    bad.write_bytes(b"\xff\xfe bad")
    code, out, err = _run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}:1:1: not UTF-8: byte 0xff")


def test_control_character_exits_2_at_its_position(capsys, tmp_path):
    bad = tmp_path / "ctl.yaml"
    bad.write_text('schema_version: "1"\nx_names: [a\x07]\n', encoding="utf-8")
    code, out, err = _run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}:2:12: not valid YAML: unacceptable character")
    assert len(err.splitlines()) == 1


def test_non_string_edge_endpoint_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        'schema_version: "1"\nx_names: [a]\ny_names: [b]\nedges: [[[a], b]]\n'
    )
    code, out, err = _run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert "endpoints must be nonempty strings" in err


_CLASSED = (
    'schema_version: "1"\nx_names: [a]\ny_names: [b]\nedges: [[a, b]]\n'
    "compatibility:\n  classes: [c]\n  x_membership:\n    a: [c]\n"
    "  y_class:\n    b: c\n"
)
_DEEP = "[" * 50 + "]" * 50  # deep, but within the nesting bound


@pytest.mark.parametrize(
    "old,new,at,message",
    [
        ("x_names: [a]", f"x_names: [a, {_DEEP}]", "2:14",
         "x_names entries must be nonempty strings, got [[[[[[[...]]]]]]]"),
        ("edges: [[a, b]]", f"edges: [{_DEEP}]", "4:9",
         "edge [[[[[[[...]]]]]]] must be an [x, y] pair"),
        ("edges: [[a, b]]", f"edges: [[{_DEEP}, b]]", "4:9",
         "edge [[[[[[[...]]]]]], 'b'] endpoints must be nonempty strings"),
        ('schema_version: "1"', f"schema_version: {_DEEP}", "1:1",
         "unsupported schema_version [[[[[[[...]]]]]]] (this build reads '1')"),
        ("    b: c", f"    b: {_DEEP}", "10:5",
         "compatibility.y_class['b'] names unknown class [[[[[[[...]]]]]]]"),
    ],
    ids=["x_names", "edge", "endpoint", "schema_version", "y_class"],
)
def test_deeply_nested_value_exits_2_at_its_position(
    capsys, tmp_path, old, new, at, message
):
    # the message shows the value cut off at a fixed depth; printing it
    # whole would recurse once per level and fail
    bad = tmp_path / "deep.yaml"
    bad.write_text(_CLASSED.replace(old, new))
    code, out, err = _run(capsys, "analyze", str(bad))
    assert (code, out, err) == (2, "", f"error: {bad}:{at}: {message}\n")


def _nest(depth: int) -> str:
    return "[" * depth + "]" * depth


@pytest.mark.parametrize(
    "old,new,at,message",
    [
        ("x_names: [a]", f"x_names: [a, {_nest(100_000)}]", "2:76",
         "nested deeper than 64 levels (a market needs 4)"),
        # an anchor leaves the document to yaml.load, after the same check
        ("x_names: [a]", f"x_names: &a [a, {_nest(100_000)}]", "2:79",
         "nested deeper than 64 levels (a market needs 4)"),
        ("x_names: [a]", f"x_names: [a, {_nest(9000)}]", "2:76",
         "nested deeper than 64 levels (a market needs 4)"),
        # the root mapping and x_names are 2 levels, so 62 more reach the bound
        ("x_names: [a]", f"x_names: [a, {_nest(62)}]", "2:14",
         "x_names entries must be nonempty strings, got [[[[[[[...]]]]]]]"),
    ],
    ids=["100000", "100000-anchored", "9000", "62"],
)
def test_nesting_exits_2_at_its_position_in_a_fresh_process(
    tmp_path, old, new, at, message
):
    # a fresh process, so that a crash of libyaml's recursive composer
    # fails this test instead of ending the test run
    bad = tmp_path / "deep.yaml"
    bad.write_text(_CLASSED.replace(old, new))
    proc = _run_module("analyze", str(bad))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: {bad}:{at}: {message}\n"
    )


def test_missing_market_file_exits_2(capsys):
    code, _, err = _run(capsys, "analyze", "does-not-exist.yaml")
    assert code == 2
    assert "error:" in err


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def _outcome(argv: list[str]) -> tuple:
    """Exit code, stdout and stderr of one `cli.main` call, a usage error's
    SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_the_parser_built_once_keeps_no_state_between_calls(monkeypatch):
    """Calls in one process through the parser built once give what a parser
    built afresh for each call gives: a default after an explicit value is
    the default again, and a usage error leaves the next call intact."""
    assert cli.build_parser() is cli.build_parser()
    calls = [
        ["analyze", _market("path5.yaml"), "--side", "y"],
        ["analyze", _market("path5.yaml")],
        ["enumerate", _market("square_cycle.yaml"), "--cap", "5"],
        ["enumerate", _market("square_cycle.yaml")],
        ["analyze", "--side", "y"],
        ["match", _market("square_cycle.yaml")],
    ]
    calls = [[*argv, "--format", "structured"] for argv in calls]
    once = [_outcome(argv) for argv in calls]
    assert [code for code, _, _ in once] == [1, 0, 3, 0, 2, 0]
    assert json.loads(once[1][1])["side"] == "x"
    assert json.loads(once[3][1])["cap"] == engine.DEFAULT_NODE_CAP
    assert once[4][1] == ""
    assert once[4][2].startswith("usage: satmatch analyze")
    assert "the following arguments are required: market" in once[4][2]

    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert [_outcome(argv) for argv in calls] == once


def test_module_invocation_matches_the_console_script():
    proc = _run_module("analyze", _market("path5.yaml"))
    assert proc.returncode == 0
    assert "YES" in proc.stdout


@pytest.mark.parametrize(
    "argv, want",
    [(("verify", "--max-side", "1", "--quiet"), 0), (("analyze", "path4.yaml"), 1)],
)
def test_a_closed_stdout_changes_no_exit_code(argv, want):
    # the reader closes the pipe before satmatch starts writing: no
    # BrokenPipeError traceback, and the command's own exit code
    argv = [_market(a) if a.endswith(".yaml") else a for a in argv]
    proc = subprocess.Popen(
        [sys.executable, "-m", "satmatch", *argv],
        env=_checkout_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (want, b"")


def test_structured_output_is_the_full_report(capsys):
    """Everything the text rendering mentions is already in the dict."""
    code, report = _structured(capsys, "analyze", _market("path4.yaml"))
    text = "\n".join(cli._render_analyze(report))
    for row in report["saturation"]["vertices"]:
        assert row["vertex"] in text
        assert str(row["options"]) in text
        assert str(row["claimants"]) in text
