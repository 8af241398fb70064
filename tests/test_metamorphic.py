"""Relations between the answers on two markets.

Side transposition: swapping X and Y in a market file swaps every answer.

The copy keeps every name and every preference list and reverses each
edge. Saturating Y in the original is saturating X in the copy, the stable
matchings are the same sets of pairs, and Y-proposing deferred acceptance
on the original is X-proposing deferred acceptance on the copy (Gale &
Shapley, Amer. Math. Monthly 69(1), 1962; Gusfield & Irving 1989, §1.2).
A class block describes X's memberships, so the copy drops it; the
saturation, perfection and matching sections do not read it.

Relabelling: giving each vertex another index changes no answer. The
copy lists each side's names, the edges and the preference keys in a drawn
order; every name keeps its lists and its classes. Hall's condition, the
claimant bound and a dedicated neighbor do not depend on order, so each
vertex's verdict and counts, and every exit code, are those of the same
name in the original. A blockade or a counterexample follows index order
and may differ, but each printed one must pass its certificate on the
copy. The stable matchings, and so each side's optimal one, are the same
sets of named pairs.

The `--out` round trip: the market `adversary --out` writes is the original
market with the stranding preferences, so it reads back to the same names,
edges and classes, both deferred-acceptance runs leave the target
unmatched (by the rural hospitals theorem every stable matching does), and
`analyze` answers on it as on the original. It is checked for every vertex
of the fixtures and of generated markets, with names that YAML must quote
or escape among them, and for three drawn vertices a side of one seeded
300x300 sparse market of the benchmark, as the benchmark writes it.

Transposition and relabelling are each checked on the fixtures, on
hypothesis markets up to 12x12, and on one seeded 300x300 sparse market
of the benchmark with random preferences.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import graph_with_instance
from test_market_io import _bench_markets
from test_valid_markets import markets
from satmatch import analysis, cli
from satmatch.graph import BipartiteGraph
from satmatch.market_io import (
    MarketBundle,
    MarketFile,
    dump_market,
    load_market,
    parse_market,
    resolve_market,
)
from satmatch.prefs import PreferenceInstance

MARKETS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "markets")
FIXTURES = sorted(f for f in os.listdir(MARKETS) if f.endswith(".yaml"))


def _transposed(mf: MarketFile) -> MarketFile:
    return MarketFile(
        schema_version=mf.schema_version,
        x_names=list(mf.y_names),
        y_names=list(mf.x_names),
        edges=[(y, x) for x, y in mf.edges],
        preferences=mf.preferences,
    )


def _structured(*argv: str) -> tuple[int, dict | None]:
    """The exit code and structured report of one command, or None for a
    report when it printed none (a market with no preferences block)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--format", "structured"])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def _pairs(pairs: list, reverse: bool = False) -> frozenset:
    return frozenset((b, a) if reverse else (a, b) for a, b in pairs)


def _check_transposition(text: str) -> None:
    mf = parse_market(text)
    with tempfile.TemporaryDirectory() as tmp:
        original = os.path.join(tmp, "original.yaml")
        copy = os.path.join(tmp, "copy.yaml")
        with open(original, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(copy, "w", encoding="utf-8") as fh:
            fh.write(dump_market(_transposed(mf)))

        for side in ("x", "y"):
            other = "y" if side == "x" else "x"
            code, theirs = _structured("analyze", original, "--side", side)
            copy_code, mine = _structured("analyze", copy, "--side", other)
            assert copy_code == code
            for report in (mine, theirs):
                del report["saturation"]["side"]
            # rows, holds, failing, isolated, and the counterexample as a
            # mapping from each name to its list
            assert mine["saturation"] == theirs["saturation"], side
            assert mine["perfect"] == {
                "holds": theirs["perfect"]["holds"],
                "x_holds": theirs["perfect"]["y_holds"],
                "y_holds": theirs["perfect"]["x_holds"],
            }
        if mf.preferences is None:
            return

        code, theirs = _structured("enumerate", original)
        copy_code, mine = _structured("enumerate", copy)
        assert code == copy_code == 0
        assert {_pairs(m["pairs"]) for m in mine["matchings"]} == {
            _pairs(m["pairs"], reverse=True) for m in theirs["matchings"]
        }
        assert mine["count"] == theirs["count"]
        assert (mine["matched_x"], mine["matched_y"]) == (
            theirs["matched_y"],
            theirs["matched_x"],
        )

        for side, other in (("x", "y"), ("y", "x")):
            code, theirs = _structured("match", original, "--propose", other)
            copy_code, mine = _structured("match", copy, "--propose", side)
            assert code == copy_code == 0
            assert _pairs(mine["pairs"]) == _pairs(theirs["pairs"], reverse=True)
            assert (mine["unmatched_x"], mine["unmatched_y"], mine["stable"]) == (
                theirs["unmatched_y"],
                theirs["unmatched_x"],
                theirs["stable"],
            )


def _market_text(case) -> str:
    """A hypothesis graph with its instance, as a market file."""
    g, instance = case
    xs = [f"a{i}" for i in range(g.x_count)]
    ys = [f"b{j}" for j in range(g.y_count)]
    preferences = {xs[i]: [ys[j] for j in lst] for i, lst in enumerate(instance.x_lists)}
    preferences.update(
        {ys[j]: [xs[i] for i in lst] for j, lst in enumerate(instance.y_lists)}
    )
    mf = MarketFile("1", xs, ys, [(xs[i], ys[j]) for i, j in g.edges()], preferences)
    return dump_market(mf)


def _sparse_case(seed: int):
    """A seeded 300x300 market of the benchmark, each X-vertex with 4
    neighbors, with random preferences: a hypothesis case far past 12x12."""
    bench = _bench_markets()
    rng = random.Random(seed)
    m = bench.with_random_prefs(bench.sparse(300, 4, rng), rng)
    return BipartiteGraph(m.x_count, m.y_count, m.edges), PreferenceInstance(
        m.x_lists, m.y_lists
    )


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_transposed_answers_for_the_other_side(fixture):
    with open(os.path.join(MARKETS, fixture), encoding="utf-8") as fh:
        _check_transposition(fh.read())


@given(graph_with_instance(12, 12))
@example(_sparse_case(300))
@settings(max_examples=100, deadline=None)
def test_market_transposed_answers_for_the_other_side(case):
    _check_transposition(_market_text(case))


def _relabelled(mf: MarketFile, rng: random.Random) -> MarketFile:
    def shuffled(items) -> list:
        items = list(items)
        rng.shuffle(items)
        return items

    preferences = mf.preferences
    if preferences is not None:
        preferences = {name: preferences[name] for name in shuffled(preferences)}
    return replace(
        mf,
        x_names=shuffled(mf.x_names),
        y_names=shuffled(mf.y_names),
        edges=shuffled(mf.edges),
        preferences=preferences,
    )


def _vertex_answers(report: dict) -> dict:
    """Each vertex's verdict and counts, by name: what a relabelling keeps."""
    return {
        row["vertex"]: (
            row["satisfied"],
            row["isolated"],
            row["options"],
            row["claimants"],
            row["bounded"],
            row["dedicated"] is not None,
        )
        for row in report["saturation"]["vertices"]
    }


def _certify_printed(report: dict, bundle: MarketBundle) -> None:
    """Recheck each blockade and the counterexample an `analyze` report
    prints against `bundle`'s market."""
    graph, vertex = bundle.graph, bundle.names.vertex
    for row in report["saturation"]["vertices"]:
        if row["blockade"] is not None:
            blockade = tuple(map(vertex, row["blockade"]))
            analysis.certify_blockade(
                graph,
                analysis.VertexReport(
                    vertex(row["vertex"]),
                    row["options"],
                    row["claimants"],
                    None,
                    blockade,
                    None,
                ),
            )
    counterexample = report["saturation"]["counterexample"]
    if counterexample is not None:
        stranding = resolve_market(
            replace(bundle.market, preferences=counterexample["preferences"])
        )
        analysis.certify_stranding(
            graph,
            stranding.instance,
            vertex(counterexample["vertex"]),
            bundle.names.name,
        )


def _matchings(report: dict) -> set:
    return {_pairs(m["pairs"]) for m in report["matchings"]}


def _check_relabelling(text: str, seed: int) -> None:
    mf = parse_market(text)
    with tempfile.TemporaryDirectory() as tmp:
        original = os.path.join(tmp, "original.yaml")
        copy = os.path.join(tmp, "copy.yaml")
        with open(original, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(copy, "w", encoding="utf-8") as fh:
            fh.write(dump_market(_relabelled(mf, random.Random(seed))))
        bundle = load_market(copy)

        for side in ("x", "y"):
            code, theirs = _structured("analyze", original, "--side", side)
            copy_code, mine = _structured("analyze", copy, "--side", side)
            assert copy_code == code, side
            assert _vertex_answers(mine) == _vertex_answers(theirs), side
            assert mine["perfect"] == theirs["perfect"]
            assert mine["coverage"] == theirs["coverage"]
            for report in (theirs, mine):
                _certify_printed(report, bundle)

        code, theirs = _structured("enumerate", original)
        copy_code, mine = _structured("enumerate", copy)
        assert copy_code == code
        if theirs is not None:
            assert mine["count"] == theirs["count"]
            assert _matchings(mine) == _matchings(theirs)

        for side in ("x", "y"):
            code, theirs = _structured("match", original, "--propose", side)
            copy_code, mine = _structured("match", copy, "--propose", side)
            assert copy_code == code, side
            if theirs is not None:
                assert _pairs(mine["pairs"]) == _pairs(theirs["pairs"])


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_relabelled_gives_the_same_answers(fixture):
    with open(os.path.join(MARKETS, fixture), encoding="utf-8") as fh:
        _check_relabelling(fh.read(), seed=FIXTURES.index(fixture))


@given(graph_with_instance(12, 12), st.integers(0, 2**32 - 1))
@example(_sparse_case(301), 7)
@settings(max_examples=100, deadline=None)
def test_market_relabelled_gives_the_same_answers(case, seed):
    _check_relabelling(_market_text(case), seed)


def _check_out_round_trip(original: str, tmp: str, targets=None) -> int:
    """Run `adversary --out` on every vertex of the market file `original`,
    or on those named in `targets`, writing into the directory `tmp`, and
    check each written market; the number of vertices stranded."""
    market = load_market(original).market
    analyzed = {side: _structured("analyze", original, "--side", side) for side in "xy"}
    stranded = 0
    for side, names in (("x", market.x_names), ("y", market.y_names)):
        for k, target in enumerate(names):
            if targets is not None and target not in targets:
                continue
            out = os.path.join(tmp, f"{side}{k}.yaml")
            code, report = _structured(
                "adversary", original, "--target", target, "--out", out
            )
            if code == 1:  # refused: the target cannot be stranded
                assert not os.path.exists(out)
                continue
            assert code == 0
            stranded += 1
            written = load_market(out).market
            assert written.x_names == market.x_names
            assert written.y_names == market.y_names
            assert written.edges == market.edges
            assert written.compatibility == market.compatibility
            assert written.preferences == report["preferences"]
            for propose in "xy":
                code, matched = _structured("match", out, "--propose", propose)
                assert code == 0
                assert target in matched[f"unmatched_{side}"], (out, propose)
            code, again = _structured("analyze", out, "--side", side)
            want_code, want = analyzed[side]
            assert code == want_code == 1, out
            assert {**again, "source": original} == want, out
    return stranded


def test_adversary_out_reads_back_and_strands_its_target(tmp_path):
    stranded = 0
    for fixture in FIXTURES:
        tmp = tmp_path / fixture
        tmp.mkdir()
        stranded += _check_out_round_trip(os.path.join(MARKETS, fixture), str(tmp))
    # every strandable vertex of the fixtures, as the golden file records
    assert stranded == 27


@given(markets())
@settings(max_examples=100, deadline=None)
def test_adversary_out_reads_back_on_generated_markets(text):
    # markets with preferences up to 8x8, with awkward and non-ASCII names
    with tempfile.TemporaryDirectory() as tmp:
        original = os.path.join(tmp, "market.yaml")
        with open(original, "w", encoding="utf-8") as fh:
            fh.write(text)
        _check_out_round_trip(original, tmp)


def test_adversary_out_reads_back_on_a_300x300_market(tmp_path):
    # 3 drawn vertices a side keep it to 6 adversary calls, not 600. Most
    # vertices of this market can be stranded, and all six drawn ones are
    bench = _bench_markets()
    rng = random.Random(302)
    m = bench.with_random_prefs(bench.sparse(300, 4, rng), rng)
    original = tmp_path / "sparse300.yaml"
    original.write_text(bench.to_yaml(m), encoding="utf-8")
    targets = {bench.xn(i) for i in rng.sample(range(m.x_count), 3)}
    targets |= {bench.yn(j) for j in rng.sample(range(m.y_count), 3)}
    assert _check_out_round_trip(str(original), str(tmp_path), targets) == 6
