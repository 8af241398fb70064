"""Market file parsing, validation, and serialization."""

from __future__ import annotations

import glob
import os
import textwrap

import pytest

from conftest import X, Y
from satmatch.errors import MarketFormatError
from satmatch.graph import BipartiteGraph
from satmatch.market_io import (
    SCHEMA_VERSION,
    MarketFile,
    NameMap,
    dump_market,
    load_market,
    market_to_dict,
    market_with_preferences,
    parse_market,
    resolve_market,
    save_market,
)

MARKETS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "markets")


def _doc(body: str) -> str:
    return textwrap.dedent(body).lstrip()


BARE = _doc(
    """
    schema_version: "1"
    x_names: [ann, bob]
    y_names: [sew, cut]
    edges: [[ann, sew], [ann, cut], [bob, cut]]
    """
)

WITH_PREFS = _doc(
    """
    schema_version: "1"
    x_names: [ann, bob]
    y_names: [sew, cut]
    edges: [[ann, sew], [ann, cut], [bob, cut]]
    preferences:
      ann: [cut, sew]
      bob: [cut]
      sew: [ann]
      cut: [ann, bob]
    """
)

WITH_COMPAT = _doc(
    """
    schema_version: "1"
    x_names: [ann, bob, eve]
    y_names: [sew, cut]
    edges: [[ann, sew], [bob, sew], [bob, cut], [eve, cut]]
    compatibility:
      classes: [cloth, paper]
      x_membership:
        ann: [cloth]
        bob: [cloth, paper]
        eve: [paper]
      y_class:
        sew: cloth
        cut: paper
    """
)


def test_parse_bare_market():
    mf = parse_market(BARE)
    assert mf.schema_version == SCHEMA_VERSION
    assert mf.x_names == ["ann", "bob"]
    assert mf.y_names == ["sew", "cut"]
    assert mf.edges == [("ann", "sew"), ("ann", "cut"), ("bob", "cut")]
    assert mf.preferences is None
    assert mf.compatibility is None


def test_resolve_bare_market():
    bundle = resolve_market(parse_market(BARE))
    assert bundle.graph == BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 1)])
    assert bundle.instance is None
    assert bundle.compat is None
    assert bundle.names.vertex("bob") == X(1)
    assert bundle.names.vertex("sew") == Y(0)
    assert bundle.names.vertex("nobody") is None
    assert bundle.names.name(Y(1)) == "cut"


def test_resolve_preferences():
    bundle = resolve_market(parse_market(WITH_PREFS))
    assert bundle.instance.x_lists == ((1, 0), (1,))
    assert bundle.instance.y_lists == ((0,), (0, 1))


def test_resolve_compatibility():
    bundle = resolve_market(parse_market(WITH_COMPAT))
    assert bundle.compat is not None
    assert bundle.compat.n_classes == 2
    assert bundle.compat.x_membership == (
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({1}),
    )
    assert bundle.compat.y_class == (0, 1)


def test_integer_schema_version_is_tolerated():
    mf = parse_market(BARE.replace('"1"', "1"))
    assert mf.schema_version == "1"


def test_round_trip_preserves_everything():
    for text in (BARE, WITH_PREFS, WITH_COMPAT):
        mf = parse_market(text)
        again = parse_market(dump_market(mf))
        assert market_to_dict(again) == market_to_dict(mf)


def test_save_and_load(tmp_path):
    path = str(tmp_path / "m.yaml")
    save_market(parse_market(WITH_PREFS), path)
    bundle = load_market(path)
    assert bundle.instance is not None
    assert bundle.market.x_names == ["ann", "bob"]


def test_load_missing_file():
    with pytest.raises(MarketFormatError, match="no-such-market.yaml"):
        load_market("no-such-market.yaml")


def test_every_shipped_fixture_loads():
    paths = sorted(glob.glob(os.path.join(MARKETS_DIR, "*.yaml")))
    assert len(paths) >= 10
    for path in paths:
        bundle = load_market(path)
        assert bundle.graph.x_count == len(bundle.market.x_names)
        assert bundle.graph.y_count == len(bundle.market.y_names)


def test_invalid_yaml_reports_position():
    with pytest.raises(MarketFormatError, match="not valid YAML") as exc:
        parse_market("x_names: [a\nedges: oops", source="bad.yaml")
    assert exc.value.source == "bad.yaml"
    assert exc.value.line is not None
    assert exc.value.column is not None
    assert "bad.yaml:" in str(exc.value)


def test_non_mapping_document():
    with pytest.raises(MarketFormatError, match="must be a mapping"):
        parse_market("- just\n- a list\n")


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d + "extra_key: 1\n", "unknown key 'extra_key'"),
        (lambda d: d.replace("edges:", "links:"), "unknown key 'links'"),
        (lambda d: d.replace('schema_version: "1"\n', ""), "missing required key"),
        (lambda d: d.replace('"1"', '"2"'), "unsupported schema_version"),
        (lambda d: d.replace("[ann, bob]", "[ann, ann]"), "lists 'ann' twice"),
        (lambda d: d.replace("[sew, cut]", "[sew, ann]"), "appears on both sides"),
        (lambda d: d.replace("x_names: [ann, bob]", "x_names: [ann, 3]"),
         "nonempty strings"),
        (lambda d: d.replace("[bob, cut]", "[zoe, cut]"), "unknown X-vertex 'zoe'"),
        (lambda d: d.replace("[bob, cut]", "[bob, tie]"), "unknown Y-vertex 'tie'"),
        (lambda d: d.replace("[bob, cut]", "[ann, sew]"), "duplicate edge"),
        (lambda d: d.replace("edges: [", "edges: [[ann], "), "must be an .x, y. pair"),
        (lambda d: d.replace("[bob, cut]", "[[bob], cut]"), "endpoints must be nonempty"),
    ],
)
def test_structural_errors(mutate, message):
    with pytest.raises(MarketFormatError, match=message):
        parse_market(mutate(BARE))


def test_preferences_for_unknown_vertex():
    doc = WITH_PREFS.replace("ann: [cut, sew]", "zoe: [cut, sew]")
    with pytest.raises(MarketFormatError, match="unknown vertex 'zoe'"):
        parse_market(doc)


def test_preference_entry_unknown_vertex():
    doc = WITH_PREFS.replace("bob: [cut]", "bob: [tie]")
    with pytest.raises(MarketFormatError, match="unknown vertex 'tie'"):
        resolve_market(parse_market(doc))


@pytest.mark.parametrize(
    "mutate,message",
    [
        # missing table entry for cut
        (lambda d: d.replace("  cut: [ann, bob]\n", ""), "no preference list for cut"),
        # sew ranks a vertex that is not adjacent
        (lambda d: d.replace("sew: [ann]", "sew: [ann, bob]"),
         "bob, which is not adjacent"),
        # ann omits a neighbor
        (lambda d: d.replace("ann: [cut, sew]", "ann: [cut]"),
         "omits neighbor sew"),
        # duplicate entry
        (lambda d: d.replace("ann: [cut, sew]", "ann: [cut, cut, sew]"),
         "contains cut twice"),
        # same-side entry
        (lambda d: d.replace("ann: [cut, sew]", "ann: [bob, cut, sew]"),
         "same-side vertex bob"),
    ],
)
def test_preference_errors_use_display_names(mutate, message):
    with pytest.raises(MarketFormatError, match=message):
        resolve_market(parse_market(mutate(WITH_PREFS)))


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.replace("  x_membership:", "  extra: 1\n  x_membership:"),
         "unknown key 'extra'"),
        (lambda d: d.replace("  y_class:\n    sew: cloth\n    cut: paper\n", ""),
         "missing key 'y_class'"),
        (lambda d: d.replace("classes: [cloth, paper]", "classes: [cloth, cloth]"),
         "duplicates"),
        (lambda d: d.replace("    ann: [cloth]\n", ""),
         "x_membership missing 'ann'"),
        (lambda d: d.replace("ann: [cloth]", "ann: [cloth]\n    zoe: [paper]"),
         "unknown X-vertex 'zoe'"),
        (lambda d: d.replace("ann: [cloth]", "ann: [wool]"),
         "unknown class 'wool'"),
        (lambda d: d.replace("ann: [cloth]", "ann: [cloth, cloth]"),
         "lists a class twice"),
        (lambda d: d.replace("sew: cloth", "sew: wool"), "unknown class 'wool'"),
        (lambda d: d.replace("eve: [paper]", "eve: [paper, cloth]"),
         "class 'paper' has no exclusive member"),
    ],
)
def test_compatibility_block_errors(mutate, message):
    with pytest.raises(MarketFormatError, match=message):
        parse_market(mutate(WITH_COMPAT))


def test_compat_edges_must_include_induced():
    doc = WITH_COMPAT.replace("[bob, sew], ", "")
    with pytest.raises(MarketFormatError, match="edges omit .'bob', 'sew'."):
        resolve_market(parse_market(doc))


def test_compat_edges_must_not_exceed_induced():
    doc = WITH_COMPAT.replace("[eve, cut]", "[eve, cut], [ann, cut]")
    with pytest.raises(MarketFormatError, match="joins incompatible classes"):
        resolve_market(parse_market(doc))


def test_market_with_preferences_renders_names():
    bundle = resolve_market(parse_market(BARE))
    inst = resolve_market(parse_market(WITH_PREFS)).instance
    mf = market_with_preferences(bundle.market, bundle.names, inst)
    assert mf.preferences == {
        "ann": ["cut", "sew"],
        "bob": ["cut"],
        "sew": ["ann"],
        "cut": ["ann", "bob"],
    }
    # the rendered file is valid and round-trips to the same instance
    again = resolve_market(parse_market(dump_market(mf)))
    assert again.instance == inst


def test_name_map_rejects_nothing_but_returns_none():
    names = NameMap(["a"], ["b"])
    assert names.vertex("a") == X(0)
    assert names.vertex("missing") is None


def test_market_file_defaults():
    mf = MarketFile(
        schema_version=SCHEMA_VERSION,
        x_names=["a"],
        y_names=["b"],
        edges=[("a", "b")],
    )
    bundle = resolve_market(mf)
    assert bundle.graph.edge_count == 1
