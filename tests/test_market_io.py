"""Market file parsing, validation, and serialization."""

from __future__ import annotations

import gc
import glob
import importlib.util
import os
import random
import re
import sys
import textwrap
from dataclasses import replace

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import X, Y, graphs, scan
from satmatch import market_io, prefs
from satmatch.errors import MarketFormatError, PreferenceError
from satmatch.graph import BipartiteGraph
from satmatch.market_io import (
    SCHEMA_VERSION,
    MarketFile,
    NameMap,
    dump_market,
    load_market,
    parse_market,
    preference_table,
    resolve_market,
    save_market,
)

MARKETS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "markets")


def _doc(body: str) -> str:
    return textwrap.dedent(body).lstrip()


def _each_loader(monkeypatch):
    """Yield the name of the YAML classes in use: first market_io's own
    (libyaml when PyYAML has it), then PyYAML's pure-Python ones, so the
    fallback for a build without libyaml stays tested."""
    yield market_io._Loader.__name__
    monkeypatch.setattr(market_io, "_Loader", yaml.SafeLoader)
    monkeypatch.setattr(market_io, "_Dumper", yaml.SafeDumper)
    yield "SafeLoader"
    monkeypatch.undo()


def _load_text(tmp_path, text: str):
    path = tmp_path / "m.yaml"
    path.write_text(text, encoding="utf-8")
    return load_market(str(path))


def _assert_at(error: MarketFormatError, source: str, line: int, column: int):
    assert (error.line, error.column) == (line, column), str(error)
    assert str(error).startswith(f"{source}:{line}:{column}: "), str(error)


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


def test_round_trip_preserves_everything(monkeypatch):
    for _ in _each_loader(monkeypatch):
        for text in (BARE, WITH_PREFS, WITH_COMPAT):
            mf = parse_market(text)
            assert parse_market(dump_market(mf)) == mf


AWKWARD_NAMES = ["é", "名前", "yes", "null", "1e3", "a: b", "#c", "'q'",
                 "n" * 200, "tab\there"]


def test_dump_matches_safe_dump_on_awkward_names(monkeypatch):
    xs, ys = AWKWARD_NAMES[:5], AWKWARD_NAMES[5:]
    mf = MarketFile(
        schema_version=SCHEMA_VERSION,
        x_names=xs,
        y_names=ys,
        edges=[(x, y) for x in xs for y in ys if (len(x) + len(y)) % 2],
        preferences={n: [] for n in AWKWARD_NAMES},
    )
    for edge in mf.edges:
        mf.preferences[edge[0]].append(edge[1])
        mf.preferences[edge[1]].insert(0, edge[0])
    document = {
        "schema_version": SCHEMA_VERSION,
        "x_names": xs,
        "y_names": ys,
        "edges": [list(e) for e in mf.edges],
        "preferences": mf.preferences,
    }
    expected = yaml.safe_dump(document, sort_keys=False, default_flow_style=None)
    for loader in _each_loader(monkeypatch):
        text = dump_market(mf)
        assert text == expected, loader
        assert parse_market(text) == mf, loader
        resolve_market(parse_market(text))


def test_libyaml_is_used_when_present():
    # the pure-Python classes are 5-7x slower on large markets
    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    assert market_io._Loader is yaml.CSafeLoader
    assert market_io._Dumper is yaml.CSafeDumper


def test_save_and_load(tmp_path):
    path = str(tmp_path / "m.yaml")
    save_market(parse_market(WITH_PREFS), path)
    bundle = load_market(path)
    assert bundle.instance is not None
    assert bundle.market.x_names == ["ann", "bob"]


def test_load_missing_file():
    with pytest.raises(MarketFormatError, match="no-such-market.yaml"):
        load_market("no-such-market.yaml")


def test_non_utf8_file_names_the_first_bad_byte(tmp_path):
    for raw, line, column in (
        (b"\xff\xfe bad", 1, 1),
        (b'schema_version: "1"\nx_names: [\xc3\xa9, b\xe9]\n', 2, 15),
    ):
        path = tmp_path / "bin.yaml"
        path.write_bytes(raw)
        with pytest.raises(MarketFormatError, match="not UTF-8") as exc:
            load_market(str(path))
        _assert_at(exc.value, str(path), line, column)


@pytest.mark.parametrize("collecting", [True, False])
def test_parse_pauses_the_collector_and_restores_it(collecting, tmp_path, monkeypatch):
    """The cyclic collector is off while each document is read, by the line
    scanner or, for text outside its subset, by yaml.load after a pass over
    its YAML events, and afterwards in the state the caller left it, on
    success and on every error path: a YAML syntax error, a validation
    error and a failing load_market. The scanner makes plain scalars
    through _plain, which is watched for the scan; get_event is watched
    for the events, which only the syntax error needs."""
    outcomes = (
        (lambda: parse_market(BARE), False),
        (lambda: parse_market("x_names: [a\nedges: oops"), True),
        (lambda: parse_market(BARE.replace("[ann, bob]", "[ann, ann]")), False),
        (lambda: _load_text(tmp_path, WITH_PREFS.replace("bob: [cut]", "bob: [tie]")),
         False),
    )
    plain = market_io._plain
    if not collecting:
        gc.disable()
    try:
        for loader in _each_loader(monkeypatch):
            scanned, read = [], []

            def spy_plain(yaml_loader, value):
                scanned.append(gc.isenabled())
                return plain(yaml_loader, value)

            class Spy(market_io._Loader):
                def get_event(self):
                    read.append(gc.isenabled())
                    return super().get_event()

            monkeypatch.setattr(market_io, "_plain", spy_plain)
            monkeypatch.setattr(market_io, "_Loader", Spy)
            # _located reads the text again to place an error, after the
            # document is built; it is not what this test watches
            monkeypatch.setattr(market_io, "_located", lambda error, text: error)
            for outcome, falls_back in outcomes:
                scanned.clear()
                read.clear()
                try:
                    outcome()
                except MarketFormatError:
                    pass
                assert gc.isenabled() == collecting, loader
                assert scanned and not any(scanned), loader
                assert bool(read) == falls_back and not any(read), loader
    finally:
        gc.enable()


def test_every_shipped_fixture_loads():
    paths = sorted(glob.glob(os.path.join(MARKETS_DIR, "*.yaml")))
    assert len(paths) >= 10
    for path in paths:
        bundle = load_market(path)
        assert bundle.graph.x_count == len(bundle.market.x_names)
        assert bundle.graph.y_count == len(bundle.market.y_names)


def _yaml_outcome(load, text: str):
    """What `load` makes of `text`: its data, or the type and message of
    the YAML error it raises, whose message includes the mark."""
    try:
        return load(text)
    except (yaml.YAMLError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize(
    "text,scanned",
    [
        ("", False),
        ("# only a comment\n", False),
        ("a: [x, '1', 1, 0x1F, 1_000, 0o7, 017, 190:20:30, +5]", False),
        ("a: 1\nb: 2\na: [3]\n", True),  # the last equal key wins
        ("? 1\n: one\n? 0x1\n: again\n", False),
        ("a: ! 1\nb: ! [x]\n", False),
        ("a: yes", False),
        ("a: no", False),
        ("a: on", False),
        ("a: null", False),
        ("a: ~", False),
        ("a: 2001-12-14", False),
        ("a: .inf", False),
        ("a: 1.5", False),
        ("a: &x [1, 2]\nb: *x\n", False),
        ("&top\na: 1\n", False),
        ("base: &b {x: 1}\nc:\n  <<: *b\n  y: 2\n", False),
        ("<<: {x: 1}\nx: 2\n", False),
        ("a: !!str 1", False),
        ("a: !!seq [1]", False),
        ("=: 1", False),
        ("---\n...\n", False),
        ("a: 0x_", False),
        ("[1]: 2", False),
        ("? {k: v}\n: 2\n", False),
        ("--- 1\n--- 2\n", False),
        ("--- [1\n--- 2\n", False),
        ("a: *nowhere\nb: [\n", False),
        ("a: &x 1\nb: &x 2\nc: {\n", False),
        ("a: !foo 1", False),
    ],
)
def test_builder_equals_yaml_load(text, scanned, monkeypatch):
    """_load gives what yaml.load gives, data or error at the same mark;
    `scanned` says whether the line scanner reads the text or leaves it to
    yaml.load (YAML 1.1 scalars other than str and int, anchors, aliases,
    merge keys, tags, complex keys, a second document, no mapping)."""
    for loader in _each_loader(monkeypatch):
        expected = _yaml_outcome(lambda t: yaml.load(t, Loader=market_io._Loader), text)
        got = _yaml_outcome(lambda t: market_io._load(t, "s"), text)
        assert got == expected, loader
        assert (scan(text) is not None) == scanned, loader


def test_builder_and_fallback_refuse_nesting_past_the_bound(monkeypatch):
    """One level past _MAX_DEPTH is refused at its own position, with or
    without an anchor before it; at the bound yaml.load builds the
    document."""
    bound = market_io._MAX_DEPTH
    for loader in _each_loader(monkeypatch):
        for head in ("", "&a "):
            text = f"{head}x: " + "[" * bound + "]" * bound
            with pytest.raises(MarketFormatError) as exc:
                market_io._load(text, "deep.yaml")
            _assert_at(exc.value, "deep.yaml", 1, 4 + len(head) + bound - 1)
            assert f"nested deeper than {bound} levels" in exc.value.message
        text = "x: " + "[" * (bound - 1) + "]" * (bound - 1)
        value, depth = market_io._load(text, "s")["x"], 2
        while value:  # comparing the lists would recurse once per level
            value, depth = value[0], depth + 1
        assert depth == bound, loader


def test_pure_python_loader_refuses_a_market_nested_1000_levels(monkeypatch):
    """PyYAML's pure-Python composer recurses once per level and runs out of
    Python stack near 1,000 levels; the bound refuses such a market first."""
    monkeypatch.setattr(market_io, "_Loader", yaml.SafeLoader)
    deep = "[" * 1000 + "]" * 1000
    text = BARE.replace("x_names: [ann", f"x_names: [{deep}, ann")
    assert text != BARE
    with pytest.raises(MarketFormatError) as exc:
        parse_market(text, source="deep.yaml")
    _assert_at(exc.value, "deep.yaml", 2, 73)
    assert exc.value.message == "nested deeper than 64 levels (a market needs 4)"


def _bench_markets():
    """perfbench/markets.py: the benchmark's seeded generators and its own
    YAML writer, which shares no code with market_io."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "markets.py")
    spec = importlib.util.spec_from_file_location("perfbench_markets", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _writer_outputs() -> list[str]:
    """Every fixture and dump_market of it, and seeded markets as the
    benchmark writes them and as dump_market writes them, one of them with
    names long enough that yaml.dump wraps a list right after its "["."""
    texts = []
    for path in sorted(glob.glob(os.path.join(MARKETS_DIR, "*.yaml"))):
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    bench = _bench_markets()
    for seed in range(3):
        rng = random.Random(seed)
        for market in (
            bench.with_random_prefs(bench.sparse(12, 3, rng), rng),
            bench.classes_market(4, 3, 3, 4, rng),
            bench.with_random_prefs(bench.dense(9, 7, 0.5, rng), rng),
        ):
            texts.append(bench.to_yaml(market))
    texts += [dump_market(parse_market(text)) for text in texts]
    long = MarketFile(SCHEMA_VERSION, ["a" * 90, "b"], ["c" * 85], [("a" * 90, "c" * 85)])
    long.preferences = {"a" * 90: ["c" * 85], "b": [], "c" * 85: ["a" * 90]}
    texts.append(dump_market(long))
    return texts


def _data(text: str) -> str:
    """What yaml.load makes of `text`, as its repr: the repr tells 1 from
    1.0 and True, and shows the order of every mapping's keys."""
    return repr(_yaml_outcome(lambda t: yaml.load(t, Loader=market_io._Loader), text))


def _noted(text: str) -> str:
    """`text` with " # note" at the end of each line that holds a value or
    a key and no quote."""
    return "".join(
        line if "'" in line or '"' in line or not line.strip(" \n") or "#" in line
        else line.replace("\n", " # note\n")
        for line in text.splitlines(keepends=True)
    )


def test_scanner_reads_every_writer_output_as_yaml_load_does(monkeypatch):
    """Every file the package or the benchmark writes stays on the scanner,
    so a writer change that leaves its subset fails here; so does its copy
    with CR LF line ends and its copy with a comment after each value."""
    texts = _writer_outputs()
    assert any("[\n" in text for text in texts)
    assert all(" # note\n" in _noted(text) for text in texts)
    for loader in _each_loader(monkeypatch):
        for text in texts:
            for copy in (text, text.replace("\n", "\r\n"), _noted(text)):
                data = scan(copy)
                assert data is not None, (loader, copy[:300])
                assert repr(data) == _data(copy) == _data(text), loader


_INDICATORS = [*"-?:,[]{}#&*!|>'\"%@`~ \n\t\r\\", "---", "- ", ": ", "\n  ", "1.5", "yes",
               "\r\n", " # c"]


def _mutant(text: str, rng: random.Random) -> str:
    lines = text.split("\n")
    k = rng.randrange(len(lines))
    kind = rng.randrange(9)
    at = rng.randrange(len(text))
    if kind == 0:
        return text[:at] + rng.choice(_INDICATORS) + text[at:]
    if kind == 1:
        return text[:at] + text[at + rng.randint(1, 3) :]
    if kind == 2:
        return text[:at] + rng.choice(_INDICATORS) + text[at + 1 :]
    if kind == 3:
        return "---\n" + text
    if kind == 4:
        return text.replace("\n", "\r\n")
    if kind == 5:
        lines.insert(k, lines[k])
    elif kind == 6:
        shift = rng.choice((-2, -1, 1, 2))
        lines[k] = " " * shift + lines[k] if shift > 0 else lines[k][-shift:]
    elif kind == 7:
        lines[k] += " # c"
    else:  # past YAML's 1,024 characters for a key
        name = rng.choice(re.findall(r"[a-z][a-z0-9_]*", text))
        return text.replace(name, "n" * 1030, rng.choice((1, 2, -1)))
    return "\n".join(lines)


@pytest.mark.parametrize(
    "text,scanned",
    [
        ("a:\n- x\nb: [y, 'z', \"w\"]\n", True),  # an indentless sequence ends
        ("a:\n  b:\n  - x\n  c: {d: e, 'f': 1}\n", True),
        ("a:\n    - [x,\n      y]\n", True),
        ("a: [b,\n  c]\n", True),
        ("a: [\n  b, c]\n", True),
        ("a: [[b, c], [], [d]]\n", True),
        ("'a': 'yes'\n\"b\": 0x1F\n", True),
        ("a: [1, 017, 1_000, b-c.d]\n", True),
        ("a: [b,\nc]\n", False),  # goes on at the indent of its key
        ("a: [b,\n\n  c]\n", False),
        ("a: [b,\n  # c\n  d]\n", False),
        ("a: [b, # c\n  d] # e\n", True),
        ("a: ['b,\n  c']\n", False),
        ("a: [b, c] # c\n", True),
        ("a: b # c\n", True),
        ("a: # c\n  - b #c\n", True),
        ("a: b #c # d\n", True),
        ("a: b#c\n", False),  # "#" after no space: a scalar YAML reads, not plain
        ("a: [b,#c]\n", False),
        ("a: 'b' # c\n", False),  # a value with a quote keeps its "#"
        ("'a': b # c\n", True),
        ("a: 'b #c'\n", True),
        ("- # c\n", False),
        ("a: [b,]\n", False),
        ("a: [[[b]]]\n", False),
        ("a: [{b: c}]\n", False),
        ("a: {b: [c]}\n", False),
        ("a: {b:c}\n", False),
        ("a: b: c\n", False),
        ("a: b\n  c\n", False),
        ("a:\n  b: 1\n c: 2\n", False),
        ("a:\nb: 1\n", False),
        ("a:\n", False),
        ("a:\n  b:\n    c:\n      d: 1\n", True),  # 4 block levels
        ("a:\n  b:\n    c:\n      d:\n        e: 1\n", False),
        ("a: 1.5\n", False),
        ("a: [yes]\n", False),
        ("a: \"b\\tc\"\n", False),
        ("\"a\\tb\": 1\n", False),
        ("'a''b': 1\n", False),
        ("a: &x 1\n", False),
        ("a: *x\n", False),
        ("a: !!str 1\n", False),
        ("---\na: 1\n", True),
        ("---\r\na: 1\r\n", True),
        ("--- \na: 1\n", False),
        ("--- # c\na: 1\n", False),
        ("# c\n---\na: 1\n", False),
        ("---\n", False),
        ("a: 1\n---\nb: 2\n", False),
        ("%YAML 1.1\n---\na: 1\n", False),
        ("a: 1\n...\n", False),
        ("a: 1\r\n", True),
        ("a: [b,\r\n  c]\r\nd: 'e'\r\n", True),
        ("a: 1\rb: 2\n", False),  # a lone CR ends a line too, but is not plain
        ("a: 1\r\r\n", False),
        ("a:\tb\n", False),
        ("a: \u00e9\n", False),
        ("a: b\x07\n", False),
        ("n" * 1001 + ": 1\n", False),
        ("a: {" + "n" * 1001 + ": 1}\n", False),
        ("- a\n", False),
        ("  a: 1\n", False),
        ("# only a comment\n", False),
        ("", False),
    ],
)
def test_scanner_equals_yaml_load_or_leaves_the_text_to_it(text, scanned, monkeypatch):
    """Each rule of the subset, on both sides of its edge: `scanned` says
    whether the scanner reads the text itself."""
    for loader in _each_loader(monkeypatch):
        data = scan(text)
        assert (data is not None) == scanned, loader
        if scanned:
            assert repr(data) == _data(text), loader


# in the subset, though no writer writes it: quoted keys and values, a flow
# mapping, a list of lists, a comment and a blank line
HAND_WRITTEN = _doc(
    """
    'schema_version': "1"
    "x_names": ['ann', bob]

    # the edges as one list of pairs
    y_names: [sew, "cut"]
    edges: [[ann, sew], ['ann', cut],
      [bob, cut]]
    compatibility: {classes: 'k', "x_membership": 0x1F}
    """
)


def test_scanner_mutants_fall_back_or_equal_yaml_load(monkeypatch):
    """Seeded edits of the writer outputs and of HAND_WRITTEN: an indicator
    inserted, deleted or put in place of a character, a "---" line put
    first, CR LF line ends, a line repeated, re-indented or ended by a
    comment, a name made 1,030 characters long. _load must give what
    yaml.load gives for each, data or error, and the scanner must read a
    fair share of them. PyYAML's pure-Python loader is about six times
    slower, so it checks fewer."""
    texts = _writer_outputs() + [HAND_WRITTEN] * 10
    assert scan(HAND_WRITTEN) is not None
    for loader in _each_loader(monkeypatch):
        rng = random.Random(28)
        count = 300 if loader == "SafeLoader" else 1500
        scanned = 0
        for _ in range(count):
            text = rng.choice(texts)
            for _ in range(rng.randint(1, 2)):
                text = _mutant(text, rng)
            scanned += scan(text) is not None
            got = _yaml_outcome(lambda t: market_io._load(t, "s"), text)
            assert repr(got) == _data(text), (loader, text)
        assert scanned > count // 5, loader


@pytest.mark.parametrize(
    "old,new,message",
    [
        # a nest the scanner once read whole: composing it again to place
        # the validation error crashed libyaml's recursive composer
        ("[ann, bob]", f"[ann, {'[' * 100_000}{']' * 100_000}]",
         "2:78: nested deeper than 64 levels (a market needs 4)"),
        ("[ann, bob]", "[ann, [[bob]]]",
         "2:16: x_names entries must be nonempty strings, got [['bob']]"),
        # a key YAML refuses, which the scanner once read
        ("x_names:", f"{'n' * 1100}: 1\nx_names:",
         "2:1101: not valid YAML: could not find expected ':'"),
    ],
    ids=["100000-deep", "3-deep", "1100-character-key"],
)
def test_scanner_leaves_deep_nests_and_long_keys_to_yaml(old, new, message):
    text = BARE.replace(old, new)
    assert text != BARE
    assert scan(text) is None
    with pytest.raises(MarketFormatError) as exc:
        parse_market(text, source="m.yaml")
    assert str(exc.value) == f"m.yaml:{message}"


def test_invalid_yaml_reports_position(monkeypatch):
    for loader in _each_loader(monkeypatch):
        for text, line, column in (
            ("x_names: [a\nedges: oops", 2, 6),
            ("edges: [[a, b]]\n  x: 1\n", 2, 3),
            ("edges: [[a, b]: c\n", 2, 1),
            ("x_names: [a]\n- b\n", 2, 1),
            ("x_names: &n [a]\ny_names: *m\n", 2, 10),
            ("x_names: [a]\ny_names: 'b\n", 3, 1),
            # characters YAML does not accept: libyaml counts their position
            # in bytes, PyYAML in characters, and neither gives a line
            ("x_names: [a\x07]", 1, 12),
            ("x: [\u00e9\u00e9]\r\ny: [\u00e9\x07]\n", 2, 6),
            ("x: [a]\r\ry: [\x85 b\x1b]", 4, 3),
        ):
            with pytest.raises(MarketFormatError, match="not valid YAML") as exc:
                parse_market(text, source="bad.yaml")
            assert exc.value.source == "bad.yaml"
            assert (exc.value.line, exc.value.column) == (line, column), loader
            assert str(exc.value).startswith(f"bad.yaml:{line}:{column}: ")
            assert "\n" not in str(exc.value)


def test_non_mapping_document():
    for text in ("- just\n- a list\n", ""):
        with pytest.raises(MarketFormatError, match="must be a mapping") as exc:
            parse_market(text, source="m.yaml")
        _assert_at(exc.value, "m.yaml", 1, 1)


# In the error tables below, each mutation returns the broken document and
# the line and column of the entry the error must point at.


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: (d + "extra_key: 1\n", 5, 1), "unknown key 'extra_key'"),
        (lambda d: (d.replace("edges:", "links:"), 4, 1), "unknown key 'links'"),
        (lambda d: (d.replace('schema_version: "1"\n', ""), 1, 1),
         "missing required key"),
        (lambda d: (d.replace('"1"', '"2"'), 1, 1), "unsupported schema_version"),
        (lambda d: (d.replace("[ann, bob]", "[ann, ann]"), 2, 16),
         "lists 'ann' twice"),
        (lambda d: (d.replace("[sew, cut]", "[sew, ann]"), 3, 16),
         "appears on both sides"),
        (lambda d: (d.replace("x_names: [ann, bob]", "x_names: [ann, 3]"), 2, 16),
         "nonempty strings"),
        (lambda d: (d.replace("[bob, cut]", "[zoe, cut]"), 4, 34),
         "unknown X-vertex 'zoe'"),
        (lambda d: (d.replace("[bob, cut]", "[bob, tie]"), 4, 39),
         "unknown Y-vertex 'tie'"),
        (lambda d: (d.replace("[bob, cut]", "[ann, sew]"), 4, 33), "duplicate edge"),
        (lambda d: (d.replace("edges: [", "edges: [[ann], "), 4, 9),
         "must be an .x, y. pair"),
        (lambda d: (d.replace("[bob, cut]", "[[bob], cut]"), 4, 33),
         "endpoints must be nonempty"),
    ],
)
def test_structural_errors(mutate, message, monkeypatch):
    text, line, column = mutate(BARE)
    for _ in _each_loader(monkeypatch):
        with pytest.raises(MarketFormatError, match=message) as exc:
            parse_market(text, source="m.yaml")
        _assert_at(exc.value, "m.yaml", line, column)


def test_preferences_for_unknown_vertex():
    doc = WITH_PREFS.replace("ann: [cut, sew]", "zoe: [cut, sew]")
    with pytest.raises(MarketFormatError, match="unknown vertex 'zoe'") as exc:
        parse_market(doc, source="m.yaml")
    _assert_at(exc.value, "m.yaml", 6, 3)


def test_preference_entry_unknown_vertex(tmp_path, monkeypatch):
    doc = WITH_PREFS.replace("bob: [cut]", "bob: [tie]")
    # without the text, the error names the entry's path but no position
    with pytest.raises(MarketFormatError, match="unknown vertex 'tie'") as exc:
        resolve_market(parse_market(doc))
    assert exc.value.path == ("preferences", "bob", 0)
    assert exc.value.line is None
    for _ in _each_loader(monkeypatch):
        with pytest.raises(MarketFormatError, match="unknown vertex 'tie'") as exc:
            _load_text(tmp_path, doc)
        _assert_at(exc.value, str(tmp_path / "m.yaml"), 7, 9)


@pytest.mark.parametrize(
    "mutate,message",
    [
        # missing table entry for cut
        (lambda d: (d.replace("  cut: [ann, bob]\n", ""), 5, 1),
         "no preference list for cut"),
        # sew ranks a vertex that is not adjacent
        (lambda d: (d.replace("sew: [ann]", "sew: [ann, bob]"), 8, 14),
         "bob, which is not adjacent"),
        # ann omits a neighbor
        (lambda d: (d.replace("ann: [cut, sew]", "ann: [cut]"), 6, 3),
         "omits neighbor sew"),
        # duplicate entry
        (lambda d: (d.replace("ann: [cut, sew]", "ann: [cut, cut, sew]"), 6, 14),
         "contains cut twice"),
        # same-side entry
        (lambda d: (d.replace("ann: [cut, sew]", "ann: [bob, cut, sew]"), 6, 9),
         "same-side vertex bob"),
    ],
)
def test_preference_errors_use_display_names(mutate, message, tmp_path, monkeypatch):
    text, line, column = mutate(WITH_PREFS)
    for _ in _each_loader(monkeypatch):
        with pytest.raises(MarketFormatError, match=message) as exc:
            _load_text(tmp_path, text)
        _assert_at(exc.value, str(tmp_path / "m.yaml"), line, column)


# Every error of the edges and the preferences in full, with its line and
# column: which defect is reported first, and how, is part of the format.
PREFERENCE_BLOCK = WITH_PREFS[WITH_PREFS.index("preferences:"):]
EDGE_LIST = "edges: [[ann, sew], [ann, cut], [bob, cut]]"
DOCS = {"bare": BARE, "prefs": WITH_PREFS, "compat": WITH_COMPAT}


@pytest.mark.parametrize(
    "doc, edits, line, column, message",
    [
        ("prefs", [(PREFERENCE_BLOCK, "preferences: [ann]\n")], 5, 1,
         "preferences must map vertex names to ranked name lists"),
        ("prefs", [("ann: [cut, sew]", "ann: cut")], 6, 3,
         "preference list for 'ann' must be a list, got str"),
        ("prefs", [("ann: [cut, sew]", "ann: [cut, 3]")], 6, 14,
         "preference list for 'ann' entries must be nonempty strings, got 3"),
        ("prefs", [("ann: [cut, sew]", "zoe: [cut, sew]")], 6, 3,
         "preferences given for unknown vertex 'zoe'"),
        ("prefs", [("bob: [cut]", "bob: [tie]")], 7, 9,
         "preference list for 'bob' names unknown vertex 'tie'"),
        ("prefs", [("  cut: [ann, bob]\n", "")], 5, 1,
         "preferences: no preference list for cut"),
        ("prefs", [("sew: [ann]", "sew: [ann, bob]")], 8, 14,
         "preferences: list for sew contains bob, which is not adjacent to it"),
        ("prefs", [("ann: [cut, sew]", "ann: [cut]")], 6, 3,
         "preferences: list for ann omits neighbor sew"),
        ("prefs", [("ann: [cut, sew]", "ann: [cut, cut, sew]")], 6, 14,
         "preferences: list for ann contains cut twice"),
        ("prefs", [("ann: [cut, sew]", "ann: [bob, cut, sew]")], 6, 9,
         "preferences: list for ann contains same-side vertex bob"),
        # two faults: the X lists are checked in index order, so ann's
        # omission comes before bob's same-side entry
        ("prefs",
         [("ann: [cut, sew]", "ann: [cut]"), ("bob: [cut]", "bob: [ann, cut]")], 6, 3,
         "preferences: list for ann omits neighbor sew"),
        # two faults: every entry must name a vertex before any list is
        # checked, so cut's unknown entry comes before ann's omission
        ("prefs",
         [("ann: [cut, sew]", "ann: [cut]"), ("cut: [ann, bob]", "cut: [ann, bob, zoe]")],
         9, 19, "preference list for 'cut' names unknown vertex 'zoe'"),
        ("bare", [("[bob, cut]", "[zoe, cut]")], 4, 34,
         "edge ['zoe', 'cut'] references unknown X-vertex 'zoe'"),
        ("bare", [("[bob, cut]", "[bob, tie]")], 4, 39,
         "edge ['bob', 'tie'] references unknown Y-vertex 'tie'"),
        ("bare", [("[bob, cut]", "[ann, sew]")], 4, 33, "duplicate edge ['ann', 'sew']"),
        ("bare", [("edges: [", "edges: [[ann], ")], 4, 9,
         "edge ['ann'] must be an [x, y] pair"),
        ("bare", [("[bob, cut]", "[[bob], cut]")], 4, 33,
         "edge [['bob'], 'cut'] endpoints must be nonempty strings"),
        ("bare", [(EDGE_LIST, "edges: 3")], 4, 1, "edges must be a list of [x, y] pairs"),
        ("compat", [("[bob, sew], ", "")], 4, 1,
         "edges omit ['bob', 'sew'], which the compatibility classes imply; "
         "edges must equal the induced acceptability exactly"),
        ("compat", [("[eve, cut]", "[eve, cut], [ann, cut]")], 4, 57,
         "edge ['ann', 'cut'] joins incompatible classes; edges must equal the "
         "induced acceptability exactly"),
    ],
)
def test_edge_and_preference_errors_are_pinned_in_full(
    doc, edits, line, column, message, tmp_path, monkeypatch
):
    _assert_pinned(DOCS[doc], edits, line, column, message, tmp_path, monkeypatch)


def _assert_pinned(doc, edits, line, column, message, tmp_path, monkeypatch):
    """Loading `doc` with each (old, new) of `edits` made fails, under
    both loaders, with exactly `message` at `line` and `column`."""
    for old, new in edits:
        assert old in doc
        doc = doc.replace(old, new)
    path = str(tmp_path / "m.yaml")
    for _ in _each_loader(monkeypatch):
        with pytest.raises(MarketFormatError) as exc:
            _load_text(tmp_path, doc)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value) == f"{path}:{line}:{column}: {message}"


COMPAT_BLOCK = WITH_COMPAT[WITH_COMPAT.index("compatibility:"):]


@pytest.mark.parametrize(
    "edits, line, column, message",
    [
        ([(COMPAT_BLOCK, "compatibility: [cloth]\n")], 5, 1,
         "compatibility must be a mapping"),
        ([("classes: [cloth, paper]", "classes: []")], 6, 3,
         "compatibility.classes must not be empty"),
        ([("x_membership:\n    ann: [cloth]\n    bob: [cloth, paper]\n    eve: [paper]",
           "x_membership: [ann, bob, eve]")], 7, 3,
         "compatibility.x_membership must map X names to class lists"),
        ([("ann: [cloth]", "ann: []")], 8, 5,
         "compatibility.x_membership['ann'] must not be empty"),
        ([("y_class:\n    sew: cloth\n    cut: paper", "y_class: cloth")], 11, 3,
         "compatibility.y_class must map Y names to a class name"),
        ([("    cut: paper\n", "")], 11, 3, "compatibility.y_class missing 'cut'"),
        ([("cut: paper", "cut: paper\n    tie: paper")], 14, 5,
         "compatibility.y_class names unknown Y-vertex 'tie'"),
    ],
    ids=["not-a-mapping", "no-classes", "membership-not-a-mapping", "empty-membership",
         "y-class-not-a-mapping", "y-class-missing", "y-class-unknown"],
)
def test_compatibility_block_errors_are_pinned_in_full(
    edits, line, column, message, tmp_path, monkeypatch
):
    _assert_pinned(WITH_COMPAT, edits, line, column, message, tmp_path, monkeypatch)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: (d.replace("  x_membership:", "  extra: 1\n  x_membership:"), 7, 3),
         "unknown key 'extra'"),
        (lambda d: (d.replace("  y_class:\n    sew: cloth\n    cut: paper\n", ""),
                    5, 1),
         "missing key 'y_class'"),
        (lambda d: (d.replace("classes: [cloth, paper]", "classes: [cloth, cloth]"),
                    6, 20),
         "duplicates"),
        (lambda d: (d.replace("    ann: [cloth]\n", ""), 7, 3),
         "x_membership missing 'ann'"),
        (lambda d: (d.replace("ann: [cloth]", "ann: [cloth]\n    zoe: [paper]"), 9, 5),
         "unknown X-vertex 'zoe'"),
        (lambda d: (d.replace("ann: [cloth]", "ann: [wool]"), 8, 11),
         "unknown class 'wool'"),
        (lambda d: (d.replace("ann: [cloth]", "ann: [cloth, cloth]"), 8, 18),
         "lists a class twice"),
        (lambda d: (d.replace("sew: cloth", "sew: wool"), 12, 5),
         "unknown class 'wool'"),
        (lambda d: (d.replace("eve: [paper]", "eve: [paper, cloth]"), 6, 20),
         "class 'paper' has no exclusive member"),
    ],
)
def test_compatibility_block_errors(mutate, message, monkeypatch):
    text, line, column = mutate(WITH_COMPAT)
    for _ in _each_loader(monkeypatch):
        with pytest.raises(MarketFormatError, match=message) as exc:
            parse_market(text, source="m.yaml")
        _assert_at(exc.value, "m.yaml", line, column)


def test_compat_edges_must_include_induced(tmp_path):
    doc = WITH_COMPAT.replace("[bob, sew], ", "")
    with pytest.raises(MarketFormatError, match="edges omit .'bob', 'sew'.") as exc:
        _load_text(tmp_path, doc)
    _assert_at(exc.value, str(tmp_path / "m.yaml"), 4, 1)


def test_compat_edges_must_not_exceed_induced(tmp_path):
    doc = WITH_COMPAT.replace("[eve, cut]", "[eve, cut], [ann, cut]")
    with pytest.raises(MarketFormatError, match="joins incompatible classes") as exc:
        _load_text(tmp_path, doc)
    _assert_at(exc.value, str(tmp_path / "m.yaml"), 4, 57)


def test_positions_follow_yaml_keys(monkeypatch):
    # a merged entry is found where it was written; of two equal keys the
    # last one counts, as it does when the document is loaded
    base = 'schema_version: "1"\nx_names: [a]\ny_names: [b]\nedges: [[a, b]]\n'
    for text, line, column in (
        (base + "preferences:\n  <<: {zz: [b]}\n  a: [b]\n", 6, 8),
        (base + "preferences:\n  a: [b]\n  a: [3]\n", 7, 7),
    ):
        for _ in _each_loader(monkeypatch):
            with pytest.raises(MarketFormatError) as exc:
                parse_market(text, source="m.yaml")
            _assert_at(exc.value, "m.yaml", line, column)


FAULTS = (
    "none", "drop", "repeat", "non-neighbor", "same-side", "unknown", "missing",
    "unknown-list",  # a list for no vertex, which only a hand-built file can hold
)


@st.composite
def markets_with_preferences(draw):
    """A market up to 8x8 whose preference lists are valid or carry one
    drawn fault in one drawn list, with the lists in a drawn order. Some
    draws leave the list valid: a drop from an empty list, a non-neighbor
    for a vertex adjacent to the whole other side, an entry overwritten by
    itself."""
    g = draw(graphs(max_x=8, max_y=8))
    rng = draw(st.randoms(use_true_random=False))
    xs = [f"x{i}" for i in range(g.x_count)]
    ys = [f"y{j}" for j in range(g.y_count)]
    table = {}
    for own, other, adj in ((xs, ys, g.x_adj), (ys, xs, g.y_adj)):
        for name, row in zip(own, adj):
            table[name] = [other[u] for u in row]
            rng.shuffle(table[name])
    fault = draw(st.sampled_from(FAULTS))
    if fault != "none" and table:
        name = draw(st.sampled_from(sorted(table)))
        ranked = table[name]
        own, other = (xs, ys) if name in xs else (ys, xs)
        outside = [n for n in other if n not in ranked]
        at = rng.randrange(len(ranked) + 1)
        # a repeat or a non-neighbor is inserted at `at`, or overwrites the
        # entry there and so leaves the list as long as the neighborhood
        cut = at + (at < len(ranked) and rng.random() < 0.5)
        if fault == "drop" and ranked:
            del ranked[rng.randrange(len(ranked))]
        elif fault == "repeat" and ranked:
            ranked[at:cut] = [rng.choice(ranked)]
        elif fault == "non-neighbor" and outside:
            ranked[at:cut] = [rng.choice(outside)]
        elif fault == "same-side":
            ranked.insert(at, rng.choice(own))
        elif fault == "unknown":
            ranked.insert(at, "zz")
        elif fault == "missing":
            del table[name]
        elif fault == "unknown-list":
            table["zz"] = []
    order = list(table)
    rng.shuffle(order)
    edges = [(xs[i], ys[j]) for i, j in g.edges()]
    return g, MarketFile(SCHEMA_VERSION, xs, ys, edges, {n: table[n] for n in order})


def _entry_by_entry(graph: BipartiteGraph, names: NameMap, table: dict):
    """The full check of a preferences block: the instance `prefs.validate`
    builds from its table of vertices, or the message and path of the first
    defect. A list for no vertex comes first, as parse_market finds it, then
    an entry that names no vertex, in list order."""
    for name in table:
        if names.vertex(name) is None:
            return f"preferences given for unknown vertex {name!r}", ("preferences", name)
    vertex_table = {}
    for name, ranked in table.items():
        for k, cand in enumerate(ranked):
            if names.vertex(cand) is None:
                message = f"preference list for {name!r} names unknown vertex {cand!r}"
                return message, ("preferences", name, k)
        vertex_table[names.vertex(name)] = [names.vertex(c) for c in ranked]
    try:
        return prefs.validate(graph, vertex_table, describe=names.name)
    except PreferenceError as e:
        path: tuple = ("preferences",)
        if e.vertex is not None:
            path += (names.name(e.vertex),)
            if e.entry is not None:
                path += (e.entry,)
        return f"preferences: {e}", path


@given(markets_with_preferences())
@settings(max_examples=200, deadline=None)
def test_resolve_agrees_with_the_entry_by_entry_check(market):
    g, mf = market
    try:
        got = resolve_market(mf, source="m.yaml").instance
    except MarketFormatError as e:
        got = e.message, e.path
    assert got == _entry_by_entry(g, NameMap(mf.x_names, mf.y_names), mf.preferences)


def test_preference_table_renders_names():
    bundle = resolve_market(parse_market(BARE))
    inst = resolve_market(parse_market(WITH_PREFS)).instance
    mf = replace(bundle.market, preferences=preference_table(bundle.names, inst))
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


def _hand_built(**changes) -> MarketFile:
    base = MarketFile(
        SCHEMA_VERSION,
        ["a", "c"],
        ["b", "d"],
        [("a", "b"), ("c", "d")],
        compatibility=market_io.CompatibilityBlock(
            ["k", "l"], {"a": ["k"], "c": ["l"]}, {"b": "k", "d": "l"}
        ),
    )
    return replace(base, **changes)


HAND_BUILT = {
    "unknown edge endpoint": _hand_built(edges=[("a", "b"), ("c", "zzz")]),
    "name listed twice": _hand_built(x_names=["a", "a"], edges=[("a", "b")]),
    "name on both sides": _hand_built(y_names=["b", "a"]),
    "edge twice": _hand_built(edges=[("a", "b"), ("c", "d"), ("a", "b")]),
    "edge of three": _hand_built(edges=[("a", "b"), ("c", "d", "b")]),
    "unknown class": _hand_built(
        compatibility=market_io.CompatibilityBlock(
            ["k", "l"], {"a": ["k"], "c": ["q"]}, {"b": "k", "d": "l"}
        )
    ),
    "membership left out": _hand_built(
        compatibility=market_io.CompatibilityBlock(
            ["k", "l"], {"a": ["k"]}, {"b": "k", "d": "l"}
        )
    ),
    "membership for no vertex": _hand_built(
        compatibility=market_io.CompatibilityBlock(
            ["k", "l"], {"a": ["k"], "c": ["l"], "q": ["k"]}, {"b": "k", "d": "l"}
        )
    ),
    "slot left out": _hand_built(
        compatibility=market_io.CompatibilityBlock(
            ["k", "l"], {"a": ["k"], "c": ["l"]}, {"b": "k"}
        )
    ),
    "no exclusive member": _hand_built(
        compatibility=market_io.CompatibilityBlock(
            ["k", "l"], {"a": ["k"], "c": ["k", "l"]}, {"b": "k", "d": "l"}
        )
    ),
    "list for no vertex": _hand_built(
        preferences={"a": ["b"], "c": ["d"], "b": ["a"], "d": ["c"], "zz": []}
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_files_fail_as_their_documents_parse(case):
    # resolve_market on a file parse_market never checked raises what
    # parse_market raises for the same document, never a bare KeyError or
    # a wrong graph
    mf = HAND_BUILT[case]
    with pytest.raises(MarketFormatError) as parsed:
        parse_market(dump_market(mf), source="m.yaml")
    with pytest.raises(MarketFormatError) as resolved:
        resolve_market(mf, source="m.yaml")
    assert (resolved.value.message, resolved.value.path) == (
        parsed.value.message,
        parsed.value.path,
    )
    # parse_market locates the entry; resolve_market has no text to do so
    assert resolved.value.line is None
    assert resolved.value.source == "m.yaml"


def test_market_file_defaults():
    mf = MarketFile(
        schema_version=SCHEMA_VERSION,
        x_names=["a"],
        y_names=["b"],
        edges=[("a", "b")],
    )
    bundle = resolve_market(mf)
    assert bundle.graph.edge_count == 1
