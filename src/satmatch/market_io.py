"""The market file format: parsing, validation, and serialization.

One self-describing YAML document (schema_version "1") carries the graph
(named vertices + edges), optionally a full preference table, and optionally
a compatibility block (classes, X memberships, Y assignment). Names live
only here; the core works on dense indices, and this layer owns the mapping.
A text is read in one of two ways. A plain file (printable ASCII with LF
or CR LF line ends, block mappings and sequences, flow lists of plain or
unescaped quoted names, comments) is read by `plain_yaml` in one pass over
its lines, with no YAML events. Any other text goes to yaml.load, which
also decides every error, once one pass over its YAML events has checked
its nesting depth. Both give the same data for every plain text.
`resolve_market` turns names into indices through one name→index dict per
side and checks each preference list in one pass; only a table with a
fault is checked again entry by entry, for the message that names it.
"""

from __future__ import annotations

import functools
import gc
import re
import reprlib
from dataclasses import dataclass
from typing import Any, NoReturn, Optional

import yaml

from . import prefs
from .compatibility import CompatibilityMarket, exclusive_members, induced_graph
from .errors import MarketFormatError, PreferenceError
from .graph import BipartiteGraph, Side, Vertex
from .prefs import PreferenceInstance

SCHEMA_VERSION = "1"


@dataclass
class CompatibilityBlock:
    classes: list[str]
    x_membership: dict[str, list[str]]
    y_class: dict[str, str]


@dataclass
class MarketFile:
    """Structured image of one market document, still name-based."""

    schema_version: str
    x_names: list[str]
    y_names: list[str]
    edges: list[tuple[str, str]]
    preferences: Optional[dict[str, list[str]]] = None
    compatibility: Optional[CompatibilityBlock] = None


class NameMap:
    """Bidirectional vertex-name mapping for one market.

    `x_names` / `y_names` list each side's names in index order, and
    `x_index` / `y_index` map each name back to its index, one dict per
    side built once per load. `vertex` is derived from the two dicts.
    """

    def __init__(self, x_names: list[str], y_names: list[str]):
        self.x_names = tuple(x_names)
        self.y_names = tuple(y_names)
        self.x_index = dict(zip(self.x_names, range(len(self.x_names))))
        self.y_index = dict(zip(self.y_names, range(len(self.y_names))))

    def vertex(self, name: str) -> Optional[Vertex]:
        i = self.x_index.get(name)
        if i is not None:
            return Vertex(Side.X, i)
        j = self.y_index.get(name)
        return None if j is None else Vertex(Side.Y, j)

    def name(self, v: Vertex) -> str:
        names = self.x_names if v.side is Side.X else self.y_names
        return names[v.index]


@dataclass
class MarketBundle:
    """A fully validated market: the file image plus the domain objects."""

    market: MarketFile
    graph: BipartiteGraph
    names: NameMap
    instance: Optional[PreferenceInstance] = None
    compat: Optional[CompatibilityMarket] = None


# libyaml when PyYAML was built with it: the same resolver and constructor
# as the pure-Python classes, so the same data, several times faster
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


# Shows a value read from the file in a message. The builtin repr recurses
# once per nesting level and fails on deep input; here a list or mapping
# nested deeper than maxlevel prints as [...] or {...}. A shallow value of at
# most 12 entries, each with a repr of at most 80 characters, prints as repr
# prints it, but with mapping keys sorted.
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 6
_SHORT.maxstring = _SHORT.maxother = 80
_SHORT.maxlist = _SHORT.maxdict = 12


def _fail(message: str, source: str, path: tuple = ()) -> NoReturn:
    raise MarketFormatError(message, source=source, path=path)


def _expect_str_list(value: Any, what: str, source: str, path: tuple) -> list[str]:
    if not isinstance(value, list):
        _fail(f"{what} must be a list, got {type(value).__name__}", source, path)
    for k, item in enumerate(value):
        if not isinstance(item, str) or not item:
            _fail(
                f"{what} entries must be nonempty strings, got {_SHORT.repr(item)}",
                source,
                path + (k,),
            )
    return list(value)


def _first_repeat(items: list) -> Optional[int]:
    """Index of the first item equal to an earlier one, or None."""
    seen = set()
    for k, item in enumerate(items):
        if item in seen:
            return k
        seen.add(item)
    return None


_LINE_BREAK = re.compile("\r\n|[\r\n\x85\u2028\u2029]")


def _line_column(text: str, index: int) -> tuple[int, int]:
    """The 1-based line and column of character `index` of `text`, with the
    line breaks YAML counts: LF, CR LF, a lone CR, NEL, LS and PS."""
    lines = _LINE_BREAK.split(text[:index])
    return len(lines), len(lines[-1]) + 1


def _reader_error(
    e: yaml.reader.ReaderError, text: str, source: str
) -> MarketFormatError:
    """`e`, a character YAML does not accept, at its line and column.
    libyaml reads the UTF-8 encoding of `text`, so its position counts
    bytes; PyYAML's own reader counts characters."""
    index = e.position
    if issubclass(_Loader, getattr(yaml, "CSafeLoader", ())):
        index = len(text.encode("utf-8")[:index].decode("utf-8", "ignore"))
    line, column = _line_column(text, index)
    return MarketFormatError(
        f"not valid YAML: unacceptable character #x{e.character:04x}: {e.reason}",
        source=source,
        line=line,
        column=column,
    )


def _located(error: MarketFormatError, text: str) -> MarketFormatError:
    """`error` with the 1-based line and column of the entry its path names
    in `text`: a mapping entry starts at its key, a list entry at its item.
    Composes `text` again, so it runs only once an error is raised."""
    loader = _Loader(text)
    try:
        node = loader.get_single_node()
        mark = None if node is None else node.start_mark  # None: an empty document
        for step in error.path:
            if isinstance(node, yaml.MappingNode):
                # resolve merge keys and let the last equal key win, as
                # loading the text does
                loader.flatten_mapping(node)
                for key, value in reversed(node.value):
                    if loader.construct_object(key, deep=True) == step:
                        mark, node = key.start_mark, value
                        break
                else:
                    return error
            elif isinstance(node, yaml.SequenceNode) and isinstance(step, int):
                node = node.value[step]
                mark = node.start_mark
            else:
                return error
    finally:
        loader.dispose()
    line, column = (1, 1) if mark is None else (mark.line + 1, mark.column + 1)
    return MarketFormatError(
        error.message, source=error.source, line=line, column=column, path=error.path
    )


# The deepest nesting of mappings and lists a document may have; a market
# needs 4, and anything deeper fails validation anyway. The composers that
# yaml.load and _located use recurse once per level: libyaml's overflows
# the C stack some way past 20,000 levels, PyYAML's pure-Python one hits
# Python's recursion limit near 1,000, and PyYAML's scanner takes time
# quadratic in the depth. So the bound stays far below all of them.
_MAX_DEPTH = 64

_STR_TAG = "tag:yaml.org,2002:str"
_INT_TAG = "tag:yaml.org,2002:int"


def _plain(loader: Any, value: str) -> Any:
    """The str or int that `loader` makes of the plain scalar `value`, or
    None for any other type (null, bool, float, timestamp, merge key...)."""
    tag = loader.resolve(yaml.ScalarNode, value, (True, False))
    if tag == _STR_TAG:
        return value
    if tag == _INT_TAG:
        try:
            return loader.construct_yaml_int(yaml.ScalarNode(tag, value))
        except ValueError:  # "0x_": yaml.load reports a later syntax error first
            return None
    return None


def _check_depth(text: str, source: str) -> None:
    """Refuse `text` at the first mapping or list nested deeper than
    _MAX_DEPTH, reading only YAML events, before yaml.load composes it.
    Stops at the end of the first document, which is all yaml.load
    composes, and at a syntax error: yaml.load raises that error, or an
    error of its composer that comes first."""
    loader = _Loader(text)
    depth = 0
    try:
        while True:
            event = loader.get_event()
            kind = event.__class__
            if kind is yaml.SequenceStartEvent or kind is yaml.MappingStartEvent:
                depth += 1
                if depth > _MAX_DEPTH:
                    mark = event.start_mark
                    raise MarketFormatError(
                        f"nested deeper than {_MAX_DEPTH} levels (a market needs 4)",
                        source=source,
                        line=mark.line + 1,
                        column=mark.column + 1,
                    )
            elif kind is yaml.SequenceEndEvent or kind is yaml.MappingEndEvent:
                depth -= 1
            elif kind is yaml.DocumentEndEvent or kind is yaml.StreamEndEvent:
                return
    except yaml.YAMLError:
        return
    finally:
        loader.dispose()


def _load(text: str, source: str) -> Any:
    """The data yaml.load gives for `text`: read by `plain_yaml` with this
    module's resolver when the text is plain, else by yaml.load once
    _check_depth has found no nesting deeper than _MAX_DEPTH."""
    from . import plain_yaml  # compiled on the first read, not by `verify`

    loader = _Loader("")
    try:
        data = plain_yaml.read(text, functools.partial(_plain, loader))
    finally:
        loader.dispose()
    if data is None:
        _check_depth(text, source)
        data = yaml.load(text, Loader=_Loader)
    return data


def parse_market(text: str, source: str = "<string>") -> MarketFile:
    """Parse one market document; structural and name-level validation only.

    Graph-level validation (preference tables, compatibility cross-checks)
    happens in resolve_market. Every error names the line and column of
    the entry it rejects. Mappings and lists nested deeper than 64
    levels are refused at the first one past that depth.

    The cyclic garbage collector is paused while the document is built,
    by `plain_yaml` or by yaml.load, from many small objects that would
    otherwise set off pass after pass over everything built so far; its
    previous state is restored on every path.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        data = _load(text, source)
    except yaml.reader.ReaderError as e:
        raise _reader_error(e, text, source) from None
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        if mark is not None:
            raise MarketFormatError(
                f"not valid YAML: {getattr(e, 'problem', e)}",
                source=source,
                line=mark.line + 1,
                column=mark.column + 1,
            ) from None
        _fail(f"not valid YAML: {e}", source)
    finally:
        if collecting:
            gc.enable()
    try:
        return _market_file(data, source)
    except MarketFormatError as e:
        raise _located(e, text) from None


def _edge_column(
    entries: list, x_set: set[str], y_set: set[str]
) -> Optional[list[tuple[str, str]]]:
    """The edges as (x, y) pairs, checked as whole columns: every entry a
    list of two, the X column within x_set, the Y column within y_set, and
    no pair twice. None when any of that fails: _edge_fault then finds the
    first faulty entry."""
    if set(map(type, entries)) - {list} or set(map(len, entries)) - {2}:
        return None
    pairs = list(map(tuple, entries))
    try:
        unique = set(pairs)
    except TypeError:  # an endpoint that is a list or a mapping
        return None
    if (
        len(unique) != len(pairs)
        or {x for x, _ in unique} - x_set
        or {y for _, y in unique} - y_set
    ):
        return None
    return pairs


def _edge_fault(
    entries: list, x_set: set[str], y_set: set[str], source: str
) -> NoReturn:
    """Raise MarketFormatError for the first faulty entry of an edge list
    that _edge_column rejected, checking the entries one by one."""
    seen_edges = set()
    for k, raw in enumerate(entries):
        at = ("edges", k)
        if not isinstance(raw, list) or len(raw) != 2:
            _fail(f"edge {_SHORT.repr(raw)} must be an [x, y] pair", source, at)
        xn, yn = raw
        if not all(isinstance(n, str) and n for n in raw):
            _fail(
                f"edge {_SHORT.repr(raw)} endpoints must be nonempty strings",
                source,
                at,
            )
        if xn not in x_set:
            _fail(f"edge {raw!r} references unknown X-vertex {xn!r}", source, at + (0,))
        if yn not in y_set:
            _fail(f"edge {raw!r} references unknown Y-vertex {yn!r}", source, at + (1,))
        if (xn, yn) in seen_edges:
            _fail(f"duplicate edge [{xn!r}, {yn!r}]", source, at)
        seen_edges.add((xn, yn))
    raise AssertionError("_edge_column rejected an edge list with no faulty entry")


def _market_file(data: Any, source: str) -> MarketFile:
    if not isinstance(data, dict):
        _fail(f"document must be a mapping, got {type(data).__name__}", source)

    known = {"schema_version", "x_names", "y_names", "edges", "preferences", "compatibility"}
    for key in data:
        if key not in known:
            _fail(f"unknown key {key!r}", source, (key,))
    for key in ("schema_version", "x_names", "y_names", "edges"):
        if key not in data:
            _fail(f"missing required key {key!r}", source)

    version = data["schema_version"]
    if isinstance(version, int):
        version = str(version)
    if version != SCHEMA_VERSION:
        _fail(
            f"unsupported schema_version {_SHORT.repr(data['schema_version'])} "
            f"(this build reads {SCHEMA_VERSION!r})",
            source,
            ("schema_version",),
        )

    x_names = _expect_str_list(data["x_names"], "x_names", source, ("x_names",))
    y_names = _expect_str_list(data["y_names"], "y_names", source, ("y_names",))
    for names, label in ((x_names, "x_names"), (y_names, "y_names")):
        k = _first_repeat(names)
        if k is not None:
            _fail(f"{label} lists {names[k]!r} twice", source, (label, k))
    x_set, y_set = set(x_names), set(y_names)
    overlap = x_set & y_set
    if overlap:
        shared = sorted(overlap)[0]
        _fail(
            f"name {shared!r} appears on both sides; names must be "
            f"unique across the market so preference keys stay unambiguous",
            source,
            ("y_names", y_names.index(shared)),
        )

    if not isinstance(data["edges"], list):
        _fail("edges must be a list of [x, y] pairs", source, ("edges",))
    edges = _edge_column(data["edges"], x_set, y_set)
    if edges is None:
        _edge_fault(data["edges"], x_set, y_set, source)

    preferences = None
    if data.get("preferences") is not None:
        raw_prefs = data["preferences"]
        if not isinstance(raw_prefs, dict):
            _fail(
                "preferences must map vertex names to ranked name lists",
                source,
                ("preferences",),
            )
        preferences = {}
        for name, ranked in raw_prefs.items():
            at = ("preferences", name)
            if name not in x_set and name not in y_set:
                _fail(f"preferences given for unknown vertex {name!r}", source, at)
            preferences[name] = _expect_str_list(
                ranked, f"preference list for {name!r}", source, at
            )

    compatibility = None
    if data.get("compatibility") is not None:
        compatibility = _parse_compatibility(
            data["compatibility"], x_names, y_names, x_set, y_set, source
        )

    return MarketFile(
        schema_version=SCHEMA_VERSION,
        x_names=x_names,
        y_names=y_names,
        edges=edges,
        preferences=preferences,
        compatibility=compatibility,
    )


def _parse_compatibility(
    raw: Any,
    x_names: list[str],
    y_names: list[str],
    x_set: set[str],
    y_set: set[str],
    source: str,
) -> CompatibilityBlock:
    block = ("compatibility",)
    if not isinstance(raw, dict):
        _fail("compatibility must be a mapping", source, block)
    for key in raw:
        if key not in {"classes", "x_membership", "y_class"}:
            _fail(f"compatibility: unknown key {key!r}", source, block + (key,))
    for key in ("classes", "x_membership", "y_class"):
        if key not in raw:
            _fail(f"compatibility: missing key {key!r}", source, block)
    at = block + ("classes",)
    classes = _expect_str_list(raw["classes"], "compatibility.classes", source, at)
    if not classes:
        _fail("compatibility.classes must not be empty", source, at)
    k = _first_repeat(classes)
    if k is not None:
        _fail("compatibility.classes contains duplicates", source, at + (k,))
    class_set = set(classes)

    membership_raw = raw["x_membership"]
    at = block + ("x_membership",)
    if not isinstance(membership_raw, dict):
        _fail("compatibility.x_membership must map X names to class lists", source, at)
    x_membership: dict[str, list[str]] = {}
    for xn in x_names:
        if xn not in membership_raw:
            _fail(f"compatibility.x_membership missing {xn!r}", source, at)
    for name, classes_of in membership_raw.items():
        entry = at + (name,)
        if name not in x_set:
            _fail(
                f"compatibility.x_membership names unknown X-vertex {name!r}",
                source,
                entry,
            )
        what = f"compatibility.x_membership[{name!r}]"
        listed = _expect_str_list(classes_of, what, source, entry)
        if not listed:
            _fail(f"{what} must not be empty", source, entry)
        k = _first_repeat(listed)
        if k is not None:
            _fail(f"{what} lists a class twice", source, entry + (k,))
        for k, c in enumerate(listed):
            if c not in class_set:
                _fail(f"{what} names unknown class {c!r}", source, entry + (k,))
        x_membership[name] = listed

    y_class_raw = raw["y_class"]
    at = block + ("y_class",)
    if not isinstance(y_class_raw, dict):
        _fail("compatibility.y_class must map Y names to a class name", source, at)
    y_class: dict[str, str] = {}
    for yn in y_names:
        if yn not in y_class_raw:
            _fail(f"compatibility.y_class missing {yn!r}", source, at)
    for name, c in y_class_raw.items():
        if name not in y_set:
            _fail(
                f"compatibility.y_class names unknown Y-vertex {name!r}",
                source,
                at + (name,),
            )
        if not isinstance(c, str) or c not in class_set:
            _fail(
                f"compatibility.y_class[{name!r}] names unknown class {_SHORT.repr(c)}",
                source,
                at + (name,),
            )
        y_class[name] = c

    # exclusivity gets checked here with names so the message is readable;
    # CompatibilityMarket re-checks it on indices regardless
    exclusive = exclusive_members(x_membership.values())
    for k, c in enumerate(classes):
        if c not in exclusive:
            _fail(
                f"compatibility: class {c!r} has no exclusive member; some "
                f"X-vertex must belong to it and to no other class",
                source,
                block + ("classes", k),
            )

    return CompatibilityBlock(
        classes=classes, x_membership=x_membership, y_class=y_class
    )


def _ranked_rows(
    table: dict[str, list[str]],
    names: tuple[str, ...],
    index: dict[str, int],
    adj: tuple[tuple[int, ...], ...],
) -> Optional[list[tuple[int, ...]]]:
    """The lists of one side's `names`, in index order, each as indices of
    the other side (`index`); or None when some list is missing, names a
    vertex not in `index`, or does not order exactly its row of `adj`."""
    rows = []
    get = index.__getitem__
    for name, neighbors in zip(names, adj):
        ranked = table.get(name)
        if ranked is None:
            return None
        try:
            row = tuple(map(get, ranked))
        except KeyError:
            return None
        if tuple(sorted(row)) != neighbors:
            return None
        rows.append(row)
    return rows


def _validated_instance(
    graph: BipartiteGraph, names: NameMap, table: dict[str, list[str]], source: str
) -> PreferenceInstance:
    """The preferences block checked entry by entry: first every entry must
    name a vertex, in file order, then `prefs.validate` checks the table.
    The first defect raises MarketFormatError with the path of its list, and
    of its entry when it has one."""
    vertex_table = {}
    for name, ranked in table.items():
        entries = []
        for k, cand in enumerate(ranked):
            cv = names.vertex(cand)
            if cv is None:
                _fail(
                    f"preference list for {name!r} names unknown vertex {cand!r}",
                    source,
                    ("preferences", name, k),
                )
            entries.append(cv)
        vertex_table[names.vertex(name)] = entries
    try:
        return prefs.validate(graph, vertex_table, describe=names.name)
    except PreferenceError as e:
        at: tuple = ("preferences",)
        if e.vertex is not None:
            at += (names.name(e.vertex),)
            if e.entry is not None:
                at += (e.entry,)
        _fail(f"preferences: {e}", source, at)


def resolve_market(mf: MarketFile, source: str = "<market>") -> MarketBundle:
    """Build and cross-validate the domain objects for a parsed market.

    Works on indices: each edge endpoint and each preference entry is
    looked up once, in the name→index dict of its side (`NameMap`). A
    preference list is accepted when its indices, sorted, equal its
    vertex's adjacency row; that one test rules out a repeated entry, a
    non-neighbor and an omitted neighbor. If any list fails it, names a
    vertex not on the other side or is missing, the table is checked again
    entry by entry, by name lookup and `prefs.validate`, which raises the
    error for the first defect. So every message, and which defect is
    reported first, is that of the full check.

    A file that parse_market never checked may hold what it refuses: a
    name listed twice, an edge or a class entry that names no vertex or
    class, a list for no vertex. When a name lookup fails, a name repeats,
    the graph constructor refuses the edges or the preference table has a
    fault, the file's document image (`_document`) goes through
    `_market_file` first, so the error is the one parse_market gives for
    that document. Parsed files never fail those tests, so they cost only
    the tests.
    """
    names = NameMap(mf.x_names, mf.y_names)
    x_index, y_index = names.x_index, names.y_index
    if (
        len(x_index) < len(names.x_names)
        or len(y_index) < len(names.y_names)
        or not x_index.keys().isdisjoint(y_index)
    ):
        _market_file(_document(mf), source)  # a name listed twice
    try:
        graph = BipartiteGraph(
            len(names.x_names),
            len(names.y_names),
            [(x_index[xn], y_index[yn]) for xn, yn in mf.edges],
        )
    except (KeyError, TypeError, ValueError):  # InputError is a ValueError
        _market_file(_document(mf), source)
        raise

    instance = None
    if mf.preferences is not None:
        table = mf.preferences
        x_lists = _ranked_rows(table, names.x_names, y_index, graph.x_adj)
        y_lists = _ranked_rows(table, names.y_names, x_index, graph.y_adj)
        # a table built without parse_market may also hold unknown keys
        if (
            x_lists is None
            or y_lists is None
            or len(table) != len(x_lists) + len(y_lists)
        ):
            _market_file(_document(mf), source)
            instance = _validated_instance(graph, names, table, source)
        else:
            instance = PreferenceInstance(x_lists, y_lists)

    compat = None
    if mf.compatibility is not None:
        block = mf.compatibility
        if (len(block.x_membership), len(block.y_class)) != (
            len(mf.x_names),
            len(mf.y_names),
        ):
            # an entry for no vertex, or none for one
            _market_file(_document(mf), source)
        class_index = {c: k for k, c in enumerate(block.classes)}
        try:
            compat = CompatibilityMarket.build(
                n_classes=len(block.classes),
                x_membership=[
                    [class_index[c] for c in block.x_membership[xn]]
                    for xn in mf.x_names
                ],
                y_class=[class_index[block.y_class[yn]] for yn in mf.y_names],
            )
        except (KeyError, TypeError, ValueError):
            _market_file(_document(mf), source)
            raise
        implied = induced_graph(compat)
        if implied != graph:
            declared = set(graph.edges())
            wanted = set(implied.edges())
            for xi, yi in sorted(wanted - declared):
                _fail(
                    f"edges omit [{mf.x_names[xi]!r}, {mf.y_names[yi]!r}], which the "
                    f"compatibility classes imply; edges must equal the induced "
                    f"acceptability exactly",
                    source,
                    ("edges",),
                )
            for xi, yi in sorted(declared - wanted):
                edge = (mf.x_names[xi], mf.y_names[yi])
                _fail(
                    f"edge [{edge[0]!r}, {edge[1]!r}] joins "
                    f"incompatible classes; edges must equal the induced "
                    f"acceptability exactly",
                    source,
                    ("edges", mf.edges.index(edge)),
                )

    return MarketBundle(
        market=mf, graph=graph, names=names, instance=instance, compat=compat
    )


def load_market(path: str) -> MarketBundle:
    """Read, parse, and fully validate a market file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise MarketFormatError(str(e), source=path) from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        good = raw[: e.start].decode("utf-8")
        line, column = _line_column(good, len(good))
        raise MarketFormatError(
            f"not UTF-8: byte 0x{raw[e.start]:02x} ({e.reason})",
            source=path,
            line=line,
            column=column,
        ) from None
    mf = parse_market(text, source=path)
    try:
        return resolve_market(mf, source=path)
    except MarketFormatError as e:
        raise _located(e, text) from None


def _document(mf: MarketFile) -> dict[str, Any]:
    """The data of the document `mf` is an image of: what `dump_market`
    writes, and what `_market_file` reads back to `mf`."""
    out: dict[str, Any] = {
        "schema_version": mf.schema_version,
        "x_names": list(mf.x_names),
        "y_names": list(mf.y_names),
        "edges": [list(e) for e in mf.edges],
    }
    if mf.preferences is not None:
        out["preferences"] = {k: list(v) for k, v in mf.preferences.items()}
    if mf.compatibility is not None:
        out["compatibility"] = {
            "classes": list(mf.compatibility.classes),
            "x_membership": {k: list(v) for k, v in mf.compatibility.x_membership.items()},
            "y_class": dict(mf.compatibility.y_class),
        }
    return out


def dump_market(mf: MarketFile) -> str:
    return yaml.dump(
        _document(mf), Dumper=_Dumper, sort_keys=False, default_flow_style=None
    )


def save_market(mf: MarketFile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_market(mf))


def preference_table(
    names: NameMap, instance: PreferenceInstance
) -> dict[str, list[str]]:
    """`instance` as a preferences block: each name, X side first, maps to
    its ranked list of names."""
    table: dict[str, list[str]] = {}
    for i, lst in enumerate(instance.x_lists):
        table[names.x_names[i]] = [names.y_names[j] for j in lst]
    for j, lst in enumerate(instance.y_lists):
        table[names.y_names[j]] = [names.x_names[i] for i in lst]
    return table
