"""The market file format: parsing, validation, and serialization.

One self-describing YAML document (schema_version "1") carries the graph
(named vertices + edges), optionally a full preference table, and optionally
a compatibility block (classes, X memberships, Y assignment). Names live
only here; the core works on dense indices, and this layer owns the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import yaml

from . import prefs
from .compatibility import CompatibilityMarket, induced_graph
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
    """Bidirectional vertex-name mapping for one market."""

    def __init__(self, x_names: list[str], y_names: list[str]):
        self.x_names = tuple(x_names)
        self.y_names = tuple(y_names)
        self._vertices: dict[str, Vertex] = {}
        for i, n in enumerate(self.x_names):
            self._vertices[n] = Vertex(Side.X, i)
        for j, n in enumerate(self.y_names):
            self._vertices[n] = Vertex(Side.Y, j)

    def vertex(self, name: str) -> Optional[Vertex]:
        return self._vertices.get(name)

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


def _fail(
    message: str,
    source: str,
    line: Optional[int] = None,
    column: Optional[int] = None,
):
    raise MarketFormatError(message, source=source, line=line, column=column)


def _expect_str_list(value: Any, what: str, source: str) -> list[str]:
    if not isinstance(value, list):
        _fail(f"{what} must be a list, got {type(value).__name__}", source)
    for item in value:
        if not isinstance(item, str) or not item:
            _fail(f"{what} entries must be nonempty strings, got {item!r}", source)
    return list(value)


def parse_market(text: str, source: str = "<string>") -> MarketFile:
    """Parse one market document; structural and name-level validation only.

    Graph-level validation (preference tables, compatibility cross-checks)
    happens in resolve_market.
    """
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        if mark is not None:
            _fail(
                f"not valid YAML: {getattr(e, 'problem', e)}",
                source,
                line=mark.line + 1,
                column=mark.column + 1,
            )
        _fail(f"not valid YAML: {e}", source)
    if not isinstance(data, dict):
        _fail(f"document must be a mapping, got {type(data).__name__}", source)

    known = {"schema_version", "x_names", "y_names", "edges", "preferences", "compatibility"}
    for key in data:
        if key not in known:
            _fail(f"unknown key {key!r}", source)
    for key in ("schema_version", "x_names", "y_names", "edges"):
        if key not in data:
            _fail(f"missing required key {key!r}", source)

    version = data["schema_version"]
    if isinstance(version, int):
        version = str(version)
    if version != SCHEMA_VERSION:
        _fail(
            f"unsupported schema_version {data['schema_version']!r} "
            f"(this build reads {SCHEMA_VERSION!r})",
            source,
        )

    x_names = _expect_str_list(data["x_names"], "x_names", source)
    y_names = _expect_str_list(data["y_names"], "y_names", source)
    for names, label in ((x_names, "x_names"), (y_names, "y_names")):
        seen = set()
        for n in names:
            if n in seen:
                _fail(f"{label} lists {n!r} twice", source)
            seen.add(n)
    overlap = set(x_names) & set(y_names)
    if overlap:
        _fail(
            f"name {sorted(overlap)[0]!r} appears on both sides; names must be "
            f"unique across the market so preference keys stay unambiguous",
            source,
        )

    x_set, y_set = set(x_names), set(y_names)
    if not isinstance(data["edges"], list):
        _fail("edges must be a list of [x, y] pairs", source)
    edges: list[tuple[str, str]] = []
    seen_edges = set()
    for raw in data["edges"]:
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            _fail(f"edge {raw!r} must be an [x, y] pair", source)
        xn, yn = raw
        if not all(isinstance(n, str) and n for n in raw):
            _fail(f"edge {raw!r} endpoints must be nonempty strings", source)
        if xn not in x_set:
            _fail(f"edge {raw!r} references unknown X-vertex {xn!r}", source)
        if yn not in y_set:
            _fail(f"edge {raw!r} references unknown Y-vertex {yn!r}", source)
        if (xn, yn) in seen_edges:
            _fail(f"duplicate edge [{xn!r}, {yn!r}]", source)
        seen_edges.add((xn, yn))
        edges.append((xn, yn))

    preferences = None
    if data.get("preferences") is not None:
        raw_prefs = data["preferences"]
        if not isinstance(raw_prefs, dict):
            _fail("preferences must map vertex names to ranked name lists", source)
        preferences = {}
        for name, ranked in raw_prefs.items():
            if name not in x_set and name not in y_set:
                _fail(f"preferences given for unknown vertex {name!r}", source)
            preferences[name] = _expect_str_list(
                ranked, f"preference list for {name!r}", source
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
    if not isinstance(raw, dict):
        _fail("compatibility must be a mapping", source)
    for key in raw:
        if key not in {"classes", "x_membership", "y_class"}:
            _fail(f"compatibility: unknown key {key!r}", source)
    for key in ("classes", "x_membership", "y_class"):
        if key not in raw:
            _fail(f"compatibility: missing key {key!r}", source)
    classes = _expect_str_list(raw["classes"], "compatibility.classes", source)
    if not classes:
        _fail("compatibility.classes must not be empty", source)
    if len(set(classes)) != len(classes):
        _fail("compatibility.classes contains duplicates", source)
    class_set = set(classes)

    membership_raw = raw["x_membership"]
    if not isinstance(membership_raw, dict):
        _fail("compatibility.x_membership must map X names to class lists", source)
    x_membership: dict[str, list[str]] = {}
    for xn in x_names:
        if xn not in membership_raw:
            _fail(f"compatibility.x_membership missing {xn!r}", source)
    for name, classes_of in membership_raw.items():
        if name not in x_set:
            _fail(f"compatibility.x_membership names unknown X-vertex {name!r}", source)
        listed = _expect_str_list(
            classes_of, f"compatibility.x_membership[{name!r}]", source
        )
        if not listed:
            _fail(f"compatibility.x_membership[{name!r}] must not be empty", source)
        if len(set(listed)) != len(listed):
            _fail(f"compatibility.x_membership[{name!r}] lists a class twice", source)
        for c in listed:
            if c not in class_set:
                _fail(
                    f"compatibility.x_membership[{name!r}] names unknown class {c!r}",
                    source,
                )
        x_membership[name] = listed

    y_class_raw = raw["y_class"]
    if not isinstance(y_class_raw, dict):
        _fail("compatibility.y_class must map Y names to a class name", source)
    y_class: dict[str, str] = {}
    for yn in y_names:
        if yn not in y_class_raw:
            _fail(f"compatibility.y_class missing {yn!r}", source)
    for name, c in y_class_raw.items():
        if name not in y_set:
            _fail(f"compatibility.y_class names unknown Y-vertex {name!r}", source)
        if not isinstance(c, str) or c not in class_set:
            _fail(f"compatibility.y_class[{name!r}] names unknown class {c!r}", source)
        y_class[name] = c

    # exclusivity gets checked here with names so the message is readable;
    # CompatibilityMarket re-checks it on indices regardless
    for c in classes:
        if not any(set(m) == {c} for m in x_membership.values()):
            _fail(
                f"compatibility: class {c!r} has no exclusive member; some "
                f"X-vertex must belong to it and to no other class",
                source,
            )

    return CompatibilityBlock(
        classes=classes, x_membership=x_membership, y_class=y_class
    )


def resolve_market(mf: MarketFile, source: str = "<market>") -> MarketBundle:
    """Build and cross-validate the domain objects for a parsed market."""
    names = NameMap(mf.x_names, mf.y_names)
    edge_indices = [
        (names.vertex(xn).index, names.vertex(yn).index) for xn, yn in mf.edges
    ]
    graph = BipartiteGraph(len(mf.x_names), len(mf.y_names), edge_indices)

    instance = None
    if mf.preferences is not None:
        table = {}
        for name, ranked in mf.preferences.items():
            entries = []
            for cand in ranked:
                cv = names.vertex(cand)
                if cv is None:
                    _fail(
                        f"preference list for {name!r} names unknown vertex {cand!r}",
                        source,
                    )
                entries.append(cv)
            table[names.vertex(name)] = entries
        try:
            instance = prefs.validate(graph, table, describe=names.name)
        except PreferenceError as e:
            _fail(f"preferences: {e}", source)

    compat = None
    if mf.compatibility is not None:
        block = mf.compatibility
        class_index = {c: k for k, c in enumerate(block.classes)}
        compat = CompatibilityMarket.build(
            n_classes=len(block.classes),
            x_membership=[
                [class_index[c] for c in block.x_membership[xn]] for xn in mf.x_names
            ],
            y_class=[class_index[block.y_class[yn]] for yn in mf.y_names],
        )
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
                )
            for xi, yi in sorted(declared - wanted):
                _fail(
                    f"edge [{mf.x_names[xi]!r}, {mf.y_names[yi]!r}] joins "
                    f"incompatible classes; edges must equal the induced "
                    f"acceptability exactly",
                    source,
                )

    return MarketBundle(
        market=mf, graph=graph, names=names, instance=instance, compat=compat
    )


def load_market(path: str) -> MarketBundle:
    """Read, parse, and fully validate a market file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise MarketFormatError(str(e), source=path) from None
    return resolve_market(parse_market(text, source=path), source=path)


def market_to_dict(mf: MarketFile) -> dict:
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
    return yaml.safe_dump(
        market_to_dict(mf), sort_keys=False, default_flow_style=None
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


def market_with_preferences(
    base: MarketFile, names: NameMap, instance: PreferenceInstance
) -> MarketFile:
    """A copy of `base` whose preferences block is `instance`, rendered in names."""
    return MarketFile(
        schema_version=base.schema_version,
        x_names=list(base.x_names),
        y_names=list(base.y_names),
        edges=list(base.edges),
        preferences=preference_table(names, instance),
        compatibility=base.compatibility,
    )
