"""Command-line front end.

Five subcommands over one market file format:

* analyze   — per-vertex guarantees, saturation/perfection verdicts,
              adversarial counterexample when the verdict fails
* match     — one deferred-acceptance run (X- or Y-proposing)
* enumerate — every stable matching of the given preferences
* adversary — emit a market whose preferences strand a chosen vertex
* verify    — the exhaustive/sampled release-gate suites

Every report exists as one dict; text mode renders that dict, so machine
output always carries every number the human output shows. Exit codes:
0 success / verdict true, 1 domain-negative, 2 usage or input error,
3 resource cap exceeded, 4 internal failure. A reader that closes stdout
before the report is written changes neither the exit code nor stderr.

The argument parser is built once per process and reused by every `main`
call: it holds only constants and function references, and parsing does
not change it. `--format structured` prints the report through
`_json_text`, which writes exactly what `json.dumps(report, indent=2)`
writes but builds each container with one `str.join` and escapes strings
with the C `encode_basestring_ascii`; with `indent` set, `json.dumps`
falls back to its pure-Python encoder.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import analysis, compatibility, defaults, engine, market_io
from .errors import (
    CapExceeded,
    EngineInvariantError,
    InputError,
    MarketFormatError,
    SearchCapExceeded,
)
from .graph import Side

_SIDES = {"x": Side.X, "y": Side.Y}


# -- analyze -------------------------------------------------------------------


def cmd_analyze(args) -> tuple[dict, int]:
    bundle = market_io.load_market(args.market)
    g, names = bundle.graph, bundle.names
    side = _SIDES[args.side]

    verdict = analysis.saturation_verdict(g, side)
    vertices = []
    for r in verdict.reports:
        analysis.certify_blockade(g, r)
        analysis.certify_absorption(g, r)
        vertices.append(
            {
                "vertex": names.name(r.vertex),
                "options": r.options,
                "claimants": r.claimants,
                "bounded": r.bounded,
                "dedicated": None
                if r.dedicated is None
                else names.name(r.dedicated),
                "blockade": None
                if r.blockade is None
                else [names.name(u) for u in r.blockade],
                "satisfied": r.satisfied,
                "isolated": r.isolated,
            }
        )
    counterexample = None
    failing = verdict.first_strandable
    if failing is not None:
        instance = analysis.adversarial_instance(g, failing)
        analysis.certify_stranding(g, instance, failing.vertex, names.name)
        counterexample = {
            "vertex": names.name(failing.vertex),
            "preferences": market_io.preference_table(names, instance),
        }
    saturation = {
        "side": args.side,
        "holds": verdict.holds,
        "vertices": vertices,
        "isolated": [names.name(r.vertex) for r in verdict.reports if r.isolated],
        "failing": [names.name(r.vertex) for r in verdict.reports if r.strandable],
        "counterexample": counterexample,
    }

    # the other side is not printed, so it is decided only up to its
    # first vertex that is not satisfied
    other_holds = analysis.saturation_holds(g, side.opposite)
    holds = {side: verdict.holds, side.opposite: other_holds}
    x_holds, y_holds = holds[Side.X], holds[Side.Y]
    perfect_holds = x_holds and y_holds
    perfect_section = {"holds": perfect_holds, "x_holds": x_holds, "y_holds": y_holds}

    try:
        completeness_verdict = analysis.connected_perfect_verdict(g)
        completeness = {
            "applicable": True,
            "holds": completeness_verdict.holds,
            "missing_edge": None
            if completeness_verdict.missing_edge is None
            else [
                names.name(completeness_verdict.missing_edge[0]),
                names.name(completeness_verdict.missing_edge[1]),
            ],
        }
    except InputError as e:
        completeness = {"applicable": False, "reason": str(e)}

    try:
        component_verdict = analysis.component_perfect_verdict(g)
        components = {
            "applicable": True,
            "holds": component_verdict.holds,
            "pieces": [
                {
                    "x": [names.x_names[i] for i in s.x_vertices],
                    "y": [names.y_names[j] for j in s.y_vertices],
                    "biclique": s.biclique,
                    "balanced": s.balanced,
                }
                for s in component_verdict.components
            ],
        }
    except InputError as e:
        components = {"applicable": False, "reason": str(e)}

    # on a balanced market the components, and on a connected one also
    # completeness, decide perfection; the theorems say they agree with
    # both sides' verdicts
    for name, section in (("completeness", completeness), ("component", components)):
        if section["applicable"] and section["holds"] != perfect_holds:
            raise EngineInvariantError(
                f"the {name} perfection verdict disagrees with the saturation "
                f"verdicts of both sides"
            )

    coverage = None
    if bundle.compat is not None:
        # resolve_market has checked that the induced graph is g
        cross = compatibility.verdict_consistency(bundle.compat, x_holds)
        if not cross.consistent:
            raise EngineInvariantError(
                "the class-coverage verdict disagrees with the X-saturation "
                "verdict on the induced graph"
            )
        class_names = bundle.market.compatibility.classes
        coverage = {
            "holds": cross.coverage.holds,
            "classes": [
                {
                    "name": class_names[c],
                    "members": sizes.members,
                    "slots": sizes.slots,
                    "covered": sizes.covered,
                }
                for c, sizes in enumerate(cross.coverage.classes)
            ],
            "consistent": True,
        }

    report = {
        "command": "analyze",
        "source": args.market,
        "side": args.side,
        "saturation": saturation,
        "perfect": perfect_section,
        "completeness": completeness,
        "components": components,
        "coverage": coverage,
    }
    return report, 0 if verdict.holds else 1


def _perfection_line(label: str, section: dict) -> str:
    """`label: YES` or `NO`, or `label: n/a (reason)` when the section's
    theorem does not apply to the market."""
    if not section["applicable"]:
        return f"{label}: n/a ({section['reason']})"
    return f"{label}: {'YES' if section['holds'] else 'NO'}"


def _render_analyze(report: dict) -> list[str]:
    lines = [f"market: {report['source']}"]
    sat = report["saturation"]
    side = sat["side"].upper()
    lines.append(
        f"every stable matching {side}-saturating for all preferences: "
        f"{'YES' if sat['holds'] else 'NO'}"
    )
    header = (
        f"  {'vertex':<10}{'options':>8}{'claimants':>11}  "
        f"{'bounded':<8}{'dedicated':<11}{'blockade':<16}{'status'}"
    )
    lines.append(header)
    for row in sat["vertices"]:
        if row["isolated"]:
            status = "isolated"
        elif row["satisfied"]:
            status = "guaranteed"
        else:
            status = "can be stranded"
        shield = "-" if row["blockade"] is None else "+".join(row["blockade"])
        lines.append(
            f"  {row['vertex']:<10}{row['options']:>8}{row['claimants']:>11}  "
            f"{'yes' if row['bounded'] else 'no':<8}"
            f"{row['dedicated'] or '-':<11}{shield:<16}{status}"
        )
    if sat["isolated"]:
        lines.append(f"  isolated on side {side}: {', '.join(sat['isolated'])}")
    if sat["counterexample"] is not None:
        ce = sat["counterexample"]
        lines.append(f"counterexample stranding {ce['vertex']}:")
        for name, ranked in ce["preferences"].items():
            lines.append(f"  {name}: {' > '.join(ranked) if ranked else '(empty)'}")
    perfect = report["perfect"]
    lines.append(
        f"every stable matching perfect for all preferences: "
        f"{'YES' if perfect['holds'] else 'NO'} "
        f"(X: {'yes' if perfect['x_holds'] else 'no'}, "
        f"Y: {'yes' if perfect['y_holds'] else 'no'})"
    )
    completeness = report["completeness"]
    line = _perfection_line("connected balanced market complete", completeness)
    if completeness.get("missing_edge") is not None:
        xe, ye = completeness["missing_edge"]
        line += f" (missing edge [{xe}, {ye}])"
    lines.append(line)
    components = report["components"]
    lines.append(_perfection_line("every component a balanced biclique", components))
    for piece in components.get("pieces", ()):
        lines.append(
            f"  component {{{', '.join(piece['x'] + piece['y'])}}}: "
            f"biclique {'yes' if piece['biclique'] else 'no'}, "
            f"balanced {'yes' if piece['balanced'] else 'no'}"
        )
    coverage = report["coverage"]
    if coverage is not None:
        lines.append(
            f"every class covers its members: "
            f"{'YES' if coverage['holds'] else 'NO'} "
            "(cross-check consistent: yes)"
        )
        for row in coverage["classes"]:
            lines.append(
                f"  class {row['name']}: "
                f"{analysis.counted(row['members'], 'member')}, "
                f"{analysis.counted(row['slots'], 'slot')} — "
                f"{'covered' if row['covered'] else 'DEFICIENT'}"
            )
    return lines


# -- match ---------------------------------------------------------------------


def _load_with_preferences(path: str, command: str) -> market_io.MarketBundle:
    """The market at `path`, refused when it has no preferences block."""
    bundle = market_io.load_market(path)
    if bundle.instance is None:
        raise MarketFormatError(
            f"market has no preferences block; `{command}` needs one", source=path
        )
    return bundle


def cmd_match(args) -> tuple[dict, int]:
    bundle = _load_with_preferences(args.market, "match")
    g, names = bundle.graph, bundle.names
    side = _SIDES[args.propose]
    m = engine.deferred_acceptance(g, bundle.instance, proposing=side)
    if not engine.is_stable(g, bundle.instance, m):
        raise EngineInvariantError(
            f"{args.propose.upper()}-proposing deferred acceptance returned "
            f"an unstable matching"
        )
    report = {
        "command": "match",
        "source": args.market,
        "proposing": args.propose,
        "pairs": [
            [names.x_names[i], names.y_names[j]] for i, j in m.pairs()
        ],
        "size": m.size,
        "matched_x": [names.x_names[i] for i in sorted(m.matched_set(Side.X))],
        "matched_y": [names.y_names[j] for j in sorted(m.matched_set(Side.Y))],
        "unmatched_x": [n for n, p in zip(names.x_names, m.partner_of_x) if p is None],
        "unmatched_y": [n for n, p in zip(names.y_names, m.partner_of_y) if p is None],
        "stable": True,
    }
    return report, 0


def _render_match(report: dict) -> list[str]:
    pairs = analysis.counted(report["size"], "pair")
    lines = [
        f"market: {report['source']}",
        f"{report['proposing'].upper()}-proposing deferred acceptance "
        f"({pairs}, stable: yes):",
    ]
    for xn, yn in report["pairs"]:
        lines.append(f"  {xn} — {yn}")
    if report["unmatched_x"]:
        lines.append(f"  unmatched X: {', '.join(report['unmatched_x'])}")
    if report["unmatched_y"]:
        lines.append(f"  unmatched Y: {', '.join(report['unmatched_y'])}")
    return lines


# -- enumerate -------------------------------------------------------------------


def cmd_enumerate(args) -> tuple[dict, int]:
    bundle = _load_with_preferences(args.market, "enumerate")
    g, names = bundle.graph, bundle.names
    ss = engine.enumerate_stable(g, bundle.instance, cap=args.cap)
    report = {
        "command": "enumerate",
        "source": args.market,
        "count": len(ss.matchings),
        "matchings": [
            {"pairs": [[names.x_names[i], names.y_names[j]] for i, j in m.pairs()]}
            for m in ss.matchings
        ],
        "matched_x": [names.x_names[i] for i in sorted(ss.matched_x)],
        "matched_y": [names.y_names[j] for j in sorted(ss.matched_y)],
        "x_saturating": ss.x_saturating,
        "y_saturating": ss.y_saturating,
        "nodes_visited": ss.nodes_visited,
        "cap": args.cap,
    }
    return report, 0


def _render_enumerate(report: dict) -> list[str]:
    lines = [
        f"market: {report['source']}",
        f"stable matchings: {report['count']} "
        f"({report['nodes_visited']} search nodes, cap {report['cap']})",
    ]
    for idx, m in enumerate(report["matchings"], 1):
        pairs = ", ".join(f"{xn}—{yn}" for xn, yn in m["pairs"]) or "(empty)"
        lines.append(f"  #{idx}: {pairs}")
    lines.append(
        f"matched in every stable matching: "
        f"X = {{{', '.join(report['matched_x'])}}}, "
        f"Y = {{{', '.join(report['matched_y'])}}}"
    )
    lines.append(
        f"X-saturating: {'yes' if report['x_saturating'] else 'no'}; "
        f"Y-saturating: {'yes' if report['y_saturating'] else 'no'}"
    )
    return lines


# -- adversary -------------------------------------------------------------------


def cmd_adversary(args) -> tuple[dict, int]:
    bundle = market_io.load_market(args.market)
    g, names = bundle.graph, bundle.names
    target = names.vertex(args.target)
    if target is None:
        raise MarketFormatError(
            f"no vertex named {args.target!r} in the market", source=args.market
        )
    r = analysis.vertex_report(g, target)
    if not r.strandable:
        analysis.certify_blockade(g, r)
        report = {
            "command": "adversary",
            "source": args.market,
            "target": args.target,
            "refused": analysis.guarantee(g, r, names.name),
        }
        return report, 1

    instance = analysis.adversarial_instance(g, r)
    analysis.certify_stranding(g, instance, target, names.name)
    table = market_io.preference_table(names, instance)
    market_text = market_io.dump_market(replace(bundle.market, preferences=table))

    # the market is written only once its instance is confirmed, or once the
    # search cap leaves the enumeration unfinished; a failed confirmation
    # writes nothing
    try:
        ss = engine.enumerate_stable(g, instance, cap=args.cap)
        if not ss.always_unmatched(target):
            raise EngineInvariantError(
                f"the instance built to strand {args.target} matches it in "
                f"some stable matching"
            )
        confirmation = {
            "within_cap": True,
            "stable_matchings": len(ss.matchings),
            "target_always_unmatched": True,
        }
    except SearchCapExceeded as e:
        confirmation = {"within_cap": False, "estimate": e.estimate}

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(market_text)
        except OSError as e:
            raise InputError(f"cannot write --out: {e}") from None

    report = {
        "command": "adversary",
        "source": args.market,
        "target": args.target,
        "options": r.options,
        "claimants": r.claimants,
        "preferences": table,
        "market": market_text,
        "out": args.out,
        "confirmation": confirmation,
    }
    return report, 0


def _render_adversary(report: dict) -> list[str]:
    lines = [f"market: {report['source']}", f"target: {report['target']}"]
    if "refused" in report:
        lines.append(f"refused: {report['refused']}")
        return lines
    options = analysis.counted(report["options"], "option")
    claimants = analysis.counted(report["claimants"], "claimant")
    lines.append(
        f"{report['target']} has {options} contested by {claimants}; "
        f"emitting stranding preferences"
    )
    conf = report["confirmation"]
    if conf["within_cap"]:
        found = analysis.counted(conf["stable_matchings"], "stable matching")
        lines.append(f"confirmation: {found}, target unmatched in all of them")
    else:
        bound = analysis.counted(conf["estimate"], "stable matching")
        lines.append(f"confirmation skipped: search cap reached (at most {bound})")
    if report["out"]:
        lines.append(f"market written to {report['out']}")
    lines.append("emitted market:")
    lines.extend("  " + ln for ln in report["market"].rstrip("\n").split("\n"))
    return lines


# -- verify ----------------------------------------------------------------------


def cmd_verify(args) -> tuple[dict, int]:
    from . import harness  # the largest module; only `verify` needs it

    progress = None if args.quiet else functools.partial(print, file=sys.stderr)
    results = harness.run_all(
        max_side=args.max_side,
        instance_cap=args.cap,
        seeds=args.seeds,
        seed=args.seed,
        progress=progress,
    )
    report = {
        "command": "verify",
        "params": {
            "max_side": args.max_side,
            "cap": args.cap,
            "seeds": args.seeds,
            "seed": args.seed,
        },
        "suites": [r.as_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
    return report, 0 if report["passed"] else 1


def _render_verify(report: dict) -> list[str]:
    p = report["params"]
    lines = [
        f"verification run: max side {p['max_side']}, instance cap {p['cap']}, "
        f"{analysis.counted(p['seeds'], 'sample seed')}, seed {p['seed']}"
    ]
    for suite in report["suites"]:
        status = "PASS" if suite["passed"] else "FAIL"
        counts = ", ".join(f"{k} {v}" for k, v in suite["counts"].items())
        lines.append(f"[{status}] {suite['name']} ({suite['seconds']}s): {counts}")
        for category, messages in suite["violations"].items():
            for msg in messages[:10]:
                lines.append(f"    {category}: {msg}")
            if len(messages) > 10:
                more = analysis.counted(len(messages) - 10, "more violation")
                lines.append(f"    {category}: ... {more}")
    lines.append(
        "overall: " + ("all suites passed" if report["passed"] else "FAILURES above")
    )
    return lines


# -- plumbing ----------------------------------------------------------------------


def _node_cap(text: str) -> int:
    """The `--cap` of `enumerate` and `adversary`; a negative budget is refused
    while parsing, before any search runs or any file is written."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {cap}")
    return cap


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satmatch",
        description=(
            "Decide whether every stable matching of a bipartite market "
            "saturates one side, for all preference instances — with "
            "per-vertex certificates or an adversarial counterexample."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_node_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cap",
            type=_node_cap,
            default=engine.DEFAULT_NODE_CAP,
            help="search-step budget of the stable-matching enumeration "
            f"(default: {engine.DEFAULT_NODE_CAP})",
        )

    p = sub.add_parser("analyze", help="saturation and perfection verdicts")
    p.add_argument("market", help="market file (YAML)")
    p.add_argument(
        "--side", choices=("x", "y"), default="x", help="side to analyze (default: x)"
    )
    p.set_defaults(handler=cmd_analyze, render=_render_analyze)

    p = sub.add_parser("match", help="run deferred acceptance once")
    p.add_argument("market", help="market file with a preferences block")
    p.add_argument(
        "--propose",
        choices=("x", "y"),
        default="x",
        help="proposing side (default: x)",
    )
    p.set_defaults(handler=cmd_match, render=_render_match)

    p = sub.add_parser("enumerate", help="list every stable matching")
    p.add_argument("market", help="market file with a preferences block")
    add_node_cap(p)
    p.set_defaults(handler=cmd_enumerate, render=_render_enumerate)

    p = sub.add_parser(
        "adversary", help="emit preferences that strand a chosen vertex"
    )
    p.add_argument("market", help="market file (YAML)")
    p.add_argument("--target", required=True, help="vertex name to strand")
    p.add_argument("--out", help="write the emitted market to this path")
    add_node_cap(p)
    p.set_defaults(handler=cmd_adversary, render=_render_adversary)

    p = sub.add_parser("verify", help="run the release-gate suites")
    p.add_argument(
        "--max-side",
        type=int,
        default=defaults.DEFAULT_MAX_SIDE,
        help="graph side bound for the verdict suites (default: %(default)s)",
    )
    p.add_argument(
        "--cap",
        type=int,
        default=defaults.DEFAULT_GATE_CAP,
        help="instance-count bound for exhaustive preference runs "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--seeds",
        type=int,
        default=defaults.DEFAULT_SEEDS,
        help="samples per graph above the cap (default: %(default)s)",
    )
    p.add_argument(
        "--seed", type=int, default=defaults.DEFAULT_SEED, help="base random seed"
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress progress lines on stderr"
    )
    p.set_defaults(handler=cmd_verify, render=_render_verify)

    for p in sub.choices.values():
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="report rendering: human text or JSON (default: text)",
        )
    return parser


def _json_text(value, newline: str = "\n") -> str:
    """`value` as `json.dumps(value, indent=2)` writes it, for the types a
    report holds: str, int, float, bool, None, and lists, tuples and dicts
    with str keys of them. Anything else raises TypeError. `newline` is a
    line break and the indent of the line `value` starts on."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)  # compact, so in C: repr, NaN or Infinity
    # Each container is built by one join that copies its children's text
    # once; wrapping the joined text in brackets would copy a large report
    # once more per level. Names are most of a report's leaves, so they are
    # written inline, saving a call each.
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [
            encode_basestring_ascii(v) if type(v) is str else _json_text(v, inner)
            for v in value
        ]
        items[0] = f"[{inner}{items[0]}"
        items[-1] = f"{items[-1]}{newline}]"
        return f",{inner}".join(items)
    if isinstance(value, dict):
        if not value:
            return "{}"
        pieces = ["{"]
        separator = inner
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"report keys must be str, not {type(k).__name__}")
            pieces.append(f"{separator}{encode_basestring_ascii(k)}: ")
            pieces.append(
                encode_basestring_ascii(v) if type(v) is str else _json_text(v, inner)
            )
            separator = f",{inner}"
        pieces.append(f"{newline}}}")
        return "".join(pieces)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.handler(args)
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # engine bug or exhausted stack, never a verdict
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 4
    if args.format == "structured":
        text = _json_text(report)
    else:
        text = "\n".join(args.render(report))
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, which changes no verdict; the
        # interpreter's own flush at exit then writes to os.devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
