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
3 resource cap exceeded, 4 internal failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from . import analysis, compatibility, engine, harness, market_io
from .errors import CapExceeded, InputError, MarketFormatError, SearchCapExceeded
from .graph import Side, Vertex

_SIDES = {"x": Side.X, "y": Side.Y}


def _fmt_vertex(names: market_io.NameMap, v: Optional[Vertex]) -> Optional[str]:
    return None if v is None else names.name(v)


# -- analyze -------------------------------------------------------------------


def cmd_analyze(args) -> tuple[dict, int]:
    bundle = market_io.load_market(args.market)
    g, names = bundle.graph, bundle.names
    side = _SIDES[args.side]

    perfect = analysis.perfect_verdict(g)
    verdict = perfect.x if side is Side.X else perfect.y
    vertices = []
    for r in verdict.reports:
        vertices.append(
            {
                "vertex": names.name(r.vertex),
                "options": r.options,
                "claimants": r.claimants,
                "bounded": r.bounded,
                "dedicated": _fmt_vertex(names, r.dedicated),
                "blockade": None
                if r.blockade is None
                else [names.name(u) for u in r.blockade],
                "satisfied": r.satisfied,
                "isolated": r.isolated,
            }
        )
    counterexample = None
    if verdict.counterexample is not None:
        target, instance = verdict.counterexample
        counterexample = {
            "vertex": names.name(target),
            "preferences": market_io.preference_table(names, instance),
        }
    saturation = {
        "side": args.side,
        "holds": verdict.holds,
        "vertices": vertices,
        "isolated": [names.name(r.vertex) for r in verdict.reports if r.isolated],
        "failing": [
            names.name(r.vertex)
            for r in verdict.reports
            if not r.satisfied and not r.isolated
        ],
        "counterexample": counterexample,
    }

    perfect_section = {
        "holds": perfect.holds,
        "x_holds": perfect.x.holds,
        "y_holds": perfect.y.holds,
    }

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

    coverage = None
    if bundle.compat is not None:
        # resolve_market has checked that the induced graph is g
        cross = compatibility.verdict_consistency(bundle.compat, perfect.x)
        class_names = bundle.market.compatibility.classes
        coverage = {
            "holds": cross.coverage.holds,
            "classes": [
                {
                    "name": class_names[c],
                    "members": sizes.members,
                    "slots": sizes.slots,
                    "covered": sizes.slots >= sizes.members,
                }
                for c, sizes in enumerate(cross.coverage.classes)
            ],
            "consistent": cross.consistent,
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
    if completeness["applicable"]:
        line = (
            f"connected balanced market complete: "
            f"{'YES' if completeness['holds'] else 'NO'}"
        )
        if completeness["missing_edge"] is not None:
            xe, ye = completeness["missing_edge"]
            line += f" (missing edge [{xe}, {ye}])"
        lines.append(line)
    else:
        lines.append(
            f"connected balanced market complete: n/a ({completeness['reason']})"
        )
    components = report["components"]
    if not components["applicable"]:
        lines.append(
            f"every component a balanced biclique: n/a ({components['reason']})"
        )
    if components["applicable"]:
        lines.append(
            f"every component a balanced biclique: "
            f"{'YES' if components['holds'] else 'NO'}"
        )
        for piece in components["pieces"]:
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
            f"(cross-check consistent: {'yes' if coverage['consistent'] else 'NO — ENGINE BUG'})"
        )
        for row in coverage["classes"]:
            lines.append(
                f"  class {row['name']}: {row['members']} members, "
                f"{row['slots']} slots — "
                f"{'covered' if row['covered'] else 'DEFICIENT'}"
            )
    return lines


# -- match ---------------------------------------------------------------------


def cmd_match(args) -> tuple[dict, int]:
    bundle = market_io.load_market(args.market)
    if bundle.instance is None:
        raise MarketFormatError(
            "market has no preferences block; `match` needs one",
            source=args.market,
        )
    g, names = bundle.graph, bundle.names
    side = _SIDES[args.propose]
    m = engine.deferred_acceptance(g, bundle.instance, proposing=side)
    stable = engine.is_stable(g, bundle.instance, m)
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
        "unmatched_x": [
            names.x_names[i]
            for i in range(g.x_count)
            if m.partner_of_x[i] is None
        ],
        "unmatched_y": [
            names.y_names[j]
            for j in range(g.y_count)
            if m.partner_of_y[j] is None
        ],
        "stable": stable,
    }
    return report, 0


def _render_match(report: dict) -> list[str]:
    lines = [
        f"market: {report['source']}",
        f"{report['proposing'].upper()}-proposing deferred acceptance "
        f"({report['size']} pairs, stable: {'yes' if report['stable'] else 'NO'}):",
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
    bundle = market_io.load_market(args.market)
    if bundle.instance is None:
        raise MarketFormatError(
            "market has no preferences block; `enumerate` needs one",
            source=args.market,
        )
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
    try:
        instance = analysis.adversarial_instance(g, target)
    except InputError as e:
        refusal = _rephrase_with_names(str(e), names)
        report = {
            "command": "adversary",
            "source": args.market,
            "target": args.target,
            "refused": refusal,
        }
        return report, 1

    bound = analysis.claimant_bound(g, target)
    emitted = market_io.market_with_preferences(bundle.market, names, instance)
    market_text = market_io.dump_market(emitted)
    if args.out:
        market_io.save_market(emitted, args.out)

    try:
        ss = engine.enumerate_stable(g, instance, cap=args.cap)
        stranded = all(
            ss_m.partner(target) is None for ss_m in ss.matchings
        )
        confirmation = {
            "within_cap": True,
            "stable_matchings": len(ss.matchings),
            "target_always_unmatched": stranded,
        }
    except SearchCapExceeded as e:
        confirmation = {"within_cap": False, "estimate": e.estimate}

    report = {
        "command": "adversary",
        "source": args.market,
        "target": args.target,
        "options": bound.options,
        "claimants": bound.claimants,
        "preferences": market_io.preference_table(names, instance),
        "market": market_text,
        "out": args.out,
        "confirmation": confirmation,
    }
    return report, 0


def _rephrase_with_names(message: str, names: market_io.NameMap) -> str:
    """Library errors speak x[i]/y[j]; swap in the market's display names.

    One pass, so a display name that itself looks like x[i]/y[j] is never
    renamed again.
    """

    def name(m: re.Match) -> str:
        table = names.x_names if m.group(1) == "x" else names.y_names
        return table[int(m.group(2))]

    return re.sub(r"([xy])\[(\d+)\]", name, message)


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}{'' if n == 1 else 's'}"


def _render_adversary(report: dict) -> list[str]:
    lines = [f"market: {report['source']}", f"target: {report['target']}"]
    if "refused" in report:
        lines.append(f"refused: {report['refused']}")
        return lines
    lines.append(
        f"{report['target']} has {_count(report['options'], 'option')} contested "
        f"by {_count(report['claimants'], 'claimant')}; emitting stranding "
        f"preferences"
    )
    conf = report["confirmation"]
    if conf["within_cap"]:
        outcome = (
            "unmatched in all of them"
            if conf["target_always_unmatched"]
            else "STILL MATCHED SOMEWHERE — bug"
        )
        lines.append(
            f"confirmation: {_count(conf['stable_matchings'], 'stable matching')}, "
            f"target {outcome}"
        )
    else:
        lines.append(
            f"confirmation skipped: search cap reached "
            f"(at most {conf['estimate']} stable matchings)"
        )
    if report["out"]:
        lines.append(f"market written to {report['out']}")
    lines.append("emitted market:")
    lines.extend("  " + ln for ln in report["market"].rstrip("\n").split("\n"))
    return lines


# -- verify ----------------------------------------------------------------------


def cmd_verify(args) -> tuple[dict, int]:
    progress = None
    if not args.quiet:

        def progress(msg: str) -> None:
            print(msg, file=sys.stderr)

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
        f"{p['seeds']} sample seeds, seed {p['seed']}"
    ]
    for suite in report["suites"]:
        status = "PASS" if suite["passed"] else "FAIL"
        counts = ", ".join(f"{k} {v}" for k, v in suite["counts"].items())
        lines.append(f"[{status}] {suite['name']} ({suite['seconds']}s): {counts}")
        for category, messages in suite["violations"].items():
            for msg in messages[:10]:
                lines.append(f"    {category}: {msg}")
            if len(messages) > 10:
                lines.append(
                    f"    {category}: ... {len(messages) - 10} more violations"
                )
    lines.append(
        "overall: " + ("all suites passed" if report["passed"] else "FAILURES above")
    )
    return lines


# -- plumbing ----------------------------------------------------------------------


_RENDERERS = {
    "analyze": _render_analyze,
    "match": _render_match,
    "enumerate": _render_enumerate,
    "adversary": _render_adversary,
    "verify": _render_verify,
}


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

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="report rendering: human text or JSON (default: text)",
        )

    p = sub.add_parser("analyze", help="saturation and perfection verdicts")
    p.add_argument("market", help="market file (YAML)")
    p.add_argument(
        "--side", choices=("x", "y"), default="x", help="side to analyze (default: x)"
    )
    add_format(p)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("match", help="run deferred acceptance once")
    p.add_argument("market", help="market file with a preferences block")
    p.add_argument(
        "--propose",
        choices=("x", "y"),
        default="x",
        help="proposing side (default: x)",
    )
    add_format(p)
    p.set_defaults(handler=cmd_match)

    p = sub.add_parser("enumerate", help="list every stable matching")
    p.add_argument("market", help="market file with a preferences block")
    p.add_argument(
        "--cap",
        type=int,
        default=engine.DEFAULT_NODE_CAP,
        help=f"search-node budget (default: {engine.DEFAULT_NODE_CAP})",
    )
    add_format(p)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser(
        "adversary", help="emit preferences that strand a chosen vertex"
    )
    p.add_argument("market", help="market file (YAML)")
    p.add_argument("--target", required=True, help="vertex name to strand")
    p.add_argument("--out", help="write the emitted market to this path")
    p.add_argument(
        "--cap",
        type=int,
        default=engine.DEFAULT_NODE_CAP,
        help="search-node budget for the in-report confirmation",
    )
    add_format(p)
    p.set_defaults(handler=cmd_adversary)

    p = sub.add_parser("verify", help="run the release-gate suites")
    p.add_argument(
        "--max-side",
        type=int,
        default=3,
        help="graph side bound for the verdict suites (default: 3)",
    )
    p.add_argument(
        "--cap",
        type=int,
        default=10**4,
        help="instance-count bound for exhaustive preference runs (default: 10000)",
    )
    p.add_argument(
        "--seeds",
        type=int,
        default=200,
        help="samples per graph above the cap (default: 200)",
    )
    p.add_argument(
        "--seed", type=int, default=harness.DEFAULT_SEED, help="base random seed"
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress progress lines on stderr"
    )
    add_format(p)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.handler(args)
    except MarketFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
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
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(_RENDERERS[report["command"]](report)))
    return code


if __name__ == "__main__":
    sys.exit(main())
