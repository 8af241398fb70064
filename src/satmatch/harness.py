"""Release-gate verification suites.

Each suite enumerates a whole family of graphs or markets, computes ground
truth by brute force (enumerating preference instances and their complete
stable-matching sets), and compares the structural verdicts against it.
The suites return structured results; the CLI `verify` subcommand and the
acceptance tests are both thin wrappers over them.

Both graph suites take one ground truth per graph from one routine,
`_brute_check`: whether every stable matching of every instance checked,
all of the graph's instances or a seeded sample of them, saturates X. On a
balanced graph a stable matching saturates X exactly when it is perfect,
so `run_all` hands the record of each balanced graph checked whole from
the saturation suite to the perfection suite. Sampled graphs draw their
own instances in each suite, and a suite run alone computes every record.

Calls into the analysis/engine layers go through the module namespaces on
purpose: the test suite injects faults by patching those attributes and
expects the suites to notice.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import analysis, compatibility, engine, prefs
from .defaults import DEFAULT_GATE_CAP, DEFAULT_MAX_SIDE, DEFAULT_SEED, DEFAULT_SEEDS
from .errors import GraphCountExceeded, InputError
from .graph import BipartiteGraph, Matching, Side, Vertex

MAX_GRAPHS = 1 << 20  # admits max side 4 (74,963 graphs); 5 has 2^25 at 5x5 alone

Progress = Optional[Callable[[str], None]]


@dataclass
class SuiteResult:
    name: str
    counts: dict[str, int] = field(default_factory=dict)
    violations: dict[str, list[str]] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not any(self.violations.values())

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
            "counts": dict(self.counts),
            "violations": {k: list(v) for k, v in self.violations.items()},
        }


# -- families and oracles ----------------------------------------------------


def graphs_of_shape(a: int, b: int) -> Iterator[BipartiteGraph]:
    """Every bipartite graph with |X| = a, |Y| = b, one per edge mask (2^(a*b))."""
    for mask in range(1 << (a * b)):
        edges = [
            (i, j) for i in range(a) for j in range(b) if mask >> (i * b + j) & 1
        ]
        yield BipartiteGraph(a, b, edges)


def all_graphs(max_x: int, max_y: int) -> Iterator[BipartiteGraph]:
    """Every bipartite graph with |X| <= max_x, |Y| <= max_y, raw enumeration.

    Every adjacency relation appears once (2^(a*b) per size pair); no
    deduplication up to isomorphism, which is what exhaustive checking wants.
    """
    for a in range(max_x + 1):
        for b in range(max_y + 1):
            yield from graphs_of_shape(a, b)


def graph_count(max_x: int, max_y: int) -> int:
    """How many graphs all_graphs(max_x, max_y) yields: the sum of 2^(a*b)."""
    return sum(1 << (a * b) for a in range(max_x + 1) for b in range(max_y + 1))


def all_matchings(graph: BipartiteGraph) -> Iterator[Matching]:
    """Every matching of the graph, including the empty one."""
    for vec in product(*((None, *row) for row in graph.x_adj)):
        taken = [y for y in vec if y is not None]
        if len(taken) == len(set(taken)):
            yield Matching(vec, graph.y_count)


def naive_stable_matchings(
    graph: BipartiteGraph, instance: prefs.PreferenceInstance
) -> list[Matching]:
    """Oracle: filter every matching by the public blocking-pair scan.

    Independent of the lattice walk in `engine.enumerate_stable`, so the
    two must agree or one of them is wrong.
    """
    return [
        m
        for m in all_matchings(graph)
        if not engine.find_blocking_pairs(graph, instance, m)
    ]


def instances_for(
    graph: BipartiteGraph,
    cap: int,
    seeds: int,
    seed_base: int,
    extra: Optional[prefs.PreferenceInstance] = None,
) -> Iterator[prefs.PreferenceInstance]:
    """All instances when their count fits the cap, else seeded samples.

    `extra`, when given, joins the sampled fallback only — exhaustive runs
    already contain every instance.
    """
    if prefs.instance_count(graph) <= cap:
        yield from prefs.enumerate_all(graph, cap)
    else:
        for k in range(seeds):
            yield prefs.sample_uniform(graph, seed_base + k)
        if extra is not None:
            yield extra


def perfect_counterexample(
    graph: BipartiteGraph,
) -> Optional[prefs.PreferenceInstance]:
    """An instance whose stable matchings are never perfect, if the
    structural verdict says one exists. This builds one stranding instance,
    for the verdict's first strandable vertex: on side X if it has one,
    else on side Y. When only isolated vertices fail, it is the ascending
    instance, since every instance leaves them unmatched. None when the
    verdict holds."""
    pv = analysis.perfect_verdict(graph)
    for sv in (pv.x, pv.y):
        failing = sv.first_strandable
        if failing is not None:
            return analysis.adversarial_instance(graph, failing)
    return None if pv.holds else prefs.PreferenceInstance(graph.x_adj, graph.y_adj)


def _disagreements(ss: engine.StableSet) -> list[str]:
    """Recheck every member's matched sets, both sides, through the public
    path; one message per member that disagrees."""
    return [
        f"member {m.pairs()} disagrees with matched sets "
        f"{sorted(ss.matched_x)}/{sorted(ss.matched_y)}"
        for m in ss.matchings
        if m.matched_set(Side.X) != ss.matched_x
        or m.matched_set(Side.Y) != ss.matched_y
    ]


def _stable_set(
    g: BipartiteGraph, p: prefs.PreferenceInstance, where: str, result: SuiteResult
) -> engine.StableSet:
    """Enumerate the stable matchings of (g, p), count them into `result` and
    recheck every member's matched sets."""
    ss = engine.enumerate_stable(g, p)
    result.counts["stable_sets"] += 1
    result.counts["stable_matchings"] += len(ss.matchings)
    result.counts["invariance_checks"] += len(ss.matchings)
    result.violations["invariance"] += (f"{where}: {d}" for d in _disagreements(ss))
    return ss


class BruteCheck(NamedTuple):
    """One graph's instances checked by brute force, in stream order up to
    the first whose stable matchings do not all saturate X. Each instance
    checked is one stable set."""

    saturates: bool  # every stable matching of every instance saturates X
    instances: int
    stable_matchings: int
    invariance: tuple[str, ...]  # `_disagreements` messages, no graph prefix

    def add_to(self, result: SuiteResult, where: str) -> None:
        """Count this check into `result` as if the suite had run it there."""
        counts = result.counts
        counts["instances"] += self.instances
        counts["stable_sets"] += self.instances
        counts["stable_matchings"] += self.stable_matchings
        counts["invariance_checks"] += self.stable_matchings
        result.violations["invariance"] += (f"{where}: {d}" for d in self.invariance)


def _brute_check(
    g: BipartiteGraph, instances: Iterable[prefs.PreferenceInstance]
) -> BruteCheck:
    """Enumerate the stable set of each instance of g in turn, stopping at
    the first with a member that does not saturate X."""
    saturates = True
    count = matchings = 0
    invariance: list[str] = []
    for p in instances:
        count += 1
        ss = engine.enumerate_stable(g, p)
        matchings += len(ss.matchings)
        invariance += _disagreements(ss)
        if not ss.x_saturating:
            saturates = False
            break
    return BruteCheck(saturates, count, matchings, tuple(invariance))


def _graph_key(g: BipartiteGraph, width: int) -> int:
    """g as one int, packed as `_induced_key` packs a market's induced graph;
    |X| and |Y| must fit in `width` bits."""
    b = g.y_count
    mask = 0
    for i, row in enumerate(g.masks(Side.X)):
        mask |= row << (i * b)
    return (mask << width | g.x_count) << width | b


# -- suite 1: one-sided saturation (verdict + adversarial + invariance) ------


def saturation_suite(
    max_side: int = DEFAULT_MAX_SIDE,
    instance_cap: int = DEFAULT_GATE_CAP,
    seeds: int = DEFAULT_SEEDS,
    seed: int = DEFAULT_SEED,
    progress: Progress = None,
    truths: Optional[dict[int, BruteCheck]] = None,
) -> SuiteResult:
    """Exhaustively cross-check the X-side saturation verdict.

    For every graph up to max_side x max_side, `_brute_check` runs over its
    instances from `instances_for`: all of them when the count fits
    instance_cap, else `seeds` samples. The verdict must hold exactly when
    every stable matching of every checked instance saturates X. For every
    vertex failing both guarantees, the constructed adversarial instance
    must leave it unmatched in every stable matching. Every stable-matching
    set produced on the way must agree on who is matched, on both sides.

    `truths` receives the check of each balanced graph checked whole, keyed
    by `_graph_key` at max_side's bit width, for a perfection suite run next
    with the same max_side and instance_cap; by default it is a fresh dict.
    Sampled checks are not shared.
    """
    result = SuiteResult(
        name="saturation",
        counts={
            "graphs": 0,
            "verdicts_true": 0,
            "instances": 0,
            "stable_sets": 0,
            "stable_matchings": 0,
            "invariance_checks": 0,
            "adversarial_targets": 0,
        },
        violations={"verdict": [], "adversarial": [], "invariance": []},
    )
    counts, violations = result.counts, result.violations
    started = time.perf_counter()
    width = max_side.bit_length()
    if truths is None:
        truths = {}

    for g_index, g in enumerate(all_graphs(max_side, max_side)):
        counts["graphs"] += 1
        verdict = analysis.saturation_verdict(g, Side.X)
        if verdict.holds:
            counts["verdicts_true"] += 1

        # the verdict claims: every SM of every instance saturates X. Each
        # strandable vertex gets one stranding instance, checked below; on a
        # sampled graph the first also joins the samples, so a negative
        # verdict stays checkable. A verdict failing only at isolated
        # vertices, unmatched under any instance, joins the ascending one.
        adversarial = [
            (report, analysis.adversarial_instance(g, report))
            for report in verdict.reports
            if report.strandable
        ]
        whole = prefs.instance_count(g) <= instance_cap
        extra = None
        if not whole:
            if adversarial:
                extra = adversarial[0][1]
            elif not verdict.holds:
                extra = prefs.PreferenceInstance(g.x_adj, g.y_adj)
        seed_base = seed * 1_000_003 + g_index * 1_009
        check = _brute_check(g, instances_for(g, instance_cap, seeds, seed_base, extra))
        check.add_to(result, f"graph {g_index}")
        if whole and g.x_count == g.y_count:
            truths[_graph_key(g, width)] = check
        ground = check.saturates
        if verdict.holds != ground:
            violations["verdict"].append(
                f"graph {g_index} {g!r}: verdict {verdict.holds} but brute "
                f"force says {ground}"
            )

        for report, adv in adversarial:
            counts["adversarial_targets"] += 1
            ss = _stable_set(g, adv, f"graph {g_index} adversarial", result)
            if not ss.always_unmatched(report.vertex):
                violations["adversarial"].append(
                    f"graph {g_index} {g!r}: adversarial instance for "
                    f"{report.vertex!r} still lets it match"
                )
        if progress and g_index % 200 == 199:
            progress(
                f"saturation: {counts['graphs']} graphs, "
                f"{counts['instances']} instances checked"
            )

    result.seconds = time.perf_counter() - started
    return result


# -- suite 2: perfect-matching characterizations ------------------------------


def perfection_suite(
    max_n: int = DEFAULT_MAX_SIDE,
    instance_cap: int = DEFAULT_GATE_CAP,
    seeds: int = DEFAULT_SEEDS,
    seed: int = DEFAULT_SEED,
    progress: Progress = None,
    truths: Optional[dict[int, BruteCheck]] = None,
) -> SuiteResult:
    """Cross-check the perfect-for-all-preferences characterizations.

    Ground truth per balanced graph: every stable matching of every checked
    instance is perfect. The component verdict must match it on every
    balanced graph; the connected-graph verdict must match it on the
    connected ones. On a balanced graph a matching matches as many X- as
    Y-vertices, so a stable matching is perfect exactly when it saturates
    X: the ground truth is `_brute_check` over the graph's instances from
    `instances_for`, or, for a graph checked whole, the saturation suite's
    record of that check in `truths` (which it removes). The suite adds the
    check's counts and violations as its own. A sampled graph gets the
    constructed stranding instance injected, so a negative verdict stays
    checkable when the instance space dwarfs the sample budget. A fault in
    the Y-side matched set shows as an `invariance` violation, since every
    member is rechecked on both sides.
    """
    result = SuiteResult(
        name="perfection",
        counts={
            "graphs": 0,
            "connected_graphs": 0,
            "instances": 0,
            "stable_sets": 0,
            "stable_matchings": 0,
            "invariance_checks": 0,
        },
        violations={"connected": [], "components": [], "invariance": []},
    )
    counts, violations = result.counts, result.violations
    started = time.perf_counter()
    width = max_n.bit_length()
    if truths is None:
        truths = {}

    g_index = 0
    for n in range(max_n + 1):
        for g in graphs_of_shape(n, n):
            g_index += 1
            counts["graphs"] += 1

            whole = prefs.instance_count(g) <= instance_cap
            check = truths.pop(_graph_key(g, width), None) if whole else None
            if check is None:
                extra = None if whole else perfect_counterexample(g)
                seed_base = seed * 2_000_003 + g_index * 1_013
                check = _brute_check(
                    g, instances_for(g, instance_cap, seeds, seed_base, extra)
                )
            check.add_to(result, f"balanced graph {g_index}")
            ground = check.saturates

            component_verdict = analysis.component_perfect_verdict(g)
            if component_verdict.holds != ground:
                violations["components"].append(
                    f"{g!r}: component verdict {component_verdict.holds} but "
                    f"brute force says {ground}"
                )
            if n >= 1 and g.is_connected():
                counts["connected_graphs"] += 1
                connected_verdict = analysis.connected_perfect_verdict(g)
                if connected_verdict.holds != ground:
                    violations["connected"].append(
                        f"{g!r}: connected verdict {connected_verdict.holds} "
                        f"but brute force says {ground}"
                    )
        if progress:
            graphs = analysis.counted(counts["graphs"], "graph")
            progress(f"perfection: sides {n}+{n} done ({graphs})")

    result.seconds = time.perf_counter() - started
    return result


# -- suite 3: class-coverage markets ------------------------------------------


def all_compatibility_markets(
    max_classes: int, max_side: int
) -> Iterator[compatibility.CompatibilityMarket]:
    """Every valid market with up to max_classes classes and max_side vertices
    per side: memberships range over nonempty class subsets with the
    exclusive-member rule enforced; Y assignments range over all functions
    (empty classes on the Y side are allowed)."""
    for n in range(1, max_classes + 1):
        subsets = [
            frozenset(c for c in range(n) if mask >> c & 1)
            for mask in range(1, 1 << n)
        ]
        for a in range(n, max_side + 1):
            for membership in product(subsets, repeat=a):
                if len(compatibility.exclusive_members(membership)) < n:
                    continue
                for b in range(max_side + 1):
                    for y_class in product(range(n), repeat=b):
                        yield compatibility.CompatibilityMarket(
                            n_classes=n,
                            x_membership=membership,
                            y_class=y_class,
                        )


# what freezing out a deficient class's witness showed; coverage_suite keeps
# one per (induced graph, witness)
_SATISFIED, _STRANDED, _STILL_MATCHED = range(3)


def _induced_key(market: compatibility.CompatibilityMarket, width: int) -> int:
    """The induced graph as one int: its edge mask, with edge (x_i, y_j) at
    bit i*|Y| + j as in graphs_of_shape, then |X| and |Y| in `width` bits
    each. Markets with equal keys induce equal graphs."""
    a, b = len(market.x_membership), len(market.y_class)
    slots = [0] * market.n_classes
    for j, c in enumerate(market.y_class):
        slots[c] |= 1 << j
    mask = 0
    for i, classes in enumerate(market.x_membership):
        for c in classes:
            mask |= slots[c] << (i * b)
    return (mask << width | a) << width | b


def _freeze_out(g: BipartiteGraph, witness: int) -> int:
    """Try to strand x[witness] in every stable matching of one instance."""
    report = analysis.vertex_report(g, Vertex(Side.X, witness))
    if report.satisfied:
        return _SATISFIED
    if report.isolated:
        # an exclusive member of a class with no Y-slots: unmatched in
        # every matching of any instance, no construction needed
        adv = prefs.PreferenceInstance(g.x_adj, g.y_adj)
    else:
        adv = analysis.adversarial_instance(g, report)
    if engine.enumerate_stable(g, adv).always_unmatched(report.vertex):
        return _STRANDED
    return _STILL_MATCHED


def coverage_suite(
    max_classes: int = 3,
    max_side: int = 4,
    samples: int = 50,
    seed: int = DEFAULT_SEED,
    progress: Progress = None,
) -> SuiteResult:
    """Cross-check the class-size verdict on every small market.

    Positive verdicts must see only X-saturating stable matchings across the
    sampled instances (instances on the induced graph are exactly the
    class-wise-complete ones); negative verdicts must be confirmed by a
    concrete freeze-out of an exclusive member of a deficient class. The
    structural verdict on the induced graph must agree with the class-size
    verdict on every market, both ways.

    Many markets induce the same graph, and the structural verdict and the
    freeze-out depend only on the graph (and the witness), so each runs
    once per distinct graph or (graph, witness) pair and its outcome is
    replayed for the other markets. Positive verdicts take their instances
    from `instances_for`, as the other suites do, with `samples` as both cap
    and sample count: the first covered market on a graph with at most
    `samples` instances enumerates each of them once, and a covered market
    on a larger graph draws its own `samples` seeded instances. Each
    enumerated instance with a non-saturating stable matching is reported.
    A graph checked whole keeps its outcome: later covered markets on it
    draw nothing when every instance saturates X, and each gets one
    violation when one does not.
    `instances` and `stable_sets` still count `samples` per covered market,
    plus one stable set per confirmed freeze-out; `structural_verdicts`,
    `freeze_outs` and `sampled_sets` count the verdicts, freeze-outs and
    stable sets actually computed.
    """
    result = SuiteResult(
        name="coverage",
        counts={
            "markets": 0,
            "verdicts_true": 0,
            "instances": 0,
            "stable_sets": 0,
            "adversarial_confirmations": 0,
            "structural_verdicts": 0,
            "freeze_outs": 0,
            "sampled_sets": 0,
        },
        violations={"saturating": [], "adversarial": [], "consistency": []},
    )
    counts, violations = result.counts, result.violations
    started = time.perf_counter()
    # int keys and bool or small-int values: keeping tuples, verdicts or
    # graphs would cost memory. A side size or a witness fits in `width` bits.
    width = max_side.bit_length()
    holds_by_graph: dict[int, bool] = {}
    outcome_by_witness: dict[int, int] = {}
    # per covered graph with at most `samples` instances, whether each of
    # them, enumerated once, saturates X
    saturating_by_graph: dict[int, bool] = {}

    for m_index, market in enumerate(
        all_compatibility_markets(max_classes, max_side)
    ):
        counts["markets"] += 1
        key = _induced_key(market, width)
        g = None
        holds = holds_by_graph.get(key)
        if holds is None:
            g = compatibility.induced_graph(market)
            holds = analysis.saturation_verdict(g, Side.X).holds
            holds_by_graph[key] = holds
            counts["structural_verdicts"] += 1
        cross = compatibility.verdict_consistency(market, holds)
        if not cross.consistent:
            violations["consistency"].append(
                f"market {m_index} {market!r}: coverage verdict "
                f"{cross.coverage.holds} but structural verdict {holds}"
            )
        if cross.coverage.holds:
            counts["verdicts_true"] += 1
            counts["instances"] += samples
            counts["stable_sets"] += samples
            saturating = saturating_by_graph.get(key)
            if saturating is None:
                if g is None:
                    g = compatibility.induced_graph(market)
                whole = prefs.instance_count(g) <= samples
                noun = "instance" if whole else "sample"
                saturating = True
                seed_base = seed * 3_000_017 + m_index * 1_019
                for k, p in enumerate(instances_for(g, samples, samples, seed_base)):
                    counts["sampled_sets"] += 1
                    if not engine.enumerate_stable(g, p).x_saturating:
                        saturating = False
                        violations["saturating"].append(
                            f"market {m_index} {market!r}: coverage holds but "
                            f"{noun} {k} has a non-saturating stable matching"
                        )
                if whole:
                    saturating_by_graph[key] = saturating
            elif not saturating:
                violations["saturating"].append(
                    f"market {m_index} {market!r}: coverage holds but an "
                    f"instance of its graph has a non-saturating stable matching"
                )
        else:
            witness = compatibility.deficient_witness(market, cross.coverage)
            witness_key = key << width | witness
            outcome = outcome_by_witness.get(witness_key)
            if outcome is None:
                if g is None:
                    g = compatibility.induced_graph(market)
                outcome = _freeze_out(g, witness)
                outcome_by_witness[witness_key] = outcome
                counts["freeze_outs"] += 1
            if outcome == _SATISFIED:
                # nothing can strand a vertex the structure guarantees a
                # partner, so the coverage verdict is what is wrong
                violations["adversarial"].append(
                    f"market {m_index} {market!r}: coverage calls x[{witness}] "
                    f"deficient but it is matched in every stable matching"
                )
            else:
                counts["stable_sets"] += 1
                counts["adversarial_confirmations"] += 1
                if outcome == _STILL_MATCHED:
                    violations["adversarial"].append(
                        f"market {m_index} {market!r}: freeze-out of "
                        f"x[{witness}] not confirmed"
                    )
        if progress and m_index % 2000 == 1999:
            progress(f"coverage: {counts['markets']} markets checked")

    result.seconds = time.perf_counter() - started
    return result


# -- suite 4: engine vs naive oracle ------------------------------------------


def _ranks(p: prefs.PreferenceInstance, m: Matching, side: Side) -> list[int]:
    """Each `side` vertex's rank of its partner in `m`; unmatched ranks last."""
    partners = m.partner_of_x if side is Side.X else m.partner_of_y
    ranks = p.x_rank if side is Side.X else p.y_rank
    return [
        prefs.UNMATCHED_RANK if q is None else ranks[i][q]
        for i, q in enumerate(partners)
    ]


def oracle_suite(
    pairs: int = 1000,
    max_side: int = 4,
    seed: int = DEFAULT_SEED,
    progress: Progress = None,
) -> SuiteResult:
    """Random (graph, instance) pairs: the stable-matching enumerator must equal
    the filter-all-matchings oracle exactly; deferred acceptance must land
    inside the set, optimally for its proposing side; matching sizes must
    respect the maximum-matching bound."""
    result = SuiteResult(
        name="oracle",
        counts={
            "pairs": 0,
            "stable_sets": 0,
            "stable_matchings": 0,
            "invariance_checks": 0,
        },
        violations={
            "equality": [],
            "optimality": [],
            "invariance": [],
            "maximum": [],
        },
    )
    counts, violations = result.counts, result.violations
    started = time.perf_counter()
    rng = random.Random(seed)

    for k in range(pairs):
        a = rng.randint(0, max_side)
        b = rng.randint(0, max_side)
        density = rng.choice((0.25, 0.5, 0.75, 1.0))
        edges = [
            (i, j) for i in range(a) for j in range(b) if rng.random() < density
        ]
        g = BipartiteGraph(a, b, edges)
        p = prefs.sample_uniform(g, rng.getrandbits(32))
        counts["pairs"] += 1

        ss = _stable_set(g, p, f"pair {k}", result)
        mine = {m.partner_of_x for m in ss.matchings}
        oracle = {m.partner_of_x for m in naive_stable_matchings(g, p)}
        if mine != oracle:
            violations["equality"].append(
                f"pair {k} {g!r}: enumerator found {sorted(mine)}, oracle "
                f"found {sorted(oracle)}"
            )

        for side in (Side.X, Side.Y):
            da = engine.deferred_acceptance(g, p, proposing=side)
            if da.partner_of_x not in mine:
                violations["equality"].append(
                    f"pair {k} {g!r}: {side.value}-proposing result "
                    f"{da.pairs()} not in the enumerated set"
                )
                continue
            da_ranks = _ranks(p, da, side)
            for m in ss.matchings:
                for i, (da_rank, m_rank) in enumerate(zip(da_ranks, _ranks(p, m, side))):
                    if da_rank > m_rank:
                        violations["optimality"].append(
                            f"pair {k} {g!r}: {side.value}[{i}] does better in "
                            f"{m.pairs()} than in the {side.value}-proposing "
                            f"result"
                        )

        max_size = engine.maximum_matching(g).size
        if any(m.size > max_size for m in ss.matchings):
            violations["maximum"].append(
                f"pair {k} {g!r}: a stable matching exceeds the maximum "
                f"matching size {max_size}"
            )
        if ss.x_saturating and max_size != g.x_count:
            violations["maximum"].append(
                f"pair {k} {g!r}: X-saturating stable matchings but maximum "
                f"matching size {max_size} < {g.x_count}"
            )
        if progress and k % 200 == 199:
            progress(f"oracle: {counts['pairs']} pairs checked")

    result.seconds = time.perf_counter() - started
    return result


def run_all(
    max_side: int = DEFAULT_MAX_SIDE,
    instance_cap: int = DEFAULT_GATE_CAP,
    seeds: int = DEFAULT_SEEDS,
    seed: int = DEFAULT_SEED,
    progress: Progress = None,
) -> list[SuiteResult]:
    """The full release gate at the default acceptance scales.

    The graph suites honor max_side directly; the market and engine-oracle
    suites run one size larger (their reference scales), so the defaults
    give sides up to 3 for the verdict families and 4 for the cross-checks.
    A negative bound, which would check nothing and pass, and a max_side
    whose graph family exceeds MAX_GRAPHS are refused before any suite runs.
    """
    for name, bound in (
        ("max_side", max_side),
        ("instance_cap", instance_cap),
        ("seeds", seeds),
    ):
        if bound < 0:
            raise InputError(f"verify bound {name} must be at least 0, got {bound}")
    count = graph_count(max_side, max_side)
    if count > MAX_GRAPHS:
        raise GraphCountExceeded(max_side, count, MAX_GRAPHS)
    # each balanced graph checked whole, from the saturation suite to the
    # perfection suite
    truths: dict[int, BruteCheck] = {}
    return [
        saturation_suite(max_side, instance_cap, seeds, seed, progress, truths),
        perfection_suite(max_side, instance_cap, seeds, seed, progress, truths),
        coverage_suite(
            max_classes=min(3, max_side + 1),
            max_side=max_side + 1,
            samples=50,
            seed=seed,
            progress=progress,
        ),
        oracle_suite(
            pairs=5 * seeds, max_side=max_side + 1, seed=seed, progress=progress
        ),
    ]
