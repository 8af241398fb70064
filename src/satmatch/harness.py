"""Release-gate verification suites.

Each suite enumerates a whole family of graphs or markets, computes ground
truth by brute force (enumerating preference instances and their complete
stable-matching sets), and compares the structural verdicts against it.
The suites return structured results; the CLI `verify` subcommand and the
acceptance tests are both thin wrappers over them.

Calls into the analysis/engine layers go through the module namespaces on
purpose: the test suite injects faults by patching those attributes and
expects the suites to notice.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator, Optional

from . import analysis, compatibility, engine, prefs
from .graph import BipartiteGraph, Matching, Side, Vertex

DEFAULT_SEED = 20260816

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

    def violation_count(self) -> int:
        return sum(len(v) for v in self.violations.values())

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


def all_matchings(graph: BipartiteGraph) -> Iterator[Matching]:
    """Every matching of the graph, including the empty one."""
    a = graph.x_count
    used = [False] * graph.y_count
    vec: list[Optional[int]] = [None] * a

    def rec(i: int) -> Iterator[Matching]:
        if i == a:
            yield _matching_from_vector(graph, vec)
            return
        vec[i] = None
        yield from rec(i + 1)
        for y in graph.x_adj[i]:
            if not used[y]:
                used[y] = True
                vec[i] = y
                yield from rec(i + 1)
                used[y] = False
                vec[i] = None

    yield from rec(0)


def _matching_from_vector(
    graph: BipartiteGraph, vec: list[Optional[int]]
) -> Matching:
    py: list[Optional[int]] = [None] * graph.y_count
    for i, y in enumerate(vec):
        if y is not None:
            py[y] = i
    return Matching(tuple(vec), py)


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
    structural verdict knows one: the stranding instance for the first
    non-isolated vertex that lacks a guarantee, on either side. None when
    the verdict holds, or when only isolated vertices fail (then every
    instance already confirms the failure)."""
    pv = analysis.perfect_verdict(graph)
    if pv.holds:
        return None
    for sv in (pv.x, pv.y):
        if sv.counterexample is not None:
            return sv.counterexample[1]
    return None


def _recheck_invariance(
    ss: engine.StableSet, where: str, violations: dict[str, list[str]]
) -> int:
    """Recount matched sets through the public path, both sides."""
    checks = 0
    for m in ss.matchings:
        checks += 1
        if (
            m.matched_set(Side.X) != ss.matched_x
            or m.matched_set(Side.Y) != ss.matched_y
        ):
            violations["invariance"].append(
                f"{where}: member {m.pairs()} disagrees with matched sets "
                f"{sorted(ss.matched_x)}/{sorted(ss.matched_y)}"
            )
    return checks


# -- suite 1: one-sided saturation (verdict + adversarial + invariance) ------


def saturation_suite(
    max_side: int = 3,
    instance_cap: int = 10**4,
    seeds: int = 200,
    seed: int = DEFAULT_SEED,
    progress: Progress = None,
) -> SuiteResult:
    """Exhaustively cross-check the X-side saturation verdict.

    For every graph up to max_side x max_side and every preference instance
    (all of them when the count fits instance_cap, else `seeds` samples):
    the verdict must hold exactly when every stable matching of every
    checked instance saturates X. For every vertex failing both guarantees,
    the constructed adversarial instance must leave it unmatched in every
    stable matching. Every stable-matching set produced on the way must
    agree on who is matched, on both sides.
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

    for g_index, g in enumerate(all_graphs(max_side, max_side)):
        counts["graphs"] += 1
        verdict = analysis.saturation_verdict(g, Side.X)
        if verdict.holds:
            counts["verdicts_true"] += 1

        # the verdict claims: every SM of every instance saturates X.
        # sampled fallbacks additionally get the constructed counterexample
        # injected so a negative verdict stays checkable under sampling.
        extra = None
        if not verdict.holds and verdict.counterexample is not None:
            extra = verdict.counterexample[1]
        ground = True
        seed_base = seed * 1_000_003 + g_index * 1_009
        for p in instances_for(g, instance_cap, seeds, seed_base, extra=extra):
            counts["instances"] += 1
            ss = engine.enumerate_stable(g, p)
            counts["stable_sets"] += 1
            counts["stable_matchings"] += len(ss.matchings)
            counts["invariance_checks"] += _recheck_invariance(
                ss, f"graph {g_index}", violations
            )
            if not ss.x_saturating:
                ground = False
                break
        if verdict.holds != ground:
            violations["verdict"].append(
                f"graph {g_index} {g!r}: verdict {verdict.holds} but brute "
                f"force says {ground}"
            )

        for report in verdict.reports:
            if report.satisfied or report.isolated:
                continue
            counts["adversarial_targets"] += 1
            adv = analysis.adversarial_instance(g, report.vertex)
            ss = engine.enumerate_stable(g, adv)
            counts["stable_sets"] += 1
            counts["stable_matchings"] += len(ss.matchings)
            counts["invariance_checks"] += _recheck_invariance(
                ss, f"graph {g_index} adversarial", violations
            )
            stranded = all(
                m.partner_of_x[report.vertex.index] is None for m in ss.matchings
            )
            if not stranded:
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
    max_n: int = 3,
    instance_cap: int = 10**4,
    seeds: int = 200,
    seed: int = DEFAULT_SEED,
    progress: Progress = None,
) -> SuiteResult:
    """Cross-check the perfect-for-all-preferences characterizations.

    Ground truth per balanced graph: every stable matching of every checked
    instance is perfect. The component verdict must match it on every
    balanced graph; the connected-graph verdict must match it on the
    connected ones. As in the saturation suite, sampled fallbacks get the
    constructed stranding instance injected, so a negative verdict stays
    checkable when the instance space dwarfs the sample budget.
    """
    result = SuiteResult(
        name="perfection",
        counts={
            "graphs": 0,
            "connected_graphs": 0,
            "instances": 0,
            "stable_sets": 0,
            "invariance_checks": 0,
        },
        violations={"connected": [], "components": [], "invariance": []},
    )
    counts, violations = result.counts, result.violations
    started = time.perf_counter()

    g_index = 0
    for n in range(max_n + 1):
        for g in graphs_of_shape(n, n):
            g_index += 1
            counts["graphs"] += 1

            ground = True
            seed_base = seed * 2_000_003 + g_index * 1_013
            extra = perfect_counterexample(g)
            for p in instances_for(g, instance_cap, seeds, seed_base, extra=extra):
                counts["instances"] += 1
                ss = engine.enumerate_stable(g, p)
                counts["stable_sets"] += 1
                counts["invariance_checks"] += _recheck_invariance(
                    ss, f"balanced graph {g_index}", violations
                )
                if not ss.perfect:
                    ground = False
                    break

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
            progress(f"perfection: sides {n}+{n} done ({counts['graphs']} graphs)")

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
        singletons = [frozenset((c,)) for c in range(n)]
        for a in range(n, max_side + 1):
            for membership in product(subsets, repeat=a):
                if any(s not in membership for s in singletons):
                    continue
                for b in range(max_side + 1):
                    for y_class in product(range(n), repeat=b):
                        yield compatibility.CompatibilityMarket(
                            n_classes=n,
                            x_membership=membership,
                            y_class=y_class,
                        )


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
    """
    result = SuiteResult(
        name="coverage",
        counts={
            "markets": 0,
            "verdicts_true": 0,
            "instances": 0,
            "stable_sets": 0,
            "adversarial_confirmations": 0,
        },
        violations={"saturating": [], "adversarial": [], "consistency": []},
    )
    counts, violations = result.counts, result.violations
    started = time.perf_counter()

    for m_index, market in enumerate(
        all_compatibility_markets(max_classes, max_side)
    ):
        counts["markets"] += 1
        g = compatibility.induced_graph(market)
        cross = compatibility.verdict_consistency(
            market, analysis.saturation_verdict(g, Side.X)
        )
        if not cross.consistent:
            violations["consistency"].append(
                f"market {m_index} {market!r}: coverage verdict "
                f"{cross.coverage.holds} but structural verdict "
                f"{cross.saturation.holds}"
            )
        if cross.coverage.holds:
            counts["verdicts_true"] += 1
            seed_base = seed * 3_000_017 + m_index * 1_019
            for k in range(samples):
                p = prefs.sample_uniform(g, seed_base + k)
                counts["instances"] += 1
                ss = engine.enumerate_stable(g, p)
                counts["stable_sets"] += 1
                if not ss.x_saturating:
                    violations["saturating"].append(
                        f"market {m_index} {market!r}: coverage holds but "
                        f"sample {k} has a non-saturating stable matching"
                    )
        else:
            witness = compatibility.deficient_witness(market)
            target = Vertex(Side.X, witness)
            if g.degree(target) == 0:
                # an exclusive member of a class with no Y-slots: unmatched
                # in every matching of any instance, no construction needed
                adv = prefs.PreferenceInstance(g.x_adj, g.y_adj)
            else:
                adv = analysis.adversarial_instance(g, target)
            ss = engine.enumerate_stable(g, adv)
            counts["stable_sets"] += 1
            counts["adversarial_confirmations"] += 1
            if any(m.partner_of_x[witness] is not None for m in ss.matchings):
                violations["adversarial"].append(
                    f"market {m_index} {market!r}: freeze-out of x[{witness}] "
                    f"not confirmed"
                )
        if progress and m_index % 2000 == 1999:
            progress(f"coverage: {counts['markets']} markets checked")

    result.seconds = time.perf_counter() - started
    return result


# -- suite 4: engine vs naive oracle ------------------------------------------


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

        ss = engine.enumerate_stable(g, p)
        counts["stable_matchings"] += len(ss.matchings)
        counts["invariance_checks"] += _recheck_invariance(
            ss, f"pair {k}", violations
        )
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
            rows = da.partner_of_x if side is Side.X else da.partner_of_y
            ranks = p.x_rank if side is Side.X else p.y_rank
            for m in ss.matchings:
                other = m.partner_of_x if side is Side.X else m.partner_of_y
                for i, mine_partner in enumerate(rows):
                    da_rank = (
                        prefs.UNMATCHED_RANK
                        if mine_partner is None
                        else ranks[i][mine_partner]
                    )
                    m_rank = (
                        prefs.UNMATCHED_RANK
                        if other[i] is None
                        else ranks[i][other[i]]
                    )
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
    max_side: int = 3,
    instance_cap: int = 10**4,
    seeds: int = 200,
    seed: int = DEFAULT_SEED,
    progress: Progress = None,
) -> list[SuiteResult]:
    """The full release gate at the default acceptance scales.

    The graph suites honor max_side directly; the market and engine-oracle
    suites run one size larger (their reference scales), so the defaults
    give sides up to 3 for the verdict families and 4 for the cross-checks.
    """
    return [
        saturation_suite(max_side, instance_cap, seeds, seed, progress),
        perfection_suite(max_side, instance_cap, seeds, seed, progress),
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
