"""Stable-matching saturation analysis for bipartite markets.

The question this package answers: given only the compatibility structure
of a two-sided market, is one side guaranteed a partner in *every* stable
matching, no matter what preferences the participants report? The
structural verdicts live in :mod:`satmatch.analysis`, the matching engine
in :mod:`satmatch.engine`, and the class-based market model in
:mod:`satmatch.compatibility`. ``satmatch.cli`` provides the command-line
front end and :mod:`satmatch.harness` the exhaustive verification suites.
"""

from .analysis import (
    ClaimantBound,
    SaturationVerdict,
    VertexReport,
    adversarial_instance,
    blockade,
    claimant_bound,
    component_perfect_verdict,
    connected_perfect_verdict,
    dedicated_neighbor,
    perfect_verdict,
    saturation_verdict,
    vertex_report,
)
from .compatibility import (
    CompatibilityMarket,
    CoverageVerdict,
    coverage_verdict,
    deficient_witness,
    induced_graph,
    verdict_consistency,
)
from .engine import (
    BlockingPair,
    StableSet,
    deferred_acceptance,
    enumerate_stable,
    find_blocking_pairs,
    is_stable,
    maximum_matching,
)
from .errors import (
    CapExceeded,
    EngineInvariantError,
    InputError,
    InstanceCapExceeded,
    MarketFormatError,
    PreferenceError,
    SearchCapExceeded,
)
from .graph import BipartiteGraph, Component, Matching, Side, Vertex
from .market_io import MarketBundle, MarketFile, load_market, parse_market, save_market
from .prefs import (
    PreferenceInstance,
    enumerate_all,
    instance_count,
    prefers,
    sample_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "BlockingPair",
    "CapExceeded",
    "ClaimantBound",
    "CompatibilityMarket",
    "Component",
    "CoverageVerdict",
    "EngineInvariantError",
    "InputError",
    "InstanceCapExceeded",
    "MarketBundle",
    "MarketFile",
    "MarketFormatError",
    "Matching",
    "PreferenceError",
    "PreferenceInstance",
    "SaturationVerdict",
    "SearchCapExceeded",
    "Side",
    "StableSet",
    "Vertex",
    "VertexReport",
    "adversarial_instance",
    "blockade",
    "claimant_bound",
    "component_perfect_verdict",
    "connected_perfect_verdict",
    "coverage_verdict",
    "dedicated_neighbor",
    "deferred_acceptance",
    "deficient_witness",
    "enumerate_all",
    "enumerate_stable",
    "find_blocking_pairs",
    "induced_graph",
    "instance_count",
    "is_stable",
    "load_market",
    "maximum_matching",
    "parse_market",
    "perfect_verdict",
    "prefers",
    "sample_uniform",
    "saturation_verdict",
    "save_market",
    "vertex_report",
    "verdict_consistency",
]
