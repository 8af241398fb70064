"""Per-layer tracing from outside the program.

`Tracer.begin` replaces the public functions listed in LAYERS with timing
wrappers by patching module (and class) attributes; `end` puts the
originals back. satmatch's modules call each other through module
namespaces or module globals, so every call into a listed function passes
through its wrapper. Each call is a span (name, start, end, parent); a
layer's self time is its spans' durations less the time of their child
spans. `cli.main` is the root span of every operation.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable

pc = time.perf_counter

# (module, attribute path, layer name); several functions may share a layer
LAYERS = (
    ("cli", "main", "cli.self"),
    ("market_io", "parse_market", "market_io.parse"),
    ("market_io", "resolve_market", "market_io.resolve"),
    ("market_io", "dump_market", "market_io.dump"),
    ("market_io", "save_market", "market_io.dump"),
    ("prefs", "validate", "prefs.validate"),
    ("prefs", "enumerate_all", "prefs.enumerate_all"),
    ("prefs", "sample_uniform", "prefs.sample_uniform"),
    ("graph", "BipartiteGraph.components", "graph.components"),
    ("analysis", "saturation_verdict", "analysis.saturation_verdict"),
    ("analysis", "perfect_verdict", "analysis.perfect_verdict"),
    ("analysis", "adversarial_instance", "analysis.adversarial_instance"),
    ("analysis", "component_perfect_verdict", "analysis.component_perfect_verdict"),
    ("compatibility", "verdict_consistency", "compatibility.verdict_consistency"),
    ("engine", "enumerate_stable", "engine.enumerate_stable"),
    ("engine", "deferred_acceptance", "engine.deferred_acceptance"),
    ("engine", "is_stable", "engine.is_stable"),
    ("engine", "find_blocking_pairs", "engine.find_blocking_pairs"),
    ("engine", "maximum_matching", "engine.maximum_matching"),
    ("harness", "saturation_suite", "harness.saturation_suite"),
    ("harness", "perfection_suite", "harness.perfection_suite"),
    ("harness", "coverage_suite", "harness.coverage_suite"),
    ("harness", "oracle_suite", "harness.oracle_suite"),
)

GENERATORS = {"prefs.enumerate_all"}  # timed per item, as the caller pulls it


def _parse_bytes(args, kwargs, result) -> dict[str, int]:
    return {"market_io.parse_bytes": len(args[0].encode("utf-8"))}


def _verdict(args, kwargs, result) -> dict[str, int]:
    return {"analysis.saturation_verdict_calls": 1, "analysis.vertex_reports": len(result.reports)}


def _stable_set(args, kwargs, result) -> dict[str, int]:
    return {
        "engine.enumerate_stable_calls": 1,
        "engine.nodes_visited": result.nodes_visited,
        "engine.stable_matchings": len(result.matchings),
    }


# counters read off a call's arguments and result
COUNTERS: dict[str, Callable] = {
    "market_io.parse": _parse_bytes,
    "analysis.saturation_verdict": _verdict,
    "analysis.adversarial_instance": lambda a, k, r: {"analysis.adversarial_instance_calls": 1},
    "engine.enumerate_stable": _stable_set,
    "prefs.sample_uniform": lambda a, k, r: {"prefs.instances": 1},
}

MAX_KEPT_SPANS = 100_000  # the first spans are kept for the trace file, the rest counted


class Tracer:
    def __init__(self, cli) -> None:
        pkg = cli.__name__.rpartition(".")[0]
        self.targets = []  # (owner object, attribute, original, wrapper)
        for module, path, layer in LAYERS:
            owner = importlib.import_module(f"{pkg}.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrap = self._wrap_gen if layer in GENERATORS else self._wrap
            self.targets.append((owner, attr, original, wrap(original, layer)))
        self.spans: list[tuple[str, float, float, int]] = []
        self.dropped = 0
        self._stack: list[list] = []  # [span index or -1, start, child time]
        self._self: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    # -- recording ------------------------------------------------------------

    def _open(self) -> None:
        keep = len(self.spans) < MAX_KEPT_SPANS
        self._stack.append([len(self.spans) if keep else -1, pc(), 0.0])
        if keep:
            self.spans.append(None)  # filled when the span closes

    def _close(self, layer: str) -> None:
        index, start, child = self._stack.pop()
        end = pc()
        duration = end - start
        self._self[layer] = self._self.get(layer, 0.0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            parent = self._stack[-1][0] if self._stack else -1
            self.spans[index] = (layer, start, end, parent)
        else:
            self.dropped += 1

    def _count(self, layer: str, args, kwargs, result) -> None:
        counter = COUNTERS.get(layer)
        if counter is not None:
            for k, v in counter(args, kwargs, result).items():
                self._counts[k] = self._counts.get(k, 0) + v

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        def traced(*args, **kwargs):
            self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer)
            self._count(layer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, fn: Callable, layer: str) -> Callable:
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                self._open()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(layer)
                self._counts["prefs.instances"] = self._counts.get("prefs.instances", 0) + 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- per operation --------------------------------------------------------

    def begin(self) -> None:
        self._self, self._counts = {}, {}
        for owner, attr, _, wrapper in self.targets:
            setattr(owner, attr, wrapper)

    def end(self, factor: float) -> dict[str, float]:
        """Restore the originals; this operation's per-layer self times
        (scaled by `factor` to reference speed, as `<layer>_s`) and counts."""
        for owner, attr, original, _ in self.targets:
            setattr(owner, attr, original)
        out: dict[str, float] = {f"{k}_s": v * factor for k, v in self._self.items()}
        out.update(self._counts)
        return out

    def write(self, path: str) -> None:
        kept = [s for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": kept,
                 "dropped": self.dropped},
                fh,
            )
