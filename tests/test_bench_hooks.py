"""The benchmark's tracer patches satmatch functions by name; all must exist."""

from __future__ import annotations

import importlib.util
import os

from satmatch import cli

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer(cli)
    assert len(tracer.targets) == len(tracing.LAYERS)
