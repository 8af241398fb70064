"""Shared builders and strategies for the test suite."""

from __future__ import annotations

import functools
from typing import Any

from hypothesis import strategies as st

from satmatch import engine, market_io, plain_yaml, prefs
from satmatch.compatibility import CompatibilityMarket
from satmatch.graph import BipartiteGraph, Side, Vertex


def X(i: int) -> Vertex:
    return Vertex(Side.X, i)


def Y(j: int) -> Vertex:
    return Vertex(Side.Y, j)


def scan(text: str) -> Any:
    """What the line scanner makes of `text` with market_io's resolver: the
    data, or None when the text is not plain."""
    loader = market_io._Loader("")
    try:
        return plain_yaml.read(text, functools.partial(market_io._plain, loader))
    finally:
        loader.dispose()


# the counting reference for the coverage verdict's class sizes
def class_members(market: CompatibilityMarket, c: int) -> list[int]:
    """A_c: the X-vertices belonging to class c."""
    return [i for i, m in enumerate(market.x_membership) if c in m]


def class_slots(market: CompatibilityMarket, c: int) -> list[int]:
    """B_c: the Y-vertices assigned to class c."""
    return [j for j, yc in enumerate(market.y_class) if yc == c]


def misreport_y_optimal(monkeypatch, partner_of_x: list[int]) -> None:
    """Patch `engine._propose` so that its second run, the Y-optimal one
    `enumerate_stable` makes, reports `partner_of_x` as each X-vertex's
    partner (-1 for none)."""
    real = engine._propose
    runs = []

    def misreport(lists, other_rank, other_count):
        partner, other_partner, proposals = real(lists, other_rank, other_count)
        runs.append(lists)
        if len(runs) == 2:
            other_partner = list(partner_of_x)
        return partner, other_partner, proposals

    monkeypatch.setattr(engine, "_propose", misreport)


def biclique(a: int, b: int) -> BipartiteGraph:
    return BipartiteGraph(a, b, [(i, j) for i in range(a) for j in range(b)])


# small named graphs reused across files (code indices, zero-based)
def path4() -> BipartiteGraph:
    # x0-y0, x0-y1, x1-y1: x1's single option is contested
    return BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 1)])


def path5() -> BipartiteGraph:
    # the path4 graph plus y2 hanging off x1
    return BipartiteGraph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])


def mixed_3x4() -> BipartiteGraph:
    # x2 fails the claimant bound but owns the pendant y2
    return BipartiteGraph(
        3, 4, [(0, 0), (0, 1), (0, 3), (1, 0), (1, 1), (1, 3), (2, 1), (2, 2)]
    )


def hub_4x4() -> BipartiteGraph:
    # y1 is a hub: the single option of x1 and x3
    return BipartiteGraph(
        4, 4, [(0, 0), (0, 1), (0, 3), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1)]
    )


def twin_blocks() -> BipartiteGraph:
    # two disjoint balanced bicliques
    return BipartiteGraph(
        4, 4, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
    )


def lopsided_blocks() -> BipartiteGraph:
    # 1x2 and 2x1 bicliques: balanced globally, never perfectly matchable
    return BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 2), (2, 2)])


def guarded_4x5() -> BipartiteGraph:
    # x0 fails both cheap certificates yet can never be stranded: y0 and y1
    # share their single competitor x1, so they can't both be absorbed away
    return BipartiteGraph(
        4, 5, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 4)]
    )


@st.composite
def graphs(draw, max_x: int = 4, max_y: int = 4) -> BipartiteGraph:
    a = draw(st.integers(0, max_x))
    b = draw(st.integers(0, max_y))
    cells = [(i, j) for i in range(a) for j in range(b)]
    if not cells:
        return BipartiteGraph(a, b, [])
    edges = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    return BipartiteGraph(a, b, edges)


@st.composite
def balanced_graphs(draw, max_n: int = 4) -> BipartiteGraph:
    n = draw(st.integers(0, max_n))
    cells = [(i, j) for i in range(n) for j in range(n)]
    if not cells:
        return BipartiteGraph(n, n, [])
    edges = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    return BipartiteGraph(n, n, edges)


@st.composite
def graph_with_instance(draw, max_x: int = 4, max_y: int = 4):
    g = draw(graphs(max_x, max_y))
    seed = draw(st.integers(0, 2**32 - 1))
    return g, prefs.sample_uniform(g, seed)
