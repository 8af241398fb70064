"""No valid market makes a subcommand fail: on every generated market with
preferences, `analyze`, `match`, `enumerate` and `adversary` exit 0, 1 or
3, never 2 (input error) or 4 (internal failure)."""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_with_instance
from satmatch import cli
from satmatch.market_io import MarketFile, dump_market, load_market

# names the YAML writer must quote or escape to keep them strings: words
# YAML reads as booleans, null or numbers, indicators, spaces, quotes,
# backslashes and non-ASCII text
_AWKWARD_NAMES = ["true", "No", "null", "~", "1", "0x1F", "1e3", ".inf", "-",
                  "? a", "a: b", "#c", "[d]", "{e}", "'f", '"g"', "h\\i", " j ",
                  "k l", "café", "名前", "&m", "*n", "!o", "%p", "@q", "`r"]


@st.composite
def markets(draw) -> str:
    """A market file with preferences, up to 8×8, whose names are unique
    across both sides and drawn plain or awkward."""
    g, instance = draw(graph_with_instance(8, 8))
    count = g.x_count + g.y_count
    awkward = draw(
        st.lists(st.sampled_from(_AWKWARD_NAMES), unique=True, max_size=count)
    )
    names = awkward + [f"v{k}" for k in range(count - len(awkward))]
    names = draw(st.permutations(names))
    xs, ys = names[: g.x_count], names[g.x_count :]
    preferences = {xs[i]: [ys[j] for j in lst] for i, lst in enumerate(instance.x_lists)}
    preferences.update(
        {ys[j]: [xs[i] for i in lst] for j, lst in enumerate(instance.y_lists)}
    )
    edges = [(xs[i], ys[j]) for i, j in g.edges()]
    return dump_market(MarketFile("1", list(xs), list(ys), edges, preferences))


def _answers(*argv: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--format", "structured"])
    assert code in (0, 1, 3), (argv, code, err.getvalue())


@given(markets())
@settings(max_examples=100, deadline=None)
def test_every_subcommand_answers_on_a_valid_market(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "market.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for side in ("x", "y"):
            _answers("analyze", path, "--side", side)
            _answers("match", path, "--propose", side)
        _answers("enumerate", path)
        names = load_market(path).names
        for name in names.x_names + names.y_names:
            _answers("adversary", path, "--target", name)
