"""`--format structured` prints each report exactly as
`json.dumps(report, indent=2)` writes it, through `cli._json_text`."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satmatch import cli
from test_golden import commands, preference_commands


def _report_dict(*argv: str) -> dict:
    """The dict `cli.main` would print for `argv`."""
    args = cli.build_parser().parse_args([*argv, "--format", "structured"])
    report, _ = args.handler(args)
    return report


def test_writer_matches_json_dumps_on_every_golden_report():
    argvs = [*commands().values(), *preference_commands().values()]
    assert len(argvs) == 91  # 82 analyze and adversary, 9 enumerate and match
    for argv in argvs:
        report = _report_dict(*argv)
        assert cli._json_text(report) == json.dumps(report, indent=2), argv


def test_writer_matches_json_dumps_on_a_verify_report():
    # the suites' `seconds` are the floats a report holds
    report = _report_dict("verify", "--max-side", "2", "--quiet")
    seconds = [suite["seconds"] for suite in report["suites"]]
    assert seconds and all(type(s) is float for s in seconds)
    assert cli._json_text(report) == json.dumps(report, indent=2)


# one of each kind of character the ASCII escaping handles: non-ASCII, past
# the basic plane, a lone surrogate, a quote, a backslash, control
# characters and U+2028
_AWKWARD = ["é", "名", "\U0001f600", "\ud800", '"', "\\", "\x00", "\x1f",
            "\x7f", "\n", "\t", "\u2028", "x", " "]
_strings = st.one_of(st.text(), st.text(st.sampled_from(_AWKWARD)))
_scalars = st.one_of(
    _strings,
    st.integers(),
    st.sampled_from([2**100, -(2**100), -1, 0]),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([-0.0, 0.1, 1e300, -1e-300, math.nan, math.inf, -math.inf]),
)
_trees = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_strings, inner, max_size=4),
    ),
    max_leaves=25,
)


@given(_trees)
@example([[], {}, (), [[]], {"a": {}}, [(), [{}]]])
@example({"\ud800": ["\u2028", '"\\', "\x01", "é", True, False, None, -0.0]})
@example([2**100, -(2**100), 0.1, 1e300, math.nan, math.inf, -math.inf])
@settings(max_examples=150, deadline=None)
def test_writer_matches_json_dumps_on_json_like_trees(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, {"a": [frozenset()]}, {1: "a"}, {"a": [{None: 1}]}, {(1,): 2},
     [b"bytes"], object()],
)
def test_writer_refuses_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        cli._json_text(value)
