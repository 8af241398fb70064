"""Golden reports: every per-market command on every shipped fixture.

`tests/golden/fixtures.json` holds the exit code and `--format structured`
report of `analyze --side x|y` on each market in `markets/` and of
`adversary --target v` on each of their vertices. Certificates, champions
and counterexamples are pinned byte for byte, so a change to the search
that moves any of them shows up here. `tests/golden/preferences.json`
does the same for `enumerate` and `match --propose x|y` on each market
with a preferences block, pinning the engine's matchings and counts.

After an intended change of output, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

from satmatch import cli, market_io

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
GOLDEN = os.path.join(ROOT, "tests", "golden", "fixtures.json")
PREFERENCES_GOLDEN = os.path.join(ROOT, "tests", "golden", "preferences.json")


def _fixtures() -> list[str]:
    markets = os.path.join(ROOT, "markets")
    return [f"markets/{name}" for name in sorted(os.listdir(markets))]


def _report(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--format", "structured"])
    report = json.loads(out.getvalue())
    report["source"] = os.path.relpath(report["source"], ROOT)
    return {"exit": code, "report": report}


def commands() -> dict[str, list[str]]:
    """The argv of every `fixtures.json` entry, keyed as the file keys it."""
    entries = {}
    for rel in _fixtures():
        path = os.path.join(ROOT, rel)
        for side in ("x", "y"):
            entries[f"analyze {rel} --side {side}"] = ["analyze", path, "--side", side]
        names = market_io.load_market(path).names
        for name in names.x_names + names.y_names:
            entries[f"adversary {rel} --target {name}"] = [
                "adversary", path, "--target", name
            ]
    return entries


def preference_commands() -> dict[str, list[str]]:
    """The argv of every `preferences.json` entry: `enumerate` and `match`
    on every market with preferences."""
    entries = {}
    for rel in _fixtures():
        path = os.path.join(ROOT, rel)
        if market_io.load_market(path).instance is None:
            continue
        entries[f"enumerate {rel}"] = ["enumerate", path]
        for side in ("x", "y"):
            entries[f"match {rel} --propose {side}"] = ["match", path, "--propose", side]
    return entries


def current() -> dict:
    """Every golden entry as the code computes it now, keyed by argv."""
    return {key: _report(*argv) for key, argv in commands().items()}


def current_preferences() -> dict:
    """`enumerate` and `match` entries on every market with preferences."""
    return {key: _report(*argv) for key, argv in preference_commands().items()}


def _assert_golden(path: str, now: dict) -> None:
    with open(path, encoding="utf-8") as f:
        golden = json.load(f)
    assert sorted(now) == sorted(golden)
    changed = [key for key in golden if now[key] != golden[key]]
    assert not changed, f"{len(changed)} reports differ, first: {changed[0]}"


def test_reports_match_the_golden_file():
    _assert_golden(GOLDEN, current())


def test_preference_reports_match_the_golden_file():
    _assert_golden(PREFERENCES_GOLDEN, current_preferences())


def test_analyze_counterexamples_are_the_adversary_markets():
    """A failing verdict's counterexample and `adversary` on the same vertex
    come from the same report, so their preferences agree."""
    now = current()
    checked = 0
    for key, entry in now.items():
        ce = entry["report"].get("saturation", {}).get("counterexample")
        if ce is None:
            continue
        source = entry["report"]["source"]
        adversary = now[f"adversary {source} --target {ce['vertex']}"]
        assert adversary["exit"] == 0
        assert adversary["report"]["preferences"] == ce["preferences"], key
        checked += 1
    assert checked > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    for path, entries in (
        (GOLDEN, current()),
        (PREFERENCES_GOLDEN, current_preferences()),
    ):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(entries, f, indent=1, sort_keys=True)
            f.write("\n")
