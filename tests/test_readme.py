"""The README's library example runs as written, and its CLI transcripts
without elisions are what the program prints."""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys

import pytest

from conftest import scan
from satmatch import cli, market_io
from satmatch.errors import MarketFormatError

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _readme_blocks(language: str) -> list[str]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return re.findall(rf"^```{language}\n(.*?)^```", fh.read(), re.S | re.M)


def test_readme_python_block_runs():
    blocks = _readme_blocks("python")
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(ROOT, "src"), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_transcripts_match_the_program(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    replayed = []
    for block in _readme_blocks("text"):
        command, _, shown = block.partition("\n")
        if not command.startswith("$ satmatch ") or "…" in block or "..." in block:
            continue
        argv = shlex.split(command)[2:]
        cli.main(argv)
        assert capsys.readouterr().out == shown, command
        replayed.append(argv[0])
    assert sorted(replayed) == ["analyze", "enumerate", "match"]


def test_readme_market_example_is_plain_and_fails_as_shown(tmp_path, monkeypatch):
    """The example market is read by the line scanner, and with its last
    edge misspelt it gives the error the README shows."""
    [example] = _readme_blocks("yaml")
    assert scan(example) is not None
    monkeypatch.chdir(tmp_path)
    with open("market.yaml", "w", encoding="utf-8") as fh:
        fh.write(example.replace("- [bob, cut]", "- [bob, cutt]"))
    with pytest.raises(MarketFormatError) as exc:
        market_io.load_market("market.yaml")
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        assert f"\nerror: {exc.value}\n" in fh.read()
