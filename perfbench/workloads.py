"""The four workloads: their seeded inputs and the operations a round runs.

A round is a fixed list of satmatch CLI invocations. Each `Op` names the
command, its argv for `satmatch.cli.main`, the exit codes that mean the
command ran to a verdict, and the checker for its structured report.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import yaml

import checks
import markets as M
from markets import Market

WORKLOADS = ("sparse-cli", "dense-verdict", "enumerate-prefs", "verify-gate")

# fixed, seed-independent inputs for the two operations that fail today
DIAGONAL_PAIRS = 1200  # enumerate recurses once per X-vertex
CAP_SIDE = 20  # complete random instance needing more than 10^7 search nodes


@dataclass
class Input:
    name: str
    market: Market
    target: Optional[str] = None  # the vertex `adversary` strands


@dataclass
class Op:
    command: str
    argv: list[str]
    check: Callable[[dict], None]
    codes: tuple[int, ...] = (0,)
    label: str = ""


def _rng(workload: str, name: str, seed: int) -> random.Random:
    # str seeds hash with SHA-512, so inputs do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}/{name}/{seed}")


def inputs(workload: str, seed: int) -> list[Input]:
    """The workload's markets for `seed`."""
    out: list[Input] = []
    if workload == "sparse-cli":
        for n in (300, 1000):
            rng = _rng(workload, f"sparse{n}", seed)
            out.append(Input(f"sparse{n}", M.with_random_prefs(M.sparse(n, 4, rng), rng)))
        rng = _rng(workload, "classes", seed)
        out.append(Input("classes", M.classes_market(30, 8, 9, 40, rng)))
    elif workload == "dense-verdict":
        for n in (40, 60, 80):
            out.append(Input(f"complete{n}", M.complete(n, n)))
        out.append(Input("dense60", M.dense(60, 60, 0.5, _rng(workload, "dense60", seed))))
        out.append(
            Input("near50x40", M.near_complete(50, 40, 20, _rng(workload, "near", seed)))
        )
        for k in range(4):
            rng = _rng(workload, f"adv{k}", seed)
            while True:
                m = M.dense(12, 12, 0.5, rng)
                target = checks.first_strandable(m)
                if target is not None:
                    break
            out.append(Input(f"adv{k}", m, target=M.xn(target)))
    elif workload == "enumerate-prefs":
        for n, copies in ((8, 2), (12, 3), (14, 2), (16, 1)):
            for k in range(copies):
                rng = _rng(workload, f"random{n}.{k}", seed)
                out.append(Input(f"random{n}.{k}", M.with_random_prefs(M.complete(n, n), rng)))
        for n in (8, 12):
            out.append(Input(f"latin{n}", M.latin(n)))
        out.append(Input("diagonal", M.diagonal(DIAGONAL_PAIRS)))
        rng = random.Random(f"{workload}/cap{CAP_SIDE}")
        out.append(Input("cap", M.with_random_prefs(M.complete(CAP_SIDE, CAP_SIDE), rng)))
    elif workload != "verify-gate":
        raise ValueError(f"unknown workload {workload!r}")
    return out


def write_inputs(items: list[Input], directory: str) -> None:
    """Each market as YAML for satmatch and as JSON for the checkers."""
    os.makedirs(directory, exist_ok=True)
    for item in items:
        with open(os.path.join(directory, item.name + ".yaml"), "w") as fh:
            fh.write(M.to_yaml(item.market))
        with open(os.path.join(directory, item.name + ".json"), "w") as fh:
            json.dump({"target": item.target, "market": item.market.__dict__}, fh)


def read_inputs(directory: str) -> dict[str, Input]:
    out = {}
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".json"):
            with open(os.path.join(directory, fname)) as fh:
                data = json.load(fh)
            name = fname[: -len(".json")]
            out[name] = Input(name, Market(**data["market"]), data["target"])
    return out


def _structured(*argv: str) -> list[str]:
    return [*argv, "--format", "structured"]


def ops(workload: str, seed: int, directory: str, items: dict[str, Input]) -> list[Op]:
    """The operations of one round, in order."""
    def path(name: str) -> str:
        return os.path.join(directory, name + ".yaml")

    def analyze(name: str, side: str) -> Op:
        m = items[name].market
        return Op(
            "analyze",
            _structured("analyze", path(name), "--side", side),
            lambda rep: checks.check_analyze(m, rep, side),
            codes=(0, 1),
            label=f"analyze {name} --side {side}",
        )

    def match(name: str, side: str) -> Op:
        m = items[name].market
        return Op(
            "match",
            _structured("match", path(name), "--propose", side),
            lambda rep: checks.check_match(m, rep, side),
            label=f"match {name} --propose {side}",
        )

    def enumerate_(name: str, **kw) -> Op:
        m = items[name].market
        return Op(
            "enumerate",
            _structured("enumerate", path(name)),
            lambda rep: checks.check_enumerate(m, rep, **kw),
            label=f"enumerate {name}",
        )

    def adversary(name: str) -> Op:
        item = items[name]
        out_path = os.path.join(directory, name + ".out.yaml")

        def check(rep: dict) -> None:
            with open(out_path) as fh:
                text = fh.read()
            checks.expect(text == rep["market"], "written file differs from the report")
            checks.check_adversary(item.market, rep, item.target, yaml.safe_load(text))

        return Op(
            "adversary",
            _structured("adversary", path(name), "--target", item.target, "--out", out_path),
            check,
            label=f"adversary {name} --target {item.target}",
        )

    if workload == "sparse-cli":
        round_ = []
        for name in ("sparse300", "sparse1000"):
            round_ += [analyze(name, "x"), analyze(name, "y")]
            round_ += [match(name, "x"), match(name, "y")]
        return round_ + [analyze("classes", "x")]
    if workload == "dense-verdict":
        names = ("complete40", "complete60", "complete80", "dense60", "near50x40")
        return [analyze(n, "x") for n in names] + [adversary(f"adv{k}") for k in range(4)]
    if workload == "enumerate-prefs":
        round_ = []
        for name in sorted(items):
            if name.startswith("random"):
                n = items[name].market.x_count
                round_ += [enumerate_(name, brute_force=n <= 8), match(name, "x"), match(name, "y")]
        round_ += [enumerate_("latin8", shifts=True, brute_force=True)]
        round_ += [enumerate_("latin12", shifts=True)]
        return round_ + [enumerate_("diagonal"), enumerate_("cap")]
    if workload == "verify-gate":
        return [
            Op(
                "verify",
                _structured("verify", "--quiet", "--seed", str(seed)),
                checks.check_verify,
                label=f"verify --seed {seed}",
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, seed: int, directory: str, items: dict[str, Input]) -> Op:
    """One cheap operation that loads every module the round uses."""
    if workload == "verify-gate":
        return Op(
            "verify",
            _structured("verify", "--quiet", "--max-side", "1", "--seeds", "2"),
            lambda rep: checks.expect(rep["passed"] is True, "warm-up verify failed"),
            label="verify --max-side 1 --seeds 2",
        )
    return ops(workload, seed, directory, items)[0]
