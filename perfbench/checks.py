"""Independent output checkers.

Each checker takes a benchmark `Market` and the structured report satmatch
printed for it, recomputes what it can with the benchmark's own code
(Gale–Shapley, a blocking-pair scan, union-find, Hall-style counting and a
brute force over perfect matchings) and raises `CheckError` on the first
disagreement. Nothing here imports satmatch.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Optional

from markets import Market, xn, yn


class CheckError(AssertionError):
    """A satmatch output disagrees with the benchmark's own computation."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def index(name: str, side: str) -> int:
    expect(
        isinstance(name, str) and name[:1] == side and name[1:].isdigit(),
        f"{name!r} is not a {side}-side vertex name",
    )
    return int(name[1:])


# -- the benchmark's own matching computations --------------------------------


def ranks(lists: list[list[int]]) -> list[dict[int, int]]:
    return [{v: r for r, v in enumerate(lst)} for lst in lists]


def gale_shapley(
    proposer_lists: list[list[int]], receiver_lists: list[list[int]]
) -> list[int]:
    """Proposer-optimal stable matching; partner index per proposer, -1 if none."""
    receiver_rank = ranks(receiver_lists)
    held_by = [-1] * len(receiver_lists)
    partner = [-1] * len(proposer_lists)
    cursor = [0] * len(proposer_lists)
    queue = deque(range(len(proposer_lists)))
    while queue:
        p = queue.popleft()
        lst = proposer_lists[p]
        if cursor[p] == len(lst):
            continue
        r = lst[cursor[p]]
        cursor[p] += 1
        h = held_by[r]
        if h < 0:
            held_by[r], partner[p] = p, r
        elif receiver_rank[r][p] < receiver_rank[r][h]:
            held_by[r], partner[p], partner[h] = p, r, -1
            queue.append(h)
        else:
            queue.append(p)
    return partner


def optimal(m: Market, proposing: str) -> list[int]:
    """The X-partner vector of the `proposing` side's optimal stable matching."""
    if proposing == "x":
        return gale_shapley(m.x_lists, m.y_lists)
    py = gale_shapley(m.y_lists, m.x_lists)
    px = [-1] * m.x_count
    for j, i in enumerate(py):
        if i >= 0:
            px[i] = j
    return px


def blocking_pairs(
    x_lists: list[list[int]], y_lists: list[list[int]], px: list[int]
) -> list[tuple[int, int]]:
    """Every (x, y) that prefer each other to their partners under `px`."""
    py = [-1] * len(y_lists)
    for i, j in enumerate(px):
        if j >= 0:
            py[j] = i
    y_rank = ranks(y_lists)
    out = []
    for i, lst in enumerate(x_lists):
        for j in lst:
            if j == px[i]:
                break
            if py[j] < 0 or y_rank[j][i] < y_rank[j][py[j]]:
                out.append((i, j))
    return out


def partner_vector(m: Market, pairs: Iterable) -> list[int]:
    """Validate [x, y] name pairs as a matching of `m`; return X-partners."""
    px = [-1] * m.x_count
    taken: set[int] = set()
    for xname, yname in pairs:
        i, j = index(xname, "x"), index(yname, "y")
        expect(i < m.x_count and j < m.y_count, f"pair {xname}-{yname} out of range")
        expect(j in m.x_adj[i], f"pair {xname}-{yname} is not an edge")
        expect(px[i] < 0 and j not in taken, f"{xname} or {yname} matched twice")
        px[i] = j
        taken.add(j)
    return px


def stable_perfect_matchings(m: Market) -> set[tuple[int, ...]]:
    """Brute force over all n! perfect matchings of a complete n x n market."""
    n = m.x_count
    expect(
        m.y_count == n and all(len(row) == n for row in m.x_adj),
        "brute force needs a complete balanced market",
    )
    return {
        perm
        for perm in itertools.permutations(range(n))
        if not blocking_pairs(m.x_lists, m.y_lists, list(perm))
    }


def components(m: Market) -> list[frozenset[str]]:
    """Connected pieces as sets of vertex names, by union-find."""
    parent = list(range(m.x_count + m.y_count))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in m.edges:
        a, b = find(i), find(m.x_count + j)
        if a != b:
            parent[a] = b
    pieces: dict[int, set[str]] = {}
    for v in range(m.x_count + m.y_count):
        name = xn(v) if v < m.x_count else yn(v - m.x_count)
        pieces.setdefault(find(v), set()).add(name)
    return [frozenset(p) for p in pieces.values()]


def absorbable(adj: list[list[int]], coadj: list[list[int]], v: int) -> bool:
    """Can every option of v be matched to a distinct competitor other than v?

    Kuhn's augmenting paths with an explicit stack, options on the left.
    """
    owner: dict[int, int] = {}  # competitor -> option
    for start in adj[v]:
        seen: set[int] = set()
        stack = [(start, iter(coadj[start]))]
        trail: list[tuple[int, int]] = []  # (option, competitor) along the path
        placed = False
        while stack and not placed:
            option, it = stack[-1]
            for c in it:
                if c == v or c in seen:
                    continue
                seen.add(c)
                trail.append((option, c))
                if c not in owner:
                    placed = True
                else:
                    nxt = owner[c]
                    stack.append((nxt, iter(coadj[nxt])))
                break
            else:
                stack.pop()
                if trail:
                    trail.pop()
        if not placed:
            return False
        for option, c in trail:
            owner[c] = option
    return True


# -- per-command checkers -------------------------------------------------------


def check_instance_table(m: Market, table: dict) -> tuple[list[list[int]], list[list[int]]]:
    """A name-keyed preference table must rank exactly each neighborhood."""
    y_adj = m.y_adj
    x_lists = []
    for i in range(m.x_count):
        lst = [index(n, "y") for n in table.get(xn(i), [])]
        expect(sorted(lst) == m.x_adj[i], f"list of {xn(i)} is not its neighborhood")
        x_lists.append(lst)
    y_lists = []
    for j in range(m.y_count):
        lst = [index(n, "x") for n in table.get(yn(j), [])]
        expect(sorted(lst) == y_adj[j], f"list of {yn(j)} is not its neighborhood")
        y_lists.append(lst)
    expect(len(table) == m.x_count + m.y_count, "table lists unknown vertices")
    return x_lists, y_lists


def check_stranded(m: Market, table: dict, target: str) -> None:
    """Under `table`, `target` is unmatched in both deferred-acceptance optima,
    hence (Rural Hospitals) in every stable matching."""
    x_lists, y_lists = check_instance_table(m, table)
    side, k = target[0], index(target, target[0])
    if side == "x":
        matched = {i for i, j in enumerate(gale_shapley(x_lists, y_lists)) if j >= 0}
        matched |= {i for i in gale_shapley(y_lists, x_lists) if i >= 0}
    else:
        matched = {j for j in gale_shapley(x_lists, y_lists) if j >= 0}
        matched |= {j for j, i in enumerate(gale_shapley(y_lists, x_lists)) if i >= 0}
    expect(k not in matched, f"{target} is matched under its stranding preferences")


def check_match(m: Market, rep: dict, proposing: str) -> None:
    px = partner_vector(m, rep["pairs"])
    expect(px == optimal(m, proposing), f"{proposing}-proposing result is not optimal")
    expect(not blocking_pairs(m.x_lists, m.y_lists, px), "matching has a blocking pair")
    expect(rep["stable"] is True, "report says unstable")
    expect(rep["size"] == sum(j >= 0 for j in px), "size disagrees with pairs")
    matched_y = {j for j in px if j >= 0}
    expect(
        rep["unmatched_x"] == [xn(i) for i in range(m.x_count) if px[i] < 0]
        and rep["unmatched_y"] == [yn(j) for j in range(m.y_count) if j not in matched_y],
        "unmatched lists disagree with pairs",
    )


def check_enumerate(
    m: Market, rep: dict, brute_force: bool = False, shifts: bool = False
) -> None:
    vectors = [tuple(partner_vector(m, mm["pairs"])) for mm in rep["matchings"]]
    expect(rep["count"] == len(vectors) >= 1, "count disagrees with the list")
    expect(len(set(vectors)) == len(vectors), "a matching is listed twice")
    for vec in vectors:
        expect(
            not blocking_pairs(m.x_lists, m.y_lists, list(vec)),
            "a listed matching has a blocking pair",
        )
    listed = set(vectors)
    for side in ("x", "y"):
        expect(tuple(optimal(m, side)) in listed, f"{side}-optimal matching missing")
    matched_x = [xn(i) for i, j in enumerate(vectors[0]) if j >= 0]
    matched_y = [yn(j) for j in sorted(j for j in vectors[0] if j >= 0)]
    for vec in vectors:
        expect(
            [xn(i) for i, j in enumerate(vec) if j >= 0] == matched_x,
            "matched sets differ across stable matchings",
        )
    expect(
        rep["matched_x"] == matched_x and rep["matched_y"] == matched_y,
        "reported matched sets disagree with the list",
    )
    expect(rep["x_saturating"] == (len(matched_x) == m.x_count), "x_saturating wrong")
    expect(rep["y_saturating"] == (len(matched_y) == m.y_count), "y_saturating wrong")
    if shifts:
        n = m.x_count
        for k in range(n):
            expect(
                tuple((i + k) % n for i in range(n)) in listed,
                f"cyclic shift {k} missing",
            )
    if brute_force:
        expect(listed == stable_perfect_matchings(m), "list differs from brute force")


def check_analyze(m: Market, rep: dict, side: str) -> None:
    if side == "x":
        adj, coadj, own, other, other_side = m.x_adj, m.y_adj, xn, yn, "y"
    else:
        adj, coadj, own, other, other_side = m.y_adj, m.x_adj, yn, xn, "x"
    sat = rep["saturation"]
    rows = sat["vertices"]
    expect([r["vertex"] for r in rows] == [own(v) for v in range(len(adj))], "vertex rows")
    failing, isolated = [], []
    for v, row in enumerate(rows):
        options = adj[v]
        claimants = {c for u in options for c in coadj[u]}
        expect(row["options"] == len(options), f"{own(v)}: options")
        expect(row["claimants"] == len(claimants), f"{own(v)}: claimants")
        expect(row["bounded"] == (len(claimants) <= len(options)), f"{own(v)}: bounded")
        expect(row["isolated"] == (not options), f"{own(v)}: isolated")
        lone = [u for u in options if len(coadj[u]) == 1]
        expect(
            row["dedicated"] == (other(lone[0]) if lone else None), f"{own(v)}: dedicated"
        )
        if row["blockade"] is not None:
            block = {index(n, other_side) for n in row["blockade"]}
            expect(block and block <= set(options), f"{own(v)}: blockade not in N(v)")
            rivals = {c for u in block for c in coadj[u]} - {v}
            expect(len(rivals) < len(block), f"{own(v)}: blockade is not one")
            expect(row["satisfied"], f"{own(v)}: blockade but not satisfied")
        else:
            expect(not row["satisfied"], f"{own(v)}: satisfied without a blockade")
            if options:
                expect(absorbable(adj, coadj, v), f"{own(v)}: cannot be absorbed")
                failing.append(own(v))
            else:
                isolated.append(own(v))
    holds = not failing and not isolated
    expect(sat["holds"] == holds, "saturation verdict disagrees with its rows")
    expect(sat["failing"] == failing and sat["isolated"] == isolated, "failing lists")
    ce = sat["counterexample"]
    if failing:
        expect(ce is not None and ce["vertex"] in failing, "counterexample missing")
        check_stranded(m, ce["preferences"], ce["vertex"])
    else:
        expect(ce is None, "counterexample for a verdict that holds")

    perfect = rep["perfect"]
    expect(perfect[f"{side}_holds"] == holds, "perfect: analyzed side disagrees")
    expect(perfect["holds"] == (perfect["x_holds"] and perfect["y_holds"]), "perfect: x∧y")

    pieces = components(m)
    balanced = m.x_count == m.y_count
    comp = rep["components"]
    expect(comp["applicable"] == balanced, "components: applicability")
    if balanced:
        got = [frozenset(p["x"] + p["y"]) for p in comp["pieces"]]
        expect(sorted(map(sorted, got)) == sorted(map(sorted, pieces)), "components differ")
        edges = set(m.edges)
        all_good = True
        for p in comp["pieces"]:
            xs = [index(n, "x") for n in p["x"]]
            ys = [index(n, "y") for n in p["y"]]
            biclique = all((i, j) in edges for i in xs for j in ys)
            expect(p["biclique"] == biclique, "components: biclique flag")
            expect(p["balanced"] == (len(xs) == len(ys)), "components: balanced flag")
            all_good = all_good and biclique and len(xs) == len(ys)
        expect(comp["holds"] == all_good, "components: verdict")

    completeness = rep["completeness"]
    connected = len(pieces) == 1
    expect(
        completeness["applicable"] == (balanced and m.x_count > 0 and connected),
        "completeness: applicability",
    )
    if completeness["applicable"]:
        complete = len(m.edges) == m.x_count * m.y_count
        expect(completeness["holds"] == complete, "completeness: verdict")
        if not complete:
            xe, ye = completeness["missing_edge"]
            expect(index(ye, "y") not in m.x_adj[index(xe, "x")], "missing edge exists")

    coverage = rep["coverage"]
    expect((coverage is None) == (m.classes is None), "coverage presence")
    if coverage is not None:
        covered = []
        for c, row in enumerate(coverage["classes"]):
            members = sum(c in cs for cs in m.x_membership)
            slots = sum(yc == c for yc in m.y_class)
            expect((row["members"], row["slots"]) == (members, slots), "class sizes")
            expect(row["covered"] == (slots >= members), "class covered flag")
            covered.append(slots >= members)
        expect(coverage["holds"] == all(covered), "coverage verdict")
        expect(coverage["consistent"] is True, "coverage cross-check inconsistent")


def check_adversary(m: Market, rep: dict, target: str, written: dict) -> None:
    """`written` is the --out file as plain yaml.safe_load read it back."""
    expect(
        written["x_names"] == [xn(i) for i in range(m.x_count)]
        and written["y_names"] == [yn(j) for j in range(m.y_count)],
        "written market renames vertices",
    )
    expect(
        sorted((index(a, "x"), index(b, "y")) for a, b in written["edges"]) == m.edges,
        "written market changes the edges",
    )
    expect(written["preferences"] == rep["preferences"], "written and reported prefs differ")
    check_stranded(m, written["preferences"], target)
    side, k = target[0], index(target, target[0])
    adj, coadj = (m.x_adj, m.y_adj) if side == "x" else (m.y_adj, m.x_adj)
    expect(rep["options"] == len(adj[k]), "options")
    expect(rep["claimants"] == len({c for u in adj[k] for c in coadj[u]}), "claimants")
    conf = rep["confirmation"]
    expect(
        conf["within_cap"] is True and conf["target_always_unmatched"] is True,
        "confirmation does not confirm the stranding",
    )


def closed_form_graph_counts(max_side: int = 3) -> tuple[int, int]:
    """(Σ_{a,b≤s} 2^(ab), Σ_{n≤s} 2^(n²)): graphs the two verdict suites visit."""
    pairs = sum(2 ** (a * b) for a in range(max_side + 1) for b in range(max_side + 1))
    balanced = sum(2 ** (n * n) for n in range(max_side + 1))
    return pairs, balanced


def check_verify(rep: dict) -> None:
    expect(rep["passed"] is True, "verify reports a failed suite")
    suites = {s["name"]: s for s in rep["suites"]}
    expect(
        set(suites) == {"saturation", "perfection", "coverage", "oracle"},
        "verify ran another set of suites",
    )
    expect(all(s["passed"] for s in suites.values()), "a suite failed")
    pairs, balanced = closed_form_graph_counts(rep["params"]["max_side"])
    expect(suites["saturation"]["counts"]["graphs"] == pairs, "saturation graph count")
    expect(suites["perfection"]["counts"]["graphs"] == balanced, "perfection graph count")


def first_strandable(m: Market) -> Optional[int]:
    """The lowest X-index whose options can all be absorbed by competitors."""
    y_adj = m.y_adj
    for i in range(m.x_count):
        if m.x_adj[i] and absorbable(m.x_adj, y_adj, i):
            return i
    return None
