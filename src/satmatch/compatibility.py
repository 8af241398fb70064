"""Block-structured markets: class memberships on X, a class partition on Y.

Each X-vertex belongs to one or more classes (overlaps allowed, but every
class must have at least one exclusive member: an X-vertex that belongs to
it and to no other class); each Y-vertex belongs to exactly one class.
`exclusive_members` owns that rule: the constructor, the witness of a
deficient class, the file reader and the harness's market family all ask
it. Acceptability is class membership: the induced graph has
an edge (x, y) exactly when y's class is one of x's. `induced_rows` owns
that rule, as one bitmask over Y per X-vertex; `induced_graph` and the
harness's memo keys both read it. A preference instance
on that induced graph is automatically class-wise complete — every vertex
ranks all compatible partners — which is the only preference regime these
verdicts quantify over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Hashable, Iterable, NamedTuple, Optional, Sequence

from .errors import InputError
from .graph import BipartiteGraph


@dataclass(frozen=True)
class CompatibilityMarket:
    """n_classes classes; x_membership[i] a nonempty frozenset of class
    indices; y_class[j] a single class index. Validated on construction."""

    n_classes: int
    x_membership: tuple[frozenset[int], ...]
    y_class: tuple[int, ...]

    def __post_init__(self):
        if self.n_classes < 1:
            raise InputError(f"need at least one class, got {self.n_classes}")
        for i, classes in enumerate(self.x_membership):
            if not classes:
                raise InputError(f"x[{i}] belongs to no class")
            for c in classes:
                if not (0 <= c < self.n_classes):
                    raise InputError(f"x[{i}] names unknown class {c}")
        for j, c in enumerate(self.y_class):
            if not (0 <= c < self.n_classes):
                raise InputError(f"y[{j}] names unknown class {c}")
        exclusive = exclusive_members(self.x_membership)
        for c in range(self.n_classes):
            if c not in exclusive:
                raise InputError(
                    f"class {c} has no exclusive member: some X-vertex must "
                    f"belong to it and to no other class"
                )

    @classmethod
    def build(
        cls,
        n_classes: int,
        x_membership: Iterable[Iterable[int]],
        y_class: Sequence[int],
    ) -> "CompatibilityMarket":
        return cls(
            n_classes=n_classes,
            x_membership=tuple(frozenset(m) for m in x_membership),
            y_class=tuple(y_class),
        )


def exclusive_members(
    memberships: Iterable[Collection[Hashable]],
) -> dict[Hashable, int]:
    """Each class that has an exclusive member, mapped to the lowest index
    of one, in one pass over `memberships` (each X-vertex's classes, with
    no class twice). A class with no exclusive member is left out."""
    owner: dict[Hashable, int] = {}
    for i, classes in enumerate(memberships):
        if len(classes) == 1:
            for c in classes:
                owner.setdefault(c, i)
    return owner


def induced_rows(market: CompatibilityMarket) -> tuple[int, ...]:
    """The acceptability graph's X-rows as bitmasks over Y: bit j of row i
    is set iff y[j]'s class is one of x[i]'s, so a row is the OR of its
    classes' slot masks. Markets with the same Y count and the same rows
    induce the same graph."""
    slots = [0] * market.n_classes
    for j, c in enumerate(market.y_class):
        slots[c] |= 1 << j
    rows = []
    for classes in market.x_membership:
        row = 0
        for c in classes:
            row |= slots[c]
        rows.append(row)
    return tuple(rows)


def induced_graph(market: CompatibilityMarket) -> BipartiteGraph:
    """The acceptability graph: (x, y) is an edge iff y's class is one of
    x's, one edge per set bit of `induced_rows`."""
    edges = []
    for i, row in enumerate(induced_rows(market)):
        while row:
            edges.append((i, (row & -row).bit_length() - 1))
            row &= row - 1
    return BipartiteGraph(len(market.x_membership), len(market.y_class), edges)


class ClassSizes(NamedTuple):
    members: int  # |A_i|
    slots: int  # |B_i|

    @property
    def covered(self) -> bool:
        """The class has a slot for each of its members."""
        return self.slots >= self.members


@dataclass(frozen=True)
class CoverageVerdict:
    """Does every stable matching saturate X for every class-wise-complete
    instance? Holds exactly when no class has more members than slots."""

    holds: bool
    classes: tuple[ClassSizes, ...]


def coverage_verdict(market: CompatibilityMarket) -> CoverageVerdict:
    members = [0] * market.n_classes
    slots = [0] * market.n_classes
    for classes in market.x_membership:
        for c in classes:
            members[c] += 1
    for c in market.y_class:
        slots[c] += 1
    sizes = tuple(map(ClassSizes, members, slots))
    return CoverageVerdict(holds=all(s.covered for s in sizes), classes=sizes)


@dataclass(frozen=True)
class ConsistencyReport:
    coverage: CoverageVerdict
    consistent: bool


def verdict_consistency(
    market: CompatibilityMarket, saturation_holds: bool
) -> ConsistencyReport:
    """Cross-check the class-size verdict against the structural one.

    `saturation_holds` is whether the X-side saturation verdict of the
    induced graph holds. On induced graphs the two verdicts are equivalent:
    a deficient class lets its exclusive member be absorbed, and a covered
    class's slots are a blockade for each of its members. So they must
    agree both ways, or one of the two checkers is wrong.
    """
    cov = coverage_verdict(market)
    return ConsistencyReport(coverage=cov, consistent=cov.holds == saturation_holds)


def deficient_witness(
    market: CompatibilityMarket, coverage: CoverageVerdict
) -> Optional[int]:
    """The lowest-index exclusive member of the lowest-index deficient class
    of `coverage` (the market's coverage verdict), or None when every class
    covers its members."""
    exclusive = exclusive_members(market.x_membership)
    for c, sizes in enumerate(coverage.classes):
        if not sizes.covered and c in exclusive:
            return exclusive[c]
    return None
