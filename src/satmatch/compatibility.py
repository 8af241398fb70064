"""Block-structured markets: class memberships on X, a class partition on Y.

Each X-vertex belongs to one or more classes (overlaps allowed, but every
class must have at least one exclusive member); each Y-vertex belongs to
exactly one class. Acceptability is class membership: the induced graph has
an edge (x, y) exactly when y's class is one of x's. A preference instance
on that induced graph is automatically class-wise complete — every vertex
ranks all compatible partners — which is the only preference regime these
verdicts quantify over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

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
        for c in range(self.n_classes):
            if not any(m == {c} for m in self.x_membership):
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


def induced_graph(market: CompatibilityMarket) -> BipartiteGraph:
    """The acceptability graph: (x, y) is an edge iff y's class is one of x's."""
    edges = [
        (i, j)
        for i, classes in enumerate(market.x_membership)
        for j, c in enumerate(market.y_class)
        if c in classes
    ]
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
    for c, sizes in enumerate(coverage.classes):
        if not sizes.covered:
            for i, m in enumerate(market.x_membership):
                if m == {c}:
                    return i
    return None
