"""Exception types shared across the package."""

# a count of more bits is shown as a power of two: a huge one is unreadable,
# and Python refuses to print an int of more than 4,300 digits at all
SHORT_COUNT_BITS = 64


def count_text(count: int, *, at_most: bool = False) -> str:
    """`count` as a message shows it: in full when it fits in
    SHORT_COUNT_BITS bits, else as a true power-of-two bound. With
    `at_most`, `count` is itself an upper bound and reads `at most ...`
    either way; an exact count too long to show reads `more than 2^k`."""
    if count.bit_length() <= SHORT_COUNT_BITS:
        return f"at most {count}" if at_most else str(count)
    if at_most:
        return f"at most 2^{(count - 1).bit_length()}"
    return f"more than 2^{(count - 1).bit_length() - 1}"


class InputError(ValueError):
    """Invalid domain input: malformed graph, preferences, market, or argument."""


class PreferenceError(InputError):
    """A preference table that is not a family of neighborhood permutations.

    `vertex` is the vertex whose list is at fault and `entry` the index of
    the offending entry in that list, each None when the defect has none.
    """

    def __init__(self, message, *, vertex=None, entry=None):
        super().__init__(message)
        self.vertex = vertex
        self.entry = entry


class MarketFormatError(InputError):
    """A market file that does not parse or does not validate.

    `path` holds the mapping keys and list indices that lead from the
    document root to the rejected entry; line/column are 1-based and give
    that entry's position when the text was at hand.
    """

    def __init__(self, message, *, source=None, line=None, column=None, path=()):
        prefix = source or ""
        if line is not None:
            prefix += f":{line}"
            if column is not None:
                prefix += f":{column}"
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.message = message
        self.source = source
        self.path = tuple(path)
        self.line = line
        self.column = column


class CapExceeded(RuntimeError):
    """A configured resource cap would be exceeded; carries the estimate."""


class InstanceCapExceeded(CapExceeded):
    """Exhaustive preference enumeration refused: too many instances."""

    def __init__(self, count, cap):
        super().__init__(
            f"exhaustive enumeration needs {count_text(count)} preference "
            f"instances, above the cap of {cap}; fall back to sampling"
        )
        self.count = count
        self.cap = cap


class GraphCountExceeded(CapExceeded):
    """Exhaustive verification refused: too many graphs to enumerate.

    `count` is None when max_side is too large to count the family: its
    n x n graphs alone number 2^(n*n), so it has more than that.
    """

    def __init__(self, max_side, count, cap):
        if count is None:
            shown = f"more than 2^{max_side * max_side}"
        else:
            shown = count_text(count)
        super().__init__(
            f"verification with max side {max_side} would enumerate {shown} "
            f"graphs, above the limit of {cap}"
        )
        self.count = count
        self.cap = cap


class SearchCapExceeded(CapExceeded):
    """Stable-matching search refused: step budget exhausted.

    `estimate` is an upper bound on the number of stable matchings.
    """

    def __init__(self, visited, cap, estimate):
        super().__init__(
            f"stable-matching search visited {visited} nodes, above the cap of "
            f"{cap} (the instance has {count_text(estimate, at_most=True)} stable "
            f"matching{'' if estimate == 1 else 's'})"
        )
        self.visited = visited
        self.cap = cap
        self.estimate = estimate


class EngineInvariantError(RuntimeError):
    """Internal consistency failure in the matching engine.

    This is never a user error: it means the engine produced a set of stable
    matchings whose matched vertex sets disagree, or the analysis reported a
    vertex strandable whose options cannot all be absorbed. Established
    theory rules both out. Raising loudly beats returning a corrupt result.
    """
