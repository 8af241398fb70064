"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid domain input: malformed graph, preferences, market, or argument."""


class PreferenceError(InputError):
    """A preference table that is not a family of neighborhood permutations.

    Carries the offending vertex (when one exists) so callers that own a
    name mapping can rephrase the message.
    """

    def __init__(self, message, vertex=None):
        super().__init__(message)
        self.vertex = vertex


class MarketFormatError(InputError):
    """A market file that does not parse or does not validate.

    line/column are 1-based when the underlying parser reported a position.
    """

    def __init__(self, message, *, source=None, line=None, column=None):
        prefix = source or ""
        if line is not None:
            prefix += f":{line}"
            if column is not None:
                prefix += f":{column}"
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.source = source
        self.line = line
        self.column = column


class CapExceeded(RuntimeError):
    """A configured resource cap would be exceeded; carries the estimate."""


class InstanceCapExceeded(CapExceeded):
    """Exhaustive preference enumeration refused: too many instances."""

    def __init__(self, count, cap):
        super().__init__(
            f"exhaustive enumeration needs {count} preference instances, "
            f"above the cap of {cap}; fall back to sampling"
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
            f"{cap} (the instance has at most {estimate} stable matchings)"
        )
        self.visited = visited
        self.cap = cap
        self.estimate = estimate


class EngineInvariantError(RuntimeError):
    """Internal consistency failure in the matching engine.

    This is never a user error: it means the engine produced a set of stable
    matchings whose matched vertex sets disagree, which established theory
    rules out. Raising loudly beats returning a corrupt result.
    """
