"""Exception types shared across the package."""


class EmptySequenceError(ValueError):
    """An access sequence must contain at least one access."""


class BadKeyspaceError(ValueError):
    """The keyspace size n must be a positive integer."""


class KeyOutOfRangeError(ValueError):
    """A key fell outside the declared keyspace [1, n]."""


class DimensionMismatchError(ValueError):
    """Two inputs that must agree on n or length do not."""


class TooLargeError(ValueError):
    """Instance exceeds the guard for an exhaustive-search operation."""


class BadBaseError(ValueError):
    """Depth-to-weight conversion needs a base strictly greater than 1."""


class BadSpecError(ValueError):
    """A workload specification is internally inconsistent."""


class TraceParseError(ValueError):
    """A trace or weights file is malformed; carries the offending line
    number and the file's path, and names both in its message."""

    def __init__(self, line: int, message: str, path):
        super().__init__(f"line {line}: {message} in {path}")
        self.line = line
        self.path = path
