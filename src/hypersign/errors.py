"""Exception hierarchy shared across the package."""

from __future__ import annotations

__all__ = [
    "HypersignError",
    "EmptyEdgeError",
    "VertexOutOfRangeError",
    "DuplicateVertexInEdgeError",
    "UnknownVertexError",
    "UnknownEdgeError",
    "NotAdjacentError",
    "InvalidWalkError",
    "DisconnectedPairError",
    "StructureMismatchError",
    "NotAPartitionError",
    "OracleBudgetExceededError",
    "DenseLimitExceededError",
    "VertexLimitExceededError",
    "InvalidValueError",
    "NoConvergenceError",
    "InternalCheckError",
    "EmptySpectrumError",
    "DisconnectedInputError",
    "NotUniformError",
    "DimensionMismatchError",
    "ZeroVectorError",
    "OddUniformityError",
    "NotConnectedError",
    "InfeasibleParametersError",
    "ParseError",
]


class HypersignError(Exception):
    """Base class for all errors raised by this package."""


class EmptyEdgeError(HypersignError):
    def __init__(self, edge_index: int):
        self.edge_index = edge_index
        super().__init__(f"edge {edge_index} is empty")


class VertexOutOfRangeError(HypersignError):
    def __init__(self, edge_index: int, vertex: int, n: int):
        self.edge_index = edge_index
        self.vertex = vertex
        super().__init__(
            f"edge {edge_index} references vertex {vertex!r}, outside 1..{n}"
        )


class DuplicateVertexInEdgeError(HypersignError):
    def __init__(self, edge_index: int, vertex: int):
        self.edge_index = edge_index
        self.vertex = vertex
        super().__init__(f"edge {edge_index} repeats vertex {vertex}")


class UnknownVertexError(HypersignError):
    def __init__(self, vertex: int, n: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} outside 1..{n}")


class UnknownEdgeError(HypersignError):
    def __init__(self, edge_index: int, m: int):
        self.edge_index = edge_index
        super().__init__(f"edge index {edge_index!r} outside 0..{m - 1}")


class NotAdjacentError(HypersignError):
    """Vertex pair not both incident to the named edge."""


class InvalidWalkError(HypersignError):
    """Sequence is not a valid walk of the hypergraph."""


class DisconnectedPairError(HypersignError):
    """No path exists between the requested elements."""


class StructureMismatchError(HypersignError):
    """Two instances do not share the same underlying hypergraph."""


class NotAPartitionError(HypersignError):
    """The given (X, Y) is not a partition of the vertex set."""


class OracleBudgetExceededError(HypersignError):
    """Brute-force oracle hit its enumeration budget."""


class DenseLimitExceededError(HypersignError):
    """A dense matrix would exceed the fixed cell limit of the matrix layer."""


class VertexLimitExceededError(HypersignError):
    def __init__(self, n: int, limit: int):
        self.n = n
        super().__init__(f"{n} vertices exceed the limit of {limit}")


class InvalidValueError(HypersignError, ValueError):
    """A value its parameter does not admit, such as a tolerance of 0 or a sign of 2."""


class NoConvergenceError(HypersignError):
    """Iterative numerical method exhausted its budget."""


class InternalCheckError(HypersignError):
    """A certificate failed its own verification: routes that must agree did not."""


class EmptySpectrumError(HypersignError):
    """Membership query against an empty spectrum."""


class NotUniformError(HypersignError):
    """Operation requires a k-uniform instance."""


class DimensionMismatchError(HypersignError):
    """Vector length does not match the vertex count."""


class ZeroVectorError(HypersignError):
    """Nonzero vector required."""


class OddUniformityError(HypersignError):
    """Operation requires even uniformity."""


class NotConnectedError(HypersignError):
    """Operation requires a connected instance."""


DisconnectedInputError = NotConnectedError


class InfeasibleParametersError(HypersignError):
    """Random-instance parameters cannot be satisfied."""


class ParseError(HypersignError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
