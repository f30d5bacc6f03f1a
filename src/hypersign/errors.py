"""Exception hierarchy shared across the package, and the input contract.

Every public function, constructor and method checks its input against
one contract and refuses a violation with a typed HypersignError before
doing any work; the command line reports it and exits 2.

- Ids (vertices, edges, walk elements, certificate members, GF(2)
  variables and masks), counts, sizes and seeds are integers: a Python
  int or a numpy integer, never a bool or ``np.bool_``, stored as an int.
  A lookup raises UnknownVertexError or UnknownEdgeError for an id that
  is no integer or out of range, and a constructor VertexOutOfRangeError
  for such a vertex.  A vertex count (and nvars) lies in
  0..core.MAX_VERTICES, with VertexLimitExceededError above it.
- Budgets (max_count, max_paths, OracleLimits) are integers of at least 1.
- Tolerances (tol, abs_tol) are finite reals above 0, never bool.
- Labels (orientations and edge signs) are real numbers equal to +1 or -1.
- Numeric arrays hold booleans, integers or floats (complex numbers where
  a vector may be complex), not strings, objects or ragged rows.
- Content (parse, parse_text) and bundled names are str.  Paths (load,
  save) are str or os.PathLike, never an integer, which open() would
  take for a file descriptor and close.
- A size whose memory would pass a fixed budget is refused before
  anything is allocated: DenseLimitExceededError for a dense matrix or a
  GF(2) basis.

Any other violation raises InvalidValueError.  is_integer, check_integer,
check_budget, check_tolerance, check_array, check_text and check_path
state these rules once;
every module calls them, or inlines is_integer's rule, saying so, where
it runs once per incidence and a call would cost too much.
"""

from __future__ import annotations

import os
import sys
from numbers import Real

import numpy as np

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
    """A dense matrix, real or over GF(2), would exceed its layer's fixed limit."""


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


class InfeasibleParametersError(HypersignError):
    """Random-instance parameters cannot be satisfied."""


class ParseError(HypersignError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def is_integer(value) -> bool:
    """Whether value is an integer in the contract's sense: a Python or numpy
    integer and not a bool (``np.bool_`` is no numpy integer)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_integer(value, name: str) -> int:
    """value as an int, or InvalidValueError naming the parameter."""
    if not is_integer(value):
        raise InvalidValueError(f"{name} must be an integer, got {value!r:.40}")
    return int(value)


def check_budget(value, name: str) -> int:
    """value as an int of at least 1, or InvalidValueError."""
    if not is_integer(value) or value < 1:
        raise InvalidValueError(f"{name} must be an integer of at least 1, got {value!r:.40}")
    return int(value)


def check_tolerance(value, name: str) -> float:
    """value as a float if it is a finite real above 0 and not a bool, else
    InvalidValueError.  NaN fails the comparison, and so does an int too
    large for a float."""
    if isinstance(value, Real) and not isinstance(value, bool) and 0 < value <= sys.float_info.max:
        return float(value)
    raise InvalidValueError(f"{name} must be finite and positive, got {value!r:.40}")


def check_array(value, what: str, kinds: str = "biuf") -> np.ndarray:
    """value as a float64 array, or complex128 if it is complex and kinds
    admits "c"; an array of another kind (strings, objects, complex where
    kinds does not admit it) or ragged nesting raises InvalidValueError.
    A float64 array is returned as it is, without a copy."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.empty(0, dtype=object)
    if arr.dtype.kind not in kinds:
        raise InvalidValueError(f"expected a numeric {what}, got dtype {arr.dtype}")
    return arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64, copy=False)


def check_text(value, name: str) -> str:
    """value if it is a str, else InvalidValueError naming the parameter."""
    if not isinstance(value, str):
        raise InvalidValueError(f"{name} must be a str, got {value!r:.40}")
    return value


def check_path(value):
    """value if it is a str or an os.PathLike, else InvalidValueError."""
    if not isinstance(value, (str, os.PathLike)):
        raise InvalidValueError(f"path must be a str or os.PathLike, got {value!r:.40}")
    return value
