"""Numerical kernels.

Dense symmetric eigenvalues and singular values through LAPACK
(``numpy.linalg``), bitset Gaussian elimination over GF(2) with
infeasibility witnesses, and tolerance-based spectrum membership.

The GF(2) elimination stops reducing rows once the rank reaches n - 1.
From then on one vector z spans the null space of the rows seen so far
(z = 0 at full rank), and a row a lies in their row space exactly when
a . z = 0; such a row would reduce to 0 = b + a . x for any solution x
of those rows.  So a row with a . z = 0 and a . x = b is skipped, which
is what its reduction would have concluded; every other row is reduced
as before, so the basis, the canonical solution and the witnesses are
the same as without the shortcut.  Connected parity systems of even
uniform hypergraphs reach rank n - 1 early, since the all-ones vector
lies in the kernel of their rows, and most of their rows come after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySpectrumError

__all__ = [
    "MEMBERSHIP_ABS_TOL",
    "MEMBERSHIP_REL_TOL",
    "DenseSymMatrix",
    "RectMatrix",
    "sym_eigenvalues",
    "singular_values",
    "GF2System",
    "GF2Solution",
    "GF2Infeasible",
    "gf2_solve",
    "spectrum_contains",
]

MEMBERSHIP_ABS_TOL = 1e-7
MEMBERSHIP_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DenseSymMatrix:
    """Immutable dense matrix with exact (bitwise) symmetry."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("expected a square 2-d array")
        if not np.array_equal(arr, arr.T):
            raise ValueError("matrix must be exactly symmetric")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def order(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "DenseSymMatrix":
        return cls(np.array(rows))


@dataclass(frozen=True, eq=False)
class RectMatrix:
    """Immutable dense rectangular matrix."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "RectMatrix":
        return cls(np.array(rows))


def _as_sym_array(a) -> np.ndarray:
    arr = np.asarray(a.values if isinstance(a, DenseSymMatrix) else a, dtype=np.float64)
    if (
        arr.ndim != 2
        or arr.shape[0] != arr.shape[1]
        or not np.isfinite(arr).all()
        or not np.array_equal(arr, arr.T)
    ):
        raise ValueError("expected a finite, exactly symmetric square matrix")
    return arr


def sym_eigenvalues(a: DenseSymMatrix | np.ndarray) -> list[float]:
    """All eigenvalues of a symmetric matrix, ascending (LAPACK ``eigvalsh``)."""
    return [float(x) for x in np.linalg.eigvalsh(_as_sym_array(a))]


def singular_values(m: RectMatrix | np.ndarray) -> list[float]:
    """min(rows, cols) singular values, ascending.

    Golub-Kahan SVD of the matrix itself (LAPACK through
    ``numpy.linalg.svd``), not square roots of Gram-matrix eigenvalues,
    which keep only about half the digits of a singular value near zero.
    """
    arr = np.asarray(m.values if isinstance(m, RectMatrix) else m, dtype=np.float64)
    if arr.ndim != 2 or not np.isfinite(arr).all():
        raise ValueError("expected a finite 2-d array")
    if min(arr.shape) == 0:
        return []
    return [float(x) for x in np.linalg.svd(arr, compute_uv=False)[::-1]]


# ---------------------------------------------------------------------------
# GF(2) linear systems as bit masks (bit j-1 <-> variable j).


@dataclass(frozen=True)
class GF2System:
    nvars: int
    rows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.nvars < 0:
            raise ValueError("nvars must be nonnegative")
        limit = 1 << self.nvars
        for i, (mask, rhs) in enumerate(self.rows):
            if not 0 <= mask < limit:
                raise ValueError(f"row {i}: mask wider than {self.nvars} variables")
            if rhs not in (0, 1):
                raise ValueError(f"row {i}: right-hand side must be 0 or 1")

    @classmethod
    def from_sets(
        cls, nvars: int, equations: Iterable[tuple[Iterable[int], int]]
    ) -> "GF2System":
        """Each equation is (variable ids summing on the left, rhs bit)."""
        rows = []
        try:
            for variables, rhs in equations:
                mask = 0
                for var in variables:
                    mask |= 1 << (var - 1)
                rows.append((mask, rhs))
        except ValueError as exc:  # a variable below 1 shifts by a negative count
            raise ValueError(f"variables must lie in 1..{nvars}") from exc
        # __post_init__ rejects the variables above nvars: their masks are too wide.
        return cls(nvars, tuple(rows))

    def evaluate(self, assignment: Sequence[int]) -> list[int]:
        """Left-hand parity of every row under the 0/1 assignment."""
        vec = 0
        for j, bit in enumerate(assignment):
            if bit:
                vec |= 1 << j
        return [(mask & vec).bit_count() & 1 for mask, _ in self.rows]


@dataclass(frozen=True)
class GF2Solution:
    nvars: int
    assignment: tuple[int, ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j + 1 for j, bit in enumerate(self.assignment) if bit)


@dataclass(frozen=True)
class GF2Infeasible:
    witness_rows: tuple[int, ...]


def _back_substitute(basis: dict[int, tuple[int, int, int]], vec: int, rhs: int) -> int:
    """Set the pivot bits of vec, highest pivot first, so that every basis
    row's parity with vec equals its right-hand side (rhs=1) or 0 (rhs=0);
    the other bits of vec stay as given."""
    for pivot in sorted(basis, reverse=True):
        mask, bit, _ = basis[pivot]
        if ((mask & vec).bit_count() ^ (bit & rhs)) & 1:
            vec |= 1 << pivot
    return vec


def gf2_solve(system: GF2System) -> GF2Solution | GF2Infeasible:
    """Gaussian elimination over GF(2) with row-combination tracking.

    Feasible systems get the canonical solution whose free variables are
    all zero (so a single equation x1+x2+x3+x4 = 1 yields x = 1000...).
    Infeasible systems get the original rows whose XOR has empty
    left-hand side but right-hand side 1.

    Once the rank reaches n - 1, a row that the basis already decides
    consistently is skipped without reduction: with z spanning the null
    space of the basis and x solving it, that is a row a with a . z = 0
    (a is in the row space) and a . x = b (it would reduce to 0 = 0).
    Skipping it changes nothing, since such a row is never inserted.
    """
    nvars = system.nvars
    basis: dict[int, tuple[int, int, int]] = {}
    saturated: tuple[int, int] | None = None  # (z, x) while the rank is >= n - 1
    for idx, (mask, rhs) in enumerate(system.rows):
        if saturated is None and len(basis) >= nvars - 1:
            free = (1 << nvars) - 1 - sum(1 << pivot for pivot in basis)
            saturated = (_back_substitute(basis, free, 0), _back_substitute(basis, 0, 1))
        if (
            saturated is not None
            and not (mask & saturated[0]).bit_count() & 1
            and (mask & saturated[1]).bit_count() & 1 == rhs
        ):
            continue
        m, r, combo = mask, rhs, 1 << idx
        while m:
            pivot = (m & -m).bit_length() - 1
            entry = basis.get(pivot)
            if entry is None:
                break
            m ^= entry[0]
            r ^= entry[1]
            combo ^= entry[2]
        if m:
            basis[(m & -m).bit_length() - 1] = (m, r, combo)
            saturated = None
        elif r:
            witness = tuple(i for i in range(idx + 1) if (combo >> i) & 1)
            return GF2Infeasible(witness)
    solution = _back_substitute(basis, 0, 1)
    return GF2Solution(nvars, tuple((solution >> j) & 1 for j in range(nvars)))


def spectrum_contains(
    spectrum: Sequence[float],
    target: float,
    abs_tol: float = MEMBERSHIP_ABS_TOL,
    rel_tol: float = MEMBERSHIP_REL_TOL,
) -> tuple[bool, float]:
    """(membership, margin): nearest spectrum point within the tolerances.

    The absolute and relative tolerances combine additively, so a value
    quoted to exactly abs_tol decimal digits still passes after the
    decimal-to-binary round trip.
    """
    if not (0 < abs_tol < np.inf and 0 < rel_tol < np.inf):  # NaN fails too
        raise ValueError("tolerances must be finite and positive")
    values = [float(x) for x in spectrum]
    if not values:
        raise EmptySpectrumError("membership test against an empty spectrum")
    margin = min(abs(x - target) for x in values)
    return margin <= abs_tol + rel_tol * abs(target), margin
