"""Numerical kernels.

Dense symmetric eigenvalues and singular values through LAPACK
(``numpy.linalg``), bitset Gaussian elimination over GF(2) with
infeasibility witnesses, and tolerance-based spectrum membership.  The
spectral functions take plain array-likes of finite real numbers, such
as the read-only int64 arrays of the spectral module's matrix builders,
and refuse anything else with InvalidValueError.

GF(2) elimination.  Both answers are fixed by the system alone, so the
eliminator may pivot in any order that reaches them exactly:

- an infeasible system's witness is its first row i whose prefix of
  rows 0..i is inconsistent, together with the unique set of greedy
  rows (those that raised the rank, in input order) whose sum with row
  i is 0 = 1;
- a feasible system's canonical solution is zero on the free columns of
  the input order, the columns that are not the lowest set bit of any
  combination of rows.  Read as a binary number (variable j at bit
  j - 1), it is the least solution, and it does not depend on the order
  of the rows.

The kernel takes a system as two flat arrays: the variables of every row
in row order, and one count per row.  The parity route cuts them from
the incidence core; gf2_solve reads them off its masks.  The first pass
keeps the rows in input order but ranks the columns in ascending order
of (occurrences among the first min(m, n) rows, total occurrences,
variable index), a deterministic O(incidences) order: two
``np.bincount`` calls count the occurrences and one stable
``np.lexsort`` ranks them.  It pivots each row on its first column in
that order.  The rarely used columns are eliminated first, so fill-in
stays low: on the structural benchmark's systems (n = 2,000, m = 4,000)
this halves the XORs.  A row is one int: one bit per basis slot at the
bottom (the rank is at most min(m, n)), then the right-hand side, then
the variables, the first in the order highest; one ``tolist`` of the
gathered column positions gives every row's variable bits.  The pivot is
then the highest set bit, which ``int.bit_length`` finds without
building another int, and one XOR moves the variables, the right-hand
side and the slots.  A basis row holds the slots of the greedy rows it
is a sum of, so a row that reduces to 0 = 1 names its witness in its
slot bits.  The greedy rows, their slots and the first inconsistent row
do not depend on the column order, so neither does the witness.

Once the rank reaches n - 1, one vector z spans the null space of the
rows seen so far (z = 0 at full rank), and a row a lies in their row
space exactly when a . z = 0; such a row would reduce to 0 = b + a . x
for any solution x of those rows.  So a row with a . z = 0 and
a . x = b is skipped, which is what its reduction would have concluded.
Connected parity systems of even uniform hypergraphs reach rank n - 1
early, since the all-ones vector lies in the kernel of their rows, and
most of their rows come after.

The canonical solution is then recovered in the input order.  At rank
n - 1 the one free column of the input order is the highest set bit of
z in that order (every other column is the lowest bit of a vector
orthogonal to z), so the canonical solution is x, or x + z when x has
that bit; at full rank it is x.  A system of fewer than n - 1 rows
never reaches that rank, and its canonical solution needs a basis in
the input order, so it is eliminated in the input order from the start
and back-substituted.  A longer system that stays below rank n - 1 is
solved again from its greedy rows alone, which are fewer than n - 1,
span the same row space and have the same solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

from .core import _check_vertex_count
from .errors import (
    DenseLimitExceededError,
    EmptySpectrumError,
    InvalidValueError,
    check_array,
    check_integer,
    check_tolerance,
)

__all__ = [
    "GF2_MAX_BASIS_BYTES",
    "MEMBERSHIP_ABS_TOL",
    "MEMBERSHIP_REL_TOL",
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

# Largest basis, in bytes, that GF(2) elimination may build: a system of m
# rows over n variables holds up to min(m, n) rows of min(m, n) + n + 1
# bits.  At n = 50,000 (m = 100,000) the bound is 625 MB and the parity
# route peaked at 675 MB, so 1 GiB matches the budget behind MAX_VERTICES.
GF2_MAX_BASIS_BYTES = 1 << 30


def _finite_array(a, ndim: int, what: str) -> np.ndarray:
    """a as a real array (errors.check_array) of ndim dimensions with finite
    entries, else InvalidValueError."""
    arr = check_array(a, what)
    if arr.ndim != ndim or not np.isfinite(arr).all():
        raise InvalidValueError(f"expected a finite real {what}")
    return arr


def sym_eigenvalues(a) -> list[float]:
    """All eigenvalues of a symmetric matrix, ascending (LAPACK ``eigvalsh``)."""
    arr = _finite_array(a, 2, "2-d array")
    if arr.shape[0] != arr.shape[1] or not np.array_equal(arr, arr.T):
        raise InvalidValueError("expected an exactly symmetric square matrix")
    return [float(x) for x in np.linalg.eigvalsh(arr)]


def singular_values(m) -> list[float]:
    """min(rows, cols) singular values, ascending.

    Golub-Kahan SVD of the matrix itself (LAPACK through
    ``numpy.linalg.svd``), not square roots of Gram-matrix eigenvalues,
    which keep only about half the digits of a singular value near zero.
    """
    arr = _finite_array(m, 2, "2-d array")
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
        """Check nvars and every row, and store them as ints."""
        nvars = _check_vertex_count(self.nvars, "nvars")
        limit, rows = 1 << nvars, []
        for i, row in enumerate(self.rows):
            try:
                mask, rhs = row
            except (TypeError, ValueError):
                raise InvalidValueError(f"row {i}: expected a (mask, rhs) pair") from None
            mask = check_integer(mask, f"row {i}: mask")
            if not 0 <= mask < limit:
                raise InvalidValueError(f"row {i}: mask wider than {nvars} variables")
            # A truth value is a bit; 1.0 is not (the kernel XORs it).
            if not isinstance(rhs, (int, np.integer, np.bool_)) or rhs not in (0, 1):
                raise InvalidValueError(f"row {i}: right-hand side must be 0 or 1")
            rows.append((mask, int(rhs)))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def from_sets(
        cls, nvars: int, equations: Iterable[tuple[Iterable[int], int]]
    ) -> "GF2System":
        """Each equation is (variable ids summing on the left, rhs bit)."""
        nvars, rows = _check_vertex_count(nvars, "nvars"), []
        for i, equation in enumerate(equations):
            try:
                variables, rhs = equation
                variables = list(variables)
            except (TypeError, ValueError):
                raise InvalidValueError(
                    f"equation {i}: expected (variables, right-hand side)"
                ) from None
            mask = 0
            for var in variables:
                var = check_integer(var, f"equation {i}: variable")
                if not 1 <= var <= nvars:
                    raise InvalidValueError(f"equation {i}: variables must lie in 1..{nvars}")
                mask |= 1 << (var - 1)
            rows.append((mask, rhs))
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


def _ones(value: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    digits, out = bin(value)[:1:-1], []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _back_substitute(basis: list[int], low: int, vec: int, rhs: int) -> int:
    """Set the pivot bits of vec, lowest pivot first, so that every basis
    row's parity with vec equals its right-hand side (rhs=1) or 0 (rhs=0);
    the other bits of vec stay as given.  basis[p] is 0 or a row whose
    highest bit is p > low, with its right-hand side at bit low and only
    bookkeeping below it; vec has no bits at or below low."""
    for pivot in range(low + 1, len(basis)):
        row = basis[pivot]
        if row and ((row & vec).bit_count() ^ (row >> low & rhs)) & 1:
            vec |= 1 << pivot
    return vec


def _saturation(basis: list[int], low: int) -> tuple[int, int]:
    """(z, x) for a basis of rank >= n - 1: z spans its null space (0 at
    full rank) and x solves it, both zero on the free column."""
    free = sum(1 << p for p in range(low + 1, len(basis)) if not basis[p])
    null = _back_substitute(basis, low, free, 0) if free else 0
    return null, _back_substitute(basis, low, 0, 1)


def _gf2_eliminate(
    nvars: int, members: np.ndarray, sizes: np.ndarray, rhs: Sequence[int]
) -> GF2Solution | GF2Infeasible:
    """Solve, for every row i, the sum of x[v] over its members = rhs[i]
    over GF(2).  members holds the variables (1..nvars, at most once in a
    row) of every row in row order and sizes the number of each row's, both
    intp arrays.  Refuses, before building anything, a system whose basis
    could pass GF2_MAX_BASIS_BYTES.  See gf2_solve."""
    n, m, lshift = nvars, sizes.size, (1).__lshift__
    # Bits 0..low-1 are basis slots (the rank is at most low), bit low is
    # the right-hand side, and the variables sit above it, the first in
    # the order highest, since a row's pivot is its highest bit.
    low = min(m, n)
    if low * (low + n + 1) > 8 * GF2_MAX_BASIS_BYTES:
        raise DenseLimitExceededError(
            f"a GF(2) basis of {low} rows of {low + n + 1} bits exceeds the limit of "
            f"{GF2_MAX_BASIS_BYTES} bytes"
        )
    if m < n - 1:
        # The rank stays below n - 1, so a feasible answer needs the input
        # order's basis anyway: eliminate in that order from the start.
        order = range(1, n + 1)
        column = np.arange(low + n + 1, low, -1)
    else:
        # Ascending (occurrences among the first min(m, n) rows, total
        # occurrences, index): the sort is stable, so the index breaks ties.
        total = np.bincount(members, minlength=n + 1)[1:]
        head = total if m <= n else np.bincount(members[: sizes[:n].sum()], minlength=n + 1)[1:]
        order = np.lexsort((total, head)) + 1
        column = np.zeros(n + 1, dtype=np.intp)
        column[order] = np.arange(low + n, low, -1)
        order = order.tolist()
    positions = iter(column[members].tolist())
    top = 1 << low
    basis = [0] * (low + n + 1)
    greedy: list[int] = []  # the input row that filled each basis slot
    saturated: tuple[int, int] | None = None  # (z, x) while the rank is >= n - 1
    for idx, (size, bit) in enumerate(zip(sizes.tolist(), rhs)):
        row = sum(map(lshift, islice(positions, size)), top if bit else 0)
        if len(greedy) >= n - 1:
            if saturated is None:
                saturated = _saturation(basis, low)
            z, x = saturated
            if not ((row & z).bit_count() | ((row & x).bit_count() ^ bit)) & 1:
                continue
        while True:
            pivot = row.bit_length() - 1
            if pivot <= low:
                if pivot == low:  # 0 = 1: the slot bits name the greedy rows it came from
                    witness = [greedy[s] for s in _ones(row ^ top)]
                    return GF2Infeasible((*witness, idx))
                break  # 0 = 0
            entry = basis[pivot]
            if not entry:
                basis[pivot] = row | 1 << len(greedy)
                greedy.append(idx)
                saturated = None
                break
            row ^= entry
    if len(greedy) >= n - 1:
        z, x = saturated or _saturation(basis, low)
    elif m >= n - 1:
        # Fewer than n - 1 greedy rows span the row space and have the
        # same solutions: solve them alone, in the input order.
        keep = np.zeros(m, dtype=bool)
        keep[greedy] = True
        return _gf2_eliminate(
            n, members[keep.repeat(sizes)], sizes[keep], [rhs[i] for i in greedy]
        )
    else:
        z, x = 0, _back_substitute(basis, low, 0, 1)
    solution = [0] * n
    for p in _ones(x):
        solution[order[low + n - p] - 1] = 1
    if z:  # in the input order the one free column is z's highest bit
        null = [order[low + n - p] - 1 for p in _ones(z)]
        if solution[max(null)]:
            for j in null:
                solution[j] ^= 1
    return GF2Solution(n, tuple(solution))


def gf2_solve(system: GF2System) -> GF2Solution | GF2Infeasible:
    """Gaussian elimination over GF(2) with infeasibility witnesses.

    Feasible systems get the canonical solution whose free variables are
    all zero (so a single equation x1+x2+x3+x4 = 1 yields x = 1000...),
    the free variables being those that are not the lowest variable of
    any combination of rows.  Infeasible systems get the first row whose
    prefix of the system is inconsistent, together with the rows that
    raised the rank before it and sum with it to 0 = 1; that set is
    unique.  Both answers are fixed by the system alone.

    The elimination pivots in a fill-reducing column order (ascending
    occurrences among the first min(m, n) rows, then total occurrences,
    then index), and each row carries one bit per basis slot, so the
    witness is read off the row that reduces to 0 = 1.  Neither answer
    depends on that order; the canonical solution is recovered in the
    input order, as the module docstring says.  The masks are first
    turned into the kernel's two arrays, every row's variables in row
    order and one count per row; the parity route cuts the same two
    arrays from the incidence core and hands them to the kernel directly.
    """
    rows = [_ones(mask) for mask, _ in system.rows]
    members = np.fromiter(chain.from_iterable(rows), dtype=np.intp) + 1
    sizes = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    return _gf2_eliminate(system.nvars, members, sizes, [rhs for _, rhs in system.rows])


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
    abs_tol, rel_tol = check_tolerance(abs_tol, "abs_tol"), check_tolerance(rel_tol, "rel_tol")
    values = _finite_array(spectrum, 1, "1-d spectrum")
    if not (isinstance(target, Real) and math.isfinite(target)):
        raise InvalidValueError("expected a finite real target")
    if not values.size:
        raise EmptySpectrumError("membership test against an empty spectrum")
    margin = float(np.abs(values - target).min())
    return margin <= abs_tol + rel_tol * abs(target), margin
