"""Numerical kernels.

Dense symmetric eigenvalues and singular values through LAPACK
(``numpy.linalg``), bitset Gaussian elimination over GF(2) with
infeasibility witnesses, and tolerance-based spectrum membership.  The
public spectral functions take outside input: plain array-likes of
finite real numbers, such as the read-only int64 arrays of the spectral
module's matrix builders, and refuse anything else with
InvalidValueError.

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

The work is split in two.  A reduction (_GF2Reduction) reduces a
system's left-hand side alone, and a solve reads one right-hand side (a
signing) against it.  Every signing of one left-hand side meets the same
greedy rows, so a reduction that one solve has carried to some row
serves the next signing up to that row.  The parity route keeps the
reduction of a structure's full edge system and replaces it with the
copy each solve returns, so every signing resumes from the furthest
recent reduction.

The reduction takes a system as two flat arrays: the variables of every
row in row order, and one count per row.  The parity route cuts them
from the incidence core; gf2_solve reads them off its masks.  It keeps
the rows in input order but ranks the columns in ascending order of
(occurrences among the first min(m, n) rows, total occurrences,
variable index), a deterministic O(incidences) order: two
``np.bincount`` calls count the occurrences and one stable
``np.lexsort`` ranks them.  It pivots each row on its first column in
that order.  The rarely used columns are eliminated first, so fill-in
stays low: on the structural benchmark's systems (n = 2,000, m = 4,000)
this halves the XORs.  A row is one int: one bit per basis slot at the
bottom (the rank is at most min(m, n)), then the variables, the first in
the order highest; one ``tolist`` of the gathered column positions gives
every row's variable bits.  The pivot is the highest set bit, and the
basis is indexed by ``int.bit_length``, with zeros at and below the slot
bits, so the inner loop is ``while entry := basis[row.bit_length()]:
row ^= entry``, and one XOR moves the variables and the slots.  A basis
row holds the slots of the greedy rows it is a sum of, so a row that
reduces to its slot bits alone names the greedy rows it is the sum of.
Under a signing, those rows' right-hand sides, one bit per slot, decide
at once whether it reduces to 0 = 0 or to 0 = 1, and in the second case
the slots are the witness.  The greedy rows, their slots and the first
inconsistent row do not depend on the column order, so neither does the
witness.

Once the rank reaches n - 1, one vector z spans the null space of the
rows seen so far (z = 0 at full rank), and a later row lies in their row
space exactly when a . z = 0.  So the reduction stops reducing rows
there: one array pass against z finds the first later row with
a . z = 1, the only one that raises the rank, and only that row is
reduced, whatever the right-hand side.  Every row then counts as
reached.  Connected parity systems of even uniform hypergraphs reach
rank n - 1 early, since the all-ones vector lies in the kernel of their
rows, and most of their rows come after.  When fewer than _GF2_PASS_ROWS
rows are left, they are reduced one at a time, which costs less than
the passes.

A row reduced one at a time is checked against the signing as it is
reduced, and the solve stops at the first 0 = 1.  When every row was
checked so (a fresh reduction that made no pass), that answer stands.
Otherwise some rows were not checked against this signing: the rows a
resumed reduction had reached, or the rows after the pass.  Then one
pass against a solution x of every greedy row, the one that raised the
rank included, decides the rows up to the first 0 = 1 (or all of them):
a row spanned by earlier greedy rows meets x with the parity of their
right-hand sides, so the first row with a . x != b is the first
inconsistent one, and only it is reduced again, for its witness.

The canonical solution is then recovered in the input order.  At rank
n - 1 the one free column of the input order is the highest set bit of
z in that order (every other column is the lowest bit of a vector
orthogonal to z), so the canonical solution is x, or x + z when x has
that bit; at full rank it is x.  A system of fewer than n - 1 rows
never reaches that rank, and its canonical solution needs a basis in
the input order, so it is reduced in the input order from the start
and back-substituted.  A longer system that stays below rank n - 1 is
solved again from its greedy rows alone, which are fewer than n - 1,
span the same row space and have the same solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

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
    """All eigenvalues of a symmetric matrix, ascending (LAPACK ``eigvalsh``).

    The matrix is outside input, so it is checked first: finite, real,
    square and exactly symmetric.  spectral_balance_tests skips the check
    on the matrices it builds and calls ``eigvalsh`` itself."""
    arr = _finite_array(a, 2, "2-d array")
    if arr.shape[0] != arr.shape[1] or not np.array_equal(arr, arr.T):
        raise InvalidValueError("expected an exactly symmetric square matrix")
    return [float(x) for x in np.linalg.eigvalsh(arr)]


def singular_values(m) -> list[float]:
    """min(rows, cols) singular values, ascending.

    Golub-Kahan SVD of the matrix itself (LAPACK through
    ``numpy.linalg.svd``), not square roots of Gram-matrix eigenvalues,
    which keep only about half the digits of a singular value near zero.
    The matrix is outside input, so it is checked first (finite, real,
    2-d); spectral_balance_tests skips the check on the incidence
    matrices it builds and calls ``svd`` itself.
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


def _back_substitute(basis: list[int], low: int, vec: int) -> int:
    """Set the pivot bits of vec, lowest pivot first, so that every basis
    row meets vec evenly: the row's slot bits meet vec's bits below low (a
    right-hand side per slot), and its variable bits meet the rest.  The
    other bits of vec stay as given."""
    for length in range(low + 1, len(basis)):
        row = basis[length]
        if row and (row & vec).bit_count() & 1:
            vec |= 1 << length - 1
    return vec


# Rows left at rank n - 1 below which reducing them one at a time costs less
# than deciding them with the two array passes: on systems of at most six
# variables the passes took about 20 us, a row about 1 us.
_GF2_PASS_ROWS = 16


class _GF2Reduction:
    """The left-hand side of a GF(2) system, reduced up to row ``reached``.

    Built from nvars and the flat arrays: members holds the variables
    (0..nvars-1, at most once in a row) of every row in row order and sizes
    the number of each row's.  Bits 0..low-1 of a row are basis slots (the
    rank is at most low = min(m, n)); the variables sit above them, the
    first in the column order highest, and ``positions`` holds the bit of
    every member.  basis[length] is 0 or the row whose highest bit is
    length - 1; the entries at and below low stay 0, so a row reduced to
    its slot bits stops the loop too.  greedy lists the rows that raised
    the rank, in input order, one per slot; every row below ``reached`` is
    one of them or a sum of earlier ones.  null is None until every row is
    reached at rank n - 1 or more, and then spans the null space (0 at
    full rank).  No right-hand side goes into the rows, so one reduction
    serves every signing; solve never changes the reduction it is called
    on.
    """

    def __init__(self, nvars: int, members: np.ndarray, sizes: np.ndarray) -> None:
        """Refuses, before building anything, a system whose basis could pass
        GF2_MAX_BASIS_BYTES."""
        n, m = nvars, sizes.size
        low = min(m, n)
        if low * (low + n + 1) > 8 * GF2_MAX_BASIS_BYTES:
            raise DenseLimitExceededError(
                f"a GF(2) basis of {low} rows of {low + n + 1} bits exceeds the limit of "
                f"{GF2_MAX_BASIS_BYTES} bytes"
            )
        if m < n - 1:
            # The rank stays below n - 1, so a feasible answer needs the input
            # order's basis anyway: reduce in that order from the start.
            order = np.arange(n)
        else:
            # Ascending (occurrences among the first min(m, n) rows, total
            # occurrences, index): the sort is stable, so the index breaks ties.
            total = np.bincount(members, minlength=n)
            head = total if m <= n else np.bincount(members[: sizes[:n].sum()], minlength=n)
            order = np.lexsort((total, head))
        column = np.empty(n, dtype=np.intp)
        column[order] = np.arange(low + n - 1, low - 1, -1)
        self.nvars, self.low, self.members, self.sizes = n, low, members, sizes
        self.ends, self.positions, self.order = sizes.cumsum(), column[members], order.tolist()
        self.basis, self.greedy, self.reached, self.null = [0] * (low + n + 1), [], 0, None

    def _copy(self) -> "_GF2Reduction":
        """A copy to extend: the basis list is new, its rows are shared."""
        copy = object.__new__(_GF2Reduction)
        copy.__dict__.update(vars(self), basis=self.basis.copy(), greedy=self.greedy.copy())
        return copy

    def _rows(self, start: int) -> tuple[Iterator[int], list[int]]:
        """The bit positions of rows start.. in one iterator, and their sizes."""
        begin = self.ends[start - 1] if start else 0
        return iter(self.positions[begin:].tolist()), self.sizes[start:].tolist()

    def _row(self, i: int) -> int:
        """Row i reduced by the basis: its slot bits alone if the rows before
        it span it, and they name the greedy rows it is the sum of."""
        positions, (size, *_) = self._rows(i)
        row = sum(map((1).__lshift__, islice(positions, size)))
        basis = self.basis
        while entry := basis[row.bit_length()]:
            row ^= entry
        return row

    def _witness(self, i: int) -> GF2Infeasible:
        """Row i, which contradicts the rows before it, with the greedy rows
        it is the sum of."""
        return GF2Infeasible((*(self.greedy[s] for s in _ones(self._row(i))), i))

    def _slots(self, rhs: np.ndarray) -> int:
        """The right-hand side of greedy row s at bit s."""
        if not self.greedy:
            return 0
        packed = np.packbits(rhs[self.greedy], bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def _null(self) -> int:
        """The vector spanning the null space at rank n - 1 (0 at rank n):
        the one free column, completed by back-substitution."""
        free = self.basis[self.low + 1 :]
        if all(free):
            return 0
        return _back_substitute(self.basis, self.low, 1 << self.low + free.index(0))

    def _parities(self, vec: int, start: int, stop: int) -> np.ndarray:
        """Each row's parity with vec, for rows start..stop-1, as bools; a
        row with no variables has parity 0.  One array pass."""
        raw = vec.to_bytes((self.low + self.nvars + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        begin = self.ends[start - 1] if start else 0
        ends = self.ends[start:stop] - begin
        hits = np.zeros(ends[-1] + 1, dtype=np.intp)
        np.cumsum(bits[self.positions[begin : begin + ends[-1]]], out=hits[1:])
        return ((hits[ends] - hits[ends - self.sizes[start:stop]]) & 1).astype(bool)

    def _extend(self, rhs: np.ndarray, slots: int) -> tuple[GF2Infeasible | None, int, int]:
        """Reduce rows from ``reached`` on, in place, each checked against
        rhs as it is reduced, and stop at the first that reduces to 0 = 1.
        Once the rank is n - 1 with _GF2_PASS_ROWS rows or more left, one
        pass against the null vector finds the one later row that raises
        the rank, if any; only that row is reduced and added, every row
        counts as reached, and the rows from the pass on are left
        unchecked, whatever rhs is.  Returns the witness of the row that
        reduced to 0 = 1 (or None), the first row left unchecked (or m), and
        slots (see _slots) with the new greedy rows' right-hand sides."""
        n, m, low, basis, greedy = self.nvars, self.sizes.size, self.low, self.basis, self.greedy
        start = self.reached
        positions, sizes = self._rows(start)
        lshift = (1).__lshift__
        for idx, size, bit in zip(range(start, m), sizes, rhs[start:].tolist()):
            if len(greedy) >= n - 1 and m - idx >= _GF2_PASS_ROWS:
                self.reached, self.null = m, self._null()
                raising = np.flatnonzero(self._parities(self.null, idx, m))
                if raising.size:
                    lift = idx + int(raising[0])
                    row = self._row(lift)
                    basis[row.bit_length()] = row | 1 << len(greedy)
                    slots |= int(rhs[lift]) << len(greedy)
                    greedy.append(lift)
                    self.null = 0
                return None, idx, slots
            row = sum(map(lshift, islice(positions, size)))
            while entry := basis[row.bit_length()]:
                row ^= entry
            length = row.bit_length()
            if length > low:
                basis[length] = row | 1 << len(greedy)
                slots |= bit << len(greedy)
                greedy.append(idx)
            elif ((row & slots).bit_count() ^ bit) & 1:
                self.reached = idx + 1
                return GF2Infeasible((*(greedy[s] for s in _ones(row)), idx)), m, slots
        self.reached = m
        return None, m, slots

    def solve(self, rhs: np.ndarray) -> tuple[GF2Solution | GF2Infeasible, "_GF2Reduction"]:
        """The system with right-hand sides rhs (one bool per row), and a
        copy of the reduction extended as far as this solve reduced it.

        _extend resumes the reduction at ``reached`` on the copy.  When
        every row it had reached was greedy and _extend checked every row
        after them, its answer stands.  Otherwise one pass against x, a
        solution of every greedy row, decides the rows up to _extend's
        0 = 1 (or all of them): a row spanned by earlier greedy rows meets x
        with the parity of their right-hand sides, so the first row with
        a . x != b is the first inconsistent one.
        """
        n, m = self.nvars, self.sizes.size
        state = self._copy()
        found, unchecked, slots = state._extend(rhs, self._slots(rhs))
        checked = self.reached == len(self.greedy) and unchecked == m
        if found is not None and checked:
            return found, state
        x = _back_substitute(state.basis, state.low, slots)
        if not checked:
            stop = found.witness_rows[-1] if found else m
            bad = np.flatnonzero(state._parities(x, 0, stop) != rhs[:stop])
            if bad.size:
                return state._witness(int(bad[0])), state
            if found is not None:
                return found, state
        if len(state.greedy) < n - 1 <= m:
            # Fewer than n - 1 greedy rows span the row space and have the
            # same solutions: solve them alone, in the input order.
            keep = np.zeros(m, dtype=bool)
            keep[state.greedy] = True
            sub = _GF2Reduction(n, self.members[keep.repeat(self.sizes)], self.sizes[keep])
            _, _, sub_slots = sub._extend(rhs[keep], 0)  # independent rows: never 0 = 1
            return sub._canonical(_back_substitute(sub.basis, sub.low, sub_slots), 0), state
        if len(state.greedy) >= n - 1 and state.null is None:
            state.null = state._null()
        return state._canonical(x, state.null or 0), state

    def _canonical(self, x: int, z: int) -> GF2Solution:
        """The solution zero on the free columns of the input order, from a
        solution x and the null vector z (0 at full rank, and below rank
        n - 1, where the column order is the input order).  At rank n - 1
        the one free column of the input order is the last variable of z,
        and one of x and x + z is zero there."""
        n, low, order = self.nvars, self.low, self.order
        solution = [0] * n
        for p in _ones(x >> low):
            solution[order[n - 1 - p]] = 1
        if z:
            null = [order[n - 1 - p] for p in _ones(z >> low)]
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

    The masks are turned into the two flat arrays of a reduction (every
    row's variables in row order and one count per row), which is solved
    once and then dropped; the parity route cuts the same arrays from the
    incidence core.  See the module docstring.
    """
    rows = [_ones(mask) for mask, _ in system.rows]
    members = np.fromiter(chain.from_iterable(rows), dtype=np.intp)
    sizes = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    rhs = np.array([rhs for _, rhs in system.rows], dtype=bool)
    return _GF2Reduction(system.nvars, members, sizes).solve(rhs)[0]


def spectrum_contains(
    spectrum: Sequence[float], target: float, abs_tol: float = MEMBERSHIP_ABS_TOL
) -> tuple[bool, float]:
    """(membership, margin): nearest spectrum point within the tolerances.

    abs_tol and the relative tolerance MEMBERSHIP_REL_TOL combine
    additively, so a value quoted to exactly abs_tol decimal digits still
    passes after the decimal-to-binary round trip.  The target is checked
    like the spectrum, as a finite real 0-d array (a bool reads as 0 or 1).
    The rule itself is _membership, which spectral_balance_tests applies
    to the spectra it computes, so it has one definition.
    """
    abs_tol = check_tolerance(abs_tol, "abs_tol")
    values = _finite_array(spectrum, 1, "1-d spectrum")
    target = float(_finite_array(target, 0, "0-d target"))
    if not values.size:
        raise EmptySpectrumError("membership test against an empty spectrum")
    return _membership(values, target, abs_tol)


def _membership(values: np.ndarray, target: float, abs_tol: float) -> tuple[bool, float]:
    """The membership rule on checked input: a nonempty float64 array, a
    finite float and a checked tolerance."""
    margin = float(np.abs(values - target).min())
    return margin <= abs_tol + MEMBERSHIP_REL_TOL * abs(target), margin
