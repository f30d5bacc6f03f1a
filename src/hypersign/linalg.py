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
one each solve returns (a copy, unless the kept one had reached every
row), so every signing resumes from the furthest recent reduction.

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
the order highest.  The rows a solve reduces are built a block at a
time, in the manner of M4RI's packed rows (Albrecht, Bard & Hart, ACM
TOMS 37, 2010): one ``np.bitwise_or.at`` sets the members' bits in the
block's packed variable bytes, one ``tolist`` of those bytes as
fixed-width bytes strings drops each row's zero top bytes, and
``int.from_bytes`` and a shift past the slots make each row's int.  A
block is as many rows as must be reduced before the rank can reach
n - 1, at least _GF2_PASS_ROWS and at most _GF2_BLOCK_BYTES of packed
bytes; fewer rows are summed from their bits, which costs less than the
array calls.  The pivot is the highest set bit, and the
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
the pass.

A row reduced one at a time is checked against the signing as it is
reduced, and the solve stops at the first 0 = 1.  When every row was
checked so (a fresh reduction that made no pass), that answer stands.
Otherwise some rows were not checked against this signing: the rows a
resumed reduction had reached, or the rows after the rank-(n - 1) step.
Then a pass against a solution x of every greedy row decides the rows up
to the first 0 = 1 (or all of them): a row spanned by earlier greedy
rows meets x with the parity of their right-hand sides, so the first row
with a . x != b is the first inconsistent one, and only it is reduced
again, for its witness.  At the rank-(n - 1) step this is the same pass
as the one against z: one sweep of back-substitution gives x and z, one
array pass gives every row's parity with both, and when a row raises
the rank, x becomes x + z if it misses that row (a . z = 1 flips a . x),
which leaves the rows before it as they were.

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
from itertools import chain, compress, count, islice, repeat
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
        return tuple(compress(count(1), self.assignment))


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


def _back_substitute(basis: list[int], low: int, x: int, z: int) -> tuple[int, int]:
    """Set the pivot bits of x and of z, lowest pivot first, so that every
    basis row meets each of them evenly: the row's slot bits meet the bits
    below low (a right-hand side per slot, 0 in z), and its variable bits
    meet the rest.  The other bits stay as given.  One sweep serves both."""
    for length in range(low + 1, len(basis)):
        row = basis[length]
        if row:
            if (row & x).bit_count() & 1:
                x |= 1 << length - 1
            if (row & z).bit_count() & 1:
                z |= 1 << length - 1
    return x, z


# Rows left at rank n - 1 below which reducing them one at a time costs less
# than deciding them with an array pass: on systems of at most six variables
# a pass took about 20 us, a row about 1 us.  Rows reduced one at a time are
# also built at least this many at once.
_GF2_PASS_ROWS = 16

# Most bytes that one block of rows built at once may take: rows of w bytes
# are built at most _GF2_BLOCK_BYTES // w (and at least one) at a time.
_GF2_BLOCK_BYTES = 1 << 18


class _GF2Reduction:
    """The left-hand side of a GF(2) system, reduced up to row ``reached``.

    Built from nvars and the flat arrays: members holds the variables
    (0..nvars-1, at most once in a row) of every row in row order and sizes
    the number of each row's.  Bits 0..low-1 of a row are basis slots (the
    rank is at most low = min(m, n)); the variables sit above them, the
    first in the column order highest: variable j at bit low + column[j],
    and ``positions`` holds column[j] of every member j.  The variable
    bits take ``width`` bytes.  basis[length] is 0 or the row whose highest
    bit is length - 1; the entries at and below low stay 0, so a row
    reduced to its slot bits stops the loop too.  greedy lists the rows
    that raised the rank, in input order, one per slot; every row below
    ``reached`` is one of them or a sum of earlier ones.  null is None
    until every row is reached at rank n - 1 or more, and then spans the
    null space (0 at full rank).  No right-hand side goes into the rows, so
    one reduction serves every signing.  solve extends a copy; a reduction
    that has reached every row is only read, save that the first solve to
    need its null vector keeps it.
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
        column[order] = np.arange(n - 1, -1, -1)
        self.nvars, self.low, self.members, self.sizes = n, low, members, sizes
        self.ends, self.column, self.positions = sizes.cumsum(), column, column[members]
        self.width = (n + 7) // 8
        self.basis, self.greedy, self.reached, self.null = [0] * (low + n + 1), [], 0, None

    def _copy(self) -> "_GF2Reduction":
        """A copy to extend: the basis list is new, its rows are shared."""
        copy = object.__new__(_GF2Reduction)
        copy.__dict__.update(vars(self), basis=self.basis.copy(), greedy=self.greedy.copy())
        return copy

    def _built(self, start: int, stop: int) -> list[int]:
        """Rows start..stop-1 as ints, their variable bits set and their slot
        bits 0.  From _GF2_PASS_ROWS rows on, one array pass sets each
        member's bit in the rows' packed variable bits (little-endian,
        ``width`` bytes a row); a row's bytes, read as a bytes string, lose
        their trailing zero bytes, the top of the row, so each int is read
        from its own bytes up to its highest bit and then shifted past the
        slots.  Fewer rows would not repay the array calls, so each is
        summed from its bits instead."""
        begin = self.ends[start - 1] if start else 0
        end = self.ends[stop - 1] if stop else 0
        bits, sizes = self.positions[begin:end], self.sizes[start:stop]
        width, low = self.width, self.low
        if stop - start < _GF2_PASS_ROWS or not width:
            members, lshift = iter(bits.tolist()), (1 << low).__lshift__
            return [sum(map(lshift, islice(members, size))) for size in sizes.tolist()]
        at = np.repeat(np.arange(0, (stop - start) * width, width), sizes)
        at += bits >> 3
        packed = np.zeros((stop - start) * width, dtype=np.uint8)
        np.bitwise_or.at(packed, at, np.left_shift(1, (bits & 7).astype(np.uint8)))
        rows = map(int.from_bytes, packed.view(f"S{width}").tolist(), repeat("little"))
        return list(map(low.__rlshift__, rows))

    def _row(self, i: int) -> int:
        """Row i reduced by the basis: its slot bits alone if the rows before
        it span it, and they name the greedy rows it is the sum of."""
        (row,), basis = self._built(i, i + 1), self.basis
        while entry := basis[row.bit_length()]:
            row ^= entry
        return row

    def _witness(self, i: int) -> GF2Infeasible:
        """Row i, which contradicts the rows before it, with the greedy rows
        it is the sum of."""
        return GF2Infeasible((*(self.greedy[s] for s in _ones(self._row(i))), i))

    def _slots(self, rhs: np.ndarray) -> int:
        """The right-hand side of greedy row s at bit s."""
        greedy = self.greedy
        if not greedy:
            return 0
        picked = rhs[np.fromiter(greedy, dtype=np.intp, count=len(greedy))]
        return int.from_bytes(np.packbits(picked, bitorder="little").tobytes(), "little")

    def _free(self) -> int:
        """At rank n - 1, the bit of the one free column, from which
        back-substitution completes the null vector; 0 at rank n."""
        free = self.basis[self.low + 1 :]
        return 0 if all(free) else 1 << self.low + free.index(0)

    def _bits(self, vec: int) -> np.ndarray:
        """The variable bits of vec, one uint8 per column (see positions)."""
        raw = np.frombuffer((vec >> self.low).to_bytes(self.width, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")

    def _parities(self, x: int, z: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Each of rows 0..stop-1's parity with x and with z, as two uint8
        arrays; a row with no variables has parity 0.  One array pass: the
        bits of x and z go into bits 0 and 1 of one code per position, and
        prefix XORs of the members' codes give every row's two parities."""
        codes = self._bits(x)
        if z:
            codes |= self._bits(z) << 1
        end = self.ends[stop - 1] if stop else 0
        prefix = np.zeros(end + 1, dtype=np.uint8)
        np.bitwise_xor.accumulate(codes[self.positions[:end]], out=prefix[1:])
        ends = self.ends[:stop]
        both = prefix[ends] ^ prefix[ends - self.sizes[:stop]]
        return both & 1, both >> 1

    def _extend(self, rhs: np.ndarray, slots: int) -> tuple[GF2Infeasible | None, int]:
        """Reduce rows from ``reached`` on, in place, each checked against
        rhs as it is reduced, and stop at the first that reduces to 0 = 1,
        or once the rank is n - 1 with _GF2_PASS_ROWS rows or more left:
        solve's pass decides those.  ``reached`` is then the first row not
        reduced.  The rows are built a block at a time (_built): as many as
        must be reduced before the rank can reach n - 1, and at least
        _GF2_PASS_ROWS, within _GF2_BLOCK_BYTES.  Returns the witness of the
        row that reduced to 0 = 1 (or None), and slots (see _slots) with the
        new greedy rows' right-hand sides."""
        n, m, low, basis, greedy = self.nvars, self.sizes.size, self.low, self.basis, self.greedy
        block, idx = max(1, _GF2_BLOCK_BYTES // max(self.width, 1)), self.reached
        while idx < m and (len(greedy) < n - 1 or m - idx < _GF2_PASS_ROWS):
            stop = min(m, idx + min(max(n - 1 - len(greedy), _GF2_PASS_ROWS), block))
            rows, bits = self._built(idx, stop), rhs[idx:stop].tolist()
            for idx, row, bit in zip(range(idx, stop), rows, bits):
                while entry := basis[row.bit_length()]:
                    row ^= entry
                length = row.bit_length()
                if length > low:
                    basis[length] = row | 1 << len(greedy)
                    slots |= bit << len(greedy)
                    greedy.append(idx)
                    if len(greedy) >= n - 1 and m - idx > _GF2_PASS_ROWS:
                        break
                elif ((row & slots).bit_count() ^ bit) & 1:
                    self.reached = idx + 1
                    return GF2Infeasible((*(greedy[s] for s in _ones(row)), idx)), slots
            idx += 1
        self.reached = idx
        return None, slots

    def solve(self, rhs: np.ndarray) -> tuple[GF2Solution | GF2Infeasible, "_GF2Reduction"]:
        """The system with right-hand sides rhs (one bool per row), and the
        reduction extended as far as this solve reduced it: a copy, unless
        this one had reached every row.

        _extend resumes the reduction at ``reached``.  When every row it had
        reached was greedy and _extend checked every row after them, its
        answer stands.  Otherwise one pass against x, a solution of every
        greedy row, decides the rows up to _extend's 0 = 1 (or all of them):
        a row spanned by earlier greedy rows meets x with the parity of
        their right-hand sides, so the first row with a . x != b is the first
        inconsistent one.  When _extend stopped at rank n - 1, the same pass
        meets every row with the null vector z too: the first row with
        a . z = 1, if any, is the only one that raises the rank.  It is
        reduced and added, x becomes x + z if it does not solve that row
        (a . z = 1 flips a . x), and every row counts as reached.
        """
        n, m = self.nvars, self.sizes.size
        state = self._copy() if self.reached < m else self
        found, slots = state._extend(rhs, self._slots(rhs))
        passing = found is None and state.reached < m
        if found is not None and self.reached == len(self.greedy):
            return found, state
        z = state.null
        if z is None and found is None and len(state.greedy) >= n - 1:
            z = state._free()
        x, z = _back_substitute(state.basis, state.low, slots, z or 0)
        if passing or self.reached > len(self.greedy):
            stop = found.witness_rows[-1] if found else m
            ax, az = state._parities(x, z if passing else 0, stop)
            if passing:
                raising = np.flatnonzero(az)
                if raising.size:
                    lift, greedy = int(raising[0]), state.greedy
                    row = state._row(lift)
                    state.basis[row.bit_length()] = row | 1 << len(greedy)
                    greedy.append(lift)
                    if ax[lift] != rhs[lift]:
                        x ^= z
                        ax ^= az
                    z = 0
                state.reached, state.null = m, z
            bad = np.flatnonzero(ax != rhs[:stop])
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
            _, sub_slots = sub._extend(rhs[keep], 0)  # independent rows: never 0 = 1
            return sub._canonical(_back_substitute(sub.basis, sub.low, sub_slots, 0)[0], 0), state
        if state.null is None and len(state.greedy) >= n - 1:
            state.null = z
        return state._canonical(x, state.null or 0), state

    def _canonical(self, x: int, z: int) -> GF2Solution:
        """The solution zero on the free columns of the input order, from a
        solution x and the null vector z (0 at full rank, and below rank
        n - 1, where the column order is the input order).  At rank n - 1
        the one free column of the input order is the last variable of z,
        and one of x and x + z is zero there."""
        solution = self._bits(x)[self.column]
        if z:
            null = self._bits(z)[self.column]
            if solution[np.flatnonzero(null)[-1]]:
                solution ^= null
        return GF2Solution(self.nvars, tuple(solution.tolist()))


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
