"""Incidence, adjacency and Laplacian matrices and spectral balance tests.

The incidence matrix holds the orientation at each (edge, vertex) pair;
the adjacency matrix sums orientation products over shared edges with a
zero diagonal; the Laplacian adds the degrees and equals MᵀM in exact
integers.  The builders return each as a read-only int64 array.  For a
connected instance, balance is equivalent to each of three spectral
memberships: the largest singular value of the all-positive incidence
matrix appearing among the singular values, and the spectral radii of
the all-positive Laplacian/adjacency appearing among the eigenvalues.
Membership is a tolerance test: within abs_tol (MEMBERSHIP_ABS_TOL by
default) plus the constant MEMBERSHIP_REL_TOL times the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OrientedHypergraph, SignedHypergraph, uniform_edge_size
from .errors import (
    DenseLimitExceededError,
    NotConnectedError,
    NotUniformError,
    check_tolerance,
)
from .linalg import (
    MEMBERSHIP_ABS_TOL,
    MEMBERSHIP_REL_TOL,
    singular_values,
    spectrum_contains,
    sym_eigenvalues,
)
from .walks import is_connected

__all__ = [
    "DENSE_MAX_CELLS",
    "M_CRITERION",
    "L_CRITERION",
    "A_CRITERION",
    "incidence_matrix",
    "adjacency_matrix",
    "laplacian_matrix",
    "signed_adjacency_matrix",
    "SpectralReport",
    "SpectralTestSuite",
    "spectral_balance_tests",
]

M_CRITERION = "incidence-singular-value"
L_CRITERION = "laplacian-eigenvalue"
A_CRITERION = "adjacency-eigenvalue"

# Largest dense matrix, in cells, that this layer builds: 2^23 int64 cells
# are 64 MiB.  The spectral tests hold M, |M|, L, L+ and float64 copies at
# once; at a quarter of the limit (n=1000, m=2000) they peaked 82 MB above
# the interpreter's baseline.
DENSE_MAX_CELLS = 1 << 23


def _check_dense_size(rows: int, cols: int) -> None:
    if rows * cols > DENSE_MAX_CELLS:
        raise DenseLimitExceededError(
            f"a dense {rows} x {cols} matrix exceeds the limit of "
            f"{DENSE_MAX_CELLS} cells"
        )


def _incidence_array(g: OrientedHypergraph) -> np.ndarray:
    """M as an int64 array; refuses input whose M or n x n Gram matrix
    would exceed DENSE_MAX_CELLS, before allocating either."""
    _check_dense_size(g.m, g.n)
    _check_dense_size(g.n, g.n)
    arr = np.zeros((g.m, g.n), dtype=np.int64)
    edges, vertices = g.incidence_core.edge_major()
    arr[edges, vertices] = g.incidence_core.signs
    return arr


def _gram(arr: np.ndarray) -> np.ndarray:
    """MᵀM in int64.

    The product runs in float64 so that it goes through BLAS; numpy's
    integer matmul has no BLAS path and is two orders of magnitude slower
    at n=1000.  Every entry is a sum of at most m terms in {-1, 0, 1}, so
    the float64 result is exact.
    """
    flt = arr.astype(np.float64)
    return (flt.T @ flt).astype(np.int64)


def _zero_diagonal(lap: np.ndarray) -> np.ndarray:
    return lap - np.diag(np.diag(lap))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def incidence_matrix(g: OrientedHypergraph) -> np.ndarray:
    """m x n integer matrix of orientations, one row per edge."""
    return _read_only(_incidence_array(g))


def adjacency_matrix(g: OrientedHypergraph) -> np.ndarray:
    """Zero-diagonal symmetric matrix of summed orientation products."""
    return _read_only(_zero_diagonal(_gram(_incidence_array(g))))


def laplacian_matrix(g: OrientedHypergraph) -> np.ndarray:
    """Degrees on the diagonal plus the adjacency matrix (equals MᵀM)."""
    return _read_only(_gram(_incidence_array(g)))


def signed_adjacency_matrix(h: SignedHypergraph) -> np.ndarray:
    """Adjacency matrix of a 2-uniform signed hypergraph (entries = signs)."""
    _check_dense_size(h.n, h.n)
    if h.m and uniform_edge_size(h) != 2:
        raise NotUniformError("signed adjacency matrix needs 2-uniform input")
    u, v = h.incidence_core.edge_major()[1].reshape(h.m, 2).T
    arr = np.zeros((h.n, h.n), dtype=np.int64)
    np.add.at(arr, (np.concatenate((u, v)), np.concatenate((v, u))), np.tile(h.gamma, 2))
    return _read_only(arr)


@dataclass(frozen=True)
class SpectralReport:
    """One membership test: is the all-positive benchmark value present?"""

    criterion: str
    target: float
    spectrum: tuple[float, ...]
    decision: bool
    margin: float
    abs_tol: float
    rel_tol: float

    def classify(self, structural_balanced: bool) -> str:
        """agree / indeterminate / contradiction versus the structural verdict.

        The structural verdict is ground truth; a mismatch whose margin
        sits within 10x the effective tolerance is only "indeterminate"
        because membership is a tolerance-based decision.
        """
        if self.decision == structural_balanced:
            return "agree"
        threshold = 10.0 * (self.abs_tol + self.rel_tol * abs(self.target))
        if self.margin < threshold:
            return "indeterminate"
        return "contradiction"


@dataclass(frozen=True)
class SpectralTestSuite:
    incidence_report: SpectralReport
    laplacian_report: SpectralReport
    adjacency_report: SpectralReport

    @property
    def reports(self) -> tuple[SpectralReport, SpectralReport, SpectralReport]:
        return (self.incidence_report, self.laplacian_report, self.adjacency_report)

    @property
    def decisions(self) -> tuple[bool, bool, bool]:
        return tuple(r.decision for r in self.reports)

    @property
    def agree(self) -> bool:
        return len(set(self.decisions)) == 1

    def classify(self, structural_balanced: bool) -> tuple[str, str, str]:
        return tuple(r.classify(structural_balanced) for r in self.reports)


def spectral_balance_tests(
    g: OrientedHypergraph, abs_tol: float = MEMBERSHIP_ABS_TOL
) -> SpectralTestSuite:
    """Run the three spectral balance criteria on a connected instance.

    Membership takes abs_tol plus MEMBERSHIP_REL_TOL times the target.
    Edgeless (hence single-vertex) instances have no singular values to
    test, so the incidence criterion degenerates to a trivially positive
    report with zero margin.  The tolerance is checked first, whether or
    not a criterion reads it.
    """
    abs_tol = check_tolerance(abs_tol, "abs_tol")
    if not is_connected(g):
        raise NotConnectedError(
            "the spectral characterization assumes a connected instance"
        )

    def report(criterion: str, spectrum: list[float], target: float) -> SpectralReport:
        decision, margin = spectrum_contains(spectrum, target, abs_tol)
        return SpectralReport(
            criterion, target, tuple(spectrum), decision, margin, abs_tol, MEMBERSHIP_REL_TOL
        )

    def trivial(criterion: str) -> SpectralReport:
        return SpectralReport(criterion, 0.0, (), True, 0.0, abs_tol, MEMBERSHIP_REL_TOL)

    # One incidence build: the all-positive variant's incidence matrix is
    # |M|, and the Laplacian and adjacency matrices follow from each.
    inc = _incidence_array(g)
    inc_plus = np.abs(inc)
    if g.m == 0:
        incidence_report = trivial(M_CRITERION)
    else:
        spectrum = singular_values(inc)
        target = max(singular_values(inc_plus))
        incidence_report = report(M_CRITERION, spectrum, target)

    if g.n == 0:
        laplacian_report = trivial(L_CRITERION)
        adjacency_report = trivial(A_CRITERION)
    else:
        lap = _gram(inc)
        lap_plus = _gram(inc_plus)
        spectrum = sym_eigenvalues(lap)
        target = max(sym_eigenvalues(lap_plus))
        laplacian_report = report(L_CRITERION, spectrum, target)

        spectrum = sym_eigenvalues(_zero_diagonal(lap))
        target = max(sym_eigenvalues(_zero_diagonal(lap_plus)))
        adjacency_report = report(A_CRITERION, spectrum, target)

    return SpectralTestSuite(incidence_report, laplacian_report, adjacency_report)
