"""Adjacency/Laplacian tensors of k-uniform signed hypergraphs.

The order-k adjacency tensor places sign(e)/(k-1)! on every permutation
of each edge; contracting against x therefore reduces to one product per
edge and vertex, which is how everything here is computed — the tensor
is never materialized.  The Laplacian adds the degrees on the diagonal.

For even k and a connected instance, the negated structural spectral
radius is an H-eigenvalue exactly when a parity system over the vertices
is solvable: positive edges must meet the switched set an odd number of
times, negative edges an even number.  The same parity solution makes
the Laplacian contraction vanish in exact integer arithmetic, and powers
the diagonal-similarity tests, so one GF(2) solve feeds five of the six
equivalent statements checked by theorem_battery_even.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    OrientedHypergraph,
    SignedHypergraph,
    structures_match,
    uniform_edge_size,
)
from .errors import (
    DimensionMismatchError,
    InternalCheckError,
    NoConvergenceError,
    NotConnectedError,
    NotUniformError,
    OddUniformityError,
    StructureMismatchError,
    ZeroVectorError,
)
from .linalg import GF2Infeasible, GF2System, gf2_solve
from .switching import (
    NotEquivalent,
    SignedSwitchCertificate,
    signed_switch_equivalent,
)
from .walks import is_connected

__all__ = [
    "NQZ_TOL",
    "NQZ_MAX_ITERS",
    "NQZ_SHIFT",
    "TensorView",
    "adjacency_tensor",
    "laplacian_tensor",
    "adj_apply",
    "lap_apply",
    "lap_form",
    "NQZResult",
    "nqz_spectral_radius",
    "eigenpair_residual",
    "OddBipartition",
    "NotOddBipartite",
    "odd_bipartite",
    "ParityCertificate",
    "NotHEigenvalue",
    "NoZeroHEigenvalue",
    "h_eigen_minus_rho",
    "lap_zero_h_eigen",
    "TensorSimilarity",
    "NotSimilar",
    "signed_tensor_similarity",
    "SixWayReport",
    "theorem_battery_even",
]

NQZ_TOL = 1e-8
NQZ_MAX_ITERS = 100_000
NQZ_SHIFT = 1.0


def _uniform_k(h: OrientedHypergraph | SignedHypergraph) -> int:
    k = uniform_edge_size(h)
    if k is None:
        raise NotUniformError(
            "tensor operations need a uniform edge size (and at least one edge)"
        )
    if k < 2:
        raise NotUniformError("tensor operations need edges of size at least 2")
    return k


def _require_even(k: int) -> None:
    if k % 2:
        raise OddUniformityError(f"this criterion is defined for even k, got k={k}")


def _as_vector(h, x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.shape != (h.n,):
        raise DimensionMismatchError(
            f"vector of length {h.n} expected, got shape {arr.shape}"
        )
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    return arr.astype(dtype)


def _structure_only(h: OrientedHypergraph | SignedHypergraph) -> SignedHypergraph:
    """The underlying hypergraph with every edge sign +1."""
    members = tuple(tuple(h.members(j)) for j in range(h.m))
    return SignedHypergraph(h.n, members, (1,) * h.m)


def adj_apply(h: SignedHypergraph, x) -> np.ndarray:
    """Adjacency contraction: per vertex, the signed sum over incident
    edges of the product of the other k-1 coordinates."""
    _uniform_k(h)
    arr = _as_vector(h, x)
    out = np.zeros(h.n, dtype=arr.dtype)
    for j, edge in enumerate(h.edges):
        idx = np.fromiter((v - 1 for v in edge), dtype=np.intp, count=len(edge))
        vals = arr[idx]
        size = len(vals)
        prefix = np.empty(size + 1, dtype=arr.dtype)
        suffix = np.empty(size + 1, dtype=arr.dtype)
        prefix[0] = 1
        suffix[size] = 1
        prefix[1:] = np.cumprod(vals)
        suffix[:size] = np.cumprod(vals[::-1])[::-1]
        out[idx] += h.gamma[j] * prefix[:size] * suffix[1:]
    return out


def lap_apply(h: SignedHypergraph, x) -> np.ndarray:
    """Laplacian contraction: degree * x_v^(k-1) plus the adjacency part."""
    k = _uniform_k(h)
    arr = _as_vector(h, x)
    degrees = np.fromiter((h.degree(v) for v in range(1, h.n + 1)), dtype=np.float64)
    return degrees * arr ** (k - 1) + adj_apply(h, arr)


def lap_form(h: SignedHypergraph, x) -> complex | float:
    """Full Laplacian form: sum over edges of (sum of x_v^k) + k * sign * prod x_v.

    Nonnegative for real x and even k (term-wise AM-GM).
    """
    k = _uniform_k(h)
    arr = _as_vector(h, x)
    total = arr.dtype.type(0)
    for j, edge in enumerate(h.edges):
        vals = arr[[v - 1 for v in edge]]
        total = total + (vals**k).sum() + k * h.gamma[j] * vals.prod()
    value = complex(total)
    return value if value.imag != 0 else value.real


@dataclass(frozen=True)
class TensorView:
    """Symbolic handle on the adjacency or Laplacian tensor of a signed
    k-uniform hypergraph; contractions are edge-based, never entrywise."""

    k: int
    kind: str
    source: SignedHypergraph

    def apply(self, x) -> np.ndarray:
        if self.kind == "adjacency":
            return adj_apply(self.source, x)
        return lap_apply(self.source, x)

    def form(self, x) -> complex | float:
        if self.kind == "laplacian":
            return lap_form(self.source, x)
        arr = _as_vector(self.source, x)
        total = arr.dtype.type(0)
        for j, edge in enumerate(self.source.edges):
            vals = arr[[v - 1 for v in edge]]
            total = total + self.k * self.source.gamma[j] * vals.prod()
        value = complex(total)
        return value if value.imag != 0 else value.real


def adjacency_tensor(h: SignedHypergraph) -> TensorView:
    return TensorView(_uniform_k(h), "adjacency", h)


def laplacian_tensor(h: SignedHypergraph) -> TensorView:
    return TensorView(_uniform_k(h), "laplacian", h)


@dataclass(frozen=True)
class NQZResult:
    rho: float
    vector: tuple[float, ...]
    iterations: int
    lower: float
    upper: float
    bounds_history: tuple[tuple[float, float], ...]


def nqz_spectral_radius(
    h: OrientedHypergraph | SignedHypergraph,
    tol: float = NQZ_TOL,
    max_iters: int = NQZ_MAX_ITERS,
    shift: float = NQZ_SHIFT,
) -> NQZResult:
    """Spectral radius of the structural (all-positive) adjacency tensor.

    Power iteration on the diagonally shifted nonnegative tensor: the
    per-coordinate growth ratios bracket the shifted radius from both
    sides and the bracket shrinks monotonically; the positive shift
    guarantees convergence on connected structures.  Returns the radius,
    the positive max-normalized iterate (an eigenvector to residual
    below tol), and the bracket history.
    """
    structure = _structure_only(h)
    k = _uniform_k(structure)
    if not is_connected(structure):
        raise NotConnectedError("the iteration needs a connected structure")
    if tol <= 0 or shift <= 0:
        raise ValueError("tol and shift must be positive")
    x = np.ones(structure.n, dtype=np.float64)
    history: list[tuple[float, float]] = []
    for iteration in range(1, max_iters + 1):
        powered = x ** (k - 1)
        y = adj_apply(structure, x) + shift * powered
        ratios = y / powered
        lower = float(ratios.min()) - shift
        upper = float(ratios.max()) - shift
        history.append((lower, upper))
        if upper - lower < tol:
            return NQZResult(
                rho=(upper + lower) / 2.0,
                vector=tuple(float(t) for t in x),
                iterations=iteration,
                lower=lower,
                upper=upper,
                bounds_history=tuple(history),
            )
        x = y ** (1.0 / (k - 1))
        x /= x.max()
    raise NoConvergenceError(
        f"spectral-radius bracket still {history[-1][1] - history[-1][0]:.3e} wide "
        f"after {max_iters} iterations"
    )


def eigenpair_residual(h: SignedHypergraph, eigenvalue: complex, x) -> float:
    """Max-norm defect of the eigen-relation after max-modulus normalization."""
    k = _uniform_k(h)
    arr = np.asarray(x, dtype=np.complex128)
    if arr.shape != (h.n,):
        raise DimensionMismatchError(
            f"vector of length {h.n} expected, got shape {arr.shape}"
        )
    scale = float(np.abs(arr).max()) if arr.size else 0.0
    if scale == 0.0:
        raise ZeroVectorError("eigenvectors must be nonzero")
    arr = arr / scale
    defect = adj_apply(h, arr) - eigenvalue * arr ** (k - 1)
    return float(np.abs(defect).max())


# ---------------------------------------------------------------------------
# Parity criteria (even k).


@dataclass(frozen=True)
class OddBipartition:
    part_one: tuple[int, ...]
    part_two: tuple[int, ...]

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class NotOddBipartite:
    witness_edges: tuple[int, ...]

    def __bool__(self) -> bool:
        return False


def odd_bipartite(
    h: OrientedHypergraph | SignedHypergraph,
) -> OddBipartition | NotOddBipartite:
    """Bipartition meeting every edge oddly on each side, if one exists.

    One parity equation per edge; infeasibility is witnessed by edges
    whose equations sum to an odd constant with empty left-hand side.
    """
    k = _uniform_k(h)
    _require_even(k)
    system = GF2System.from_sets(
        h.n, ((h.members(j), 1) for j in range(h.m))
    )
    outcome = gf2_solve(system)
    if isinstance(outcome, GF2Infeasible):
        return NotOddBipartite(witness_edges=outcome.witness_rows)
    inside = set(outcome.support)
    return OddBipartition(
        part_one=outcome.support,
        part_two=tuple(v for v in range(1, h.n + 1) if v not in inside),
    )


@dataclass(frozen=True)
class ParityCertificate:
    """GF(2) solution plus the eigenpair it induces.

    signs[v-1] is -1 exactly for the switched vertices; the certified
    relation is adjacency contraction = eigenvalue * coordinates^(k-1)
    at the stored eigenvector, with the stated residual (exact integer 0
    for the Laplacian zero-eigenvalue case).
    """

    vertices: tuple[int, ...]
    signs: tuple[int, ...]
    eigenvalue: float
    eigenvector: tuple[float, ...]
    residual: float

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class NotHEigenvalue:
    witness_edges: tuple[int, ...]

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class NoZeroHEigenvalue:
    witness_edges: tuple[int, ...]

    def __bool__(self) -> bool:
        return False


def _parity_system(h: SignedHypergraph) -> GF2System:
    """Positive edges need an odd switched intersection, negative even."""
    return GF2System.from_sets(
        h.n,
        (
            (h.members(j), 1 if h.gamma[j] == 1 else 0)
            for j in range(h.m)
        ),
    )


def _signs_from_support(n: int, support: Sequence[int]) -> tuple[int, ...]:
    inside = set(support)
    return tuple(-1 if v in inside else 1 for v in range(1, n + 1))


def h_eigen_minus_rho(
    h: SignedHypergraph,
    tol: float = NQZ_TOL,
) -> ParityCertificate | NotHEigenvalue:
    """Is the negated structural spectral radius an H-eigenvalue?

    Decided by the parity system; a feasible solution flips the Perron
    vector on the switched set, which is then verified to satisfy the
    eigen-relation to within 10x the iteration tolerance.
    """
    k = _uniform_k(h)
    _require_even(k)
    if not is_connected(h):
        raise NotConnectedError("this criterion assumes a connected instance")
    outcome = gf2_solve(_parity_system(h))
    if isinstance(outcome, GF2Infeasible):
        return NotHEigenvalue(witness_edges=outcome.witness_rows)
    signs = _signs_from_support(h.n, outcome.support)
    radius = nqz_spectral_radius(h, tol)
    vector = np.array(signs, dtype=np.float64) * np.array(radius.vector)
    residual = eigenpair_residual(h, -radius.rho, vector)
    if residual > 10.0 * tol:
        raise InternalCheckError(
            f"internal check failed: certified eigenpair has residual {residual:.3e}"
        )
    return ParityCertificate(
        vertices=outcome.support,
        signs=signs,
        eigenvalue=-radius.rho,
        eigenvector=tuple(float(t) for t in vector),
        residual=residual,
    )


def lap_zero_h_eigen(
    h: SignedHypergraph,
) -> ParityCertificate | NoZeroHEigenvalue:
    """Is zero an H-eigenvalue of the Laplacian tensor?

    Same parity system; a feasible solution gives a +-1 vector whose
    Laplacian contraction cancels edge by edge, checked in exact integer
    arithmetic.
    """
    k = _uniform_k(h)
    _require_even(k)
    if not is_connected(h):
        raise NotConnectedError("this criterion assumes a connected instance")
    outcome = gf2_solve(_parity_system(h))
    if isinstance(outcome, GF2Infeasible):
        return NoZeroHEigenvalue(witness_edges=outcome.witness_rows)
    signs = _signs_from_support(h.n, outcome.support)
    for v in range(1, h.n + 1):
        inner = h.degree(v)
        for j in h.edges_of(v):
            prod = h.gamma[j]
            for u in h.members(j):
                prod *= signs[u - 1]
            inner += prod
        if inner != 0:
            raise InternalCheckError(
                f"internal check failed: Laplacian contraction is {inner} at vertex {v}"
            )
    return ParityCertificate(
        vertices=outcome.support,
        signs=signs,
        eigenvalue=0.0,
        eigenvector=tuple(float(s) for s in signs),
        residual=0,
    )


# ---------------------------------------------------------------------------
# Diagonal similarity and the six-way battery (even k).


@dataclass(frozen=True)
class TensorSimilarity:
    signs: tuple[int, ...]
    vertices: tuple[int, ...]
    max_deviation: float

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class NotSimilar:
    witness_edges: tuple[int, ...]

    def __bool__(self) -> bool:
        return False


def signed_tensor_similarity(
    first: SignedHypergraph,
    second: SignedHypergraph,
    tol: float = 1e-10,
    seed: int = 0,
) -> TensorSimilarity | NotSimilar:
    """Signature vector conjugating one adjacency tensor into the other.

    Delegates to vertex-switching equivalence, then spot-checks the
    similarity identity on a random complex vector (even k makes the
    inverse signature equal the signature itself).
    """
    if not structures_match(first, second):
        raise StructureMismatchError(
            "tensor similarity needs identical underlying structures"
        )
    k = _uniform_k(first)
    _require_even(k)
    outcome = signed_switch_equivalent(first, second)
    if isinstance(outcome, NotEquivalent):
        return NotSimilar(witness_edges=outcome.witness_edges)
    signs = _signs_from_support(first.n, outcome.vertices)
    rng = np.random.default_rng(seed)
    probe = rng.standard_normal(first.n) + 1j * rng.standard_normal(first.n)
    sign_arr = np.array(signs, dtype=np.float64)
    deviation = float(
        np.abs(
            adj_apply(second, probe) - sign_arr * adj_apply(first, sign_arr * probe)
        ).max()
    )
    if deviation > tol:
        raise InternalCheckError(
            f"internal check failed: similarity identity off by {deviation:.3e}"
        )
    return TensorSimilarity(
        signs=signs, vertices=outcome.vertices, max_deviation=deviation
    )


@dataclass(frozen=True)
class SixWayReport:
    """One boolean per statement of the even-k equivalence; the
    underlying certificates ride along for reporting and replay."""

    switch_equivalent_all_positive: bool
    adjacency_similarity: bool
    minus_rho_h_eigen: bool
    laplacian_similarity: bool
    zero_h_eigen: bool
    parity_bipartition: bool
    switch_certificate: SignedSwitchCertificate | NotEquivalent
    eigen_certificate: ParityCertificate | NotHEigenvalue
    laplacian_certificate: ParityCertificate | NoZeroHEigenvalue

    def values(self) -> tuple[bool, bool, bool, bool, bool, bool]:
        return (
            self.switch_equivalent_all_positive,
            self.adjacency_similarity,
            self.minus_rho_h_eigen,
            self.laplacian_similarity,
            self.zero_h_eigen,
            self.parity_bipartition,
        )

    @property
    def agree(self) -> bool:
        return len(set(self.values())) == 1

    @property
    def all_true(self) -> bool:
        return all(self.values())


def theorem_battery_even(
    h: SignedHypergraph,
    tol: float = NQZ_TOL,
    seed: int = 0,
    similarity_tol: float = 1e-10,
) -> SixWayReport:
    """Evaluate the six equivalent statements for even k, each by its own
    route: switching equivalence to the all-positive-structure signing,
    the two diagonal-similarity identities on a random probe vector, the
    two H-eigenvalue criteria, and the raw parity system.
    """
    k = _uniform_k(h)
    _require_even(k)
    if not is_connected(h):
        raise NotConnectedError("the equivalence battery assumes connectivity")
    # The signing induced by the all-positive orientation: every edge
    # gets (-1)^(k-1) = -1 for even k.
    all_positive_signing = SignedHypergraph(h.n, h.edges, (-1,) * h.m, h.names)

    switch_outcome = signed_switch_equivalent(h, all_positive_signing)
    statement_1 = isinstance(switch_outcome, SignedSwitchCertificate)

    eigen_outcome = h_eigen_minus_rho(h, tol)
    statement_3 = isinstance(eigen_outcome, ParityCertificate)

    laplacian_outcome = lap_zero_h_eigen(h)
    statement_5 = isinstance(laplacian_outcome, ParityCertificate)

    parity_outcome = gf2_solve(_parity_system(h))
    statement_6 = not isinstance(parity_outcome, GF2Infeasible)

    statement_2 = False
    statement_4 = False
    if statement_6:
        signs = _signs_from_support(h.n, parity_outcome.support)
        sign_arr = np.array(signs, dtype=np.float64)
        rng = np.random.default_rng(seed)
        probe = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
        flipped = sign_arr * probe
        statement_2 = bool(
            np.abs(
                sign_arr * adj_apply(h, flipped)
                - adj_apply(all_positive_signing, probe)
            ).max()
            <= similarity_tol
        )
        statement_4 = bool(
            np.abs(
                sign_arr * lap_apply(h, flipped)
                - lap_apply(all_positive_signing, probe)
            ).max()
            <= similarity_tol
        )
    return SixWayReport(
        switch_equivalent_all_positive=statement_1,
        adjacency_similarity=statement_2,
        minus_rho_h_eigen=statement_3,
        laplacian_similarity=statement_4,
        zero_h_eigen=statement_5,
        parity_bipartition=statement_6,
        switch_certificate=switch_outcome,
        eigen_certificate=eigen_outcome,
        laplacian_certificate=laplacian_outcome,
    )
