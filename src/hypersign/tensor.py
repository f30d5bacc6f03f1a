"""Adjacency/Laplacian tensors of k-uniform signed hypergraphs.

The order-k adjacency tensor places sign(e)/(k-1)! on every permutation
of each edge; contracting against x therefore reduces to one product per
edge and vertex, which is how everything here is computed — the tensor
is never materialized.  The Laplacian adds the degrees on the diagonal.

Real contractions run one plan, built from the (m, k) array of 0-based
member indices, the edge signs gamma and the vector's dtype (float64 or
int64): the members by position as a contiguous (k, m) array and
edge-major as a flat one, buffers for the gathered values, the prefix
and suffix chains and the (m, k) terms, and a fixed list of multiplies.
The NQZ iteration builds one plan per run and runs it at every step;
every other contraction builds one and runs it once.  A run gathers x
at every incidence and takes, per edge, the exclusive prefix products
left to right from gamma, the suffix products right to left, and term
j = prefix_j * suffix_j, the order of a per-edge loop: the loop's other
factors of 1 are dropped, and 1 * v = v exactly.  Starting from gamma
instead of 1 is exact too: multiplying by gamma = +-1 only sets a sign
bit, and IEEE gives the sign of a product as the XOR of its factors'
signs, so every float64 term equals (gamma * prefix) * suffix bit for
bit, signed zeros included (int64 arithmetic is exact anyway).  The
terms are added onto the vertices in edge-major order, each sum from 0:
float64 terms by np.bincount, which adds its weights one by one as
np.add.at does, so the bits are the same; int64 terms by np.add.at,
since bincount sums in float64 and would round sums past 2^53.  The
Laplacian zero-eigenvalue check runs the plan on int64 vectors and so
stays in exact integer arithmetic.  numpy multiplies complex128 arrays
with a fused or an unfused loop depending on their memory layout, so a
complex contraction (eigenpair_residual's) keeps the edge-major (m, k)
layout, one strided column at a time, whose bits the printed residual
has.  The tensors are reached only through adj_apply and lap_apply; a
form T x^k is x . (T x^{k-1}), which lap_form computes for the Laplacian.

The NQZ power iteration takes a tolerance (NQZ_TOL by default); its
budget NQZ_MAX_ITERS and its diagonal shift NQZ_SHIFT are constants,
read at each call.  The radius reads no sign, so it is computed once per
structure and (tolerance, budget, shift), and kept in the incidence
core's store for the core's life: an instance, its induced signing and
its switched copies share it, and nqz_spectral_radius and the -rho
criterion read the same result; the criterion reads its vector as the
array the iteration ended on.  A run that raises stores nothing.

For even k and a connected instance, the negated structural spectral
radius is an H-eigenvalue exactly when a parity system over the vertices
is solvable: positive edges must meet the switched set an odd number of
times, negative edges an even number.  The switching module's parity
route poses and solves it: the criteria and theorem_battery_even ask it
about h's own signing, odd_bipartite about the all-+1 signing.  The
battery asks once: statements 1, 3, 5 and 6 restate that answer (3 adds
an NQZ eigenpair residual check, 5 exact Laplacian cancellation).  Every
"no" is the route's own NotEquivalent witness.

Statements 2 and 4 (diagonal similarity of the adjacency and of the
Laplacian tensor) are one exact integer check of that solution, not two
routes.  For even k, conjugating by diag(s) with s = +-1 multiplies the
entry of each member set S by the product of s over S and fixes every
diagonal entry (s_v^-(k-1) * s_v^(k-1) = 1), the only place where the
Laplacian differs, so the Laplacian adds nothing.  Parallel edges share
their entry, so each member set's summed sign must match (Shao 2013).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from numbers import Number
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
    InvalidValueError,
    NoConvergenceError,
    NotConnectedError,
    NotUniformError,
    OddUniformityError,
    StructureMismatchError,
    ZeroVectorError,
    check_array,
    check_tolerance,
)
from .switching import NotEquivalent, SignedSwitchCertificate, _edge_parity, _parity_route
from .walks import is_connected

__all__ = [
    "NQZ_TOL",
    "NQZ_MAX_ITERS",
    "NQZ_SHIFT",
    "adj_apply",
    "lap_apply",
    "lap_form",
    "NQZResult",
    "nqz_spectral_radius",
    "eigenpair_residual",
    "OddBipartition",
    "odd_bipartite",
    "ParityCertificate",
    "h_eigen_minus_rho",
    "lap_zero_h_eigen",
    "TensorSimilarity",
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
    """x as a float64 (or, if complex, complex128) vector of length n
    (errors.check_array); the kernels do not write to it."""
    arr = check_array(x, "vector", kinds="biufc")
    if arr.shape != (h.n,):
        raise DimensionMismatchError(
            f"vector of length {h.n} expected, got shape {arr.shape}"
        )
    return arr


def _edge_index(h: OrientedHypergraph | SignedHypergraph) -> np.ndarray:
    """(m, k) read-only array of 0-based members in stored order; checks uniformity."""
    return h.incidence_core.edge_major()[1].reshape(h.m, _uniform_k(h))


class _ContractionPlan:
    """The adjacency contraction over fixed members idx (m, k), k >= 2, and
    edge signs gamma, for float64 or int64 vectors of one dtype: its index
    arrays, its buffers and its schedule of multiplies, made once and run
    for any number of vectors.  A plan's buffers are its own, so one plan
    serves one thread.

    Row j of vals holds x at member position j of every edge, row j of
    prefix the product of gamma and x over positions 0..j-1 (left to
    right), row j of suffix the product over positions k-1 down to j+1
    (right to left); term j of an edge is prefix[j] * suffix[j], written
    into column j of the edge-major (m, k) terms.  prefix[0] is gamma, set
    once; suffix[k-2] is vals[k-1] itself (the loop's 1 * x is x exactly);
    and term k-1, prefix[k-1] * 1, is the last prefix multiply.
    """

    def __init__(self, idx: np.ndarray, gamma: np.ndarray, dtype) -> None:
        m, k = idx.shape
        self.columns = idx.T.copy()
        self.flat = idx.ravel()  # edge-major: the order the scatter adds in
        terms = np.empty((m, k), dtype)
        self.weights = terms.reshape(-1)  # the terms, edge-major
        self.vals = vals = np.empty((k, m), dtype)
        prefix = np.empty((k - 1, m), dtype)
        prefix[0] = gamma
        inner = np.empty((k - 2, m), dtype)
        suffix = [inner[j] for j in range(k - 2)]
        suffix.append(vals[k - 1])
        term = terms.T  # term[j] is column j of the terms
        # Plain loops: one-shot contractions pay for this build, and on
        # Python 3.11 every comprehension costs a function call.
        steps = self.steps = []
        for j in range(1, k - 1):
            steps.append((prefix[j - 1], vals[j - 1], prefix[j]))
        steps.append((prefix[k - 2], vals[k - 2], term[k - 1]))
        for j in range(k - 3, -1, -1):
            steps.append((suffix[j + 1], vals[j + 1], suffix[j]))
        for j in range(k - 1):
            steps.append((prefix[j], suffix[j], term[j]))
        # bincount adds its float64 weights one by one in index order from
        # 0.0, as np.add.at does, but it sums in float64 whatever the
        # weights' dtype: past 2^53 it would round int64 sums.
        self.bincount = terms.dtype == np.float64

    def run(self, x: np.ndarray) -> np.ndarray:
        """The contraction at x (of the plan's dtype), as a new array."""
        x.take(self.columns, out=self.vals, mode="clip")  # clip: unbuffered
        for left, right, out in self.steps:
            np.multiply(left, right, out=out)
        if self.bincount:
            return np.bincount(self.flat, self.weights, x.size)
        out = np.zeros_like(x)
        np.add.at(out, self.flat, self.weights)
        return out


def _complex_products(idx: np.ndarray, gamma: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The contraction at a complex128 x, in the edge-major (m, k) layout.

    numpy multiplies complex arrays with a fused or an unfused loop
    depending on their memory layout and overlap, so the bits of complex
    terms follow the layout: these strided column chains and the one
    contiguous prefix * suffix fix the bits that eigenpair_residual reports.
    """
    vals = x[idx]
    terms = np.empty_like(vals)  # the prefix products, then the terms
    suffix = np.empty_like(vals)
    terms[:, 0] = gamma
    suffix[:, -1] = 1
    for j in range(1, idx.shape[1]):
        np.multiply(terms[:, j - 1], vals[:, j - 1], out=terms[:, j])
        np.multiply(suffix[:, -j], vals[:, -j], out=suffix[:, -j - 1])
    np.multiply(terms, suffix, out=terms)
    out = np.zeros_like(x)
    np.add.at(out, idx.ravel(), terms.ravel())
    return out


def _edge_products(idx: np.ndarray, gamma: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Adjacency contraction: per vertex v, the sum over edges e holding v
    of gamma_e times the product of x over the other members of e.

    The products are taken in the same order as a per-edge loop would:
    left-to-right prefix (starting from gamma_e), right-to-left suffix,
    then prefix * suffix; the scatter adds terms in edge order.
    """
    if x.dtype == np.complex128:
        return _complex_products(idx, gamma, x)
    return _ContractionPlan(idx, gamma, x.dtype).run(x)


def _lap_products(idx: np.ndarray, gamma: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Laplacian contraction: degree * x_v^(k-1) plus the adjacency part."""
    degrees = np.bincount(idx.ravel(), minlength=x.size)
    return degrees * x ** (idx.shape[1] - 1) + _edge_products(idx, gamma, x)


def adj_apply(h: SignedHypergraph, x) -> np.ndarray:
    """Adjacency contraction: per vertex, the signed sum over incident
    edges of the product of the other k-1 coordinates."""
    idx = _edge_index(h)
    return _edge_products(idx, h._gamma_array, _as_vector(h, x))


def lap_apply(h: SignedHypergraph, x) -> np.ndarray:
    """Laplacian contraction: degree * x_v^(k-1) plus the adjacency part."""
    idx = _edge_index(h)
    return _lap_products(idx, h._gamma_array, _as_vector(h, x))


def lap_form(h: SignedHypergraph, x) -> complex | float:
    """Full Laplacian form: sum over edges of (sum of x_v^k) + k * sign * prod x_v.

    Nonnegative for real x and even k (term-wise AM-GM).
    """
    idx = _edge_index(h)
    vec = _as_vector(h, x)
    value = complex(vec @ _lap_products(idx, h._gamma_array, vec))
    return value if value.imag != 0 else value.real


@dataclass(frozen=True)
class NQZResult:
    rho: float
    vector: tuple[float, ...]
    iterations: int
    lower: float
    upper: float
    bounds_history: tuple[tuple[float, float], ...]


def nqz_spectral_radius(
    h: OrientedHypergraph | SignedHypergraph, tol: float = NQZ_TOL
) -> NQZResult:
    """Spectral radius of the structural (all-positive) adjacency tensor.

    Power iteration on the tensor shifted by NQZ_SHIFT on the diagonal:
    the per-coordinate growth ratios bracket the shifted radius from both
    sides and the bracket shrinks monotonically; the positive shift
    guarantees convergence on connected structures.  Returns the radius,
    the positive max-normalized iterate (an eigenvector to residual
    below tol), and the bracket history, or raises NoConvergenceError
    after NQZ_MAX_ITERS iterations.
    """
    idx = _edge_index(h)
    if not is_connected(h):
        raise NotConnectedError("the iteration needs a connected structure")
    return _radius(h, idx, tol)[0]


def _radius(h, idx, tol: float) -> tuple[NQZResult, np.ndarray]:
    """The iteration's result on h's structure and its vector as a
    read-only array, for callers that checked connectivity.  The budget and
    the shift are read here, at each call; the iteration runs once per
    structure and (tol, budget, shift), and later calls read the pair from
    the core's store."""
    tol = check_tolerance(tol, "tol")
    max_iters, shift = NQZ_MAX_ITERS, NQZ_SHIFT
    return h.incidence_core._once(
        ("nqz", tol, max_iters, shift), lambda: _nqz(idx, h.n, tol, max_iters, shift)
    )


def _nqz(idx, n: int, tol: float, max_iters: int, shift: float) -> tuple[NQZResult, np.ndarray]:
    """The iteration itself: its result, and the result's vector as an array."""
    m, k = idx.shape
    plan = _ContractionPlan(idx, np.ones(m, dtype=np.int64), np.float64)  # signs +1
    x = np.ones(n, dtype=np.float64)
    ratios = np.empty(n)
    root = 1.0 / (k - 1)
    history: list[tuple[float, float]] = []
    for iteration in range(1, max_iters + 1):
        # ** (unlike np.power on some numpy versions) takes square or sqrt
        # for some exponents; a fresh power costs less than copy then **=.
        powered = x ** (k - 1)
        y = plan.run(x)
        np.multiply(shift, powered, out=ratios)  # ratios holds the shift term first
        y += ratios
        np.divide(y, powered, out=ratios)
        lower = float(np.minimum.reduce(ratios)) - shift
        upper = float(np.maximum.reduce(ratios)) - shift
        history.append((lower, upper))
        if upper - lower < tol:
            x.setflags(write=False)
            result = NQZResult(
                rho=(upper + lower) / 2.0,
                vector=tuple(x.tolist()),
                iterations=iteration,
                lower=lower,
                upper=upper,
                bounds_history=tuple(history),
            )
            return result, x
        y **= root  # y is the plan's fresh output: the next x
        x = y
        x /= np.maximum.reduce(x)
    raise NoConvergenceError(
        f"spectral-radius bracket still {history[-1][1] - history[-1][0]:.3e} wide "
        f"after {max_iters} iterations"
    )


def eigenpair_residual(h: SignedHypergraph, eigenvalue: complex, x) -> float:
    """Max-norm defect of the eigen-relation after max-modulus normalization.

    The eigenvalue is a finite number, complex allowed, and x a vector of
    finite entries; anything else raises InvalidValueError."""
    if not _finite_number(eigenvalue):
        raise InvalidValueError(f"eigenvalue must be a finite number, got {eigenvalue!r:.40}")
    idx = _edge_index(h)
    arr = _as_vector(h, x)
    if not np.isfinite(arr).all():
        raise InvalidValueError("eigenvector entries must be finite")
    arr = arr.astype(np.complex128)
    scale = float(np.abs(arr).max()) if arr.size else 0.0
    if scale == 0.0:
        raise ZeroVectorError("eigenvectors must be nonzero")
    arr = arr / scale
    k = idx.shape[1]
    defect = _edge_products(idx, h._gamma_array, arr) - eigenvalue * arr ** (k - 1)
    return float(np.abs(defect).max())


def _finite_number(value) -> bool:
    """Is value a number whose complex value is finite?"""
    if not isinstance(value, Number):
        return False
    try:
        return cmath.isfinite(value)
    except (OverflowError, TypeError, ValueError):  # past float range, or no complex value
        return False


# ---------------------------------------------------------------------------
# Parity criteria (even k).


@dataclass(frozen=True)
class OddBipartition:
    part_one: tuple[int, ...]
    part_two: tuple[int, ...]


def odd_bipartite(
    h: OrientedHypergraph | SignedHypergraph,
) -> OddBipartition | NotEquivalent:
    """Bipartition meeting every edge oddly on each side, if one exists.

    The parity route on the all-+1 signing: part one meets every edge
    oddly, and so does part two, since k is even.  Infeasibility is
    witnessed by edges whose equations sum to 0 = 1.
    """
    idx = _edge_index(h)
    _require_even(idx.shape[1])
    outcome = _edge_parity(h, np.ones(h.m, dtype=np.int64))
    if isinstance(outcome, NotEquivalent):
        return outcome
    inside = set(outcome.vertices)
    return OddBipartition(
        part_one=outcome.vertices,
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


def _signs_from_support(n: int, support: Sequence[int]) -> np.ndarray:
    """The int64 vector that is -1 at the vertices of support, +1 elsewhere."""
    signs = np.ones(n, dtype=np.int64)
    signs[np.array(support, dtype=np.intp) - 1] = -1
    return signs


def _solve_parity(h: SignedHypergraph, message: str):
    """Edge index, the parity route's answer for h's own signing (even k,
    connected) and, for a solution, its signs as an int64 array (None for
    a witness)."""
    idx = _edge_index(h)
    _require_even(idx.shape[1])
    if not is_connected(h):
        raise NotConnectedError(message)
    outcome = _edge_parity(h, h._gamma_array)
    if isinstance(outcome, NotEquivalent):
        return idx, outcome, None
    return idx, outcome, np.asarray(_signs_from_support(h.n, outcome.vertices), dtype=np.int64)


def _minus_rho_certificate(h, idx, outcome, signs, tol) -> ParityCertificate | NotEquivalent:
    if isinstance(outcome, NotEquivalent):
        return outcome
    radius, perron = _radius(h, idx, tol)
    vector = signs * perron  # each entry +-1.0 times the Perron entry, exactly
    residual = eigenpair_residual(h, -radius.rho, vector)
    if residual > 10.0 * tol:
        raise InternalCheckError(
            f"internal check failed: certified eigenpair has residual {residual:.3e}"
        )
    return ParityCertificate(
        vertices=outcome.vertices,
        signs=tuple(signs.tolist()),
        eigenvalue=-radius.rho,
        eigenvector=tuple(vector.tolist()),
        residual=residual,
    )


def _zero_certificate(h, idx, outcome, signs) -> ParityCertificate | NotEquivalent:
    if isinstance(outcome, NotEquivalent):
        return outcome
    contraction = _lap_products(idx, h._gamma_array, signs)
    nonzero = np.flatnonzero(contraction)
    if nonzero.size:
        v = int(nonzero[0])
        raise InternalCheckError(
            f"internal check failed: Laplacian contraction is {contraction[v]} "
            f"at vertex {v + 1}"
        )
    return ParityCertificate(
        vertices=outcome.vertices,
        signs=tuple(signs.tolist()),
        eigenvalue=0.0,
        eigenvector=tuple(signs.astype(np.float64).tolist()),
        residual=0,
    )


def h_eigen_minus_rho(h: SignedHypergraph) -> ParityCertificate | NotEquivalent:
    """Is the negated structural spectral radius an H-eigenvalue?

    Decided by the parity system; a feasible solution flips the Perron
    vector on the switched set, which is then verified to satisfy the
    eigen-relation to within 10x the iteration tolerance NQZ_TOL.
    """
    idx, outcome, signs = _solve_parity(h, "this criterion assumes a connected instance")
    return _minus_rho_certificate(h, idx, outcome, signs, NQZ_TOL)


def lap_zero_h_eigen(h: SignedHypergraph) -> ParityCertificate | NotEquivalent:
    """Is zero an H-eigenvalue of the Laplacian tensor?

    Same parity system; a feasible solution gives a +-1 vector whose
    Laplacian contraction cancels edge by edge, checked in exact integer
    arithmetic.
    """
    idx, outcome, signs = _solve_parity(h, "this criterion assumes a connected instance")
    return _zero_certificate(h, idx, outcome, signs)


# ---------------------------------------------------------------------------
# Diagonal similarity and the six-way battery (even k).


def _similar_under(idx, gamma, target, signs) -> bool:
    """Does diag(signs) conjugate the tensors of edge signs gamma into
    those of target, over the members idx?  In O(incidences): only edges
    that differ one by one are grouped by their sorted member tuple."""
    diff = gamma * np.prod(signs[idx], axis=1) - target
    off = np.flatnonzero(diff)
    sums: dict[tuple[int, ...], int] = {}
    for key, d in zip(map(tuple, np.sort(idx[off]).tolist()), diff[off].tolist()):
        sums[key] = sums.get(key, 0) + d
    return not any(sums.values())


@dataclass(frozen=True)
class TensorSimilarity:
    signs: tuple[int, ...]
    vertices: tuple[int, ...]


def signed_tensor_similarity(
    first: SignedHypergraph, second: SignedHypergraph
) -> TensorSimilarity | NotEquivalent:
    """Signature vector conjugating one adjacency tensor into the other.

    Edges are grouped by member set, with sign sums a and b in first and
    second.  A group with |a| != |b| is a witness by itself; otherwise
    each group with a != 0 gives the parity route one equation on its
    first edge, odd exactly when a and b differ in sign.  Without
    parallel edges these are signed_switch_equivalent's equations.
    """
    if not structures_match(first, second):
        raise StructureMismatchError(
            "tensor similarity needs identical underlying structures"
        )
    idx = _edge_index(first)
    _require_even(idx.shape[1])
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, key in enumerate(map(tuple, np.sort(idx).tolist())):
        groups.setdefault(key, []).append(j)
    leaders, signing = [], []
    for group in groups.values():
        a = sum(first.gamma[j] for j in group)
        b = sum(second.gamma[j] for j in group)
        if abs(a) != abs(b):
            return NotEquivalent(witness_edges=tuple(group))
        if a:
            leaders.append(group[0])
            signing.append(-1 if a * b > 0 else 1)
    # The leaders ascend, so a mask over the edges selects their members in order.
    core = first.incidence_core
    chosen = np.zeros(first.m, dtype=bool)
    chosen[leaders] = True
    edge_ids, members = core.edge_major()
    outcome = _parity_route(
        first.n, members[chosen[edge_ids]], core.edge_sizes()[chosen], signing
    )
    if isinstance(outcome, NotEquivalent):
        return NotEquivalent(witness_edges=tuple(leaders[r] for r in outcome.witness_edges))
    signs = np.asarray(_signs_from_support(first.n, outcome.vertices), dtype=np.int64)
    if not _similar_under(idx, first._gamma_array, second._gamma_array, signs):
        raise InternalCheckError("internal check failed: no similarity under the signs")
    return TensorSimilarity(signs=tuple(signs.tolist()), vertices=outcome.vertices)


@dataclass(frozen=True)
class SixWayReport:
    """One boolean per statement of the even-k equivalence, with the
    certificates for reporting and replay.  Statements 1, 3, 5 and 6
    restate one parity solve; 2 and 4 are one exact check of its solution
    (a +-1 similarity fixes the diagonal, where alone the Laplacian
    differs), not two routes."""

    switch_equivalent_all_positive: bool
    adjacency_similarity: bool
    minus_rho_h_eigen: bool
    laplacian_similarity: bool
    zero_h_eigen: bool
    parity_bipartition: bool
    switch_certificate: SignedSwitchCertificate | NotEquivalent
    eigen_certificate: ParityCertificate | NotEquivalent
    laplacian_certificate: ParityCertificate | NotEquivalent

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
    h: SignedHypergraph, tol: float = NQZ_TOL, seed: int = 0
) -> SixWayReport:
    """Evaluate the six equivalent statements for even k from one parity
    route answer for h's own signing: its feasibility is statement 6, and
    it is statement 1's certificate, since switching to the all-positive
    orientation's signing (every edge -1) asks about -gamma*(-1) = gamma.
    Statements 3 and 5 build their certificates from its solution, and
    2 and 4 are one exact check that its signature conjugates h's tensors
    into those of the all -1 signing.  seed is accepted and unused (the
    check draws nothing); it stays for callers that still pass it.
    """
    tol = check_tolerance(tol, "tol")
    idx, outcome, signs = _solve_parity(h, "the equivalence battery assumes connectivity")
    statement_6 = isinstance(outcome, SignedSwitchCertificate)
    eigen_outcome = _minus_rho_certificate(h, idx, outcome, signs, tol)
    laplacian_outcome = _zero_certificate(h, idx, outcome, signs)
    similar = statement_6 and _similar_under(idx, h._gamma_array, -1, signs)
    return SixWayReport(
        switch_equivalent_all_positive=statement_6,
        adjacency_similarity=similar,
        minus_rho_h_eigen=isinstance(eigen_outcome, ParityCertificate),
        laplacian_similarity=similar,
        zero_h_eigen=isinstance(laplacian_outcome, ParityCertificate),
        parity_bipartition=statement_6,
        switch_certificate=outcome,
        eigen_certificate=eigen_outcome,
        laplacian_certificate=laplacian_outcome,
    )
