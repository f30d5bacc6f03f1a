"""Oriented and signed hypergraphs and their elementary sign functions.

Vertices carry dense integer ids 1..n.  An edge is an ordered tuple of
(vertex, orientation) pairs, orientation +1 or -1; the pair (e, v) is an
incidence.  Edges keep insertion order so certificates are reproducible.
Parallel edges (repeated vertex sets) are allowed; a vertex appears at
most once within an edge.  All values are immutable after construction
and safe to share across threads.

An instance is validated once, when it is constructed from outside
data.  Copies derived from it (induced signing, all-positive variant,
switched copies) are trusted and share their parent's core arrays, all
but the signs.  ``edges`` is the stored form; every structural question
reads the incidence core instead, built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    DuplicateVertexInEdgeError,
    EmptyEdgeError,
    InvalidValueError,
    NotAdjacentError,
    UnknownEdgeError,
    UnknownVertexError,
    VertexLimitExceededError,
    VertexOutOfRangeError,
)

__all__ = [
    "MAX_VERTICES",
    "IncidenceCore",
    "OrientedHypergraph",
    "SignedHypergraph",
    "structures_match",
    "build",
    "build_signed",
    "edge_sign",
    "adjacency_sign",
    "induced_signed",
    "all_positive_variant",
    "uniform_edge_size",
]


# Largest vertex count accepted, checked before anything is allocated per
# vertex.  The core's arrays and the search's lists take about 300 bytes
# per node (`hypersign check` on 10^6 isolated vertices peaked at 307 MB),
# so 2^21 vertices keep one instance within a budget of 1 GiB.
MAX_VERTICES = 1 << 21


def _check_edge_vertices(n: int, index: int, vertices: tuple[int, ...]) -> None:
    if len(vertices) == 0:
        raise EmptyEdgeError(index)
    seen: set[int] = set()
    for v in vertices:
        if not isinstance(v, int) or v < 1 or v > n:
            raise VertexOutOfRangeError(index, v, n)
        if v in seen:
            raise DuplicateVertexInEdgeError(index, v)
        seen.add(v)


def _default_names(m: int) -> tuple[str, ...]:
    return tuple(f"e{j + 1}" for j in range(m))


@dataclass(frozen=True, eq=False)
class IncidenceCore:
    """The incidence structure as read-only CSR arrays over its n + m nodes.

    Vertex v is node v - 1 and edge j is node n + j.  Row x,
    ``indices[indptr[x]:indptr[x + 1]]``, lists the neighbours of node x:
    a vertex's edges in ascending order, an edge's members in stored
    order.  ``slot[k]`` is the position of the incidence behind entry k
    in edge-major order (edge by edge, members in stored order), so a
    per-incidence array in that order, such as ``signs``, is one gather
    away from every row.  ``signs`` holds the orientations of an oriented
    hypergraph and is None for a signed one; ``edge_ids`` holds the edge
    of each incidence, in edge-major order.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray
    signs: np.ndarray | None
    edge_ids: np.ndarray

    @property
    def size(self) -> int:
        """Number of incidences; entries below it form the vertex rows."""
        return self.slot.size // 2

    def edge_major(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge index and vertex node of each incidence, in edge-major order."""
        return self.edge_ids, self.indices[self.size :]


def _build_core(h: OrientedHypergraph | SignedHypergraph) -> IncidenceCore:
    """The incidence core of h, from its stored edges."""
    n, m = h.n, h.m
    sizes = np.fromiter(map(len, h.edges), dtype=np.intp, count=m)
    total = int(sizes.sum())
    if isinstance(h, OrientedHypergraph):
        pairs = np.fromiter(
            chain.from_iterable(chain.from_iterable(h.edges)),
            dtype=np.intp,
            count=2 * total,
        ).reshape(total, 2)
        members, signs = pairs[:, 0] - 1, pairs[:, 1].copy()
    else:
        flat = np.fromiter(chain.from_iterable(h.edges), dtype=np.intp, count=total)
        members = flat - 1
        signs = None
    by_vertex = np.argsort(members, kind="stable")
    degrees = np.bincount(members, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(np.concatenate((degrees, sizes)))))
    edge_ids = np.repeat(np.arange(m), sizes)
    indices = np.concatenate((edge_ids[by_vertex] + n, members))
    slot = np.concatenate((by_vertex, np.arange(total)))
    for arr in (indptr, indices, slot, signs, edge_ids):
        if arr is not None:
            arr.setflags(write=False)
    return IncidenceCore(n, indptr, indices, slot, signs, edge_ids)


class _IncidenceStructure:
    """What both hypergraph kinds share: vertex ids 1..n, edge indices
    0..m-1 with optional names, and the incidence core."""

    def _check_names(self) -> None:
        if self.n < 0:
            raise InvalidValueError("vertex count must be nonnegative")
        if self.n > MAX_VERTICES:
            raise VertexLimitExceededError(self.n, MAX_VERTICES)
        if not self.names:
            object.__setattr__(self, "names", _default_names(len(self.edges)))
            return
        if len(self.names) != len(self.edges):
            raise InvalidValueError("names must match edge count")
        # Joined by spaces and split again, the names come back unchanged
        # exactly when each is a non-empty string free of whitespace.
        if not all(isinstance(name, str) for name in self.names) or (
            " ".join(self.names).split() != list(self.names)
        ):
            raise InvalidValueError(
                "edge names must be non-empty strings without whitespace"
            )
        if len(set(self.names)) != len(self.names):
            raise InvalidValueError("edge names must be distinct")

    @classmethod
    def _derived(cls, parent, signs: np.ndarray | None, **fields):
        """A cls over parent's members with new valid labels ``fields``, unchecked;
        its core is parent's with ``signs`` (read-only; None for a signed copy)."""
        copy, c = object.__new__(cls), parent.incidence_core
        core = IncidenceCore(c.n, c.indptr, c.indices, c.slot, signs, c.edge_ids)
        vars(copy).update(n=parent.n, names=parent.names, incidence_core=core, **fields)
        return copy

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence_core(self) -> IncidenceCore:
        """Built on first use, kept for life and shared with derived copies."""
        return _build_core(self)

    def check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise UnknownVertexError(v, self.n)

    def check_edge(self, e: int) -> None:
        if not 0 <= e < self.m:
            raise UnknownEdgeError(e, self.m)

    def edges_of(self, v: int) -> tuple[int, ...]:
        """Edges at vertex v, in ascending order."""
        self.check_vertex(v)
        core = self.incidence_core
        row = core.indices[core.indptr[v - 1] : core.indptr[v]]
        return tuple((row - self.n).tolist())

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        indptr = self.incidence_core.indptr
        return int(indptr[v] - indptr[v - 1])


@dataclass(frozen=True)
class OrientedHypergraph(_IncidenceStructure):
    """Hypergraph with a +1/-1 orientation on every incidence."""

    n: int
    edges: tuple[tuple[tuple[int, int], ...], ...]
    names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        self._check_names()
        for j, edge in enumerate(self.edges):
            _check_edge_vertices(self.n, j, tuple(v for v, _ in edge))
            for v, s in edge:
                if s not in (-1, 1):
                    raise InvalidValueError(
                        f"edge {j}: orientation at vertex {v} must be +1 or -1"
                    )

    def members(self, e: int) -> tuple[int, ...]:
        """Vertices of edge e, in stored order."""
        self.check_edge(e)
        return tuple(v for v, _ in self.edges[e])

    def orientation(self, e: int, v: int) -> int:
        self.check_edge(e)
        core = self.incidence_core
        start, stop = core.indptr[self.n + e : self.n + e + 2]
        hit = np.flatnonzero(core.indices[start:stop] == v - 1)
        if hit.size == 0:
            raise NotAdjacentError(f"vertex {v} is not incident to edge {e}")
        return int(core.signs[core.slot[start + hit[0]]])

    @property
    def incidence_count(self) -> int:
        return sum(len(edge) for edge in self.edges)

    def with_orientations(
        self, edges: tuple[tuple[tuple[int, int], ...], ...]
    ) -> "OrientedHypergraph":
        return replace(self, edges=edges)


@dataclass(frozen=True)
class SignedHypergraph(_IncidenceStructure):
    """Hypergraph with a +1/-1 sign per edge (orientations forgotten)."""

    n: int
    edges: tuple[tuple[int, ...], ...]
    gamma: tuple[int, ...]
    names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        self._check_names()
        if len(self.gamma) != len(self.edges):
            raise InvalidValueError("gamma must assign a sign to every edge")
        for j, edge in enumerate(self.edges):
            _check_edge_vertices(self.n, j, edge)
            if self.gamma[j] not in (-1, 1):
                raise InvalidValueError(f"edge {j}: sign must be +1 or -1")

    def members(self, e: int) -> tuple[int, ...]:
        self.check_edge(e)
        return self.edges[e]

    def sign(self, e: int) -> int:
        self.check_edge(e)
        return self.gamma[e]

    def with_gamma(self, gamma: tuple[int, ...]) -> "SignedHypergraph":
        return replace(self, gamma=gamma)


def structures_match(
    a: OrientedHypergraph | SignedHypergraph,
    b: OrientedHypergraph | SignedHypergraph,
) -> bool:
    """Same vertex count and the same vertex set at every edge index.

    Compares the vertex rows of the two incidence cores, which list each
    vertex's edges in ascending order whatever the member order.
    """
    if a.n != b.n or a.m != b.m:
        return False
    ca, cb = a.incidence_core, b.incidence_core
    return np.array_equal(ca.indptr[: a.n + 1], cb.indptr[: b.n + 1]) and (
        np.array_equal(ca.indices[: ca.size], cb.indices[: cb.size])
    )


def build(
    n: int,
    edge_specs: list | tuple,
    names: list[str] | tuple[str, ...] | None = None,
) -> OrientedHypergraph:
    """Validated construction from (vertex, orientation) pair lists.

    Raises EmptyEdgeError, VertexOutOfRangeError or
    DuplicateVertexInEdgeError naming the offending edge index.
    """
    edges = tuple(tuple((int(v), int(s)) for v, s in spec) for spec in edge_specs)
    return OrientedHypergraph(n, edges, tuple(names) if names else ())


def build_signed(
    n: int,
    edge_sets: list | tuple,
    gamma: list[int] | tuple[int, ...],
    names: list[str] | tuple[str, ...] | None = None,
) -> SignedHypergraph:
    edges = tuple(tuple(int(v) for v in edge) for edge in edge_sets)
    return SignedHypergraph(n, edges, tuple(int(g) for g in gamma),
                            tuple(names) if names else ())


def _gamma(orientations: tuple[int, ...] | list[int]) -> int:
    """Sign of an edge with these +-1 orientations; see edge_sign."""
    return -1 if (len(orientations) - 1 + orientations.count(-1)) % 2 else 1


def edge_sign(g: OrientedHypergraph, e: int) -> int:
    """Sign of edge e: (-1)^(|e|-1) times the product of its orientations."""
    g.check_edge(e)
    return _gamma([s for _, s in g.edges[e]])


def adjacency_sign(g: OrientedHypergraph, u: int, v: int, e: int) -> int:
    """Sign of the adjacency (u, v; e): minus the product of the two orientations."""
    if u == v:
        raise NotAdjacentError(f"adjacency requires distinct vertices, got {u} twice")
    return -g.orientation(e, u) * g.orientation(e, v)


def induced_signed(g: OrientedHypergraph) -> SignedHypergraph:
    """Forget orientations, keeping each edge's sign."""
    edges, gamma = [], []
    for edge in g.edges:
        members, orientations = zip(*edge)
        edges.append(members)
        gamma.append(_gamma(orientations))
    return SignedHypergraph._derived(g, None, edges=tuple(edges), gamma=tuple(gamma))


def all_positive_variant(g: OrientedHypergraph) -> OrientedHypergraph:
    """Same structure with every orientation set to +1."""
    signs = np.ones(g.incidence_core.size, dtype=np.intp)
    signs.setflags(write=False)
    edges = tuple([tuple([(v, 1) for v, _ in edge]) for edge in g.edges])
    return OrientedHypergraph._derived(g, signs, edges=edges)


def uniform_edge_size(h: OrientedHypergraph | SignedHypergraph) -> int | None:
    """Common edge size k, or None when edges have mixed sizes or are absent."""
    sizes = {len(edge) for edge in h.edges}
    return sizes.pop() if len(sizes) == 1 else None
