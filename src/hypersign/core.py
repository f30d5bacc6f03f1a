"""Oriented and signed hypergraphs and their elementary sign functions.

Vertices carry dense integer ids 1..n.  An edge is an ordered tuple of
(vertex, orientation) pairs, orientation +1 or -1; the pair (e, v) is an
incidence.  Edges keep insertion order so certificates are reproducible.
Parallel edges (repeated vertex sets) are allowed; a vertex appears at
most once within an edge.  All values are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator

from .errors import (
    DuplicateVertexInEdgeError,
    EmptyEdgeError,
    NotAdjacentError,
    UnknownEdgeError,
    UnknownVertexError,
    VertexOutOfRangeError,
)

__all__ = [
    "Incidence",
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


@dataclass(frozen=True)
class Incidence:
    """One (edge, vertex) pair together with its orientation."""

    edge: int
    vertex: int
    sign: int


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


class _IncidenceStructure:
    """What both hypergraph kinds share: vertex ids 1..n, edge indices
    0..m-1 with optional names, and the edges at each vertex."""

    def _check_names(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if not self.names:
            object.__setattr__(self, "names", _default_names(len(self.edges)))
        if len(self.names) != len(self.edges):
            raise ValueError("names must match edge count")

    @property
    def m(self) -> int:
        return len(self.edges)

    def check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise UnknownVertexError(v, self.n)

    def check_edge(self, e: int) -> None:
        if not 0 <= e < self.m:
            raise UnknownEdgeError(e, self.m)

    def edges_of(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return self._edges_of[v - 1]

    def degree(self, v: int) -> int:
        return len(self.edges_of(v))

    @cached_property
    def _edges_of(self) -> tuple[tuple[int, ...], ...]:
        buckets: list[list[int]] = [[] for _ in range(self.n)]
        for e in range(self.m):
            for v in self.members(e):
                buckets[v - 1].append(e)
        return tuple(tuple(b) for b in buckets)


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
                    raise ValueError(
                        f"edge {j}: orientation at vertex {v} must be +1 or -1"
                    )

    def members(self, e: int) -> tuple[int, ...]:
        """Vertices of edge e, in stored order."""
        self.check_edge(e)
        return tuple(v for v, _ in self.edges[e])

    def orientation(self, e: int, v: int) -> int:
        self.check_edge(e)
        s = self._orientations.get((e, v))
        if s is None:
            raise NotAdjacentError(f"vertex {v} is not incident to edge {e}")
        return s

    def incidences(self) -> Iterator[Incidence]:
        for e, edge in enumerate(self.edges):
            for v, s in edge:
                yield Incidence(e, v, s)

    @property
    def incidence_count(self) -> int:
        return sum(len(edge) for edge in self.edges)

    @cached_property
    def _orientations(self) -> dict[tuple[int, int], int]:
        return {(e, v): s for e, edge in enumerate(self.edges) for v, s in edge}

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
            raise ValueError("gamma must assign a sign to every edge")
        for j, edge in enumerate(self.edges):
            _check_edge_vertices(self.n, j, edge)
            if self.gamma[j] not in (-1, 1):
                raise ValueError(f"edge {j}: sign must be +1 or -1")

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
    """Same vertex count and the same vertex set at every edge index."""
    if a.n != b.n or a.m != b.m:
        return False
    return all(sorted(a.members(j)) == sorted(b.members(j)) for j in range(a.m))


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


def edge_sign(g: OrientedHypergraph, e: int) -> int:
    """Sign of edge e: (-1)^(|e|-1) times the product of its orientations."""
    g.check_edge(e)
    prod = 1
    for _, s in g.edges[e]:
        prod *= s
    return (-1) ** (len(g.edges[e]) - 1) * prod


def adjacency_sign(g: OrientedHypergraph, u: int, v: int, e: int) -> int:
    """Sign of the adjacency (u, v; e): minus the product of the two orientations."""
    if u == v:
        raise NotAdjacentError(f"adjacency requires distinct vertices, got {u} twice")
    return -g.orientation(e, u) * g.orientation(e, v)


def induced_signed(g: OrientedHypergraph) -> SignedHypergraph:
    """Forget orientations, keeping each edge's sign."""
    return SignedHypergraph(
        g.n,
        tuple(g.members(e) for e in range(g.m)),
        tuple(edge_sign(g, e) for e in range(g.m)),
        g.names,
    )


def all_positive_variant(g: OrientedHypergraph) -> OrientedHypergraph:
    """Same structure with every orientation set to +1."""
    return g.with_orientations(
        tuple(tuple((v, 1) for v, _ in edge) for edge in g.edges)
    )


def uniform_edge_size(h: OrientedHypergraph | SignedHypergraph) -> int | None:
    """Common edge size k, or None when edges have mixed sizes or are absent."""
    sizes = {len(edge) for edge in h.edges}
    if len(sizes) != 1:
        return None
    return sizes.pop()
