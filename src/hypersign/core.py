"""Oriented and signed hypergraphs and their elementary sign functions.

Vertices carry dense integer ids 1..n.  An edge is an ordered tuple of
(vertex, orientation) pairs, orientation +1 or -1; the pair (e, v) is an
incidence.  Edges keep insertion order so certificates are reproducible.
Parallel edges (repeated vertex sets) are allowed; a vertex appears at
most once within an edge.  All values are immutable after construction
and safe to share across threads; the one store that fills in later, a
core's structure-only results, is described below.

An instance is validated once, when it is constructed from outside
data.  The constructors check the stored edges value by value, and the
instance's incidence core is built on its first use.  The file readers
convert a file's incidences to arrays, build the core from them and
check it there, so a read instance carries its core from the start.
Copies derived from an instance (induced signing, all-positive variant,
switched copies) are trusted and share their parent's core arrays, all
but the signs.  Every structural question reads the incidence core.
``edges`` is stored by the constructors; a read or derived instance keeps
only its core, and builds ``edges`` from it the first time it is read
(``members``, ``edge_sign``, equality), then keeps it.  Serialization
reads whichever of the two an instance has.

A core also keeps the results that read no sign: the connectivity
roots (walks), the NQZ spectral radius (tensor) and the GF(2) reduction
of the full edge system's left-hand side (switching), each computed at
most once per structure and key, on first use, and kept as long as the
core.  The reduction is the largest: it is bounded by
linalg.GF2_MAX_BASIS_BYTES per structure, the same bound as during a
call.  Derived copies share this store along with the arrays, so an
instance, its induced signing and its switched copies compute each of
these once between them; two instances read or built apart do not share
it, whatever their structure.  Concurrent first calls may both compute a
result; they store equal values, and later calls read one of them.  The
reduction alone changes after it is stored: the store holds it in a
one-element list, and each signing replaces it with the copy its solve
returns, carried as far as that signing needed.  Racing solves each
store a valid reduction of the same rows, so no answer depends on which
one is stored last.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, islice, repeat
from numbers import Real
from typing import Iterable

import numpy as np

from .errors import (
    DuplicateVertexInEdgeError,
    EmptyEdgeError,
    InternalCheckError,
    InvalidValueError,
    NotAdjacentError,
    UnknownEdgeError,
    UnknownVertexError,
    VertexLimitExceededError,
    VertexOutOfRangeError,
    check_integer,
    is_integer,
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
        # errors.is_integer's rule, inlined because it runs per incidence, and
        # narrowed to the plain ints that an instance stores.
        if type(v) is not int or v < 1 or v > n:
            raise VertexOutOfRangeError(index, v, n)
        if v in seen:
            raise DuplicateVertexInEdgeError(index, v)
        seen.add(v)


def _check_vertex_count(n, name: str = "vertex count") -> int:
    n = check_integer(n, name)
    if n < 0:
        raise InvalidValueError(f"{name} must be nonnegative")
    if n > MAX_VERTICES:
        raise VertexLimitExceededError(n, MAX_VERTICES)
    return n


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
    # Results that read no sign, by key; shared with the cores of derived copies.
    _results: dict = field(default_factory=dict, init=False, repr=False)

    def _once(self, key, compute):
        """compute(), run the first time key is asked of this structure and
        stored; the stored result thereafter.  Only for results that read
        no sign and are not changed once stored, save the entry of the
        parity route's one-element list.  An exception stores nothing."""
        result = self._results.get(key)
        if result is None:
            result = self._results[key] = compute()
        return result

    @property
    def size(self) -> int:
        """Number of incidences; entries below it form the vertex rows."""
        return self.slot.size // 2

    def edge_major(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge index and vertex node of each incidence, in edge-major order."""
        return self.edge_ids, self.indices[self.size :]

    def edge_sizes(self) -> np.ndarray:
        """Number of members of each edge, in edge order."""
        ends = self.indptr[self.n :]
        return ends[1:] - ends[:-1]


def _by_edge(items: Iterable, sizes: list[int]) -> tuple[tuple, ...]:
    """items, one per incidence in edge-major order, cut into one tuple per edge."""
    return tuple(map(tuple, map(islice, repeat(iter(items)), sizes)))


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """keys.argsort(kind="stable") for integer keys in [0, bound).

    Computed by least-significant-digit passes over 16-bit digits, since
    numpy radix-sorts uint16 keys: one pass while bound <= 2**16, one more
    per further 16 bits.  Each pass is stable, so it orders by its digit
    and keeps the order of the passes before it among equal digits (Knuth,
    TAOCP vol. 3, 5.2.5).  Keys outside the range are cut to their low
    bits, so the caller checks the range first.
    """
    order = keys.astype(np.uint16).argsort(kind="stable")
    shift = 16
    while bound > 1 << shift:
        digit = (keys >> shift).astype(np.uint16)[order]
        order = order[digit.argsort(kind="stable")]
        shift += 16
    return order


def _checked_core(
    h: OrientedHypergraph | SignedHypergraph,
    sizes: np.ndarray,
    members: np.ndarray,
    signs: np.ndarray | None,
) -> IncidenceCore | None:
    """The incidence core of h from its edge sizes, members and orientations
    (intp arrays; signs None for a signed hypergraph), or None if they hold
    a fault.

    The checks are a few passes over the arrays.  The members are checked
    against 1..n first, because the by-vertex order that the core needs
    anyway is a radix sort that reads only their low bits.  That order is
    stable: it lists the incidences by vertex and, within a vertex, by edge,
    so the (vertex, edge) keys in that order rise strictly unless an edge
    repeats a vertex.  Which edge is at fault, and how, is for the
    constructor's value check to say.
    """
    n, m, total = h.n, sizes.size, members.size
    if np.count_nonzero(sizes) < m or total and not (1 <= members.min() and members.max() <= n):
        return None
    edge_ids = np.arange(m).repeat(sizes)
    by_vertex = _stable_order(members, n + 1)
    ordered, vertex_edges = members[by_vertex], edge_ids[by_vertex]
    keys = ordered * m + vertex_edges  # within int64: members are in range
    if np.count_nonzero(keys[1:] - keys[:-1]) < total - 1 or (
        signs is not None and np.count_nonzero(np.abs(signs) - 1)
    ):
        return None
    # Vertex 0 has no incidences, so the running count of the degrees of
    # vertices 0..n and then of the edge sizes is the row pointer.
    indptr = np.add.accumulate(np.concatenate((np.bincount(members, minlength=n + 1), sizes)))
    indices = np.concatenate((vertex_edges + n, members - 1))
    slot = np.concatenate((by_vertex, np.arange(total)))
    for arr in (indptr, indices, slot, signs, edge_ids):
        if arr is not None:
            arr.setflags(write=False)
    return IncidenceCore(n, indptr, indices, slot, signs, edge_ids)


def _build_core(h: OrientedHypergraph | SignedHypergraph) -> IncidenceCore:
    """The incidence core of h's stored edges, which its constructor checked."""
    sizes = np.fromiter(map(len, h.edges), dtype=np.intp, count=h.m)
    values = chain.from_iterable(h.edges)
    if isinstance(h, SignedHypergraph):
        core = _checked_core(h, sizes, np.array(list(values), dtype=np.intp), None)
    else:
        values = np.array(list(chain.from_iterable(values)), dtype=np.intp)
        core = _checked_core(h, sizes, values[0::2], values[1::2].copy())
    if core is None:
        raise InternalCheckError("internal check failed: the core refused checked values")
    return core


def _build_edges(h: OrientedHypergraph | SignedHypergraph) -> tuple[tuple, ...]:
    """The stored form of h's edges, cut from its incidence core: the tuples
    and ints that h's constructor would have stored."""
    core = h.incidence_core
    items = (core.edge_major()[1] + 1).tolist()
    if core.signs is not None:  # (vertex, orientation) pairs
        items = zip(items, core.signs.tolist())
    return _by_edge(items, core.edge_sizes().tolist())


class _IncidenceStructure:
    """What both hypergraph kinds share: vertex ids 1..n, edge indices
    0..m-1 with optional names, and the incidence core."""

    def __post_init__(self) -> None:
        """Check n, the names and then each edge, one value at a time."""
        object.__setattr__(self, "n", _check_vertex_count(self.n))
        if not self.names:
            object.__setattr__(self, "names", tuple(f"e{j + 1}" for j in range(len(self.edges))))
        elif len(self.names) != len(self.edges):
            raise InvalidValueError("names must match edge count")
        elif not all(isinstance(name, str) for name in self.names) or (
            # Joined by spaces and split again, the names come back unchanged
            # exactly when each is a non-empty string free of whitespace.
            " ".join(self.names).split() != list(self.names)
        ):
            raise InvalidValueError(
                "edge names must be non-empty strings without whitespace"
            )
        elif len(set(self.names)) != len(self.names):
            raise InvalidValueError("edge names must be distinct")
        for j in range(self.m):
            self._check_edge(j)

    @classmethod
    def _derived(cls, parent, signs: np.ndarray | None, **fields):
        """A cls over parent's members with new valid labels ``fields``, unchecked;
        its core is parent's with ``signs`` (read-only; None for a signed copy),
        and shares parent's arrays and store of structure-only results."""
        copy, c = object.__new__(cls), parent.incidence_core
        core = IncidenceCore(c.n, c.indptr, c.indices, c.slot, signs, c.edge_ids)
        object.__setattr__(core, "_results", c._results)
        vars(copy).update(n=parent.n, names=parent.names, incidence_core=core, **fields)
        return copy

    def __getattr__(self, name: str):
        """``edges`` of a read or derived instance, built on its first read."""
        if name != "edges":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        edges = vars(self)["edges"] = _build_edges(self)
        return edges

    @property
    def m(self) -> int:
        return len(self.names)

    @cached_property
    def incidence_core(self) -> IncidenceCore:
        """Built by the file reader or on first use, kept for life and shared
        with derived copies."""
        return _build_core(self)

    def check_vertex(self, v: int) -> None:
        if not is_integer(v) or not 1 <= v <= self.n:
            raise UnknownVertexError(v, self.n)

    def check_edge(self, e: int) -> None:
        if not is_integer(e) or not 0 <= e < self.m:
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

    @classmethod
    def _read(
        cls,
        n: int,
        sizes: np.ndarray,
        members: np.ndarray,
        signs: np.ndarray,
        names: tuple[str, ...],
    ) -> "OrientedHypergraph":
        """Validated construction from a file reader: intp arrays of the size
        of each edge and of the vertex and the orientation of each incidence
        in edge-major order, and one name per edge, which the reader has
        checked as the constructor would.  The edges are checked on the
        incidence core built from these arrays, which the instance keeps;
        if they hold a fault, the constructor's value check names it."""
        n = _check_vertex_count(n)
        h = object.__new__(cls)
        vars(h).update(n=n, names=names)
        core = _checked_core(h, sizes, members, signs)
        if core is None:
            edges = _by_edge(zip(members.tolist(), signs.tolist()), sizes.tolist())
            return cls(n, edges, names)
        vars(h)["incidence_core"] = core
        return h

    def _check_edge(self, j: int) -> None:
        """Check edge j one value at a time, in the order errors are reported."""
        edge = self.edges[j]
        try:
            vertices = tuple(v for v, _ in edge)
        except (TypeError, ValueError):  # an incidence that does not unpack in two
            raise InvalidValueError(
                f"edge {j}: every incidence must be a (vertex, orientation) pair"
            ) from None
        _check_edge_vertices(self.n, j, vertices)
        for v, s in edge:
            # A label is real (the complex 1+0j equals 1 too); ints skip the ABC check.
            if s not in (-1, 1) or type(s) is not int and not isinstance(s, Real):
                raise InvalidValueError(f"edge {j}: orientation at vertex {v} must be +1 or -1")

    def members(self, e: int) -> tuple[int, ...]:
        """Vertices of edge e, in stored order."""
        self.check_edge(e)
        return tuple(v for v, _ in self.edges[e])

    def orientation(self, e: int, v: int) -> int:
        """Orientation of vertex v in edge e.  An integer vertex that is not
        in the edge raises NotAdjacentError, in range or not."""
        self.check_edge(e)
        if not is_integer(v):
            raise UnknownVertexError(v, self.n)
        core = self.incidence_core
        start, stop = core.indptr[self.n + e : self.n + e + 2]
        hit = np.flatnonzero(core.indices[start:stop] == v - 1)
        if hit.size == 0:
            raise NotAdjacentError(f"vertex {v} is not incident to edge {e}")
        return int(core.signs[core.slot[start + hit[0]]])

    @property
    def incidence_count(self) -> int:
        return self.incidence_core.size

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
        if len(self.gamma) != len(self.edges):
            raise InvalidValueError("gamma must assign a sign to every edge")
        super().__post_init__()

    def _check_edge(self, j: int) -> None:
        """Check edge j one value at a time, in the order errors are reported."""
        _check_edge_vertices(self.n, j, self.edges[j])
        if self.gamma[j] not in (-1, 1) or not isinstance(self.gamma[j], Real):
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


def _integer(value):
    """value as an int if it is an integer (errors.is_integer: numpy's too,
    never a bool), else unchanged, for the constructor to check."""
    return int(value) if is_integer(value) else value


def _pairs(spec) -> tuple:
    """The incidences of spec as pairs of _integer values, or spec itself
    when one of them is not a pair, for the constructor to refuse."""
    spec = tuple(spec)
    try:
        # Plain int pairs, the common case, meet errors.is_integer's rule,
        # inlined here to spare a Python call per value.
        pairs = tuple([(v, s) for v, s in spec if type(v) is int is type(s)])
        if len(pairs) == len(spec):
            return pairs
        return tuple([(_integer(v), _integer(s)) for v, s in spec])
    except (TypeError, ValueError):
        return spec


def build(
    n: int,
    edge_specs: list | tuple,
    names: list[str] | tuple[str, ...] | None = None,
) -> OrientedHypergraph:
    """Validated construction from (vertex, orientation) pair lists.

    Integers of any type (numpy's too, but not bool) are stored as ints, and
    other values reach the constructor as they are.  Raises EmptyEdgeError,
    VertexOutOfRangeError, DuplicateVertexInEdgeError or InvalidValueError
    naming the first offending edge index.
    """
    edges = tuple(map(_pairs, edge_specs))
    return OrientedHypergraph(n, edges, tuple(names) if names else ())


def build_signed(
    n: int,
    edge_sets: list | tuple,
    gamma: list[int] | tuple[int, ...],
    names: list[str] | tuple[str, ...] | None = None,
) -> SignedHypergraph:
    edges = tuple(tuple(map(_integer, edge)) for edge in edge_sets)
    return SignedHypergraph(n, edges, tuple(map(_integer, gamma)), tuple(names) if names else ())


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
    """Forget orientations, keeping each edge's sign (see edge_sign)."""
    core = g.incidence_core
    sizes = core.edge_sizes()
    negatives = np.bincount(core.edge_ids[core.signs < 0], minlength=g.m)
    gamma = np.where((sizes - 1 + negatives) % 2, -1, 1).tolist()
    return SignedHypergraph._derived(g, None, gamma=tuple(gamma))


def all_positive_variant(g: OrientedHypergraph) -> OrientedHypergraph:
    """Same structure with every orientation set to +1."""
    signs = np.ones(g.incidence_core.size, dtype=np.intp)
    signs.setflags(write=False)
    return OrientedHypergraph._derived(g, signs)


def uniform_edge_size(h: OrientedHypergraph | SignedHypergraph) -> int | None:
    """Common edge size k, or None when edges have mixed sizes or are absent."""
    sizes = h.incidence_core.edge_sizes()
    return int(sizes[0]) if sizes.size and (sizes == sizes[0]).all() else None
