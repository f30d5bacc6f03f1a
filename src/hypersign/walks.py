"""Walks over the vertex/edge incidence structure and their signs.

A walk alternates vertices and edges; each consecutive pair is an
incidence.  The incidence sign of a walk is the product of the
orientations along it; the adjacency sign additionally carries a factor
(-1)^floor(t/2) for a walk of t incidences.

Cycle and path enumeration here are deliberate brute-force oracles for
small instances (the incidence structure of a few dozen nodes); the
balance module has the linear-time decision procedure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .core import OrientedHypergraph, SignedHypergraph
from .errors import (
    DisconnectedPairError,
    InvalidWalkError,
    NotAdjacentError,
    UnknownEdgeError,
    UnknownVertexError,
)

__all__ = [
    "VERTEX",
    "EDGE",
    "Element",
    "vertex_node",
    "edge_node",
    "Walk",
    "walk_incidences",
    "incidence_sign_of",
    "adjacency_sign_of",
    "canonical_cycle",
    "fundamental_cycle",
    "is_connected",
    "incidence_adjacency",
    "connected_components",
    "CycleEnumeration",
    "enumerate_cycles",
    "PathSignReport",
    "paths_sign_consistent",
]

VERTEX = "v"
EDGE = "e"

Element = tuple[str, int]


def vertex_node(v: int) -> Element:
    return (VERTEX, v)


def edge_node(e: int) -> Element:
    return (EDGE, e)


@dataclass(frozen=True)
class Walk:
    """Alternating element sequence a0, a1, ..., a_t (incidences implicit).

    Each element is ("v", vertex id) or ("e", edge index).  The j-th
    incidence is the (edge, vertex) pair formed by elements j-1 and j.
    """

    elements: tuple[Element, ...]

    def __post_init__(self) -> None:
        if len(self.elements) == 0:
            raise InvalidWalkError("a walk has at least one element")
        for el in self.elements:
            if (
                not isinstance(el, tuple)
                or len(el) != 2
                or el[0] not in (VERTEX, EDGE)
                or not isinstance(el[1], int)
            ):
                raise InvalidWalkError(f"malformed element {el!r}")
        for a, b in zip(self.elements, self.elements[1:]):
            if a[0] == b[0]:
                raise InvalidWalkError(
                    "consecutive elements must alternate between vertices and edges"
                )

    @property
    def length(self) -> int:
        """Number of incidences traversed (t)."""
        return len(self.elements) - 1

    @property
    def is_closed(self) -> bool:
        return len(self.elements) > 1 and self.elements[0] == self.elements[-1]


def walk_incidences(walk: Walk, g: OrientedHypergraph) -> list[tuple[int, int, int]]:
    """(edge, vertex, orientation) triples along the walk; validates it."""
    out = []
    for a, b in zip(walk.elements, walk.elements[1:]):
        e, v = (a[1], b[1]) if a[0] == EDGE else (b[1], a[1])
        try:
            sign = g.orientation(e, v)
        except (NotAdjacentError, UnknownEdgeError, UnknownVertexError) as exc:
            raise InvalidWalkError(str(exc)) from exc
        out.append((e, v, sign))
    return out


def incidence_sign_of(walk: Walk, g: OrientedHypergraph) -> int:
    """Product of the orientations along the walk."""
    sign = 1
    for _, _, s in walk_incidences(walk, g):
        sign *= s
    return sign


def adjacency_sign_of(walk: Walk, g: OrientedHypergraph) -> int:
    """(-1)^floor(t/2) times the incidence sign, t = number of incidences."""
    return (-1) ** (walk.length // 2) * incidence_sign_of(walk, g)


def _least_rotation(seq: list[Element]) -> tuple[Element, ...]:
    """Lexicographically least rotation, found by Booth's algorithm."""
    n = len(seq)
    failure = [-1] * (2 * n)
    best = 0
    for j in range(1, 2 * n):
        current = seq[j % n]
        i = failure[j - best - 1]
        while i != -1 and current != seq[(best + i + 1) % n]:
            if current < seq[(best + i + 1) % n]:
                best = j - i - 1
            i = failure[i]
        if i == -1 and current != seq[(best + i + 1) % n]:
            if current < seq[(best + i + 1) % n]:
                best = j
            failure[j - best] = -1
        else:
            failure[j - best] = i + 1
    best %= n
    return tuple(seq[best:] + seq[:best])


def canonical_cycle(walk: Walk) -> Walk:
    """Smallest rotation/reflection of a closed walk; sign-preserving.

    Linear in the walk's length: the least rotation of each direction,
    then the smaller of the two.
    """
    if not walk.is_closed:
        raise InvalidWalkError("canonical form is defined for closed walks")
    seq = list(walk.elements[:-1])
    best = min(_least_rotation(seq), _least_rotation(seq[::-1]))
    return Walk(best + (best[0],))


def fundamental_cycle(n: int, parent: dict[int, int], x: int, y: int) -> Walk:
    """Closed walk through the tree paths to nodes x and y plus the step x-y.

    ``parent`` maps incidence-structure node ids to their search-tree
    parents (roots map to themselves); node ids follow the vertex-first
    convention, so ``n`` converts them back to elements.  The result is
    trimmed at the lowest common ancestor and canonicalized.
    """

    def up(node: int) -> list[int]:
        chain = [node]
        while parent[chain[-1]] != chain[-1]:
            chain.append(parent[chain[-1]])
        return chain

    path_x = up(x)
    path_y = up(y)
    pos_in_x = {node: i for i, node in enumerate(path_x)}
    iy = 0
    while path_y[iy] not in pos_in_x:
        iy += 1
    ix = pos_in_x[path_y[iy]]
    nodes = path_x[ix::-1] + path_y[:iy]
    elements = tuple(
        (VERTEX, u + 1) if u < n else (EDGE, u - n) for u in nodes
    )
    return canonical_cycle(Walk(elements + (elements[0],)))


def propagate_labels(
    n: int, m: int, incidences: Iterable[tuple[int, int, int]]
) -> list[int] | Walk:
    """+-1 node labels (vertices first, then edges) whose product across
    every incidence (edge j, vertex v, value) equals value, or a closed
    walk on which no such labels exist.

    Breadth-first; each component is rooted at its smallest node with
    label +1, which makes the result deterministic.
    """
    adj: list[list[int]] = [[] for _ in range(n + m)]
    value: dict[tuple[int, int], int] = {}
    for j, v, s in incidences:
        adj[v - 1].append(n + j)
        adj[n + j].append(v - 1)
        value[(v - 1, n + j)] = s
    label = [0] * (n + m)
    parent: dict[int, int] = {}
    for root in range(n + m):
        if label[root]:
            continue
        label[root] = 1
        parent[root] = root
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                want = label[x] * value[(x, y) if x < n else (y, x)]
                if label[y] == 0:
                    label[y] = want
                    parent[y] = x
                    queue.append(y)
                elif label[y] != want:
                    return fundamental_cycle(n, parent, x, y)
    return label


# ---------------------------------------------------------------------------
# Incidence-structure connectivity.
# Node ids: vertex v -> v - 1, edge j -> n + j.


def incidence_adjacency(h: OrientedHypergraph | SignedHypergraph) -> list[list[int]]:
    n = h.n
    adj: list[list[int]] = [[] for _ in range(n + h.m)]
    for j in range(h.m):
        for v in h.members(j):
            adj[v - 1].append(n + j)
            adj[n + j].append(v - 1)
    return adj


def _node_element(h, node: int) -> Element:
    return (VERTEX, node + 1) if node < h.n else (EDGE, node - h.n)


def _element_node(h, el: Element) -> int:
    kind, ident = el
    if kind == VERTEX:
        h.check_vertex(ident)
        return ident - 1
    h.check_edge(ident)
    return h.n + ident


def connected_components(h: OrientedHypergraph | SignedHypergraph) -> list[list[int]]:
    """Components of the incidence structure, as lists of node ids."""
    adj = incidence_adjacency(h)
    seen = [False] * len(adj)
    comps = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        comp = []
        while queue:
            x = queue.pop()
            comp.append(x)
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
        comps.append(sorted(comp))
    return comps


def is_connected(h: OrientedHypergraph | SignedHypergraph) -> bool:
    """True iff any two elements of the vertex/edge node set are joined.

    Isolated vertices disconnect the structure; a single element (or the
    empty structure) counts as connected.
    """
    return len(connected_components(h)) <= 1


# ---------------------------------------------------------------------------
# Brute-force cycle oracle.


@dataclass(frozen=True)
class CycleEnumeration:
    cycles: tuple[tuple[Walk, int], ...]
    truncated: bool


def _simple_node_cycles(adj: list[list[int]], max_count: int):
    """All simple cycles of an undirected graph, as node lists (no closing
    repeat).  Each cycle found once: minimal node first, smaller second node.
    """
    cycles: list[list[int]] = []
    for s in range(len(adj)):
        stack: list[tuple[int, int]] = [(s, 0)]
        path = [s]
        on_path = {s}
        while stack:
            node, ptr = stack[-1]
            advanced = False
            neighbors = adj[node]
            while ptr < len(neighbors):
                nxt = neighbors[ptr]
                ptr += 1
                if nxt < s:
                    continue
                if nxt == s:
                    if len(path) >= 3 and path[1] < path[-1]:
                        cycles.append(list(path))
                        if len(cycles) >= max_count:
                            return cycles, True
                elif nxt not in on_path:
                    stack[-1] = (node, ptr)
                    stack.append((nxt, 0))
                    path.append(nxt)
                    on_path.add(nxt)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_path.discard(path.pop())
    return cycles, False


def enumerate_cycles(
    g: OrientedHypergraph, max_count: int = 10_000
) -> CycleEnumeration:
    """Every simple cycle of the incidence structure with its incidence sign.

    Exponential in the worst case; intended as a test oracle for small
    instances.  Truncation at max_count is flagged, not raised.
    """
    node_cycles, truncated = _simple_node_cycles(incidence_adjacency(g), max_count)
    out = []
    for nodes in node_cycles:
        elements = tuple(_node_element(g, u) for u in nodes)
        walk = canonical_cycle(Walk(elements + (elements[0],)))
        out.append((walk, incidence_sign_of(walk, g)))
    return CycleEnumeration(tuple(out), truncated)


# ---------------------------------------------------------------------------
# Brute-force path-sign oracle.


@dataclass(frozen=True)
class PathSignReport:
    consistent: bool
    truncated: bool
    paths_seen: int

    def __bool__(self) -> bool:
        return self.consistent


def paths_sign_consistent(
    g: OrientedHypergraph,
    a: Element,
    b: Element,
    max_paths: int = 10_000,
) -> PathSignReport:
    """Whether every simple path between elements a and b has one sign.

    Stops early with consistent=False once two paths of opposite sign
    are seen; flags truncation when max_paths same-signed paths were
    enumerated without exhausting the search.  Raises DisconnectedPairError
    when no path joins a to b.
    """
    source = _element_node(g, a)
    target = _element_node(g, b)
    if source == target:
        return PathSignReport(consistent=True, truncated=False, paths_seen=1)
    adj = incidence_adjacency(g)
    orientations = {}
    for j in range(g.m):
        for v, s in g.edges[j]:
            orientations[(v - 1, g.n + j)] = s

    def step_sign(x: int, y: int) -> int:
        return orientations.get((x, y)) or orientations[(y, x)]

    first_sign = 0
    count = 0
    stack: list[tuple[int, int]] = [(source, 0)]
    path = [source]
    on_path = {source}
    signs = [1]
    while stack:
        node, ptr = stack[-1]
        advanced = False
        neighbors = adj[node]
        while ptr < len(neighbors):
            nxt = neighbors[ptr]
            ptr += 1
            if nxt in on_path:
                continue
            sign_here = signs[-1] * step_sign(node, nxt)
            if nxt == target:
                count += 1
                if first_sign == 0:
                    first_sign = sign_here
                elif sign_here != first_sign:
                    return PathSignReport(False, False, count)
                if count >= max_paths:
                    return PathSignReport(True, True, count)
                continue
            stack[-1] = (node, ptr)
            stack.append((nxt, 0))
            path.append(nxt)
            on_path.add(nxt)
            signs.append(sign_here)
            advanced = True
            break
        if not advanced:
            stack.pop()
            on_path.discard(path.pop())
            signs.pop()
    if count == 0:
        raise DisconnectedPairError(f"no path joins {a} to {b}")
    return PathSignReport(True, False, count)
