"""Walks over the vertex/edge incidence structure and their signs.

A walk alternates vertices and edges; each consecutive pair is an
incidence.  The incidence sign of a walk is the product of the
orientations along it; the adjacency sign additionally carries a factor
(-1)^floor(t/2) for a walk of t incidences.

Every search here reads the instance's incidence core.  One
hook-and-compress kernel runs in O(log n) rounds of array operations: it
decides connectivity, and with one parity bit per vertex it labels nodes
for balance and oriented switching.  A breadth-first search runs only to
name the negative cycle when no labels exist.  One depth-first
simple-path search serves the cycle and path oracles, which are meant for
small instances (a few dozen nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import IncidenceCore, OrientedHypergraph, SignedHypergraph
from .errors import (
    DisconnectedPairError,
    InternalCheckError,
    InvalidWalkError,
    NotAdjacentError,
    UnknownEdgeError,
    UnknownVertexError,
    check_budget,
    is_integer,
)

__all__ = [
    "VERTEX",
    "EDGE",
    "Element",
    "vertex_node",
    "edge_node",
    "node_element",
    "Walk",
    "walk_incidences",
    "incidence_sign_of",
    "adjacency_sign_of",
    "canonical_cycle",
    "is_connected",
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


_KINDS = (VERTEX, EDGE)


def _is_kind(kind) -> bool:
    """Whether kind is "v" or "e"; a str first, since ``in`` on an array
    compares it elementwise."""
    return type(kind) is str and kind in _KINDS


def _element(el) -> Element:
    """el with its id as a Python int; ids follow errors.is_integer."""
    if isinstance(el, tuple) and len(el) == 2 and _is_kind(el[0]) and is_integer(el[1]):
        return (el[0], int(el[1]))
    raise InvalidWalkError(f"malformed element {el!r}")


@dataclass(frozen=True)
class Walk:
    """Alternating element sequence a0, a1, ..., a_t (incidences implicit).

    Each element is ("v", vertex id) or ("e", edge index).  The j-th
    incidence is the (edge, vertex) pair formed by elements j-1 and j.
    An id is an integer and not a bool; a numpy integer is stored as an
    int.
    """

    elements: tuple[Element, ...]

    def __post_init__(self) -> None:
        elements = self.elements
        if len(elements) == 0:
            raise InvalidWalkError("a walk has at least one element")
        # errors.is_integer's rule, inlined per element for the plain ints
        # that a walk stores; any other id goes through _element.
        if not all(
            type(el) is tuple and len(el) == 2 and type(el[0]) is str
            and el[0] in _KINDS and type(el[1]) is int
            for el in elements
        ):
            elements = tuple(map(_element, elements))
            object.__setattr__(self, "elements", elements)
        kinds = [kind for kind, _ in elements]
        other = EDGE if kinds[0] == VERTEX else VERTEX
        if kinds[0::2].count(kinds[0]) + kinds[1::2].count(other) < len(kinds):
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
    then the smaller of the two.  When no element repeats, as on every
    fundamental or enumerated cycle, both least rotations start at the
    least element; otherwise Booth's algorithm finds them.
    """
    if not walk.is_closed:
        raise InvalidWalkError("canonical form is defined for closed walks")
    return _canonical_walk(list(walk.elements[:-1]))


def _canonical_walk(seq: list[Element]) -> Walk:
    """The closed walk around the cyclic sequence seq, canonicalized as by
    canonical_cycle; one Walk is built, from the canonical elements."""
    if len(set(seq)) == len(seq):
        start = seq.index(min(seq))
        forward = seq[start:] + seq[:start]
        best = min(tuple(forward), tuple(forward[:1] + forward[:0:-1]))
    else:
        best = min(_least_rotation(seq), _least_rotation(seq[::-1]))
    return Walk(best + (best[0],))


def _fundamental_cycle(n: int, parent: list[int], x: int, y: int) -> Walk:
    """Closed walk through the tree paths to nodes x and y plus the step x-y.

    ``parent`` maps incidence-structure node ids to their search-tree
    parents (roots map to themselves); node ids follow the vertex-first
    convention, so ``n`` converts them back to elements.  The result is
    trimmed at the lowest common ancestor and canonicalized.
    """

    def up(node: int) -> list[int]:
        chain = [node]
        while parent[node] != node:
            node = parent[node]
            chain.append(node)
        return chain

    path_x = up(x)
    path_y = up(y)
    pos_in_x = {node: i for i, node in enumerate(path_x)}
    iy = 0
    while path_y[iy] not in pos_in_x:
        iy += 1
    ix = pos_in_x[path_y[iy]]
    nodes = path_x[ix::-1] + path_y[:iy]
    return _canonical_walk([node_element(n, u) for u in nodes])


def _rows(core: IncidenceCore, values) -> tuple[list[int], list[int], list[int]]:
    """The core's rows as lists, with ``values`` (one per incidence, in
    edge-major order) gathered into row order."""
    gathered = np.asarray(values)[core.slot]
    return core.indptr.tolist(), core.indices.tolist(), gathered.tolist()


def _conflict_cycle(core: IncidenceCore, values: np.ndarray, root: int) -> Walk:
    """The fundamental cycle of the first conflict that breadth-first
    propagation of +-1 labels (their product across every incidence equal
    to its entry of ``values``) meets from ``root``, labelled +1.

    Raises InternalCheckError if the component of ``root`` holds none.
    """
    n, nodes = core.n, core.indptr.size - 1
    indptr, indices, wanted = _rows(core, values)
    label = [0] * nodes
    parent = list(range(nodes))
    label[root] = 1
    queue = [root]  # the loop below reads it in order as it grows
    for x in queue:
        sign = label[x]
        for k in range(indptr[x], indptr[x + 1]):
            y, want = indices[k], sign * wanted[k]
            if not label[y]:
                label[y] = want
                parent[y] = x
                queue.append(y)
            elif label[y] != want:
                return _fundamental_cycle(n, parent, x, y)
    raise InternalCheckError(
        f"internal check failed: no conflicting label in the component of node {root}"
    )


# ---------------------------------------------------------------------------
# Incidence-structure connectivity and labels.
# Node ids: vertex v -> v - 1, edge j -> n + j.


def node_element(n: int, node: int) -> Element:
    """The vertex or edge behind an incidence-structure node id."""
    return (VERTEX, node + 1) if node < n else (EDGE, node - n)


def _element_node(h, el: Element) -> int:
    if not (isinstance(el, tuple) and len(el) == 2 and _is_kind(el[0])):
        raise InvalidWalkError(f"malformed element {el!r:.40}")
    kind, ident = el
    if kind == VERTEX:
        h.check_vertex(ident)
        return ident - 1
    h.check_edge(ident)
    return h.n + ident


def _component_roots(
    core: IncidenceCore, flips: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The smallest vertex node of each vertex's component (vertex v at
    position v - 1), and of each edge's component.

    Hook-and-compress connectivity (Shiloach and Vishkin, J. Algorithms 3,
    1982; Liu and Tarjan, SOSA 2019) on the core's edge-major arrays.  A
    forest over the vertices starts with every vertex a root, and each
    round, with every vertex pointing at its root:

    - the least root among each edge's members is read;
    - every root hooks onto the least root across its edges, if smaller;
      hooks only go to smaller roots, so no cycle forms;
    - pointer jumping makes every vertex point at its root again.

    A round in which no root hooks leaves every edge with one root, its
    least, so each tree is a whole component, rooted at its smallest
    vertex.  When every edge's least root is 0, the vertices with an edge
    all join 0 at once.

    Round bound.  Call a tree active while its component holds other
    trees.  In a round, an active tree that neither hooks nor is hooked
    onto has only neighbouring trees with larger roots.  Each of them
    hooks, and not onto this tree, so onto a smaller root; so this tree
    hooks in the next round.  Hence every active tree holds at least two
    active trees of two rounds before: the trees of a component at least
    halve every two rounds, every tree is whole after 2 * ceil(log2(n))
    rounds, and one more round hooks nothing.  The loop allows
    2 * ceil(log2(n + 1)) + 2 rounds and raises InternalCheckError past
    them.

    Parity.  Given ``flips`` (one bool per incidence, in edge-major order,
    for +-1 labels whose product across an incidence is -1 where it is
    set), every entry is root * 2 + parity instead, the parity being the
    node's label relative to its root's.  Incidence (e, v) keys edge e by
    v's root and the parity that v gives e: v's parity XOR the flip.  An
    edge takes the least of its members' keys.  A root hooking onto the
    edge's least root q takes the parity across the edge, the XOR of the
    two parities the edge has relative to q and to it; so the key passed
    to np.minimum.at is q * 2 + bit, and the hooks and the round bound
    stand as they are.  Each pointer jump XORs in the parent's parity.
    Members that give their edge different parities leave it
    unlabellable; reading them is the caller's part.
    """
    n, total = core.n, core.size
    members, edges = core.indices[total:], core.edge_ids
    starts = core.indptr[n:-1] - total
    if flips is None:
        parent, keys = np.arange(n), members
    else:
        parent, keys = np.arange(0, 2 * n, 2), (members << 1) ^ flips
    bound = 2 * n.bit_length() + 2  # bit_length is ceil(log2(n + 1))
    for _ in range(bound):
        least = np.minimum.reduceat(keys, starts)
        if flips is None:
            if not np.count_nonzero(least):
                parent[keys] = 0
                return parent[parent], least
            hooks = least[edges]
            if not np.count_nonzero(hooks != keys):
                return parent, least
            np.minimum.at(parent, keys, hooks)
            grand = parent[parent]
            while np.count_nonzero(grand != parent):
                parent, grand = grand, grand[grand]
            keys = parent[members]
        else:
            hooks = least[edges] ^ (keys & 1)
            if not np.count_nonzero((hooks ^ keys) > 1):
                return parent, least
            np.minimum.at(parent, keys >> 1, hooks)
            grand = parent[parent >> 1] ^ (parent & 1)
            while np.count_nonzero(grand != parent):
                parent, grand = grand, grand[grand >> 1] ^ (grand & 1)
            keys = parent[members] ^ flips
    raise InternalCheckError(
        f"internal check failed: components of {n} vertices unsettled after {bound} rounds"
    )


def _propagate_labels(core: IncidenceCore, values: np.ndarray) -> np.ndarray | Walk:
    """+-1 node labels, in an array (vertices first, then edges), whose
    product across every incidence equals that incidence's entry of
    ``values`` (one per incidence, in edge-major order); or a closed walk
    on which no such labels exist.

    The hook-and-compress kernel carries every node's label relative to
    its component's smallest node, a vertex, labelled +1.  If every
    edge's members give it one label, these are the labels, and the only
    ones with every smallest node at +1.  Otherwise the first component,
    in node order, that holds an edge whose members disagree is the first
    one in which breadth-first propagation over the components in node
    order meets a conflict (the components before it are balanced), and
    that search, run from its smallest node alone, names the cycle.
    """
    n, total = core.n, core.size
    flips = np.asarray(values) < 0
    codes, least = _component_roots(core, flips)
    keys = codes[core.indices[total:]] ^ flips
    most = np.maximum.reduceat(keys, core.indptr[n:-1] - total)
    split = least != most  # members that give their edge different labels
    if not np.count_nonzero(split):
        return 1 - 2 * (np.concatenate((codes, least)) & 1)
    return _conflict_cycle(core, values, int(least[split].min()) >> 1)


def connected_components(h: OrientedHypergraph | SignedHypergraph) -> list[list[int]]:
    """Components of the incidence structure, as sorted lists of node ids,
    ordered by their smallest node.

    Nodes are grouped by their component's smallest vertex, in one
    stable sort.
    """
    node_roots = np.concatenate(_component_roots(h.incidence_core))
    counts = np.bincount(node_roots)
    ends = np.add.accumulate(counts[counts.nonzero()]).tolist()
    nodes = node_roots.argsort(kind="stable").tolist()
    return [nodes[a:b] for a, b in zip([0, *ends], ends)]


def is_connected(h: OrientedHypergraph | SignedHypergraph) -> bool:
    """True iff any two elements of the vertex/edge node set are joined.

    Isolated vertices disconnect the structure; a single element (or the
    empty structure) counts as connected.  Both are read off the row
    pointers (with two nodes or more and no edge, every vertex is
    isolated); past them, connected means every vertex's component root
    is vertex node 0.
    """
    core = h.incidence_core
    n, indptr = core.n, core.indptr
    if indptr.size <= 2:
        return True
    if np.count_nonzero(indptr[1 : n + 1] == indptr[:n]):
        return False
    return not np.count_nonzero(_component_roots(core)[0])


# ---------------------------------------------------------------------------
# Brute-force oracles: one simple-path search for cycles and for paths.


def _simple_paths(
    indptr: list[int],
    indices: list[int],
    steps: list[int],
    source: int,
    target: int,
    floor: int = 0,
) -> Iterator[tuple[list[int], int]]:
    """Depth-first, every simple path from source whose next step enters
    target, with the product of ``steps`` (one per row entry) along it,
    that last step included.  Nodes below floor are never entered.  The
    yielded path is the live search path, valid until the search resumes.
    """
    path = [source]
    on_path = {source}
    signs = [1]
    pos = [indptr[source]]
    while pos:
        k = pos[-1]
        if k == indptr[path[-1] + 1]:
            pos.pop()
            on_path.discard(path.pop())
            signs.pop()
            continue
        pos[-1] = k + 1
        nxt = indices[k]
        if nxt < floor:
            continue
        sign = signs[-1] * steps[k]
        if nxt == target:
            yield path, sign
        elif nxt not in on_path:
            path.append(nxt)
            on_path.add(nxt)
            signs.append(sign)
            pos.append(indptr[nxt])


@dataclass(frozen=True)
class CycleEnumeration:
    cycles: tuple[tuple[Walk, int], ...]
    truncated: bool


def enumerate_cycles(
    g: OrientedHypergraph, max_count: int = 10_000
) -> CycleEnumeration:
    """Every simple cycle of the incidence structure with its incidence sign.

    Each cycle is found once, from its smallest node and in the direction
    of its smaller second node.  Exponential in the worst case; intended
    as a test oracle for small instances.  Truncation at max_count, an
    integer of at least 1 (errors.check_budget), is flagged, not raised.
    """
    max_count = check_budget(max_count, "max_count")
    core = g.incidence_core
    indptr, indices, steps = _rows(core, core.signs)
    out = []
    for s in range(g.n + g.m):
        for path, sign in _simple_paths(indptr, indices, steps, s, s, floor=s):
            if len(path) >= 3 and path[1] < path[-1]:
                out.append((_canonical_walk([node_element(g.n, u) for u in path]), sign))
                if len(out) >= max_count:
                    return CycleEnumeration(tuple(out), True)
    return CycleEnumeration(tuple(out), False)


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
    when no path joins a to b.  max_paths is an integer of at least 1
    (errors.check_budget).
    """
    max_paths = check_budget(max_paths, "max_paths")
    source = _element_node(g, a)
    target = _element_node(g, b)
    if source == target:
        return PathSignReport(consistent=True, truncated=False, paths_seen=1)
    core = g.incidence_core
    first_sign = 0
    count = 0
    for _, sign in _simple_paths(*_rows(core, core.signs), source, target):
        count += 1
        if first_sign == 0:
            first_sign = sign
        elif sign != first_sign:
            return PathSignReport(False, False, count)
        if count >= max_paths:
            return PathSignReport(True, True, count)
    if count == 0:
        raise DisconnectedPairError(f"no path joins {a} to {b}")
    return PathSignReport(True, False, count)
