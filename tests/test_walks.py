import math
import random
import tracemalloc

import numpy as np
import pytest

import hypersign as hs
from hypersign.core import IncidenceCore
from hypersign.errors import DisconnectedPairError, InternalCheckError, InvalidWalkError
from hypersign.walks import (
    EDGE,
    VERTEX,
    Walk,
    _component_roots,
    _conflict_cycle,
    _least_rotation,
    _propagate_labels,
    edge_node,
    vertex_node,
)

from _oracles import (
    canonical_cycle_by_rotations,
    connected_components_by_dfs,
    propagate_labels_by_dict,
)


def test_walk_validation():
    w = Walk(((VERTEX, 1), (EDGE, 0), (VERTEX, 2)))
    assert w.length == 2
    assert not w.is_closed
    with pytest.raises(InvalidWalkError):
        Walk(())
    with pytest.raises(InvalidWalkError):
        Walk(((VERTEX, 1), (VERTEX, 2)))
    with pytest.raises(InvalidWalkError):
        Walk((("x", 1),))


def test_element_kinds_are_the_strings_v_and_e(triangle):
    # An array as the kind would be compared elementwise by ``in``; it is
    # a malformed element, as is any kind that is not the str "v" or "e".
    for kind in (np.array(["v", "e"]), np.array("v"), np.str_("v"), b"v", None):
        with pytest.raises(InvalidWalkError, match="malformed element"):
            Walk(((kind, 1),))
        with pytest.raises(InvalidWalkError, match="malformed element"):
            Walk(((VERTEX, 2), (EDGE, 0), (kind, 1), (EDGE, 1), (VERTEX, 2)))
        with pytest.raises(InvalidWalkError, match="malformed element"):
            hs.paths_sign_consistent(triangle, (kind, 1), (VERTEX, 2))
        with pytest.raises(InvalidWalkError, match="malformed element"):
            hs.paths_sign_consistent(triangle, (VERTEX, 2), (kind, 1))


def test_walk_ids_follow_the_id_contract(triangle):
    # A bool is not an id, as for every vertex and edge lookup; a numpy
    # integer is one, and is stored as a Python int.
    for bad in ((VERTEX, True), (EDGE, False), (VERTEX, np.bool_(True)), (VERTEX, 1.0)):
        with pytest.raises(InvalidWalkError, match="malformed element"):
            Walk((bad,))
        with pytest.raises(InvalidWalkError, match="malformed element"):
            Walk(((VERTEX, 2), (EDGE, 0), bad, (EDGE, 1), (VERTEX, 2)))
    w = Walk(((VERTEX, np.int64(1)), (EDGE, np.intp(0)), (VERTEX, np.uint8(2))))
    assert w.elements == ((VERTEX, 1), (EDGE, 0), (VERTEX, 2))
    assert [type(ident) for _, ident in w.elements] == [int, int, int]
    assert w == Walk(((VERTEX, 1), (EDGE, 0), (VERTEX, 2)))
    assert hash(w) == hash(Walk(((VERTEX, 1), (EDGE, 0), (VERTEX, 2))))
    cycle = hs.enumerate_cycles(triangle).cycles[0][0]
    raw = Walk(tuple((kind, np.int64(ident)) for kind, ident in cycle.elements))
    assert hs.canonical_cycle(raw) == cycle


def test_walk_incidences_and_signs(e1):
    w = Walk((vertex_node(1), edge_node(0), vertex_node(2)))
    assert hs.walk_incidences(w, e1) == [(0, 1, 1), (0, 2, -1)]
    assert hs.incidence_sign_of(w, e1) == -1
    # t = 2, so the adjacency variant flips the sign once
    assert hs.adjacency_sign_of(w, e1) == 1
    bogus = Walk((vertex_node(1), edge_node(0), vertex_node(1)))
    assert hs.incidence_sign_of(bogus, e1) == 1  # repeated incidence, fine for walks


def test_walk_rejects_nonincident_steps(e1):
    w = Walk((vertex_node(2), edge_node(0), vertex_node(1), edge_node(3)))
    with pytest.raises(InvalidWalkError):
        hs.walk_incidences(w, e1)


def test_canonical_cycle_rotation_invariance(triangle):
    a = Walk(
        (
            vertex_node(1),
            edge_node(0),
            vertex_node(2),
            edge_node(2),
            vertex_node(3),
            edge_node(1),
            vertex_node(1),
        )
    )
    b = Walk(
        (
            vertex_node(3),
            edge_node(1),
            vertex_node(1),
            edge_node(0),
            vertex_node(2),
            edge_node(2),
            vertex_node(3),
        )
    )
    ca, cb = hs.canonical_cycle(a), hs.canonical_cycle(b)
    assert ca == cb
    assert hs.incidence_sign_of(ca, triangle) == hs.incidence_sign_of(a, triangle)
    with pytest.raises(InvalidWalkError):
        hs.canonical_cycle(Walk((vertex_node(1), edge_node(0), vertex_node(2))))


def test_connected_components(e1):
    assert hs.is_connected(e1)
    two_parts = hs.build(4, [[(1, 1), (2, 1)], [(3, 1), (4, -1)]])
    comps = hs.connected_components(two_parts)
    assert len(comps) == 2
    assert not hs.is_connected(two_parts)
    # isolated vertex disconnects
    iso = hs.build(3, [[(1, 1), (2, 1)]])
    assert not hs.is_connected(iso)
    # empty and single-vertex structures count as connected
    assert hs.is_connected(hs.build(0, []))
    assert hs.is_connected(hs.build(1, []))


def test_is_connected_matches_component_count():
    graphs = [hs.load_bundled(name) for name in hs.bundled_names()]
    rng = random.Random(17)
    for i in range(150):
        n = rng.randint(0, 12)
        m = rng.randint(0, 10) if n else 0
        graphs.append(hs.generate(n, m, size_range=(1, min(n, 4)) if m else None,
                                  p_neg=0.5, seed=rng.randrange(2**32)))
        graphs.append(hs.random_connected(random.Random(rng.randrange(2**32)),
                                          n_max=8, m_max=6))
    seen = set()
    for g in graphs:
        for h in (g, hs.induced_signed(g)):
            expected = len(connected_components_by_dfs(h)) <= 1
            assert hs.is_connected(h) == expected
            seen.add(expected)
    assert seen == {False, True}


def _bit_reversed(i: int, bits: int) -> int:
    return int(format(i, f"0{bits}b")[::-1], 2)


def _labelings(n: int, rng: random.Random) -> dict[str, list[int]]:
    """Vertex ids (0-based) for positions 0..n-1 of a shape, in orders that
    make hooking onto the least neighbouring root slow or fast."""
    zigzag = [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    bits = (n - 1).bit_length()
    return {
        "identity": list(range(n)),
        "reversed": list(range(n - 1, -1, -1)),
        "zigzag": zigzag,
        "bit-reversed": [_bit_reversed(i, bits) for i in range(n)],
        "random": shuffled,
    }


def _shapes(n: int) -> dict[str, list[tuple[int, int, int]]]:
    """Position triples (a, b, s), one edge oriented +1 at a and s at b, on
    n positions (n a multiple of 8).  Balanced: a path, a cycle, a binary
    tree and a caterpillar (a path of n/2 positions, each with one leaf).
    Unbalanced: the cycle with one incidence flipped, and four cycles on
    the positions of each residue mod 4 in which only the last two hold a
    flipped incidence (under the identity order, the first conflict lies
    in the third component, after two balanced ones of n/4 vertices)."""
    path = [(i, i + 1, -1) for i in range(n - 1)]
    spine = n // 2
    loops = [(p, p + 4 if p + 4 < n else p + 4 - n, -1) for p in range(n)]
    for c in (2, 3):
        loops[c] = (c, c + 4, 1)
    return {
        "path": path,
        "cycle": path + [(n - 1, 0, -1)],
        "binary tree": [((i - 1) // 2, i, -1) for i in range(1, n)],
        "caterpillar": path[: spine - 1] + [(i - spine, i, -1) for i in range(spine, n)],
        "flipped cycle": path + [(n - 1, 0, 1)],
        "four cycles": loops,
    }


@pytest.mark.parametrize("shape", list(_shapes(8)))
def test_components_of_slow_shapes_under_adversarial_labels(shape):
    # Shapes of 2^13 vertices, under orders that make the least root
    # travel far (a breadth-first kernel needs O(diameter) steps) and
    # orders that do not.  The round guard raises InternalCheckError if a
    # call needs more than 2 * ceil(log2(n + 1)) + 2 rounds, on the
    # labelled path too.  Each shape less its first edge, split in two
    # unless it is a cycle, runs too.  Balance and oriented switching to
    # the all-positive variant must give the labels, or name the cycle,
    # that breadth-first propagation over dicts does.
    n = 2**13
    rng = random.Random(shape)
    triples = _shapes(n)[shape]
    for name, label in _labelings(n, rng).items():
        edges = [[(label[a] + 1, 1), (label[b] + 1, s)] for a, b, s in triples]
        for specs in (edges, edges[1:]):
            g = hs.build(n, specs)
            expected = connected_components_by_dfs(g)
            assert hs.connected_components(g) == expected, name
            assert hs.is_connected(g) == (len(expected) == 1), name
            labels = propagate_labels_by_dict(
                n, g.m, [(j, v, s) for j, edge in enumerate(specs) for v, s in edge]
            )
            verdict = hs.incidence_balance(g)
            switched = hs.oriented_switch_equivalent(g, hs.all_positive_variant(g))
            unbalanced = shape == "four cycles" or shape == "flipped cycle" and specs is edges
            assert isinstance(labels, Walk) == unbalanced, name
            if unbalanced:
                assert verdict == hs.Unbalanced(cycle=labels), name
                assert switched == hs.NotEquivalent(cycle=labels), name
                continue
            assert verdict.vertex_labels == tuple(labels[:n]), name
            assert verdict.edge_labels == tuple(labels[n:]), name
            assert switched == verdict.cert, name
    if shape == "four cycles":
        g = hs.build(n, [[(a + 1, 1), (b + 1, s)] for a, b, s in triples])
        cycle = hs.incidence_balance(g).cycle
        assert {ident % 4 for kind, ident in cycle.elements if kind == VERTEX} == {3}


def test_components_of_a_long_path_with_decreasing_labels():
    n = 10**5
    g = hs.build(n, [[(n - i, 1), (n - i - 1, 1)] for i in range(n - 1)])
    assert hs.is_connected(g)
    assert hs.connected_components(g) == [list(range(2 * n - 1))]
    cut = hs.build(n, [[(n - i, 1), (n - i - 1, 1)] for i in range(1, n - 1)])
    assert not hs.is_connected(cut)
    assert hs.connected_components(cut) == [
        list(range(n - 1)) + list(range(n, 2 * n - 2)), [n - 1]
    ]


def test_round_guard_stops_a_search_that_does_not_settle():
    # Two one-vertex edges whose edge ids both name the second edge: the
    # first vertex keeps wanting to hook onto a root larger than its own,
    # so no round settles, and the guard ends the loop.
    indptr = np.array([0, 1, 2, 3, 4])
    indices = np.array([2, 3, 0, 1])
    core = IncidenceCore(2, indptr, indices, np.arange(4), None, np.array([1, 1]))
    with pytest.raises(InternalCheckError, match="rounds"):
        _component_roots(core)
    for values in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
        with pytest.raises(InternalCheckError, match="rounds"):
            _propagate_labels(core, np.array(values))


def test_conflict_search_checks_that_it_finds_a_conflict(e1, triangle):
    # The search runs only where the labelling kernel found an edge whose
    # members disagree; a component without a conflict is an internal fault.
    with pytest.raises(InternalCheckError, match="no conflicting label"):
        _conflict_cycle(e1.incidence_core, e1.incidence_core.signs, 0)
    core = triangle.incidence_core
    assert _conflict_cycle(core, core.signs, 0) == hs.incidence_balance(triangle).cycle


def _traced_peak(call, h) -> int:
    tracemalloc.start()
    try:
        call(h)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_is_connected_builds_no_component_lists():
    # 2 * 10^5 isolated vertices plus one edge: one component list per
    # vertex would dominate the peak; the search itself costs no more than
    # the balance search over the same core.
    g = hs.build(200_002, [[(1, 1), (2, -1)]])
    g.incidence_core  # built once, outside both measurements
    assert not hs.is_connected(g)
    assert _traced_peak(hs.is_connected, g) <= _traced_peak(hs.incidence_balance, g)


def test_enumerate_cycles_triangle(triangle):
    enum = hs.enumerate_cycles(triangle)
    assert not enum.truncated
    assert len(enum.cycles) == 1
    walk, sign = enum.cycles[0]
    assert walk.is_closed
    assert walk.length == 6
    assert sign == -1
    assert sign == hs.incidence_sign_of(walk, triangle)


def test_enumerate_cycles_counts():
    # a single edge has no cycles; a doubled edge has exactly one
    assert len(hs.enumerate_cycles(hs.build(2, [[(1, 1), (2, 1)]])).cycles) == 0
    doubled = hs.build(2, [[(1, 1), (2, 1)], [(1, 1), (2, -1)]])
    enum = hs.enumerate_cycles(doubled)
    assert len(enum.cycles) == 1
    assert enum.cycles[0][1] == -1
    # truncation flag trips when the budget is tiny
    ex_like = hs.build(3, [[(1, 1), (2, 1), (3, 1)], [(1, 1), (2, 1), (3, 1)]])
    full = hs.enumerate_cycles(ex_like)
    assert len(full.cycles) > 1
    cut = hs.enumerate_cycles(ex_like, max_count=1)
    assert cut.truncated
    assert len(cut.cycles) == 1


def test_cycles_within_one_edge_do_not_exist():
    g = hs.build(4, [[(1, 1), (2, -1), (3, 1), (4, 1)]])
    assert len(hs.enumerate_cycles(g).cycles) == 0


def test_paths_sign_consistent(e1, triangle):
    ok = hs.paths_sign_consistent(e1, vertex_node(1), vertex_node(2))
    assert ok.consistent and ok.paths_seen == 1
    bad = hs.paths_sign_consistent(triangle, vertex_node(1), vertex_node(2))
    assert not bad.consistent
    same = hs.paths_sign_consistent(e1, vertex_node(1), vertex_node(1))
    assert same.consistent
    # vertex-to-edge pairs work too
    mixed = hs.paths_sign_consistent(e1, vertex_node(1), edge_node(0))
    assert mixed.consistent


def test_paths_disconnected_pair():
    g = hs.build(4, [[(1, 1), (2, 1)], [(3, 1), (4, 1)]])
    with pytest.raises(DisconnectedPairError):
        hs.paths_sign_consistent(g, vertex_node(1), vertex_node(3))


def test_paths_balanced_instance_consistent_everywhere(ex):
    # switch EX to an all-positive orientation; every pair is then consistent
    plus = hs.all_positive_variant(ex)
    elements = [vertex_node(v) for v in range(1, 7)] + [edge_node(j) for j in range(3)]
    for i, a in enumerate(elements):
        for b in elements[i + 1 :]:
            assert hs.paths_sign_consistent(plus, a, b).consistent


def test_canonical_cycle_matches_all_rotations():
    # bundled instances: the certified negative cycles and every
    # enumerated cycle
    walks = []
    for name in hs.bundled_names():
        g = hs.load_bundled(name)
        verdict = hs.incidence_balance(g)
        if not verdict:
            walks.append(verdict.cycle)
        walks.extend(walk for walk, _ in hs.enumerate_cycles(g).cycles)
    # 500 seeded closed walks over few labels, so rotations tie often
    rng = random.Random(77)
    for _ in range(500):
        half = rng.randint(1, 9)
        labels = rng.randint(1, 3)
        elements = []
        for _ in range(half):
            elements.append(vertex_node(rng.randint(1, labels)))
            elements.append(edge_node(rng.randint(0, labels - 1)))
        if rng.random() < 0.5:
            elements = elements[1:] + elements[:1]
        walks.append(Walk(tuple(elements) + (elements[0],)))
    for walk in walks:
        assert hs.canonical_cycle(walk).elements == canonical_cycle_by_rotations(walk)


def test_canonical_cycle_matches_booth_on_simple_cycles_and_repeats():
    # Booth's algorithm in both directions is the referee: on seeded
    # cycles whose elements are all distinct (the shortcut) and on closed
    # walks that repeat an element (Booth's algorithm itself).
    rng = random.Random(2018)
    walks = []
    for _ in range(400):
        half = rng.randint(1, 30)
        vertices = rng.sample(range(1, 100), half)
        edges = rng.sample(range(100), half)
        elements = [node for pair in zip(map(vertex_node, vertices), map(edge_node, edges))
                    for node in pair]
        if rng.random() < 0.5:
            elements = elements[1:] + elements[:1]
        walks.append(elements)
    for _ in range(400):
        half = rng.randint(2, 12)
        elements = [node for _ in range(half) for node in (
            vertex_node(rng.randint(1, 4)), edge_node(rng.randint(0, 3)))]
        if len(set(elements)) == len(elements):
            elements += elements
        walks.append(elements)
    distinct = sum(len(set(elements)) == len(elements) for elements in walks)
    assert distinct == 400
    for elements in walks:
        best = min(_least_rotation(elements), _least_rotation(elements[::-1]))
        assert hs.canonical_cycle(Walk(tuple(elements) + (elements[0],))).elements == (
            best + (best[0],)
        )


def test_canonical_cycle_of_a_long_loose_cycle():
    # 2-uniform cycle of 2000 edges with one negative incidence: the
    # negative cycle has 4000 steps
    n = 2000
    specs = [[(v, 1), (v % n + 1, 1)] for v in range(1, n + 1)]
    specs[0][1] = (2, -1)
    verdict = hs.incidence_balance(hs.build(n, specs))
    assert not verdict and verdict.cycle.length == 2 * n
    rotated = verdict.cycle.elements[:-1]
    rotated = rotated[n + 1 :] + rotated[: n + 1]
    walk = Walk(rotated + (rotated[0],))
    assert hs.canonical_cycle(walk) == verdict.cycle
    assert verdict.cycle.elements == canonical_cycle_by_rotations(walk)


def test_oracle_budgets_are_checked(triangle):
    for bad in (True, 0, 1.5):
        with pytest.raises(hs.InvalidValueError):
            hs.enumerate_cycles(triangle, max_count=bad)
    for bad in (math.nan, math.inf, True, 0):
        with pytest.raises(hs.InvalidValueError):
            hs.paths_sign_consistent(triangle, ("v", 1), ("v", 2), max_paths=bad)
    # An element that is not a (kind, id) pair is malformed, not an edge.
    for bad in (1, ("x", 1), [("v", 1)]):
        with pytest.raises(InvalidWalkError):
            hs.paths_sign_consistent(triangle, bad, ("v", 2))
