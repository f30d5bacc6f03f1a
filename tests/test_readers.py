"""Readers and constructors against value-by-value referees: which fault
is reported first, how incidence tokens read, the incidence core an
instance is read with, and the text reader's two routes."""

import json
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypersign as hs
from hypersign import core, fileio
from hypersign.cli import main
from hypersign.errors import (
    DuplicateVertexInEdgeError,
    EmptyEdgeError,
    HypersignError,
    InvalidValueError,
    ParseError,
    VertexLimitExceededError,
    VertexOutOfRangeError,
)


# ---------------------------------------------------------------------------
# The first fault, in edge order.


def first_fault(n, edges, gamma=None):
    """The error a value-by-value check raises first: edges in order; within
    an edge its vertices in stored order, each checked for range and then
    for repetition, then its orientations (pairs) or its sign (gamma)."""
    for j, edge in enumerate(edges):
        vertices = [v for v, _ in edge] if gamma is None else list(edge)
        if not vertices:
            return EmptyEdgeError(j)
        seen = set()
        for v in vertices:
            if not 1 <= v <= n:
                return VertexOutOfRangeError(j, v, n)
            if v in seen:
                return DuplicateVertexInEdgeError(j, v)
            seen.add(v)
        if gamma is None:
            for v, s in edge:
                if s not in (-1, 1):
                    return InvalidValueError(
                        f"edge {j}: orientation at vertex {v} must be +1 or -1"
                    )
        elif gamma[j] not in (-1, 1):
            return InvalidValueError(f"edge {j}: sign must be +1 or -1")
    return None


FAULTS = ("empty", "range", "repeat", "label")


def faulty_instance(rng: random.Random, m: int, faults: int, text: bool):
    """n, oriented edges and edge signs with ``faults`` faults injected at
    random edges; text=True keeps to faults the text format can hold."""
    n = rng.randint(3, 8)
    edges = [
        [(v, rng.choice((1, -1))) for v in rng.sample(range(1, n + 1), rng.randint(1, min(n, 4)))]
        for _ in range(m)
    ]
    gamma = [rng.choice((1, -1)) for _ in range(m)]
    for _ in range(faults):
        j = rng.randrange(m)
        kind = rng.choice(FAULTS[:3] if text else FAULTS)
        edge = edges[j]
        if kind == "empty":
            edges[j] = []
        elif kind == "range":
            bad = rng.choice((0, n + 1, n + 7, 2**63, 10**19 + 7) if text else
                             (0, -1, n + 1, 2**63, -(2**63) - 1, 2**70))
            edge.insert(rng.randrange(len(edge) + 1), (bad, rng.choice((1, -1))))
        elif kind == "repeat" and edge:
            v, _ = rng.choice(edge)
            edge.insert(rng.randrange(len(edge) + 1), (v, rng.choice((1, -1))))
        elif kind == "label" and edge:
            pos = rng.randrange(len(edge))
            edge[pos] = (edge[pos][0], rng.choice((0, 2, -3, 2**64)))
            gamma[j] = rng.choice((0, 2, -2))
    return n, edges, gamma


def _json(n, edges):
    return {"n": n, "edges": [
        {"name": f"e{j + 1}", "incidences": [{"v": v, "sign": s} for v, s in edge]}
        for j, edge in enumerate(edges)
    ]}


def _text(n, edges):
    lines = [f"vertices {n}"]
    for j, edge in enumerate(edges):
        tokens = " ".join(f"{'+' if s > 0 else '-'}{v}" for v, s in edge)
        lines.append(f"edge e{j + 1} {tokens}".rstrip())
    return "\n".join(lines) + "\n"


def _assert_raises(expected, read) -> None:
    with pytest.raises(type(expected)) as err:
        read()
    assert type(err.value) is type(expected) and err.value.args == expected.args


@pytest.mark.parametrize("m", [6, 150])  # about 15 and 375 incidences
def test_every_constructor_reports_the_first_faulty_edge(m):
    rng = random.Random(1300 + m)
    seen = Counter()
    for trial in range(300):
        text = trial % 3 == 0
        n, edges, gamma = faulty_instance(rng, m, rng.randint(2, 4), text)
        oriented = first_fault(n, edges)
        members = [[v for v, _ in edge] for edge in edges]
        signed = first_fault(n, members, gamma)
        if oriented is None or signed is None:
            continue
        kinds = [type(first_fault(n, [edge])).__name__ if first_fault(n, [edge]) else None
                 for edge in edges]
        faulty = [j for j, kind in enumerate(kinds) if kind]
        seen["faulty instance"] += 1
        seen["text"] += text
        seen["several faulty edges"] += len(faulty) > 1
        # a later edge fails a check that comes earlier in an edge's order
        order = ["EmptyEdgeError", "VertexOutOfRangeError", "DuplicateVertexInEdgeError",
                 "InvalidValueError"]
        seen["later edge, earlier check"] += any(
            order.index(kinds[k]) < order.index(kinds[faulty[0]]) for k in faulty[1:]
        )
        readers = [
            lambda: hs.build(n, edges),
            lambda: hs.OrientedHypergraph(n, tuple(map(tuple, edges))),
            lambda: hs.from_json_dict(_json(n, edges)),
        ]
        if text:
            readers.append(lambda: hs.parse_text(_text(n, edges)))
        for read in readers:
            _assert_raises(oriented, read)
        for read in (
            lambda: hs.build_signed(n, members, gamma),
            lambda: hs.SignedHypergraph(n, tuple(map(tuple, members)), tuple(gamma)),
        ):
            _assert_raises(signed, read)
    assert seen["faulty instance"] > 200 and seen["text"] > 60, seen
    assert seen["several faulty edges"] > 100 and seen["later edge, earlier check"] > 30, seen


def test_faults_within_one_edge_keep_the_value_order():
    n = 4
    cases = [
        ([(2, 1), (2, -1), (9, 1)], DuplicateVertexInEdgeError(1, 2)),
        ([(9, 1), (2, 1), (2, -1)], VertexOutOfRangeError(1, 9, n)),
        ([(3, 5), (0, 1)], VertexOutOfRangeError(1, 0, n)),
        ([(3, 5), (3, 1)], DuplicateVertexInEdgeError(1, 3)),
        ([(3, 1), (4, 0), (1, 2)], InvalidValueError(
            "edge 1: orientation at vertex 4 must be +1 or -1")),
    ]
    padding = [[(v, 1), (v % n + 1, -1)] for v in range(1, n + 1)] * 80
    for edge, expected in cases:
        for edges in ([[(1, 1)], edge, []], [[(1, 1)], edge] + padding + [[]]):
            _assert_raises(expected, lambda: hs.build(n, edges))
            _assert_raises(expected, lambda: hs.from_json_dict(_json(n, edges)))
    for gamma, expected in (
        ([1, 0, 1], InvalidValueError("edge 1: sign must be +1 or -1")),
        ([1, 1, 2.5], InvalidValueError("edge 2: sign must be +1 or -1")),
        ([1, -1, True], None),
    ):
        members = [[1, 2], [2, 3], [3, 4]]
        for pad in (0, 100):
            sets, signs = members + [[1, 2, 3]] * pad, gamma + [1] * pad
            if expected is None:
                assert hs.build_signed(n, sets, signs).m == 3 + pad
            else:
                _assert_raises(expected, lambda: hs.SignedHypergraph(
                    n, tuple(map(tuple, sets)), tuple(signs)))


@pytest.mark.parametrize("incidences, message", [
    ([{"v": 1, "sign": 1}, {"v": 2, "sign": True}], "'sign' must be a JSON integer, got True"),
    ([{"v": "2", "sign": 1}, {"sign": 1}], "'v' must be a JSON integer, got '2'"),
    ([{"v": 1, "sign": 1}, {"sign": 1}, {"v": 1.5, "sign": 1}], "malformed instance JSON: 'v'"),
    ([{"v": 1, "sign": 1}, [1, 1]], "malformed instance JSON: list indices must be integers "
                                     "or slices, not str"),
])
def test_json_values_are_checked_in_the_order_they_are_read(incidences, message):
    for wrap in (list, iter):  # any iterable of incidences is read once
        data = {"n": 3, "edges": [{"name": "a", "incidences": [{"v": 3, "sign": -1}]},
                                  {"name": "b", "incidences": wrap(incidences)}]}
        _assert_raises(ParseError(0, message), lambda: hs.from_json_dict(data))


def test_constructors_check_values_that_are_not_plain_ints():
    # The dataclass constructors take what they are given: only a plain int
    # is a vertex, while an orientation need only equal +1 or -1.
    big = [[(v, 1), (v % 5 + 1, -1)] for v in range(1, 6)] * 60
    for edges in ([[(1, 1)], [(2, 1), (3.0, 1)]], [[(1, 1)], [(2, 1), (3.0, 1)]] + big):
        _assert_raises(VertexOutOfRangeError(1, 3.0, 5),
                       lambda: hs.OrientedHypergraph(5, tuple(map(tuple, edges))))
    for edges in ([[(1, 1.0), (2, True)]], [[(1, 1.0), (2, True)]] + big):
        g = hs.OrientedHypergraph(5, tuple(map(tuple, edges)))
        assert g.orientation(0, 1) == 1 and g.orientation(0, 2) == 1
    for edges in ([[(1, 1)], [(2, 1), (np.int64(3), 1)]],
                  [[(1, 1)], [(2, 1), (np.int64(3), 1)]] + big):
        with pytest.raises(VertexOutOfRangeError):
            hs.OrientedHypergraph(5, tuple(map(tuple, edges)))


@pytest.mark.parametrize("one", [1.0, True, Fraction(1), np.float64(1.0)],
                         ids=["float", "bool", "Fraction", "float64"])
def test_labels_equal_to_one_survive_every_route_and_both_file_formats(one):
    def relabel(s):
        return one if s == 1 else -one

    for seed in range(6):
        g = hs.generate(10, 16, k=4, p_neg=0.1 * seed, connected=True, seed=seed)
        h = hs.induced_signed(g)
        twin = h.with_gamma(tuple(-s for s in h.gamma[:3]) + h.gamma[3:])
        edges = tuple(tuple((v, relabel(s)) for v, s in edge) for edge in g.edges)
        for oriented in (hs.OrientedHypergraph(g.n, edges, g.names), hs.build(g.n, edges, g.names)):
            for fmt in ("ohg", "json"):
                assert hs.serialize(oriented, fmt) == hs.serialize(g, fmt)
                assert hs.parse(hs.serialize(oriented, fmt)) == hs.parse(hs.serialize(g, fmt))
            assert hs.incidence_balance(oriented) == hs.incidence_balance(g)
            assert hs.odd_bipartite(oriented) == hs.odd_bipartite(g)
            assert hs.induced_signed(oriented) == h
        gamma = tuple(map(relabel, h.gamma))
        for signed in (hs.SignedHypergraph(h.n, h.edges, gamma, h.names),
                       hs.build_signed(h.n, h.edges, gamma, h.names)):
            assert hs.signed_switch_equivalent(signed, twin) == hs.signed_switch_equivalent(h, twin)
            assert hs.signed_switch_equivalent(twin, signed) == hs.signed_switch_equivalent(twin, h)
            assert hs.signed_tensor_similarity(signed, twin) == hs.signed_tensor_similarity(h, twin)
            assert hs.odd_bipartite(signed) == hs.odd_bipartite(h)
            assert hs.h_eigen_minus_rho(signed) == hs.h_eigen_minus_rho(h)
            assert hs.lap_zero_h_eigen(signed) == hs.lap_zero_h_eigen(h)
            assert hs.theorem_battery_even(signed) == hs.theorem_battery_even(h)
            assert np.array_equal(hs.adj_apply(signed, np.arange(h.n)), hs.adj_apply(h, np.arange(h.n)))


def test_complex_labels_and_bool_vertices_are_refused():
    orientation = "edge 0: orientation at vertex 2 must be +1 or -1"
    for construct, expected in (
        (lambda: hs.OrientedHypergraph(2, (((1, 1), (2, 1 + 0j)),)), InvalidValueError(orientation)),
        (lambda: hs.build(2, [[(1, 1), (2, np.complex128(-1))]]), InvalidValueError(orientation)),
        (lambda: hs.SignedHypergraph(2, ((1, 2),), (1 + 0j,)),
         InvalidValueError("edge 0: sign must be +1 or -1")),
        (lambda: hs.build_signed(2, [[1, 2]], [-1 + 0j]),
         InvalidValueError("edge 0: sign must be +1 or -1")),
        (lambda: hs.OrientedHypergraph(2, (((True, 1), (2, 1)),)), VertexOutOfRangeError(0, True, 2)),
        (lambda: hs.SignedHypergraph(2, ((1, True),), (1,)), VertexOutOfRangeError(0, True, 2)),
        (lambda: hs.build(3, [[("3", 1)]]), VertexOutOfRangeError(0, "3", 3)),
    ):
        _assert_raises(expected, construct)
    assert VertexOutOfRangeError(0, "3", 3).args == ("edge 0 references vertex '3', outside 1..3",)
    assert VertexOutOfRangeError(0, 4, 3).args == ("edge 0 references vertex 4, outside 1..3",)
    # build and build_signed refuse a bool vertex, as the constructors do:
    # True is not an id.  A bool orientation equals 1, a real label.
    for bad in (True, np.bool_(True)):
        _assert_raises(VertexOutOfRangeError(0, bad, 2), lambda: hs.build(2, [[(bad, 1), (2, 1)]]))
        _assert_raises(VertexOutOfRangeError(0, bad, 2), lambda: hs.build_signed(2, [[bad, 2]], [1]))
    g = hs.build(2, [[(1, 1), (2, True)]])
    assert hs.parse(hs.serialize(g)) == g


@pytest.mark.parametrize("n", [3.5, 3.0, "3", True, None])
def test_vertex_counts_that_are_not_plain_ints_are_refused(n):
    expected = InvalidValueError(f"vertex count must be an integer, got {n!r}")
    for construct in (
        lambda: hs.build(n, [[(1, 1)]]),
        lambda: hs.build_signed(n, [[1]], [1]),
        lambda: hs.OrientedHypergraph(n, (((1, 1),),)),
        lambda: hs.SignedHypergraph(n, ((1,),), (1,)),
    ):
        _assert_raises(expected, construct)


def test_vertex_counts_take_numpy_integers():
    for n in (np.int64(3), np.uint8(3)):
        for g in (hs.build(n, [[(1, 1)]]), hs.build_signed(n, [[1]], [1]),
                  hs.OrientedHypergraph(n, (((1, 1),),)), hs.SignedHypergraph(n, ((1,),), (1,))):
            assert g.n == 3 and type(g.n) is int


NOT_A_PAIR = "every incidence must be a (vertex, orientation) pair"


@pytest.mark.parametrize("edges, expected", [
    # A value that is not an integer reaches the constructor as it is.
    ([[(1, 1)], [(1.5, 1), (2.9, -1)]], VertexOutOfRangeError(1, 1.5, 3)),
    ([[(1, 1)], [(2, 1), ("3", 1)]], VertexOutOfRangeError(1, "3", 3)),
    ([[(1, 1)], [(2, 1), (3, 1.2)]],
     InvalidValueError("edge 1: orientation at vertex 3 must be +1 or -1")),
    ([[(1, 1)], [(2, "1")]], InvalidValueError("edge 1: orientation at vertex 2 must be +1 or -1")),
    # An incidence that is not a pair is a fault of its edge, found before
    # any other in that edge, and after every fault of the edges before it.
    ([[(1, 1)], [(1, 1, 1)]], InvalidValueError(f"edge 1: {NOT_A_PAIR}")),
    ([[(1, 1)], [(2, 1), 5]], InvalidValueError(f"edge 1: {NOT_A_PAIR}")),
    ([[(1, 1)], [(9, 1), (2,)]], InvalidValueError(f"edge 1: {NOT_A_PAIR}")),
    ([[(1, 1)], [(2, 1.2)], [(1, 1, 1)]],
     InvalidValueError("edge 1: orientation at vertex 2 must be +1 or -1")),
    ([[(1, 1)], [(1.5, 1)], [()]], VertexOutOfRangeError(1, 1.5, 3)),
    ([[(1, 1)], [], [(1, 1, 1)]], EmptyEdgeError(1)),
    ([[(1, 1)], [(2, 1), (2, -1)], [7]], DuplicateVertexInEdgeError(1, 2)),
])
def test_build_faults_keep_the_first_fault_order(edges, expected):
    later = [[(1, 1, 1)], [(2.5, 1)], [(1, 0.5)], []]
    padding = [[(1, 1), (2, -1), (3, 1)]] * 100
    for tail in ([], later + padding, padding + later):
        specs = edges + tail
        _assert_raises(expected, lambda: hs.build(3, specs))
        _assert_raises(expected, lambda: hs.OrientedHypergraph(3, tuple(map(tuple, specs))))


@pytest.mark.parametrize("sets, gamma, expected", [
    ([[1, 2], [2, 3]], [1, 1.2], InvalidValueError("edge 1: sign must be +1 or -1")),
    ([[1, 2], [2, 3]], [1, "1"], InvalidValueError("edge 1: sign must be +1 or -1")),
    ([[1, 2.5], [2, 3]], [1, 1.2], VertexOutOfRangeError(0, 2.5, 3)),
    ([[1, 2], [2, 3.0]], [-1.5, 1], InvalidValueError("edge 0: sign must be +1 or -1")),
])
def test_build_signed_faults_keep_the_first_fault_order(sets, gamma, expected):
    for pad in (0, 100):
        members, signs = sets + [[1, 2, 3]] * pad, gamma + [1] * pad
        _assert_raises(expected, lambda: hs.build_signed(3, members, signs))
        _assert_raises(expected, lambda: hs.SignedHypergraph(
            3, tuple(map(tuple, members)), tuple(signs)))


def test_build_stores_integers_of_any_type_as_ints():
    g = hs.build(3, [[(np.int64(1), np.int8(-1)), (np.uint16(3), np.int32(1))]])
    signed = hs.build_signed(3, [[np.int64(1), np.int16(2)]], [np.int8(-1)])
    values = [*g.edges[0][0], *g.edges[0][1], *signed.edges[0], *signed.gamma]
    assert values == [1, -1, 3, 1, 1, 2, -1]
    assert {type(v) for v in values} == {int}


# ---------------------------------------------------------------------------
# Incidence tokens.


def test_incidence_tokens_read_as_signed_decimal_integers():
    g = hs.parse_text("vertices 7\nedge a +007 -1\n")
    assert g.edges == (((7, 1), (1, -1)),)
    assert hs.parse_text("vertices 7\nedge a +0000000000000000000007\n").edges == (((7, 1),),)
    # tabs, CRLF, trailing blanks and other whitespace that str.split() splits on
    for text in ("vertices 3\r\nedge\ta\t+1\t-3 \r\n\r\nedge b +2  -1\t\r\n",
                 "vertices 3\nedge a +1 -3\x1f\nedge b +2 -1\n"):
        g = hs.parse_text(text)
        assert g.edges == (((1, 1), (3, -1)), ((2, 1), (1, -1))) and g.names == ("a", "b")


@pytest.mark.parametrize("vertex", [
    12345678901234567890, 9223372036854775807, 9223372036854775808, 10**30,
])
def test_vertices_beyond_int64_are_reported_whole(vertex):
    expected = VertexOutOfRangeError(1, vertex, 3)
    for read in (
        lambda: hs.parse_text(f"vertices 3\nedge a +1\nedge b -2 +{vertex}\n"),
        lambda: hs.from_json_dict(_json(3, [[(1, 1)], [(2, -1), (vertex, 1)]])),
        lambda: hs.from_json_dict(_json(3, [[(1, 1)], [(2, -1), (-vertex, 1)]])),
        lambda: hs.build(3, [[(1, 1)], [(2, -1), (vertex, 1)]]),
    ):
        with pytest.raises(VertexOutOfRangeError) as err:
            read()
        assert abs(err.value.vertex) == vertex and type(err.value.vertex) is int
        if err.value.vertex > 0:
            assert err.value.args == expected.args
    _assert_raises(
        InvalidValueError("edge 0: orientation at vertex 2 must be +1 or -1"),
        lambda: hs.from_json_dict(_json(3, [[(1, 1), (2, 2**64)]])),
    )


@pytest.mark.parametrize("vertex", [65_538, -1, 2**40])
def test_members_are_range_checked_before_they_are_ordered(tmp_path, vertex):
    # The by-vertex order reads 16-bit digits: unchecked, 65,538 in an
    # n=3 instance would pass for vertex 2, and -1 for vertex 65,535.
    edges = [[(1, 1)], [(2, -1), (vertex, 1), (3, 1)]]
    expected = VertexOutOfRangeError(1, vertex, 3)
    _assert_raises(expected, lambda: hs.build(3, edges))
    files = {"g.json": json.dumps(_json(3, edges))}
    if vertex > 0:  # a text token holds a vertex and its orientation
        files["g.ohg"] = _text(3, edges)
        # The whole-text route takes the file and reports the fault itself.
        _assert_raises(expected, lambda: fileio._parse_layout(files["g.ohg"]))
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
        _assert_raises(expected, lambda: hs.load(tmp_path / name))


def test_minus_zero_is_vertex_zero():
    for token in ("-0", "+0", "-000"):
        _assert_raises(VertexOutOfRangeError(1, 0, 3),
                       lambda: hs.parse_text(f"vertices 3\nedge a +1\nedge b +2 {token} +2\n"))


@pytest.mark.parametrize("text, line, message", [
    ("vertices 3\nedge a +1\nedge b +" + "1" * 5000 + "\n", 3, "number too long"),
    ("vertices 3\nedge a +1 -" + "0" * 5000 + "1 +x\nedge b +y\n", 2, "number too long"),
    ("vertices 3\nedge a +x -" + "0" * 5000 + "1\n", 2,
     "incidence token '+x' must look like +3 or -3"),
    ("vertices 3\nedge a +1 -" + "0" * 5000 + "1\nedge a +2\n", 2, "number too long"),
    ("vertices 3\nedge a +1\nedge b +1_0\n", 3, "incidence token '+1_0' must look like +3 or -3"),
    ("vertices 3\nedge a +٣\n", 2, "incidence token '+٣' must look like +3 or -3"),
    ("vertices 3\nedge a +３ -2\n", 2, "incidence token '+３' must look like +3 or -3"),
    ("vertices 3\nedge a -1 + 2\n", 2, "incidence token '+' must look like +3 or -3"),
    ("vertices 3\nedge a +1 3\n", 2, "incidence token '3' must look like +3 or -3"),
    ("vertices 3\nedge a +1+2\n", 2, "incidence token '+1+2' must look like +3 or -3"),
    ("vertices 3\r\n\r\nedge\ta\t+1\r\nedge b\t-2\t3\r\n", 4,
     "incidence token '3' must look like +3 or -3"),
    ("vertices 3\nedge a +1 +x\nedge a +2\n", 2, "incidence token '+x' must look like +3 or -3"),
    ("vertices 3\nedge a +1\nedge a +y\n", 3, "duplicate edge name 'a'"),
])
def test_token_faults_carry_their_line(text, line, message):
    _assert_raises(ParseError(line, message), lambda: hs.parse_text(text))


@pytest.mark.parametrize("edges", [[[]], [[], []], [[], [], []], [[(1, 1)], [], []],
                                   [[(1, 1)], [(2, -1), (3, 1)], []]])
def test_edges_without_incidences_are_empty_edges(edges):
    expected = first_fault(3, edges)
    assert type(expected) is EmptyEdgeError
    for read in (lambda: hs.parse_text(_text(3, edges)),
                 lambda: hs.parse_text(_text(3, edges).replace("\n", " \t\n")),
                 lambda: hs.from_json_dict(_json(3, edges))):
        _assert_raises(expected, read)


def test_oversized_vertex_counts_are_refused_before_any_core_is_built(
    monkeypatch, tmp_path, capsys
):
    def refuse(*args):
        raise AssertionError("incidence core built")

    monkeypatch.setattr(core, "_checked_core", refuse)
    monkeypatch.setattr(core, "_build_core", refuse)
    n = 200_000_000
    text = f"vertices {n}\nedge e1 +1 -2\n"
    expected = VertexLimitExceededError(n, core.MAX_VERTICES)
    for read in (
        lambda: hs.parse(text),
        lambda: hs.parse_text(text),
        lambda: hs.from_json_dict(_json(n, [[(1, 1), (2, -1)]])),
        lambda: hs.build(n, [[(1, 1), (2, -1)]]),
        lambda: hs.build_signed(n, [[1, 2]], [1]),
        lambda: hs.OrientedHypergraph(n, (((1, 1), (2, -1)),)),
        lambda: hs.SignedHypergraph(n, ((1, 2),), (1,)),
    ):
        _assert_raises(expected, read)
    path = tmp_path / "huge.ohg"
    path.write_text(text, encoding="utf-8")
    for command in ("check", "spectra", "tensor"):
        assert main([command, str(path), "--json"]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"


# ---------------------------------------------------------------------------
# The core an instance is read with.


def referee_core(g) -> dict:
    """The five core arrays rebuilt from the stored edges in plain Python."""
    incidences = [(j, v, s) for j, edge in enumerate(g.edges) for v, s in edge]
    by_vertex = sorted(range(len(incidences)), key=lambda k: (incidences[k][1], k))
    degrees = Counter(v for _, v, _ in incidences)
    counts = [degrees[v] for v in range(1, g.n + 1)] + [len(edge) for edge in g.edges]
    return {
        "indptr": [0, *accumulate(counts)],
        "indices": [g.n + incidences[k][0] for k in by_vertex]
        + [v - 1 for _, v, _ in incidences],
        "slot": by_vertex + list(range(len(incidences))),
        "signs": [s for _, _, s in incidences],
        "edge_ids": [j for j, _, _ in incidences],
    }


def _canonical(n, specs) -> hs.OrientedHypergraph:
    """Edges stored as the file formats store them, sorted by vertex."""
    return hs.build(n, [sorted(spec) for spec in specs])


def _ensemble() -> list:
    rng = random.Random(1313)
    out = [hs.load_bundled(name) for name in hs.bundled_names()]
    out += [hs.build(0, []), hs.build(5, []), hs.generate(7, 0)]
    for k in (2, 3, 4, 6):
        for n, m in ((8, 9), (12, 20), (60, 90)):
            out.append(hs.generate(n, m, k=k, p_neg=0.5, seed=rng.randrange(2**32)))
            out.append(hs.generate(n, m, k=k, p_neg=0.3, connected=True,
                                   seed=rng.randrange(2**32)))
    for n, m in ((6, 5), (30, 40), (200, 300)):
        out.append(hs.generate(n, m, size_range=(1, 6), p_neg=0.5, seed=rng.randrange(2**32)))
    for n, m in ((5, 6), (40, 120)):  # parallel edges, members in shuffled order
        specs = []
        for _ in range(m):
            if specs and rng.random() < 0.4:
                members = [v for v, _ in rng.choice(specs)]
                rng.shuffle(members)
            else:
                members = rng.sample(range(1, n + 1), rng.randint(1, 4))
            specs.append([(v, rng.choice((1, -1))) for v in members])
        out.append(_canonical(n, specs))
    return out


def test_ensemble_covers_the_edge_cases():
    features = Counter()
    for g in _ensemble():
        sizes = {len(edge) for edge in g.edges}
        sets = [frozenset(v for v, _ in edge) for edge in g.edges]
        features["n=0"] += g.n == 0
        features["m=0"] += g.m == 0
        features["mixed sizes"] += len(sizes) > 1
        features["parallel edges"] += len(set(sets)) < len(sets)
        features["isolated vertex"] += len(set().union(*sets)) < g.n
        features["at least 256 incidences"] += sum(map(len, g.edges)) >= 256
        for k in (2, 3, 4, 6):
            features[f"k={k}"] += sizes == {k}
    assert len(features) == 10 and min(features.values()) >= 1, features


def test_read_instances_carry_the_core_of_their_edges():
    for g in _ensemble():
        for fmt in ("ohg", "json"):
            h = hs.parse(hs.serialize(g, fmt))
            assert h == g and h.names == g.names
            expected = referee_core(h)
            own = h.incidence_core
            rebuilt = core._build_core(h)  # from the stored edges
            for name, values in expected.items():
                arr = getattr(own, name)
                assert arr.dtype == np.intp and not arr.flags.writeable, name
                assert arr.tolist() == values, name
                assert np.array_equal(getattr(rebuilt, name), arr), name


def test_induced_signing_matches_the_edge_sign_rule():
    for g in _ensemble():
        for h in (g, hs.parse(hs.serialize(g))):
            signed = hs.induced_signed(h)
            assert signed.edges == tuple(tuple(v for v, _ in edge) for edge in h.edges)
            assert signed.gamma == tuple(
                (-1) ** (len(edge) - 1) * int(np.prod([s for _, s in edge], dtype=np.int64))
                for edge in h.edges
            )
            assert all(type(v) is int for edge in signed.edges for v in edge)
            assert all(type(s) is int for s in signed.gamma)
            assert signed == hs.SignedHypergraph(h.n, signed.edges, signed.gamma, h.names)
            assert hs.uniform_edge_size(h) == (
                len(h.edges[0]) if len({len(e) for e in h.edges}) == 1 else None
            )
            assert h.incidence_count == sum(map(len, h.edges))


# ---------------------------------------------------------------------------
# The whole-text route against the line loop.

CORE_ARRAYS = ("indptr", "indices", "slot", "signs", "edge_ids")


def _both_routes(text):
    """What parse_text and the line loop make of text, which must agree: the
    instance, its names and its core arrays byte for byte, or the error's
    type and message (the message carries a ParseError's line)."""
    outcomes = []
    for read in (hs.parse_text, fileio._parse_lines):
        try:
            g = read(text)
        except HypersignError as exc:
            outcomes.append((type(exc), exc.args))
        else:
            arrays = [getattr(g.incidence_core, name) for name in CORE_ARRAYS]
            outcomes.append((g, g.names, [(a.dtype, a.tobytes()) for a in arrays]))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def _layout_variants(text):
    """text in other layouts of the same instance, by whether the whole-text
    route takes them."""
    edge_lines = re.compile(r"^edge .*$", re.M)
    *first, last = text.splitlines(keepends=True)
    loop = {
        "crlf": text.replace("\n", "\r\n"),
        "tabs": edge_lines.sub(lambda line: line[0].replace(" ", "\t"), text),
        "header comment": "# an instance\n" + text,
        "blank lines": text.replace("\n", "\n\n"),
        "no final newline": text[:-1],
        "comment holding an edge line": text.replace("\n", "\n# edge zz +1\n", 1),
        "blank line before the last": "".join(first) + "\n" + last,
        "middle comment": "".join(first[:2]) + "# a note\n" + "".join(first[2:]) + last,
        "middle blank line": "".join(first[:2]) + "\n" + "".join(first[2:]) + last,
    }
    whole = {"leading zeros": re.sub(r"([+-]|vertices )([0-9])", r"\g<1>00\2", text)}
    return whole, loop


def test_every_bundled_golden_and_ensemble_file_reads_alike_by_both_routes():
    paths = [*sorted((Path(__file__).parent / "golden").glob("*.ohg")),
             *sorted((Path(fileio.__file__).parent / "data").glob("*.ohg"))]
    texts = [path.read_text(encoding="utf-8") for path in paths]
    texts += [hs.serialize(g) for g in _ensemble()]
    whole = 0
    for text in texts:
        g, _, _ = _both_routes(text)
        if text == hs.serialize(g):  # every file that serialize writes goes whole
            assert fileio._parse_layout(text) is not None, text[:80]
            whole += 1
    assert whole >= 40


def test_files_in_serialize_layout_skip_the_line_loop(monkeypatch):
    paths = sorted((Path(__file__).parent / "golden").glob("*.ohg"))
    expected = [fileio._parse_lines(path.read_text(encoding="utf-8")) for path in paths]

    def refuse(text):
        raise AssertionError("line loop ran")

    monkeypatch.setattr(fileio, "_parse_lines", refuse)
    assert [hs.load(path) for path in paths] == expected


def test_most_other_layouts_leave_before_the_whole_text_is_split(monkeypatch):
    # They show in the first or the last line; the line loop reads them.
    class Unsplit:
        fullmatch = fileio._EDGE_LINE.fullmatch

        def split(self, text):
            raise AssertionError("whole text split")

    _, loop = _layout_variants(hs.serialize(hs.load_bundled("ex_c3_42")))
    monkeypatch.setattr(fileio, "_EDGE_LINE", Unsplit())
    for layout in ("crlf", "tabs", "header comment", "blank lines", "no final newline"):
        assert fileio._parse_layout(loop[layout]) is None, layout


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 30),  # m=0 is in the ensemble above
    sizes=st.tuples(st.integers(1, 3), st.integers(0, 3)),
    p_neg=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_generated_instances_read_alike_in_every_layout(n, m, sizes, p_neg, seed):
    lo, extra = sizes
    g = hs.generate(n, m, size_range=(min(lo, n), min(lo + extra, n)), p_neg=p_neg, seed=seed)
    text = hs.serialize(g)
    assert fileio._parse_layout(text) == g
    read = _both_routes(text)
    assert read[:2] == (g, g.names)
    whole, loop = _layout_variants(text)
    for layout, variant in {**whole, **loop}.items():
        assert _both_routes(variant) == read, layout
        assert (fileio._parse_layout(variant) is None) == (layout in loop), layout


@pytest.mark.parametrize("text, whole", [
    ("vertices 3\nedge a +1 -2\nedge a +3\n", False),  # duplicate name
    ("edge a +1\nvertices 3\n", False),  # edge before vertices
    ("vertices 3\nedge a +1 +x\n", False),  # bad token
    ("vertices 3\nedge a +1\nedge b\nedge c +2\n", False),  # empty edge
    ("vertices 3\nedge a +1 -" + "1" * 19 + "\n", False),  # past int64's digits
    ("vertices 3\nvertices 3\nedge a +1\n", False),  # duplicate vertices line
    ("vertices 3\nedge a +1 -0\n", True),  # vertex 0
    ("vertices 3\nedge a +1 +4\n", True),  # vertex out of range
    ("vertices 3\nedge a +1 -2 +1\n", True),  # vertex repeated within an edge
    ("vertices 2097153\nedge a +1\n", True),  # vertex count past MAX_VERTICES
])
def test_faulty_texts_fail_alike_by_both_routes(text, whole):
    kind, args = _both_routes(text)
    assert issubclass(kind, HypersignError)
    try:  # faults of the values reach the whole-text route's tail; others do not
        taken = fileio._parse_layout(text) is not None
    except HypersignError as exc:
        assert (type(exc), exc.args) == (kind, args)
        taken = True
    assert taken == whole
