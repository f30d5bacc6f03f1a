import math
import tracemalloc

import numpy as np
import pytest

import hypersign as hs
from hypersign import core
from hypersign.errors import (
    DuplicateVertexInEdgeError,
    EmptyEdgeError,
    InvalidValueError,
    NotAdjacentError,
    UnknownEdgeError,
    UnknownVertexError,
    VertexLimitExceededError,
    VertexOutOfRangeError,
)


def test_build_basic(e1):
    assert e1.n == 2
    assert e1.m == 1
    assert e1.members(0) == (1, 2)
    assert e1.orientation(0, 1) == 1
    assert e1.orientation(0, 2) == -1
    assert e1.incidence_count == 2


def test_build_rejects_empty_edge():
    with pytest.raises(EmptyEdgeError):
        hs.build(3, [[]])


def test_build_rejects_duplicate_vertex():
    with pytest.raises(DuplicateVertexInEdgeError):
        hs.build(3, [[(1, 1), (1, -1)]])


def test_build_rejects_out_of_range_vertex():
    with pytest.raises(VertexOutOfRangeError):
        hs.build(2, [[(1, 1), (3, 1)]])
    with pytest.raises(VertexOutOfRangeError):
        hs.build(2, [[(0, 1)]])


def test_build_rejects_bad_sign():
    with pytest.raises(ValueError):
        hs.build(2, [[(1, 2)]])


def test_unit_edges_are_legal():
    g = hs.build(1, [[(1, -1)]])
    assert g.members(0) == (1,)
    assert hs.edge_sign(g, 0) == -1  # (-1)^0 * (-1)


def test_lookup_errors(e1):
    with pytest.raises(UnknownEdgeError):
        e1.members(1)
    with pytest.raises(NotAdjacentError):
        e1.orientation(0, 5)
    with pytest.raises(UnknownVertexError):
        e1.edges_of(7)


def test_degree_counts_incidences(ex):
    assert [ex.degree(v) for v in range(1, 7)] == [2, 2, 2, 2, 2, 2]
    g = hs.build(3, [[(1, 1), (2, 1)], [(1, -1), (3, 1)], [(1, 1), (2, -1), (3, 1)]])
    assert g.degree(1) == 3
    assert g.degree(2) == 2


def test_edges_of(ex):
    assert ex.edges_of(1) == (0, 1)
    assert ex.edges_of(3) == (0, 2)


def test_edge_sign_parity_rule(e1, ex):
    # (-1)^(|e|-1) times the product of the orientations
    assert hs.edge_sign(e1, 0) == (-1) ** 1 * (1 * -1)
    for j in range(ex.m):
        assert hs.edge_sign(ex, j) == 1


def test_adjacency_sign(e1):
    assert hs.adjacency_sign(e1, 1, 2, 0) == 1  # -(+1)(-1)
    with pytest.raises(NotAdjacentError):
        hs.adjacency_sign(e1, 1, 1, 0)


@pytest.mark.parametrize("v", [True, False, 1.5, 1.0, "1", None, (1,)])
def test_orientation_refuses_a_vertex_that_is_not_an_integer(v):
    g = hs.build(3, [[(1, 1), (2, -1)]])
    with pytest.raises(UnknownVertexError):
        g.orientation(0, v)
    with pytest.raises(UnknownVertexError):
        hs.adjacency_sign(g, v, 2, 0)
    with pytest.raises(UnknownVertexError):
        hs.adjacency_sign(g, 2, v, 0)


def test_orientation_takes_numpy_integers():
    g = hs.build(3, [[(1, 1), (2, -1)]])
    assert g.orientation(np.int64(0), np.int32(2)) == -1
    assert hs.adjacency_sign(g, np.int64(1), np.uint8(2), 0) == 1
    with pytest.raises(NotAdjacentError):
        g.orientation(0, np.int64(3))


def test_induced_signed(ex):
    s = hs.induced_signed(ex)
    assert isinstance(s, hs.SignedHypergraph)
    assert s.gamma == (1, 1, 1)
    assert s.edges == tuple(ex.members(j) for j in range(ex.m))


def test_all_positive_variant(ex):
    plus = hs.all_positive_variant(ex)
    assert hs.structures_match(ex, plus)
    for j in range(plus.m):
        for v in plus.members(j):
            assert plus.orientation(j, v) == 1
    # and the induced sign of a 4-edge with all-positive orientations is -1
    assert hs.induced_signed(plus).gamma == (-1, -1, -1)


def test_structures_match(e1):
    same_sets = hs.build(2, [[(1, -1), (2, 1)]])
    assert hs.structures_match(e1, same_sets)
    other = hs.build(2, [[(1, 1)]])
    assert not hs.structures_match(e1, other)
    assert not hs.structures_match(e1, hs.build(3, [[(1, 1), (2, -1)]]))


def test_uniform_edge_size(e1, ex):
    assert hs.uniform_edge_size(e1) == 2
    assert hs.uniform_edge_size(ex) == 4
    mixed = hs.build(3, [[(1, 1), (2, 1)], [(1, 1), (2, 1), (3, 1)]])
    assert hs.uniform_edge_size(mixed) is None
    assert hs.uniform_edge_size(hs.build(2, [])) is None


def test_with_orientations(e1):
    flipped = e1.with_orientations((((1, 1), (2, 1)),))
    assert flipped.orientation(0, 2) == 1
    assert flipped.orientation(0, 1) == 1
    assert e1.orientation(0, 2) == -1  # original untouched


def test_signed_constructor_validation():
    with pytest.raises(ValueError):
        hs.SignedHypergraph(2, ((1, 2),), (0,))
    with pytest.raises(InvalidValueError):
        hs.SignedHypergraph(2, ((1, 2),), (1, 1))
    s = hs.build_signed(2, [(1, 2)], [-1])
    assert s.sign(0) == -1
    assert s.degree(1) == 1


def test_names_round_trip():
    g = hs.build(2, [[(1, 1), (2, 1)]], names=("left",))
    assert g.names == ("left",)
    with pytest.raises(InvalidValueError):
        hs.build(2, [[(1, 1)]], names=("a", "b"))


@pytest.mark.parametrize("names", [("",), ("a", "a"), ("a b", "c"), ("a\tb", "c"), ("x", 3)])
def test_constructors_refuse_names_the_file_formats_cannot_hold(names):
    # The text format cannot hold these: an empty name serializes to a
    # line that reads back as a different edge.
    edges = [[(1, 1), (2, 1)], [(1, -1), (2, 1)]][: len(names)]
    with pytest.raises(InvalidValueError):
        hs.build(2, edges, names=names)
    with pytest.raises(InvalidValueError):
        hs.build_signed(2, [(1, 2)] * len(names), [1] * len(names), names=names)


HUGE = "vertices 200000000\nedge e1 +1 -2\n"


def test_vertex_limit_refuses_before_allocating(monkeypatch):
    def refuse(h):
        raise AssertionError("incidence core built")

    monkeypatch.setattr(core, "_build_core", refuse)
    n = 200_000_000
    readers = (
        lambda: hs.parse(HUGE),
        lambda: hs.parse_text(HUGE),
        lambda: hs.from_json_dict({"n": n, "edges": []}),
        lambda: hs.build(n, [[(1, 1), (2, -1)]]),
        lambda: hs.build_signed(n, [[1, 2]], [1]),
    )
    tracemalloc.start()
    try:
        for read in readers:
            with pytest.raises(VertexLimitExceededError) as err:
                read()
            assert err.value.args == (f"{n} vertices exceed the limit of {core.MAX_VERTICES}",)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # per-vertex arrays for 2 * 10^8 vertices are GiBs
    assert issubclass(VertexLimitExceededError, hs.HypersignError)
    assert hs.build(core.MAX_VERTICES, []).n == core.MAX_VERTICES


@pytest.mark.parametrize("bad", ["2", 0.5, 1.5, 0.0, 2.0, True, False, None])
def test_ids_that_are_not_integers_are_unknown(ex, bad):
    h = hs.induced_signed(ex)
    vertex, edge = UnknownVertexError(bad, ex.n), UnknownEdgeError(bad, ex.m)
    for call, expected in (
        (lambda: ex.degree(bad), vertex),
        (lambda: ex.edges_of(bad), vertex),
        (lambda: h.degree(bad), vertex),
        (lambda: hs.vertex_switch(ex, bad), vertex),
        (lambda: hs.signed_vertex_switch(h, bad), vertex),
        (lambda: hs.paths_sign_consistent(ex, ("v", bad), ("v", 3)), vertex),
        (lambda: ex.members(bad), edge),
        (lambda: h.members(bad), edge),
        (lambda: h.sign(bad), edge),
        (lambda: ex.orientation(bad, 1), edge),
        (lambda: hs.edge_sign(ex, bad), edge),
        (lambda: hs.edge_switch(ex, bad), edge),
        (lambda: hs.paths_sign_consistent(ex, ("e", bad), ("v", 3)), edge),
    ):
        with pytest.raises(type(expected)) as err:
            call()
        assert err.value.args == expected.args
    assert UnknownVertexError(bad, 6).args == (f"vertex {bad!r} outside 1..6",)
    assert UnknownEdgeError(bad, 3).args == (f"edge index {bad!r} outside 0..2",)


def test_numpy_integer_ids_are_ids(ex):
    h = hs.induced_signed(ex)
    for i in (np.int64(2), np.int32(2), np.uint8(2)):
        assert ex.degree(i) == ex.degree(2) and ex.edges_of(i) == ex.edges_of(2)
        assert ex.members(i) == ex.members(2) and h.sign(i) == h.sign(2)
        assert hs.vertex_switch(ex, i) == hs.vertex_switch(ex, 2)
        assert hs.edge_switch(ex, i) == hs.edge_switch(ex, 2)
        assert hs.signed_vertex_switch(h, i) == hs.signed_vertex_switch(h, 2)
    assert UnknownVertexError(7, 6).args == ("vertex 7 outside 1..6",)
    assert UnknownEdgeError(3, 3).args == ("edge index 3 outside 0..2",)


def test_bad_parameters_are_invalid_values(ex):
    sex = hs.induced_signed(ex)
    assert not hs.theorem_battery_even(sex).parity_bipartition  # NQZ never runs
    asymmetric = np.array([[0.0, 1.0], [0.0, 0.0]])
    for call in (
        lambda: hs.nqz_spectral_radius(ex, tol=0.0),
        lambda: hs.nqz_spectral_radius(ex, shift=math.nan),
        lambda: hs.nqz_spectral_radius(ex, max_iters=0),
        lambda: hs.h_eigen_minus_rho(sex, tol=math.nan),
        lambda: hs.theorem_battery_even(sex, tol=math.nan),
        lambda: hs.theorem_battery_even(sex, tol=-1.0),
        lambda: hs.spectrum_contains([0.0], 0.0, abs_tol=math.nan),
        lambda: hs.spectrum_contains([0.0], 0.0, rel_tol=0.0),
        lambda: hs.spectrum_contains([0.0], 0.0, abs_tol="1"),
        lambda: hs.spectrum_contains([0.0], 0.0, rel_tol="1"),
        lambda: hs.spectral_balance_tests(ex, abs_tol="1"),
        lambda: hs.serialize(ex, "xml"),
        lambda: hs.GF2System(-1, ()),
        lambda: hs.GF2System(2, ((4, 0),)),
        lambda: hs.GF2System(2, ((1, 2),)),
        lambda: hs.GF2System.from_sets(2, [((0,), 1)]),
        lambda: hs.sym_eigenvalues(np.zeros(3)),
        lambda: hs.sym_eigenvalues(asymmetric),
        lambda: hs.singular_values(np.zeros(3)),
        lambda: hs.singular_values(np.array([[math.inf]])),
        # Ragged, string, object and complex matrices, and spectra or
        # targets that are not finite real numbers.
        lambda: hs.sym_eigenvalues([[1.0, 2.0], [3.0]]),
        lambda: hs.sym_eigenvalues("abc"),
        lambda: hs.sym_eigenvalues([[object()]]),
        lambda: hs.sym_eigenvalues(np.array([[1j]])),
        lambda: hs.singular_values([[1.0, 2.0], [3.0]]),
        lambda: hs.singular_values("abc"),
        lambda: hs.singular_values([[object()]]),
        lambda: hs.singular_values(np.array([[1 + 1j, 0.0]])),
        lambda: hs.spectrum_contains(["a"], 0.0),
        lambda: hs.spectrum_contains([0.0], "0"),
        lambda: hs.spectrum_contains([0.0], math.nan),
        lambda: hs.spectrum_contains([0.0, math.nan], 0.0),
        lambda: hs.spectrum_contains([0.0, math.inf], 0.0),
        # NQZ budgets that are not integers, and tolerances or shifts
        # that are not numbers.
        lambda: hs.nqz_spectral_radius(ex, max_iters=1.5),
        lambda: hs.nqz_spectral_radius(ex, max_iters="5"),
        lambda: hs.nqz_spectral_radius(ex, max_iters=True),
        lambda: hs.nqz_spectral_radius(ex, tol="1e-8"),
        lambda: hs.nqz_spectral_radius(ex, shift="1"),
        lambda: hs.h_eigen_minus_rho(sex, tol="1e-8"),
        lambda: hs.theorem_battery_even(sex, tol="1e-8"),
        # A tolerance is never a bool.
        lambda: hs.spectrum_contains([0.0], 0.0, abs_tol=True),
        lambda: hs.spectral_balance_tests(ex, rel_tol=True),
        lambda: hs.nqz_spectral_radius(ex, tol=True),
        lambda: hs.nqz_spectral_radius(ex, shift=np.bool_(True)),
        lambda: hs.h_eigen_minus_rho(sex, tol=True),
        lambda: hs.theorem_battery_even(sex, tol=True),
    ):
        with pytest.raises(InvalidValueError):
            call()
