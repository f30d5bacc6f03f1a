import random

import numpy as np
import pytest

import hypersign as hs
from hypersign.errors import (
    InternalCheckError,
    StructureMismatchError,
    UnknownEdgeError,
    UnknownVertexError,
)


def same_orientations(a, b):
    return hs.structures_match(a, b) and all(
        a.orientation(j, v) == b.orientation(j, v)
        for j in range(a.m)
        for v in a.members(j)
    )


def test_vertex_switch_is_involutive(ex):
    once = hs.vertex_switch(ex, 3)
    assert once.orientation(0, 3) == -ex.orientation(0, 3)
    assert once.orientation(2, 3) == -ex.orientation(2, 3)
    assert once.orientation(0, 1) == ex.orientation(0, 1)
    assert same_orientations(hs.vertex_switch(once, 3), ex)


def test_edge_switch_is_involutive(ex):
    once = hs.edge_switch(ex, 1)
    for v in ex.members(1):
        assert once.orientation(1, v) == -ex.orientation(1, v)
    for v in ex.members(0):
        assert once.orientation(0, v) == ex.orientation(0, v)
    assert same_orientations(hs.edge_switch(once, 1), ex)


def test_apply_switches_matches_singles(ex):
    cert = hs.SwitchCertificate(vertices=(2, 5), edges=(1,))
    combined = hs.apply_switches(ex, cert)
    stepwise = hs.edge_switch(hs.vertex_switch(hs.vertex_switch(ex, 2), 5), 1)
    assert same_orientations(combined, stepwise)
    # vertex and edge switches commute, so order never matters
    other = hs.vertex_switch(hs.vertex_switch(hs.edge_switch(ex, 1), 5), 2)
    assert same_orientations(combined, other)


def test_apply_switches_certificate_is_involutive(ex):
    cert = hs.SwitchCertificate(vertices=(1, 4), edges=(0, 2))
    assert same_orientations(hs.apply_switches(hs.apply_switches(ex, cert), cert), ex)


def test_switching_conjugates_incidence_matrix(ex):
    cert = hs.SwitchCertificate(vertices=(2, 3), edges=(0,))
    switched = hs.apply_switches(ex, cert)
    m0 = hs.incidence_matrix(ex)
    m1 = hs.incidence_matrix(switched)
    s_edges = np.diag([-1 if j in cert.edges else 1 for j in range(ex.m)])
    s_verts = np.diag([-1 if v in cert.vertices else 1 for v in range(1, ex.n + 1)])
    assert np.array_equal(m1, s_edges @ m0 @ s_verts)


def test_certificates_deduplicate():
    cert = hs.SwitchCertificate(vertices=(3, 1, 3), edges=(2, 2))
    assert cert.vertices == (1, 3)
    assert cert.edges == (2,)


def test_oriented_equivalence_finds_certificate(ex):
    cert = hs.SwitchCertificate(vertices=(2, 5), edges=(2,))
    target = hs.apply_switches(ex, cert)
    found = hs.oriented_switch_equivalent(ex, target)
    assert found
    assert same_orientations(hs.apply_switches(ex, found), target)
    # the same certificate also maps target back to source
    assert same_orientations(hs.apply_switches(target, found), ex)


def test_oriented_equivalence_reflexive(ex):
    found = hs.oriented_switch_equivalent(ex, ex)
    assert found
    assert found.vertices == () and found.edges == ()


def test_oriented_equivalence_negative_case(ex):
    plus = hs.all_positive_variant(ex)
    verdict = hs.oriented_switch_equivalent(ex, plus)
    assert not verdict
    assert verdict.cycle is not None
    # the witness cycle carries different signs in the two orientations
    assert hs.incidence_sign_of(verdict.cycle, ex) != hs.incidence_sign_of(
        verdict.cycle, plus
    )


def test_oriented_equivalence_structure_mismatch(ex, e1):
    with pytest.raises(StructureMismatchError):
        hs.oriented_switch_equivalent(ex, e1)


def test_oriented_equivalence_random_round_trips():
    rng = random.Random(5150)
    for _ in range(25):
        g = hs.random_connected(rng, n_max=7, m_max=5)
        verts = tuple(v for v in range(1, g.n + 1) if rng.random() < 0.5)
        edges = tuple(j for j in range(g.m) if rng.random() < 0.5)
        target = hs.apply_switches(g, hs.SwitchCertificate(verts, edges))
        found = hs.oriented_switch_equivalent(g, target)
        assert found
        assert same_orientations(hs.apply_switches(g, found), target)


def test_signed_vertex_switch_parity():
    h = hs.build_signed(4, [(1, 2, 3), (1, 4)], [1, -1])
    flipped = hs.signed_vertex_switch(h, 1)
    assert flipped.gamma == (-1, 1)
    again = hs.apply_signed_switches(h, hs.SignedSwitchCertificate(vertices=(1, 2)))
    # edge {1,2,3} meets {1,2} twice: sign unchanged; edge {1,4} once: flipped
    assert again.gamma == (1, 1)


def test_signed_equivalence_certificate_replay():
    h = hs.build_signed(5, [(1, 2), (2, 3), (3, 4, 5)], [1, -1, 1])
    cert = hs.SignedSwitchCertificate(vertices=(2, 4))
    target = hs.apply_signed_switches(h, cert)
    found = hs.signed_switch_equivalent(h, target)
    assert found
    assert hs.apply_signed_switches(h, found).gamma == target.gamma


def test_signed_equivalence_infeasible(ex):
    sex = hs.induced_signed(ex)
    minus = sex.with_gamma((-1, -1, -1))
    verdict = hs.signed_switch_equivalent(sex, minus)
    assert not verdict
    assert verdict.witness_edges == (0, 1, 2)


def test_corrupted_parity_solution_is_caught(monkeypatch):
    # With one bit of every solution flipped, the route's own check of the
    # solution must refuse it, on both sides of the package.
    solve = hs.linalg._GF2Reduction.solve

    def flip_first_bit(reduction, rhs):
        outcome, reduced = solve(reduction, rhs)
        if isinstance(outcome, hs.GF2Solution):
            bits = outcome.assignment
            return hs.GF2Solution(outcome.nvars, (1 - bits[0], *bits[1:])), reduced
        return outcome, reduced

    h = hs.build_signed(5, [(1, 2), (2, 3), (3, 4, 5)], [1, -1, 1])
    target = hs.apply_signed_switches(h, hs.SignedSwitchCertificate(vertices=(2, 4)))
    bipartite = hs.build_signed(6, [(1, 2, 3, 4), (3, 4, 5, 6)], [1, 1])
    assert hs.signed_switch_equivalent(h, target) and hs.odd_bipartite(bipartite)
    monkeypatch.setattr(hs.linalg._GF2Reduction, "solve", flip_first_bit)
    with pytest.raises(InternalCheckError, match="wrong parity"):
        hs.signed_switch_equivalent(h, target)
    with pytest.raises(InternalCheckError, match="wrong parity"):
        hs.odd_bipartite(bipartite)


@pytest.mark.parametrize(
    "witness",
    [(0, 1), (0,)],
    ids=["pairs up but sums to 0 = 0", "odd right-hand side but unpaired members"],
)
def test_forged_parity_witness_is_caught(monkeypatch, witness):
    # Two parallel +1 edges: their equations cancel to 0 = 0, and one alone
    # leaves its members unpaired, so each half of the check must refuse.
    h = hs.build_signed(4, [(1, 2, 3, 4), (4, 3, 2, 1)], [1, 1])
    assert hs.odd_bipartite(h)
    monkeypatch.setattr(hs.linalg._GF2Reduction, "solve",
                        lambda reduction, rhs: (hs.GF2Infeasible(witness), reduction))
    with pytest.raises(InternalCheckError, match="do not sum to 0 = 1"):
        hs.odd_bipartite(h)


def test_signed_equivalence_structure_mismatch():
    a = hs.build_signed(2, [(1, 2)], [1])
    b = hs.build_signed(3, [(1, 2)], [1])
    with pytest.raises(StructureMismatchError):
        hs.signed_switch_equivalent(a, b)


def test_certificate_ids_are_integers():
    for bad in ([1], True, 1.5, None):
        for make in (lambda: hs.SwitchCertificate(vertices=(1, bad)),
                     lambda: hs.SwitchCertificate(edges=(bad,)),
                     lambda: hs.SignedSwitchCertificate(vertices=(bad,))):
            with pytest.raises(hs.InvalidValueError):
                make()
    cert = hs.SwitchCertificate(vertices=(np.int64(3), 1, 3), edges=(np.uint8(2),))
    assert cert == hs.SwitchCertificate(vertices=(1, 3), edges=(2,))
    assert {type(i) for i in cert.vertices + cert.edges} == {int}


@pytest.mark.parametrize("vertices, edges, error, message", [
    ((0, 2, 3), (), UnknownVertexError, "vertex 0 outside 1..6"),  # first out
    ((1, 2, 7), (), UnknownVertexError, "vertex 7 outside 1..6"),  # last out
    ((-4, 0, 9), (1,), UnknownVertexError, "vertex -4 outside 1..6"),  # both: the first
    ((1, 6), (-1, 0), UnknownEdgeError, "edge index -1 outside 0..2"),
    ((1, 6), (0, 2, 3), UnknownEdgeError, "edge index 3 outside 0..2"),
    ((7,), (5,), UnknownVertexError, "vertex 7 outside 1..6"),  # vertices first
])
def test_apply_switches_names_the_first_id_out_of_range(ex, vertices, edges, error, message):
    cert = hs.SwitchCertificate(vertices=vertices, edges=edges)
    with pytest.raises(error, match=f"^{message}$"):
        hs.apply_switches(ex, cert)
    if not edges:
        with pytest.raises(error, match=f"^{message}$"):
            hs.apply_signed_switches(hs.induced_signed(ex), hs.SignedSwitchCertificate(vertices))
    # The ends decide, so ids inside them pass without a check each.
    inside = hs.SwitchCertificate(vertices=(1, 6), edges=(0, 2))
    assert same_orientations(hs.apply_switches(hs.apply_switches(ex, inside), inside), ex)
