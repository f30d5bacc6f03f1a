"""The incidence core against referees rebuilt from the stored edges, and
how often the core is built."""

import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import hypersign as hs
from hypersign import balance, core
from hypersign.cli import main
from hypersign.errors import NotAdjacentError, UnknownEdgeError, UnknownVertexError

from _oracles import (
    connected_components_by_dfs,
    edges_at_vertices,
    orientation_table,
    propagate_labels_by_dict,
    structures_match_by_sorting,
)


def _random_instance(rng: random.Random) -> hs.OrientedHypergraph:
    """Up to 8 vertices and 8 edges of sizes 1..4; about a fifth of the
    edges repeat an earlier vertex set in shuffled order."""
    n = rng.randint(0, 8)
    m = rng.randint(0, 8) if n else 0
    specs = []
    for _ in range(m):
        if specs and rng.random() < 0.2:
            members = [v for v, _ in rng.choice(specs)]
            rng.shuffle(members)
        else:
            members = rng.sample(range(1, n + 1), rng.randint(1, min(n, 4)))
        specs.append([(v, rng.choice((1, -1))) for v in members])
    return hs.build(n, specs)


def _shuffled(g: hs.OrientedHypergraph, rng: random.Random) -> hs.OrientedHypergraph:
    """Same incidences, members of every edge in a random order."""
    return g.with_orientations(tuple(tuple(rng.sample(edge, len(edge))) for edge in g.edges))


@pytest.fixture(scope="module")
def instances():
    bundled = [hs.load_bundled(name) for name in hs.bundled_names()]
    rng = random.Random(2013)
    return bundled + [_random_instance(rng) for _ in range(1200)]


def _stored_incidences(g, table=None):
    """(edge, vertex, value) triples in edge-major order; the value is the
    orientation, times table's entry when a table is given."""
    return [
        (j, v, s * (table[(j, v)] if table else 1))
        for j, edge in enumerate(g.edges)
        for v, s in edge
    ]


def test_ensemble_covers_the_edge_cases(instances):
    features = Counter()
    for g in instances:
        sizes = [len(edge) for edge in g.edges]
        sets = [frozenset(g.members(j)) for j in range(g.m)]
        features["n=0"] += g.n == 0
        features["m=0"] += g.m == 0 and g.n > 0
        features["disconnected"] += len(connected_components_by_dfs(g)) > 1
        features["isolated vertex"] += any(not b for b in edges_at_vertices(g))
        features["unit edge"] += 1 in sizes
        features["parallel edges"] += len(set(sets)) < len(sets)
    assert len(instances) >= 1000
    assert min(features.values()) >= 20, features


def test_balance_matches_dict_propagation(instances):
    balanced = 0
    for g in instances:
        expected = propagate_labels_by_dict(g.n, g.m, _stored_incidences(g))
        verdict = hs.incidence_balance(g)
        if isinstance(expected, hs.Walk):
            assert not verdict and verdict.cycle == expected
        else:
            balanced += 1
            assert verdict.vertex_labels == tuple(expected[: g.n])
            assert verdict.edge_labels == tuple(expected[g.n :])
    assert 100 < balanced < len(instances) - 100


def test_oriented_switching_matches_dict_propagation(instances):
    rng = random.Random(2014)
    outcomes = Counter()
    for g in instances:
        cert = hs.SwitchCertificate(
            tuple(v for v in range(1, g.n + 1) if rng.random() < 0.5),
            tuple(j for j in range(g.m) if rng.random() < 0.5),
        )
        targets = [hs.apply_switches(g, cert)]
        if g.m:
            j = rng.randrange(g.m)
            flip = rng.randrange(len(g.edges[j]))
            twin = [list(edge) for edge in g.edges]
            v, s = twin[j][flip]
            twin[j][flip] = (v, -s)
            targets.append(g.with_orientations(tuple(map(tuple, twin))))
        for target in targets:
            target = _shuffled(target, rng)
            expected = propagate_labels_by_dict(
                g.n, g.m, _stored_incidences(g, orientation_table(target))
            )
            found = hs.oriented_switch_equivalent(g, target)
            if isinstance(expected, hs.Walk):
                assert found == hs.NotEquivalent(cycle=expected)
            else:
                assert found == hs.SwitchCertificate(
                    vertices=tuple(v + 1 for v in range(g.n) if expected[v] == -1),
                    edges=tuple(j for j in range(g.m) if expected[g.n + j] == -1),
                )
            outcomes[type(found).__name__] += 1
    assert outcomes["NotEquivalent"] > 100 and outcomes["SwitchCertificate"] > 1000


def test_components_match_depth_first_search(instances):
    for g in instances:
        expected = connected_components_by_dfs(g)
        for h in (g, hs.induced_signed(g)):
            assert hs.connected_components(h) == expected
            assert hs.is_connected(h) == (len(expected) <= 1)


def test_lookups_match_the_stored_edges(instances):
    for g in instances:
        table = orientation_table(g)
        buckets = edges_at_vertices(g)
        for h in (g, hs.induced_signed(g)):
            for v in range(1, g.n + 1):
                assert h.edges_of(v) == buckets[v - 1]
                assert h.degree(v) == len(buckets[v - 1])
            for v in (0, g.n + 1):
                with pytest.raises(UnknownVertexError):
                    h.edges_of(v)
                with pytest.raises(UnknownVertexError):
                    h.degree(v)
        for j in range(g.m):
            for v in range(0, g.n + 2):
                if (j, v) in table:
                    assert g.orientation(j, v) == table[(j, v)]
                else:
                    with pytest.raises(NotAdjacentError):
                        g.orientation(j, v)
        with pytest.raises(UnknownEdgeError):
            g.orientation(g.m, 1)


def test_structures_match_agrees_with_sorted_members(instances):
    rng = random.Random(2015)
    matches = mismatches = 0
    for g, other in zip(instances, instances[1:] + instances[:1]):
        moved = [list(g.members(j)) for j in range(g.m)]
        if g.m and g.n > 1:
            j = rng.randrange(g.m)
            outside = [v for v in range(1, g.n + 1) if v not in moved[j]]
            if outside:
                moved[j][rng.randrange(len(moved[j]))] = rng.choice(outside)
        moved = hs.build_signed(g.n, moved, [1] * g.m)
        # two edges trade one member each: every degree stays the same
        traded = [list(g.members(j)) for j in range(g.m)]
        for j, k in combinations(range(g.m), 2):
            only_j = [u for u in traded[j] if u not in traded[k]]
            only_k = [u for u in traded[k] if u not in traded[j]]
            if only_j and only_k:
                u, w = rng.choice(only_j), rng.choice(only_k)
                traded[j][traded[j].index(u)] = w
                traded[k][traded[k].index(w)] = u
                break
        traded = hs.build_signed(g.n, traded, [1] * g.m)
        for a, b in (
            (g, _shuffled(g, rng)),
            (g, hs.induced_signed(_shuffled(g, rng))),
            (g, moved),
            (g, traded),
            (g, other),
            (other, g),
        ):
            expected = structures_match_by_sorting(a, b)
            assert hs.structures_match(a, b) == expected
            matches += expected
            mismatches += not expected and a.n == b.n and a.m == b.m
    assert matches > 2 * len(instances) and mismatches > len(instances) // 2


def _signed_by_edge_sign(g: hs.OrientedHypergraph) -> hs.SignedHypergraph:
    """The induced signing, validated, from the per-edge sign rule."""
    return hs.SignedHypergraph(
        g.n,
        tuple(g.members(j) for j in range(g.m)),
        tuple(hs.edge_sign(g, j) for j in range(g.m)),
        g.names,
    )


def _assert_shares_core(copy, parent) -> None:
    """copy's core equals one built from its own edges, is read-only, and
    holds parent's structural arrays themselves."""
    own, rebuilt, theirs = copy.incidence_core, core._build_core(copy), parent.incidence_core
    for name in ("indptr", "indices", "slot", "signs", "edge_ids"):
        arr, expected = getattr(own, name), getattr(rebuilt, name)
        if expected is None:
            assert arr is None
            continue
        assert np.array_equal(arr, expected) and arr.dtype == expected.dtype
        assert not arr.flags.writeable
        if name != "signs":
            assert arr is getattr(theirs, name)
    assert hs.structures_match(copy, parent)


def test_derived_copies_equal_their_validated_construction(instances):
    rng = random.Random(2016)
    for g in instances:
        cert = hs.SwitchCertificate(
            tuple(v for v in range(1, g.n + 1) if rng.random() < 0.5),
            tuple(j for j in range(g.m) if rng.random() < 0.5),
        )
        table = orientation_table(g)
        factor = {v: -1 for v in cert.vertices}
        flips = {j: -1 for j in cert.edges}
        pairs = [
            (hs.all_positive_variant(g),
             hs.build(g.n, [[(v, 1) for v, _ in edge] for edge in g.edges], g.names)),
            (hs.apply_switches(g, cert),
             hs.build(g.n, [[(v, table[(j, v)] * factor.get(v, 1) * flips.get(j, 1))
                             for v, _ in edge] for j, edge in enumerate(g.edges)], g.names)),
            (hs.induced_signed(g), _signed_by_edge_sign(g)),
        ]
        if g.n:
            v = rng.randint(1, g.n)
            pairs.append((hs.vertex_switch(g, v), hs.build(
                g.n, [[(u, s * (-1 if u == v else 1)) for u, s in edge] for edge in g.edges],
                g.names)))
        if g.m:
            e = rng.randrange(g.m)
            pairs.append((hs.edge_switch(g, e), hs.build(
                g.n, [[(u, s * (-1 if j == e else 1)) for u, s in edge]
                      for j, edge in enumerate(g.edges)], g.names)))
        signed = hs.induced_signed(g)
        switched = set(cert.vertices)
        pairs.append((
            hs.apply_signed_switches(signed, hs.SignedSwitchCertificate(cert.vertices)),
            hs.build_signed(g.n, signed.edges,
                            [s * (-1) ** len(switched.intersection(edge))
                             for edge, s in zip(signed.edges, signed.gamma)], g.names),
        ))
        if g.n:
            pairs.append((hs.signed_vertex_switch(signed, 1), hs.build_signed(
                g.n, signed.edges,
                [s * (-1 if 1 in edge else 1) for edge, s in zip(signed.edges, signed.gamma)],
                g.names)))
        for copy, validated in pairs:
            assert type(copy) is type(validated)
            assert copy == validated and repr(copy) == repr(validated)
            _assert_shares_core(copy, g)


def test_apply_switches_checks_certificates_first(instances):
    for g in instances[:200]:
        h = hs.induced_signed(g)
        for bad in (0, g.n + 1):
            for switch in (lambda: hs.apply_switches(g, hs.SwitchCertificate((bad,), (g.m,))),
                           lambda: hs.vertex_switch(g, bad),
                           lambda: hs.signed_vertex_switch(h, bad)):
                with pytest.raises(UnknownVertexError) as err:
                    switch()
                assert err.value.args == (f"vertex {bad} outside 1..{g.n}",)
        for bad in (-1, g.m):
            with pytest.raises(UnknownEdgeError) as err:
                hs.apply_switches(g, hs.SwitchCertificate((), (bad,)))
            assert err.value.args == (f"edge index {bad} outside 0..{g.m - 1}",)


def _count_builds(monkeypatch) -> list:
    built = []
    build = core._checked_core

    def counting(h, *arrays):
        built.append(h)
        return build(h, *arrays)

    monkeypatch.setattr(core, "_checked_core", counting)
    return built


def test_one_battery_builds_one_core(monkeypatch, e1, ex):
    built = _count_builds(monkeypatch)
    paths = Counter()
    search = balance.paths_sign_consistent

    def counting_paths(*args):
        paths["calls"] += 1
        return search(*args)

    monkeypatch.setattr(balance, "paths_sign_consistent", counting_paths)
    for spec in (e1, hs.all_positive_variant(ex), ex):
        g = hs.build(spec.n, spec.edges)
        built.clear()
        paths.clear()
        rep = hs.equivalence_battery(g)
        assert rep.agree
        assert built == [g]
        # a balanced instance checks every pair of its n + m nodes
        nodes = g.n + g.m
        assert paths["calls"] == (nodes * (nodes - 1) // 2 if rep.verdict else 1)


def test_switching_a_parent_and_its_copies_builds_one_core(monkeypatch, instances):
    built = _count_builds(monkeypatch)
    for spec in instances[:100]:
        g = hs.build(spec.n, spec.edges)
        built.clear()
        plus = hs.all_positive_variant(g)
        hs.oriented_switch_equivalent(g, plus)
        hs.signed_switch_equivalent(hs.induced_signed(g), hs.induced_signed(plus))
        assert built == [g]


def test_tensor_command_builds_each_core_at_most_once(monkeypatch, tmp_path, capsys):
    built = _count_builds(monkeypatch)
    for p_neg in (0.0, 0.5):
        g = hs.generate(24, 40, k=4, p_neg=p_neg, connected=True, seed=7)
        path = tmp_path / "case.ohg"
        hs.save(g, path)
        built.clear()
        assert main(["tensor", str(path), "--json"]) == 0
        capsys.readouterr()
        # the induced signed copy shares the loaded instance's core
        assert len(built) == 1 and isinstance(built[0], hs.OrientedHypergraph)


def test_first_degree_call_reads_only_the_stored_edges(monkeypatch, ex):
    def refuse(self, e):
        raise AssertionError("members() called")

    for cls in (hs.OrientedHypergraph, hs.SignedHypergraph):
        monkeypatch.setattr(cls, "members", refuse)
    for h in (hs.build(ex.n, ex.edges), hs.SignedHypergraph(ex.n, ((1, 2), (2, 3)), (1, -1))):
        assert h.degree(2) == 2


@pytest.mark.parametrize("m", [4, 4000])  # 12 and 12,000 incidences
def test_constructors_build_no_core_until_a_structural_query(monkeypatch, m):
    built = _count_builds(monkeypatch)
    g = hs.generate(m, m, k=3, p_neg=0.5, seed=m)
    sets = [[v for v, _ in edge] for edge in g.edges]
    made = [
        g,
        hs.build(g.n, g.edges, g.names),
        hs.build_signed(g.n, sets, [(-1) ** j for j in range(m)]),
        g.with_orientations(tuple(tuple((v, -s) for v, s in edge) for edge in g.edges)),
    ]
    for h in made:
        if isinstance(h, hs.OrientedHypergraph):
            hs.serialize(h)
    assert built == []
    for h in made:
        assert hs.connected_components(h)
        assert built == [h]
        hs.is_connected(h)
        h.degree(1)
        assert built == [h]
        built.clear()


@pytest.mark.parametrize("fmt", ["ohg", "json"])
def test_read_instances_build_their_core_while_read(monkeypatch, fmt):
    text = hs.serialize(hs.generate(4000, 4000, k=3, p_neg=0.5, seed=1), fmt)
    built = _count_builds(monkeypatch)
    h = hs.parse(text)
    assert built == [h]
    hs.connected_components(h)
    hs.incidence_balance(h)
    assert built == [h]


def _count_edge_builds(monkeypatch) -> list:
    built = []
    build = core._build_edges

    def counting(h):
        built.append(h)
        return build(h)

    monkeypatch.setattr(core, "_build_edges", counting)
    return built


@pytest.mark.parametrize("fmt", ["ohg", "json"])
def test_read_and_derived_instances_build_edges_only_when_read(monkeypatch, tmp_path, fmt):
    built = _count_edge_builds(monkeypatch)
    rng = random.Random(2018)
    for k, p_neg in ((3, 0.0), (3, 0.5), (4, 0.0), (4, 0.5)):
        g = hs.generate(40, 60, k=k, p_neg=p_neg, connected=True, seed=k)
        path = tmp_path / f"case.{fmt}"
        hs.save(g, path)
        built.clear()
        h = hs.load(path)
        plus = hs.all_positive_variant(h)
        cert = hs.SwitchCertificate(
            tuple(v for v in range(1, h.n + 1) if rng.random() < 0.5),
            tuple(j for j in range(h.m) if rng.random() < 0.5),
        )
        switched = hs.apply_switches(h, cert)
        signed, signed_plus = hs.induced_signed(h), hs.induced_signed(plus)
        signed_switched = hs.apply_signed_switches(
            signed, hs.SignedSwitchCertificate(cert.vertices)
        )
        assert bool(hs.incidence_balance(h)) == (p_neg == 0.0)
        assert hs.oriented_switch_equivalent(switched, h)
        hs.oriented_switch_equivalent(h, plus)
        assert hs.signed_switch_equivalent(signed, signed_switched)
        hs.signed_switch_equivalent(signed, signed_plus)
        if k % 2 == 0:
            hs.odd_bipartite(h)
            hs.theorem_battery_even(signed)
            hs.signed_tensor_similarity(signed, signed_switched)
        saved = []  # the oriented copies, saved from their cores
        for copy in (h, plus, switched):
            hs.save(copy, tmp_path / f"copy.{fmt}")
            saved.append((tmp_path / f"copy.{fmt}").read_text())
        assert built == []

        # Read, each builds its edges once, and they equal the validated
        # construction: the file holds every edge's incidences by vertex.
        table = orientation_table(g)
        vertex_flip = {v: -1 for v in cert.vertices}
        edge_flip = {j: -1 for j in cert.edges}
        sets = [sorted(v for v, _ in edge) for edge in g.edges]
        expected = [
            (h, hs.build(g.n, [[(v, table[(j, v)]) for v in vs] for j, vs in enumerate(sets)],
                         g.names)),
            (plus, hs.build(g.n, [[(v, 1) for v in vs] for vs in sets], g.names)),
            (switched, hs.build(g.n, [
                [(v, table[(j, v)] * vertex_flip.get(v, 1) * edge_flip.get(j, 1)) for v in vs]
                for j, vs in enumerate(sets)], g.names)),
            (signed, hs.build_signed(g.n, sets, [hs.edge_sign(g, j) for j in range(g.m)],
                                     g.names)),
            (signed_plus, hs.build_signed(g.n, sets, [(-1) ** (k - 1)] * g.m, g.names)),
            (signed_switched, hs.build_signed(g.n, sets, [
                hs.edge_sign(g, j) * (-1) ** len(set(cert.vertices).intersection(vs))
                for j, vs in enumerate(sets)], g.names)),
        ]
        for copy, validated in expected:
            assert copy.edges is copy.edges
            assert copy == validated and repr(copy) == repr(validated)
        for text, (_, validated) in zip(saved, expected):
            assert text == hs.serialize(validated, fmt)
        assert built == [copy for copy, _ in expected]
