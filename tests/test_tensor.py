import math
import random
import sys
import threading
from collections import Counter

import numpy as np
import pytest

import hypersign as hs
from hypersign import linalg, tensor
from hypersign.errors import (
    DimensionMismatchError,
    InternalCheckError,
    InvalidValueError,
    NoConvergenceError,
    NotConnectedError,
    NotUniformError,
    OddUniformityError,
    ZeroVectorError,
)
from hypersign.tensor import NQZ_TOL, _edge_products

from _oracles import (
    dense_adj_tensor,
    dense_contract,
    dense_lap_tensor,
    diagonal_similarities_bruteforce,
    loop_adj_apply,
    loop_adj_form,
    loop_lap_apply,
    loop_lap_form,
    loop_nqz_spectral_radius,
    parity_sign_vector_bruteforce,
)


@pytest.fixture
def sex(ex):
    return hs.induced_signed(ex)


# ---------------------------------------------------------------------------
# Contractions.


def test_adj_apply_known_eigenvector(sex):
    x = np.array([1j, 1, 1j, 1, 1j, 1], dtype=complex)
    y = hs.adj_apply(sex, x)
    assert np.allclose(y, -2.0 * x**3, atol=1e-12)


def test_adj_apply_matches_dense_oracle():
    rng = random.Random(1234)
    for _ in range(20):
        k = rng.choice([2, 3, 4])
        g = hs.random_connected_uniform(
            random.Random(rng.randrange(2**32)), k, n_max=6, m_max=4
        )
        h = hs.induced_signed(g)
        dense = dense_adj_tensor(h)
        probe = np.array(
            [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(h.n)]
        )
        assert np.allclose(hs.adj_apply(h, probe), dense_contract(dense, probe), atol=1e-10)


def test_lap_apply_matches_dense_oracle():
    rng = random.Random(4321)
    for _ in range(12):
        k = rng.choice([2, 4])
        g = hs.random_connected_uniform(
            random.Random(rng.randrange(2**32)), k, n_max=6, m_max=4
        )
        h = hs.induced_signed(g)
        dense = dense_lap_tensor(h)
        probe = np.array([rng.gauss(0, 1) for _ in range(h.n)])
        assert np.allclose(hs.lap_apply(h, probe), dense_contract(dense, probe), atol=1e-10)


def test_lap_apply_adds_degree_term(sex):
    x = np.ones(6)
    assert np.allclose(hs.lap_apply(sex, x), hs.adj_apply(sex, x) + 2.0 * x)


def test_apply_input_validation(sex):
    vector_calls = (
        hs.adj_apply,
        hs.lap_apply,
        hs.lap_form,
        lambda h, x: hs.eigenpair_residual(h, 1.0, x),
        lambda h, x: x @ hs.adj_apply(h, x),
        lambda h, x: x @ hs.lap_apply(h, x),
    )
    for call in vector_calls:
        for bad in (np.ones(5), np.ones((6, 1)), np.ones((2, 3))):
            with pytest.raises(DimensionMismatchError):
                call(sex, bad)
        # string, None, object and ragged entries are not numbers
        for bad in (["a"] * 6, [None] * 6, np.array([object()] * 6), "abcdef",
                    [[1.0], [1.0, 2.0], 1, 1, 1, 1]):
            with pytest.raises(InvalidValueError):
                call(sex, bad)
    for eigenvalue in ("x", None, [1.0]):
        with pytest.raises(InvalidValueError):
            hs.eigenpair_residual(sex, eigenvalue, np.ones(6))
    mixed = hs.build_signed(3, [(1, 2), (1, 2, 3)], [1, 1])
    singletons = hs.build_signed(2, [(1,), (2,)], [1, 1])
    edgeless = hs.build_signed(2, [], [])
    for h in (mixed, singletons, edgeless):
        for call in vector_calls + (lambda h, x: hs.nqz_spectral_radius(h),):
            with pytest.raises(NotUniformError):
                call(h, np.ones(h.n))


# ---------------------------------------------------------------------------
# The edge-product kernel against the per-edge loop referees.


def _kernel_instances() -> list[hs.SignedHypergraph]:
    """Bundled instances, then 320 seeded uniform draws with k in
    {2, 3, 4, 6}: half connected, half from generate (possibly
    disconnected, with parallel edges and isolated vertices)."""
    out = [hs.induced_signed(hs.load_bundled(name)) for name in hs.bundled_names()]
    rng = random.Random(2024)
    for i in range(320):
        k = (2, 3, 4, 6)[i % 4]
        seed = rng.randrange(2**32)
        if i % 8 < 4:
            g = hs.random_connected_uniform(random.Random(seed), k, n_max=k + 6, m_max=8)
        else:
            n = rng.randint(k, k + 6)
            g = hs.generate(n, rng.randint(1, 8), k=k, p_neg=0.5, seed=seed)
        out.append(hs.induced_signed(g))
    return out


def test_kernel_matches_edge_loop_bit_for_bit():
    # Same products in the same order, same scatter order: float64
    # contractions must not move by a single bit.
    rng = np.random.default_rng(7)
    for h in _kernel_instances():
        x = rng.standard_normal(h.n)
        x[rng.random(h.n) < 0.1] = 0.0
        for ours, loop in ((hs.adj_apply, loop_adj_apply), (hs.lap_apply, loop_lap_apply)):
            got, want = ours(h, x), loop(h, x)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()


def _exact_adjacency(h: hs.SignedHypergraph, x: list[int]) -> list[int]:
    """Adjacency contraction in Python integers, one edge at a time."""
    out = [0] * h.n
    for j, edge in enumerate(h.edges):
        for v in edge:
            term = h.gamma[j]
            for u in edge:
                if u != v:
                    term *= x[u - 1]
            out[v - 1] += term
    return out


def test_kernel_bit_for_bit_with_negative_edges_and_zeros():
    # The prefix chain starts from gamma: with gamma = -1 edges and zero
    # (also negative-zero) coordinates, float64 contractions still match
    # the per-edge loop bit for bit, and int64 ones the exact sums.
    rng = np.random.default_rng(11)
    for i, h in enumerate(_kernel_instances()):
        if i % 2:
            h = h.with_gamma((-1,) * h.m)
        idx = np.array(h.edges, dtype=np.intp) - 1
        gamma = np.array(h.gamma, dtype=np.int64)
        x = rng.standard_normal(h.n)
        x[rng.random(h.n) < 0.25] = 0.0
        x[rng.random(h.n) < 0.1] = -0.0
        for ours, loop in ((hs.adj_apply, loop_adj_apply), (hs.lap_apply, loop_lap_apply)):
            assert ours(h, x).tobytes() == loop(h, x).tobytes()
        ints = rng.integers(-3, 4, h.n)
        got = _edge_products(idx, gamma, ints)
        assert got.dtype == np.int64
        assert got.tolist() == _exact_adjacency(h, ints.tolist())


def test_kernel_complex_and_forms_within_rounding():
    # A priori bound, fixed before running: every value is a sum of at
    # most m*(k+1) + n products of at most k+1 factors, and a complex
    # product errs by at most 2*sqrt(2)*eps per factor, so two evaluation
    # orders differ by at most 4 * (m*(k+1) + n + k + 1) * eps * sum|terms|.
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(8)
    for h in _kernel_instances():
        k = len(h.edges[0])
        ulps = 4 * (h.m * (k + 1) + h.n + k + 1)
        structure = h.with_gamma((1,) * h.m)
        z = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
        for ours, loop in ((hs.adj_apply, loop_adj_apply), (hs.lap_apply, loop_lap_apply)):
            got = ours(h, z)
            assert got.dtype == np.complex128
            magnitude = loop(structure, np.abs(z))
            assert np.all(np.abs(got - loop(h, z)) <= ulps * eps * magnitude)
        for x in (z, z.real):
            size = np.abs(x)
            lap, adj = loop_lap_form(h, x), loop_adj_form(h, x)
            pairs = (
                (hs.lap_form(h, x), lap, loop_lap_form(structure, size)),
                (x @ hs.lap_apply(h, x), lap, loop_lap_form(structure, size)),
                (x @ hs.adj_apply(h, x), adj, loop_adj_form(structure, size)),
            )
            assert type(pairs[0][0]) is type(lap)
            for got, want, magnitude in pairs:
                assert abs(got - want) <= ulps * eps * magnitude


def test_nqz_matches_edge_loop_iteration_exactly():
    graphs = [hs.load_bundled(name) for name in hs.bundled_names()]
    rng = random.Random(31)
    for i in range(80):
        k = (2, 3, 4, 6)[i % 4]
        g = hs.random_connected_uniform(
            random.Random(rng.randrange(2**32)), k, n_max=k + 6, m_max=8
        )
        graphs.append(g if i % 2 else hs.induced_signed(g))
    for g in graphs:
        assert hs.nqz_spectral_radius(g) == loop_nqz_spectral_radius(g)


def test_nqz_matches_edge_loop_iteration_exactly_at_benchmark_size():
    # The iteration's buffers and its contraction plan are reused for every
    # step, across hundreds of vertices of differing degree and for a few
    # dozen to over a hundred steps; each result must still be the loop's.
    graphs = [hs.generate(200, 400, k=4, connected=True, seed=s) for s in (1, 2, 3)]
    graphs += [
        hs.generate(100, 150, k=2, connected=True, seed=1),
        hs.generate(100, 100, k=6, connected=True, seed=1),
    ]
    for g in graphs:
        radius = hs.nqz_spectral_radius(g)
        assert radius == loop_nqz_spectral_radius(g)
        assert radius.iterations >= 20


def test_int64_contraction_is_exact_past_float64_integers():
    # Products of three entries near 2^18 pass 2^54, and their sums more:
    # float64 holds no odd integer past 2^53, so a float64 scatter (or any
    # float64 step) would round sums that int64 holds exactly.
    rng = np.random.default_rng(3)
    for seed in range(3):
        g = hs.generate(40, 80, k=4, connected=True, p_neg=0.5, seed=seed)
        h = hs.induced_signed(g)
        idx = np.array(h.edges, dtype=np.intp) - 1
        ints = 2**18 - 2 * rng.integers(0, 500, h.n) - 1  # odd, near 2^18
        got = _edge_products(idx, np.array(h.gamma, dtype=np.int64), ints)
        want = _exact_adjacency(h, ints.tolist())
        assert got.dtype == np.int64
        assert max(map(abs, want)) > 2**55
        assert got.tolist() == want


def test_lap_form_values(sex):
    # sum over edges of (sum of x^k) + k * gamma * prod(x over the edge)
    assert hs.lap_form(sex, np.ones(6)) == pytest.approx(24.0)
    minus = sex.with_gamma((-1, -1, -1))
    assert hs.lap_form(minus, np.ones(6)) == pytest.approx(0.0)
    x = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
    expected = (
        (1 + 16 + 1 + 1) + 4 * 2 + (1 + 16 + 1 + 1) + 4 * 2 + 4 + 4 * 1
    )
    assert hs.lap_form(sex, x) == pytest.approx(expected)


def test_lap_form_nonnegative_for_real_vectors_even_k():
    rng = random.Random(99)
    for _ in range(25):
        k = rng.choice([2, 4])
        g = hs.random_connected_uniform(
            random.Random(rng.randrange(2**32)), k, n_max=6, m_max=4
        )
        h = hs.induced_signed(g)
        x = np.array([rng.gauss(0, 2) for _ in range(h.n)])
        assert hs.lap_form(h, x) >= -1e-9


def test_tensor_views(sex):
    assert hs.uniform_edge_size(sex) == 4
    x = np.array([1j, 1, 1j, 1, 1j, 1], dtype=complex)
    assert x @ hs.adj_apply(sex, x) == pytest.approx(loop_adj_form(sex, x))
    assert x @ hs.lap_apply(sex, x) == pytest.approx(hs.lap_form(sex, x))
    assert hs.lap_form(sex, np.ones(6)) == pytest.approx(24.0)


# ---------------------------------------------------------------------------
# Spectral radius iteration.


def test_nqz_on_bundled_example(ex):
    res = hs.nqz_spectral_radius(ex)
    assert res.rho == pytest.approx(2.0, abs=1e-6)
    assert res.lower <= 2.0 <= res.upper + 1e-12


def test_nqz_on_graphs_matches_matrix_route():
    rng = random.Random(55)
    for _ in range(15):
        g = hs.random_connected_uniform(
            random.Random(rng.randrange(2**32)), 2, n_max=7, m_max=6
        )
        res = hs.nqz_spectral_radius(g)
        plus = hs.all_positive_variant(g)
        ref = max(abs(t) for t in hs.sym_eigenvalues(hs.adjacency_matrix(plus)))
        assert res.rho == pytest.approx(ref, abs=2e-8)


def test_nqz_brackets_are_monotone(ex):
    res = hs.nqz_spectral_radius(ex, tol=1e-10)
    lowers = [lo for lo, _ in res.bounds_history]
    uppers = [up for _, up in res.bounds_history]
    assert all(a <= b + 1e-12 for a, b in zip(lowers, lowers[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(uppers, uppers[1:]))
    assert res.upper - res.lower < 1e-10


def test_nqz_star_graph():
    # bipartite star: the plain power method would oscillate; the shift fixes it
    star = hs.build(5, [[(1, 1), (2, 1)], [(1, 1), (3, 1)], [(1, 1), (4, 1)], [(1, 1), (5, 1)]])
    res = hs.nqz_spectral_radius(star)
    assert res.rho == pytest.approx(2.0, abs=1e-8)


def test_nqz_requires_connected_uniform():
    with pytest.raises(NotConnectedError):
        hs.nqz_spectral_radius(hs.build(4, [[(1, 1), (2, 1)], [(3, 1), (4, 1)]]))
    with pytest.raises(NotUniformError):
        hs.nqz_spectral_radius(hs.build(3, [[(1, 1), (2, 1)], [(1, 1), (2, 1), (3, 1)]]))


def test_nqz_budget_exhausted_names_the_bracket_width(monkeypatch):
    path = hs.build(3, [[(1, 1), (2, 1)], [(2, 1), (3, 1)]])
    # From x = 1 the growth ratios are 1, 2, 1 (shift removed): width 1.
    message = r"still 1\.000e\+00 wide after 1 iterations"
    with monkeypatch.context() as patched:
        patched.setattr(tensor, "NQZ_MAX_ITERS", 1)
        with pytest.raises(NoConvergenceError, match=message):
            hs.nqz_spectral_radius(path)
    assert hs.nqz_spectral_radius(path).rho == pytest.approx(math.sqrt(2), abs=1e-8)


def test_nqz_refuses_nan_and_inf_like_zero(ex):
    sex = hs.induced_signed(ex).with_gamma((-1,) * ex.m)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            hs.nqz_spectral_radius(ex, tol=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            # inf would pass the first bracket and its residual check alike
            hs.theorem_battery_even(sex, tol=bad)


def test_nqz_vector_is_an_eigenvector(ex):
    res = hs.nqz_spectral_radius(ex)
    structure = hs.induced_signed(hs.all_positive_variant(ex)).with_gamma((1, 1, 1))
    assert hs.eigenpair_residual(structure, res.rho, np.array(res.vector)) <= NQZ_TOL


def test_eigenpair_residual_validation(sex):
    x = np.array([1j, 1, 1j, 1, 1j, 1])
    assert hs.eigenpair_residual(sex, -2.0, x) <= 1e-12
    assert hs.eigenpair_residual(sex, -2.0, 7 * x) <= 1e-12  # scale-free
    assert hs.eigenpair_residual(sex, 2.0, x) == pytest.approx(4.0)
    with pytest.raises(ZeroVectorError):
        hs.eigenpair_residual(sex, 1.0, np.zeros(6))
    with pytest.raises(DimensionMismatchError):
        hs.eigenpair_residual(sex, 1.0, np.ones(2))


# ---------------------------------------------------------------------------
# Parity criteria.


def test_odd_bipartite_negative_witness(ex):
    verdict = hs.odd_bipartite(ex)
    assert not verdict
    assert verdict.witness_edges == (0, 1, 2)


def test_odd_bipartite_positive_case():
    # 4-cycle: {1} vs {2,3,4} meets both edges... actually each edge once
    # on each side for the partition found by the solver
    cycle = hs.build(4, [[(1, 1), (2, 1)], [(2, 1), (3, 1)], [(3, 1), (4, 1)], [(1, 1), (4, 1)]])
    verdict = hs.odd_bipartite(cycle)
    assert verdict
    part = set(verdict.part_one)
    for j in range(4):
        inside = sum(1 for v in cycle.members(j) if v in part)
        assert inside % 2 == 1


def test_odd_bipartite_requires_even_k():
    with pytest.raises(OddUniformityError):
        hs.odd_bipartite(hs.build(3, [[(1, 1), (2, 1), (3, 1)]]))


def test_h_eigen_minus_rho_feasible_case():
    # all-negative signing of a 4-edge pair: parity system wants even
    # intersections, and the empty switching set works
    h = hs.build_signed(6, [(1, 2, 3, 4), (3, 4, 5, 6)], [-1, -1])
    cert = hs.h_eigen_minus_rho(h)
    assert cert
    assert cert.vertices == ()
    assert cert.signs == (1,) * 6
    assert cert.eigenvalue < 0
    assert cert.residual <= 10 * NQZ_TOL
    assert hs.eigenpair_residual(h, cert.eigenvalue, np.array(cert.eigenvector)) <= 10 * NQZ_TOL


def test_h_eigen_minus_rho_infeasible(sex):
    verdict = hs.h_eigen_minus_rho(sex)
    assert not verdict
    assert verdict.witness_edges == (0, 1, 2)


def test_lap_zero_h_eigen_exact_certificate():
    h = hs.build_signed(4, [(1, 2, 3, 4)], [1])
    cert = hs.lap_zero_h_eigen(h)
    assert cert
    assert cert.eigenvalue == 0.0
    assert cert.residual == 0
    assert isinstance(cert.residual, int)
    # replay the contraction in exact integers
    signs = cert.signs
    for v in range(1, 5):
        inner = h.degree(v)
        for j in h.edges_of(v):
            prod = h.gamma[j]
            for u in h.members(j):
                prod *= signs[u - 1]
            inner += prod
        assert inner == 0


def test_lap_zero_h_eigen_rejects_a_vector_that_does_not_cancel(monkeypatch):
    h = hs.build_signed(4, [(1, 2, 3, 4)], [1])
    # all-ones leaves degree + sign = 2 at every vertex
    monkeypatch.setattr(hs.tensor, "_signs_from_support", lambda n, support: (1,) * n)
    with pytest.raises(InternalCheckError, match="contraction is 2 at vertex 1"):
        hs.lap_zero_h_eigen(h)


def test_lap_zero_h_eigen_infeasible(sex):
    verdict = hs.lap_zero_h_eigen(sex)
    assert not verdict
    assert verdict.witness_edges == (0, 1, 2)


# ---------------------------------------------------------------------------
# Similarity and the six-way battery.


def test_signed_tensor_similarity_positive():
    h = hs.build_signed(4, [(1, 2, 3, 4)], [1])
    flipped = hs.apply_signed_switches(h, hs.SignedSwitchCertificate(vertices=(2,)))
    sim = hs.signed_tensor_similarity(h, flipped)
    assert sim
    # any switching set flipping the edge an odd number of times is valid
    assert len(set(sim.vertices) & {1, 2, 3, 4}) % 2 == 1
    for dense in (dense_adj_tensor, dense_lap_tensor):
        assert sim.signs in diagonal_similarities_bruteforce(h, flipped, dense)


def test_parallel_edges_with_equal_sums_are_similar():
    # Equal tensors: the three parallel edges sum to +1 in both.  Edge by
    # edge no switching maps one signing to the other.
    a = hs.build_signed(4, [(1, 2, 3, 4)] * 3, (1, 1, -1))
    b = hs.build_signed(4, [(1, 2, 3, 4)] * 3, (1, -1, 1))
    assert not hs.signed_switch_equivalent(a, b)
    assert hs.signed_tensor_similarity(a, b) == hs.TensorSimilarity((1,) * 4, ())
    c = hs.build_signed(4, [(1, 2, 3, 4)] * 3, (1, -1, -1))
    assert hs.signed_tensor_similarity(a, c) == hs.TensorSimilarity((-1, 1, 1, 1), (1,))
    d = hs.build_signed(4, [(1, 2, 3, 4)] * 3, (-1, -1, -1))
    assert hs.signed_tensor_similarity(a, d) == hs.NotEquivalent((0, 1, 2))


def test_similarity_check_refuses_wrong_signs(monkeypatch):
    h = hs.build_signed(4, [(1, 2, 3, 4)] * 2, [1, 1])
    monkeypatch.setattr(hs.tensor, "_signs_from_support", lambda n, support: (1,) * n)
    with pytest.raises(InternalCheckError, match="no similarity"):
        hs.signed_tensor_similarity(h, h.with_gamma((-1, -1)))


def _similarity_pairs(count: int):
    """Seeded pairs on the same k-uniform structure, k in {2, 4}, n <= 8,
    most with parallel edges.  The second signing is the first switched
    and then shuffled within each parallel group (similar), or drawn at
    random (mostly not)."""
    rng = random.Random(1113)
    for i in range(count):
        k = (2, 4)[i % 2]
        n = rng.randint(k, 8)
        sets = [tuple(rng.sample(range(1, n + 1), k)) for _ in range(rng.randint(1, 4))]
        edges = [e for e in sets for _ in range(rng.choice((1, 1, 2, 3)))]
        rng.shuffle(edges)
        first = hs.build_signed(n, edges, [rng.choice((-1, 1)) for _ in edges])
        if i % 3:
            switched = [v for v in range(1, n + 1) if rng.random() < 0.5]
            gamma = list(hs.apply_signed_switches(
                first, hs.SignedSwitchCertificate(switched)).gamma)
            for key in set(map(frozenset, edges)):
                group = [j for j, e in enumerate(edges) if frozenset(e) == key]
                signs = [gamma[j] for j in group]
                rng.shuffle(signs)
                for j, sign in zip(group, signs):
                    gamma[j] = sign
        else:
            gamma = [rng.choice((-1, 1)) for _ in edges]
        yield first, first.with_gamma(tuple(gamma))


def test_similarity_matches_signature_enumeration():
    kinds = Counter()
    for first, second in _similarity_pairs(240):
        adjacency = diagonal_similarities_bruteforce(first, second, dense_adj_tensor)
        laplacian = diagonal_similarities_bruteforce(first, second, dense_lap_tensor)
        assert adjacency == laplacian  # the diagonal is never scaled
        verdict = hs.signed_tensor_similarity(first, second)
        assert bool(verdict) == bool(adjacency)
        if verdict:
            assert verdict.signs in adjacency
            assert verdict.vertices == tuple(
                v for v in range(1, first.n + 1) if verdict.signs[v - 1] == -1
            )
        else:
            assert verdict.witness_edges
        switch = hs.signed_switch_equivalent(first, second)
        kinds[bool(verdict), bool(switch)] += 1
        if first.m == len(set(map(frozenset, first.edges))):  # no parallel edges
            if verdict:
                assert verdict.vertices == switch.vertices
            else:
                assert verdict.witness_edges == switch.witness_edges
    # similar pairs that no edge-by-edge switching relates occur
    assert min(kinds[True, True], kinds[True, False], kinds[False, False]) >= 20


def test_signed_tensor_similarity_negative(sex):
    minus = sex.with_gamma((-1, -1, -1))
    verdict = hs.signed_tensor_similarity(sex, minus)
    assert not verdict
    assert verdict.witness_edges == (0, 1, 2)


def test_battery_all_false_on_bundled_example(sex):
    rep = hs.theorem_battery_even(sex)
    assert rep.agree
    assert rep.values() == (False,) * 6


def test_battery_all_true_on_gamma_negative_twin(ex):
    # same structure as the bundled example, signs chosen so every edge
    # sign is -1: the battery passes although the orientation is unbalanced
    twin = hs.build(
        6,
        [
            [(1, -1), (2, -1), (3, 1), (4, 1)],
            [(1, 1), (2, 1), (5, 1), (6, 1)],
            [(3, 1), (4, 1), (5, 1), (6, 1)],
        ],
    )
    signed = hs.induced_signed(twin)
    assert signed.gamma == (-1, -1, -1)
    rep = hs.theorem_battery_even(signed)
    assert rep.agree and rep.all_true
    assert not hs.incidence_balance(twin)
    assert rep.eigen_certificate.residual <= 10 * NQZ_TOL
    assert rep.laplacian_certificate.residual == 0


def test_battery_requires_even_connected():
    with pytest.raises(OddUniformityError):
        hs.theorem_battery_even(hs.build_signed(3, [(1, 2, 3)], [1]))
    with pytest.raises(NotConnectedError):
        hs.theorem_battery_even(hs.build_signed(4, [(1, 2), (3, 4)], [1, 1]))


def test_battery_statements_agree_on_random_even_instances():
    rng = random.Random(606)
    for i in range(40):
        k = 2 if i % 2 == 0 else 4
        g = hs.random_connected_uniform(
            random.Random(rng.randrange(2**32)), k, n_max=7, m_max=5
        )
        signed = hs.induced_signed(g)
        rep = hs.theorem_battery_even(signed, seed=rng.randrange(2**32))
        assert rep.agree
        if hs.incidence_balance(g):
            assert rep.all_true


# ---------------------------------------------------------------------------
# One parity solve per battery.  Statements 1, 3, 5 and 6 restate that
# solve, so their agreement proves nothing; these tests check it against
# sign-vector enumeration and replay its certificates by loops.


def _parity_instances(count: int) -> list[hs.SignedHypergraph]:
    """Seeded connected even-k instances on at most 14 vertices, signed by
    their orientation (even i) or at random (odd i)."""
    rng = random.Random(808)
    out = []
    for i in range(count):
        k = (2, 4, 6)[i % 3]
        g = hs.random_connected_uniform(
            random.Random(rng.randrange(2**32)), k, n_max=k + 8, m_max=8
        )
        h = hs.induced_signed(g)
        if i % 2:
            h = h.with_gamma(tuple(rng.choice((-1, 1)) for _ in range(h.m)))
        out.append(h)
    return out


def _meets_every_parity(h, signs) -> bool:
    for j, edge in enumerate(h.edges):
        switched = sum(1 for v in edge if signs[v - 1] == -1)
        if switched % 2 != (1 if h.gamma[j] == 1 else 0):
            return False
    return True


def _laplacian_contraction(h, signs) -> list[int]:
    k = len(h.edges[0])
    out = [h.degree(v) * signs[v - 1] ** (k - 1) for v in range(1, h.n + 1)]
    for j, edge in enumerate(h.edges):
        for v in edge:
            product = h.gamma[j]
            for u in edge:
                if u != v:
                    product *= signs[u - 1]
            out[v - 1] += product
    return out


def test_parity_answers_match_sign_vector_enumeration():
    kinds = Counter()
    for h in _parity_instances(540):
        rep = hs.theorem_battery_even(h)
        assert rep.agree
        assert rep.parity_bipartition == (parity_sign_vector_bruteforce(h) is not None)
        all_odd = parity_sign_vector_bruteforce(h.with_gamma((1,) * h.m))
        assert bool(hs.odd_bipartite(h)) == (all_odd is not None)
        kinds[len(h.edges[0]), rep.parity_bipartition] += 1
        certificates = (
            rep.switch_certificate, rep.eigen_certificate, rep.laplacian_certificate
        )
        if rep.parity_bipartition:
            switched = rep.switch_certificate.vertices
            signs = tuple(-1 if v in switched else 1 for v in range(1, h.n + 1))
            for cert in certificates[1:]:
                assert cert.vertices == switched and cert.signs == signs
            assert _meets_every_parity(h, signs)
            assert _laplacian_contraction(h, signs) == [0] * h.n
        else:
            witness = rep.switch_certificate.witness_edges
            assert witness
            assert all(cert.witness_edges == witness for cert in certificates)
            # Every vertex sits in an even number of witness edges (the
            # left-hand sides cancel) and the right-hand sides sum to 1.
            for v in range(1, h.n + 1):
                assert sum(1 for j in witness if v in h.edges[j]) % 2 == 0
            assert sum(1 for j in witness if h.gamma[j] == 1) % 2 == 1
    assert min(kinds[k, feasible] for k in (2, 4, 6) for feasible in (True, False)) >= 20


def test_every_parity_no_is_the_route_witness():
    negatives = Counter()
    for h in _parity_instances(240):
        rep = hs.theorem_battery_even(h)
        answers = {
            "odd_bipartite": (hs.odd_bipartite(h), (1,) * h.m),
            "h_eigen_minus_rho": (hs.h_eigen_minus_rho(h), h.gamma),
            "lap_zero_h_eigen": (hs.lap_zero_h_eigen(h), h.gamma),
            "switch_certificate": (rep.switch_certificate, h.gamma),
            "eigen_certificate": (rep.eigen_certificate, h.gamma),
            "laplacian_certificate": (rep.laplacian_certificate, h.gamma),
        }
        for name, (answer, gamma) in answers.items():
            if answer:
                continue
            negatives[name] += 1
            assert type(answer) is hs.NotEquivalent and answer.cycle is None
            witness = answer.witness_edges
            for v in range(1, h.n + 1):
                assert sum(1 for j in witness if v in h.edges[j]) % 2 == 0
            assert sum(1 for j in witness if gamma[j] == 1) % 2 == 1
    assert len(negatives) == 6 and min(negatives.values()) >= 20


def test_one_parity_solve_and_one_connectivity_check_per_call(monkeypatch, sex):
    calls = Counter()

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for module, name in ((hs.linalg._GF2Reduction, "solve"), (hs.tensor, "is_connected")):
        monkeypatch.setattr(module, name, counting(module, name))
    feasible = hs.build_signed(6, [(1, 2, 3, 4), (3, 4, 5, 6)], [-1, -1])
    assert hs.theorem_battery_even(feasible).all_true
    assert not hs.theorem_battery_even(sex).parity_bipartition
    for h in (feasible, sex):
        for call, solves in (
            (hs.theorem_battery_even, 1),
            (hs.h_eigen_minus_rho, 1),
            (hs.lap_zero_h_eigen, 1),
            (hs.nqz_spectral_radius, 0),
        ):
            calls.clear()
            call(h)
            assert (calls["is_connected"], calls["solve"]) == (1, solves)
        twin = h.with_gamma((-1,) * h.m)
        for call, args in ((hs.odd_bipartite, (h,)), (hs.signed_switch_equivalent, (h, twin))):
            calls.clear()
            call(*args)
            assert calls["solve"] == 1


def test_battery_certificates_equal_the_public_calls():
    for h in _parity_instances(120):
        rep = hs.theorem_battery_even(h)
        all_negative = h.with_gamma((-1,) * h.m)
        assert rep.switch_certificate == hs.signed_switch_equivalent(h, all_negative)
        assert rep.eigen_certificate == hs.h_eigen_minus_rho(h)
        assert rep.laplacian_certificate == hs.lap_zero_h_eigen(h)


# ---------------------------------------------------------------------------
# The core's store of structure-only results.


def test_instances_read_apart_run_their_own_nqz(structure_runs, tmp_path, ex):
    path = tmp_path / "ex.ohg"
    hs.save(ex, path)
    first, second = hs.load(path), hs.load(path)
    assert hs.structures_match(first, second)
    radii = [hs.nqz_spectral_radius(g) for g in (first, second, first, second)]
    assert structure_runs == {"nqz": 2, "kernel": 2}
    assert radii[0] == radii[1] and radii[0] is radii[2] and radii[1] is radii[3]


def test_derived_copies_reuse_their_parents_results(structure_runs, ex):
    radius = hs.nqz_spectral_radius(ex)
    switched = hs.apply_switches(ex, hs.SwitchCertificate(vertices=(1, 4), edges=(2,)))
    plus = hs.all_positive_variant(ex)
    copies = [hs.induced_signed(ex), switched, plus, hs.induced_signed(plus),
              hs.signed_vertex_switch(hs.induced_signed(switched), 5)]
    for copy in copies:
        assert hs.nqz_spectral_radius(copy) is radius
        assert hs.is_connected(copy)
        assert hs.connected_components(copy) == [list(range(ex.n + ex.m))]
    assert structure_runs == {"nqz": 1, "kernel": 1}
    assert hs.nqz_spectral_radius(ex, tol=1e-6) is not radius  # another tolerance
    assert structure_runs == {"nqz": 2, "kernel": 1}


def test_battery_eigenvector_is_the_signed_perron_vector_bit_for_bit():
    # Every orientation +1 on a 4-uniform structure makes every edge
    # negative; switching two vertices keeps the battery feasible and makes
    # the certificate flip the Perron vector on them.
    g = hs.generate(12, 20, k=4, connected=True, seed=1)
    g = hs.apply_switches(g, hs.SwitchCertificate(vertices=(2, 7)))
    report = hs.theorem_battery_even(hs.induced_signed(g))
    cert = report.eigen_certificate
    assert report.all_true and set(cert.vertices) in ({2, 7}, set(range(1, 13)) - {2, 7})
    radius = hs.nqz_spectral_radius(g)
    flipped = np.array(cert.signs, dtype=np.float64) * np.array(radius.vector)
    assert np.array(cert.eigenvector).tobytes() == flipped.tobytes()
    assert cert.eigenvalue == -radius.rho
    apart = hs.nqz_spectral_radius(hs.parse(hs.serialize(g)))
    assert apart == radius and apart is not radius


def test_a_run_that_raises_stores_nothing(monkeypatch, structure_runs):
    path = hs.build(3, [[(1, 1), (2, 1)], [(2, 1), (3, 1)]])
    radius = hs.nqz_spectral_radius(path)
    stored = dict(path.incidence_core._results)
    with monkeypatch.context() as patched:
        patched.setattr(tensor, "NQZ_MAX_ITERS", 1)
        for _ in range(2):
            with pytest.raises(NoConvergenceError, match="after 1 iterations"):
                hs.nqz_spectral_radius(path)
    assert structure_runs["nqz"] == 3 and path.incidence_core._results == stored
    assert hs.nqz_spectral_radius(path) is radius
    assert structure_runs["nqz"] == 3


def test_the_store_keeps_the_furthest_carried_parity_reduction(monkeypatch, structure_runs):
    # An all-(+1) orientation switched at seeded vertices: its all-(+1)
    # signing stops at a 0 = 1 before the last row, and its own signing is
    # feasible.  The store keeps the reduction each solve returns, so the
    # battery carries it on to every row and the switching solve resumes
    # from there.
    draw = random.Random(1)
    base = hs.all_positive_variant(hs.generate(40, 80, k=4, connected=True, seed=1))
    flips = hs.SwitchCertificate(vertices=tuple(v for v in range(1, 41) if draw.random() < 0.3))
    g = hs.parse(hs.serialize(hs.apply_switches(base, flips)))
    switched = hs.SignedSwitchCertificate(tuple(v for v in range(1, 41) if draw.random() < 0.5))
    questions = (
        hs.odd_bipartite,
        lambda g: hs.theorem_battery_even(hs.induced_signed(g)),
        lambda g: hs.signed_switch_equivalent(
            hs.induced_signed(g), hs.apply_signed_switches(hs.induced_signed(g), switched)
        ),
    )
    starts, solve = [], linalg._GF2Reduction.solve

    def recording_solve(self, rhs):
        starts.append(self.reached)
        return solve(self, rhs)

    monkeypatch.setattr(linalg._GF2Reduction, "solve", recording_solve)
    answers = [question(g) for question in questions]
    assert structure_runs["parity"] == 1
    assert not answers[0] and answers[1].all_true and answers[2]
    # The rows each solve found reached: none, some, then every row.
    assert 0 < starts[1] < g.m and starts == [0, starts[1], g.m]
    # Each question asked alone of the structure read apart: a fresh solve.
    assert answers == [question(hs.parse(hs.serialize(g))) for question in questions]


def _store_copies(g):
    """g and copies derived from it, which share its store, each twice."""
    return [g, hs.induced_signed(g), hs.all_positive_variant(g),
            hs.apply_switches(g, hs.SwitchCertificate(vertices=(1,)))] * 2


def _store_answers(i, h):
    """The structure-only results, then the three parity questions on one
    signing each, asked of copy i: switching equivalence to a switched copy
    (even i) or to seeded random signs (odd i)."""
    signed = h if isinstance(h, hs.SignedHypergraph) else hs.induced_signed(h)
    draw = random.Random(i)
    if i % 2:
        other = signed.with_gamma(tuple(draw.choice((-1, 1)) for _ in range(h.m)))
    else:
        switched = [v for v in range(1, h.n + 1) if draw.random() < 0.5]
        other = hs.apply_signed_switches(signed, hs.SignedSwitchCertificate(switched))
    return (hs.nqz_spectral_radius(h), hs.connected_components(h), hs.odd_bipartite(h),
            hs.theorem_battery_even(signed), hs.signed_switch_equivalent(signed, other))


def test_concurrent_first_calls_store_equal_results():
    # Eight threads ask a fresh instance and its derived copies at once,
    # with the interpreter switching threads as often as it can.  Threads
    # that race on the store both compute; each answer must still equal
    # the one asked serially of the same structure read apart.  The parity
    # questions race on the stored GF(2) reduction: each solve stores the
    # copy it returns, and the next resumes whichever was stored last.
    g = hs.generate(40, 80, k=4, connected=True, seed=3)
    apart = _store_copies(hs.parse(hs.serialize(g)))
    expected = [_store_answers(i, h) for i, h in enumerate(apart)]
    copies = _store_copies(g)
    results, errors = [None] * len(copies), []

    def ask(i):
        try:
            results[i] = _store_answers(i, copies[i])
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(copies))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)
    assert results == expected
    assert {type(r[2]).__name__ for r in results} == {"NotEquivalent"}
    assert {r[3].all_true for r in results} == {True}
    assert {bool(r[4]) for r in results} == {True, False}
    # The roots, one radius and one parity reduction.
    assert len(g.incidence_core._results) == 3


def test_structural_radius_dominates_signed_h_eigenvalues():
    # whenever -rho is certified, |eigenvalue| equals the structural radius
    rng = random.Random(607)
    hits = 0
    for _ in range(30):
        g = hs.random_connected_uniform(
            random.Random(rng.randrange(2**32)), 2, n_max=6, m_max=5
        )
        signed = hs.induced_signed(g)
        cert = hs.h_eigen_minus_rho(signed)
        if cert:
            hits += 1
            rho = hs.nqz_spectral_radius(g).rho
            assert cert.eigenvalue == pytest.approx(-rho, abs=1e-7)
    assert hits > 0
