import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hypersign as hs
from hypersign.errors import (
    DenseLimitExceededError,
    NotConnectedError,
    NotUniformError,
)
from hypersign.linalg import MEMBERSHIP_ABS_TOL, MEMBERSHIP_REL_TOL
from hypersign.spectral import A_CRITERION, L_CRITERION, M_CRITERION

from _oracles import (
    jacobi_eigenvalues,
    jacobi_singular_values,
    loop_adjacency_matrix,
    loop_incidence_matrix,
    loop_laplacian_matrix,
)


def test_incidence_matrix_entries(ex):
    m = hs.incidence_matrix(ex)
    assert m.shape == (3, 6)
    expected = np.ones((3, 6), dtype=int)
    expected[0, [4, 5]] = 0
    expected[1, [2, 3]] = 0
    expected[2, [0, 1]] = 0
    expected[0, 1] = -1
    expected[1, 5] = -1
    expected[2, 2] = -1
    assert np.array_equal(m, expected)


def test_adjacency_matrix_single_edge(e1):
    a = hs.adjacency_matrix(e1)
    assert np.array_equal(a, [[0, -1], [-1, 0]])
    lap = hs.laplacian_matrix(e1)
    assert np.array_equal(lap, [[1, -1], [-1, 1]])


def test_adjacency_matrix_triangle(triangle):
    a = hs.adjacency_matrix(triangle)
    assert np.array_equal(a, [[0, -1, 1], [-1, 0, 1], [1, 1, 0]])


def test_laplacian_equals_gram_of_incidence(ex, e1, triangle):
    for g in (ex, e1, triangle):
        m = hs.incidence_matrix(g)
        lap = hs.laplacian_matrix(g)
        assert np.array_equal(m.T @ m, lap)


def test_matrices_have_integer_dtype(ex):
    h = hs.build_signed(3, [(1, 2), (2, 3)], [1, -1])
    for arr in (
        hs.incidence_matrix(ex),
        hs.adjacency_matrix(ex),
        hs.laplacian_matrix(ex),
        hs.signed_adjacency_matrix(h),
    ):
        assert type(arr) is np.ndarray and arr.dtype == np.int64
        assert not arr.flags.writeable


def test_parallel_edges_accumulate():
    g = hs.build(2, [[(1, 1), (2, 1)], [(1, 1), (2, -1)]])
    a = hs.adjacency_matrix(g)
    assert np.array_equal(a, [[0, 0], [0, 0]])  # -1 and +1 cancel
    lap = hs.laplacian_matrix(g)
    assert np.array_equal(lap, [[2, 0], [0, 2]])


def test_signed_adjacency_matrix():
    h = hs.build_signed(3, [(1, 2), (2, 3), (1, 3)], [1, 1, -1])
    a = hs.signed_adjacency_matrix(h)
    assert np.array_equal(a, [[0, 1, -1], [1, 0, 1], [-1, 1, 0]])
    mixed = hs.build_signed(3, [(1, 2, 3)], [1])
    with pytest.raises(NotUniformError):
        hs.signed_adjacency_matrix(mixed)


def test_suite_on_balanced_single_edge(e1):
    suite = hs.spectral_balance_tests(e1)
    by_name = {r.criterion: r for r in suite.reports}
    assert set(by_name) == {M_CRITERION, L_CRITERION, A_CRITERION}
    assert by_name[M_CRITERION].target == pytest.approx(math.sqrt(2), abs=1e-9)
    assert by_name[L_CRITERION].target == pytest.approx(2.0, abs=1e-9)
    assert by_name[A_CRITERION].target == pytest.approx(1.0, abs=1e-9)
    assert suite.decisions == (True, True, True)
    assert suite.agree
    assert suite.classify(True) == ("agree", "agree", "agree")


def test_suite_on_unbalanced_triangle(triangle):
    suite = hs.spectral_balance_tests(triangle)
    by_name = {r.criterion: r for r in suite.reports}
    assert by_name[M_CRITERION].target == pytest.approx(2.0, abs=1e-9)
    assert by_name[L_CRITERION].target == pytest.approx(4.0, abs=1e-9)
    assert by_name[A_CRITERION].target == pytest.approx(2.0, abs=1e-9)
    assert by_name[L_CRITERION].spectrum == pytest.approx([0.0, 3.0, 3.0], abs=1e-8)
    assert by_name[A_CRITERION].spectrum == pytest.approx([-2.0, 1.0, 1.0], abs=1e-8)
    assert suite.decisions == (False, False, False)
    assert suite.classify(False) == ("agree", "agree", "agree")
    # a mismatch with a fat margin would be a contradiction
    assert suite.classify(True) == ("contradiction",) * 3


def test_suite_rejects_disconnected():
    g = hs.build(4, [[(1, 1), (2, 1)], [(3, 1), (4, 1)]])
    with pytest.raises(NotConnectedError):
        hs.spectral_balance_tests(g)


def test_dense_layer_refuses_oversized_input_before_allocating():
    n = 30_000
    path = hs.build(n, [[(v, 1), (v + 1, -1)] for v in range(1, n)])
    signed = hs.induced_signed(path)
    builders = (
        (hs.incidence_matrix, path),
        (hs.laplacian_matrix, path),
        (hs.adjacency_matrix, path),
        (hs.signed_adjacency_matrix, signed),
    )
    for build, instance in builders:
        tracemalloc.start()
        try:
            with pytest.raises(DenseLimitExceededError, match="exceeds the limit"):
                build(instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a refused 30,000-vertex matrix is 6.7 GiB
    with pytest.raises(DenseLimitExceededError):
        hs.spectral_balance_tests(path)
    assert issubclass(DenseLimitExceededError, hs.HypersignError)
    assert hs.DenseLimitExceededError is DenseLimitExceededError


def test_dense_limit_admits_the_n1000_rung():
    g = hs.generate(1000, 2000, size_range=(2, 4), connected=True, seed=1)
    assert hs.incidence_matrix(g).shape == (2000, 1000)
    assert hs.laplacian_matrix(g).shape == (1000, 1000)


def test_suite_trivial_instances():
    suite = hs.spectral_balance_tests(hs.build(1, []))
    assert suite.decisions == (True, True, True)
    suite = hs.spectral_balance_tests(hs.build(0, []))
    assert suite.agree


def test_spectral_decisions_track_structure_randomly():
    rng = random.Random(31)
    for _ in range(50):
        g = hs.random_connected(rng, n_max=7, m_max=5)
        structural = bool(hs.incidence_balance(g))
        suite = hs.spectral_balance_tests(g)
        assert suite.classify(structural) == ("agree",) * 3


def test_singular_values_never_exceed_all_positive_target():
    rng = random.Random(32)
    for _ in range(40):
        g = hs.random_connected(rng, n_max=7, m_max=5)
        sv = max(hs.singular_values(hs.incidence_matrix(g)))
        plus = max(hs.singular_values(hs.incidence_matrix(hs.all_positive_variant(g))))
        assert sv <= plus + 1e-7


def test_laplacian_positive_semidefinite():
    rng = random.Random(33)
    for _ in range(40):
        g = hs.random_connected(rng, n_max=7, m_max=5)
        assert min(hs.sym_eigenvalues(hs.laplacian_matrix(g))) >= -1e-9


def _bundled_and_random(draws: int, seed: int):
    instances = [hs.load_bundled(name) for name in hs.bundled_names()]
    rng = random.Random(seed)
    return instances + [hs.random_connected(rng) for _ in range(draws)]


def test_matrix_builders_match_pair_loops():
    rng = random.Random(35)
    parallel = [  # parallel edges and unit edges, not necessarily connected
        hs.generate(6, 9, size_range=(1, 4), p_neg=0.5, seed=rng.randrange(2**32))
        for _ in range(30)
    ]
    for g in _bundled_and_random(300, 34) + parallel:
        for ours, ref in (
            (hs.incidence_matrix(g), loop_incidence_matrix(g)),
            (hs.laplacian_matrix(g), loop_laplacian_matrix(g)),
            (hs.adjacency_matrix(g), loop_adjacency_matrix(g)),
        ):
            assert ours.dtype == ref.dtype
            assert np.array_equal(ours, ref)


def _referee_suite(g) -> hs.SpectralTestSuite:
    """The three criteria, from pair-loop matrices and Jacobi spectra."""
    plus = hs.all_positive_variant(g)

    def report(criterion, spectrum, plus_spectrum):
        target = max(plus_spectrum)
        decision, margin = hs.spectrum_contains(spectrum, target)
        return hs.SpectralReport(
            criterion, target, tuple(spectrum), decision, margin,
            MEMBERSHIP_ABS_TOL, MEMBERSHIP_REL_TOL,
        )

    return hs.SpectralTestSuite(
        report(
            M_CRITERION,
            jacobi_singular_values(loop_incidence_matrix(g)),
            jacobi_singular_values(loop_incidence_matrix(plus)),
        ),
        report(
            L_CRITERION,
            jacobi_eigenvalues(loop_laplacian_matrix(g)),
            jacobi_eigenvalues(loop_laplacian_matrix(plus)),
        ),
        report(
            A_CRITERION,
            jacobi_eigenvalues(loop_adjacency_matrix(g)),
            jacobi_eigenvalues(loop_adjacency_matrix(plus)),
        ),
    )


def test_decisions_match_jacobi_referee():
    for g in _bundled_and_random(300, 36):
        structural = bool(hs.incidence_balance(g))
        suite = hs.spectral_balance_tests(g)
        ref = _referee_suite(g)
        assert suite.decisions == ref.decisions
        assert suite.classify(structural) == ref.classify(structural)


def _public_route(g, abs_tols):
    """The suite composed from public names alone, for each abs_tol: the
    builders' int64 matrices of g and of its all-positive variant, their
    spectra from singular_values and sym_eigenvalues, and spectrum_contains."""
    plus = hs.all_positive_variant(g)
    spectra = []
    if g.m:
        spectra.append((M_CRITERION, *map(hs.singular_values, map(hs.incidence_matrix, (g, plus)))))
    if g.n:
        for criterion, build in ((L_CRITERION, hs.laplacian_matrix), (A_CRITERION, hs.adjacency_matrix)):
            spectra.append((criterion, *map(hs.sym_eigenvalues, map(build, (g, plus)))))
    suites = []
    for abs_tol in abs_tols:
        reports = {c: hs.SpectralReport(c, 0.0, (), True, 0.0, abs_tol, MEMBERSHIP_REL_TOL)
                   for c in (M_CRITERION, L_CRITERION, A_CRITERION)}
        for criterion, spectrum, plus_spectrum in spectra:
            target = max(plus_spectrum)
            decision, margin = hs.spectrum_contains(spectrum, target, abs_tol)
            reports[criterion] = hs.SpectralReport(
                criterion, target, tuple(spectrum), decision, margin, abs_tol, MEMBERSHIP_REL_TOL
            )
        suites.append(hs.SpectralTestSuite(*reports.values()))
    return suites


def test_suite_equals_the_public_route_bit_for_bit():
    golden = Path(__file__).parent / "golden"
    instances = [hs.load(path) for path in sorted(golden.glob("*.ohg"))]
    instances += _bundled_and_random(100, 37)
    instances += [
        hs.generate(n, 2 * n, size_range=(2, 4), connected=True, p_neg=p_neg, seed=3)
        for n in (40, 320)
        for p_neg in (0.0, 0.3)
    ]
    instances += [hs.build(1, []), hs.build(1, [[(1, -1)], [(1, 1)]])]
    abs_tols = (1e-300, 1e-7, 1e3)
    for g in instances:
        for abs_tol, ref in zip(abs_tols, _public_route(g, abs_tols)):
            suite = hs.spectral_balance_tests(g, abs_tol)
            assert suite == ref
            # repr tells -0.0 from 0.0 and prints every float to the last bit.
            assert repr(suite) == repr(ref)
