"""Acceptance suite: one test per release criterion.

Each test pins the exact tolerances and ensemble sizes of its criterion;
the conftest hook prints a PASS/FAIL line per criterion after the run.
Seeds are frozen so the ensembles are reproducible.
"""

import json
import math
import random
import time

import numpy as np
import pytest

import hypersign as hs
from hypersign.cli import main
from hypersign.linalg import GF2Infeasible, GF2Solution, GF2System, gf2_solve

from _oracles import balance_by_bipartition_bruteforce


def _sweep_orientations(base, n):
    """Every +-1 orientation assignment of a fixed structure."""
    count = sum(len(e) for e in base)
    for bits in range(2**count):
        specs, k = [], 0
        for e in base:
            spec = []
            for v in e:
                spec.append((v, 1 if (bits >> k) & 1 == 0 else -1))
                k += 1
            specs.append(spec)
        yield hs.build(n, specs)


def test_criterion_1_bundled_example_regression():
    start = time.perf_counter()
    ex = hs.load_bundled("ex_c3_42")
    sex = hs.induced_signed(ex)

    radius = hs.nqz_spectral_radius(ex)
    assert abs(radius.rho - 2.0) <= 1e-6

    x = np.array([1j, 1, 1j, 1, 1j, 1], dtype=complex)
    assert hs.eigenpair_residual(sex, -2.0, x) <= 1e-12

    assert isinstance(hs.odd_bipartite(ex), hs.NotEquivalent)
    assert isinstance(hs.h_eigen_minus_rho(sex), hs.NotEquivalent)

    plus_signing = hs.induced_signed(hs.all_positive_variant(ex))
    assert isinstance(hs.signed_switch_equivalent(sex, plus_signing), hs.NotEquivalent)

    assert time.perf_counter() - start < 1.0


def test_criterion_2_five_way_equivalence_suite():
    start = time.perf_counter()
    limits = hs.OracleLimits(max_nodes=16, max_cycles=20_000, max_paths=20_000)

    rng = random.Random(2024)
    for i in range(200):
        g = hs.random_connected(rng, n_max=8, m_max=6, size_min=2, size_max=4)
        report = hs.equivalence_battery(g, limits)
        assert report.agree, (i, report.values())

    # exhaustive orientation sweep of one fixed 8-incidence structure
    for g in _sweep_orientations([[1, 2, 3], [3, 4], [1, 4, 5]], 5):
        report = hs.equivalence_battery(g, limits)
        assert report.agree, report.values()

    assert time.perf_counter() - start < 30.0


def test_criterion_3_spectral_suite_tracks_structure():
    abs_tol, rel_tol = 1e-7, 1e-9

    def check(g):
        structural = bool(hs.incidence_balance(g))
        suite = hs.spectral_balance_tests(g, abs_tol=abs_tol, rel_tol=rel_tol)
        assert suite.decisions == (structural,) * 3, suite.classify(structural)
        m = hs.incidence_matrix(g)
        lap = hs.laplacian_matrix(g)
        assert np.array_equal(m.T @ m, lap)
        assert min(hs.sym_eigenvalues(lap)) >= -1e-9
        top = max(hs.singular_values(m))
        plus = hs.all_positive_variant(g)
        target = max(hs.singular_values(hs.incidence_matrix(plus)))
        assert top <= target + 1e-7

    rng = random.Random(2024)
    for _ in range(200):
        check(hs.random_connected(rng, n_max=8, m_max=6, size_min=2, size_max=4))
    for g in _sweep_orientations([[1, 2, 3], [3, 4], [1, 4, 5]], 5):
        check(g)


def test_criterion_4_hand_verified_fixed_points():
    e1 = hs.build(2, [[(1, 1), (2, -1)]])
    suite = hs.spectral_balance_tests(e1)
    lap = next(r for r in suite.reports if r.criterion == "laplacian-eigenvalue")
    assert lap.spectrum == pytest.approx([0.0, 2.0], abs=1e-8)
    assert lap.target == pytest.approx(2.0, abs=1e-8)
    assert lap.decision is True
    assert bool(hs.incidence_balance(e1))

    triangle = hs.build(3, [[(1, -1), (2, 1)], [(1, 1), (3, 1)], [(2, 1), (3, 1)]])
    suite = hs.spectral_balance_tests(triangle)
    by_name = {r.criterion: r for r in suite.reports}
    assert by_name["adjacency-eigenvalue"].spectrum == pytest.approx(
        [-2.0, 1.0, 1.0], abs=1e-8
    )
    assert by_name["laplacian-eigenvalue"].spectrum == pytest.approx(
        [0.0, 3.0, 3.0], abs=1e-8
    )
    assert by_name["adjacency-eigenvalue"].target == pytest.approx(2.0, abs=1e-8)
    assert by_name["laplacian-eigenvalue"].target == pytest.approx(4.0, abs=1e-8)
    assert not hs.incidence_balance(triangle)
    assert suite.decisions == (False, False, False)


def test_criterion_5_even_uniform_battery():
    rng = random.Random(41)
    logged_nonconverse = 0
    for i in range(120):
        k = 2 if i % 2 == 0 else 4
        g = hs.random_connected_uniform(rng, k, n_max=8, m_max=6)
        signed = hs.induced_signed(g)
        report = hs.theorem_battery_even(signed, seed=rng.randrange(2**32))
        assert report.agree, (i, report.values())
        structural = bool(hs.incidence_balance(g))
        if structural:
            assert report.all_true, i
        if report.all_true and not structural:
            logged_nonconverse += 1
        # Laplacian zero-eigenvalue certificates must be exact
        if report.zero_h_eigen:
            cert = report.laplacian_certificate
            assert cert.residual == 0
            for v in range(1, signed.n + 1):
                inner = signed.degree(v)
                for j in signed.edges_of(v):
                    prod = signed.gamma[j]
                    for u in signed.members(j):
                        prod *= cert.signs[u - 1]
                    inner += prod
                assert inner == 0
    assert logged_nonconverse >= 1


def test_criterion_6_minus_rho_membership_slice():
    rng = random.Random(61)
    for i in range(120):
        g = hs.random_connected_uniform(rng, 2, n_max=8, m_max=6)
        signed = hs.induced_signed(g)
        spectrum = hs.sym_eigenvalues(hs.signed_adjacency_matrix(signed))
        rho = hs.nqz_spectral_radius(g).rho
        member, _ = hs.spectrum_contains(spectrum, -rho, abs_tol=1e-7)
        feasible = bool(hs.h_eigen_minus_rho(signed))
        assert member == feasible, (i, member, feasible)


def test_criterion_7_numerical_kernels():
    rng = random.Random(700)
    for _ in range(1000):
        n = rng.randint(1, 12)
        a = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                a[i, j] = a[j, i] = rng.randint(-9, 9)
        eigenvalues = hs.sym_eigenvalues(a)
        fro = math.sqrt(float((a * a).sum()))
        assert abs(sum(eigenvalues) - np.trace(a)) <= 1e-9 * max(1.0, fro)
        assert abs(sum(x * x for x in eigenvalues) - fro * fro) <= 1e-8 * max(
            1.0, fro * fro
        )

    for _ in range(1000):
        nvars = rng.randint(1, 12)
        rows = tuple(
            (rng.getrandbits(nvars), rng.getrandbits(1))
            for _ in range(rng.randint(0, 14))
        )
        system = GF2System(nvars, rows)
        outcome = gf2_solve(system)
        if isinstance(outcome, GF2Solution):
            assert system.evaluate(outcome.assignment) == [rhs for _, rhs in rows]
        else:
            assert isinstance(outcome, GF2Infeasible)
            mask = rhs = 0
            for r in outcome.witness_rows:
                mask ^= rows[r][0]
                rhs ^= rows[r][1]
            assert (mask, rhs) == (0, 1)


def test_criterion_8_switching_invariance():
    rng = random.Random(88)
    for i in range(100):
        g = hs.random_connected(rng, n_max=8, m_max=6, size_min=2, size_max=4)
        cert = hs.SwitchCertificate(
            vertices=tuple(v for v in range(1, g.n + 1) if rng.random() < 0.4),
            edges=tuple(j for j in range(g.m) if rng.random() < 0.4),
        )
        moved = hs.apply_switches(g, cert)
        before = hs.sym_eigenvalues(hs.laplacian_matrix(g))
        after = hs.sym_eigenvalues(hs.laplacian_matrix(moved))
        assert max(abs(x - y) for x, y in zip(before, after)) <= 1e-8, i
        assert bool(hs.incidence_balance(g)) == bool(hs.incidence_balance(moved)), i


def test_criterion_9_cli_round_trips_and_fault_injection(capsys):
    for name in hs.bundled_names():
        g = hs.load_bundled(name)
        for fmt in ("ohg", "json"):
            assert hs.parse(hs.serialize(g, fmt)) == g

    assert main(["battery", "--instances", "10", "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["battery", "--instances", "10", "--seed", "3", "--inject-fault"]) == 3
    out = capsys.readouterr().out
    assert "DISAGREEMENT" in out

    # the JSON report carries the injected disagreement
    assert (
        main(["battery", "--instances", "10", "--seed", "3", "--inject-fault", "--json"])
        == 3
    )
    data = json.loads(capsys.readouterr().out)
    assert data["fault_injected"] is True
    assert data["disagreements"][0]["suite"] == "five-way"


def test_bipartition_oracle_cross_check():
    # independent safety net for criteria 2 and 5: exhaustive bipartition
    # search agrees with the library verdict on a fresh sample
    rng = random.Random(4242)
    for _ in range(40):
        g = hs.random_connected(rng, n_max=6, m_max=4)
        assert bool(hs.incidence_balance(g)) == (
            balance_by_bipartition_bruteforce(g) is not None
        )
