import dataclasses
import math
import random

import numpy as np
import pytest

import hypersign as hs
from hypersign import balance
from hypersign.errors import NotAPartitionError, OracleBudgetExceededError

from _oracles import balance_by_bipartition_bruteforce


def test_single_mixed_edge_is_balanced(e1):
    verdict = hs.incidence_balance(e1)
    assert verdict
    assert verdict.part_positive == (1,)
    assert verdict.part_negative == (2,)
    assert not verdict.has_empty_part
    assert hs.verify_bipartition(e1, verdict.part_positive, verdict.part_negative)


def test_triangle_is_unbalanced(triangle):
    verdict = hs.incidence_balance(triangle)
    assert not verdict
    assert verdict.cycle.is_closed
    assert hs.incidence_sign_of(verdict.cycle, triangle) == -1


def test_ex_is_unbalanced(ex):
    verdict = hs.incidence_balance(ex)
    assert not verdict
    assert hs.incidence_sign_of(verdict.cycle, ex) == -1


def test_balance_certificate_switches_to_all_positive(e1):
    verdict = hs.incidence_balance(e1)
    switched = hs.apply_switches(e1, verdict.cert)
    assert all(
        switched.orientation(j, v) == 1
        for j in range(switched.m)
        for v in switched.members(j)
    )


def test_all_positive_edge_members_share_a_part():
    # with every orientation positive the edge must sit inside one part
    g = hs.build(2, [[(1, 1), (2, 1)]])
    verdict = hs.incidence_balance(g)
    assert verdict
    assert verdict.part_positive == (1, 2) or verdict.part_negative == (1, 2)
    assert verdict.has_empty_part


def test_empty_and_edgeless_instances_are_balanced():
    assert hs.incidence_balance(hs.build(0, []))
    v = hs.incidence_balance(hs.build(3, []))
    assert v
    assert set(v.part_positive) | set(v.part_negative) == {1, 2, 3}


def test_verify_bipartition_rejects_bad_partitions(e1):
    with pytest.raises(NotAPartitionError):
        hs.verify_bipartition(e1, (1, 2), (2,))
    with pytest.raises(NotAPartitionError):
        hs.verify_bipartition(e1, (1,), ())
    # a genuine partition that fails the polarity test returns False
    assert not hs.verify_bipartition(e1, (1, 2), ())


def test_balance_agrees_with_bruteforce_bipartitions():
    rng = random.Random(900)
    for _ in range(60):
        g = hs.random_connected(rng, n_max=6, m_max=4)
        verdict = hs.incidence_balance(g)
        brute = balance_by_bipartition_bruteforce(g)
        assert bool(verdict) == (brute is not None)
        if verdict:
            assert hs.verify_bipartition(g, verdict.part_positive, verdict.part_negative)


def test_balance_invariant_under_switching():
    rng = random.Random(901)
    for _ in range(40):
        g = hs.random_connected(rng, n_max=7, m_max=5)
        verts = tuple(v for v in range(1, g.n + 1) if rng.random() < 0.5)
        edges = tuple(j for j in range(g.m) if rng.random() < 0.5)
        moved = hs.apply_switches(g, hs.SwitchCertificate(verts, edges))
        assert bool(hs.incidence_balance(g)) == bool(hs.incidence_balance(moved))


def test_five_way_battery_on_balanced_and_unbalanced(ex, e1):
    limits = hs.OracleLimits(max_nodes=16)
    rep = hs.equivalence_battery(e1, limits)
    assert rep.agree
    assert all(rep.values())
    rep = hs.equivalence_battery(ex, limits)
    assert rep.agree
    assert not any(rep.values())
    assert rep.verdict is not None


def test_five_way_battery_replays_the_witness(monkeypatch, e1, ex):
    # statement 5 must catch a wrong certificate next to correct parts,
    # and a positive cycle offered as the witness of imbalance
    limits = hs.OracleLimits(max_nodes=16)
    right = hs.incidence_balance(e1)
    wrong_cert = dataclasses.replace(right, cert=hs.SwitchCertificate(vertices=(1,)))
    positive = next(walk for walk, sign in hs.enumerate_cycles(ex).cycles if sign == 1)
    for g, verdict in ((e1, wrong_cert), (ex, hs.Unbalanced(cycle=positive))):
        monkeypatch.setattr(balance, "incidence_balance", lambda _, v=verdict: v)
        rep = hs.equivalence_battery(g, limits)
        assert rep.values()[:4] == (bool(verdict),) * 4
        assert rep.switch_equivalent_all_positive != bool(verdict)
        assert not rep.agree


def test_five_way_battery_budget_guard():
    g = hs.generate(13, 6, k=3, seed=4, connected=True)
    with pytest.raises(OracleBudgetExceededError):
        hs.equivalence_battery(g, hs.OracleLimits(max_nodes=16))


def test_five_way_battery_exhaustive_small_structure():
    # every orientation of a fixed 7-incidence structure; the five
    # statements may never disagree
    base = [[1, 2], [2, 3], [1, 3, 4]]
    count = sum(len(e) for e in base)
    limits = hs.OracleLimits(max_nodes=16)
    balanced = 0
    for bits in range(2**count):
        specs, k = [], 0
        for e in base:
            spec = []
            for v in e:
                spec.append((v, 1 if (bits >> k) & 1 == 0 else -1))
                k += 1
            specs.append(spec)
        g = hs.build(4, specs)
        rep = hs.equivalence_battery(g, limits)
        assert rep.agree, bits
        balanced += bool(rep.values()[0])
    assert 0 < balanced < 2**count


def test_blocked_labeling_search_matches_bruteforce(monkeypatch):
    instances = [hs.load_bundled(name) for name in hs.bundled_names()]
    rng = random.Random(902)
    for _ in range(150):
        instances.append(hs.random_connected(rng, n_max=7, m_max=5))
    for _ in range(50):
        n = rng.randint(1, 8)
        instances.append(hs.generate(
            n, rng.randint(0, 12 - n), size_range=(1, n), p_neg=0.5,
            seed=rng.randrange(2**32),
        ))
    checked = 0
    for g in instances:
        nodes = g.n + g.m
        if nodes > 12 or g.m == 0:
            continue
        incidences = g.incidence_count
        expected = balance_by_bipartition_bruteforce(g) is not None
        # blocks of one labeling, and about a third of all labelings
        for per_block in (1, max(1, 2**nodes // 3)):
            assert per_block < 2**nodes
            cells = per_block * (nodes + incidences)
            monkeypatch.setattr(balance, "_LABELING_BLOCK_CELLS", cells)
            assert balance._labeling_exists(g, 16) == expected
        checked += 1
    assert checked > 150


def test_labeling_search_refuses_more_than_63_nodes():
    g = hs.build(60, [[(1, 1), (2, 1)]] * 4)
    with pytest.raises(OracleBudgetExceededError):
        balance._labeling_exists(g, max_nodes=100)


def test_oracle_budgets_are_integers_of_at_least_one():
    # NaN and inf would leave the oracles with no budget at all.
    for bad in (math.nan, math.inf, True, 0, -1, 1.5, "20"):
        for field in ("max_nodes", "max_cycles", "max_paths"):
            with pytest.raises(hs.InvalidValueError):
                hs.OracleLimits(**{field: bad})
    limits = hs.OracleLimits(max_cycles=np.int64(7))
    assert limits.max_cycles == 7 and type(limits.max_cycles) is int
