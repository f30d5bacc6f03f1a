import importlib
import random

import numpy as np
import pytest

import hypersign as hs
from hypersign.errors import InfeasibleParametersError

from _oracles import draw_rest_by_pool_rebuild


def test_generate_is_deterministic():
    a = hs.generate(6, 4, size_range=(2, 3), p_neg=0.5, connected=True, seed=12)
    b = hs.generate(6, 4, size_range=(2, 3), p_neg=0.5, connected=True, seed=12)
    assert a == b
    c = hs.generate(6, 4, size_range=(2, 3), p_neg=0.5, connected=True, seed=13)
    assert a != c


def test_generate_respects_bounds():
    g = hs.generate(7, 5, size_range=(2, 4), p_neg=0.3, seed=3)
    assert g.n == 7 and g.m == 5
    for j in range(g.m):
        assert 2 <= len(g.members(j)) <= 4
        for v in g.members(j):
            assert 1 <= v <= 7


def test_generate_uniform_k():
    g = hs.generate(6, 4, k=3, seed=9)
    assert hs.uniform_edge_size(g) == 3


def test_generate_sign_probability_extremes():
    allpos = hs.generate(6, 4, k=2, p_neg=0.0, seed=1)
    assert all(s == 1 for e in allpos.edges for _, s in e)
    allneg = hs.generate(6, 4, k=2, p_neg=1.0, seed=1)
    assert all(s == -1 for e in allneg.edges for _, s in e)


def test_generate_connected_flag():
    for seed in range(10):
        g = hs.generate(8, 5, size_range=(2, 4), connected=True, seed=seed)
        assert hs.is_connected(g)


def test_generate_rejects_bad_parameters():
    with pytest.raises(InfeasibleParametersError):
        hs.generate(-1, 2, k=2)
    with pytest.raises(InfeasibleParametersError):
        hs.generate(4, 2)  # neither k nor size_range
    with pytest.raises(InfeasibleParametersError):
        hs.generate(4, 2, k=2, size_range=(2, 3))  # both
    with pytest.raises(InfeasibleParametersError):
        hs.generate(4, 2, k=5)
    with pytest.raises(InfeasibleParametersError):
        hs.generate(4, 2, size_range=(3, 2))
    with pytest.raises(InfeasibleParametersError):
        hs.generate(4, 2, k=2, p_neg=1.5)
    with pytest.raises(InfeasibleParametersError):
        hs.generate(9, 2, k=3, connected=True)  # cannot cover 9 vertices
    with pytest.raises(InfeasibleParametersError):
        hs.generate(2, 0, k=2, connected=True)  # no edges, two components


def test_generate_edgeless():
    g = hs.generate(3, 0, size_range=(2, 2), seed=0)
    assert g.m == 0 and g.n == 3


def test_random_connected_stays_in_bounds():
    rng = random.Random(77)
    for _ in range(30):
        g = hs.random_connected(rng, n_max=8, m_max=6, size_min=2, size_max=4)
        assert 1 <= g.n <= 8
        assert 1 <= g.m <= 6
        assert all(2 <= len(g.members(j)) <= 4 for j in range(g.m))
        assert hs.is_connected(g)


def test_random_connected_uniform_stays_in_bounds():
    rng = random.Random(78)
    for k in (2, 3, 4):
        for _ in range(15):
            g = hs.random_connected_uniform(rng, k, n_max=8, m_max=6)
            assert hs.uniform_edge_size(g) == k
            assert hs.is_connected(g)
            assert g.n <= 8 and g.m <= 6


def test_connected_draw_matches_pool_rebuild(monkeypatch):
    # The view of the covered list must hand rng.sample the same sequence
    # as the rebuilt pool, so every instance stays bit-identical per seed.
    module = importlib.import_module("hypersign.generate")
    rng = random.Random(5150)
    params = []
    for i in range(360):
        n = rng.randint(1, 12) if i % 3 == 0 else rng.randint(13, 200)
        m = rng.randint(max(1, n // 2), 2 * n + 2)
        if i % 2:
            kwargs = dict(k=rng.randint(1, min(n, 6)))
        else:
            lo = rng.randint(1, min(n, 4))
            kwargs = dict(size_range=(lo, min(n, lo + rng.randint(0, 4))))
        params.append((n, m, kwargs, rng.random(), rng.randrange(2**32)))

    def draw_all():
        out = []
        for n, m, kwargs, p_neg, seed in params:
            try:
                out.append(hs.generate(n, m, p_neg=p_neg, connected=True, seed=seed, **kwargs))
            except InfeasibleParametersError as exc:
                out.append(str(exc))
        return out

    fast = draw_all()
    draws = []

    def referee(rng, covered, position, anchors, count):
        draws.append((len(covered), count))
        return draw_rest_by_pool_rebuild(rng, covered, position, anchors, count)

    monkeypatch.setattr(module, "_draw_rest", referee)
    assert fast == draw_all()
    assert sum(isinstance(g, hs.OrientedHypergraph) for g in fast) >= 300
    # Nonempty draws from pools both below and above random.sample's
    # switch from copying the population to indexing it.
    nonempty = [size for size, count in draws if count]
    assert sum(size <= 21 for size in nonempty) >= 20
    assert sum(size > 21 for size in nonempty) >= 20


@pytest.mark.parametrize("field", ["n", "m", "k", "p_neg", "seed"])
@pytest.mark.parametrize("bad", [True, 1.5, "1", None, 1 + 0j, []])
def test_generate_parameters_follow_the_input_contract(field, bad):
    # Integers that are not bools, and a real p_neg: anything else is an
    # invalid value, refused before anything is drawn.  A p_neg of 1.5 is
    # a real outside [0, 1], and k=None asks for size_range instead.
    params = dict(n=4, m=2, k=2, p_neg=0.5, seed=1)
    params[field] = bad
    valid = (field, bad) in (("p_neg", 1.5), ("k", None))
    with pytest.raises(InfeasibleParametersError if valid else hs.InvalidValueError):
        hs.generate(**params)
    with pytest.raises(hs.InvalidValueError):
        hs.generate(4, 2, size_range=(2, bad))


def test_generate_refuses_sizes_past_its_limits_before_drawing():
    with pytest.raises(hs.VertexLimitExceededError):
        hs.generate(2**63, 1, k=1, connected=True)
    with pytest.raises(InfeasibleParametersError, match="incidences"):
        hs.generate(3, 2**63, k=2)
    assert hs.generate(3, 2, k=2, seed=np.int64(5)) == hs.generate(3, 2, k=2, seed=5)
    with pytest.raises(InfeasibleParametersError):
        hs.random_connected(random.Random(1), n_max=1)
    with pytest.raises(InfeasibleParametersError):
        hs.random_connected_uniform(random.Random(1), 2**63)
