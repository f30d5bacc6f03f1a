"""Seeded random instance generation.

Connected instances are grown greedily: the first edge takes fresh
vertices, every later edge anchors on at least one already-covered
vertex and otherwise prefers fresh ones, so the incidence structure
stays connected and all vertices get covered whenever the edge sizes
make that arithmetically possible.  Duplicate vertex sets are resampled
a bounded number of times (parallel edges are legal, just avoided).
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from numbers import Real

from .core import MAX_VERTICES, OrientedHypergraph, build
from .errors import (
    InfeasibleParametersError,
    InvalidValueError,
    VertexLimitExceededError,
    check_integer,
)

__all__ = ["generate", "random_connected", "random_connected_uniform"]

_DEDUP_RETRIES = 30
_ENSEMBLE_RETRIES = 200
# Most incidences one draw may hold, checked before any is drawn.  A draw
# takes about 300 bytes per incidence (generate(10^5, 2 * 10^5, k=4)
# peaked 230 MB above the interpreter), so 3 * 2^20 of them keep it within
# the 1 GiB budget behind MAX_VERTICES.
_MAX_INCIDENCES = 3 << 20


class _Without(Sequence):
    """Read-only view of a list with the entry at one position left out."""

    def __init__(self, items: list[int], skip: int):
        self._items = items
        self._skip = skip

    def __len__(self) -> int:
        return len(self._items) - 1

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self._items[i + (i >= self._skip)]


def _draw_rest(
    rng: random.Random,
    covered: list[int],
    position: list[int],
    anchors: list[int],
    count: int,
) -> list[int]:
    """count covered vertices other than the anchor, drawn exactly as
    rng.sample draws them from the covered list without the anchor, but
    without copying that list (position[v] is v's index in covered)."""
    pool = _Without(covered, position[anchors[0]]) if anchors else covered
    return rng.sample(pool, count)


def generate(
    n: int,
    m: int,
    k: int | None = None,
    size_range: tuple[int, int] | None = None,
    p_neg: float = 0.0,
    connected: bool = False,
    seed: int = 0,
) -> OrientedHypergraph:
    """Random oriented hypergraph, deterministic under seed.

    Exactly one of k (uniform size) or size_range (inclusive bounds,
    sampled per edge) is required when m > 0.  Each orientation is -1
    with probability p_neg.  With connected=True the instance is grown
    around a spanning structure; infeasible combinations raise.  n, m, k,
    the bounds and seed are integers (errors.check_integer), p_neg a real
    number; n is at most MAX_VERTICES, and m edges of the largest size
    may hold at most 3 * 2^20 incidences.
    """
    n, m, seed = check_integer(n, "n"), check_integer(m, "m"), check_integer(seed, "seed")
    if k is not None:
        k = check_integer(k, "k")
    if size_range is not None:
        try:
            lo, hi = size_range
        except (TypeError, ValueError):
            raise InvalidValueError(
                f"size_range must be a (low, high) pair, got {size_range!r:.40}"
            ) from None
        lo, hi = check_integer(lo, "size_range low"), check_integer(hi, "size_range high")
    if isinstance(p_neg, bool) or not isinstance(p_neg, Real):
        raise InvalidValueError(f"p_neg must be a real number, got {p_neg!r:.40}")
    if n < 0 or m < 0:
        raise InfeasibleParametersError("n and m must be nonnegative")
    if n > MAX_VERTICES:
        raise VertexLimitExceededError(n, MAX_VERTICES)
    if not 0.0 <= p_neg <= 1.0:
        raise InfeasibleParametersError("p_neg must lie in [0, 1]")
    rng = random.Random(seed)
    if m == 0:
        if connected and n > 1:
            raise InfeasibleParametersError(
                f"{n} vertices cannot be connected without edges"
            )
        return build(n, [])
    if (k is None) == (size_range is None):
        raise InfeasibleParametersError(
            "exactly one of k or size_range is required when m > 0"
        )
    if k is not None:
        lo = hi = k
        if not 1 <= k <= n:
            raise InfeasibleParametersError(f"edge size {k} outside 1..{n}")
    elif not 1 <= lo <= hi <= n:
        raise InfeasibleParametersError(f"size range {lo}..{hi} invalid for {n} vertices")
    if m * hi > _MAX_INCIDENCES:
        raise InfeasibleParametersError(
            f"{m} edges of up to {hi} members exceed the limit of {_MAX_INCIDENCES} incidences"
        )
    sizes = [k] * m if k is not None else [rng.randint(lo, hi) for _ in range(m)]

    specs: list[list[tuple[int, int]]] = []
    seen_sets: set[frozenset[int]] = set()

    def orient(vertices: list[int]) -> list[tuple[int, int]]:
        return [
            (v, -1 if rng.random() < p_neg else 1) for v in sorted(vertices)
        ]

    def sample_members(size: int) -> list[int]:
        for _ in range(_DEDUP_RETRIES):
            pick = rng.sample(range(1, n + 1), size)
            if frozenset(pick) not in seen_sets:
                return pick
        return rng.sample(range(1, n + 1), size)

    if connected:
        if size_range is not None:
            # A short draw is topped up toward the upper bound so that
            # feasibility depends on the parameters, not on the draw.
            deficit = n - (sum(sizes) - (m - 1))
            room = [j for j in range(m) if sizes[j] < hi]
            while deficit > 0 and room:
                j = rng.choice(room)
                sizes[j] += 1
                deficit -= 1
                if sizes[j] == hi:
                    room.remove(j)
        if sum(sizes) - (m - 1) < n:
            raise InfeasibleParametersError(
                f"edges of sizes {sizes} cannot cover {n} vertices while connected"
            )
        uncovered = list(range(1, n + 1))
        rng.shuffle(uncovered)
        covered: list[int] = []
        position = [0] * (n + 1)
        for j, size in enumerate(sizes):
            if j > 0 and not uncovered:
                # Everything is covered: any vertex set keeps connectivity.
                members = sample_members(size)
            else:
                anchors = [] if j == 0 else [rng.choice(covered)]
                fresh_count = min(size - len(anchors), len(uncovered))
                fresh = [uncovered.pop() for _ in range(fresh_count)]
                rest = _draw_rest(
                    rng, covered, position, anchors, size - len(anchors) - fresh_count
                )
                members = anchors + fresh + rest
                for v in fresh:
                    position[v] = len(covered)
                    covered.append(v)
            specs.append(orient(members))
            seen_sets.add(frozenset(members))
    else:
        for size in sizes:
            members = sample_members(size)
            specs.append(orient(members))
            seen_sets.add(frozenset(members))
    return build(n, specs)


def random_connected(
    rng: random.Random,
    n_max: int = 8,
    m_max: int = 6,
    size_min: int = 2,
    size_max: int = 4,
    p_neg: float = 0.5,
) -> OrientedHypergraph:
    """Connected instance with sizes drawn from the given window.

    Parameter combinations whose sizes cannot cover the vertices are
    redrawn, so every call succeeds (deterministically under rng).
    """
    n_max, m_max = check_integer(n_max, "n_max"), check_integer(m_max, "m_max")
    size_min, size_max = check_integer(size_min, "size_min"), check_integer(size_max, "size_max")
    if n_max < 2 or m_max < 1:
        raise InfeasibleParametersError("n_max must be at least 2 and m_max at least 1")
    for _ in range(_ENSEMBLE_RETRIES):
        n = rng.randint(2, n_max)
        m = rng.randint(1, m_max)
        lo = min(size_min, n)
        hi = min(size_max, n)
        try:
            return generate(
                n,
                m,
                size_range=(lo, hi),
                p_neg=p_neg,
                connected=True,
                seed=rng.randrange(2**32),
            )
        except InfeasibleParametersError:
            continue
    raise InfeasibleParametersError("could not draw a connected instance")


def random_connected_uniform(
    rng: random.Random,
    k: int,
    n_max: int = 8,
    m_max: int = 6,
    p_neg: float = 0.5,
) -> OrientedHypergraph:
    """Connected k-uniform instance (vertex count drawn from k..n_max)."""
    k = check_integer(k, "k")
    n_max, m_max = check_integer(n_max, "n_max"), check_integer(m_max, "m_max")
    if not 1 <= k <= n_max or m_max < 1:
        raise InfeasibleParametersError(f"k must lie in 1..{n_max} and m_max be at least 1")
    for _ in range(_ENSEMBLE_RETRIES):
        n = rng.randint(k, n_max)
        m = rng.randint(1, m_max)
        if n > m * (k - 1) + 1:
            continue
        return generate(
            n, m, k=k, p_neg=p_neg, connected=True, seed=rng.randrange(2**32)
        )
    raise InfeasibleParametersError(
        f"could not draw a connected {k}-uniform instance"
    )
