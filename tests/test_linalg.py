import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypersign as hs
from hypersign import linalg, switching
from hypersign.errors import EmptySpectrumError
from hypersign.linalg import (
    GF2Infeasible,
    GF2Solution,
    GF2System,
    _GF2Reduction,
    _ones,
    gf2_solve,
    singular_values,
    spectrum_contains,
    sym_eigenvalues,
)

from _oracles import gf2_solve_by_reduction, jacobi_eigenvalues, jacobi_singular_values

# ---------------------------------------------------------------------------
# Matrix input.


def test_dense_sym_requires_exact_symmetry(ex):
    with pytest.raises(ValueError):
        sym_eigenvalues([[0, 1], [1.0000001, 0]])
    with pytest.raises(ValueError):
        sym_eigenvalues([[0, 1, 2], [1, 0, 3]])
    assert len(sym_eigenvalues([[2, 1], [1, 2]])) == 2
    lap = hs.laplacian_matrix(ex)
    with pytest.raises(ValueError):
        lap[0, 0] = 9  # write-protected


def test_rect_matrix_shape():
    assert len(singular_values([[1, 2, 3], [4, 5, 6]])) == 2
    with pytest.raises(ValueError):
        singular_values(np.zeros(3))


# ---------------------------------------------------------------------------
# Eigenvalues / singular values.


def test_eigenvalues_hand_examples():
    assert sym_eigenvalues([[0, -1], [-1, 0]]) == pytest.approx([-1, 1], abs=1e-12)
    assert sym_eigenvalues([[1, -1], [-1, 1]]) == pytest.approx([0, 2], abs=1e-12)
    assert sym_eigenvalues(np.diag([3.0, -5.0, 3.0])) == [-5.0, 3.0, 3.0]
    assert sym_eigenvalues(np.zeros((2, 2))) == [0.0, 0.0]
    assert sym_eigenvalues(np.zeros((0, 0))) == []


@st.composite
def symmetric_int_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    entries = draw(
        st.lists(
            st.integers(min_value=-9, max_value=9),
            min_size=n * (n + 1) // 2,
            max_size=n * (n + 1) // 2,
        )
    )
    a = np.zeros((n, n))
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = next(it)
    return a


@settings(max_examples=150, deadline=None)
@given(symmetric_int_matrices())
def test_eigenvalues_match_reference(a):
    ours = sym_eigenvalues(a)
    ref = jacobi_eigenvalues(a)
    fro = max(1.0, math.sqrt((a * a).sum()))
    assert max(abs(x - y) for x, y in zip(ours, ref)) <= 1e-10 * fro


@settings(max_examples=100, deadline=None)
@given(symmetric_int_matrices())
def test_eigenvalue_invariants(a):
    ev = sym_eigenvalues(a)
    fro2 = float((a * a).sum())
    assert abs(sum(ev) - np.trace(a)) <= 1e-9 * max(1.0, math.sqrt(fro2))
    assert abs(sum(x * x for x in ev) - fro2) <= 1e-8 * max(1.0, fro2)


def test_singular_values_match_reference():
    m = [[1, -1]]
    assert singular_values(m) == pytest.approx([math.sqrt(2)], abs=1e-12)
    wide = [[1, 0, 2], [0, 1, -2]]
    tall = [[1, 0], [0, 1], [2, -2]]
    assert singular_values(wide) == pytest.approx(singular_values(tall), abs=1e-9)
    assert singular_values(wide) == pytest.approx(jacobi_singular_values(wide), abs=1e-9)


def test_small_singular_value_keeps_absolute_accuracy():
    g = hs.parse_text(
        "vertices 4\n"
        "edge e1 -1 +2 -3 +4\n"
        "edge e2 +1 +2 +3 -4\n"
        "edge e3 +1 +2\n"
        "edge e4 +1 -2 +3 -4\n"
    )
    m = hs.incidence_matrix(g)
    # M (0, 0, 1, 1)ᵀ = 0 exactly, so the smallest singular value is 0; a
    # Gram-matrix route reports it as about 3e-8.
    assert not (m @ np.array([0, 0, 1, 1])).any()
    ours = singular_values(m)
    ref = sorted(np.linalg.svd(m.astype(float), compute_uv=False))
    assert max(abs(x - y) for x, y in zip(ours, ref)) <= 1e-12 * ref[-1]
    assert ours[0] <= 1e-12 * ours[-1]


def test_non_finite_entries_are_rejected():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            sym_eigenvalues(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            singular_values(np.array([[1.0, bad]]))


def test_singular_values_empty():
    assert singular_values(np.zeros((0, 4))) == []


# ---------------------------------------------------------------------------
# Spectrum membership.


def test_spectrum_contains_boundary():
    member, margin = spectrum_contains([1.9999999], 2.0, abs_tol=1e-7)
    assert member
    assert margin == pytest.approx(1e-7, rel=1e-6)


def test_spectrum_contains_basic():
    assert spectrum_contains([0.0, 2.0], 2.0)[0]
    member, margin = spectrum_contains([0.0, 2.0], 1.0)
    assert not member
    assert margin == 1.0
    with pytest.raises(EmptySpectrumError):
        spectrum_contains([], 1.0)
    with pytest.raises(ValueError):
        spectrum_contains([1.0], 1.0, abs_tol=0.0)
    for value in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            spectrum_contains([1.0], 1.0, abs_tol=value)


def test_spectrum_contains_checks_its_target_like_the_spectrum():
    # A finite real 0-d array-like: Python and numpy bools alike read as
    # 0 or 1, as they do in a spectrum.
    for target in (True, np.True_):
        assert spectrum_contains([1.0], target) == (True, 0.0)
    assert spectrum_contains([0.0], np.float32(0.5)) == (False, 0.5)
    assert spectrum_contains([2.0], np.array(2)) == (True, 0.0)
    for target in (10**400, math.inf, -math.inf, math.nan, "1", None, 1j, [0.0], object()):
        with pytest.raises(hs.InvalidValueError, match="target"):
            spectrum_contains([0.0], target)


# ---------------------------------------------------------------------------
# GF(2) systems.


def test_gf2_single_row_canonical_solution():
    res = gf2_solve(GF2System.from_sets(4, [((1, 2, 3, 4), 1)]))
    assert isinstance(res, GF2Solution)
    assert res.assignment == (1, 0, 0, 0)
    assert res.support == (1,)


def test_gf2_infeasible_witness():
    sys_ = GF2System.from_sets(
        6,
        [((1, 2, 3, 4), 1), ((1, 2, 5, 6), 1), ((3, 4, 5, 6), 1)],
    )
    res = gf2_solve(sys_)
    assert isinstance(res, GF2Infeasible)
    assert res.witness_rows == (0, 1, 2)
    mask = rhs = 0
    for r in res.witness_rows:
        mask ^= sys_.rows[r][0]
        rhs ^= sys_.rows[r][1]
    assert (mask, rhs) == (0, 1)


def test_gf2_trivial_and_empty_systems():
    res = gf2_solve(GF2System(3, ()))
    assert res.assignment == (0, 0, 0)
    res = gf2_solve(GF2System(0, ()))
    assert res.assignment == ()
    res = gf2_solve(GF2System.from_sets(2, [((), 1)]))
    assert isinstance(res, GF2Infeasible)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gf2_random_systems_reverify(data):
    nvars = data.draw(st.integers(min_value=1, max_value=10))
    nrows = data.draw(st.integers(min_value=0, max_value=12))
    rows = tuple(
        (
            data.draw(st.integers(min_value=0, max_value=2**nvars - 1)),
            data.draw(st.integers(min_value=0, max_value=1)),
        )
        for _ in range(nrows)
    )
    sys_ = GF2System(nvars, rows)
    res = gf2_solve(sys_)
    if isinstance(res, GF2Solution):
        assert sys_.evaluate(res.assignment) == [rhs for _, rhs in rows]
    else:
        mask = rhs = 0
        for r in res.witness_rows:
            mask ^= rows[r][0]
            rhs ^= rows[r][1]
        assert (mask, rhs) == (0, 1)


def test_gf2_from_sets_rejects_out_of_range_variables():
    for bad in (0, -1, 5):
        with pytest.raises(ValueError):
            GF2System.from_sets(4, [((1, bad), 0)])
    with pytest.raises(ValueError):
        GF2System.from_sets(0, [((1,), 1)])
    with pytest.raises(ValueError):
        GF2System.from_sets(2, [((1,), 2)])
    assert GF2System.from_sets(3, [((1, 3, 3), 1)]).rows == ((0b101, 1),)


_MALFORMED_SYSTEMS = {
    "float variable": lambda: GF2System.from_sets(2, [((1, 2.5), 1)]),
    "string variable": lambda: GF2System.from_sets(2, [(("1",), 1)]),
    "bool variable": lambda: GF2System.from_sets(2, [((True,), 1)]),
    "numpy bool variable": lambda: GF2System.from_sets(2, [((np.True_,), 1)]),
    "float count in from_sets": lambda: GF2System.from_sets(2.5, [((1,), 1)]),
    "variables not iterable": lambda: GF2System.from_sets(2, [(1, 1)]),
    "equation without rhs": lambda: GF2System.from_sets(2, [((1,),)]),
    "float rhs in from_sets": lambda: GF2System.from_sets(2, [((1,), 1.0)]),
    "float count": lambda: GF2System(2.5, ()),
    "string count": lambda: GF2System("2", ()),
    "bool count": lambda: GF2System(True, ()),
    "float mask": lambda: GF2System(2, ((1.5, 0),)),
    "string mask": lambda: GF2System(2, (("1", 0),)),
    "bool mask": lambda: GF2System(2, ((True, 0),)),
    "float rhs": lambda: GF2System(2, ((1, 1.0),)),
    "row without rhs": lambda: GF2System(2, ((1,),)),
    "row not a pair": lambda: GF2System(2, (1,)),
}


@pytest.mark.parametrize("make", _MALFORMED_SYSTEMS.values(), ids=_MALFORMED_SYSTEMS)
def test_gf2_malformed_systems_raise_invalid_value(make):
    with pytest.raises(hs.InvalidValueError):
        gf2_solve(make())


def test_gf2_integer_types_are_stored_as_ints():
    system = GF2System(np.int64(3), ((np.int64(5), np.int8(1)), (2, True)))
    assert system == GF2System(3, ((5, 1), (2, 1)))
    assert all(type(x) is int for row in system.rows for x in row)
    assert type(system.nvars) is int
    assert GF2System.from_sets(np.int32(3), [((np.int64(1), 3), 1)]).rows == ((0b101, 1),)
    assert gf2_solve(system).assignment == (1, 1, 0)


def _saturating_system(rng: random.Random, nvars: int, full: bool, late_conflict: bool):
    """Rows that reach rank n - 1 (or n) early, then dependent rows.

    With full=False every row is orthogonal to a hidden nonzero vector z, so
    the rank stops at n - 1 and later rows are all dependent.  Right-hand
    sides come from a hidden solution; with late_conflict one dependent row
    after the rank is reached gets its right-hand side flipped.
    """
    limit = (1 << nvars) - 1
    z = 0 if full else rng.randint(1, limit)
    hidden = rng.randint(0, limit)

    def draw() -> int:
        while True:
            mask = rng.randint(0, limit)
            if not (mask & z).bit_count() & 1:
                return mask

    target = nvars if full else nvars - 1
    rows, span = [], {}
    while len(span) < target:
        mask = draw()
        rows.append((mask, (mask & hidden).bit_count() & 1))
        m = mask
        while m and (m & -m).bit_length() - 1 in span:
            m ^= span[(m & -m).bit_length() - 1]
        if m:
            span[(m & -m).bit_length() - 1] = m
    tail = [draw() for _ in range(rng.randint(0, 3 * nvars))]
    rows += [(mask, (mask & hidden).bit_count() & 1) for mask in tail]
    if late_conflict:
        at = rng.randint(len(rows) - len(tail), len(rows))
        mask = draw()
        rows.insert(at, (mask, 1 - ((mask & hidden).bit_count() & 1)))
    return GF2System(nvars, tuple(rows))


def _flat(rows) -> tuple[np.ndarray, np.ndarray]:
    """Member lists (variables 1..n) as the route's two arrays: the vertex
    nodes (v - 1) of every row in row order, and one count per row."""
    members = [v - 1 for row in rows for v in row]
    return np.array(members, dtype=np.intp), np.array(list(map(len, rows)), dtype=np.intp)


def _kernel_systems(call, *args) -> list[GF2System]:
    """The systems the parity route solves while call(*args) runs, whether
    on a reduction it builds or on one its structure keeps."""
    with mock.patch.object(_GF2Reduction, "solve", autospec=True,
                           side_effect=_GF2Reduction.solve) as solve:
        call(*args)
    systems = []
    for (reduction, rhs), _ in solve.call_args_list:
        rows = np.split(reduction.members + 1, np.cumsum(reduction.sizes)[:-1])
        systems.append(GF2System.from_sets(reduction.nvars, zip((r.tolist() for r in rows), rhs)))
    return systems


def _route_system(h: hs.SignedHypergraph, signing) -> GF2System:
    """The system the parity route poses for this signing of h's edges, as
    it solves it."""
    core = h.incidence_core
    (system,) = _kernel_systems(
        switching._parity_route, h.n, core.edge_major()[1], core.edge_sizes(), signing
    )
    return system


def _similarity_pairs(rng: random.Random, count: int):
    """Pairs of even-uniform signed hypergraphs with parallel edges whose
    member sets carry sign sums of equal size in both, so that
    signed_tensor_similarity poses its leader-row system: a switched copy,
    some of whose member sets then have every sign negated."""
    for i in range(count):
        k = (2, 4)[i % 2]
        n = rng.randint(k + 1, 16)
        g = hs.generate(n, n, k=k, p_neg=0.5, seed=rng.randrange(2**32))
        edges = [tuple(v for v, _ in e) for e in g.edges]
        edges += [rng.choice(edges) for _ in range(rng.randint(1, n))]
        rng.shuffle(edges)
        first = hs.build_signed(n, edges, [rng.choice((-1, 1)) for _ in edges])
        switched = [v for v in range(1, n + 1) if rng.random() < 0.5]
        second = hs.apply_signed_switches(first, hs.SignedSwitchCertificate(switched))
        negated = {e for e in dict.fromkeys(map(frozenset, edges)) if rng.random() < 0.15}
        gamma = [-s if frozenset(e) in negated else s for e, s in zip(edges, second.gamma)]
        yield first, first.with_gamma(tuple(gamma))


def _referee_systems() -> list[GF2System]:
    """1,320 seeded systems: rank-saturating ones with and without a late
    conflict, the parity and all-ones systems of generated uniform
    hypergraphs, n in {0, 1}, and the leader-row systems of
    signed_tensor_similarity on hypergraphs with parallel edges."""
    rng = random.Random(9)
    out = []
    for i in range(600):
        nvars = rng.randint(2, 24)
        out.append(_saturating_system(rng, nvars, full=i % 3 == 0, late_conflict=i % 2 == 1))
    for i in range(240):
        k = (2, 4, 6)[i % 3]
        n = rng.randint(k, 40)
        g = hs.generate(n, 2 * n, k=k, p_neg=0.5, connected=i % 2 == 0 and n > k,
                        seed=rng.randrange(2**32))
        h = hs.induced_signed(g)
        out.append(_route_system(h, h.gamma))
        out.append(_route_system(h, (1,) * h.m))
    for i in range(120):
        nvars = i % 2
        rows = tuple((rng.randint(0, nvars), rng.randint(0, 1)) for _ in range(rng.randint(0, 4)))
        out.append(GF2System(nvars, rows))
    for first, second in _similarity_pairs(rng, 120):
        out += _kernel_systems(hs.signed_tensor_similarity, first, second)
    return out


def test_gf2_solve_matches_reduction_referee():
    systems = _referee_systems()
    assert len(systems) >= 1000
    kinds = set()
    for system in systems:
        got = gf2_solve(system)
        assert got == gf2_solve_by_reduction(system)
        kinds.add((system.nvars <= 1, type(got).__name__))
    assert kinds == {(a, b) for a in (False, True) for b in ("GF2Solution", "GF2Infeasible")}


def _gf2_rank(system: GF2System) -> int:
    basis: dict[int, int] = {}
    for mask, _ in system.rows:
        while mask and (mask & -mask) in basis:
            mask ^= basis[mask & -mask]
        if mask:
            basis[mask & -mask] = mask
    return len(basis)


def _scale_systems() -> list[tuple[str, int, list, list]]:
    """(kind, n, member lists, signing): the parity route's systems at a
    scale where the fill-reducing column order is far from the identity."""
    rng = random.Random(12)
    out = []

    def solved_by(hidden, rows):
        """The signing whose parity system the vertex set hidden solves."""
        return [1 if len(hidden.intersection(e)) % 2 else -1 for e in rows]

    for n in (200, 500, 1000):
        # As in the structural benchmark: a planted switching class of a
        # connected instance against its all-positive variant, and the
        # twin with one incidence flipped.
        g = hs.generate(n, 2 * n, size_range=(2, 6), connected=True, seed=rng.randrange(2**32))
        cert = hs.SwitchCertificate(
            vertices=[v for v in range(1, n + 1) if rng.random() < 0.5],
            edges=[j for j in range(2 * n) if rng.random() < 0.5],
        )
        planted = hs.apply_switches(g, cert)
        j = rng.randrange(planted.m)
        twin_edge = list(planted.edges[j])
        twin_edge[0] = (twin_edge[0][0], -twin_edge[0][1])
        twin = hs.build(n, [*planted.edges[:j], twin_edge, *planted.edges[j + 1 :]])
        for kind, inst in (("planted", planted), ("twin", twin)):
            first = hs.induced_signed(inst)
            second = hs.induced_signed(hs.all_positive_variant(inst))
            signing = [-a * b for a, b in zip(first.gamma, second.gamma)]
            out.append((kind, n, list(first.edges), signing))
    # A loose cycle of 400 size-3 edges under a random labelling: rank 400 < n - 1.
    label = list(range(1, 801))
    rng.shuffle(label)
    loose = [(label[2 * i], label[2 * i + 1], label[(2 * i + 2) % 800]) for i in range(400)]
    out.append(("loose", 800, loose, [1] * 399 + [-1]))
    # Connected 4-uniform parity systems, feasible through a hidden vertex
    # set (rank n - 1, since every row is even) and on the all-+1 signing.
    g = hs.generate(300, 600, k=4, connected=True, seed=rng.randrange(2**32))
    edges = [tuple(v for v, _ in e) for e in g.edges]
    hidden = {v for v in range(1, 301) if rng.random() < 0.5}
    out.append(("even-k", 300, edges, solved_by(hidden, edges)))
    out.append(("even-k", 300, edges, [1] * len(edges)))
    # Two such components side by side: 600 rows, but rank at most n - 2.
    half = hs.generate(150, 300, k=4, connected=True, seed=rng.randrange(2**32))
    halves = [tuple(v + shift for v, _ in e) for shift in (0, 150) for e in half.edges]
    out.append(("split", 300, halves, solved_by(hidden, halves)))
    # Full rank and feasible: sparse rows of sizes 2 to 6 over a hidden solution.
    rows = [rng.sample(range(1, 301), rng.randint(2, 6)) for _ in range(600)]
    hidden = {v for v in range(1, 301) if rng.random() < 0.5}
    out.append(("full", 300, rows, solved_by(hidden, rows)))
    # An empty row asking for 1, after rows that raise the rank.
    out.append(("empty", 300, [*rows[:50], ()], [1] * 51))
    return out


def test_kernel_matches_reduction_referee_at_scale():
    seen = set()
    for kind, n, edges, signing in _scale_systems():
        system = GF2System.from_sets(n, zip(edges, ((1 + s) // 2 for s in signing)))
        want = gf2_solve_by_reduction(system)
        assert gf2_solve(system) == want
        routed = switching._parity_route(n, *_flat(edges), signing)
        if isinstance(want, GF2Solution):
            assert routed == hs.SignedSwitchCertificate(vertices=want.support)
        else:
            assert routed == hs.NotEquivalent(witness_edges=want.witness_rows)
        rank = _gf2_rank(system) if isinstance(want, GF2Solution) else None
        seen.add((kind, type(want).__name__, rank if rank in (None, n - 1, n) else "low"))
    assert {
        ("loose", "GF2Solution", "low"),
        ("even-k", "GF2Solution", 299),
        ("split", "GF2Solution", "low"),
        ("full", "GF2Solution", 300),
        ("empty", "GF2Infeasible", None),
    } <= seen
    assert {kind for kind, name, _ in seen if name == "GF2Infeasible"} >= {"twin"}


def _signing_cases(rng: random.Random):
    """(n, member lists, right-hand sides) of every referee system and every
    scale system, and of the even-k scale systems with empty rows inserted,
    one of them last."""
    for system in _referee_systems():
        rows = [[j + 1 for j in _ones(mask)] for mask, _ in system.rows]
        yield system.nvars, rows, [rhs for _, rhs in system.rows]
    for kind, n, edges, signing in _scale_systems():
        rows, bits = [list(e) for e in edges], [(1 + s) // 2 for s in signing]
        yield n, rows, bits
        if kind == "even-k":
            for _ in range(20):
                at = rng.randint(0, len(rows))
                rows, bits = [*rows[:at], [], *rows[at:]], [*bits[:at], 1, *bits[at:]]
            yield n, [*rows, []], [*bits, 0]


def test_several_signings_resume_one_reduction():
    # Three signings of each left-hand side, its own, all ones and a seeded
    # random one, in two orders: each solved on the reduction the solve
    # before it returned, or each on the reduction the first solve
    # returned, as the parity route keeps it.  A solve never changes the
    # reduction it starts from.
    rng = random.Random(25)
    seen = Counter()
    for n, rows, own in _signing_cases(rng):
        signings = [own, [1] * len(rows), [rng.randint(0, 1) for _ in rows]]
        want = [gf2_solve_by_reduction(GF2System.from_sets(n, zip(rows, bits)))
                for bits in signings]
        members, sizes = _flat(rows)
        for order in ((0, 1, 2), (2, 1, 0)):
            for chained in (True, False):
                reduction = _GF2Reduction(n, members, sizes)
                for position, i in enumerate(order):
                    before = (reduction.reached, reduction.basis.copy(), reduction.greedy.copy())
                    got, extended = reduction.solve(np.array(signings[i], dtype=bool))
                    assert got == want[i]
                    assert (reduction.reached, reduction.basis, reduction.greedy) == before
                    seen[position > 0, 0 < reduction.reached < len(rows), type(got).__name__] += 1
                    if chained or position == 0:
                        reduction = extended
    assert {key for key, count in seen.items() if count} == {
        (resumed, partial, name)
        for resumed in (False, True) for partial in (False, True)
        for name in ("GF2Solution", "GF2Infeasible")
    } - {(False, True, "GF2Solution"), (False, True, "GF2Infeasible")}


def test_gf2_late_conflict_witness_comes_from_the_reduction():
    # Rank n - 1 after three rows (all masks are orthogonal to 1111), two
    # rows the basis already decides, then a dependent row with the wrong
    # right-hand side: its witness combines rows from before the rank was
    # reached.
    rows = ((0b0011, 1), (0b0110, 0), (0b1100, 1), (0b0101, 1), (0b1111, 0), (0b1001, 1))
    res = gf2_solve(GF2System(4, rows))
    assert res == gf2_solve_by_reduction(GF2System(4, rows))
    assert res == GF2Infeasible((0, 1, 2, 5))


def test_parity_route_refuses_a_basis_past_its_limit(monkeypatch, ex):
    # ex has n = 6 vertices and m = 3 edges, so its basis may hold
    # min(m, n) * (min(m, n) + n + 1) = 30 bits: 3.75 bytes.
    h = hs.induced_signed(ex)
    routes = (lambda: hs.signed_switch_equivalent(h, h), lambda: hs.odd_bipartite(ex))
    monkeypatch.setattr(linalg, "GF2_MAX_BASIS_BYTES", 3)
    for route in routes:
        with pytest.raises(hs.DenseLimitExceededError, match="exceeds the limit of 3 bytes"):
            route()
    monkeypatch.setattr(linalg, "GF2_MAX_BASIS_BYTES", 4)
    assert [route() for route in routes] == [hs.SignedSwitchCertificate(), hs.odd_bipartite(ex)]


def test_gf2_variable_count_is_bounded_before_any_mask_is_built():
    # 1 << 2**63 would ask for 2**60 bytes.
    for make in (lambda: GF2System(2**63, ()), lambda: GF2System.from_sets(2**63, [((2**62,), 1)])):
        with pytest.raises(hs.VertexLimitExceededError):
            make()
