"""Brute-force reference implementations used only by the tests.

These deliberately take the slowest, most literal route (explicit dense
tensors, exhaustive enumeration, pair loops, per-edge contraction loops,
all rotations of a cycle, cyclic Jacobi rotations, a rebuilt sampling
pool, adjacency lists and dicts rebuilt from the stored edges, GF(2)
elimination that reduces every row) so they share no code with the
package internals they check.
"""

import math
from collections import deque
from itertools import permutations
from math import factorial

import numpy as np

import hypersign as hs
from hypersign.walks import fundamental_cycle


def dense_adj_tensor(h: hs.SignedHypergraph) -> np.ndarray:
    """Order-k dense symmetric tensor with entry sign/(k-1)! for every
    permutation of every edge."""
    k = hs.uniform_edge_size(h)
    if k is None:
        raise ValueError("dense oracle needs a uniform instance")
    shape = (h.n,) * k
    tensor = np.zeros(shape)
    for j in range(h.m):
        value = h.gamma[j] / factorial(k - 1)
        for perm in permutations(h.members(j)):
            tensor[tuple(v - 1 for v in perm)] += value  # parallel edges add up
    return tensor


def dense_lap_tensor(h: hs.SignedHypergraph) -> np.ndarray:
    k = hs.uniform_edge_size(h)
    tensor = dense_adj_tensor(h)
    for v in range(1, h.n + 1):
        tensor[(v - 1,) * k] += h.degree(v)
    return tensor


def diagonal_similarities_bruteforce(first, second, dense, max_n: int = 8) -> set:
    """Every +-1 vector s with D^-(k-1) T1 D = T2 for D = diag(s), where
    T = dense(h) is an order-k dense tensor: entry (i1, ..., ik) of T1 is
    scaled by s_i1^-(k-1) s_i2 ... s_ik.  Enumerates all 2^n vectors and
    compares whole tensors, scaled by (k-1)! and rounded to integers."""
    if first.n > max_n:
        raise ValueError(f"signature enumeration is limited to {max_n} vertices")
    k = hs.uniform_edge_size(first)
    scale = factorial(k - 1)
    t1, t2 = dense(first), np.rint(dense(second) * scale)
    found = set()
    for code in range(2 ** first.n):
        s = np.array([-1.0 if (code >> v) & 1 else 1.0 for v in range(first.n)])
        factor = (s ** (1 - k)).reshape((-1,) + (1,) * (k - 1))
        for axis in range(1, k):
            factor = factor * s.reshape((1,) * axis + (-1,) + (1,) * (k - 1 - axis))
        if np.array_equal(np.rint(t1 * factor * scale), t2):
            found.add(tuple(int(x) for x in s))
    return found


def dense_contract(tensor: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(T x^{k-1})_v: contract all but the first index with x."""
    out = tensor.astype(complex if np.iscomplexobj(x) else float)
    for _ in range(tensor.ndim - 1):
        out = out @ x
    return out


def balance_by_bipartition_bruteforce(g: hs.OrientedHypergraph):
    """Try every bipartition of the vertices: per edge, the positively
    incident vertices must sit in one part and the negatively incident
    vertices in the other."""
    n = g.n
    for bits in range(2 ** n):
        ok = True
        for j in range(g.m):
            seen = {1: set(), -1: set()}
            for v in g.members(j):
                side = (bits >> (v - 1)) & 1
                seen[g.orientation(j, v)].add(side)
            if len(seen[1]) > 1 or len(seen[-1]) > 1 or (seen[1] & seen[-1]):
                ok = False
                break
        if ok:
            pos = tuple(v for v in range(1, n + 1) if not (bits >> (v - 1)) & 1)
            neg = tuple(v for v in range(1, n + 1) if (bits >> (v - 1)) & 1)
            return pos, neg
    return None


def loop_incidence_matrix(g: hs.OrientedHypergraph) -> np.ndarray:
    """m x n int64 orientations, filled one incidence at a time."""
    arr = np.zeros((g.m, g.n), dtype=np.int64)
    for j, edge in enumerate(g.edges):
        for v, s in edge:
            arr[j, v - 1] = s
    return arr


def loop_adjacency_matrix(g: hs.OrientedHypergraph) -> np.ndarray:
    """Orientation products summed over every vertex pair of every edge."""
    arr = np.zeros((g.n, g.n), dtype=np.int64)
    for edge in g.edges:
        for i in range(len(edge)):
            u, su = edge[i]
            for t in range(i + 1, len(edge)):
                v, sv = edge[t]
                arr[u - 1, v - 1] += su * sv
                arr[v - 1, u - 1] += su * sv
    return arr


def loop_laplacian_matrix(g: hs.OrientedHypergraph) -> np.ndarray:
    """Degrees on the diagonal, adjacency off it."""
    arr = loop_adjacency_matrix(g)
    for v in range(1, g.n + 1):
        arr[v - 1, v - 1] = g.degree(v)
    return arr


JACOBI_TOL = 1e-12
JACOBI_SWEEP_BUDGET = 100


def _off_diagonal_mass(mat: np.ndarray) -> float:
    # Sum the off-diagonal squares directly: subtracting the diagonal mass
    # from the total cancels catastrophically and floors near sqrt(eps)*fro.
    stripped = mat.copy()
    np.fill_diagonal(stripped, 0.0)
    return math.sqrt(float((stripped * stripped).sum()))


def jacobi_eigenvalues(
    a,
    tol: float = JACOBI_TOL,
    sweep_budget: int = JACOBI_SWEEP_BUDGET,
) -> list[float]:
    """All eigenvalues of a symmetric matrix, ascending.

    Cyclic Jacobi: sweep the upper triangle, rotating away each pivot,
    until the off-diagonal Frobenius mass drops below tol * ||A||_F.
    Pivots already below tol * ||A||_F / (n^2 + 1) are skipped — if every
    pivot is that small the convergence test already holds.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    mat = np.array(a, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not np.array_equal(mat, mat.T):
        raise ValueError("expected an exactly symmetric square matrix")
    n = mat.shape[0]
    if n == 0:
        return []
    fro = math.sqrt(float((mat * mat).sum()))
    if fro == 0.0:
        return [0.0] * n
    skip_below = tol * fro / (n * n + 1)
    for _ in range(sweep_budget):
        if _off_diagonal_mass(mat) <= tol * fro:
            return sorted(float(x) for x in np.diagonal(mat))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = mat[p, q]
                if abs(apq) <= skip_below:
                    continue
                app = mat[p, p]
                aqq = mat[q, q]
                theta = (aqq - app) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 0.5 / theta
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                colp = mat[:, p].copy()
                colq = mat[:, q].copy()
                newp = c * colp - s * colq
                newq = s * colp + c * colq
                mat[:, p] = newp
                mat[p, :] = newp
                mat[:, q] = newq
                mat[q, :] = newq
                mat[p, p] = app - t * apq
                mat[q, q] = aqq + t * apq
                mat[p, q] = 0.0
                mat[q, p] = 0.0
    off = _off_diagonal_mass(mat)
    if off <= tol * fro:
        return sorted(float(x) for x in np.diagonal(mat))
    raise hs.NoConvergenceError(
        f"Jacobi sweep budget of {sweep_budget} exhausted "
        f"(off-diagonal mass {off:.3e})"
    )


def jacobi_singular_values(m, tol: float = JACOBI_TOL) -> list[float]:
    """min(rows, cols) singular values, ascending.

    Square roots of the Jacobi eigenvalues of the smaller Gram matrix
    (M Mᵀ or Mᵀ M); tiny negative eigenvalues from roundoff clip to zero.
    A singular value near zero keeps only about half its digits.
    """
    arr = np.array(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d array")
    rows, cols = arr.shape
    if min(rows, cols) == 0:
        return []
    gram = arr @ arr.T if rows <= cols else arr.T @ arr
    eigs = jacobi_eigenvalues(gram, tol)
    return sorted(math.sqrt(max(0.0, x)) for x in eigs)


def _loop_vector(x) -> np.ndarray:
    arr = np.asarray(x)
    return arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)


def loop_adj_apply(h: hs.SignedHypergraph, x) -> np.ndarray:
    """Adjacency contraction one edge at a time: prefix and suffix
    products of the edge's coordinates, times the edge sign."""
    arr = _loop_vector(x)
    out = np.zeros(h.n, dtype=arr.dtype)
    for j, edge in enumerate(h.edges):
        idx = np.fromiter((v - 1 for v in edge), dtype=np.intp, count=len(edge))
        vals = arr[idx]
        size = len(vals)
        prefix = np.empty(size + 1, dtype=arr.dtype)
        suffix = np.empty(size + 1, dtype=arr.dtype)
        prefix[0] = 1
        suffix[size] = 1
        prefix[1:] = np.cumprod(vals)
        suffix[:size] = np.cumprod(vals[::-1])[::-1]
        out[idx] += h.gamma[j] * prefix[:size] * suffix[1:]
    return out


def loop_lap_apply(h: hs.SignedHypergraph, x) -> np.ndarray:
    arr = _loop_vector(x)
    k = len(h.edges[0])
    degrees = np.fromiter((h.degree(v) for v in range(1, h.n + 1)), dtype=np.float64)
    return degrees * arr ** (k - 1) + loop_adj_apply(h, arr)


def _loop_value(total) -> complex | float:
    value = complex(total)
    return value if value.imag != 0 else value.real


def loop_lap_form(h: hs.SignedHypergraph, x) -> complex | float:
    """Sum over edges of (sum of x_v^k) + k * sign * prod x_v."""
    arr = _loop_vector(x)
    k = len(h.edges[0])
    total = arr.dtype.type(0)
    for j, edge in enumerate(h.edges):
        vals = arr[[v - 1 for v in edge]]
        total = total + (vals**k).sum() + k * h.gamma[j] * vals.prod()
    return _loop_value(total)


def loop_adj_form(h: hs.SignedHypergraph, x) -> complex | float:
    """Sum over edges of k * sign * prod x_v."""
    arr = _loop_vector(x)
    k = len(h.edges[0])
    total = arr.dtype.type(0)
    for j, edge in enumerate(h.edges):
        vals = arr[[v - 1 for v in edge]]
        total = total + k * h.gamma[j] * vals.prod()
    return _loop_value(total)


def loop_nqz_spectral_radius(
    h, tol: float = 1e-8, max_iters: int = 100_000, shift: float = 1.0
) -> hs.NQZResult:
    """Shifted NQZ power iteration on the structure, one loop_adj_apply
    per step."""
    members = tuple(tuple(h.members(j)) for j in range(h.m))
    structure = hs.SignedHypergraph(h.n, members, (1,) * h.m)
    k = len(members[0])
    x = np.ones(h.n, dtype=np.float64)
    history = []
    for iteration in range(1, max_iters + 1):
        powered = x ** (k - 1)
        y = loop_adj_apply(structure, x) + shift * powered
        ratios = y / powered
        lower = float(ratios.min()) - shift
        upper = float(ratios.max()) - shift
        history.append((lower, upper))
        if upper - lower < tol:
            return hs.NQZResult(
                rho=(upper + lower) / 2.0,
                vector=tuple(float(t) for t in x),
                iterations=iteration,
                lower=lower,
                upper=upper,
                bounds_history=tuple(history),
            )
        x = y ** (1.0 / (k - 1))
        x /= x.max()
    raise hs.NoConvergenceError("loop NQZ did not converge")


def canonical_cycle_by_rotations(walk) -> tuple:
    """Smallest of all 2L rotations of both directions of a closed walk,
    closed again; compares every rotation in full."""
    seq = list(walk.elements[:-1])
    best = None
    for base in (seq, list(reversed(seq))):
        for r in range(len(base)):
            rot = tuple(base[r:] + base[:r])
            if best is None or rot < best:
                best = rot
    return best + (best[0],)


def parity_sign_vector_bruteforce(h: hs.SignedHypergraph, max_n: int = 16):
    """First +-1 vector, in binary counting order of the switched set, with
    an odd number of -1 entries on every positive edge and an even number
    on every negative edge; None if there is none.  Enumerates all 2^n
    vectors and tests every edge parity on each; nothing is eliminated."""
    if h.n > max_n:
        raise ValueError(f"sign-vector enumeration is limited to {max_n} vertices")
    codes = np.arange(2 ** h.n, dtype=np.int64)
    switched = (codes[:, None] >> np.arange(h.n)) & 1  # row c: bit v-1 of c
    ok = np.ones(codes.size, dtype=bool)
    for j, edge in enumerate(h.edges):
        count = switched[:, [v - 1 for v in edge]].sum(axis=1)
        ok &= count % 2 == (1 if h.gamma[j] == 1 else 0)
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return None
    return tuple(-1 if bit else 1 for bit in switched[hits[0]])


def draw_rest_by_pool_rebuild(rng, covered, position, anchors, count):
    """The covered vertices other than the anchors, copied into a new list
    for every edge, then sampled."""
    pool = [v for v in covered if v not in anchors]
    return rng.sample(pool, count)


def propagate_labels_by_dict(n: int, m: int, incidences):
    """Breadth-first +-1 labeling over adjacency lists and a value dict
    rebuilt from (edge j, vertex v, value) triples; a list of labels
    (vertices first, then edges) or the fundamental cycle of the first
    conflict.  Each component is rooted at its smallest node.  The cycle
    is closed by the package's fundamental_cycle: what this referees is
    the search, which decides the parents and the conflicting step."""
    adj = [[] for _ in range(n + m)]
    value = {}
    for j, v, s in incidences:
        adj[v - 1].append(n + j)
        adj[n + j].append(v - 1)
        value[(v - 1, n + j)] = s
    label = [0] * (n + m)
    parent = {}
    for root in range(n + m):
        if label[root]:
            continue
        label[root] = 1
        parent[root] = root
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                want = label[x] * value[(x, y) if x < n else (y, x)]
                if label[y] == 0:
                    label[y] = want
                    parent[y] = x
                    queue.append(y)
                elif label[y] != want:
                    return fundamental_cycle(n, parent, x, y)
    return label


def incidence_adjacency(h):
    """Adjacency lists of the incidence structure (vertex v is node v-1,
    edge j is node n+j), rebuilt from members()."""
    n = h.n
    adj = [[] for _ in range(n + h.m)]
    for j in range(h.m):
        for v in h.members(j):
            adj[v - 1].append(n + j)
            adj[n + j].append(v - 1)
    return adj


def connected_components_by_dfs(h):
    """Components as sorted node lists, by depth-first search from each
    unseen node in turn."""
    adj = incidence_adjacency(h)
    seen = [False] * len(adj)
    comps = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        comp = []
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def orientation_table(g: hs.OrientedHypergraph) -> dict:
    """(edge, vertex) -> orientation, read off the stored edges."""
    return {(j, v): s for j, edge in enumerate(g.edges) for v, s in edge}


def edges_at_vertices(h) -> list:
    """Per vertex, the indices of the edges holding it, in ascending order."""
    buckets = [[] for _ in range(h.n)]
    for j in range(h.m):
        for v in h.members(j):
            buckets[v - 1].append(j)
    return [tuple(b) for b in buckets]


def structures_match_by_sorting(a, b) -> bool:
    """Same vertex count, edge count and sorted member list at every edge."""
    if a.n != b.n or a.m != b.m:
        return False
    return all(sorted(a.members(j)) == sorted(b.members(j)) for j in range(a.m))


def gf2_solve_by_reduction(system: hs.GF2System):
    """Gaussian elimination over GF(2) that reduces every row against the
    basis, with row-combination tracking: the canonical solution (free
    variables zero, pivots set by back-substitution one bit at a time) or
    the original rows of the first inconsistent combination."""
    basis = {}
    for idx, (mask, rhs) in enumerate(system.rows):
        m, r, combo = mask, rhs, 1 << idx
        while m:
            pivot = (m & -m).bit_length() - 1
            entry = basis.get(pivot)
            if entry is None:
                break
            m ^= entry[0]
            r ^= entry[1]
            combo ^= entry[2]
        if m:
            basis[(m & -m).bit_length() - 1] = (m, r, combo)
        elif r:
            witness = tuple(i for i in range(idx + 1) if (combo >> i) & 1)
            return hs.GF2Infeasible(witness)
    assignment = [0] * system.nvars
    for pivot in sorted(basis, reverse=True):
        m, r, _ = basis[pivot]
        val = r
        rest = m & ~((1 << (pivot + 1)) - 1)
        while rest:
            bit = (rest & -rest).bit_length() - 1
            val ^= assignment[bit]
            rest &= rest - 1
        assignment[pivot] = val
    return hs.GF2Solution(system.nvars, tuple(assignment))
