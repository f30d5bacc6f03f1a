"""Checks made apart from the program under test.

Nothing here imports hypersign.  Instances are the benchmark's own
records (``Instance``), built by the generator before any file was
written; answers are the library's result objects, read through their
public fields and their documented truth value (``bool(result)`` is
True for a certificate of the positive answer and False for an
obstruction).  Every checker raises ``CheckError`` on the first fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

# Spectra from the program's own eigensolver must match LAPACK to this
# share of the matrix's largest absolute eigenvalue (or squared singular
# value).
SPECTRUM_TOL = 1e-8
# NQZ stops once its bracket is narrower than 1e-8; an eigenpair built
# from its vector satisfies the eigen-relation to within half of that.
EIGEN_RESIDUAL_TOL = 1e-7
# Slack on the average-degree <= rho <= maximum-degree bounds.
RHO_SLACK = 1e-9


class CheckError(Exception):
    """An answer failed a check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class Instance:
    """An oriented hypergraph as the benchmark generated it.

    ``edges[j]`` is a tuple of (vertex, orientation) pairs sorted by
    vertex; edge names are the default e1..em.
    """

    n: int
    edges: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def from_lists(cls, n: int, edges) -> "Instance":
        return cls(n, tuple(tuple(sorted((int(v), int(s)) for v, s in e)) for e in edges))

    def to_lists(self) -> list:
        return [[list(p) for p in e] for e in self.edges]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(v for v, _ in e) for e in self.edges)

    @cached_property
    def orientation(self) -> dict[tuple[int, int], int]:
        return {(j, v): s for j, e in enumerate(self.edges) for v, s in e}

    @cached_property
    def gamma(self) -> tuple[int, ...]:
        """Induced edge signs: (-1)^(|e|-1) times the orientation product."""
        out = []
        for e in self.edges:
            sign = -1 if (len(e) - 1) % 2 else 1
            for _, s in e:
                sign *= s
            out.append(sign)
        return tuple(out)

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for e in self.edge_sets:
            for v in e:
                deg[v - 1] += 1
        return deg

    @cached_property
    def member_index(self) -> np.ndarray:
        """(m, k) zero-based member array; uniform instances only."""
        return np.array([[v - 1 for v in e] for e in self.edge_sets], dtype=np.intp)

    @cached_property
    def incidence(self) -> np.ndarray:
        arr = np.zeros((self.m, self.n), dtype=np.int64)
        for j, e in enumerate(self.edges):
            for v, s in e:
                arr[j, v - 1] = s
        return arr


# ---------------------------------------------------------------------------
# Files and the text format.


def read_ohg(text: str) -> tuple[int, tuple[str, ...], Instance]:
    """The benchmark's own reader for the .ohg text format."""
    n = None
    names = []
    edges = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "vertices":
            n = int(tokens[1])
        elif tokens[0] == "edge":
            names.append(tokens[1])
            edges.append([(int(t[1:]), 1 if t[0] == "+" else -1) for t in tokens[2:]])
        else:
            raise CheckError(f"unexpected line {line!r}")
    require(n is not None, "no 'vertices' line")
    return n, tuple(names), Instance.from_lists(n, edges)


def default_names(m: int) -> tuple[str, ...]:
    return tuple(f"e{j + 1}" for j in range(m))


def check_loaded(inst: Instance, g) -> None:
    """parse(serialize(g)) == g, with g the generator's own record."""
    require(g.n == inst.n, f"loaded n={g.n}, generated n={inst.n}")
    require(tuple(g.edges) == inst.edges, "loaded edges differ from the generated ones")
    require(tuple(g.names) == default_names(inst.m), "loaded edge names differ")


def check_serialized_positive(inst: Instance, text: str) -> None:
    """The text is the all-positive variant of inst, edge by edge."""
    n, names, read = read_ohg(text)
    require(n == inst.n and names == default_names(inst.m), "serialized header differs")
    require(read.edge_sets == inst.edge_sets, "serialized structure differs")
    require(all(s == 1 for e in read.edges for _, s in e), "serialized text keeps a -1")


# ---------------------------------------------------------------------------
# Structural certificates.


def check_bipartition(inst: Instance, part_positive, part_negative) -> None:
    first, second = list(part_positive), list(part_negative)
    require(sorted(first + second) == list(range(1, inst.n + 1)),
            "bipartition parts do not split the vertices exactly")
    side = {v: 1 for v in first}
    side.update({v: -1 for v in second})
    for j, e in enumerate(inst.edges):
        require(len({s * side[v] for v, s in e}) == 1,
                f"edge {j} is not split positively/negatively by the bipartition")


def switched(inst: Instance, vertices, edges) -> Instance:
    """inst after switching the given vertices and edges."""
    vs, es = set(vertices), set(edges)
    require(len(vs) == len(vertices) and vs <= set(range(1, inst.n + 1)),
            "switching vertices repeat or fall outside 1..n")
    require(len(es) == len(edges) and es <= set(range(inst.m)),
            "switching edges repeat or fall outside 0..m-1")
    return Instance(inst.n, tuple(
        tuple((v, s * (-1 if v in vs else 1) * (-1 if j in es else 1)) for v, s in e)
        for j, e in enumerate(inst.edges)
    ))


def all_positive(inst: Instance) -> Instance:
    return Instance(inst.n, tuple(tuple((v, 1) for v, _ in e) for e in inst.edges))


def check_switches_to(inst: Instance, vertices, edges, target: Instance) -> None:
    """Applying the switching set to inst gives target, incidence by incidence."""
    result = switched(inst, tuple(vertices), tuple(edges))
    for j, (got, want) in enumerate(zip(result.edges, target.edges)):
        require(got == want, f"switching certificate leaves edge {j} as {got}, want {want}")


def check_negative_cycle(inst: Instance, elements, target: Instance | None = None) -> int:
    """Walk a closed alternating walk; its orientation product must be -1.

    With a target, the product is taken of source*target per incidence
    (a switching obstruction).  Returns the walk's length.
    """
    elements = [tuple(el) for el in elements]
    require(len(elements) >= 3 and elements[0] == elements[-1], "cycle is not closed")
    product_sign = 1
    for a, b in zip(elements, elements[1:]):
        require({a[0], b[0]} == {"v", "e"}, f"step {a}->{b} does not alternate")
        e, v = (a[1], b[1]) if a[0] == "e" else (b[1], a[1])
        s = inst.orientation.get((e, v))
        require(s is not None, f"step {a}->{b} is not an incidence")
        if target is not None:
            s *= target.orientation[(e, v)]
        product_sign *= s
    require(product_sign == -1, "cycle has orientation product +1")
    return len(elements) - 1


def check_gf2_witness(edge_sets, rhs, witness) -> None:
    """The witness rows XOR to 0 = 1."""
    rows = list(witness)
    require(rows and len(set(rows)) == len(rows), "witness rows empty or repeated")
    require(all(0 <= r < len(edge_sets) for r in rows), "witness row out of range")
    parity: dict[int, int] = {}
    total = 0
    for r in rows:
        total ^= rhs[r]
        for v in edge_sets[r]:
            parity[v] = parity.get(v, 0) ^ 1
    require(not any(parity.values()), "witness rows leave a variable on the left")
    require(total == 1, "witness rows XOR to 0 = 0")


def check_signed_switch(inst: Instance, gamma_to, outcome) -> None:
    """Vertex switchings of inst's induced signs reach gamma_to, or a
    witness proves that none do."""
    rhs = [0 if a == b else 1 for a, b in zip(inst.gamma, gamma_to)]
    if not outcome:
        check_gf2_witness(inst.edge_sets, rhs, outcome.witness_edges)
        return
    check_parity_set(inst, outcome.vertices, rhs)


def check_parity_set(inst: Instance, vertices, rhs) -> None:
    """|vertices ∩ e_j| has the parity rhs[j] on every edge."""
    vs = set(vertices)
    require(len(vs) == len(vertices) and vs <= set(range(1, inst.n + 1)),
            "vertex set repeats or falls outside 1..n")
    for j, e in enumerate(inst.edge_sets):
        require(sum(v in vs for v in e) % 2 == rhs[j],
                f"edge {j} meets the switched set with the wrong parity")


def check_verdict(inst: Instance, verdict, balanced: bool) -> None:
    """incidence_balance's verdict is the planted one and its certificate replays."""
    require(bool(verdict) == balanced,
            f"verdict {'balanced' if verdict else 'unbalanced'}, planted "
            f"{'balanced' if balanced else 'unbalanced'}")
    if balanced:
        check_bipartition(inst, verdict.part_positive, verdict.part_negative)
        check_switches_to(inst, verdict.cert.vertices, verdict.cert.edges, all_positive(inst))
    else:
        check_negative_cycle(inst, verdict.cycle.elements)


def check_structural(inst: Instance, balanced: bool, answers: dict) -> None:
    """One structural instance: verdict, oriented and signed switching to
    the all-positive variant, and the serialized positivized instance."""
    check_loaded(inst, answers["g"])
    check_verdict(inst, answers["verdict"], balanced)
    plus = all_positive(inst)
    osw = answers["oriented"]
    require(bool(osw) == balanced, "oriented switching answer contradicts the planted verdict")
    if balanced:
        check_switches_to(inst, osw.vertices, osw.edges, plus)
    else:
        check_negative_cycle(inst, osw.cycle.elements, target=plus)
    check_signed_switch(inst, plus.gamma, answers["signed"])
    if balanced:
        check_serialized_positive(inst, answers["text"])


# ---------------------------------------------------------------------------
# Tensor layer.


def contraction(inst: Instance, gamma, x) -> np.ndarray:
    """Adjacency-tensor contraction, vectorised over the (m, k) members."""
    idx = inst.member_index
    vals = np.asarray(x)[idx]
    m, k = idx.shape
    prefix = np.ones((m, k), dtype=vals.dtype)
    suffix = np.ones((m, k), dtype=vals.dtype)
    prefix[:, 1:] = np.cumprod(vals[:, :-1], axis=1)
    suffix[:, :-1] = np.cumprod(vals[:, :0:-1], axis=1)[:, ::-1]
    out = np.zeros(inst.n, dtype=vals.dtype)
    np.add.at(out, idx, np.asarray(gamma)[:, None] * prefix * suffix)
    return out


def eigen_residual(inst: Instance, gamma, eigenvalue, x) -> float:
    arr = np.asarray(x, dtype=np.complex128)
    arr = arr / np.abs(arr).max()
    k = inst.member_index.shape[1]
    return float(np.abs(contraction(inst, gamma, arr) - eigenvalue * arr ** (k - 1)).max())


def check_rho(inst: Instance, nqz) -> None:
    """Average degree <= rho <= maximum degree, and (rho, vector) is an
    eigenpair of the structural adjacency tensor."""
    k = inst.member_index.shape[1]
    average = k * inst.m / inst.n
    require(average - RHO_SLACK <= nqz.rho <= inst.degrees.max() + RHO_SLACK,
            f"rho={nqz.rho} outside [{average}, {inst.degrees.max()}]")
    residual = eigen_residual(inst, np.ones(inst.m), nqz.rho, nqz.vector)
    require(residual <= EIGEN_RESIDUAL_TOL, f"NQZ eigen-residual {residual:.3e}")


def check_odd_bipartite(inst: Instance, outcome) -> None:
    if not outcome:
        check_gf2_witness(inst.edge_sets, [1] * inst.m, outcome.witness_edges)
        return
    one, two = list(outcome.part_one), list(outcome.part_two)
    require(sorted(one + two) == list(range(1, inst.n + 1)), "odd bipartition is not a partition")
    check_parity_set(inst, one, [1] * inst.m)
    check_parity_set(inst, two, [1] * inst.m)


def parity_rhs(gamma) -> list[int]:
    """Positive edges need an odd switched intersection, negative even."""
    return [1 if g == 1 else 0 for g in gamma]


def check_parity_certificate(inst: Instance, gamma, cert) -> np.ndarray:
    require(tuple(cert.signs) == tuple(-1 if v in set(cert.vertices) else 1
                                       for v in range(1, inst.n + 1)),
            "certificate signs do not match its vertex set")
    check_parity_set(inst, cert.vertices, parity_rhs(gamma))
    return np.array(cert.signs, dtype=np.int64)


def check_battery_even(inst: Instance, answers: dict, balanced: bool | None) -> None:
    """Six-way report: agreement, the planted answer, and every certificate."""
    report, nqz = answers["battery"], answers["nqz"]
    values = tuple(report.values())
    require(len(set(values)) == 1, f"six statements disagree: {values}")
    if balanced is not None:
        require(values[0] == balanced, f"six statements say {values[0]}, planted {balanced}")
    gamma = inst.gamma
    all_negative = (-1,) * inst.m
    check_signed_switch(inst, all_negative, report.switch_certificate)
    require(bool(report.switch_certificate) == values[0], "switch certificate contradicts its statement")
    for cert, name in ((report.eigen_certificate, "eigen"), (report.laplacian_certificate, "laplacian")):
        require(bool(cert) == values[0], f"{name} certificate contradicts its statement")
        if not cert:
            check_gf2_witness(inst.edge_sets, parity_rhs(gamma), cert.witness_edges)
    if values[0]:
        signs = check_parity_certificate(inst, gamma, report.eigen_certificate)
        eig = report.eigen_certificate
        require(abs(eig.eigenvalue + nqz.rho) <= RHO_SLACK, "eigenvalue is not -rho")
        residual = eigen_residual(inst, gamma, eig.eigenvalue, eig.eigenvector)
        require(residual <= EIGEN_RESIDUAL_TOL, f"eigen-residual {residual:.3e}")
        require(np.array_equal(np.sign(eig.eigenvector), signs), "eigenvector signs differ")
        lap = check_parity_certificate(inst, gamma, report.laplacian_certificate)
        k = inst.member_index.shape[1]
        exact = inst.degrees * lap ** (k - 1) + contraction(inst, np.array(gamma), lap)
        require(not exact.any(), "Laplacian contraction of the certificate is not exactly 0")


def check_tensor(inst: Instance, balanced: bool | None, answers: dict) -> None:
    check_loaded(inst, answers["g"])
    check_rho(inst, answers["nqz"])
    check_odd_bipartite(inst, answers["odd"])
    check_battery_even(inst, answers, balanced)


# ---------------------------------------------------------------------------
# Dense spectra.


def _close(reported, reference, what: str, power: int = 1) -> None:
    """Sorted values agree within SPECTRUM_TOL of the largest absolute one,
    after raising both to the given power."""
    got = np.sort(np.asarray(reported, dtype=np.float64)) ** power
    want = np.sort(np.asarray(reference, dtype=np.float64)) ** power
    require(got.shape == want.shape, f"{what}: {got.size} values, LAPACK gives {want.size}")
    scale = max(1.0, float(np.abs(want).max()) if want.size else 1.0)
    err = float(np.abs(got - want).max()) if want.size else 0.0
    require(err <= SPECTRUM_TOL * scale, f"{what} differs from LAPACK by {err:.3e}")


def reference_spectra(inst: Instance):
    """Singular values of M and eigenvalues of L = MᵀM and A = L - diag(L)."""
    mat = inst.incidence.astype(np.float64)
    lap = mat.T @ mat
    adj = lap - np.diag(np.diag(lap))
    return (np.linalg.svd(mat, compute_uv=False),
            np.linalg.eigvalsh(lap), np.linalg.eigvalsh(adj))


def check_spectra(inst: Instance, suite, balanced: bool, planted: bool) -> None:
    """Spectra and targets against LAPACK; decisions against the truth.

    hypersign takes singular values as square roots of Gram-matrix
    eigenvalues, which leaves a singular value near 0 with an error near
    the square root of the eigenvalue error, so singular values are
    compared through their squares.
    """
    own = reference_spectra(inst)
    plus = reference_spectra(all_positive(inst))
    powers = (2, 1, 1)
    for report, spectrum, target, name, power in zip(suite.reports, own, plus, "MLA", powers):
        _close(report.spectrum, spectrum, f"{name} spectrum", power)
        _close([report.target], [target.max()], f"{name} target", power)
        require(report.classify(balanced) != "contradiction",
                f"{name} decision {report.decision} contradicts the verdict")
    if planted:
        require(all(r.decision for r in suite.reports), "a planted instance lost a spectral decision")


def check_dense(inst: Instance, balanced: bool, answers: dict) -> None:
    check_loaded(inst, answers["g"])
    check_verdict(inst, answers["verdict"], balanced)
    check_spectra(inst, answers["suite"], balanced, planted=balanced)


# ---------------------------------------------------------------------------
# Brute-force oracles for oracle-scale instances.


def brute_balanced(inst: Instance) -> bool:
    """Search every vertex bipartition."""
    for sides in product((1, -1), repeat=inst.n):
        if all(len({s * sides[v - 1] for v, s in e}) == 1 for e in inst.edges):
            return True
    return False


def brute_parity(inst: Instance) -> bool:
    """Some ±1 vector s has gamma_e * prod(s_u) = -1 on every edge."""
    for signs in product((1, -1), repeat=inst.n):
        ok = True
        for g, e in zip(inst.gamma, inst.edge_sets):
            for v in e:
                g *= signs[v - 1]
            if g != -1:
                ok = False
                break
        if ok:
            return True
    return False


def check_audit(five: Instance, six: Instance, spec: Instance, answers: dict) -> None:
    for inst, key in ((five, "g_five"), (six, "g_six"), (spec, "g_spec")):
        check_loaded(inst, answers[key])
    truth = brute_balanced(five)
    values = tuple(answers["five_way"].values())
    require(values == (truth,) * 5, f"five-way {values}, brute force {truth}")
    check_verdict(five, answers["five_way"].verdict, truth)
    parity = brute_parity(six)
    values = tuple(answers["six_way"].values())
    require(values == (parity,) * 6, f"six-way {values}, brute force {parity}")
    check_spectra(spec, answers["spectral"], brute_balanced(spec), planted=False)
