"""Switching operations and constructive switching-equivalence tests.

A vertex switching negates every orientation at that vertex; an edge
switching negates every orientation inside that edge.  Two orientations
of the same structure are switching equivalent exactly when some
edge-signature and vertex-signature pair conjugates one incidence
pattern into the other; the test below finds such signatures by label
propagation, or exhibits a cycle on which they cannot exist.

For signed hypergraphs only vertex switchings act (an edge sign flips
when the switched set meets the edge an odd number of times).  Every
signed question is then one GF(2) system, posed and solved only in
``_parity_route``: which vertex sets meet the +1 edges of a signing
oddly and its -1 edges evenly?  signed_switch_equivalent asks it about
the signing -gamma1*gamma2; the tensor module about the all-+1 signing
(odd_bipartite) and about h's own (the even-k parity criteria).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OrientedHypergraph, SignedHypergraph, structures_match
from .errors import InternalCheckError, StructureMismatchError
from .linalg import GF2Infeasible, _gf2_eliminate
from .walks import Walk, propagate_labels

__all__ = [
    "SwitchCertificate",
    "SignedSwitchCertificate",
    "NotEquivalent",
    "vertex_switch",
    "edge_switch",
    "apply_switches",
    "signed_vertex_switch",
    "apply_signed_switches",
    "oriented_switch_equivalent",
    "signed_switch_equivalent",
]


@dataclass(frozen=True)
class SwitchCertificate:
    """Vertex set and edge set whose switchings map source to target."""

    vertices: tuple[int, ...] = ()
    edges: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(set(self.vertices))))
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges))))


@dataclass(frozen=True)
class SignedSwitchCertificate:
    """Vertex set whose switchings map one edge-sign map to another."""

    vertices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(set(self.vertices))))


@dataclass(frozen=True)
class NotEquivalent:
    """Obstruction: a conflicting cycle (oriented switching), edges whose
    parity equations sum to 0 = 1 (every parity question), or parallel
    edges whose sign sums differ in size (tensor similarity)."""

    witness_edges: tuple[int, ...] = ()
    cycle: Walk | None = None

    def __bool__(self) -> bool:
        return False


def vertex_switch(g: OrientedHypergraph, v: int) -> OrientedHypergraph:
    """Negate the orientation of every incidence at vertex v."""
    return apply_switches(g, SwitchCertificate(vertices=(v,)))


def edge_switch(g: OrientedHypergraph, e: int) -> OrientedHypergraph:
    """Negate the orientation of every incidence of edge e."""
    return apply_switches(g, SwitchCertificate(edges=(e,)))


def apply_switches(g: OrientedHypergraph, cert: SwitchCertificate) -> OrientedHypergraph:
    """All switchings of the certificate at once (they commute)."""
    for v in cert.vertices:
        g.check_vertex(v)
    for e in cert.edges:
        g.check_edge(e)
    core, n = g.incidence_core, g.n
    flip = np.ones(n + g.m, dtype=np.intp)
    flip[[v - 1 for v in cert.vertices] + [n + e for e in cert.edges]] = -1
    edge_ids, members = core.edge_major()
    signs = core.signs * flip[members] * flip[n + edge_ids]
    signs.setflags(write=False)
    flat = iter(signs.tolist())
    edges = tuple([tuple([(u, next(flat)) for u, _ in edge]) for edge in g.edges])
    return OrientedHypergraph._derived(g, signs, edges=edges)


def signed_vertex_switch(h: SignedHypergraph, v: int) -> SignedHypergraph:
    """Negate the sign of every edge containing vertex v."""
    return apply_signed_switches(h, SignedSwitchCertificate(vertices=(v,)))


def apply_signed_switches(
    h: SignedHypergraph, cert: SignedSwitchCertificate
) -> SignedHypergraph:
    """Negate each edge sign once per switched vertex it contains."""
    for v in cert.vertices:
        h.check_vertex(v)
    switched = set(cert.vertices)
    flips = (len(switched.intersection(edge)) for edge in h.edges)
    gamma = tuple(s * (-1) ** k for s, k in zip(h.gamma, flips))
    return SignedHypergraph._derived(h, None, edges=h.edges, gamma=gamma)


def oriented_switch_equivalent(
    source: OrientedHypergraph, target: OrientedHypergraph
) -> SwitchCertificate | NotEquivalent:
    """Certificate turning source into target, or a conflicting cycle.

    Labels every vertex and edge of the shared structure by breadth-first
    propagation of the per-incidence discrepancy source*target, each
    component rooted at its smallest element with label +1.  The
    resulting certificate is involutive: it also maps target to source.
    """
    if not structures_match(source, target):
        raise StructureMismatchError(
            "switching equivalence needs identical underlying structures"
        )
    n, m = source.n, source.m
    ours, theirs = source.incidence_core, target.incidence_core
    # Matching structures list the same incidences in their vertex rows,
    # so those rows align target's orientations with source's.
    values = ours.signs.copy()
    values[ours.slot[: ours.size]] *= theirs.signs[theirs.slot[: theirs.size]]
    found = propagate_labels(ours, values)
    if isinstance(found, Walk):
        return NotEquivalent(cycle=found)
    label, _ = found
    return SwitchCertificate(
        vertices=tuple(v + 1 for v in range(n) if label[v] == -1),
        edges=tuple(j for j in range(m) if label[n + j] == -1),
    )


def signed_switch_equivalent(
    first: SignedHypergraph, second: SignedHypergraph
) -> SignedSwitchCertificate | NotEquivalent:
    """Vertex switchings mapping first's signs to second's, if any.

    The parity route on the signing -gamma1*gamma2: an edge whose two
    signs disagree must meet the switched set an odd number of times.
    """
    if not structures_match(first, second):
        raise StructureMismatchError(
            "switching equivalence needs identical underlying structures"
        )
    signing = tuple(-a * b for a, b in zip(first.gamma, second.gamma))
    return _parity_route(first.n, first.edges, signing)


def _parity_route(n: int, edges, signing) -> SignedSwitchCertificate | NotEquivalent:
    """Vertices meeting every +1 edge (members in 1..n) oddly, -1 evenly;
    edges and signing are sequences of equal length.

    One equation per edge, in edge order, solved once: the canonical
    solution (free variables zero), or edges whose equations XOR to 0 = 1.
    Either answer is checked before it is returned: a witness's vertices
    each lie in an even number of its edges, and an odd number of them
    are +1; a solution meets every edge with the parity its sign asks.
    """
    rhs = [1 if s == 1 else 0 for s in signing]  # by comparison: a sign may be 1.0
    outcome = _gf2_eliminate(n, edges, rhs)
    if isinstance(outcome, GF2Infeasible):
        witness = outcome.witness_rows
        unpaired: set[int] = set()
        for j in witness:
            unpaired.symmetric_difference_update(edges[j])
        if unpaired or sum(rhs[j] for j in witness) % 2 == 0:
            raise InternalCheckError(
                f"internal check failed: the {len(witness)} witness edges "
                "do not sum to 0 = 1"
            )
        return NotEquivalent(witness_edges=witness)
    inside = (0, *outcome.assignment)  # inside[v] for v in 1..n
    for j, (members, bit) in enumerate(zip(edges, rhs)):
        if (sum(map(inside.__getitem__, members)) ^ bit) & 1:
            raise InternalCheckError(
                f"internal check failed: the solution meets edge {j} "
                "with the wrong parity"
            )
    return SignedSwitchCertificate(vertices=outcome.support)
