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

from .core import OrientedHypergraph, SignedHypergraph, _member_rows, structures_match
from .errors import InternalCheckError, StructureMismatchError
from .linalg import GF2Infeasible, _gf2_eliminate
from .walks import Walk, _propagate_labels

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
    return OrientedHypergraph._derived(g, signs)


def signed_vertex_switch(h: SignedHypergraph, v: int) -> SignedHypergraph:
    """Negate the sign of every edge containing vertex v."""
    return apply_signed_switches(h, SignedSwitchCertificate(vertices=(v,)))


def apply_signed_switches(
    h: SignedHypergraph, cert: SignedSwitchCertificate
) -> SignedHypergraph:
    """Negate each edge sign once per switched vertex it contains."""
    for v in cert.vertices:
        h.check_vertex(v)
    core = h.incidence_core
    switched = np.zeros(h.n, dtype=bool)
    switched[[v - 1 for v in cert.vertices]] = True
    edge_ids, members = core.edge_major()
    flips = np.bincount(edge_ids[switched[members]], minlength=h.m) % 2
    gamma = tuple(s * (-1) ** k for s, k in zip(h.gamma, flips.tolist()))
    return SignedHypergraph._derived(h, None, gamma=gamma)


def oriented_switch_equivalent(
    source: OrientedHypergraph, target: OrientedHypergraph
) -> SwitchCertificate | NotEquivalent:
    """Certificate turning source into target, or a conflicting cycle.

    Labels every vertex and edge of the shared structure so that their
    product across each incidence is the discrepancy source*target, each
    component rooted at its smallest element with label +1, by the same
    label propagation as incidence_balance.  The resulting certificate is
    involutive: it also maps target to source.
    """
    if not structures_match(source, target):
        raise StructureMismatchError(
            "switching equivalence needs identical underlying structures"
        )
    n = source.n
    ours, theirs = source.incidence_core, target.incidence_core
    # Matching structures list the same incidences in their vertex rows,
    # so those rows align target's orientations with source's.
    values = ours.signs.copy()
    values[ours.slot[: ours.size]] *= theirs.signs[theirs.slot[: theirs.size]]
    label = _propagate_labels(ours, values)
    if isinstance(label, Walk):
        return NotEquivalent(cycle=label)
    return SwitchCertificate(
        vertices=tuple((np.flatnonzero(label[:n] == -1) + 1).tolist()),
        edges=tuple(np.flatnonzero(label[n:] == -1).tolist()),
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
    return _parity_route(first.n, _member_rows(first), signing)


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
