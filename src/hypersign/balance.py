"""Incidence balance: certified decision plus a five-way cross-check.

An orientation is balanced when the vertices split into two (possibly
empty) parts so that each edge meets one part only through positive
incidences and the other only through negative ones.  Equivalently there
is a +-1 labeling of vertices and edges with label(edge) * label(vertex)
equal to the orientation at every incidence; the decision procedure
propagates such labels in O(log n) rounds of array operations and either
returns the bipartition (with the switching certificate that positivizes
everything) or a cycle whose incidence sign is -1.

equivalence_battery evaluates the five equivalent statements on
oracle-scale instances: four by independent computations, and the
fifth by replaying the decision procedure's own witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import combinations

import numpy as np

from .core import OrientedHypergraph, all_positive_variant
from .errors import (
    InvalidWalkError,
    NotAPartitionError,
    OracleBudgetExceededError,
    check_budget,
    check_integer,
)
from .switching import SwitchCertificate, apply_switches
from .walks import (
    Walk,
    connected_components,
    enumerate_cycles,
    incidence_sign_of,
    node_element,
    paths_sign_consistent,
    _propagate_labels,
)

__all__ = [
    "Balanced",
    "Unbalanced",
    "BalanceVerdict",
    "incidence_balance",
    "verify_bipartition",
    "OracleLimits",
    "FiveWayReport",
    "equivalence_battery",
]


@dataclass(frozen=True)
class Balanced:
    """Witnessed positive verdict.

    part_positive/part_negative are the two sides, vertex_labels and
    edge_labels the +-1 labeling behind them, and cert the switchings
    that turn the instance into its all-positive variant.  has_empty_part
    marks the degenerate (but legal) one-sided bipartition.
    """

    part_positive: tuple[int, ...]
    part_negative: tuple[int, ...]
    vertex_labels: tuple[int, ...]
    edge_labels: tuple[int, ...]
    cert: SwitchCertificate
    has_empty_part: bool = field(default=False)


@dataclass(frozen=True)
class Unbalanced:
    """Witnessed negative verdict: a closed walk of incidence sign -1."""

    cycle: Walk

    def __bool__(self) -> bool:
        return False


BalanceVerdict = Balanced | Unbalanced


def incidence_balance(g: OrientedHypergraph) -> BalanceVerdict:
    """Decide balance in O(incidences * log n) array work, plus one
    breadth-first search, linear in the incidences, when unbalanced.

    Components are labeled independently, each rooted at its smallest
    node with label +1, which makes certificates deterministic.  The
    search names the cycle of incidence sign -1 on which breadth-first
    propagation over the components in node order first meets a conflict.
    """
    n = g.n
    label = _propagate_labels(g.incidence_core, g.incidence_core.signs)
    if isinstance(label, Walk):
        return Unbalanced(cycle=label)
    part_positive = tuple((np.flatnonzero(label[:n] == 1) + 1).tolist())
    part_negative = tuple((np.flatnonzero(label[:n] == -1) + 1).tolist())
    return Balanced(
        part_positive=part_positive,
        part_negative=part_negative,
        vertex_labels=tuple(label[:n].tolist()),
        edge_labels=tuple(label[n:].tolist()),
        cert=SwitchCertificate(
            vertices=part_negative,
            edges=tuple(np.flatnonzero(label[n:] == -1).tolist()),
        ),
        has_empty_part=not part_positive or not part_negative,
    )


def verify_bipartition(
    g: OrientedHypergraph,
    part_positive,
    part_negative,
) -> bool:
    """Check the defining property of a balancing bipartition directly.

    For every edge some polarity p must satisfy: orientation p at every
    member in the first part and -p at every member in the second.
    """
    first = {check_integer(v, "vertex") for v in part_positive}
    second = {check_integer(v, "vertex") for v in part_negative}
    everything = set(range(1, g.n + 1))
    if first & second or first | second != everything:
        raise NotAPartitionError(
            "the two parts must be disjoint and cover all vertices"
        )
    for edge in g.edges:
        polarities = {s * (1 if v in first else -1) for v, s in edge}
        if len(polarities) > 1:
            return False
    return True


@dataclass(frozen=True)
class OracleLimits:
    """Budgets for the brute-force routes of equivalence_battery, each an
    integer of at least 1 (errors.check_budget)."""

    max_nodes: int = 16
    max_cycles: int = 20_000
    max_paths: int = 20_000

    def __post_init__(self) -> None:
        for budget in fields(self):
            value = check_budget(getattr(self, budget.name), budget.name)
            object.__setattr__(self, budget.name, value)


@dataclass(frozen=True)
class FiveWayReport:
    """One boolean per route; they must agree on every instance."""

    balanced_bipartition: bool
    cycles_all_positive: bool
    paths_consistent: bool
    labeling_exists: bool
    switch_equivalent_all_positive: bool
    verdict: BalanceVerdict

    def values(self) -> tuple[bool, bool, bool, bool, bool]:
        return (
            self.balanced_bipartition,
            self.cycles_all_positive,
            self.paths_consistent,
            self.labeling_exists,
            self.switch_equivalent_all_positive,
        )

    @property
    def agree(self) -> bool:
        return len(set(self.values())) == 1


_LABELING_BLOCK_CELLS = 1 << 18


def _labeling_exists(g: OrientedHypergraph, max_nodes: int) -> bool:
    """Exhaustive search for a labeling with label(e)*label(v) = orientation.

    A labeling is an integer below 2^(n+m) whose bit i is set when node i
    (vertices first, then edges) is labelled -1; an incidence holds when
    its two bits differ exactly for orientation -1.  Labelings are
    checked in blocks of about _LABELING_BLOCK_CELLS array cells, so
    memory stays fixed whatever the node cap.
    """
    nodes = g.n + g.m
    if nodes > max_nodes:
        raise OracleBudgetExceededError(f"{nodes} nodes exceed the {max_nodes} cap")
    if nodes > 63:
        raise OracleBudgetExceededError(
            f"{nodes} nodes exceed the 63 bits of a uint64 labeling"
        )
    if g.m == 0:
        return True
    core = g.incidence_core
    edges, vertex_ids = core.edge_major()
    edge_ids = g.n + edges
    negative = core.signs < 0
    shifts = np.arange(nodes, dtype=np.uint64)
    block = max(1, _LABELING_BLOCK_CELLS // (nodes + vertex_ids.size))
    total = 1 << nodes
    for start in range(0, total, block):
        codes = np.arange(start, min(start + block, total), dtype=np.uint64)
        minus = ((codes[:, None] >> shifts) & np.uint64(1)).astype(bool)
        if ((minus[:, vertex_ids] ^ minus[:, edge_ids]) == negative).all(axis=1).any():
            return True
    return False


def _paths_consistent(g: OrientedHypergraph, a, b, max_paths: int) -> bool:
    report = paths_sign_consistent(g, a, b, max_paths)
    if report.truncated:
        raise OracleBudgetExceededError("path enumeration truncated")
    return report.consistent


def equivalence_battery(
    g: OrientedHypergraph, limits: OracleLimits = OracleLimits()
) -> FiveWayReport:
    """Evaluate the five equivalent balance statements.

    Routes: (1) the certified bipartition re-checked by
    verify_bipartition; (2) every cycle has positive incidence sign;
    (3) all same-component element pairs have sign-consistent paths;
    (4) an exhaustive labeling search; (5) switching equivalence to the
    all-positive variant, read off statement 1's witness: its switching
    certificate must yield that variant, or its cycle must be a closed
    walk of g of incidence sign -1, a sign switching preserves.  Route 5
    thus checks what route 1 leaves unchecked.  Budget exhaustion raises
    rather than guessing.
    """
    if g.n + g.m > limits.max_nodes:
        raise OracleBudgetExceededError(
            f"{g.n + g.m} nodes exceed the {limits.max_nodes} cap"
        )
    verdict = incidence_balance(g)
    statement_1 = isinstance(verdict, Balanced) and verify_bipartition(
        g, verdict.part_positive, verdict.part_negative
    )

    enumeration = enumerate_cycles(g, limits.max_cycles)
    if enumeration.truncated:
        raise OracleBudgetExceededError("cycle enumeration truncated")
    statement_2 = all(sign == 1 for _, sign in enumeration.cycles)

    statement_3 = all(
        _paths_consistent(g, a, b, limits.max_paths)
        for comp in connected_components(g)
        for a, b in combinations([node_element(g.n, u) for u in comp], 2)
    )

    statement_4 = _labeling_exists(g, limits.max_nodes)
    if isinstance(verdict, Balanced):
        statement_5 = apply_switches(g, verdict.cert) == all_positive_variant(g)
    else:
        try:
            negative = incidence_sign_of(verdict.cycle, g) == -1
        except InvalidWalkError:
            negative = False
        statement_5 = not (negative and verdict.cycle.is_closed)
    return FiveWayReport(
        balanced_bipartition=statement_1,
        cycles_all_positive=statement_2,
        paths_consistent=statement_3,
        labeling_exists=statement_4,
        switch_equivalent_all_positive=statement_5,
        verdict=verdict,
    )
