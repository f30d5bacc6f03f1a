"""Self-checks of the checkers: each must pass a correct answer and reject
a corrupted one (a flipped verdict, a certificate with one vertex
dropped, a negative cycle with one step changed, a spectrum shifted by
1e-3).  The benchmark runs these once per run; run this file alone with

    PYTHONPATH=src python3 bench/selfcheck.py
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hypersign as hs  # noqa: E402

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402

SHIFT = 1e-3


def _changed_step(inst: ck.Instance, elements):
    """The walk with one vertex step moved to a vertex off its edges."""
    elements = [tuple(el) for el in elements]
    i = next(i for i, el in enumerate(elements[:-1]) if el[0] == "v" and i > 0)
    near = set(inst.edge_sets[elements[i - 1][1]]) | set(inst.edge_sets[elements[i + 1][1]])
    elements[i] = ("v", next(v for v in range(1, inst.n + 1) if v not in near))
    return tuple(elements)


def _drop_vertex(cert, field="vertices"):
    return replace(cert, **{field: tuple(getattr(cert, field))[1:]})


def _drop_one(outcome):
    """A signed-switching answer less one vertex, or less one witness row."""
    return _drop_vertex(outcome, "vertices" if outcome else "witness_edges")


def _cases():
    """(label, checker thunk, correct?) for every check and corruption."""
    none = wl.Tracer(False)
    rng = random.Random("selfcheck")
    out = []

    def answers(fn, inst, *extra):
        return fn(hs.build(inst.n, inst.edges), *extra, none)

    # Structural: planted, twin and a loose cycle.
    planted, twin = wl.planted_pair(rng, none, 30, 60, size_range=(2, 6))
    loose = wl.loose_cycle(rng, 12)
    a_planted = answers(wl.structural_answers, planted)
    a_twin = answers(wl.structural_answers, twin)
    a_loose = answers(wl.structural_answers, loose)
    out += [
        ("structural planted", lambda: ck.check_structural(planted, True, a_planted), True),
        ("structural twin", lambda: ck.check_structural(twin, False, a_twin), True),
        ("structural loose cycle", lambda: ck.check_structural(loose, False, a_loose), True),
        ("flipped structural verdict",
         lambda: ck.check_structural(planted, True, dict(a_planted, verdict=a_twin["verdict"])), False),
        ("bipartition with a vertex dropped",
         lambda: ck.check_verdict(planted, _drop_vertex(a_planted["verdict"], "part_negative"), True),
         False),
        ("switching certificate with a vertex dropped",
         lambda: ck.check_structural(planted, True, dict(a_planted, oriented=_drop_vertex(
             a_planted["oriented"]))), False),
        ("signed switching answer less one vertex or row (loose cycle)",
         lambda: ck.check_structural(loose, False, dict(a_loose, signed=_drop_one(
             a_loose["signed"]))), False),
        ("signed switching answer less one vertex or row (twin)",
         lambda: ck.check_structural(twin, False, dict(a_twin, signed=_drop_one(
             a_twin["signed"]))), False),
        ("negative cycle with one step changed",
         lambda: ck.check_verdict(twin, replace(a_twin["verdict"], cycle=hs.Walk(
             _changed_step(twin, a_twin["verdict"].cycle.elements))), False), False),
        ("switching obstruction with one step changed",
         lambda: ck.check_structural(loose, False, dict(a_loose, oriented=replace(
             a_loose["oriented"], cycle=hs.Walk(_changed_step(
                 loose, a_loose["oriented"].cycle.elements))))), False),
    ]

    # Tensor: a planted 4-uniform pair.
    t_planted, t_twin = wl.planted_pair(rng, none, 16, 32, k=4)
    a_tp = answers(wl.tensor_answers, t_planted)
    a_tt = answers(wl.tensor_answers, t_twin)
    battery = a_tp["battery"]
    eig = battery.eigen_certificate
    dropped = eig.vertices[1:]
    out += [
        ("tensor planted", lambda: ck.check_tensor(t_planted, True, a_tp), True),
        ("tensor twin", lambda: ck.check_tensor(t_twin, None, a_tt), True),
        ("flipped six-way statement",
         lambda: ck.check_tensor(t_planted, True, dict(a_tp, battery=replace(
             battery, zero_h_eigen=False))), False),
        ("parity certificate with a vertex dropped",
         lambda: ck.check_tensor(t_planted, True, dict(a_tp, battery=replace(
             battery, eigen_certificate=replace(eig, vertices=dropped, signs=tuple(
                 -1 if v in dropped else 1 for v in range(1, t_planted.n + 1)))))), False),
        ("rho shifted by 1e-3",
         lambda: ck.check_rho(t_planted, replace(a_tp["nqz"], rho=a_tp["nqz"].rho + SHIFT)), False),
    ]
    if a_tp["odd"]:
        out.append(("odd bipartition with a vertex dropped",
                    lambda: ck.check_odd_bipartite(t_planted, _drop_vertex(a_tp["odd"], "part_one")),
                    False))

    # Dense spectra: a planted pair.
    d_planted, d_twin = wl.planted_pair(rng, none, 10, 20, size_range=(2, 4))
    a_dp = answers(wl.dense_answers, d_planted)
    a_dt = answers(wl.dense_answers, d_twin)
    suite = a_dp["suite"]
    out += [
        ("dense planted", lambda: ck.check_dense(d_planted, True, a_dp), True),
        ("dense twin", lambda: ck.check_dense(d_twin, False, a_dt), True),
        ("flipped spectral decision",
         lambda: ck.check_dense(d_planted, True, dict(a_dp, suite=replace(
             suite, adjacency_report=replace(suite.adjacency_report, decision=False)))), False),
    ]
    for field in ("incidence_report", "laplacian_report", "adjacency_report"):
        report = getattr(suite, field)
        shifted = replace(report, spectrum=tuple(x + SHIFT for x in report.spectrum))
        out.append((f"{field} spectrum shifted by 1e-3",
                    lambda f=field, s=shifted: ck.check_dense(
                        d_planted, True, dict(a_dp, suite=replace(suite, **{f: s}))), False))

    # Audit battery: oracle-scale instances with a cycle on each side.
    five_bal, five_unbal = wl.planted_pair(rng, none, 5, 6, size_range=(2, 3))
    six = ck.Instance.from_lists(4, [[(1, 1), (2, -1), (3, 1), (4, 1)]] * 2)
    spec = five_unbal
    for five, truth in ((five_bal, True), (five_unbal, False)):
        graphs = [hs.build(i.n, i.edges) for i in (five, six, spec)]
        a = wl.audit_answers(*graphs, 0, none)
        out += [
            (f"audit {truth}", lambda f=five, a=a: ck.check_audit(f, six, spec, a), True),
            (f"flipped five-way statement ({truth})",
             lambda f=five, a=a, t=truth: ck.check_audit(f, six, spec, dict(a, five_way=replace(
                 a["five_way"], labeling_exists=not t))), False),
            (f"flipped six-way statement ({truth})",
             lambda f=five, a=a: ck.check_audit(f, six, spec, dict(a, six_way=replace(
                 a["six_way"], parity_bipartition=not a["six_way"].parity_bipartition))), False),
        ]
    return out


def run() -> list[str]:
    """Problems found; empty when every checker behaves."""
    problems = []
    for label, thunk, correct in _cases():
        try:
            thunk()
        except ck.CheckError as exc:
            if correct:
                problems.append(f"{label}: a correct answer was rejected ({exc})")
            continue
        except Exception as exc:  # a broken self-check is a problem, not a crash
            problems.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if not correct:
            problems.append(f"{label}: a corrupted answer was accepted")
    return problems


if __name__ == "__main__":
    found = run()
    for line in found:
        print(line)
    print(f"{len(_cases())} self-checks, {len(found)} problems")
    sys.exit(1 if found else 0)
