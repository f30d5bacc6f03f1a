"""Seeded inputs and the library calls that each workload times.

A workload is a pool of cases that cost about the same.  Set-up draws
the pool from the seed and writes every instance to a file, together
with a manifest holding the generator's own record of each instance and
its planted truth; the timed calls see only the files.
"""

from __future__ import annotations

import json
import random
import time
from collections import deque
from pathlib import Path

import numpy as np

import hypersign as hs

from checks import (
    Instance,
    check_audit,
    check_dense,
    check_structural,
    check_tensor,
)

# Pool make-up.  A run repeats whole rounds of the pool, so a round should
# be a few seconds long and cases within a pool should cost the same.
STRUCTURAL = dict(n=2000, m=4000, size_range=(2, 6), loose_edges=2000, cases=3)
TENSOR = dict(n=200, m=400, k=4, cases=5)
DENSE = dict(n=40, m=80, size_range=(2, 4), cases=5)
AUDIT = dict(cases=401, n_max=6, m_max=4)
AUDIT_LIMITS = hs.OracleLimits(max_nodes=16, max_cycles=20_000, max_paths=20_000)
# The twin used by the once-per-run CLI check.
CLI_TWIN = dict(n=200, m=400, size_range=(2, 6))

# Per-case wall-clock ceiling, in seconds, about ten times a case's cost.
CEILING_S = {"structural": 30.0, "tensor-even": 10.0, "dense-spectral": 10.0,
             "audit-battery": 2.0}

WORKLOADS = tuple(CEILING_S)

# Workloads whose times are scaled to the reference speed (see speed.py).
# The kernel runs from cache; structural's instances do not (80 MB
# resident), its speed follows the kernel's only loosely, and scaled its
# times spread wider than unscaled, so they stay wall times.
SCALED = {"structural": False, "tensor-even": True, "dense-spectral": True,
          "audit-battery": True}


class Tracer:
    """Spans around library calls, kept in memory; a no-op when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.phase = "setup"
        self.case = None
        self.spans: list[tuple[str, str, object, float, float]] = []
        self.counts: list[tuple[str, str, object, float]] = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, self.phase, self.case, start, time.perf_counter()))

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append((name, self.phase, self.case, float(value)))


# ---------------------------------------------------------------------------
# Generation (set-up).


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _cycle_incidence(edge_sets, edges_at, j: int, v: int) -> bool:
    """True when incidence (j, v) lies on a cycle of the incidence graph,
    i.e. v stays reachable from edge j once that incidence is removed."""
    seen = {("e", j)}
    queue = deque([("e", j)])
    while queue:
        kind, x = queue.popleft()
        if kind == "e":
            nxt = [("v", u) for u in edge_sets[x] if not (x == j and u == v)]
        else:
            nxt = [("e", f) for f in edges_at[x] if not (f == j and x == v)]
        for node in nxt:
            if node == ("v", v):
                return True
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return False


def planted_pair(rng: random.Random, tracer: Tracer, n: int, m: int,
                 k: int | None = None, size_range=None) -> tuple[Instance, Instance]:
    """A planted-balanced instance and its twin.

    The planted instance is a random vertex-and-edge switching of a
    connected all-positive instance, so it is balanced.  The twin flips
    one incidence that lies on a cycle, so that cycle becomes negative
    and the twin is unbalanced.
    """
    base = tracer.call("generate.generate", hs.generate, n, m, k=k, size_range=size_range,
                       connected=True, seed=rng.randrange(2**32))
    edge_sets = [tuple(v for v, _ in e) for e in base.edges]
    flip_v = [rng.random() < 0.5 for _ in range(n + 1)]
    flip_e = [rng.random() < 0.5 for _ in range(m)]
    planted = [[(v, (-1 if flip_v[v] else 1) * (-1 if flip_e[j] else 1)) for v in e]
               for j, e in enumerate(edge_sets)]
    edges_at = [[] for _ in range(n + 1)]
    for f, e in enumerate(edge_sets):
        for u in e:
            edges_at[u].append(f)
    while True:
        j = rng.randrange(m)
        pos = rng.randrange(len(edge_sets[j]))
        if _cycle_incidence(edge_sets, edges_at, j, edge_sets[j][pos]):
            break
    twin = [list(e) for e in planted]
    v, s = twin[j][pos]
    twin[j][pos] = (v, -s)
    return Instance.from_lists(n, planted), Instance.from_lists(n, twin)


def loose_cycle(rng: random.Random, edges: int) -> Instance:
    """A loose cycle of size-3 edges with one negative incidence, at a
    vertex shared by two edges, under a random vertex labelling."""
    n = 2 * edges
    label = list(range(1, n + 1))
    rng.shuffle(label)
    specs = [[label[2 * i], label[2 * i + 1], label[(2 * i + 2) % n]] for i in range(edges)]
    negative = rng.randrange(edges)
    return Instance.from_lists(n, [
        [(v, -1 if (i == negative and v == e[0]) else 1) for v in e]
        for i, e in enumerate(specs)
    ])


def _write(path: Path, inst: Instance, tracer: Tracer) -> None:
    g = hs.build(inst.n, inst.edges)
    text = tracer.call("fileio.serialize", hs.serialize, g)
    path.write_text(text, encoding="utf-8")


def _entry(name: str, inst: Instance, truth) -> dict:
    return {"file": name, "truth": truth, "n": inst.n, "edges": inst.to_lists()}


def generate_inputs(workload: str, seed: int, out_dir: Path, tracer: Tracer) -> dict:
    """Draw the workload's pool from the seed and write every instance.

    Returns the manifest; the caller stores it next to the files.
    """
    rng = _rng(workload, seed)
    cases = []
    if workload == "structural":
        p = STRUCTURAL
        for i in range(p["cases"]):
            tracer.case = i
            planted, twin = planted_pair(rng, tracer, p["n"], p["m"], size_range=p["size_range"])
            loose = loose_cycle(rng, p["loose_edges"])
            entries = [_entry(f"c{i}-planted.ohg", planted, True),
                       _entry(f"c{i}-twin.ohg", twin, False),
                       _entry(f"c{i}-loose.ohg", loose, False)]
            for entry, inst in zip(entries, (planted, twin, loose)):
                _write(out_dir / entry["file"], inst, tracer)
            cases.append({"id": i, "instances": entries})
    elif workload in ("tensor-even", "dense-spectral"):
        p = TENSOR if workload == "tensor-even" else DENSE
        for i in range(p["cases"]):
            tracer.case = i
            planted, twin = planted_pair(rng, tracer, p["n"], p["m"], k=p.get("k"),
                                         size_range=p.get("size_range"))
            # The twin's induced signing may or may not be switching
            # equivalent to the all-positive one: its truth is left to the
            # certificates in tensor-even.
            entries = [_entry(f"c{i}-planted.ohg", planted, True),
                       _entry(f"c{i}-twin.ohg", twin, None if workload == "tensor-even" else False)]
            for entry, inst in zip(entries, (planted, twin)):
                _write(out_dir / entry["file"], inst, tracer)
            cases.append({"id": i, "instances": entries})
    elif workload == "audit-battery":
        p = AUDIT
        for i in range(p["cases"]):
            tracer.case = i
            # Drawn the way the battery command draws its three suites.
            five = tracer.call("generate.generate", hs.random_connected, rng,
                               n_max=p["n_max"], m_max=p["m_max"])
            six = tracer.call("generate.generate", hs.random_connected_uniform, rng,
                              2 if i % 2 == 0 else 4, n_max=p["n_max"], m_max=p["m_max"])
            spec = tracer.call("generate.generate", hs.random_connected, rng,
                               n_max=p["n_max"], m_max=p["m_max"])
            entries = []
            for role, g in (("five", five), ("six", six), ("spec", spec)):
                inst = Instance.from_lists(g.n, g.edges)
                entries.append(_entry(f"c{i}-{role}.ohg", inst, None))
                _write(out_dir / entries[-1]["file"], inst, tracer)
            cases.append({"id": i, "instances": entries, "battery_seed": rng.randrange(2**32)})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    tracer.case = "cli"
    _, cli_twin = planted_pair(rng, tracer, CLI_TWIN["n"], CLI_TWIN["m"],
                               size_range=CLI_TWIN["size_range"])
    cli_entry = _entry("cli-twin.ohg", cli_twin, False)
    _write(out_dir / cli_entry["file"], cli_twin, tracer)
    tracer.case = None
    return {"workload": workload, "seed": seed, "cases": cases, "cli_twin": cli_entry}


def save_manifest(out_dir: Path, manifest: dict) -> None:
    (out_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def load_manifest(out_dir: Path) -> dict:
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    for case in manifest["cases"] + [{"instances": [manifest["cli_twin"]]}]:
        for entry in case["instances"]:
            entry["instance"] = Instance.from_lists(entry.pop("n"), entry.pop("edges"))
    return manifest


# ---------------------------------------------------------------------------
# Timed calls, one function per workload.  Each takes a loaded instance and
# returns the answers that the workload's checker reads.


def structural_answers(g, t: Tracer) -> dict:
    verdict = t.call("balance.incidence_balance", hs.incidence_balance, g)
    plus = hs.all_positive_variant(g)
    oriented = t.call("switching.oriented_switch_equivalent",
                      hs.oriented_switch_equivalent, g, plus)
    signed = t.call("switching.signed_switch_equivalent", hs.signed_switch_equivalent,
                    hs.induced_signed(g), hs.induced_signed(plus))
    text = None
    if verdict:
        text = t.call("fileio.serialize", hs.serialize, hs.apply_switches(g, verdict.cert))
    return {"g": g, "verdict": verdict, "oriented": oriented, "signed": signed, "text": text}


def tensor_answers(g, t: Tracer) -> dict:
    # The calls that `hypersign tensor` makes.
    nqz = t.call("tensor.nqz_spectral_radius", hs.nqz_spectral_radius, g)
    odd = t.call("tensor.odd_bipartite", hs.odd_bipartite, g)
    battery = t.call("tensor.theorem_battery_even", hs.theorem_battery_even,
                     hs.induced_signed(g))
    return {"g": g, "nqz": nqz, "odd": odd, "battery": battery}


def dense_answers(g, t: Tracer) -> dict:
    # The calls that `hypersign spectra` makes.
    verdict = t.call("balance.incidence_balance", hs.incidence_balance, g)
    suite = t.call("spectral.spectral_balance_tests", hs.spectral_balance_tests, g)
    return {"g": g, "verdict": verdict, "suite": suite}


def audit_answers(g_five, g_six, g_spec, battery_seed: int, t: Tracer) -> dict:
    # One draw of the battery command's three suites.
    five_way = t.call("balance.equivalence_battery", hs.equivalence_battery, g_five, AUDIT_LIMITS)
    six_way = t.call("tensor.theorem_battery_even", hs.theorem_battery_even,
                     hs.induced_signed(g_six), seed=battery_seed)
    spectral = t.call("spectral.spectral_balance_tests", hs.spectral_balance_tests, g_spec)
    return {"g_five": g_five, "five_way": five_way, "g_six": g_six, "six_way": six_way,
            "g_spec": g_spec, "spectral": spectral}


ANSWERS = {"structural": structural_answers, "tensor-even": tensor_answers,
           "dense-spectral": dense_answers}


def run_case(workload: str, case: dict, in_dir: Path, t: Tracer) -> list[dict]:
    """The timed part of a case: read each file, then make the calls."""
    if workload == "audit-battery":
        graphs = [t.call("fileio.load", hs.load, in_dir / e["file"]) for e in case["instances"]]
        return [audit_answers(*graphs, case["battery_seed"], t)]
    return [ANSWERS[workload](t.call("fileio.load", hs.load, in_dir / e["file"]), t)
            for e in case["instances"]]


def check_case(workload: str, case: dict, answers: list[dict]) -> None:
    entries = case["instances"]
    if workload == "audit-battery":
        check_audit(*(e["instance"] for e in entries), answers[0])
        return
    for entry, ans in zip(entries, answers):
        CHECKERS[workload](entry["instance"], entry["truth"], ans)


CHECKERS = {"structural": check_structural, "tensor-even": check_tensor,
            "dense-spectral": check_dense}


# ---------------------------------------------------------------------------
# Probes (traced runs only): layers reached only inside another call are
# timed by calling their public function once on the same inputs, and
# counts are read from public results.


def _signed_switch_system(g, plus):
    first, second = hs.induced_signed(g), hs.induced_signed(plus)
    return hs.GF2System.from_sets(g.n, (
        (first.members(j), 0 if first.gamma[j] == second.gamma[j] else 1)
        for j in range(g.m)))


def _parity_system(h):
    return hs.GF2System.from_sets(h.n, ((h.members(j), 1 if h.gamma[j] == 1 else 0)
                                        for j in range(h.m)))


def _witness_rows(*outcomes) -> int:
    return sum(len(getattr(o, "witness_edges", ()) or ()) for o in outcomes if not o)


def _probe_verdict(t: Tracer, g, verdict) -> None:
    t.call("walks.connected_components", hs.connected_components, g)
    if not verdict:
        t.call("walks.canonical_cycle", hs.canonical_cycle, verdict.cycle)
        t.count("balance.cycle_length", verdict.cycle.length)


def _probe_nqz(t: Tracer, g, nqz) -> None:
    t.count("tensor.nqz_iterations", nqz.iterations)
    t.count("tensor.nqz_bracket_width", nqz.upper - nqz.lower)
    structure = hs.build_signed(g.n, [g.members(j) for j in range(g.m)], [1] * g.m)
    t.call("tensor.adj_apply", hs.adj_apply, structure, np.array(nqz.vector))


def _probe_matrices(t: Tracer, g) -> None:
    mat = t.call("spectral.matrix_build", hs.incidence_matrix, g)
    lap = t.call("spectral.matrix_build", hs.laplacian_matrix, g)
    t.call("spectral.matrix_build", hs.adjacency_matrix, g)
    t.call("linalg.sym_eigenvalues", hs.sym_eigenvalues, lap)
    t.call("linalg.singular_values", hs.singular_values, mat)


def _probe_paths(t: Tracer, g) -> None:
    """The pair loop of equivalence_battery's path statement."""
    seen = 0
    for comp in hs.connected_components(g):
        elements = [hs.vertex_node(u + 1) if u < g.n else hs.edge_node(u - g.n) for u in comp]
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                report = t.call("walks.paths_sign_consistent", hs.paths_sign_consistent,
                                g, elements[i], elements[j], AUDIT_LIMITS.max_paths)
                seen += report.paths_seen
                if not report.consistent:
                    t.count("walks.paths_seen", seen)
                    return
    t.count("walks.paths_seen", seen)


def probe_case(workload: str, answers: list[dict], t: Tracer) -> None:
    if workload == "structural":
        for ans in answers:
            g = ans["g"]
            _probe_verdict(t, g, ans["verdict"])
            t.call("linalg.gf2_solve", hs.gf2_solve,
                   _signed_switch_system(g, hs.all_positive_variant(g)))
            t.count("linalg.gf2_witness_rows", _witness_rows(ans["signed"]))
    elif workload == "tensor-even":
        for ans in answers:
            g = ans["g"]
            t.call("walks.connected_components", hs.connected_components, g)
            _probe_nqz(t, g, ans["nqz"])
            t.call("linalg.gf2_solve", hs.gf2_solve, _parity_system(hs.induced_signed(g)))
            battery = ans["battery"]
            t.count("linalg.gf2_witness_rows", _witness_rows(
                ans["odd"], battery.switch_certificate, battery.eigen_certificate,
                battery.laplacian_certificate))
    elif workload == "dense-spectral":
        for ans in answers:
            _probe_verdict(t, ans["g"], ans["verdict"])
            _probe_matrices(t, ans["g"])
    else:
        ans = answers[0]
        g = ans["g_five"]
        verdict = t.call("balance.incidence_balance", hs.incidence_balance, g)
        _probe_verdict(t, g, verdict)
        t.call("switching.oriented_switch_equivalent", hs.oriented_switch_equivalent,
               g, hs.all_positive_variant(g))
        cycles = t.call("walks.enumerate_cycles", hs.enumerate_cycles, g,
                        AUDIT_LIMITS.max_cycles)
        t.count("walks.cycles_enumerated", len(cycles.cycles))
        _probe_paths(t, g)
        g6 = ans["g_six"]
        h6 = hs.induced_signed(g6)
        target = hs.build_signed(g6.n, h6.edges, [-1] * g6.m)
        switch = t.call("switching.signed_switch_equivalent", hs.signed_switch_equivalent,
                        h6, target)
        t.call("linalg.gf2_solve", hs.gf2_solve, _parity_system(h6))
        odd = t.call("tensor.odd_bipartite", hs.odd_bipartite, g6)
        t.count("linalg.gf2_witness_rows", _witness_rows(switch, odd))
        nqz = t.call("tensor.nqz_spectral_radius", hs.nqz_spectral_radius, g6)
        _probe_nqz(t, g6, nqz)
        _probe_matrices(t, ans["g_spec"])
