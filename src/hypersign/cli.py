"""Command-line surface: check, spectra, tensor, switch, gen, battery.

Every command reads the .ohg/.json instance formats and reports either
human-readable lines or (with --json) a machine-parseable report whose
certificates can be replayed through the library.  Exit codes: 0 on
success, 2 on input problems, 3 when independent routes that must agree
disagree.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import __version__
from .balance import Balanced, equivalence_battery, incidence_balance
from .core import induced_signed, uniform_edge_size
from .errors import (
    HypersignError,
    InternalCheckError,
    InvalidValueError,
    check_integer,
    check_tolerance,
)
from .fileio import load, serialize
from .generate import generate, random_connected, random_connected_uniform
from .linalg import MEMBERSHIP_ABS_TOL, MEMBERSHIP_REL_TOL
from .spectral import spectral_balance_tests
from .switching import NotEquivalent, SwitchCertificate, apply_switches
from .tensor import (
    NQZ_MAX_ITERS,
    NQZ_SHIFT,
    NQZ_TOL,
    nqz_spectral_radius,
    odd_bipartite,
    theorem_battery_even,
)
from .walks import Walk, is_connected

__all__ = ["main", "entrypoint", "run_battery"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DISAGREE = 3

# Most instances run_battery draws per suite; a million take about half an hour.
_MAX_INSTANCES = 10**6


# ---------------------------------------------------------------------------
# Report fragments.


def _summary(g) -> dict:
    return {
        "n": g.n,
        "m": g.m,
        "uniform_k": uniform_edge_size(g),
        "connected": is_connected(g),
        "unit_edges": bool((g.incidence_core.edge_sizes() == 1).any()),
    }


def _tolerances(abs_tol: float, nqz_tol: float) -> dict:
    return {
        "membership_abs_tol": abs_tol,
        "membership_rel_tol": MEMBERSHIP_REL_TOL,
        "nqz_tol": nqz_tol,
        "nqz_max_iters": NQZ_MAX_ITERS,
        "nqz_shift": NQZ_SHIFT,
    }


def _base_report(command: str, g, abs_tol: float, nqz_tol: float) -> dict:
    return {
        "tool": "hypersign",
        "version": __version__,
        "command": command,
        "summary": _summary(g),
        "tolerances": _tolerances(abs_tol, nqz_tol),
        "seed": None,
    }


def _walk_json(walk: Walk) -> list[list]:
    return [[kind, ident] for kind, ident in walk.elements]


def _walk_text(walk: Walk) -> str:
    return " ".join(f"{kind}{ident}" for kind, ident in walk.elements)


def _verdict_json(verdict) -> dict:
    if isinstance(verdict, Balanced):
        return {
            "balanced": True,
            "part_positive": list(verdict.part_positive),
            "part_negative": list(verdict.part_negative),
            "vertex_labels": list(verdict.vertex_labels),
            "edge_labels": list(verdict.edge_labels),
            "switch_vertices": list(verdict.cert.vertices),
            "switch_edges": list(verdict.cert.edges),
            "has_empty_part": verdict.has_empty_part,
        }
    return {"balanced": False, "negative_cycle": _walk_json(verdict.cycle)}


def _spectral_json(suite, structural_balanced: bool) -> dict:
    criteria = []
    for report in suite.reports:
        criteria.append(
            {
                "criterion": report.criterion,
                "target": report.target,
                "spectrum": list(report.spectrum),
                "decision": report.decision,
                "margin": report.margin,
                "versus_structural": report.classify(structural_balanced),
            }
        )
    return {
        "structural_balanced": structural_balanced,
        "criteria": criteria,
        "agree": suite.agree,
    }


def _parity_json(outcome, *fields: str) -> dict:
    if isinstance(outcome, NotEquivalent):
        return {"decision": False, "witness_edges": list(outcome.witness_edges)}
    report = {"decision": True}
    for name in fields:
        value = getattr(outcome, name)
        report[name] = list(value) if isinstance(value, tuple) else value
    return report


def _write_instance(args, g) -> int:
    text = serialize(g, "json" if args.json else "ohg")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _emit(args, report: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# Commands.


def _cmd_check(args) -> int:
    g = load(args.instance)
    verdict = incidence_balance(g)
    report = _base_report("check", g, MEMBERSHIP_ABS_TOL, NQZ_TOL)
    report["verdict"] = _verdict_json(verdict)
    if isinstance(verdict, Balanced):
        lines = [
            "verdict: balanced",
            f"part_positive: {list(verdict.part_positive)}",
            f"part_negative: {list(verdict.part_negative)}",
            f"switch vertices={list(verdict.cert.vertices)} edges={list(verdict.cert.edges)}",
        ]
    else:
        lines = [
            "verdict: unbalanced",
            f"negative cycle: {_walk_text(verdict.cycle)}",
        ]
    _emit(args, report, lines)
    return EXIT_OK


def _cmd_spectra(args) -> int:
    g = load(args.instance)
    verdict = incidence_balance(g)
    structural = isinstance(verdict, Balanced)
    suite = spectral_balance_tests(g, abs_tol=args.tol)
    report = _base_report("spectra", g, args.tol, NQZ_TOL)
    report["spectra"] = _spectral_json(suite, structural)
    lines = [f"structural verdict: {'balanced' if structural else 'unbalanced'}"]
    for entry in report["spectra"]["criteria"]:
        lines.append(
            f"{entry['criterion']}: target={entry['target']:.9g} "
            f"decision={entry['decision']} margin={entry['margin']:.3e} "
            f"[{entry['versus_structural']}]"
        )
    _emit(args, report, lines)
    classifications = [c["versus_structural"] for c in report["spectra"]["criteria"]]
    return EXIT_DISAGREE if "contradiction" in classifications else EXIT_OK


def _cmd_tensor(args) -> int:
    g = load(args.instance)
    signed = induced_signed(g)
    radius = nqz_spectral_radius(g, tol=args.tol)
    bipartition = odd_bipartite(g)
    battery = theorem_battery_even(signed, tol=args.tol)
    report = _base_report("tensor", g, MEMBERSHIP_ABS_TOL, args.tol)
    report["rho"] = radius.rho
    report["nqz_iterations"] = radius.iterations
    report["odd_bipartite"] = _parity_json(bipartition, "part_one", "part_two")
    criterion = ("vertices", "eigenvalue", "residual")
    report["minus_rho_h_eigen"] = _parity_json(battery.eigen_certificate, *criterion)
    report["zero_h_eigen"] = _parity_json(battery.laplacian_certificate, *criterion)
    statements = {
        "switch_equivalent_all_positive": battery.switch_equivalent_all_positive,
        "adjacency_similarity": battery.adjacency_similarity,
        "minus_rho_h_eigen": battery.minus_rho_h_eigen,
        "laplacian_similarity": battery.laplacian_similarity,
        "zero_h_eigen": battery.zero_h_eigen,
        "parity_bipartition": battery.parity_bipartition,
    }
    report["battery"] = {
        "statements": statements,
        "agree": battery.agree,
        "all_true": battery.all_true,
    }
    lines = [
        f"rho = {radius.rho:.9g} ({radius.iterations} iterations)",
        f"odd_bipartite = {report['odd_bipartite']['decision']}",
        f"minus_rho_h_eigen = {report['minus_rho_h_eigen']['decision']}",
        f"battery agree={battery.agree} all_true={battery.all_true}",
    ]
    _emit(args, report, lines)
    return EXIT_OK if battery.agree else EXIT_DISAGREE


def _cmd_switch(args) -> int:
    g = load(args.instance)
    cert = SwitchCertificate(vertices=tuple(args.vertices), edges=tuple(args.edges))
    switched = apply_switches(g, cert)
    return _write_instance(args, switched)


def _cmd_gen(args) -> int:
    g = generate(
        args.n,
        args.m,
        k=args.k,
        size_range=args.sizes,
        p_neg=args.p_neg,
        connected=args.connected,
        seed=args.seed,
    )
    return _write_instance(args, g)


def run_battery(instances: int = 40, seed: int = 0, inject_fault: bool = False) -> dict:
    """Cross-validate the structural, spectral and tensor routes on
    generated ensembles; any disagreement is recorded.

    inject_fault deliberately inverts one oracle answer on the first
    instance, which a healthy harness must flag as a disagreement.
    instances lies in 0..10^6, and seed is an integer.
    """
    instances, seed = check_integer(instances, "instances"), check_integer(seed, "seed")
    if not 0 <= instances <= _MAX_INSTANCES:
        raise InvalidValueError(f"instances must lie in 0..{_MAX_INSTANCES}, got {instances}")
    rng = random.Random(seed)
    disagreements: list[dict] = []

    for i in range(instances):
        g = random_connected(rng, n_max=6, m_max=4)
        outcome = equivalence_battery(g)
        values = list(outcome.values())
        note = None
        if inject_fault and i == 0:
            values[1] = not values[1]
            note = "injected fault: cycle-sign oracle answer inverted"
        if len(set(values)) != 1:
            entry = {"suite": "five-way", "instance": i, "values": values}
            if note:
                entry["note"] = note
            disagreements.append(entry)

    for i in range(instances):
        k = 2 if i % 2 == 0 else 4
        g = random_connected_uniform(rng, k, n_max=6, m_max=4)
        signed = induced_signed(g)
        rng.randrange(2**32)  # discarded: `battery --seed S` draws the same ensembles
        outcome = theorem_battery_even(signed)
        values = list(outcome.values())
        if len(set(values)) != 1:
            disagreements.append(
                {"suite": "six-way", "instance": i, "values": values}
            )
        elif isinstance(incidence_balance(g), Balanced) and not outcome.all_true:
            disagreements.append(
                {
                    "suite": "six-way",
                    "instance": i,
                    "detail": "balanced orientation without an all-true battery",
                }
            )

    indeterminate = 0
    for i in range(instances):
        g = random_connected(rng, n_max=6, m_max=4)
        structural = isinstance(incidence_balance(g), Balanced)
        suite = spectral_balance_tests(g)
        classes = suite.classify(structural)
        if "contradiction" in classes:
            disagreements.append(
                {"suite": "spectral", "instance": i, "classifications": list(classes)}
            )
        elif "indeterminate" in classes:
            indeterminate += 1

    return {
        "tool": "hypersign",
        "version": __version__,
        "command": "battery",
        "seed": seed,
        "instances": {
            "five_way": instances,
            "six_way": instances,
            "spectral": instances,
        },
        "indeterminate_spectral": indeterminate,
        "fault_injected": inject_fault,
        "disagreements": disagreements,
    }


def _cmd_battery(args) -> int:
    outcome = run_battery(args.instances, args.seed, args.inject_fault)
    if args.json:
        print(json.dumps(outcome, indent=2))
    else:
        counts = outcome["instances"]
        print(
            f"checked {counts['five_way']} five-way, {counts['six_way']} six-way, "
            f"{counts['spectral']} spectral instances (seed {outcome['seed']})"
        )
        if outcome["disagreements"]:
            for entry in outcome["disagreements"]:
                print(f"DISAGREEMENT {entry}")
        else:
            print("all routes agree")
    return EXIT_DISAGREE if outcome["disagreements"] else EXIT_OK


# ---------------------------------------------------------------------------
# Parser.


def _id_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad id list {text!r}") from exc


def _tolerance(text: str) -> float:
    try:  # InvalidValueError is a ValueError
        return check_tolerance(float(text), "tolerance")
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number") from None


def _size_pair(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size range {text!r}, want LO:HI") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersign",
        description="Balance and switching analysis for oriented hypergraphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def json_flag(p) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("check", help="structural balance verdict with certificate")
    p.add_argument("instance")
    json_flag(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("spectra", help="matrix spectra and the three spectral tests")
    p.add_argument("instance")
    json_flag(p)
    p.add_argument("--tol", type=_tolerance, default=MEMBERSHIP_ABS_TOL)
    p.set_defaults(handler=_cmd_spectra)

    p = sub.add_parser("tensor", help="tensor criteria for even-uniform instances")
    p.add_argument("instance")
    json_flag(p)
    p.add_argument("--tol", type=_tolerance, default=NQZ_TOL)
    p.set_defaults(handler=_cmd_tensor)

    p = sub.add_parser("switch", help="apply a switching certificate")
    p.add_argument("instance")
    p.add_argument("--vertices", type=_id_list, default=[])
    p.add_argument("--edges", type=_id_list, default=[])
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_switch)

    p = sub.add_parser("gen", help="write a seeded random instance")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--sizes", type=_size_pair, metavar="LO:HI")
    p.add_argument("--p-neg", type=float, default=0.0, dest="p_neg")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("battery", help="cross-validation suites on random ensembles")
    p.add_argument("--instances", type=int, default=40)
    p.add_argument("--inject-fault", action="store_true", dest="inject_fault")
    json_flag(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_battery)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.handler(args)
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREE
    except HypersignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
