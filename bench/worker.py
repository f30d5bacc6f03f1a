"""One workload in one process: set-up, or the timed cases.

``worker.py setup`` imports hypersign, draws the inputs and writes them,
and prints its own set-up time.  ``worker.py solve`` loads the manifest,
runs one untimed warm-up case, then whole rounds of the pool until the
run's seconds are spent, checks every answer, runs the once-per-run
checks, and prints one JSON line.  run.py starts both with BLAS pinned
to one thread.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import hypersign as hs  # noqa: E402
from hypersign.cli import run_battery  # noqa: E402

import selfcheck  # noqa: E402
import workloads as wl  # noqa: E402
from checks import CheckError, check_negative_cycle  # noqa: E402
from speed import REFERENCE_KERNEL_S, kernel_s  # noqa: E402

# A case due to start later than this after the timed loop began counts as
# failed without running, so a run ends in bounded time however slow the
# program gets; the round still attempts every case.
HARD_LIMIT_S = 110.0

# The kernel that gauges the machine's speed (see speed.py) is timed
# between cases whenever this many seconds have passed.
CALIBRATE_EVERY_S = 0.25


class CaseTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CaseTimeout("case exceeded its wall-clock ceiling")


def run_setup(args) -> None:
    out_dir = Path(args.dir)
    tracer = wl.Tracer(False)
    manifest = wl.generate_inputs(args.workload, args.seed, out_dir, tracer)
    setup_s = time.perf_counter() - T0
    wl.save_manifest(out_dir, manifest)
    kernel = kernel_s() if wl.SCALED[args.workload] else None
    print(json.dumps({"wall_setup_s": setup_s, "kernel_s": kernel}))


def once_per_run(manifest: dict, in_dir: Path, seed: int) -> list[str]:
    """Checks outside the timed cases; returns the problems found."""
    problems = []
    entry = manifest["cli_twin"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "hypersign", "check", str(in_dir / entry["file"]), "--json"],
        capture_output=True, text=True, env=env, cwd=str(ROOT), timeout=120)
    try:
        if proc.returncode != 0:
            raise CheckError(f"CLI check exited {proc.returncode}: {proc.stderr.strip()}")
        verdict = json.loads(proc.stdout)["verdict"]
        if verdict["balanced"]:
            raise CheckError("CLI check calls a planted twin balanced")
        check_negative_cycle(entry["instance"], verdict["negative_cycle"])
    except (CheckError, KeyError, ValueError) as exc:
        problems.append(f"cli check: {exc}")
    battery = run_battery(instances=2, seed=seed, inject_fault=True)
    found = battery["disagreements"]
    if len(found) != 1 or "note" not in found[0]:
        problems.append(f"run_battery(inject_fault=True) reported {found}")
    problems.extend(f"self-check: {p}" for p in selfcheck.run())
    return problems


def layer_metrics(tracer: wl.Tracer) -> dict:
    """Per-layer medians over cases: time per case in each layer's spans,
    counts per case, and the NQZ bracket width per call."""
    per_case: dict[str, dict] = {}
    for name, phase, case, start, end in tracer.spans:
        if (phase == "setup") != (name == "generate.generate") or case in ("cli", "warmup"):
            continue
        bucket = per_case.setdefault(name + "_ms", {})
        bucket[case] = bucket.get(case, 0.0) + (end - start) * 1e3
    widths = []
    for name, phase, case, value in tracer.counts:
        if name == "tensor.nqz_bracket_width":
            widths.append(value)
            continue
        bucket = per_case.setdefault(name, {})
        bucket[case] = bucket.get(case, 0.0) + value
    out = {name: statistics.median(b.values()) for name, b in per_case.items()}
    if widths:
        out["tensor.nqz_bracket_width"] = statistics.median(widths)
    return out


def run_solve(args) -> None:
    in_dir = Path(args.dir)
    tracer = wl.Tracer(bool(args.trace))
    if args.trace:
        # A traced run draws its own inputs so that generate is traced too.
        wl.save_manifest(in_dir, wl.generate_inputs(args.workload, args.seed, in_dir, tracer))
    manifest = wl.load_manifest(in_dir)
    cases = manifest["cases"]
    gc.collect()
    gc.freeze()
    ceiling = wl.CEILING_S[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)

    failures: list[str] = []
    wall_case_ms: list[float] = []
    wall_round_s: list[float] = []
    kernels: list[float] = []
    kernel_at = -CALIBRATE_EVERY_S

    def attempt(case, label, timed: bool) -> float | None:
        """Run, time and check one case; None when it failed."""
        nonlocal kernel_at
        tracer.case = label
        gc.collect()
        if wl.SCALED[args.workload] and time.perf_counter() - kernel_at >= CALIBRATE_EVERY_S:
            kernels.append(kernel_s())
            kernel_at = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, ceiling)
        try:
            tracer.phase = "solve"
            start = time.perf_counter()
            answers = wl.run_case(args.workload, case, in_dir, tracer)
            elapsed = time.perf_counter() - start
            wl.check_case(args.workload, case, answers)
            if args.trace and timed:
                wl.probe_case(args.workload, answers, tracer)
            return elapsed
        except Exception as exc:  # a failed case is counted, and the run goes on
            failures.append(f"case {case['id']}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, (CheckError, CaseTimeout)):
                traceback.print_exc(file=sys.stderr)
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    attempt(cases[0], "warmup", timed=False)
    warmup_failed = len(failures)
    attempted = 0
    loop_start = time.perf_counter()
    rounds = 0
    while True:
        round_total = 0.0
        for case in cases:
            attempted += 1
            if time.perf_counter() - loop_start > HARD_LIMIT_S:
                failures.append(f"case {case['id']}: not run, the run passed {HARD_LIMIT_S} s")
                continue
            elapsed = attempt(case, f"r{rounds}c{case['id']}", timed=True)
            if elapsed is not None:
                wall_case_ms.append(elapsed * 1e3)
                round_total += elapsed
        wall_round_s.append(round_total)
        rounds += 1
        if time.perf_counter() - loop_start >= args.seconds:
            break

    scale = REFERENCE_KERNEL_S / statistics.median(kernels) if kernels else 1.0
    problems = once_per_run(manifest, in_dir, args.seed)
    for line in failures[:10] + problems:
        print(line, file=sys.stderr)
    result = {
        "attempted": attempted,
        "failed": len(failures) - warmup_failed,
        "correct": not problems and warmup_failed == 0,
        "case_ms": [ms * scale for ms in wall_case_ms],
        "wall_case_ms": wall_case_ms,
        "round_s": [t * scale for t in wall_round_s],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer)
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    print(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "solve"))
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    loaded_from = Path(hs.__file__).resolve()
    if SRC.resolve() not in loaded_from.parents:
        sys.exit(f"hypersign was imported from {loaded_from}, not from {SRC}")
    if args.mode == "setup":
        run_setup(args)
    else:
        run_solve(args)


if __name__ == "__main__":
    main()
