"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload structural --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up runs five times, each in a
fresh process, and set-up time is their median.  The timed cases run in
one more fresh process, so its peak resident set belongs to the workload
alone.  Times of most workloads are scaled to a reference speed (see
speed.py and workloads.SCALED).  With --trace 1 the run reports
per-layer metrics instead of the end-to-end ones, and leaves every span
in .benchout/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_KERNEL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".benchout"
SETUP_REPEATS = 5
# The whole run, set-up included, must end within this many seconds.
RUN_LIMIT_S = 170.0


def _child_env() -> dict:
    """Single-threaded BLAS, fixed hashing, and the checkout's sources."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to its end and return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        capture_output=True, text=True, env=_child_env(), cwd=str(ROOT),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description="hypersign benchmark")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "hypersign" / "__init__.py").is_file():
        print(f"error: no hypersign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    in_dir = OUT / f"inputs-{tag}-{os.getpid()}"
    in_dir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # Each set-up writes into a directory of its own: rewriting files
        # that already exist costs this disk more than writing new ones, and
        # the first files written after a deletion cost more still, so the
        # median of five fresh directories is what repeats.
        setups = []
        solve_dir = in_dir
        if not args.trace:
            for i in range(SETUP_REPEATS):
                solve_dir = in_dir / f"setup{i}"
                solve_dir.mkdir()
                setups.append(_worker(["setup", *common, "--dir", str(solve_dir)], deadline))
        result = _worker(["solve", *common, "--dir", str(solve_dir), "--seconds",
                          str(args.seconds), "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(in_dir, ignore_errors=True)

    if args.trace:
        trace_file = OUT / f"trace-{tag}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "case_ms": result["case_ms"], "wall_case_ms": result["wall_case_ms"],
            "round_s": result["round_s"],
            "layers": result["layers"],
            "spans": [dict(zip(("name", "phase", "case", "start", "end"), s))
                      for s in result["spans"]],
            "counts": [dict(zip(("name", "phase", "case", "value"), c))
                       for c in result["counts"]],
        }))
        # Layers that this workload never reaches read 0.
        metrics = {m["name"]: {"value": result["layers"].get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    elif not result["case_ms"]:
        print("error: no case ran to its end", file=sys.stderr)
        return 1
    else:
        # Times come scaled to the reference speed where the workload is
        # (see speed.py).  solve_s is the timed wall time of one round of the
        # pool, averaged over rounds.
        kernels = [s["kernel_s"] for s in setups if s["kernel_s"] is not None]
        setup_scale = REFERENCE_KERNEL_S / statistics.median(kernels) if kernels else 1.0
        metrics = {
            "setup_s": {"value": statistics.median(s["wall_setup_s"] for s in setups)
                        * setup_scale, "unit": "s"},
            "solve_s": {"value": sum(result["round_s"]) / len(result["round_s"]), "unit": "s"},
            "case_p50_ms": {"value": statistics.median(result["case_ms"]), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
