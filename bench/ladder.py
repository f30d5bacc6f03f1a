"""Reference figures for scale-ladder rungs that no workload covers.

    python3 bench/ladder.py            # every rung, one table on stdout

Each rung runs once, in its own process with BLAS pinned to one thread,
under a wall-clock ceiling; a rung that passes its ceiling is reported
as such instead of hanging.  These are single measurements, recorded in
bench/README.md, not part of the gated benchmark.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CEILING_S = 120.0

# name -> (kind, parameters)
RUNGS = {
    "structural-1e3": ("structural", dict(n=125, m=250)),
    "structural-1e4": ("structural", dict(n=1250, m=2500)),
    "structural-1e5": ("structural", dict(n=12500, m=25000)),
    **{f"spectral-n{n}": ("spectral", dict(n=n, m=2 * n)) for n in (20, 40, 80, 160)},
    "nqz-n1e3": ("nqz", dict(n=1000, m=2000)),
    "nqz-n1e4": ("nqz", dict(n=10000, m=20000)),
}


def _timed(out: dict, name: str, fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    out[name] = time.perf_counter() - start
    return value


def run_rung(name: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import hypersign as hs
    import workloads as wl

    kind, p = RUNGS[name]
    rng = random.Random(f"ladder:{name}")
    tracer = wl.Tracer(True)
    out: dict = {}
    if kind == "structural":
        planted, twin = wl.planted_pair(rng, tracer, p["n"], p["m"], size_range=(2, 6))
        out["generate"] = tracer.spans[0][4] - tracer.spans[0][3]
        out["incidences"] = sum(len(e) for e in planted.edges)
        g = hs.build(planted.n, planted.edges)
        text = _timed(out, "serialize", hs.serialize, g)
        _timed(out, "parse", hs.parse_text, text)
        _timed(out, "incidence_balance", hs.incidence_balance, g)
        _timed(out, "oriented_switch_equivalent", hs.oriented_switch_equivalent,
               g, hs.all_positive_variant(g))
        _timed(out, "connected_components", hs.connected_components, g)
        t = hs.build(twin.n, twin.edges)
        _timed(out, "signed_switch_equivalent", hs.signed_switch_equivalent,
               hs.induced_signed(t), hs.induced_signed(hs.all_positive_variant(t)))
    elif kind == "spectral":
        planted, _ = wl.planted_pair(rng, tracer, p["n"], p["m"], size_range=(2, 4))
        _timed(out, "spectral_balance_tests", hs.spectral_balance_tests,
               hs.build(planted.n, planted.edges))
    else:
        g = hs.generate(p["n"], p["m"], k=4, connected=True, seed=rng.randrange(2**32))
        result = _timed(out, "nqz_spectral_radius", hs.nqz_spectral_radius, g)
        out["nqz_iterations"] = result.iterations
    return out


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--rung":
        print(json.dumps(run_rung(sys.argv[2])))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    print("| rung | figures (s unless a count) |")
    print("|---|---|")
    for name in RUNGS:
        try:
            proc = subprocess.run([sys.executable, __file__, "--rung", name], env=env,
                                  capture_output=True, text=True, timeout=CEILING_S)
            lines = proc.stdout.strip().splitlines()
            cell = ", ".join(f"{k} {v:.3g}" if isinstance(v, float) else f"{k} {v}"
                             for k, v in json.loads(lines[-1]).items()) if lines else \
                f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        except subprocess.TimeoutExpired:
            cell = f"over the {CEILING_S:.0f} s ceiling"
        print(f"| {name} | {cell} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
