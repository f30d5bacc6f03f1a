"""Command-line outputs against the outputs recorded in ``tests/golden/``.

The instances are the bundled files and seeded ``gen`` outputs, which are
themselves recorded.  ``check``, ``switch``, ``battery`` and ``gen`` must
print the recorded bytes.  ``spectra`` and ``tensor`` reports are compared
with their floating-point values dropped, since LAPACK builds differ in
the last bits.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from hypersign.cli import main

GOLDEN = Path(__file__).parent / "golden"

# Recorded instance file -> the `gen` arguments that print it.
GENERATED = {
    **{f"sizes-seed{seed}.{fmt}": f"gen 12 18 --sizes 2:4 --p-neg 0.3 --connected "
                                  f"--seed {seed}{' --json' if fmt == 'json' else ''}"
       for seed in (1, 2, 3) for fmt in ("ohg", "json")},
    **{f"k4-seed{seed}.ohg": f"gen 10 12 --k 4 --p-neg 0.5 --connected --seed {seed}"
       for seed in (1, 2)},
}
BUNDLED = ("e1.ohg", "ex_c3_42.ohg", "triangle_one_negative.ohg")
INSTANCES = BUNDLED + tuple(GENERATED)

EXACT = ("check --json", "switch --vertices 1")
WITHOUT_FLOATS = ("spectra --json", "tensor --json")
BATTERIES = tuple(f"battery --json --seed {seed}" for seed in (0, 3, 9))
FLOAT_KEYS = frozenset(
    {"spectrum", "target", "margin", "rho", "nqz_iterations", "eigenvalue", "residual"}
)

RUNS = (
    [f"{command} {name}" for name in INSTANCES for command in EXACT + WITHOUT_FLOATS]
    + list(BATTERIES)
)


def _path(name: str) -> str:
    if name in BUNDLED:
        return str(resources.files("hypersign") / "data" / name)
    return str(GOLDEN / name)


def _without_floats(value):
    if isinstance(value, dict):
        return {k: _without_floats(v) for k, v in value.items() if k not in FLOAT_KEYS}
    if isinstance(value, list):
        return [_without_floats(v) for v in value]
    return value


def outcome(run: str, capsys) -> dict:
    """Exit code, stderr and stdout of one recorded run; a report compared
    without floats is parsed, and None when nothing was printed."""
    *args, name = run.split()
    argv = args + [_path(name)] if name in INSTANCES else run.split()
    code = main(argv)
    out, err = capsys.readouterr()
    if run.startswith(WITHOUT_FLOATS):
        return {"exit": code, "report": _without_floats(json.loads(out)) if out else None,
                "stderr": err}
    return {"exit": code, "stdout": out, "stderr": err}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads((GOLDEN / "outputs.json").read_text(encoding="utf-8"))


def test_recorded_runs_are_the_listed_ones(recorded):
    assert sorted(recorded) == sorted(RUNS)


@pytest.mark.parametrize("run", RUNS)
def test_outputs_match_the_recorded_ones(run, recorded, capsys):
    assert outcome(run, capsys) == recorded[run]


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_gen_prints_the_recorded_instances(name, capsys):
    assert main(GENERATED[name].split()) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
