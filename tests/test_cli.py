import argparse
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

import hypersign as hs
from hypersign import cli, core, linalg
from hypersign.cli import main, run_battery


@pytest.fixture
def ex_path(tmp_path, ex):
    p = tmp_path / "ex.ohg"
    hs.save(ex, p)
    return str(p)


@pytest.fixture
def e1_path(tmp_path, e1):
    p = tmp_path / "e1.ohg"
    hs.save(e1, p)
    return str(p)


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["check", "--help"]) == 0
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert hs.__version__ in capsys.readouterr().out


def test_missing_file_is_an_input_error(capsys):
    assert main(["check", "/nonexistent/nope.ohg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_balanced(e1_path, capsys):
    assert main(["check", e1_path]) == 0
    out = capsys.readouterr().out
    assert "balanced" in out


def test_check_unbalanced_json(ex_path, capsys):
    assert main(["check", ex_path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == "check"
    assert data["summary"]["n"] == 6
    assert data["summary"]["uniform_k"] == 4
    assert data["verdict"]["balanced"] is False
    cycle = data["verdict"]["negative_cycle"]
    assert cycle[0] == cycle[-1]
    assert "tolerances" in data


def test_check_balanced_json_certificate_replays(e1_path, e1, capsys):
    assert main(["check", e1_path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    cert = hs.SwitchCertificate(
        vertices=tuple(data["verdict"]["switch_vertices"]),
        edges=tuple(data["verdict"]["switch_edges"]),
    )
    switched = hs.apply_switches(e1, cert)
    assert all(
        switched.orientation(j, v) == 1
        for j in range(switched.m)
        for v in switched.members(j)
    )


def test_non_ascii_digits_are_an_input_error(tmp_path, capsys):
    for i, text in enumerate(("vertices \u00b3\n", "vertices 3\nedge e1 +1 -\u00b2\n",
                              "vertices 3\nedge e1 +1 -\u0663\n")):
        p = tmp_path / f"digits{i}.ohg"
        p.write_text(text, encoding="utf-8")
        assert main(["check", str(p), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "line" in captured.err


def test_spectra_reports_three_criteria(ex_path, capsys):
    assert main(["spectra", ex_path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    crits = data["spectra"]["criteria"]
    assert len(crits) == 3
    assert all(c["versus_structural"] == "agree" for c in crits)
    assert data["spectra"]["structural_balanced"] is False


def test_spectra_disconnected_is_input_error(tmp_path, capsys):
    p = tmp_path / "disc.ohg"
    hs.save(hs.build(4, [[(1, 1), (2, 1)], [(3, 1), (4, 1)]]), p)
    assert main(["spectra", str(p)]) == 2
    capsys.readouterr()


def test_spectra_refuses_oversized_dense_input(tmp_path):
    p = tmp_path / "path.ohg"
    hs.save(hs.build(30_000, [[(v, 1), (v + 1, 1)] for v in range(1, 30_000)]), p)
    proc = _run_cli([sys.executable, "-m", "hypersign", "spectra", str(p)], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "exceeds the limit" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_commands_refuse_too_many_vertices_before_allocating(monkeypatch, tmp_path, capsys):
    def refuse(h):
        raise AssertionError("incidence core built")

    monkeypatch.setattr(core, "_build_core", refuse)
    p = tmp_path / "huge.ohg"
    p.write_text("vertices 200000000\nedge e1 +1 -2\n", encoding="utf-8")
    for command in ("check", "spectra", "tensor"):
        tracemalloc.start()
        try:
            assert main([command, str(p), "--json"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: 200000000 vertices exceed the limit of {core.MAX_VERTICES}\n"
        )


def test_tensor_on_bundled_example(ex_path, capsys):
    assert main(["tensor", ex_path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rho"] == pytest.approx(2.0, abs=1e-6)
    assert data["odd_bipartite"]["decision"] is False
    assert data["minus_rho_h_eigen"]["decision"] is False
    assert data["battery"]["agree"] is True
    assert data["battery"]["all_true"] is False
    assert set(data["battery"]["statements"]) == {
        "switch_equivalent_all_positive",
        "adjacency_similarity",
        "minus_rho_h_eigen",
        "laplacian_similarity",
        "zero_h_eigen",
        "parity_bipartition",
    }


def test_seed_only_where_it_is_read(ex_path, capsys):
    # check, spectra and tensor draw nothing, so they take no --seed, and
    # their reports give the seed as null; battery draws its ensembles.
    for command in ("check", "spectra", "tensor"):
        assert main([command, "--seed", "1", ex_path]) == 2
        capsys.readouterr()
        assert main([command, "--json", ex_path]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] is None
    assert main(["battery", "--json", "--instances", "1", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 1


def test_each_subcommand_takes_its_listed_options():
    parser = cli._build_parser()
    (subcommands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: [a.option_strings for a in sub._actions if a.option_strings and a.dest != "help"]
        for name, sub in subcommands.choices.items()
    }
    assert options == {
        "check": [["--json"]],
        "spectra": [["--json"], ["--tol"]],
        "tensor": [["--json"], ["--tol"]],
        "switch": [["--vertices"], ["--edges"], ["-o", "--output"], ["--json"]],
        "gen": [["--k"], ["--sizes"], ["--p-neg"], ["--connected"], ["--seed"],
                ["-o", "--output"], ["--json"]],
        "battery": [["--instances"], ["--inject-fault"], ["--json"], ["--seed"]],
    }
    assert sum(map(len, options.values())) == 20


@pytest.mark.parametrize("argv", [
    ["check", "INSTANCE", "--tol", "1e-6"],
    ["tensor", "INSTANCE", "--seed", "1"],
    ["battery", "--instances", "1", "--tol", "1e-6"],
    ["battery", "--instances", "1", "--max-cycles", "100"],
])
def test_removed_flags_are_usage_errors(argv, ex_path, capsys):
    assert main([ex_path if arg == "INSTANCE" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: " + " ".join(argv[-2:]) in captured.err
    assert "Traceback" not in captured.err


def test_tensor_rejects_odd_uniformity(tmp_path, capsys):
    p = tmp_path / "odd.ohg"
    hs.save(hs.build(3, [[(1, 1), (2, 1), (3, 1)]]), p)
    assert main(["tensor", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_switch_writes_switched_instance(e1_path, tmp_path, capsys):
    out = tmp_path / "switched.ohg"
    assert main(["switch", e1_path, "--vertices", "2", "-o", str(out)]) == 0
    g = hs.load(out)
    assert g.orientation(0, 2) == 1
    # to stdout as well
    assert main(["switch", e1_path, "--vertices", "2"]) == 0
    assert "+2" in capsys.readouterr().out


def test_switch_rejects_bad_id_list(e1_path, capsys):
    assert main(["switch", e1_path, "--vertices", "1,x"]) == 2
    capsys.readouterr()


def test_gen_round_trips(tmp_path, capsys):
    out = tmp_path / "gen.ohg"
    assert main(["gen", "6", "4", "--k", "3", "--p-neg", "0.5", "--connected",
                 "--seed", "7", "-o", str(out)]) == 0
    g = hs.load(out)
    assert g.n == 6 and g.m == 4
    assert hs.uniform_edge_size(g) == 3
    assert g == hs.generate(6, 4, k=3, p_neg=0.5, connected=True, seed=7)


def test_gen_sizes_flag(capsys):
    assert main(["gen", "5", "3", "--sizes", "2:3", "--seed", "1"]) == 0
    g = hs.parse(capsys.readouterr().out)
    assert all(2 <= len(g.members(j)) <= 3 for j in range(3))


def test_gen_infeasible_is_input_error(capsys):
    assert main(["gen", "4", "2", "--k", "9"]) == 2
    capsys.readouterr()


def test_battery_clean_run_exits_zero(capsys):
    assert main(["battery", "--instances", "6", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "all routes agree" in out


def test_battery_fault_injection_exits_three(capsys):
    assert main(["battery", "--instances", "6", "--seed", "3", "--inject-fault"]) == 3
    out = capsys.readouterr().out
    assert "DISAGREEMENT" in out


def test_battery_json_report():
    report = run_battery(instances=5, seed=9)
    assert report["instances"] == {"five_way": 5, "six_way": 5, "spectral": 5}
    assert report["disagreements"] == []
    faulty = run_battery(instances=5, seed=9, inject_fault=True)
    assert faulty["disagreements"]
    assert faulty["disagreements"][0]["suite"] == "five-way"


def test_internal_check_failure_exits_three(monkeypatch, capsys):
    monkeypatch.setattr("hypersign.tensor.eigenpair_residual", lambda *args: 1.0)
    path = resources.files("hypersign").joinpath("data").joinpath("e1.ohg")
    assert main(["tensor", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed")
    assert "Traceback" not in err


def test_corrupted_parity_witness_exits_three(monkeypatch, ex_path, capsys):
    # The bundled example's parity systems are infeasible; a witness with
    # one row dropped no longer sums to 0 = 1, and the route must notice.
    solve = hs.switching._gf2_eliminate

    def drop_first_witness_row(*args):
        outcome = solve(*args)
        if isinstance(outcome, hs.GF2Infeasible):
            return hs.GF2Infeasible(outcome.witness_rows[1:])
        return outcome

    monkeypatch.setattr(hs.switching, "_gf2_eliminate", drop_first_witness_row)
    assert main(["tensor", ex_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed")
    assert "Traceback" not in err


# Files the JSON reader refuses; every command must exit 2 on them.
MALFORMED_JSON = {
    "n-string": '{"n": "abc", "edges": []}',
    "n-overflows": '{"n": 1e400, "edges": []}',
    "n-negative": '{"n": -1, "edges": []}',
    "n-fraction": '{"n": 3.7, "edges": []}',
    "n-boolean": '{"n": true, "edges": []}',
    "sign-two": '{"n": 2, "edges": [{"name": "a", "incidences": [{"v": 1, "sign": 2}]}]}',
    "name-empty": '{"n": 2, "edges": [{"name": "", "incidences": [{"v": 1, "sign": 1}]}]}',
    "name-object": '{"n": 2, "edges": [{"name": {"a": 1}, "incidences": [{"v": 1, "sign": 1}]}]}',
    "name-repeated": '{"n": 2, "edges": [{"name": "a", "incidences": [{"v": 1, "sign": 1}]}, '
    '{"name": "a", "incidences": [{"v": 2, "sign": 1}]}]}',
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_json_files_are_input_errors(case, tmp_path, capsys):
    p = tmp_path / f"{case}.json"
    p.write_text(MALFORMED_JSON[case], encoding="utf-8")
    for command in ("check", "switch"):
        assert main([command, str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize("tol", ["nan", "0", "-1e-9", "inf", "-inf", "tiny"])
def test_tolerance_must_be_finite_and_positive(tol, ex_path, capsys):
    for command in (["spectra", ex_path], ["tensor", ex_path]):
        assert main([*command, "--json", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --tol: " in captured.err
        assert "finite positive number" in captured.err and "Traceback" not in captured.err


def _run_cli(command, cwd):
    """Run ``command`` as a separate process that imports the ``hypersign``
    package under test, whichever directory the suite runs from."""
    env = dict(os.environ)
    package_root = str(Path(hs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd, env=env)


def _check_entry_point(command, ex_path, tmp_path):
    proc = _run_cli([*command, "tensor", ex_path], tmp_path)
    assert proc.returncode == 0
    assert "rho = 2" in proc.stdout
    # main's return code must reach the process exit status
    proc = _run_cli([*command, "check", str(tmp_path / "missing.ohg")], tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_console_script_entry_point(ex_path, tmp_path):
    _check_entry_point([sys.executable, "-m", "hypersign"], ex_path, tmp_path)


def test_console_script_is_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["hypersign"] == "hypersign.cli:entrypoint"


@pytest.mark.skipif(
    shutil.which("hypersign") is None, reason="hypersign console script not installed"
)
def test_installed_console_script(ex_path, tmp_path):
    _check_entry_point([shutil.which("hypersign")], ex_path, tmp_path)


def test_commands_import_numpy_only(ex_path, tmp_path):
    # numpy is the one runtime dependency; these are installed in some
    # environments, so a stray import would pass there unnoticed.
    script = """
import json, sys
from hypersign.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
banned = {"scipy", "networkx", "pytest_benchmark"}
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] in banned)]))
"""
    runs = [
        ["check", ex_path], ["spectra", ex_path], ["tensor", ex_path],
        ["switch", ex_path, "--vertices", "1", "-o", str(tmp_path / "switched.ohg")],
        ["gen", "6", "4", "--k", "2", "-o", str(tmp_path / "gen.ohg")],
        ["battery", "--instances", "2"],
    ]
    proc = _run_cli([sys.executable, "-c", script, json.dumps(runs)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    codes, imported = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(runs)
    assert imported == []


def test_tensor_refuses_a_parity_basis_past_its_limit(monkeypatch, capsys, ex_path):
    monkeypatch.setattr(linalg, "GF2_MAX_BASIS_BYTES", 3)
    assert main(["tensor", "--json", ex_path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: a GF(2) basis of 3 rows of 10 bits exceeds")
    assert "Traceback" not in captured.err
