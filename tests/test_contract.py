"""The input contract, tested as a whole: every public entry point answers
hostile input with a result or a typed HypersignError.

The walk covers the union of the modules' ``__all__``: every parameter of a
public function, constructor or method whose name makes it an id, a label,
a tolerance, a size, a budget, content, a path or a name has a case below,
which feeds it each hostile value while its other arguments stay valid.  A
result is allowed only for a value that the contract in ``hypersign.errors``
admits: ids, sizes and budgets are integers and never bool (budgets at
least 1), tolerances finite reals above 0 and never bool, labels real and
+1 or -1, content and names str, paths str or os.PathLike.  Any other
exception fails, and so does an answer for a refused value; a path or a
name that names no file may also raise OSError.

The command line gets the same treatment: every subcommand, given hostile
arguments or files, exits 0, 2 or 3 and prints no traceback.
"""

import contextlib
import importlib
import inspect
import io
import math
import numbers
import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypersign as hs
from hypersign.cli import main, run_battery

HOSTILE = (
    True, np.bool_(True), 1.5, 1.0, 1 + 0j, "1", None, np.int64(1),
    math.nan, math.inf, -1, 0, 2**63, [],
)
# Fed to the parts of a walk element too: ``in`` on an array compares it
# elementwise.
ARRAY_KIND = np.array(["v", "e"])
MODULES = (
    "balance", "cli", "core", "errors", "fileio", "generate",
    "linalg", "spectral", "switching", "tensor", "walks",
)


def _integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


# What each role admits: a result for any other value is a fault.
ADMITS = {
    "id": _integer,
    "size": _integer,
    "budget": lambda x: _integer(x) and x >= 1,
    "tolerance": lambda x: _real(x) and 0 < x < math.inf,
    "label": lambda x: isinstance(x, numbers.Real) and x in (-1, 1),
    "probability": lambda x: _real(x) and 0 <= x <= 1,
    "number": lambda x: isinstance(x, (numbers.Real, np.bool_)) and math.isfinite(x),
    "pair": lambda x: False,  # no hostile value is an element, a kind or a (low, high) pair
    "text": lambda x: isinstance(x, str),
    "path": lambda x: isinstance(x, (str, os.PathLike)),
    "unused": lambda x: True,
}

# The role of a parameter, by its name.
ROLES = {
    **dict.fromkeys(("v", "u", "e", "a", "b", "vertices", "edges", "elements",
                     "part_positive", "part_negative", "edge_specs", "edge_sets",
                     "equations"), "id"),
    "gamma": "label",
    **dict.fromkeys(("n", "m", "k", "nvars", "rows", "n_max", "m_max", "size_range",
                     "instances", "seed"), "size"),
    **dict.fromkeys(("max_count", "max_paths", "max_cycles", "max_nodes"), "budget"),
    **dict.fromkeys(("tol", "abs_tol"), "tolerance"),
    "p_neg": "probability",
    "target": "number",
    **dict.fromkeys(("text", "name"), "text"),
    "path": "path",
}

# Records the library returns: their fields are its answers, not input.
RESULTS = {
    "Balanced", "Unbalanced", "FiveWayReport", "CycleEnumeration", "PathSignReport",
    "NQZResult", "OddBipartition", "ParityCertificate", "TensorSimilarity",
    "SixWayReport", "SpectralReport", "SpectralTestSuite", "GF2Solution",
    "GF2Infeasible", "NotEquivalent", "IncidenceCore",
}

# Parameters whose name matches a role but whose value is something else.
EXEMPT = {
    "linalg.sym_eigenvalues:a": "a matrix",
    "linalg.singular_values:m": "a matrix",
    "core.structures_match:a": "a hypergraph",
    "core.structures_match:b": "a hypergraph",
    "walks.vertex_node:v": "builds an element; Walk and every lookup check its id",
    "walks.edge_node:e": "builds an element; Walk and every lookup check its id",
    "walks.node_element:n": "converts a node id of the package's own searches",
    "switching.oriented_switch_equivalent:target": "a hypergraph",
}

EX = hs.build(6, [[(1, 1), (2, -1), (3, 1), (4, 1)],
                  [(1, 1), (2, 1), (5, 1), (6, -1)],
                  [(3, -1), (4, 1), (5, 1), (6, 1)]])
SEX = hs.induced_signed(EX)
PAIR = hs.build(2, [[(1, 1), (2, -1)]])


def _rng():
    return random.Random(1)


def _off_the_streams(call):
    """call, handed the read end of a fresh pipe, its write end closed (as
    an int, or the same numpy type), in place of an integer 0, 1 or 2, a
    bool included: open() takes an integer for a file descriptor and
    closes it, and those three are this process's standard streams.
    Relative paths name files in a fresh temporary directory."""

    def guarded(x):
        read, write = os.pipe()
        os.close(write)
        try:
            if isinstance(x, (int, np.integer)) and 0 <= x <= 2:
                x = read if isinstance(x, bool) else type(x)(read)
            with tempfile.TemporaryDirectory() as folder:
                cwd = os.getcwd()
                os.chdir(folder)
                try:
                    return call(x)
                finally:
                    os.chdir(cwd)
        finally:
            with contextlib.suppress(OSError):
                os.close(read)

    return guarded


CASES = {
    "core.build:n": ("size", lambda x: hs.build(x, [[(1, 1)]])),
    "core.build:edge_specs": ("id", lambda x: hs.build(3, [[(x, 1), (2, -1)]])),
    "core.build:edge_specs/label": ("label", lambda x: hs.build(3, [[(1, x), (2, -1)]])),
    "core.build_signed:n": ("size", lambda x: hs.build_signed(x, [[1]], [1])),
    "core.build_signed:edge_sets": ("id", lambda x: hs.build_signed(3, [[x, 2]], [1])),
    "core.build_signed:gamma": ("label", lambda x: hs.build_signed(3, [[1, 2]], [x])),
    "core.OrientedHypergraph:n": ("size", lambda x: hs.OrientedHypergraph(x, (((1, 1),),))),
    "core.OrientedHypergraph:edges": (
        "id", lambda x: hs.OrientedHypergraph(3, (((x, 1), (2, -1)),))),
    "core.OrientedHypergraph:edges/label": (
        "label", lambda x: hs.OrientedHypergraph(3, (((1, x), (2, -1)),))),
    "core.OrientedHypergraph.with_orientations:edges": (
        "id", lambda x: PAIR.with_orientations((((x, 1), (2, 1)),))),
    "core.OrientedHypergraph.with_orientations:edges/label": (
        "label", lambda x: PAIR.with_orientations((((1, x), (2, 1)),))),
    "core.SignedHypergraph:n": ("size", lambda x: hs.SignedHypergraph(x, ((1,),), (1,))),
    "core.SignedHypergraph:edges": ("id", lambda x: hs.SignedHypergraph(3, ((x, 2),), (1,))),
    "core.SignedHypergraph:gamma": ("label", lambda x: hs.SignedHypergraph(3, ((1, 2),), (x,))),
    "core.SignedHypergraph.with_gamma:gamma": ("label", lambda x: SEX.with_gamma((x, 1, 1))),
    "core.SignedHypergraph.sign:e": ("id", lambda x: SEX.sign(x)),
    "core.edge_sign:e": ("id", lambda x: hs.edge_sign(EX, x)),
    "core.adjacency_sign:u": ("id", lambda x: hs.adjacency_sign(EX, x, 2, 0)),
    "core.adjacency_sign:v": ("id", lambda x: hs.adjacency_sign(EX, 2, x, 0)),
    "core.adjacency_sign:e": ("id", lambda x: hs.adjacency_sign(EX, 1, 2, x)),
    "core.OrientedHypergraph.orientation:e": ("id", lambda x: EX.orientation(x, 1)),
    "core.OrientedHypergraph.orientation:v": ("id", lambda x: EX.orientation(0, x)),
    "walks.Walk:elements": ("id", lambda x: hs.Walk((("v", x),))),
    "walks.Walk:elements/kind": ("pair", lambda x: hs.Walk(((x, 1),))),
    "walks.enumerate_cycles:max_count": ("budget", lambda x: hs.enumerate_cycles(EX, x)),
    "walks.paths_sign_consistent:a": (
        "id", lambda x: hs.paths_sign_consistent(EX, ("v", x), ("v", 3))),
    "walks.paths_sign_consistent:a/element": (
        "pair", lambda x: hs.paths_sign_consistent(EX, x, ("v", 3))),
    "walks.paths_sign_consistent:a/kind": (
        "pair", lambda x: hs.paths_sign_consistent(EX, (x, 1), ("v", 3))),
    "walks.paths_sign_consistent:b": (
        "id", lambda x: hs.paths_sign_consistent(EX, ("v", 3), ("e", x))),
    "walks.paths_sign_consistent:max_paths": (
        "budget", lambda x: hs.paths_sign_consistent(EX, ("v", 1), ("v", 6), max_paths=x)),
    "balance.verify_bipartition:part_positive": (
        "id", lambda x: hs.verify_bipartition(EX, [x, 2, 3], [4, 5, 6])),
    "balance.verify_bipartition:part_negative": (
        "id", lambda x: hs.verify_bipartition(EX, [2, 3, 4, 5, 6], [x])),
    "balance.OracleLimits:max_nodes": ("budget", lambda x: hs.OracleLimits(max_nodes=x)),
    "balance.OracleLimits:max_cycles": ("budget", lambda x: hs.OracleLimits(max_cycles=x)),
    "balance.OracleLimits:max_paths": ("budget", lambda x: hs.OracleLimits(max_paths=x)),
    "switching.SwitchCertificate:vertices": (
        "id", lambda x: hs.apply_switches(EX, hs.SwitchCertificate(vertices=(x,)))),
    "switching.SwitchCertificate:edges": (
        "id", lambda x: hs.apply_switches(EX, hs.SwitchCertificate(edges=(x,)))),
    "switching.SignedSwitchCertificate:vertices": (
        "id", lambda x: hs.apply_signed_switches(SEX, hs.SignedSwitchCertificate((x,)))),
    "switching.vertex_switch:v": ("id", lambda x: hs.vertex_switch(EX, x)),
    "switching.edge_switch:e": ("id", lambda x: hs.edge_switch(EX, x)),
    "switching.signed_vertex_switch:v": ("id", lambda x: hs.signed_vertex_switch(SEX, x)),
    "linalg.GF2System:nvars": ("size", lambda x: hs.gf2_solve(hs.GF2System(x, ((1, 1),)))),
    "linalg.GF2System:rows": ("size", lambda x: hs.gf2_solve(hs.GF2System(3, ((x, 1),)))),
    "linalg.GF2System.from_sets:nvars": (
        "size", lambda x: hs.GF2System.from_sets(x, [((1,), 1)])),
    "linalg.GF2System.from_sets:equations": (
        "id", lambda x: hs.GF2System.from_sets(3, [((x,), 1)])),
    "linalg.spectrum_contains:abs_tol": (
        "tolerance", lambda x: hs.spectrum_contains([0.0], 0.0, abs_tol=x)),
    "linalg.spectrum_contains:target": ("number", lambda x: hs.spectrum_contains([0.0], x)),
    "spectral.spectral_balance_tests:abs_tol": (
        "tolerance", lambda x: hs.spectral_balance_tests(EX, abs_tol=x)),
    "tensor.nqz_spectral_radius:tol": ("tolerance", lambda x: hs.nqz_spectral_radius(EX, tol=x)),
    "tensor.theorem_battery_even:tol": (
        "tolerance", lambda x: hs.theorem_battery_even(SEX, tol=x)),
    "tensor.theorem_battery_even:seed": ("unused", lambda x: hs.theorem_battery_even(SEX, seed=x)),
    "generate.generate:n": ("size", lambda x: hs.generate(x, 2, k=1)),
    "generate.generate:m": ("size", lambda x: hs.generate(3, x, k=1)),
    "generate.generate:k": ("size", lambda x: hs.generate(3, 2, k=x)),
    "generate.generate:size_range": ("size", lambda x: hs.generate(3, 2, size_range=(x, 2))),
    "generate.generate:size_range/high": (
        "size", lambda x: hs.generate(3, 2, size_range=(1, x))),
    "generate.generate:size_range/pair": ("pair", lambda x: hs.generate(3, 2, size_range=x)),
    "generate.generate:p_neg": ("probability", lambda x: hs.generate(3, 2, k=2, p_neg=x)),
    "generate.generate:seed": ("size", lambda x: hs.generate(3, 2, k=2, seed=x)),
    "generate.random_connected:n_max": ("size", lambda x: hs.random_connected(_rng(), n_max=x)),
    "generate.random_connected:m_max": ("size", lambda x: hs.random_connected(_rng(), m_max=x)),
    "generate.random_connected_uniform:k": (
        "size", lambda x: hs.random_connected_uniform(_rng(), x)),
    "generate.random_connected_uniform:n_max": (
        "size", lambda x: hs.random_connected_uniform(_rng(), 2, n_max=x)),
    "generate.random_connected_uniform:m_max": (
        "size", lambda x: hs.random_connected_uniform(_rng(), 2, m_max=x)),
    "cli.run_battery:instances": ("size", lambda x: run_battery(instances=x)),
    "cli.run_battery:seed": ("size", lambda x: run_battery(instances=1, seed=x)),
    "fileio.parse:text": ("text", lambda x: hs.parse(x)),
    "fileio.parse_text:text": ("text", lambda x: hs.parse_text(x)),
    "fileio.load_bundled:name": ("text", lambda x: hs.load_bundled(x)),
    "fileio.load:path": ("path", _off_the_streams(hs.load)),
    "fileio.save:path": ("path", _off_the_streams(lambda x: hs.save(EX, x))),
}

# The lookups every hypergraph kind shares.
for _kind, _h in (("OrientedHypergraph", EX), ("SignedHypergraph", SEX)):
    for _method, _param in (("members", "e"), ("check_edge", "e"), ("degree", "v"),
                            ("edges_of", "v"), ("check_vertex", "v")):
        CASES[f"core.{_kind}.{_method}:{_param}"] = (
            "id", lambda x, call=getattr(_h, _method): call(x))


def _public_parameters() -> set[str]:
    """"module.name:parameter" for every parameter with a role, over the
    functions, constructors and methods that the modules' __all__ name."""
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"hypersign.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if attr in RESULTS or not (inspect.isfunction(obj) or inspect.isclass(obj)) or (
                inspect.isclass(obj) and issubclass(obj, BaseException)
            ):
                continue
            targets = [(attr, obj)]
            if inspect.isclass(obj):
                targets += [(f"{attr}.{method}", getattr(obj, method)) for method in dir(obj)
                            if not method.startswith("_") and callable(getattr(obj, method))]
            for qualname, target in targets:
                for param in inspect.signature(target).parameters:
                    if param in ROLES:
                        found.add(f"{name}.{qualname}:{param}")
    return found


def test_every_parameter_with_a_role_has_a_case():
    needed = _public_parameters() - set(EXEMPT)
    covered = {key.split("/")[0] for key in CASES}
    assert not needed - covered, sorted(needed - covered)
    assert not set(EXEMPT) - _public_parameters()  # no stale exemptions


def _hostile(role: str) -> tuple:
    return HOSTILE + (ARRAY_KIND,) if role == "pair" else HOSTILE


_PAIRS = [(key, i) for key in sorted(CASES) for i in range(len(_hostile(CASES[key][0])))]


@settings(derandomize=True, database=None, deadline=None, max_examples=2 * len(_PAIRS))
@given(st.sampled_from(_PAIRS))
def test_hostile_values_give_a_result_or_a_typed_error(pair):
    key, i = pair
    role, call = CASES[key]
    value = _hostile(role)[i]
    try:
        call(value)
    except hs.HypersignError:
        return
    except OSError:  # a path or a bundled name that names no file
        if role not in ("path", "text") or not ADMITS[role](value):
            raise
        return
    assert ADMITS[role](value), f"{key} answered for {value!r}, which the contract refuses"


# ---------------------------------------------------------------------------
# The command line.

CLI_HOSTILE = ("True", "1.5", "1.0", "1+0j", "1", "None", "nan", "inf", "-1", "0",
               "9223372036854775808", "[]", "")

HOSTILE_FILES = {
    "empty": "",
    "fractional-count": "vertices 1.5\n",
    "huge-count": "vertices 9223372036854775808\n",
    "repeated-vertex": "vertices 3\nedge e1 +1 +1\n",
    "vertex-out-of-range": "vertices 3\nedge e1 +4\n",
    "odd-uniform": "vertices 3\nedge e1 +1 +2 +3\n",
    "disconnected": "vertices 4\nedge e1 +1 +2\nedge e2 +3 -4\n",
    "json-bool-count": '{"n": true, "edges": []}',
    "json-float-sign": '{"n": 3, "edges": [{"name": "e1", "incidences": [{"v": 1, "sign": 1.0}]}]}',
    "json-list-name": '{"n": 3, "edges": [{"name": [], "incidences": []}]}',
    "json-null-edges": '{"n": 3, "edges": null}',
    "json-list": "[]",
    "json-huge-float": '{"n": 1e400, "edges": []}',
    "not-utf8": b"\xff\xfe\x00vertices 3\n",
}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("hostile")
    paths = {"directory": str(folder), "missing": str(folder / "missing.ohg")}
    for name, content in HOSTILE_FILES.items():
        path = folder / f"{name}.ohg"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        paths[name] = str(path)
    good = folder / "ex.ohg"
    hs.save(EX, good)
    paths["good"] = str(good)
    return paths


def _argument_lists(files: dict) -> list[list[str]]:
    """Every subcommand on every hostile file, and with each hostile token
    in each slot {} of its arguments."""
    good, out = files["good"], files["directory"] + "/{}"
    lists = [[command, path] for command in ("check", "spectra", "tensor", "switch")
             for path in files.values()]
    templates = [
        ["spectra", good, "--tol", "{}"], ["spectra", "--json", good, "--tol", "{}"],
        ["tensor", good, "--tol", "{}"],
        ["switch", good, "--vertices", "{}"], ["switch", good, "--edges", "{}"],
        ["switch", good, "-o", out],
        ["gen", "{}", "2", "--k", "1"], ["gen", "3", "{}", "--k", "1"],
        ["gen", "3", "2", "--k", "{}"], ["gen", "3", "2", "--sizes", "{}"],
        ["gen", "3", "2", "--sizes", "1:{}"], ["gen", "3", "2", "--k", "2", "--p-neg", "{}"],
        ["gen", "3", "2", "--k", "2", "--seed", "{}"], ["gen", "3", "2", "--k", "2", "-o", out],
        ["battery", "--instances", "{}"], ["battery", "--instances", "1", "--seed", "{}"],
    ]
    lists += [[arg.replace("{}", token) for arg in template]
              for template in templates for token in CLI_HOSTILE]
    return lists


def test_hostile_arguments_and_files_exit_0_2_or_3(cli_files):
    argument_lists = _argument_lists(cli_files)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=2 * len(argument_lists))
    @given(st.sampled_from(argument_lists))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue(), argv

    run()
