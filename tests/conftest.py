import re
from collections import Counter

import pytest

import hypersign as hs
from hypersign import linalg, tensor, walks

# Pass/fail ledger for the acceptance suite, printed as one line per
# criterion after the normal summary.
_acceptance: dict[int, str] = {}


def pytest_runtest_logreport(report):
    match = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if not match:
        return
    key = int(match.group(1))
    if report.when == "call":
        if report.passed:
            _acceptance.setdefault(key, "PASS")
        elif report.failed:
            _acceptance[key] = "FAIL"
        else:
            _acceptance[key] = "SKIP"
    elif report.failed:
        _acceptance[key] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_acceptance):
        terminalreporter.write_line(f"ACCEPTANCE criterion {key}: {_acceptance[key]}")


@pytest.fixture
def e1():
    """Single edge {1,2}, negative at vertex 2."""
    return hs.build(2, [[(1, 1), (2, -1)]])


@pytest.fixture
def triangle():
    """2-uniform triangle with exactly one negative incidence."""
    return hs.build(3, [[(1, -1), (2, 1)], [(1, 1), (3, 1)], [(2, 1), (3, 1)]])


@pytest.fixture
def ex():
    """Three 4-edges on six vertices; negative orientations exactly at
    (edge 0, vertex 2), (edge 1, vertex 6), (edge 2, vertex 3)."""
    return hs.build(
        6,
        [
            [(1, 1), (2, -1), (3, 1), (4, 1)],
            [(1, 1), (2, 1), (5, 1), (6, -1)],
            [(3, -1), (4, 1), (5, 1), (6, 1)],
        ],
    )


@pytest.fixture
def structure_runs(monkeypatch) -> Counter:
    """Counts of the NQZ iterations ("nqz"), the connectivity roots
    computed by a labelling run with no flip set ("kernel") and the GF(2)
    reductions built ("parity") while the test runs."""
    calls = Counter()
    nqz, roots, reduction = tensor._nqz, walks._connectivity_roots, linalg._GF2Reduction.__init__

    def counting_nqz(*args):
        calls["nqz"] += 1
        return nqz(*args)

    def counting_roots(core):
        calls["kernel"] += 1
        return roots(core)

    def counting_reduction(self, *args):
        calls["parity"] += 1
        reduction(self, *args)

    monkeypatch.setattr(tensor, "_nqz", counting_nqz)
    monkeypatch.setattr(walks, "_connectivity_roots", counting_roots)
    monkeypatch.setattr(linalg._GF2Reduction, "__init__", counting_reduction)
    return calls
