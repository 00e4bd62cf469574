"""Checks of the benchmark itself: its known-answer gate and its tracing.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selfcheck.py

The file name keeps these checks out of the repository's default test run;
they take about 15 seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

EXACT = workloads.WORKLOADS["exact-catalog"]


@pytest.fixture(scope="module")
def qs():
    return workloads.load_qshear(Path(__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def mutants(qs):
    return workloads.build_mutants(qs, EXACT.mutants, seed=3)


def test_known_answers_hold(qs, mutants, tmp_path):
    result = workloads.run_pass(qs, EXACT, 3, tmp_path / "report.json", mutants)
    assert result.failed == 0, result.notes
    assert result.attempted == EXACT.identities + EXACT.mutants


@pytest.mark.parametrize("verdict", [True, False])
def test_broken_zero_test_is_caught(qs, mutants, tmp_path, verdict):
    undo = tracing.patch_everywhere("qshear.monodromy", "element_is_zero", lambda x: verdict)
    try:
        result = workloads.run_pass(qs, EXACT, 3, tmp_path / "report.json", mutants)
    finally:
        tracing.restore(undo)
    assert result.failed / result.attempted > 0
    kind = "mutant" if verdict else "identity"
    assert any(note.startswith(kind) for note in result.notes)


def test_traced_pass_accounts_for_its_wall_time(qs, mutants, tmp_path):
    original = qs["monodromy"].element_is_zero
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qs["suites"].element_is_zero is not original
        tracer.pass_id = 1
        result = workloads.run_pass(qs, EXACT, 3, tmp_path / "report.json", mutants)
    finally:
        tracer.uninstall()
    assert qs["suites"].element_is_zero is original
    assert result.failed == 0, result.notes
    layers = tracer.pass_layers(1, result.wall)
    assert not tracer.missing
    assert layers["accounting_error"] < 1e-6 * result.wall
    assert layers["min_self"] >= 0
    assert layers["unattributed"] / result.wall < 0.05
    assert layers["counters"]["monodromy.element_is_zero.nonzero"] == EXACT.mutants
    assert layers["calls"]["coeffs.mul"] > 0
