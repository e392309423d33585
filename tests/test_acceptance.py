"""Acceptance suite: every exit criterion at its stated scope.

Each test prints one pass/fail line (run pytest with -s to see them all)
and fails on any violated identity.  All checks are exact: symbolic
identities hold as rational-function equalities, randomized populations
use fixed seeds and admit zero failures.
"""

import time

import pytest

from geomcrystal import verify

ACCEPTANCE_SEED = 20240925


def _report(criterion: str, reports, started: float) -> None:
    elapsed = time.perf_counter() - started
    bad = [r for r in reports if not r.holds]
    status = "PASS" if not bad else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({len(reports)} checks, {elapsed:.1f}s)")
    for r in bad:
        print(f"  failed: {r.check} counterexample={r.counterexample}")
    assert not bad, f"{criterion}: {len(bad)} of {len(reports)} checks failed"


@pytest.fixture(scope="module")
def udmain_reports_by_rank():
    return {n: verify.udmain_reports(n, seed=ACCEPTANCE_SEED) for n in (1, 2, 3)}


def test_criterion_01_verma_relations():
    started = time.perf_counter()
    reports = []
    for n in (2, 3):
        reports.extend(verify.verma_reports(n))
    _report("1 (rank-2 relations, matrix and ratio-chart forms)", reports, started)


def test_criterion_02_geometric_crystal_axioms():
    started = time.perf_counter()
    reports = []
    for n in (1, 2, 3, 4, 5):
        reports.extend(verify.axiom_reports(n))
    _report("2 (unit action and weight equivariance)", reports, started)


def test_criterion_03_minor_and_phi_formulas():
    started = time.perf_counter()
    reports = []
    for n in (1, 2, 3, 4, 5, 6, 7):
        reports.extend(verify.minor_reports(n))
    _report("3 (corner-minor product and column-sum formulas)", reports, started)


def test_criterion_04_chart_action_vs_gauss():
    started = time.perf_counter()
    reports = []
    for n in (1, 2, 3, 4, 5):
        reports.extend(verify.prop43_reports(n))
    _report("4 (factor-chart closed form vs Gauss-decomposition action)", reports, started)


def test_criterion_05_positive_structure():
    started = time.perf_counter()
    reports = []
    for n in (1, 2, 3, 4):
        reports.extend(verify.positivity_reports(n, seed=ACCEPTANCE_SEED))
    _report("5 (subtraction-free certificates and positive evaluation)", reports, started)


def test_criterion_06_sharp_axioms_and_freeness():
    started = time.perf_counter()
    reports = []
    for n in (1, 2, 3, 4, 5):
        reports.extend(verify.sharp_reports(n, seed=ACCEPTANCE_SEED + n))
    _report("6 (free-crystal axioms, shifts, inverse operators)", reports, started)


def test_criterion_07_tableau_tensor_oracle():
    started = time.perf_counter()
    reports = []
    for n in (1, 2, 3, 4):
        reports.extend(verify.oracle_reports(n, seed=ACCEPTANCE_SEED + n, cases=125))
    _report("7 (tensor-rule tableau oracle vs closed power formula)", reports, started)


def test_criterion_08_tropicalized_action_is_sharp_crystal(udmain_reports_by_rank):
    started = time.perf_counter()
    reports = []
    for n, reps in udmain_reports_by_rank.items():
        reports.extend(r for r in reps if not r.check.startswith("tropicalization soundness"))
    _report("8 (tropicalized chart action equals the free crystal)", reports, started)


def test_criterion_09_tropicalization_soundness(udmain_reports_by_rank):
    started = time.perf_counter()
    reports = []
    for n, reps in udmain_reports_by_rank.items():
        reports.extend(r for r in reps if r.check.startswith("tropicalization soundness"))
    assert reports, "soundness rows missing from the ud-main suite"
    _report("9 (tropical evaluation equals the degree oracle)", reports, started)


def test_criterion_10_weyl_action():
    started = time.perf_counter()
    reports = []
    for n in (1, 2, 3, 4):
        reports.extend(verify.weyl_reports(n, seed=ACCEPTANCE_SEED + n))
    _report("10 (Weyl involutions: squares, braid, commutation)", reports, started)
