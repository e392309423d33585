"""Pinned verdict inventories of the pointwise suites.

Each section runs one suite (``positivity``, ``sharp-axioms`` or
``ud-main``) at n = 1..4 on the seeds 31001 and 7, renders the check
name, verdict and counterexample of every report, and compares the
sha256 of the rendering with a pinned digest.  ``positivity`` and
``sharp-axioms`` are pinned at n = 5 as well, a digest of their own, as
the pointwise benchmark runs them there.  A change to the evaluation
kernels (``RatFun.eval``, the crystal operators, the batched tropical
checks) must leave every check, verdict and counterexample unchanged; a
failure names the suite that differs.  To see what changed, print
``"\\n".join(lines(suite))`` on both versions and diff the output.

The witness tests inject one fault per witness shape into the symbolic
suites and check that a failing report names a location, never a value.
"""

import hashlib
import json
import random

import pytest

from geomcrystal import slgroup, verify
from geomcrystal.ratfun import Q, RatFun
from geomcrystal.verify import run_suite

SEEDS = (31001, 7)
RANKS = (1, 2, 3, 4)


def lines(suite: str, ranks: tuple = RANKS) -> list:
    out = []
    for seed in SEEDS:
        for n in ranks:
            for r in run_suite(suite, n, seed):
                witness = json.dumps(r.counterexample, sort_keys=True)
                out.append(f"seed={seed} {r.check} | {r.holds} | {witness}")
    return out


DIGESTS = {
    "positivity": "d909f0a9345e72a9d70c099f1ff6b0e220c9f3005ce49bec31884f57b6cf7367",
    "sharp-axioms": "b1121adaa91417c3df51c85707f31e604339e57e0753521a51aa4ca5582b43de",
    "ud-main": "22024928a90c273dce1191f10f28b679ee82fcffbaf7513c1aab98fb8a39e85d",
}

DIGESTS_AT_RANK_FIVE = {
    "positivity": "71d0ddd62bf4fcd945ec73e332d18db5046149d13d91f89e66128d8a03394c20",
    "sharp-axioms": "3c6856866731b5bd5fc29c5d8793c31c71670318401c4459c0e851a2cb27e78b",
}


def digest(suite: str, ranks: tuple = RANKS) -> str:
    text = "\n".join(lines(suite, ranks)) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("suite", sorted(DIGESTS))
def test_verdicts_unchanged(suite):
    assert digest(suite) == DIGESTS[suite], f"verdicts of suite {suite!r} differ"


@pytest.mark.parametrize("suite", sorted(DIGESTS_AT_RANK_FIVE))
def test_verdicts_unchanged_at_rank_five(suite):
    assert digest(suite, (5,)) == DIGESTS_AT_RANK_FIVE[suite], f"verdicts of suite {suite!r} at n=5 differ"


def _witnesses(reports) -> dict:
    return {r.check: r.counterexample for r in reports}


def _bumped(mat):
    """A new matrix: ``mat`` with 1 added to its entry (2,1)."""
    rows = [list(row) for row in mat.rows]
    rows[1][0] = rows[1][0] + 1
    return slgroup.MatRF(rows)


def test_matrix_witness_is_one_based(monkeypatch):
    """A check that fails names where: a matrix entry, a torus diagonal
    slot or a chart coordinate, each 1-based.  One fault is injected per
    witness shape, on one side of each identity."""
    gauss = slgroup.crystal_act_gauss

    def perturbed(i, c, u):
        return _bumped(gauss(i, c, u))  # entry (2,1)

    monkeypatch.setattr(slgroup, "crystal_act_gauss", perturbed)
    reports = verify.prop43_reports(2)
    assert reports and not any(r.holds for r in reports)
    assert all(r.counterexample == {"entry": [2, 1]} for r in reports)

    relation = slgroup.rank2_relation

    def perturbed_rhs(i, j, act, x):
        lhs, rhs = relation(i, j, act, x)
        if isinstance(rhs, slgroup.MatRF):
            rhs = _bumped(rhs)
        else:
            rhs.coords[(1, 2)] = rhs.coords[(1, 2)] + 1
        return lhs, rhs

    with monkeypatch.context() as m:
        m.setattr(slgroup, "rank2_relation", perturbed_rhs)
        assert _witnesses(verify.verma_reports(2)) == {
            "braid(e_1, e_2) at n=2": {"entry": [2, 1]},
            "ratio-chart braid(e_1, e_2) at n=2": {"coordinate": [1, 2]},
        }

    act = slgroup.crystal_act

    def perturbed_act(i, c, u):
        return _bumped(act(i, c, u))  # phi_1, hence corner minor 1

    with monkeypatch.context() as m:
        m.setattr(slgroup, "crystal_act", perturbed_act)
        assert _witnesses(verify.axiom_reports(1)) == {
            "unit action e^1=id (i=1) at n=1": {"entry": [2, 1]},
            "weight equivariance (i=1) at n=1": {"diagonal": 1},
            "one-parameter law (i=1) at n=1": {"entry": [2, 1]},
        }

    decompose = slgroup.gauss_decompose

    def perturbed_torus(g):
        f = decompose(g)
        diag = list(f.torus.diag)
        diag[1] = diag[1] + 1
        return slgroup.GaussFactors(f.lower, slgroup.TorusElem(diag), f.upper)

    with monkeypatch.context() as m:
        m.setattr(slgroup, "gauss_decompose", perturbed_torus)
        assert _witnesses(verify.umorphism_reports(1)) == {
            "embed-equivariance(i=1) at n=1": {"entry": [2, 2]},
            "torus-compatibility(i=1) at n=1": {"diagonal": 2},
        }


def _strings(witness, key=None):
    """(key, text) of every string value in a witness, at any depth."""
    if isinstance(witness, dict):
        for k, v in witness.items():
            yield from _strings(v, k)
    elif isinstance(witness, list):
        for v in witness:
            yield from _strings(v, key)
    elif isinstance(witness, str):
        yield key, witness


@pytest.mark.parametrize("fault", [False, True], ids=["sound", "every-symbolic-check-fails"])
def test_witness_is_a_location(monkeypatch, fault):
    """A report fails exactly when it carries a witness, and no witness
    holds the text of a rational function: its strings are only formula
    names, reasons and rational coordinates of an evaluation point."""
    if fault:
        monkeypatch.setattr(RatFun, "__eq__", lambda self, other: False)
    reports = run_suite("all", 2)
    assert len(reports) == 44
    assert fault == any(not r.holds for r in reports)
    for r in reports:
        assert r.holds == (r.counterexample is None), r.check
        for key, text in _strings(r.counterexample):
            if key not in ("formula", "reason"):
                Q(text)  # a ValueError here means the witness holds an expression


def test_positivity_failure_keeps_the_drawn_points(monkeypatch):
    """A positivity check evaluates its points as one batch; a value made
    nonpositive wherever its first coordinate exceeds 30, from one chosen
    check on, fails each report at the point a point-by-point loop finds,
    and every check after a failure sees the points that loop draws."""
    n, seed, chosen = 3, 7, 4
    evaluate = RatFun.eval_many
    seen = []

    def faulted(self, points):
        seen.append(self)
        values = evaluate(self, points)
        if len(seen) <= chosen:
            return values
        return [-v if pt[min(pt)] > 30 else v for v, pt in zip(values, points)]

    monkeypatch.setattr(RatFun, "eval_many", faulted)
    reports = verify.positivity_reports(n, seed)
    monkeypatch.undo()
    assert len(seen) == len(reports)  # one batch per check

    rng = random.Random(seed)
    expected = []
    for index, value in enumerate(seen):
        names = sorted(set(value.variables))
        witness = None
        for _ in range(verify.POSITIVITY_POINTS):
            pt = {v: Q(rng.randint(1, 60), rng.randint(1, 9)) for v in names}
            got = value.eval(pt)
            if index >= chosen and pt[names[0]] > 30:
                got = -got
            if not got > 0:
                witness = {"point": {k: str(x) for k, x in pt.items()}}
                break
        expected.append((witness is None, witness))
    assert [(r.holds, r.counterexample) for r in reports] == expected
    assert all(r.holds for r in reports[:chosen]) and not reports[chosen].holds
    assert sum(not r.holds for r in reports[chosen + 1 :]) > 10
