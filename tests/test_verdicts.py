"""Pinned verdict inventories of the pointwise suites.

Each section runs one suite (``positivity``, ``sharp-axioms`` or
``ud-main``) at n = 1..4 on the seeds 31001 and 7, renders the check
name, verdict and counterexample of every report, and compares the
sha256 of the rendering with a pinned digest.  A change to the
evaluation kernels (``RatFun.eval``, the crystal operators, the batched
tropical checks) must leave every check, verdict and counterexample
unchanged; a failure names the suite that differs.  To see what changed,
print ``"\\n".join(lines(suite))`` on both versions and diff the output.
"""

import hashlib
import json

import pytest

from geomcrystal import slgroup, verify
from geomcrystal.verify import run_suite

SEEDS = (31001, 7)
RANKS = (1, 2, 3, 4)


def lines(suite: str) -> list:
    out = []
    for seed in SEEDS:
        for n in RANKS:
            for r in run_suite(suite, n, seed):
                witness = json.dumps(r.counterexample, sort_keys=True)
                out.append(f"seed={seed} {r.check} | {r.holds} | {witness}")
    return out


DIGESTS = {
    "positivity": "d909f0a9345e72a9d70c099f1ff6b0e220c9f3005ce49bec31884f57b6cf7367",
    "sharp-axioms": "b1121adaa91417c3df51c85707f31e604339e57e0753521a51aa4ca5582b43de",
    "ud-main": "22024928a90c273dce1191f10f28b679ee82fcffbaf7513c1aab98fb8a39e85d",
}


def digest(suite: str) -> str:
    text = "\n".join(lines(suite)) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("suite", sorted(DIGESTS))
def test_verdicts_unchanged(suite):
    assert digest(suite) == DIGESTS[suite], f"verdicts of suite {suite!r} differ"


def test_matrix_witness_is_one_based(monkeypatch):
    """A matrix check names its first differing entry 1-based, as the
    identity witnesses of ``slgroup`` do."""
    gauss = slgroup.crystal_act_gauss

    def perturbed(i, c, u):
        out = gauss(i, c, u)
        out.rows[1][0] = out.rows[1][0] + 1  # entry (2,1)
        return out

    monkeypatch.setattr(slgroup, "crystal_act_gauss", perturbed)
    reports = verify.prop43_reports(2)
    assert reports and not any(r.holds for r in reports)
    assert all(r.counterexample == {"entry": [2, 1]} for r in reports)
