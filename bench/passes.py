"""One pass of a benchmark workload, run in a fresh interpreter.

Usage: ``python3 bench/passes.py --workload NAME --seed N [--trace]``

The pass imports geomcrystal from ``src/`` of the checkout, runs every check
of the workload once, and prints one JSON line: the monotonic clock reading
at the last verdict, every verdict with its check time, the peak resident
memory and, with ``--trace``, the per-layer trace.  ``run.py`` starts one
process per pass so that import and set-up are paid by every pass, as they
are by every user.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import CHECK, SUITE, Tracer  # noqa: E402

# Checks per pass.  A pass that reports another count is an error, so a
# change cannot look faster by dropping checks.
INVENTORY = {"symbolic-matrix": 46, "ratio-braid": 4, "pointwise": 129}

# The ratio-chart coordinates compared by ratio-braid.  (1,2) and (2,2) are
# left out: each takes about two minutes with Fraction coefficients.
RATIO_BRAID_KEYS = ((1, 1), (1, 3), (2, 3), (3, 3))


def monotonic():
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Pass:
    """Collects the verdicts of one pass, with spans when traced."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.checks = []  # [check name, holds, seconds inside the check]

    def suite(self, fn, *args):
        """Run a verify suite; its reports carry their own check windows."""
        if self.tracer is None:
            reports = fn(*args)
        else:
            reports = self.tracer.kept_span(SUITE, fn.__name__, fn, *args)
        self.checks.extend([r.check, bool(r.holds), r.elapsed] for r in reports)

    def build(self, label, fn):
        """Set-up outside any check, timed in the traced run as a suite."""
        if self.tracer is None:
            return fn()
        return self.tracer.kept_span(SUITE, label, fn)

    def check(self, name, fn):
        """Run one check timed here; ``fn`` returns its verdict."""
        start = time.perf_counter()
        if self.tracer is None:
            holds = fn()
        else:
            holds = self.tracer.kept_span(CHECK, name, fn)
        self.checks.append([name, bool(holds), time.perf_counter() - start])


def trace_verify_windows(tracer: Tracer, verify):
    """Open a check span inside each timed window of the verify suites."""
    timed, from_identity = verify._timed, verify._from_identity

    def traced_timed(check, n, thunk):
        return timed(check, n, lambda: tracer.kept_span(CHECK, check, thunk))

    def traced_from_identity(n, thunk):
        report = from_identity(n, lambda: tracer.kept_span(CHECK, None, thunk))
        tracer.spans[-1]["label"] = report.check
        return report

    tracer.patch(verify, "_timed", traced_timed)
    tracer.patch(verify, "_from_identity", traced_from_identity)


# ---------------------------------------------------------------------------
# workloads


def symbolic_matrix(p: Pass, seed: int):
    from geomcrystal import slgroup, verify

    p.suite(verify.axiom_reports, 5)
    p.suite(verify.umorphism_reports, 5)
    p.suite(verify.prop43_reports, 4)
    p.suite(verify.minor_reports, 7)
    for i, j in ((1, 2), (1, 3), (2, 3)):
        p.check(f"matrix braid(e_{i}, e_{j}) at n=3", lambda i=i, j=j: slgroup.check_braid_relation(i, j, 3).holds)


def ratio_braid(p: Pass, seed: int):
    from geomcrystal import charts
    from geomcrystal.ratfun import var

    def both_sides():  # the (e_2, e_3) braid, built as verify._ratio_relation builds it
        c1, c2 = var("c1"), var("c2")
        q = charts.TorusPointA.symbolic(3).to_ratio()
        lhs = q.act(2, c2).act(3, c1 * c2).act(2, c1)
        rhs = q.act(3, c1).act(2, c1 * c2).act(3, c2)
        return lhs, rhs

    lhs, rhs = p.build("ratio braid(e_2, e_3) at n=3", both_sides)
    for key in RATIO_BRAID_KEYS:
        p.check(f"ratio braid(e_2, e_3) coordinate {key} at n=3",
                lambda key=key: lhs.coords[key] == rhs.coords[key])


def pointwise(p: Pass, seed: int):
    from geomcrystal import verify

    p.suite(verify.positivity_reports, 5, seed)
    p.suite(verify.udmain_reports, 3, seed)
    p.suite(verify.udmain_reports, 4, seed)
    p.suite(verify.sharp_reports, 5, seed)
    p.suite(verify.weyl_reports, 5, seed)
    p.suite(verify.oracle_reports, 4, seed, 125)


WORKLOADS = {"symbolic-matrix": symbolic_matrix, "ratio-braid": ratio_braid, "pointwise": pointwise}


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    """Run one pass in this process and return its record."""
    import geomcrystal.verify

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
        trace_verify_windows(tracer, geomcrystal.verify)
    p = Pass(tracer)
    try:
        WORKLOADS[workload](p, seed)
    finally:
        t_last = monotonic()
        if tracer is not None:
            tracer.restore()
    record = {"t_last": t_last, "checks": p.checks}
    if tracer is not None:
        record["trace"] = summarize(tracer)
    return record


def summarize(tracer: Tracer) -> dict:
    """Per-layer totals plus the check and build times of a traced pass."""
    checks = [s for s in tracer.spans if s["name"] == CHECK]
    suites = [s for s in tracer.spans if s["name"] == SUITE]
    check_s = sum(s["end"] - s["start"] for s in checks)
    in_suites = sum(s["end"] - s["start"] for s in checks if s["parent"] == SUITE)
    return {
        "layers": tracer.layer_totals(),
        "layers_in_checks": tracer.layer_totals(in_check=True),
        "check_s": check_s,
        "check_self_s": sum(s["self"] for s in checks),
        "build_s": sum(s["end"] - s["start"] for s in suites) - in_suites,
        "spans": tracer.spans,
        "aggregates": [[*key, *rec] for key, rec in tracer.agg.items()],
    }


def pass_record(workload: str, seed: int, traced: bool) -> dict:
    """:func:`run_pass` plus the coefficient type and the peak memory."""
    record = run_pass(workload, seed, traced)
    from geomcrystal.ratfun import Q

    record["coefficients"] = f"{Q.__module__}.{Q.__qualname__}"
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    print(json.dumps(pass_record(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
