"""Benchmark of geomcrystal: time to a complete, correct verdict.

Usage::

    python3 bench/run.py --workload {symbolic-matrix,ratio-braid,pointwise}
                         [--seed N] [--seconds S] [--trace {0,1}]

Run from the root of a checkout.  The run is a closed loop on one thread:
it starts one pass after another, each in a fresh interpreter that imports
geomcrystal from ``src/``, until ``--seconds`` have passed (at least one
pass).  Every verdict is checked; a false verdict exits with status 1 and a
pass whose check count differs from the workload's inventory exits with
status 3, after the result line.

With ``--trace 0`` the result carries the end-to-end metrics, each the median
over the passes.  With ``--trace 1`` untraced and traced passes alternate and
the result carries the per-layer metrics of the traced passes, plus the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit and the environment stamp.  The
full record, spans of the last traced pass included, is written to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "geomcrystal"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

from passes import INVENTORY, WORKLOADS, monotonic  # noqa: E402
from tracing import COUNTED, LAYERS  # noqa: E402

DEFAULT_SEED = 31001  # geomcrystal.verify.DEFAULT_SEED
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 170  # no pass starts that could end after this

E2E_UNITS = {"verdict_s": "s", "check_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_units():
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        for counter in COUNTED.get(layer, ()):
            units[f"{layer}.{counter}"] = "count"
    units["verify.build_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def spawn_pass(workload: str, seed: int, traced: bool) -> dict:
    """Run one pass in a fresh interpreter and return its record, with
    ``verdict_s`` measured from the moment the process is started."""
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    start = monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with status {proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["verdict_s"] = record["t_last"] - start
    return record


def e2e_of(record: dict) -> dict:
    check_s = sum(c[2] for c in record["checks"])
    return {
        "verdict_s": record["verdict_s"],
        "check_s": check_s,
        "setup_s": record["verdict_s"] - check_s,
        "peak_rss_mb": record["peak_rss_kb"] / 1024,
    }


def layers_of(record: dict) -> dict:
    trace = record["trace"]
    out = {}
    for layer in LAYERS:
        totals = trace["layers"].get(layer, {"calls": 0, "self_s": 0.0, "term_products": 0, "result_terms": 0})
        out[f"{layer}.calls"] = totals["calls"]
        out[f"{layer}.self_s"] = totals["self_s"]
        for counter in COUNTED.get(layer, ()):
            out[f"{layer}.{counter}"] = totals[counter]
    out["verify.build_s"] = trace["build_s"]
    return out


def medians(rows: list) -> dict:
    out = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        median = statistics.median(values)
        out[key] = int(median) if all(type(v) is int for v in values) and median == int(median) else median
    return out


def environment(coefficients: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this host
            pass
    return {
        "python": platform.python_version(),
        "coefficients": coefficients,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, spawn=spawn_pass) -> tuple:
    """Run passes for ``seconds``; return (result line, full record)."""
    plain, traced = [], []
    begin = monotonic()
    longest = 0.0
    while True:
        t0 = monotonic()
        plain.append(spawn(workload, seed, False))
        if trace:
            traced.append(spawn(workload, seed, True))
        longest = max(longest, monotonic() - t0)
        elapsed = monotonic() - begin
        # Start another round only if it should end nearer the deadline
        # than this one did, so a run lasts about ``seconds`` on average.
        if elapsed + 0.5 * elapsed / len(plain) >= seconds or elapsed + 1.5 * longest > RUN_LIMIT_S:
            break
    records = plain + traced
    attempted = sum(len(r["checks"]) for r in records)
    failed = sum(1 for r in records for c in r["checks"] if not c[1])
    count_ok = all(len(r["checks"]) == INVENTORY[workload] for r in records)
    per_pass = [e2e_of(r) for r in plain]
    e2e = medians(per_pass)
    if trace:
        values = medians([layers_of(r) for r in traced])
        # Each traced pass runs right after its untraced twin, so the
        # pairwise difference cancels most of the drift in host speed.
        values["trace.overhead_s"] = statistics.median(
            t["verdict_s"] - p["verdict_s"] for p, t in zip(plain, traced)
        )
        units = layer_units()
    else:
        values, units = e2e, E2E_UNITS
    result = {
        "correct": failed == 0 and count_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    full = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(plain),
        "traced_passes": len(traced),
        "checks_total": INVENTORY[workload],
        "count_ok": count_ok,
        "env": environment(records[0]["coefficients"]),
        "end_to_end": e2e,
        "per_pass": per_pass,
        "result": result,
        "failed_checks": sorted({c[0] for r in records for c in r["checks"] if not c[1]}),
    }
    if traced:
        last = traced[-1]["trace"]
        keys = ("check_s", "check_self_s", "layers_in_checks", "spans", "aggregates")
        full["trace_detail"] = {k: last[k] for k in keys}
    return result, full


def report(full: dict) -> None:
    result = full["result"]
    print(f"env: {json.dumps(full['env'])}")
    print(
        f"workload {full['workload']}  seed {full['seed']}  passes {full['passes']}"
        f"  traced passes {full['traced_passes']}  (metrics are medians over passes)"
    )
    print(f"checks_failed {result['failed']} of checks_total {result['attempted']}"
          f"  (inventory {full['checks_total']} per pass)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    for name in full["failed_checks"]:
        print(f"FAILED: {name}")


def main(argv=None, spawn=spawn_pass) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="seed of the pointwise points (the symbolic workloads use generic points)")
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no geomcrystal sources at {PACKAGE.relative_to(ROOT)}; run from a checkout", file=sys.stderr)
        return 2
    try:
        result, full = run(args.workload, args.seed, args.seconds, bool(args.trace), spawn)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=1) + "\n")
    report(full)
    print(json.dumps(result))
    if not full["count_ok"]:
        print(f"error: a pass did not run the {full['checks_total']} checks of {args.workload}", file=sys.stderr)
        return 3
    if result["failed"]:
        print(f"error: {result['failed']} check(s) did not hold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
