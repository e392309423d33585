"""Verification suites over the computational modules.

Each suite function returns a list of :class:`VerifyReport`, one per
identity, with a counterexample payload whenever a check fails.  The
command-line front end and the acceptance tests both run these
functions, so the two surfaces cannot drift apart.

Symbolic checks are universally quantified: they run on generic points
with fresh symbols.  For the rank-3 relation checks in ratio
coordinates the generic point is pulled back through the birational
chart change (the identity in the pulled-back coordinates is equivalent
to the identity in the chart's own function field and is computable
without polynomial GCD).  Randomized checks draw from seeded generators
so every run is reproducible.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from . import charts, gyt, slgroup, ud
from .ratfun import Q, RatFun, var

DEFAULT_SEED = 31001

SUITE_NAMES = (
    "verma",
    "axioms",
    "umorphism",
    "fi-mi",
    "prop43",
    "positivity",
    "sharp-axioms",
    "ud-main",
    "all",
)

SUITE_CAPS = {
    "verma": 3,
    "prop43": 3,
    "axioms": 5,
    "umorphism": 5,
    "fi-mi": 5,
    "positivity": 5,
    "sharp-axioms": 5,
    "ud-main": 5,
}


@dataclass
class VerifyReport:
    check: str
    n: int
    holds: bool
    elapsed: float = 0.0
    counterexample: dict | None = None

    def __post_init__(self):
        if not self.holds and self.counterexample is None:
            self.counterexample = {}

    def __bool__(self) -> bool:
        return self.holds

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "n": self.n,
            "holds": self.holds,
            "elapsed": round(self.elapsed, 4),
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _timed(check: str, n: int, thunk) -> VerifyReport:
    start = time.perf_counter()
    holds, witness = thunk()
    elapsed = time.perf_counter() - start
    return VerifyReport(check, n, holds, elapsed, witness if not holds else None)


def _from_identity(n: int, thunk) -> VerifyReport:
    start = time.perf_counter()
    rep = thunk()
    elapsed = time.perf_counter() - start
    witness = None if rep.holds else {"witness": rep.witness or ""}
    return VerifyReport(rep.identity, n, rep.holds, elapsed, witness)


# ---------------------------------------------------------------------------
# rank-2 relations (Verma suite)


def _generic_ratio_point(n: int) -> charts.TorusPointB:
    if n <= 2:
        return charts.TorusPointB.symbolic(n)
    return charts.TorusPointA.symbolic(n).to_ratio()


def _ratio_relation(i: int, j: int, n: int):
    name = f"ratio-chart {slgroup.relation_kind(i, j)}(e_{i}, e_{j}) at n={n}"

    def thunk():
        q = _generic_ratio_point(n)
        lhs, rhs = slgroup.rank2_relation(i, j, lambda d, c, x: x.act(d, c), q)
        for key in charts.index_pairs(n):
            if not lhs.coords[key] == rhs.coords[key]:
                return False, {"coordinate": f"{key}"}
        return True, None

    return name, thunk


def verma_reports(n: int) -> list:
    if n < 2:
        return [VerifyReport(f"verma vacuous at n={n}", n, True)]
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(_from_identity(n, lambda i=i, j=j: slgroup.check_braid_relation(i, j, n)))
            name, thunk = _ratio_relation(i, j, n)
            out.append(_timed(name, n, thunk))
    return out


# ---------------------------------------------------------------------------
# geometric-crystal axioms on the matrix realization


def axiom_reports(n: int) -> list:
    out = []
    u = slgroup.generic_unipotent(n)
    al, c1, c2 = var("al"), var("c1"), var("c2")
    for i in range(1, n + 1):
        def unit(i=i):
            return slgroup.crystal_act(i, RatFun.const(1), u) == u, None

        def equivariance(i=i):
            lhs = slgroup.torus_weight(slgroup.crystal_act(i, al, u))
            rhs = slgroup.coroot(i, al, n) * slgroup.torus_weight(u)
            for slot, (a, b) in enumerate(zip(lhs.diag, rhs.diag)):
                if not a == b:
                    return False, {"diagonal": slot + 1}
            return True, None

        def one_parameter(i=i):
            lhs = slgroup.crystal_act(i, c2, slgroup.crystal_act(i, c1, u))
            rhs = slgroup.crystal_act(i, c1 * c2, u)
            diff = lhs.first_difference(rhs)
            return diff is None, None if diff is None else {"entry": diff[:2]}

        out.append(_timed(f"unit action e^1=id (i={i}) at n={n}", n, unit))
        out.append(_timed(f"weight equivariance (i={i}) at n={n}", n, equivariance))
        out.append(_timed(f"one-parameter law (i={i}) at n={n}", n, one_parameter))
    return out


def umorphism_reports(n: int) -> list:
    out = []
    for i in range(1, n + 1):
        out.append(_from_identity(n, lambda i=i: slgroup.check_borel_embed_equivariant(i, n)))
        out.append(_from_identity(n, lambda i=i: slgroup.check_torus_compatibility(i, n)))
    return out


# ---------------------------------------------------------------------------
# closed formulas for the minors and the subdiagonal coordinates


def minor_reports(n: int) -> list:
    coords = slgroup.symbolic_lower_coords(n)
    u = slgroup.factored_unipotent(n, coords)
    out = []
    for i in range(1, n + 1):
        def minor_formula(i=i):
            product = RatFun.const(1)
            for k in range(1, i + 1):
                for j in range(k, n - i + k + 1):
                    product = product * coords[(k, j)]
            return slgroup.corner_minor(i, u) == product, None

        def phi_formula(i=i):
            total = coords[(1, i)]
            for k in range(2, i + 1):
                total = total + coords[(k, i)]
            return slgroup.phi(i, u) == total, None

        out.append(_timed(f"corner minor product formula (i={i}) at n={n}", n, minor_formula))
        out.append(_timed(f"subdiagonal column sum (i={i}) at n={n}", n, phi_formula))
    return out


def prop43_reports(n: int) -> list:
    """Factor-chart closed form against the first-principles action
    computed through the Gauss decomposition."""
    out = []
    al = charts.crystal_parameter()
    p = charts.TorusPointA.symbolic(n)
    u = p.to_matrix()
    for i in range(1, n + 1):
        def closed_vs_gauss(i=i):
            lhs = p.act(i, al).to_matrix()
            rhs = slgroup.crystal_act_gauss(i, al, u)
            diff = lhs.first_difference(rhs)
            return diff is None, None if diff is None else {"entry": diff[:2]}

        out.append(_timed(f"chart closed form vs gauss action (i={i}) at n={n}", n, closed_vs_gauss))
    return out


# ---------------------------------------------------------------------------
# positivity of the chart data


def positivity_reports(n: int, seed: int = DEFAULT_SEED, points: int = 100) -> list:
    rng = random.Random(seed)
    al = charts.crystal_parameter()
    p = charts.TorusPointA.symbolic(n)
    q = charts.TorusPointB.symbolic(n)
    inventory = []
    for i in range(1, n + 1):
        acted = q.act(i, al)
        for key in charts.index_pairs(n):
            inventory.append((f"ratio action (i={i}) component {key}", acted.coords[key]))
        inventory.append((f"weight component (i={i})", q.weight_component(i)))
    ratio = p.to_ratio()
    back = q.to_factor()
    for key in charts.index_pairs(n):
        inventory.append((f"chart change component {key}", ratio.coords[key]))
        inventory.append((f"inverse chart change component {key}", back.coords[key]))
    out = []
    for name, value in inventory:
        def positive(value=value):
            if not value.positive_cert:
                return False, {"reason": "certificate missing"}
            names = sorted(set(value.variables))
            for _ in range(points):
                pt = {v: Q(rng.randint(1, 60), rng.randint(1, 9)) for v in names}
                if not value.eval(pt) > 0:
                    return False, {"point": {k: str(x) for k, x in pt.items()}}
            return True, None

        out.append(_timed(f"{name} at n={n}", n, positive))
    return out


# ---------------------------------------------------------------------------
# free-crystal axioms, powers, Weyl action, tableau oracle


def _sampled(n: int, rng: random.Random, cases: int, fails, top: int):
    """(holds, witness) of a property over ``cases`` seeded draws of an
    element v and a direction i in 1..top, vacuous when top < 1.
    ``fails(v, i)`` returns None, or the counterexample fields beyond the
    element and i."""
    for _ in range(cases if top >= 1 else 0):
        v = gyt.SharpElement.random(n, rng)
        i = rng.randint(1, top)
        extra = fails(v, i)
        if extra is not None:
            return False, {"element": v.to_json(), "i": i, **extra}
    return True, None


def sharp_reports(n: int, seed: int = DEFAULT_SEED, cases: int = 1000) -> list:
    rng = random.Random(seed)

    def axioms(v, i):
        up, down = gyt.etilde(i, v), gyt.ftilde(i, v)
        w_v = gyt.weight(v)
        unit = tuple(int(t == i - 1) for t in range(n))
        bad = (
            gyt.phi(i, v) != gyt.epsilon(i, v) + gyt.weight_pairing(i, v)
            or gyt.weight(up) != tuple(w + d for w, d in zip(w_v, unit))
            or gyt.weight(down) != tuple(w - d for w, d in zip(w_v, unit))
            or gyt.ftilde(i, up) != v
            or gyt.etilde(i, down) != v
        )
        return {} if bad else None

    def shifts(v, i):
        up = gyt.etilde(i, v)
        bad = gyt.epsilon(i, up) != gyt.epsilon(i, v) - 1 or gyt.phi(i, up) != gyt.phi(i, v) + 1
        return {} if bad else None

    def freeness(v, i):
        bad = gyt.etilde(i, gyt.ftilde(i, v)) != v or gyt.ftilde(i, gyt.etilde(i, v)) != v
        return {} if bad else None

    def powers(v, i):
        beta = rng.randint(0, 6)
        step = v
        for _ in range(beta):
            step = gyt.etilde(i, step)
        bad = gyt.etilde_pow(i, beta, v) != step or sum(gyt.etilde_pow_amounts(i, beta, v)) != beta
        return {} if bad else None

    return [
        _timed(f"sharp crystal axioms ({cases} random) at n={n}", n,
               lambda: _sampled(n, rng, cases, axioms, n)),
        _timed(f"sharp epsilon/phi shifts ({cases} random) at n={n}", n,
               lambda: _sampled(n, rng, cases, shifts, n)),
        _timed(f"sharp freeness ({cases} random) at n={n}", n,
               lambda: _sampled(n, rng, cases, freeness, n)),
        _timed(f"sharp power formula ({cases // 2} random) at n={n}", n,
               lambda: _sampled(n, rng, cases // 2, powers, n)),
    ]


def weyl_reports(n: int, seed: int = DEFAULT_SEED, cases: int = 1000) -> list:
    rng = random.Random(seed)

    def involution(v, i):
        return {} if gyt.stilde(i, gyt.stilde(i, v)) != v else None

    def braid(v, i):
        lhs = gyt.stilde(i, gyt.stilde(i + 1, gyt.stilde(i, v)))
        rhs = gyt.stilde(i + 1, gyt.stilde(i, gyt.stilde(i + 1, v)))
        return {} if lhs != rhs else None

    def commute(v, i):
        j = rng.randint(i + 2, n)
        bad = gyt.stilde(i, gyt.stilde(j, v)) != gyt.stilde(j, gyt.stilde(i, v))
        return {"j": j} if bad else None

    return [
        _timed(f"weyl involution ({cases} random) at n={n}", n,
               lambda: _sampled(n, rng, cases, involution, n)),
        _timed(f"weyl braid ({cases} random) at n={n}", n,
               lambda: _sampled(n, rng, cases, braid, n - 1)),
        _timed(f"weyl commutation ({cases} random) at n={n}", n,
               lambda: _sampled(n, rng, cases, commute, n - 2)),
    ]


def oracle_reports(n: int, seed: int = DEFAULT_SEED, cases: int = 500) -> list:
    rng = random.Random(seed)

    def oracle():
        done = 0
        while done < cases:
            t = gyt.Tableau.random(n, rng)
            i = rng.randint(1, n)
            beta = rng.randint(0, 4)
            word = gyt.arabic_reading(t)
            if beta > gyt.word_epsilon(i, word):
                continue
            moved = gyt.tensor_e_pow(i, beta, word)
            got = gyt.rowcounts_from_word(moved, t.shape, n)
            expected = gyt.etilde_pow(i, beta, gyt.tableau_rowcounts(t, n))
            if got != expected:
                return False, {"tableau": t.to_json(), "i": i, "beta": beta}
            done += 1
        return True, None

    return [_timed(f"tableau tensor-rule oracle ({cases} cases) at n={n}", n, oracle)]


# ---------------------------------------------------------------------------
# the tropicalization of the chart action is the free crystal


def _lattice_points(n: int, seed: int):
    """Exhaustive [-3,3] grid (chart coordinates plus the crystal
    exponent) for n <= 2; 2000 seeded points in [-5,5] beyond that."""
    m = n * (n + 1) // 2
    if n <= 2:
        return [tuple(pt) for pt in itertools.product(range(-3, 4), repeat=m + 1)]
    rng = random.Random(seed)
    return [tuple(rng.randint(-5, 5) for _ in range(m + 1)) for _ in range(2000)]


def udmain_reports(n: int, seed: int = DEFAULT_SEED) -> list:
    al = charts.crystal_parameter()
    q = charts.TorusPointB.symbolic(n)
    pairs = charts.index_pairs(n)
    avars = charts.coordinate_names(n, "A")
    order = avars + ("z",)
    coeffs = {
        (i, k): f
        for i in range(1, n + 1)
        for k, f in enumerate(charts.ratio_act_coefficients(i, q.coords, al), start=1)
    }
    exprs = {key: ud.tropicalize(f, order) for key, f in coeffs.items()}
    weights = {i: q.weight_component(i) for i in range(1, n + 1)}
    weight_exprs = {i: ud.tropicalize(f, avars) for i, f in weights.items()}
    points = _lattice_points(n, seed)
    out = []

    def action_matches(i):
        def thunk():
            columns = [exprs[(i, k)].eval_many(points) for k in range(1, i + 1)]
            for pt, trop in zip(points, zip(*columns)):
                v = ud.chart_to_sharp(n, dict(zip(pairs, pt)))
                moved = gyt.crystal_power(i, pt[-1], v)
                for k, amount in enumerate(trop, start=1):
                    if amount != v.b(k, i + 1) - moved.b(k, i + 1):
                        return False, {"point": list(pt), "i": i, "k": k}
            return True, None

        return thunk

    def weight_matches():
        apoints = [pt[:-1] for pt in points]
        columns = [weight_exprs[i].eval_many(apoints) for i in range(1, n + 1)]
        for pt, trop in zip(points, zip(*columns)):
            wt = gyt.weight(ud.chart_to_sharp(n, dict(zip(pairs, pt))))
            for i, amount in enumerate(trop, start=1):
                if amount != wt[i - 1]:
                    return False, {"point": list(pt), "i": i}
        return True, None

    def soundness():
        apoints = [pt[:-1] for pt in points]
        formulas = [(f"coeff{key}", exprs[key], f, order, points) for key, f in coeffs.items()]
        formulas += [(f"weight{i}", weight_exprs[i], f, avars, apoints) for i, f in weights.items()]
        first = None  # (point index, formula): the earliest point, then the earliest formula
        for name, expr, f, vars, pts in formulas:
            trop = expr.eval_many(pts)
            oracle = ud.degree_oracle_many(f, vars, pts)
            bad = next((j for j, (a, b) in enumerate(zip(trop, oracle)) if a != b), None)
            if bad is not None and (first is None or bad < first[0]):
                first = (bad, name)
        if first is None:
            return True, None
        return False, {"point": list(points[first[0]]), "formula": first[1]}

    for i in range(1, n + 1):
        out.append(
            _timed(
                f"tropicalized action equals crystal power (i={i}, {len(points)} points) at n={n}",
                n,
                action_matches(i),
            )
        )
    out.append(
        _timed(f"tropicalized weight equals crystal weight ({len(points)} points) at n={n}", n, weight_matches)
    )
    out.append(
        _timed(f"tropicalization soundness vs degree oracle ({len(points)} points) at n={n}", n, soundness)
    )
    return out


# ---------------------------------------------------------------------------
# suite runner


def run_suite(suite: str, n: int, seed: int = DEFAULT_SEED, cap: int | None = None) -> list:
    """Run a named suite at rank n; reports come back sorted by check name."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    if n < 1:
        raise ValueError("rank must be at least 1")
    suites = SUITE_NAMES[:-1] if suite == "all" else (suite,)
    reports = []
    for name in suites:
        limit = cap if cap is not None else SUITE_CAPS[name]
        if n > limit:
            if suite == "all":
                continue  # "all" runs whatever is feasible at this rank
            raise ValueError(
                f"suite {name!r} is capped at n={limit} (override with a higher cap)"
            )
        reports.extend(_SUITE_FUNCS[name](n, seed))
    reports.sort(key=lambda r: r.check)
    return reports


_SUITE_FUNCS = {
    "verma": lambda n, seed: verma_reports(n),
    "axioms": lambda n, seed: axiom_reports(n),
    "umorphism": lambda n, seed: umorphism_reports(n),
    "fi-mi": lambda n, seed: minor_reports(n),
    "prop43": lambda n, seed: prop43_reports(n),
    "positivity": lambda n, seed: positivity_reports(n, seed),
    "sharp-axioms": lambda n, seed: sharp_reports(n, seed)
    + weyl_reports(n, seed)
    + oracle_reports(n, seed, cases=125 if n <= 4 else 50),
    "ud-main": lambda n, seed: udmain_reports(n, seed),
}
