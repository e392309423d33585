"""Verification suites over the computational modules.

Each suite function returns a list of :class:`VerifyReport`, one per
identity, with a counterexample payload whenever a check fails.  The
command-line front end and the acceptance tests both run these
functions, so the two surfaces cannot drift apart.

Symbolic checks are universally quantified: they run on generic points
with fresh symbols.  For the relation checks in ratio coordinates
the generic point is pulled back through the birational
chart change (the identity in the pulled-back coordinates is equivalent
to the identity in the chart's own function field).  The arithmetic
operators cancel polynomial gcds as they go, so both sides of a check,
in matrix form or in either chart, stay in lowest terms and small; the
comparison is still extensional, so a gcd the heuristic misses costs
time, never a verdict.  Randomized checks draw from seeded generators so
every run is reproducible.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from . import charts, gyt, slgroup, ud
from .ratfun import Q, RatFun, as_rank, randint_rounds, var

DEFAULT_SEED = 31001
POSITIVITY_POINTS = 100  # seeded evaluation points per positivity check
SHARP_CASES = 1000  # seeded draws per free-crystal and Weyl check

SUITE_CAPS = {
    "verma": 6,
    "prop43": 8,
    "axioms": 8,
    "umorphism": 8,
    "fi-mi": 8,
    "positivity": 7,
    "sharp-axioms": 8,
    "ud-main": 8,
}


@dataclass
class VerifyReport:
    check: str
    n: int
    holds: bool
    elapsed: float = 0.0
    counterexample: dict | None = None

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
    """Time ``thunk``, which returns None when the check holds and else
    a witness dict that says where it fails."""
    start = time.perf_counter()
    witness = thunk()
    elapsed = time.perf_counter() - start
    return VerifyReport(check, n, witness is None, elapsed, witness)


def _from_identity(n: int, thunk) -> VerifyReport:
    start = time.perf_counter()
    rep = thunk()
    elapsed = time.perf_counter() - start
    return VerifyReport(rep.identity, n, rep.holds, elapsed, rep.witness)


# ---------------------------------------------------------------------------
# rank-2 relations (Verma suite)


def _ratio_relation(i: int, j: int, n: int):
    name = f"ratio-chart {slgroup.relation_kind(i, j)}(e_{i}, e_{j}) at n={n}"

    def thunk():
        q = charts.TorusPointA.symbolic(n).to_ratio()
        lhs, rhs = slgroup.rank2_relation(i, j, lambda d, c, x: x.act(d, c), q)
        return lhs.first_difference(rhs)

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
            return slgroup.crystal_act(i, RatFun.const(1), u).first_difference(u)

        def equivariance(i=i):
            lhs = slgroup.torus_weight(slgroup.crystal_act(i, al, u))
            return lhs.first_difference(slgroup.coroot(i, al, n) * slgroup.torus_weight(u))

        def one_parameter(i=i):
            lhs = slgroup.crystal_act(i, c2, slgroup.crystal_act(i, c1, u))
            return lhs.first_difference(slgroup.crystal_act(i, c1 * c2, u))

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
            return None if slgroup.corner_minor(i, u) == product else {}

        def phi_formula(i=i):
            total = coords[(1, i)]
            for k in range(2, i + 1):
                total = total + coords[(k, i)]
            return None if slgroup.phi(i, u) == total else {}

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
            return p.act(i, al).to_matrix().first_difference(slgroup.crystal_act_gauss(i, al, u))

        out.append(_timed(f"chart closed form vs gauss action (i={i}) at n={n}", n, closed_vs_gauss))
    return out


# ---------------------------------------------------------------------------
# positivity of the chart data


def positivity_reports(n: int, seed: int = DEFAULT_SEED) -> list:
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
                return {"reason": "certificate missing"}
            names = sorted(set(value.variables))

            def draw(count):
                rows = randint_rounds(rng, ((1, 60), (1, 9)) * len(names), count)
                return [dict(zip(names, map(Q, row[::2], row[1::2]))) for row in rows]

            state = rng.getstate()
            for j, got in enumerate(value.eval_many(draw(POSITIVITY_POINTS))):
                if not got > 0:
                    # leave the generator where a point-by-point loop stops
                    rng.setstate(state)
                    pt = draw(j + 1)[j]
                    return {"point": {k: str(x) for k, x in pt.items()}}
            return None

        out.append(_timed(f"{name} at n={n}", n, positive))
    return out


# ---------------------------------------------------------------------------
# free-crystal axioms, powers, Weyl action, tableau oracle


def _sampled(n: int, rng: random.Random, cases: int, fails, top: int):
    """The witness of a property over ``cases`` seeded draws of an
    element v and a direction i in 1..top, vacuous when top < 1.
    ``fails(v, i)`` returns None, or the counterexample fields beyond the
    element and i."""
    for _ in range(cases if top >= 1 else 0):
        v, (i,) = gyt.SharpElement.random_with(n, rng, ((1, top),))
        extra = fails(v, i)
        if extra is not None:
            return {"element": v.to_json(), "i": i, **extra}
    return None


def sharp_reports(n: int, seed: int = DEFAULT_SEED) -> list:
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
        amounts = gyt.two_max_amounts(beta, gyt.bvals(i, v))
        bad = gyt.crystal_power(i, beta, v) != step or sum(amounts) != beta
        return {} if bad else None

    return [
        _timed(f"sharp crystal axioms ({SHARP_CASES} random) at n={n}", n,
               lambda: _sampled(n, rng, SHARP_CASES, axioms, n)),
        _timed(f"sharp epsilon/phi shifts ({SHARP_CASES} random) at n={n}", n,
               lambda: _sampled(n, rng, SHARP_CASES, shifts, n)),
        _timed(f"sharp freeness ({SHARP_CASES} random) at n={n}", n,
               lambda: _sampled(n, rng, SHARP_CASES, freeness, n)),
        _timed(f"sharp power formula ({SHARP_CASES // 2} random) at n={n}", n,
               lambda: _sampled(n, rng, SHARP_CASES // 2, powers, n)),
    ]


def weyl_reports(n: int, seed: int = DEFAULT_SEED) -> list:
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
        _timed(f"weyl involution ({SHARP_CASES} random) at n={n}", n,
               lambda: _sampled(n, rng, SHARP_CASES, involution, n)),
        _timed(f"weyl braid ({SHARP_CASES} random) at n={n}", n,
               lambda: _sampled(n, rng, SHARP_CASES, braid, n - 1)),
        _timed(f"weyl commutation ({SHARP_CASES} random) at n={n}", n,
               lambda: _sampled(n, rng, SHARP_CASES, commute, n - 2)),
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
            expected = gyt.crystal_power(i, beta, gyt.tableau_rowcounts(t, n))
            if got != expected:
                return {"tableau": t.to_json(), "i": i, "beta": beta}
            done += 1
        return None

    return [_timed(f"tableau tensor-rule oracle ({cases} cases) at n={n}", n, oracle)]


# ---------------------------------------------------------------------------
# the tropicalization of the chart action is the free crystal


def _lattice_points(n: int, seed: int):
    """Exhaustive [-3,3] grid (chart coordinates plus the crystal
    exponent) for n <= 2; 2000 seeded points in [-5,5] beyond that."""
    m = n * (n + 1) // 2
    if n <= 2:
        return [tuple(pt) for pt in itertools.product(range(-3, 4), repeat=m + 1)]
    return randint_rounds(random.Random(seed), ((-5, 5),) * (m + 1), 2000)


def _first_mismatch(got: tuple, expected: tuple) -> int:
    """1-based position of the first entry where two tuples differ."""
    return next(t for t, (a, b) in enumerate(zip(got, expected), start=1) if a != b)


def udmain_reports(n: int, seed: int = DEFAULT_SEED) -> list:
    """The main theorem at rank n on lattice points: the tropicalized
    ratio-chart action is the crystal action on the free crystal (one check
    per direction i), the tropicalized weight is the crystal weight, and
    every tropical formula agrees with the degree oracle (soundness).

    All formulas (coefficients over ``avars + ("z",)``, weights over
    ``avars``) are evaluated over the lattice points in one batch per side:
    one walk of all the certificates (:func:`ud.eval_columns`) and one
    oracle call (:func:`ud.degree_columns`).  Each side is computed by the
    first check that needs it, so the first ud-main check's ``elapsed``
    (direction i=1) carries the shared tropical evaluation, and the
    soundness check's carries the oracle."""
    al = charts.crystal_parameter()
    q = charts.TorusPointB.symbolic(n)
    avars = charts.coordinate_names(n, "A")
    order = avars + ("z",)
    coeffs = {
        (i, k): f
        for i in range(1, n + 1)
        for k, f in enumerate(charts.ratio_act_coefficients(i, q.coords, al), start=1)
    }
    weights = {i: q.weight_component(i) for i in range(1, n + 1)}
    formulas = [(f"coeff{key}", f, ud.tropicalize(f, order)) for key, f in coeffs.items()]
    formulas += [(f"weight{i}", f, ud.tropicalize(f, avars)) for i, f in weights.items()]
    points = _lattice_points(n, seed)
    trop_columns = {}
    out = []

    def trop(name):
        """The tropical column of one formula; the first call evaluates them all."""
        if not trop_columns:
            columns = ud.eval_columns([e for _, _, e in formulas], order, points)
            trop_columns.update(zip((name for name, _, _ in formulas), columns))
        return trop_columns[name]

    def action_matches(i):
        def thunk():
            columns = [trop(f"coeff{(i, k)}") for k in range(1, i + 1)]
            for pt, trop_amounts in zip(points, zip(*columns)):
                amounts = gyt.two_max_amounts(pt[-1], gyt.bvals(i, ud.point_to_sharp(n, pt)))
                if trop_amounts != amounts:
                    return {"point": list(pt), "i": i, "k": _first_mismatch(trop_amounts, amounts)}
            return None

        return thunk

    def weight_matches():
        columns = [trop(f"weight{i}") for i in range(1, n + 1)]
        for pt, trop_wt in zip(points, zip(*columns)):
            wt = gyt.weight(ud.point_to_sharp(n, pt))
            if trop_wt != wt:
                return {"point": list(pt), "i": _first_mismatch(trop_wt, wt)}
        return None

    def soundness():
        oracle = ud.degree_columns([f for _, f, _ in formulas], order, points)
        first = None  # (point index, formula): the earliest point, then the earliest formula
        for (name, _, _), want in zip(formulas, oracle):
            got = trop(name)
            if got == want:
                continue
            bad = next(j for j, (a, b) in enumerate(zip(got, want)) if a != b)
            if first is None or bad < first[0]:
                first = (bad, name)
        return None if first is None else {"point": list(points[first[0]]), "formula": first[1]}

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
    n = as_rank(n)
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
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
    if not reports:
        raise ValueError(
            f"every suite is capped below n={n}, so 'all' runs no check "
            "(override with a higher cap)"
        )
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
SUITE_NAMES = (*_SUITE_FUNCS, "all")
