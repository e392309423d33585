import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomcrystal import gyt, ud, verify
from geomcrystal.charts import (
    TorusPointA,
    TorusPointB,
    coordinate_names,
    crystal_parameter,
    factor_act_coefficient,
    index_pairs,
    ratio_act_coefficient,
    ratio_act_coefficients,
)
from geomcrystal.gyt import SharpElement
from geomcrystal.gyt import sharp_pairs as sharp_index_pairs
from geomcrystal.ratfun import const, parse, var
from geomcrystal.ud import (
    NotPositive,
    TConst,
    TDiff,
    TMax,
    TropExpr,
    TSum,
    TVar,
    _scaled,
    chart_to_sharp,
    degree_oracle,
    degree_oracle_many,
    sharp_to_chart,
    tmax,
    tropicalize,
    ud_map,
)

x, y, z3 = var("x"), var("y"), var("z")


class TestTropicalize:
    def test_product(self):
        e = tropicalize(x * y)
        assert e.eval({"x": 2, "y": 3}) == 5
        assert str(e) == "(+ x y)"

    def test_table_case(self):
        e = tropicalize((x + y) / z3)
        assert str(e) == "(- (max x y) z)"
        assert e.eval((2, 0, 1)) == 1

    def test_constants_vanish(self):
        e = tropicalize(const(7) * x)
        assert e.eval({"x": 4}) == 4
        assert str(e) == "x"

    def test_certificate_required(self):
        with pytest.raises(NotPositive):
            tropicalize(x - y)

    def test_powers(self):
        e = tropicalize(x**3 / y**2)
        assert e.eval({"x": 2, "y": 5}) == -4
        e = tropicalize(x**-2)
        assert e.eval({"x": 3}) == -6

    def test_explicit_variable_order(self):
        e = tropicalize(x + y, vars=("x", "y", "z"))
        assert e.eval((7, 1, 99)) == 7
        with pytest.raises(ValueError):
            tropicalize(x + y, vars=("x",))


class TestNodes:
    def test_empty_max_is_an_error(self):
        with pytest.raises(ValueError):
            tmax([])

    def test_singleton_max_collapses(self):
        assert tmax([TVar(0)]) == TVar(0)

    def test_dimension_mismatch(self):
        e = tropicalize(x + y)
        with pytest.raises(ValueError):
            e.eval((1, 2, 3))

    def test_float_point_rejected(self):
        e = tropicalize(x + y)
        with pytest.raises(TypeError):
            e.eval({"x": 2.7, "y": 1})
        with pytest.raises(TypeError):
            e.eval((1, 2.0))


class TestDegreeOracle:
    def test_sum(self):
        assert degree_oracle(x + y, {"x": 1, "y": 1}) == 1

    def test_mixed_signs(self):
        assert degree_oracle(x + y, {"x": 3, "y": -2}) == 3

    def test_fraction(self):
        assert degree_oracle((x + y) / z3, {"x": 2, "y": 0, "z": 1}) == 1

    def test_agrees_with_tropicalization(self):
        rng = random.Random(1207)
        f = (x * y + const(2) * z3) / (x + z3) * (y + const(3))
        e = tropicalize(f)
        for _ in range(200):
            pt = {name: rng.randint(-20, 20) for name in ("x", "y", "z")}
            assert e.eval(pt) == degree_oracle(f, pt)

    def test_non_integer_exponents_rejected(self):
        for point in ({"x": 1.7, "y": True}, {"x": 1.7, "y": 1}, {"x": 1, "y": True}):
            with pytest.raises(TypeError):
                degree_oracle(x + y, point)
            with pytest.raises(TypeError):
                (x + y).subst_monomial(point)
        with pytest.raises(TypeError):
            degree_oracle_many(x + y, ("x", "y"), [(1, 1), (1, True)])

    def test_cancellation_at_the_top_degree(self):
        f = (x - y + z3) / (x + y)
        # at x = y = 1 the x and y terms of the numerator cancel at degree 1
        assert degree_oracle(f, {"x": 1, "y": 1, "z": 0}) == -1
        pts = list(itertools.product(range(-2, 3), repeat=3))
        expected = [f.subst_monomial(dict(zip("xyz", pt))).degree() for pt in pts]
        assert degree_oracle_many(f, ("x", "y", "z"), pts) == expected

    def test_collapse_to_zero(self):
        with pytest.raises(ValueError):
            degree_oracle(x - y, {"x": 2, "y": 2})
        with pytest.raises(ValueError):
            (x - y).subst_monomial({"x": 2, "y": 2}).degree()
        with pytest.raises(ZeroDivisionError):
            degree_oracle(const(1) / (x - y), {"x": 2, "y": 2})
        with pytest.raises(ZeroDivisionError):
            (const(1) / (x - y)).subst_monomial({"x": 2, "y": 2})

    def test_empty_batch(self):
        assert degree_oracle_many(x + y, ("x", "y"), []) == []


def _int_poly(terms: dict):
    """Sum of c * x^a * y^b * z^e over {(a, b, e): c}; coefficients may be
    negative, so nothing is certified."""
    total = const(0)
    for (a, b, e), c in terms.items():
        total = total + const(c) * x**a * y**b * z3**e
    return total


_int_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)), st.integers(-2, 2), max_size=4
)


def _oracle_outcome(fn):
    try:
        return fn()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


class TestBatchOracle:
    """degree_oracle_many against the univariate substitution."""

    @settings(max_examples=150, deadline=None)
    @given(_int_terms, _int_terms, st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=5))
    def test_matches_subst_monomial(self, num_terms, den_terms, pts):
        den = _int_poly(den_terms)
        assume(not den.is_zero)
        f = _int_poly(num_terms) / den
        for pt in pts:
            got = _oracle_outcome(lambda: degree_oracle_many(f, ("x", "y", "z"), [pt])[0])
            want = _oracle_outcome(lambda: f.subst_monomial(dict(zip("xyz", pt))).degree())
            assert got == want, (str(f), pt)

    def test_variables_outside_the_order_count_as_zero(self):
        f = (x * y + z3) / y
        assert degree_oracle_many(f, ("x",), [(3,), (-1,)]) == [
            degree_oracle(f, {"x": 3}),
            degree_oracle(f, {"x": -1}),
        ]


def _reference_eval(node, values):
    if isinstance(node, TVar):
        return values[node.index]
    if isinstance(node, TConst):
        return 0
    if isinstance(node, TSum):
        return sum(_reference_eval(a, values) for a in node.args)
    if isinstance(node, TDiff):
        return _reference_eval(node.pos, values) - _reference_eval(node.neg, values)
    return max(_reference_eval(a, values) for a in node.args)


_WIDTH = 3
_trees = st.recursive(
    st.one_of(st.integers(0, _WIDTH - 1).map(TVar), st.just(TConst())),
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=4).map(lambda a: TSum(tuple(a))),
        st.lists(kids, min_size=2, max_size=4).map(lambda a: TMax(tuple(a))),
        st.tuples(kids, kids).map(lambda a: TDiff(*a)),
        st.tuples(kids, st.integers(-3, 3)).map(lambda a: _scaled(*a)),
        kids.map(lambda a: TMax((TDiff(a, TConst()), TSum((a, a))))),  # one subtree object, reused
    ),
    max_leaves=12,
)


class TestBatchEval:
    """TropExpr.eval_many against a per-point recursive evaluator."""

    @settings(max_examples=200, deadline=None)
    @given(_trees, st.lists(st.tuples(*[st.integers(-50, 50)] * _WIDTH), max_size=6))
    def test_matches_reference(self, root, pts):
        e = TropExpr(("a", "b", "c"), root)
        expected = [_reference_eval(root, pt) for pt in pts]
        assert e.eval_many(pts) == expected
        assert e.eval_many([dict(zip(e.vars, pt)) for pt in pts]) == expected
        assert [e.eval(pt) for pt in pts] == expected

    def test_empty_batch(self):
        assert tropicalize(x + y).eval_many([]) == []
        assert TropExpr((), TConst()).eval_many([]) == []
        assert TropExpr((), TConst()).eval_many([(), ()]) == [0, 0]

    @pytest.mark.parametrize(
        "bad, error",
        [((1, True), TypeError), ((1, 2.0), TypeError), ((1, 2, 3), ValueError), ({"x": 1, "y": 2.5}, TypeError)],
    )
    def test_bad_point_in_a_batch(self, bad, error):
        e = tropicalize(x + y)
        with pytest.raises(error) as single:
            e.eval(bad)
        with pytest.raises(error) as batch:
            e.eval_many([(0, 0), bad, (1, 1)])
        assert str(batch.value) == str(single.value)


def _chart_formula_inventory(n):
    """Certified formulas produced by the charts at rank n."""
    al = crystal_parameter()
    p = TorusPointA.symbolic(n)
    q = TorusPointB.symbolic(n)
    out = []
    for i in range(1, n + 1):
        for k in range(1, i + 1):
            out.append((f"ratio-coeff({i},{k})", ratio_act_coefficient(i, k, q.coords, al)))
            out.append((f"factor-coeff({i},{k})", factor_act_coefficient(i, k, p.coords, al)))
        out.append((f"weight({i})", q.weight_component(i)))
    for key, value in p.to_ratio().coords.items():
        out.append((f"chart-change{key}", value))
    for key, value in q.to_factor().coords.items():
        out.append((f"chart-change-back{key}", value))
    return out


class TestSoundness:
    """trop_eval == degree_oracle on grids and random points."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chart_formulas(self, n):
        rng = random.Random(8800 + n)
        for name, f in _chart_formula_inventory(n):
            assert f.positive_cert, name
            e = tropicalize(f)
            m = len(e.vars)
            grid = itertools.product(range(-3, 4), repeat=m)
            if 7**m > 2500:
                pts = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(2500)]
            else:
                pts = list(grid)
            pts += [tuple(rng.randint(-20, 20) for _ in range(m)) for _ in range(200)]
            for pt in pts:
                point = dict(zip(e.vars, pt))
                assert e.eval(point) == degree_oracle(f, point), (name, point)

    def test_semiring_homomorphism(self):
        rng = random.Random(515)
        f = (x + y) / z3
        g = x * z3 + const(2) * y
        ef, eg = tropicalize(f), tropicalize(g)
        cases = {
            "prod": (f * g, lambda a, b: a + b),
            "sum": (f + g, max),
            "quot": (f / g, lambda a, b: a - b),
        }
        for name, (h, combine) in cases.items():
            eh = tropicalize(h)
            for _ in range(200):
                pt = {v: rng.randint(-10, 10) for v in ("x", "y", "z")}
                assert eh.eval(pt) == combine(ef.eval(pt), eg.eval(pt)), name


class TestFunctoriality:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chart_change_round_trip(self, n):
        rng = random.Random(606 + n)
        p = TorusPointA.symbolic(n)
        order = tuple(f"a[{k},{j}]" for (k, j) in index_pairs(n))
        forward = ud_map(
            [(f"{k},{j}", p.to_ratio().coords[(k, j)]) for (k, j) in index_pairs(n)],
            vars=order,
        )
        q = TorusPointB.symbolic(n)
        border = tuple(f"A[{k},{j}]" for (k, j) in index_pairs(n))
        backward = ud_map(
            [(f"{k},{j}", q.to_factor().coords[(k, j)]) for (k, j) in index_pairs(n)],
            vars=border,
        )
        for _ in range(150):
            pt = tuple(rng.randint(-8, 8) for _ in index_pairs(n))
            assert backward.eval(forward.eval(pt)) == pt

    def test_identity_map(self):
        m = ud_map([("x", x), ("y", y)], vars=("x", "y"))
        assert m.eval((4, -7)) == (4, -7)

    def test_weight_map_is_linear_sum(self):
        n = 2
        q = TorusPointB.symbolic(n)
        m = ud_map([(f"w{i}", q.weight_component(i)) for i in (1, 2)])
        # at the hand point B12=2, B13=1, B23=3 under the index shift
        point = {"A[1,1]": 2, "A[1,2]": 1, "A[2,2]": 3}
        assert m.eval(point) == (-3, -4)


class TestChartSharpIdentification:
    def test_shift(self):
        v = chart_to_sharp(1, {(1, 1): 5})
        assert v.b(1, 2) == 5

    def test_rank_two(self):
        v = chart_to_sharp(2, {(1, 1): 2, (1, 2): 1, (2, 2): 3})
        assert (v.b(1, 2), v.b(1, 3), v.b(2, 3)) == (2, 1, 3)

    def test_round_trip(self):
        v = SharpElement(3, {key: i for i, key in enumerate(sharp_index_pairs(3))})
        assert chart_to_sharp(3, sharp_to_chart(v)) == v

    def test_range_check(self):
        with pytest.raises(ValueError):
            chart_to_sharp(1, {(1, 2): 3})

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            chart_to_sharp(1, {(1, 1): 1.5})


class TestSerialization:
    def test_map_json(self):
        q = TorusPointB.symbolic(1)
        m = ud_map([("w1", q.weight_component(1))])
        data = m.to_json()
        assert data["vars"] == ["A[1,1]"]
        assert data["components"]["w1"] == "(- 0 A[1,1])"

    def test_parse_then_tropicalize(self):
        f = parse("(x + 2*y) / (x*y)")
        e = tropicalize(f)
        assert e.eval({"x": 3, "y": 1}) == -1


def _udmain_formulas(n):
    """(name, value, variable order) of every ud-main formula, in the order
    the soundness check reports them: coefficients, then weights."""
    al = crystal_parameter()
    q = TorusPointB.symbolic(n)
    avars = coordinate_names(n, "A")
    order = avars + ("z",)
    out = [
        (f"coeff{(i, k)}", f, order)
        for i in range(1, n + 1)
        for k, f in enumerate(ratio_act_coefficients(i, q.coords, al), start=1)
    ]
    out += [(f"weight{i}", q.weight_component(i), avars) for i in range(1, n + 1)]
    return out


def _raised(j):
    return lambda root: TMax((root, TVar(j)))


def _shifted(j):
    return lambda root: TSum((root, TVar(j)))


class TestUdMainLattice:
    def test_batch_oracle_matches_subst_monomial(self):
        points = verify._lattice_points(3, verify.DEFAULT_SEED)
        for name, f, vars in _udmain_formulas(3):
            pts = [pt[: len(vars)] for pt in points]
            expected = [f.subst_monomial(dict(zip(vars, pt))).degree() for pt in pts]
            assert degree_oracle_many(f, vars, pts) == expected, name

    def test_exhaustive_unit_grid(self):
        """Soundness on all 3^7 points of [-1,1]^7 at n=3: every sign pattern."""
        grid = list(itertools.product(range(-1, 2), repeat=7))
        for name, f, vars in _udmain_formulas(3):
            pts = [pt[: len(vars)] for pt in grid]
            assert tropicalize(f, vars).eval_many(pts) == degree_oracle_many(f, vars, pts), name

    @pytest.mark.parametrize(
        "faults",
        [
            {"coeff(2, 2)": _raised(6)},
            {"coeff(3, 1)": _raised(0), "weight1": _raised(2)},
            # wrong wherever the variable is nonzero: both fail at the first point
            {"coeff(1, 1)": _shifted(5), "coeff(3, 3)": _raised(6), "weight3": _shifted(4)},
            {"coeff(2, 1)": _raised(6), "weight2": _shifted(0)},
        ],
    )
    def test_counterexample_is_the_first_point_then_the_first_formula(self, monkeypatch, faults):
        n = 3
        formulas = _udmain_formulas(n)
        names = {(str(f), vars): name for name, f, vars in formulas}
        assert len(names) == len(formulas)
        exprs = {}
        real = ud.tropicalize

        def faulty(f, vars):
            e = real(f, vars)
            name = names[(str(f), tuple(vars))]
            if name in faults:
                e.root = faults[name](e.root)
            exprs[name] = e
            return e

        monkeypatch.setattr(ud, "tropicalize", faulty)
        reports = verify.udmain_reports(n)
        points = verify._lattice_points(n, verify.DEFAULT_SEED)
        pairs = index_pairs(n)

        def first_unsound():
            for pt in points:
                for name, f, vars in formulas:
                    val = pt[: len(vars)]
                    if exprs[name].eval(val) != degree_oracle(f, dict(zip(vars, val))):
                        return {"point": list(pt), "formula": name}

        def first_action_mismatch(i):
            for pt in points:
                v = chart_to_sharp(n, dict(zip(pairs, pt)))
                moved = gyt.crystal_power(i, pt[-1], v)
                for k in range(1, i + 1):
                    if exprs[f"coeff{(i, k)}"].eval(pt) != v.b(k, i + 1) - moved.b(k, i + 1):
                        return {"point": list(pt), "i": i, "k": k}

        def first_weight_mismatch():
            for pt in points:
                wt = gyt.weight(chart_to_sharp(n, dict(zip(pairs, pt))))
                for i in range(1, n + 1):
                    if exprs[f"weight{i}"].eval(pt[:-1]) != wt[i - 1]:
                        return {"point": list(pt), "i": i}

        expected = [first_action_mismatch(i) for i in range(1, n + 1)]
        expected += [first_weight_mismatch(), first_unsound()]
        assert expected[-1] is not None
        for report, witness in zip(reports, expected):
            assert report.holds is (witness is None), report.check
            assert report.counterexample == witness, report.check
