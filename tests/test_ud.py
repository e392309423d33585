import itertools
import random

import pytest

from geomcrystal.charts import (
    TorusPointA,
    TorusPointB,
    crystal_parameter,
    factor_act_coefficient,
    index_pairs,
    ratio_act_coefficient,
)
from geomcrystal.gyt import SharpElement
from geomcrystal.gyt import sharp_pairs as sharp_index_pairs
from geomcrystal.ratfun import const, parse, var
from geomcrystal.ud import (
    NotPositive,
    chart_to_sharp,
    degree_oracle,
    sharp_to_chart,
    tmax,
    tropicalize,
    ud_map,
    TVar,
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
