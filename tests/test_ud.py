import itertools
import operator
import random
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomcrystal import gyt, ratfun, ud, verify
from geomcrystal.charts import (
    TorusPointA,
    TorusPointB,
    coordinate_names,
    crystal_parameter,
    factor_act_coefficients,
    index_pairs,
    ratio_act_coefficient,
    ratio_act_coefficients,
)
from geomcrystal.gyt import SharpElement
from geomcrystal.gyt import sharp_pairs as sharp_index_pairs
from geomcrystal.ratfun import CAdd, CConst, CDiv, CMul, CPow, CVar, const, parse, var
from geomcrystal.ud import (
    NotPositive,
    TropExpr,
    chart_to_sharp,
    degree_oracle,
    degree_oracle_many,
    tropicalize,
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

    def test_power_forms(self):
        """A power prints as a multiple, a product drops its constants, and a
        product of constants alone prints as 0."""
        assert str(tropicalize(x**3 / y**2)) == "(- (* 3 x) (* 2 y))"
        assert str(tropicalize(x**-2)) == "(* -2 x)"
        e = tropicalize(const(2) * const(3))
        assert e.cert == CMul((CConst(Fraction(2)), CConst(Fraction(3))))
        assert str(e) == "0"
        assert e.eval(()) == 0
        assert str(tropicalize(x / const(5) * (const(2) * y**2))) == "(+ x (* 2 y))"

    def test_explicit_variable_order(self):
        e = tropicalize(x + y, vars=("x", "y", "z"))
        assert e.eval((7, 1, 99)) == 7
        with pytest.raises(ValueError):
            tropicalize(x + y, vars=("x",))


class TestNodes:
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


class TestCertificateWalk:
    """The max-plus reading visits each distinct node once, without recursion."""

    def test_deep_quotient_chain(self):
        f = x + y
        for _ in range(3000):
            f = f / x
        e = tropicalize(f)
        assert e.eval({"x": 2, "y": 5}) == degree_oracle(f, {"x": 2, "y": 5}) == -5995
        assert e.eval_many([(2, 5), (0, 3)]) == [-5995, 3]
        assert str(e) == "(- " * 3000 + "(max x y)" + " x)" * 3000

    def test_shared_dag_grows_linearly(self):
        """Each round reads g twice, so a tree walk would double per round;
        the walk adds the round's five new nodes."""
        g = x
        for k in range(1, 61):
            g = (g * x + g * y) / (x + y)
            assert len(ratfun.cert_nodes([g.cert])) == 5 * k + 2
        e = tropicalize(g)
        assert e.vars == ("x", "y")
        for point in ({"x": 3, "y": -4}, {"x": -2, "y": 7}):
            assert e.eval(point) == degree_oracle(g, point)

    def test_deep_certificate_over_a_batch(self):
        """100,000 nested quotients, each column read once, evaluate over a
        batch without recursing once per level."""
        leaf = CVar("x")
        node = CAdd((leaf, CVar("y")))
        for _ in range(100_000):
            node = CDiv(node, leaf)
        assert TropExpr(("x", "y"), node).eval_many([(1, 2), (0, 3)]) == [-99_998, 3]

    def test_wide_product_over_a_batch(self):
        """A product of 100,000 factors adds its columns without nesting one
        iterator per factor."""
        node = CMul(tuple(CVar("x" if k % 2 else "y") for k in range(100_000)))
        assert TropExpr(("x", "y"), node).eval_many([(1, 2), (0, -3)]) == [150_000, -150_000]

    def test_cert_is_read_only(self):
        e = tropicalize(x + y)
        with pytest.raises(AttributeError):
            e.cert = CVar("x")
        assert str(e) == "(max x y)"


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


_KEYS = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
_TERMS = {
    # every coefficient positive: the column-max path
    "positive": st.dictionaries(_KEYS, st.integers(1, 3), min_size=1, max_size=4),
    # at least one negative coefficient: the per-point collapse
    "mixed": st.dictionaries(_KEYS, st.integers(-2, 2).filter(bool), min_size=2, max_size=4).filter(
        lambda d: min(d.values()) < 0 < max(d.values())
    ),
    "constant": st.dictionaries(st.just((0, 0, 0)), st.integers(-3, 3), max_size=1),
}
_ORDERS = [("x", "y", "z"), ("z", "x"), ()]


def _subst_outcomes(f, vars, pts):
    """(degrees, error): the degree at each point by monomial substitution
    up to the first point that raises, and that point's exception type
    (None when no point raises)."""
    out = []
    for pt in pts:
        got = _oracle_outcome(lambda: f.subst_monomial(dict(zip(vars, pt))).degree())
        if isinstance(got, type):
            return out, got
        out.append(got)
    return out, None


class TestColumnarOracle:
    """degree_oracle_many over whole batches against subst_monomial, on
    each kind of num and den."""

    @pytest.mark.parametrize("den_kind", sorted(_TERMS))
    @pytest.mark.parametrize("num_kind", sorted(_TERMS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batch_matches_subst_monomial(self, num_kind, den_kind, data):
        den = _int_poly(data.draw(_TERMS[den_kind]))
        assume(not den.is_zero)
        f = _int_poly(data.draw(_TERMS[num_kind])) / den
        vars = data.draw(st.sampled_from(_ORDERS))
        pts = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(vars)), max_size=8))
        degrees, error = _subst_outcomes(f, vars, pts)
        for batch in (pts, [dict(zip(vars, pt)) for pt in pts]):
            if error is None:
                assert degree_oracle_many(f, vars, batch) == degrees, (str(f), vars)
            else:
                with pytest.raises(error):
                    degree_oracle_many(f, vars, batch)

    def test_positive_path_is_the_column_max(self):
        f = (x**2 * y + const(3) * z3 + x) / (y + const(2))
        assert f.num.all_positive() and f.den.all_positive()
        pts = list(itertools.product(range(-3, 4), repeat=3))
        expected = [f.subst_monomial(dict(zip("xyz", pt))).degree() for pt in pts]
        assert degree_oracle_many(f, ("x", "y", "z"), pts) == expected

    def test_empty_batches(self):
        for f in (x + y, x - y, const(5), const(0)):
            assert degree_oracle_many(f, ("x", "y"), []) == []
            assert degree_oracle_many(f, (), iter([])) == []

    def test_no_variables(self):
        assert degree_oracle_many((x + y) / (z3 + const(1)), (), [(), ()]) == [0, 0]
        with pytest.raises(ValueError):
            degree_oracle_many(const(0), (), [()])

    def test_mapping_points(self):
        f = (x - y + z3) / (x + y)
        pts = list(itertools.product(range(-2, 3), repeat=3))
        maps = [{"z": c, "y": b, "x": a, "w": 9} for a, b, c in pts]  # any key order; extra keys ignored
        assert degree_oracle_many(f, ("x", "y", "z"), maps) == degree_oracle_many(f, ("x", "y", "z"), pts)
        mixed = [pts[0], maps[1], list(pts[2])]
        assert degree_oracle_many(f, ("x", "y", "z"), mixed) == degree_oracle_many(f, ("x", "y", "z"), pts[:3])
        with pytest.raises(ValueError):
            degree_oracle_many(f, ("x", "y", "z"), [maps[0], {"x": 1, "y": 2}])

    @pytest.mark.parametrize(
        "batch, error, at",
        [
            # num (x - y) collapses where x == y, den (x - z) where x == z
            ([(0, 1, 2), (1, 1, 2), (1, True, 0)], ValueError, 1),
            ([(0, 1, 2), (1, 2, True), (1, 1, 2)], TypeError, 1),
            ([(0, 1, 2), (2, 0, 2), (1, 2.0, 0)], ZeroDivisionError, 1),
            ([(0, 1, 2), (1, 2), (2, 2, 0)], ValueError, 1),
            ([(0, 1, 2), (2, 2, 0), (1, 2)], ValueError, 1),
            ([(0, 1, 2), {"x": 1, "y": 2}, (1, 1, 1)], ValueError, 1),
            ([(1, 1, 1), (0, 1, 2)], ZeroDivisionError, 0),
            ([(2, 0, 2), (1, 1, 0)], ZeroDivisionError, 0),
            ([(1, 1, 0), (2, 0, 2)], ValueError, 0),
            ([(1, 1, 0), (1, 2, 2.5)], ValueError, 0),
            ([(1, 2, 2.5), (1, 1, 0)], TypeError, 0),
            ([(0, 1, 2), (0, 1, 2, 3)], ValueError, 1),
            ([(0, 1, 2), 7], TypeError, 1),
        ],
    )
    def test_first_faulty_point_decides(self, batch, error, at):
        """A faulty batch raises what its first faulty point raises alone:
        at one point, a coercion error, then the denominator's collapse,
        then the numerator's."""
        f = (x - y) / (x - z3)
        vars = ("x", "y", "z")
        with pytest.raises(error) as single:
            degree_oracle_many(f, vars, [batch[at]])
        with pytest.raises(error) as whole:
            degree_oracle_many(f, vars, batch)
        assert str(whole.value) == str(single.value)
        assert degree_oracle_many(f, vars, batch[:at]) == [
            f.subst_monomial(dict(zip(vars, pt))).degree() for pt in batch[:at]
        ]


_POOL = (
    x + y,
    (x - y) / z3,  # num collapses where x == y
    z3 / (x - y),  # den collapses where x == y
    (x - y) / (z3 - x * y),  # both where x == y and z == x + y
    (const(2) * x * y - y**2 + x) / (x * y + const(1)),  # never collapses
    y / (x - z3),  # den collapses where x == z
)


def _raised_by(fn):
    try:
        return fn()
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return (type(exc), str(exc))


class TestBatchedOracle:
    """ud.degree_columns: one oracle batch over many formulas."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=5),
        st.lists(
            st.one_of(st.tuples(*[st.integers(-2, 2)] * 3), st.just((1, 2.5, 0)), st.just({"x": 1, "y": 1})),
            max_size=6,
        ),
    )
    def test_the_first_formula_that_raises_decides(self, picks, pts):
        """The batch gives each formula's column, or raises what the first
        formula in order raises alone."""
        formulas = [_POOL[j] for j in picks]
        vars = ("x", "y", "z")
        alone = [_raised_by(lambda: degree_oracle_many(f, vars, pts)) for f in formulas]
        errors = [out for out in alone if isinstance(out, tuple)]
        assert _raised_by(lambda: ud.degree_columns(formulas, vars, pts)) == (errors[0] if errors else alone)

    @pytest.mark.parametrize(
        "picks, error",
        [
            ((0, 1, 2), ValueError),  # num (x - y) / z comes first
            ((0, 2, 1), ZeroDivisionError),  # den z / (x - y) comes first
            ((3,), ZeroDivisionError),  # both collapse at (1, 1, 2): den first
            ((4, 3, 1), ZeroDivisionError),
        ],
    )
    def test_error_order(self, picks, error):
        pts = [(0, 1, 0), (1, 1, 2)]
        with pytest.raises(error):
            ud.degree_columns([_POOL[j] for j in picks], ("x", "y", "z"), pts)

    def test_a_later_formula_faulty_earlier_does_not_decide(self):
        # y / (x - z) collapses at the first point, (x - y) / z only at the
        # second; the first formula in order decides
        pts = [(1, 0, 1), (2, 2, 0)]
        num_bad, den_bad = _POOL[1], _POOL[5]
        with pytest.raises(ZeroDivisionError):
            ud.degree_columns([den_bad, num_bad], ("x", "y", "z"), pts)
        with pytest.raises(ValueError):
            ud.degree_columns([num_bad, den_bad], ("x", "y", "z"), pts)
        assert degree_oracle_many(num_bad, ("x", "y", "z"), pts[:1]) == [0]  # (x - y) / z at (1, 0, 1)

    def test_one_column_per_formula(self):
        pts = [(1, 2, 3), (-1, 0, 2)]
        assert ud.degree_columns([], ("x", "y", "z"), pts) == []
        assert ud.degree_columns(_POOL[:1] * 2, ("x", "y", "z"), []) == [[], []]
        assert ud.degree_columns([_POOL[0], _POOL[4], _POOL[0]], ("x", "y", "z"), pts) == [
            degree_oracle_many(f, ("x", "y", "z"), pts) for f in (_POOL[0], _POOL[4], _POOL[0])
        ]


def _reference_eval(node, values):
    """The max-plus value of a certificate at {name: int}, node by node."""
    if isinstance(node, CVar):
        return values[node.name]
    if isinstance(node, CConst):
        return 0
    if isinstance(node, CMul):
        return sum(_reference_eval(a, values) for a in node.args)
    if isinstance(node, CDiv):
        return _reference_eval(node.num, values) - _reference_eval(node.den, values)
    if isinstance(node, CPow):
        return node.exponent * _reference_eval(node.base, values)
    return max(_reference_eval(a, values) for a in node.args)


_NAMES = ("a", "b", "c")
_trees = st.recursive(
    st.one_of(st.sampled_from(_NAMES).map(CVar), st.just(CConst(Fraction(3, 2)))),
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=4).map(lambda a: CMul(tuple(a))),
        st.lists(kids, min_size=2, max_size=4).map(lambda a: CAdd(tuple(a))),
        st.tuples(kids, kids).map(lambda a: CDiv(*a)),
        st.tuples(kids, st.integers(-3, 3)).map(lambda a: CPow(*a)),
        kids.map(lambda a: CAdd((CDiv(a, CConst(2)), CMul((a, a))))),  # one subtree object, reused
    ),
    max_leaves=12,
)


class TestBatchEval:
    """TropExpr.eval_many against a per-point recursive evaluator."""

    @settings(max_examples=200, deadline=None)
    @given(_trees, st.lists(st.tuples(*[st.integers(-50, 50)] * len(_NAMES)), max_size=6))
    def test_matches_reference(self, cert, pts):
        e = TropExpr(_NAMES, cert)
        expected = [_reference_eval(cert, dict(zip(_NAMES, pt))) for pt in pts]
        assert e.eval_many(pts) == expected
        assert e.eval_many([dict(zip(e.vars, pt)) for pt in pts]) == expected
        assert [e.eval(pt) for pt in pts] == expected

    def test_empty_batch(self):
        assert tropicalize(x + y).eval_many([]) == []
        assert TropExpr((), CConst(1)).eval_many([]) == []
        assert TropExpr((), CConst(1)).eval_many([(), ()]) == [0, 0]

    @pytest.mark.parametrize(
        "bad, error",
        [
            ((1, True), TypeError), ((1, 2.0), TypeError), ((1, 2, 3), ValueError), ({"x": 1, "y": 2.5}, TypeError),
            ((4, -7, 99), ValueError), ((4,), ValueError), ({"x": 1}, ValueError),
        ],
    )
    def test_bad_point_in_a_batch(self, bad, error):
        """A bad point raises the same error alone, in a batch, and through
        another expression over the same variables; a wrong point names the missing
        coordinates or both lengths."""
        e = tropicalize(x + y)
        with pytest.raises(error) as single:
            e.eval(bad)
        with pytest.raises(error) as batch:
            e.eval_many([(0, 0), bad, (1, 1)])
        assert str(batch.value) == str(single.value)
        with pytest.raises(error) as mapped:
            tropicalize(y, ("x", "y")).eval(bad)
        assert str(mapped.value) == str(single.value)
        if error is ValueError:
            assert str(single.value) in (
                f"point has {len(bad)} coordinates, expression has 2",
                f"point misses coordinates {[v for v in e.vars if v not in bad]}",
            )


class _CountedExponent(int):
    """A power's exponent that counts the products it takes part in."""

    def __rmul__(self, other):
        self.products = getattr(self, "products", 0) + 1
        return other * int(self)


_shared_roots = st.lists(_trees, min_size=1, max_size=4).flatmap(
    # roots built over the drawn trees, so subtree objects are shared between roots
    lambda trees: st.lists(
        st.one_of(
            st.sampled_from(trees),
            st.tuples(st.sampled_from(trees), st.sampled_from(trees)).map(lambda a: CAdd(a)),
            st.tuples(st.sampled_from(trees), st.sampled_from(trees)).map(lambda a: CDiv(*a)),
            st.sampled_from(trees).map(lambda a: CMul((a, CPow(a, 2), CConst(5)))),
        ),
        min_size=1,
        max_size=6,
    )
)


class TestBatchColumns:
    """ud.eval_columns, the walk of many certificates at once."""

    @settings(max_examples=200, deadline=None)
    @given(_shared_roots, st.lists(st.tuples(*[st.integers(-50, 50)] * len(_NAMES)), max_size=6))
    def test_matches_reference(self, roots, pts):
        exprs = [TropExpr(_NAMES, root) for root in roots]
        expected = [[_reference_eval(root, dict(zip(_NAMES, pt))) for pt in pts] for root in roots]
        assert ud.eval_columns(exprs, _NAMES, pts) == expected
        assert [e.eval_many(pts) for e in exprs] == expected

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_shared_node_is_walked_once(self, k):
        """A non-leaf node read by k roots, twice within each, is computed
        once per batch: its power takes one product per point."""
        exponent = _CountedExponent(2)
        shared = CPow(CAdd((CVar("a"), CVar("b"))), exponent)
        roots = [CMul((shared, CVar(_NAMES[r % 3]), CAdd((shared, CConst(1))))) for r in range(k)]
        pts = [(1, 2, 3), (-4, 0, 5), (7, -7, 0)]
        got = ud.eval_columns([TropExpr(_NAMES, root) for root in roots], _NAMES, pts)
        assert exponent.products == len(pts)
        assert got == [[_reference_eval(root, dict(zip(_NAMES, pt))) for pt in pts] for root in roots]

    def test_expressions_over_part_of_the_order(self):
        """An expression over fewer variables reads them by name from the
        batch's wider points; a variable outside the order is an error."""
        wide, narrow = tropicalize(x * z3 + y), tropicalize(y / x, ("x", "y"))
        pts = [(1, 2, 3), (-1, 5, 0)]
        assert ud.eval_columns([narrow, wide], ("x", "y", "z"), pts) == [
            narrow.eval_many([pt[:2] for pt in pts]),
            wide.eval_many(pts),
        ]
        with pytest.raises(ValueError, match="misses"):
            ud.eval_columns([wide], ("x", "y"), [(1, 2)])
        assert ud.eval_columns([wide, narrow], ("x", "y", "z"), []) == [[], []]
        assert ud.eval_columns([], ("x", "y", "z"), pts) == []

    def test_returned_columns_never_alias(self):
        """Each returned column is a new list, also for a repeated
        expression, a bare variable and a quotient by a constant, which
        reads its numerator's column; the same holds for the oracle."""
        pts = [(1, 2, 3), (-1, 5, 0)]
        p = x * y
        bare = tropicalize(x, ("x",))
        cases = [
            (ud.eval_columns, [tropicalize(p), tropicalize(p)]),
            (ud.eval_columns, [bare, bare]),
            (ud.eval_columns, [tropicalize(p / const(3)), tropicalize(p)]),
            (ud.eval_columns, [tropicalize(x / const(3), ("x",)), bare]),
            (ud.degree_columns, [p + z3, p + z3]),
            (ud.degree_columns, [p, p]),
        ]
        for columns, formulas in cases:
            first, second = columns(formulas, ("x", "y", "z"), pts)
            expected = [list(first), list(second)]
            first.append(99)
            first[0] = 99
            assert second == expected[1]
            assert columns(formulas, ("x", "y", "z"), pts) == expected


def _chart_formula_inventory(n):
    """Certified formulas produced by the charts at rank n."""
    al = crystal_parameter()
    p = TorusPointA.symbolic(n)
    q = TorusPointB.symbolic(n)
    out = []
    for i in range(1, n + 1):
        for k in range(1, i + 1):
            out.append((f"ratio-coeff({i},{k})", ratio_act_coefficient(i, k, q.coords, al)))
            out.append((f"factor-coeff({i},{k})", factor_act_coefficients(i, p.coords, al)[k]))
        out.append((f"weight({i})", q.weight_component(i)))
    for key, value in p.to_ratio().coords.items():
        out.append((f"chart-change{key}", value))
    for key, value in q.to_factor().coords.items():
        out.append((f"chart-change-back{key}", value))
    return out


_certified = st.recursive(
    st.one_of(
        st.sampled_from([x, y, z3]),
        st.tuples(st.integers(1, 5), st.integers(1, 5)).map(lambda p: const(Fraction(*p))),
    ),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from([operator.add, operator.mul, operator.truediv]), kids, kids).map(
            lambda t: t[0](t[1], t[2])
        ),
        st.tuples(kids, st.integers(-3, 3)).map(lambda t: t[0] ** t[1]),
    ),
    max_leaves=6,
)


class TestSoundness:
    """trop_eval == degree_oracle on grids and random points."""

    @settings(max_examples=150, deadline=None)
    @given(_certified, st.lists(st.tuples(*[st.integers(-6, 6)] * 3), min_size=1, max_size=8))
    def test_random_certified_expressions(self, f, pts):
        """Sums, products, quotients, positive rational constants and powers
        in -3..3 read in max-plus agree with the degree oracle; a point is
        skipped only where the oracle raises."""
        vars = ("x", "y", "z")
        assert f.positive_cert
        got = tropicalize(f, vars).eval_many(pts)
        for pt, value in zip(pts, got):
            want = _oracle_outcome(lambda: degree_oracle_many(f, vars, [pt])[0])
            if not isinstance(want, type):
                assert value == want, (f.cert, pt)

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
        ratio = p.to_ratio()
        forward = [tropicalize(ratio.coords[key], order) for key in index_pairs(n)]
        q = TorusPointB.symbolic(n)
        border = tuple(f"A[{k},{j}]" for (k, j) in index_pairs(n))
        factor = q.to_factor()
        backward = [tropicalize(factor.coords[key], border) for key in index_pairs(n)]
        for _ in range(150):
            pt = tuple(rng.randint(-8, 8) for _ in index_pairs(n))
            image = tuple(e.eval(pt) for e in forward)
            assert tuple(e.eval(image) for e in backward) == pt

    def test_identity_map(self):
        exprs = [tropicalize(f, ("x", "y")) for f in (x, y)]
        assert tuple(e.eval((4, -7)) for e in exprs) == (4, -7)

    def test_weight_map_is_linear_sum(self):
        n = 2
        q = TorusPointB.symbolic(n)
        order = ("A[1,1]", "A[1,2]", "A[2,2]")
        exprs = [tropicalize(q.weight_component(i), order) for i in (1, 2)]
        # at the hand point B12=2, B13=1, B23=3 under the index shift
        point = {"A[1,1]": 2, "A[1,2]": 1, "A[2,2]": 3}
        assert tuple(e.eval(point) for e in exprs) == (-3, -4)


class TestChartSharpIdentification:
    def test_shift(self):
        v = chart_to_sharp(1, {(1, 1): 5})
        assert v.b(1, 2) == 5

    def test_rank_two(self):
        v = chart_to_sharp(2, {(1, 1): 2, (1, 2): 1, (2, 2): 3})
        assert (v.b(1, 2), v.b(1, 3), v.b(2, 3)) == (2, 1, 3)

    def test_round_trip(self):
        v = SharpElement(3, {key: i for i, key in enumerate(sharp_index_pairs(3))})
        chart = {(k, j - 1): val for (k, j), val in v.entries.items()}
        assert chart_to_sharp(3, chart) == v

    def test_range_check(self):
        with pytest.raises(ValueError):
            chart_to_sharp(1, {(1, 2): 3})

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            chart_to_sharp(1, {(1, 1): 1.5})

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            chart_to_sharp(2, {(1, 1): 2, (1, 2): True, (2, 2): 3})

    @pytest.mark.parametrize(
        "values, error, message",
        [
            ({(1, 1): 2, (2, 3): 1}, ValueError, "chart index (2, 3) out of range"),
            ({(0, 1): 2}, ValueError, "chart index (0, 1) out of range"),
            ({(2, 1): 2}, ValueError, "chart index (2, 1) out of range"),
            ({(1, 1): 2, (1, 2, 3): 1}, ValueError, "too many values to unpack"),
            ({(1, 1): 2.0}, TypeError, "'float' object cannot be interpreted as an integer"),
            ({(1, 1): 2, (2, 2): False}, TypeError, "not an integer: False"),
            ({(1, 1): 1.5, (3, 3): 1}, TypeError, "'float' object"),  # the value comes first
            ({(3, 3): 1, (1, 1): 1.5}, ValueError, "chart index (3, 3) out of range"),
        ],
        ids=["above-rank", "row-zero", "below-diagonal", "triple", "float", "bool",
             "float-then-bad-key", "bad-key-then-float"],
    )
    def test_error_rows(self, values, error, message):
        with pytest.raises(error) as caught:
            chart_to_sharp(2, values)
        assert str(caught.value).startswith(message)

    def test_list_keys(self):
        """A mapping whose keys are lists reads like one with pairs."""

        class ListKeys(Mapping):
            def __init__(self, items):
                self.items_ = items

            def __getitem__(self, key):
                return dict((tuple(k), v) for k, v in self.items_)[tuple(key)]

            def __iter__(self):
                return (list(k) for k, _ in self.items_)

            def __len__(self):
                return len(self.items_)

        v = chart_to_sharp(2, ListKeys([((1, 1), 2), ((1, 2), 1), ((2, 2), 3)]))
        assert v == chart_to_sharp(2, {(1, 1): 2, (1, 2): 1, (2, 2): 3})
        with pytest.raises(ValueError, match=r"chart index \(2, 3\) out of range"):
            chart_to_sharp(2, ListKeys([((1, 1), 2), ((2, 3), 1)]))

    def test_missing_pairs_read_zero(self):
        v = chart_to_sharp(2, {(1, 2): 4})
        assert v == SharpElement(2, {(1, 3): 4})
        assert (v.b(1, 2), v.b(1, 3), v.b(2, 3)) == (0, 4, 0)

    def test_lattice_point_is_the_element_tuple(self):
        """The shift (k, j) -> (k, j+1) keeps the order, so a lattice
        point's chart coordinates are its element's tuple; a trailing
        exponent is ignored."""
        rng = random.Random(3)
        for n in range(1, 6):
            pairs = index_pairs(n)
            assert [(k, j + 1) for k, j in pairs] == sharp_index_pairs(n)
            pt = tuple(rng.randint(-5, 5) for _ in range(len(pairs) + 1))
            v = ud.point_to_sharp(n, pt)
            assert v == chart_to_sharp(n, dict(zip(pairs, pt)))
            assert v.key() == pt[:-1]

    def test_builds_without_revalidating(self, monkeypatch):
        def refuse(self, n, entries):
            raise AssertionError("validating constructor called")

        monkeypatch.setattr(SharpElement, "__init__", refuse)
        full = chart_to_sharp(2, {(2, 2): 3, (1, 1): 2, (1, 2): -1})
        partial = chart_to_sharp(2, {(2, 2): 3})
        for v, expected in ((full, (2, -1, 3)), (partial, (0, 0, 3))):
            assert list(v.entries) == sharp_index_pairs(2)
            assert tuple(v.entries.values()) == expected
            assert all(type(val) is int for val in v.entries.values())


class TestSerialization:
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
    return lambda e: CAdd((e.cert, CVar(e.vars[j])))


def _shifted(j):
    return lambda e: CMul((e.cert, CVar(e.vars[j])))


def _assert_sound_on_grid(radius):
    """trop equals the degree oracle for every ud-main formula at n=3 on
    every point of [-radius, radius]^7, each side one batch over the grid."""
    grid = list(itertools.product(range(-radius, radius + 1), repeat=7))
    formulas = _udmain_formulas(3)
    order = formulas[0][2]
    trop = ud.eval_columns([tropicalize(f, vars) for _, f, vars in formulas], order, grid)
    oracle = ud.degree_columns([f for _, f, _ in formulas], order, grid)
    for (name, _, _), got, want in zip(formulas, trop, oracle, strict=True):
        assert got == want, name


def _crystal_side_witnesses(n, points, exprs) -> list:
    """The witnesses of ud-main's action checks (i = 1..n) and weight
    check, found point by point: each point goes through
    ``chart_to_sharp``, and each amount is read off ``crystal_power`` as
    the drop of slot (k, i+1)."""
    pairs = index_pairs(n)

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

    return [first_action_mismatch(i) for i in range(1, n + 1)] + [first_weight_mismatch()]


class TestUdMainLattice:
    def test_batch_oracle_matches_subst_monomial(self):
        points = verify._lattice_points(3, verify.DEFAULT_SEED)
        for name, f, vars in _udmain_formulas(3):
            pts = [pt[: len(vars)] for pt in points]
            expected = [f.subst_monomial(dict(zip(vars, pt))).degree() for pt in pts]
            assert degree_oracle_many(f, vars, pts) == expected, name

    def test_batched_oracle_matches_subst_monomial(self):
        """One oracle batch over every n=3 formula at the wider points,
        with a formula of negative coefficients whose collapse reads the
        columns of monomials it shares with the others."""
        formulas = _udmain_formulas(3)
        order = formulas[0][2]
        a, b = (var(name) for name in order[:2])
        formulas += [("mixed", (const(2) * a * b - b**2 + a) / (a * b + const(1)), order[:2])]
        assert not formulas[-1][1].num.all_positive()
        points = verify._lattice_points(3, verify.DEFAULT_SEED)[:300]
        got = ud.degree_columns([f for _, f, _ in formulas], order, points)
        for (name, f, vars), column in zip(formulas, got, strict=True):
            expected = [f.subst_monomial(dict(zip(vars, pt))).degree() for pt in points]
            assert column == expected, name

    def test_exhaustive_unit_grid(self):
        """Soundness on all 3^7 points of [-1,1]^7 at n=3: every sign pattern."""
        _assert_sound_on_grid(1)

    def test_exhaustive_radius_two_grid(self):
        """Soundness on all 5^7 = 78,125 points of [-2,2]^7 at n=3."""
        _assert_sound_on_grid(2)

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
                e = TropExpr(e.vars, faults[name](e))
            exprs[name] = e
            return e

        monkeypatch.setattr(ud, "tropicalize", faulty)
        reports = verify.udmain_reports(n)
        points = verify._lattice_points(n, verify.DEFAULT_SEED)

        def first_unsound():
            for pt in points:
                for name, f, vars in formulas:
                    val = pt[: len(vars)]
                    if exprs[name].eval(val) != degree_oracle(f, dict(zip(vars, val))):
                        return {"point": list(pt), "formula": name}

        expected = _crystal_side_witnesses(n, points, exprs) + [first_unsound()]
        assert expected[-1] is not None
        for report, witness in zip(reports, expected):
            assert report.holds is (witness is None), report.check
            assert report.counterexample == witness, report.check

    @pytest.mark.parametrize("fault", ["amount", "weight-step"])
    def test_crystal_side_fault_is_found_where_a_point_loop_finds_it(self, monkeypatch, fault):
        """One wrong crystal amount (at one point, one direction and one
        row) or one wrong weight step (at one point and one direction)
        fails the check a per-point loop over ``chart_to_sharp`` and
        ``crystal_power`` fails, with the same witness."""
        n = 3
        points = verify._lattice_points(n, verify.DEFAULT_SEED)
        pt = points[700]
        v = chart_to_sharp(n, dict(zip(index_pairs(n), pt)))
        if fault == "amount":
            i, k = 3, 2
            target = (pt[-1], gyt.bvals(i, v))
            amounts = gyt.two_max_amounts

            def faulty(beta, bs):
                out = amounts(beta, bs)
                if (beta, tuple(bs)) == target:
                    out = out[: k - 1] + (out[k - 1] + 1,) + out[k:]
                return out

            monkeypatch.setattr(gyt, "two_max_amounts", faulty)
        else:
            step = gyt._weight_step

            def faulty(i, u):
                return step(i, u) + (1 if (i, u) == (2, v) else 0)

            monkeypatch.setattr(gyt, "_weight_step", faulty)
        reports = verify.udmain_reports(n)
        exprs = {name: tropicalize(f, vars) for name, f, vars in _udmain_formulas(n)}
        expected = _crystal_side_witnesses(n, points, exprs) + [None]
        assert sum(w is not None for w in expected) == 1
        for report, witness in zip(reports, expected, strict=True):
            assert report.holds is (witness is None), report.check
            assert report.counterexample == witness, report.check
