import math
import numbers
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from geomcrystal.ratfun import (
    ONE,
    ZERO,
    CAdd,
    CDiv,
    CMul,
    PoleError,
    Poly,
    Q,
    RatFun,
    _cmul,
    _decode,
    _encode,
    _exact_quotient,
    _gcd,
    _heuristic_gcd,
    _irreducible,
    _remap_terms,
    const,
    parse,
    randint_rounds,
    var,
)

x, y, z = var("x"), var("y"), var("z")


class TestFieldOps:
    def test_additive_identity(self):
        assert x + const(0) == x

    def test_common_denominator(self):
        assert x / y + const(1) / y == (x + 1) / y

    def test_coefficient_addition(self):
        lhs = (const(2) * x**2 + 1) + (x**2 + 3)
        assert lhs == const(3) * x**2 + 4

    def test_multiplicative_identity(self):
        assert x * ONE == x

    def test_self_quotient(self):
        f = x / y
        assert f / f == 1

    def test_difference_of_squares(self):
        assert (x + y) * (x - y) == x**2 - y**2

    def test_division_by_zero_function(self):
        with pytest.raises(ZeroDivisionError):
            x / (y - y)

    def test_negative_power_inverts(self):
        assert (x / y) ** -2 == y**2 / x**2

    @pytest.mark.parametrize(
        "k, message",
        [
            (True, "not an integer: True"),
            (2.0, "'float' object cannot be interpreted as an integer"),
            (Fraction(2), "'Fraction' object cannot be interpreted as an integer"),
        ],
    )
    def test_exponent_must_be_an_integer(self, k, message):
        """A bool or an inexact exponent is refused, not read as 1 or 2."""
        with pytest.raises(TypeError) as caught:
            x**k
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "k, message",
        [(True, "not an integer: True"), (2.0, "'float' object cannot be interpreted as an integer")],
    )
    def test_polynomial_exponent_must_be_an_integer(self, k, message):
        """``Poly.__pow__`` refuses the same exponents, called directly."""
        with pytest.raises(TypeError) as caught:
            x.num**k
        assert str(caught.value) == message
        assert x.num**2 == (x * x).num


class TestEquality:
    def test_unreduced_fractions_equal(self):
        assert x / y == (x * z) / (y * z)

    def test_commutativity(self):
        assert x + y == y + x

    def test_distinct_values(self):
        assert x != x + 1

    def test_int_comparison(self):
        assert (x + 1 - x) == 1


class TestEval:
    def test_sum(self):
        assert (x + y).eval({"x": 1, "y": 2}) == 3

    def test_pole(self):
        with pytest.raises(PoleError):
            (x / y).eval({"x": 1, "y": 0})

    def test_fraction_value(self):
        c = var("c")
        f = (c**3 + 2 * c) / (c**2 + 1)
        assert f.eval({"c": 2}) == Q(12, 5)

    def test_eval_homomorphism(self):
        rng = random.Random(20240601)
        f = (x + 2 * y) / z
        g = (x * z + 1) / (y + 3)
        for _ in range(100):
            pt = {name: Q(rng.randint(1, 30), rng.randint(1, 7)) for name in "xyz"}
            assert (f + g).eval(pt) == f.eval(pt) + g.eval(pt)
            assert (f * g).eval(pt) == f.eval(pt) * g.eval(pt)
            assert (f / g).eval(pt) == f.eval(pt) / g.eval(pt)


class TestMonomialSubstitution:
    def test_exponent_addition(self):
        f = x * y
        assert f.subst_monomial({"x": 2, "y": 3}) == var("c") ** 5

    def test_sum_collapses(self):
        f = x + y
        assert f.subst_monomial({"x": 1, "y": 1}) == 2 * var("c")

    def test_laurent_clearing(self):
        # direct substitution oracle: (c^2 + 1)/c
        f = (x + y) / z
        c = var("c")
        assert f.subst_monomial({"x": 2, "y": 0, "z": 1}) == (c**2 + 1) / c

    def test_certificate_preserved(self):
        f = (x + y) / z
        g = f.subst_monomial({"x": 3, "y": -2, "z": 1})
        assert g.positive_cert
        assert g.degree() == 2

    def test_cancellation_to_zero(self):
        f = x - y
        assert f.subst_monomial({"x": 1, "y": 1}).is_zero


class TestDegree:
    def test_monomial(self):
        assert (var("c") ** 5).degree() == 5

    def test_degree_subtraction(self):
        c = var("c")
        assert ((c**3 + 2 * c) / (c**2 + 1)).degree() == 1

    def test_constant(self):
        assert const(7).degree() == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            const(0).degree()

    def test_multivariate_rejected(self):
        with pytest.raises(ValueError):
            (x * y).degree()


class TestValuationLaws:
    """deg behaves additively on products and as max on certified sums."""

    def _random_positive(self, rng, names):
        vs = [var(n) for n in names]
        f = const(rng.randint(1, 5))
        for v in vs:
            f = f * v ** rng.randint(0, 2)
        g = sum((v * rng.randint(1, 3) for v in vs), const(1))
        return f + g if rng.random() < 0.5 else f * g

    def test_product_and_quotient(self):
        rng = random.Random(7)
        names = ("x", "y", "z")
        for _ in range(60):
            f = self._random_positive(rng, names)
            g = self._random_positive(rng, names)
            l = {n: rng.randint(-5, 5) for n in names}
            df = f.subst_monomial(l).degree()
            dg = g.subst_monomial(l).degree()
            assert (f * g).subst_monomial(l).degree() == df + dg
            assert (f / g).subst_monomial(l).degree() == df - dg
            assert (f + g).subst_monomial(l).degree() == max(df, dg)

    def test_positive_evaluation_is_positive(self):
        rng = random.Random(11)
        names = ("x", "y", "z")
        for _ in range(40):
            f = self._random_positive(rng, names)
            assert f.positive_cert
            pt = {n: Q(rng.randint(1, 40), rng.randint(1, 9)) for n in names}
            assert f.eval(pt) > 0


class TestCertificates:
    def test_variables_and_constants(self):
        assert x.positive_cert
        assert const(Q(3, 2)).positive_cert
        assert not const(-2).positive_cert
        assert not const(0).positive_cert

    def test_closure(self):
        f = (x + y) * const(2) / z
        assert f.positive_cert

    def test_iff_both_inputs(self):
        assert not (x + (y - z)).positive_cert
        assert not (x + const(0)).positive_cert

    def test_subtraction_drops(self):
        assert not (x - y).positive_cert
        assert not (-x).positive_cert

    def test_checked_on_construction(self):
        with pytest.raises(ValueError):
            RatFun((x - y).num, ONE.den, cert=x.cert)


class TestSerialization:
    def test_canonical_example(self):
        f = const(Q(3, 2)) * var("a[1,2]") ** 2 * var("c1") + 1
        assert str(f) == "(3/2)*a[1,2]^2*c1 + 1"

    def test_fraction_form(self):
        f = (x + 1) / y
        assert str(f) == "(x + 1) / (y)"

    def test_signs(self):
        assert str(x**2 - y**2) == "x^2 - y^2"
        assert str(-x - 3) == "-x - 3"

    @pytest.mark.parametrize(
        "value",
        [
            lambda: x,
            lambda: const(0),
            lambda: const(Q(-7, 3)),
            lambda: (x + 1) / y,
            lambda: (const(Q(3, 2)) * var("a[1,2]") ** 2 * var("c1") + 1) / (x + y),
            lambda: x**2 - y**2,
            lambda: (x * y + z) / (x - 2 * y + 1),
        ],
    )
    def test_round_trip_bit_exact(self, value):
        f = value()
        g = parse(str(f))
        assert g.num.vars == f.num.vars
        assert g.num.terms == f.num.terms
        assert g.den.terms == f.den.terms

    def test_round_trip_random(self):
        rng = random.Random(99)
        names = ("x", "y", "z")
        for _ in range(50):
            num = sum(
                (
                    const(rng.randint(-4, 4))
                    * var(rng.choice(names)) ** rng.randint(0, 3)
                    for _ in range(4)
                ),
                const(rng.randint(-3, 3)),
            )
            den = var(rng.choice(names)) + rng.randint(1, 4)
            f = num / den
            g = parse(str(f))
            assert g.num.terms == f.num.terms
            assert g.den.terms == f.den.terms

    def test_term_order_deterministic(self):
        f = x + y**2 + x * y + 1
        g = const(1) + x * y + y**2 + x
        assert str(f) == str(g)


# ---------------------------------------------------------------------------
# properties of the integer core
NAMES = ("x", "y", "z")
PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

_leaves = st.one_of(
    st.sampled_from(NAMES).map(var),
    st.integers(-4, 4).map(const),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(const),
)


def _combine(op_args):
    op, a, b = op_args
    try:
        return op(a, b)
    except ZeroDivisionError:
        return a


_OPS = (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b)
ratfuns = st.recursive(
    _leaves,
    lambda kids: st.tuples(st.sampled_from(_OPS), kids, kids).map(_combine),
    max_leaves=6,
)


def to_sympy(f: RatFun):
    sympy = pytest.importorskip("sympy")

    def poly(p):
        syms = [sympy.Symbol(v) for v in p.vars]
        return sum(
            (c * sympy.Mul(*(s**e for s, e in zip(syms, mono))) for mono, c in p.monomials()),
            sympy.Integer(0),
        )

    return poly(f.num) / poly(f.den)


class TestIntegerCore:
    @PROPERTY
    @given(ratfuns, ratfuns)
    def test_field_operations_match_sympy(self, f, g):
        sympy = pytest.importorskip("sympy")
        sf, sg = to_sympy(f), to_sympy(g)
        assert sympy.cancel(to_sympy(f + g) - (sf + sg)) == 0
        assert sympy.cancel(to_sympy(f - g) - (sf - sg)) == 0
        assert sympy.cancel(to_sympy(f * g) - sf * sg) == 0
        if not g.is_zero:
            assert sympy.cancel(to_sympy(f / g) - sf / sg) == 0

    @PROPERTY
    @given(ratfuns, ratfuns, ratfuns)
    def test_field_laws(self, f, g, h):
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f - f == 0
        if not f.is_zero:
            assert f / f == 1

    @PROPERTY
    @given(ratfuns)
    def test_parse_round_trip_bit_exact(self, f):
        g = parse(str(f))
        assert (g.num.vars, g.num.terms, g.den.terms) == (f.num.vars, f.num.terms, f.den.terms)
        assert str(g) == str(f)

    @PROPERTY
    @given(ratfuns)
    def test_stored_coefficients_are_primitive_ints(self, f):
        coeffs = [*f.num.terms.values(), *f.den.terms.values()]
        assert all(type(c) is int for c in coeffs)
        assert math.gcd(*coeffs) == 1
        assert f.den.leading_coefficient() > 0

    def test_const_is_integer_fraction(self):
        f = const(Q(-6, 4))
        assert (f.num.terms, f.den.terms) == ({0: -3}, {0: 2})
        assert str(f) == "-(3/2)"

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            RatFun.const(0.1)
        with pytest.raises(TypeError):
            x + 0.5
        with pytest.raises(TypeError):
            (x / y).eval({"x": 1, "y": 0.5})

    def test_float_never_equal(self):
        assert (const(1) == 1.0) is False
        assert (x != 0.1) is True

    def test_equality_detects_exponent_overflow(self):
        # x^65536 would wrap into the packed field of y
        with pytest.raises(OverflowError):
            x**40000 == y / x**25536

    def test_poly_integer_constructors(self):
        assert Poly.const(3).terms == {0: 3}
        assert type(Poly.variable("x").terms[_encode((1,))]) is int
        with pytest.raises(TypeError):
            Poly.const(Fraction(1, 2))

    def test_shared_terms_never_mutated(self):
        # num and den over the same variables, with no monomial content and
        # no common integer factor: normalization keeps their terms dicts
        p = Poly(("x", "y"), {_encode((1, 0)): 2, _encode((0, 1)): 3})
        q = Poly(("x", "y"), {_encode((1, 1)): 1, 0: 5})
        p_terms, q_terms = dict(p.terms), dict(q.terms)
        f = RatFun(p, q)
        results = [f + f, f - f, f * f, f / f, -f, f**2, p + q, p - p, p * q, -p]
        results += [f.subst_monomial({"x": 1, "y": 2}), f.eval({"x": 1, "y": 2})]
        assert p.terms == p_terms and q.terms == q_terms
        assert f.num.terms == p_terms and f.den.terms == q_terms


_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=4
)


def _poly(vars: tuple, terms: dict, order: tuple) -> Poly:
    """The polynomial with terms over ``vars`` (exponents in that order),
    stored over the variable tuple ``order`` (a permutation of a superset)."""
    packed = {}
    for exps, c in terms.items():
        aligned = [exps[vars.index(v)] if v in vars else 0 for v in order]
        packed[_encode(aligned)] = c
    return Poly(order, packed)


class TestPolyHash:
    @PROPERTY
    @given(_terms, st.permutations(("x", "y", "z")), _terms, st.permutations(("x", "y")))
    def test_equal_implies_equal_hash(self, terms, order, other_terms, other_order):
        base = ("x", "y")
        p = _poly(base, terms, base)
        q = _poly(base, terms, tuple(order))  # same polynomial, other variable tuple
        assert p == q
        assert hash(p) == hash(q)
        r = _poly(base, other_terms, tuple(other_order))
        if p == r:
            assert hash(p) == hash(r)

    def test_unused_variable(self):
        wide, narrow = Poly(("x", "y"), {_encode((1, 0)): 1}), Poly(("x",), {_encode((1,)): 1})
        assert wide == narrow
        assert hash(wide) == hash(narrow)


_certified_leaves = st.one_of(
    st.sampled_from(NAMES).map(var),
    st.fractions(min_value=Q(1, 4), max_value=3, max_denominator=4).map(const),
)
certified_ratfuns = st.recursive(
    _certified_leaves,
    lambda kids: st.tuples(st.sampled_from(_OPS[:1] + _OPS[2:]), kids, kids).map(_combine),
    max_leaves=6,
)
# the value one in the forms an operand can take: shared and certified,
# certified by a quotient, and uncertified after a subtraction
_units = st.sampled_from([ONE, (x * y) / (y * x), x - x + 1])


def _triple(f: RatFun) -> tuple:
    return (f.num.vars, f.num.terms, f.den.vars, f.den.terms, str(f), f.cert)


class TestUnitOperands:
    """A factor or divisor one returns the other operand's num and den
    without normalizing them again; the value, printed form and
    certificate are those of normalizing the operand's own num and den
    under the certificate the operator builds."""

    @PROPERTY
    @given(st.one_of(ratfuns, certified_ratfuns, st.just(ZERO)), _units)
    def test_unit_factor_and_divisor(self, f, one):
        assert one.num.terms == one.den.terms == {0: 1}

        def expected(cert):
            return _triple(RatFun(f.num, f.den, None if f.is_zero else cert))

        both = f.cert is not None and one.cert is not None
        assert _triple(f * one) == expected(_cmul(f.cert, one.cert) if both else None)
        assert _triple(one * f) == expected(_cmul(one.cert, f.cert) if both else None)
        assert _triple(f / one) == expected(CDiv(f.cert, one.cert) if both else None)

    def test_shared_constants(self):
        assert RatFun.const(0) is RatFun.const(0) is ZERO
        assert RatFun.const(1) is const(Q(1)) is RatFun.const(Q(2, 2)) is ONE
        assert const(2) is not const(2)
        assert (str(ZERO), ZERO.cert, str(ONE), ONE.cert) == ("0", None, "1", const(Q(3, 3)).cert)


_named_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-2, 2).filter(bool), max_size=3
)
_orders = st.sampled_from(("x", "y", "w", "z")).flatmap(
    lambda extra: st.permutations(("x", "y", extra) if extra in "wz" else ("x", "y"))
)


class TestPolyEquality:
    """``Poly.__eq__`` rejects on degree and term count and compares equal
    variable tuples directly; the oracle remaps both operands to the merged
    tuple, and compares monomials by variable name."""

    @PROPERTY
    @given(_named_terms, _orders, _named_terms, _orders, st.booleans())
    def test_matches_merged_comparison(self, terms, order, other_terms, other_order, same):
        base = ("x", "y")
        p = _poly(base, terms, tuple(order))
        q = _poly(base, terms if same else other_terms, tuple(other_order))
        merged = tuple(sorted(set(p.vars) | set(q.vars)))
        remapped = _remap_terms(p.terms, p.vars, merged) == _remap_terms(q.terms, q.vars, merged)

        def by_name(poly):
            return {
                frozenset((v, e) for v, e in zip(poly.vars, exps) if e): c
                for exps, c in poly.monomials()
            }

        assert (p == q) is remapped is (by_name(p) == by_name(q))
        if same:
            assert p == q
        if p == q:
            assert hash(p) == hash(q)


_terms3 = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3), max_size=6
)


@st.composite
def _remap_cases(draw):
    """(old, new) variable tuples, sorted or permuted, and terms over old:
    each name is in both, in old only (its exponents 0), in new only, or in
    neither, so the shared variables form interleaved or disjoint runs, and
    new may widen or narrow old."""
    roles = dict(zip("abcdefgh", draw(st.lists(st.sampled_from("bond"), min_size=8, max_size=8))))
    old = tuple(x for x, r in roles.items() if r in "bo")
    new = tuple(x for x, r in roles.items() if r in "bn")
    if draw(st.booleans()):
        old, new = tuple(draw(st.permutations(old))), tuple(draw(st.permutations(new)))
    exps = st.tuples(*(st.integers(0, 5) if roles[x] == "b" else st.just(0) for x in old))
    terms = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), max_size=5))
    return old, new, {_encode(e): c for e, c in terms.items()}


class TestKeyCodec:
    """The packed keys against an oracle that never reads a key: the
    exponent vectors the polynomial was built from, in stored order."""

    @PROPERTY
    @given(_terms3, st.permutations(("w", "x", "y", "z")))
    def test_key_order_is_grlex(self, terms, order):
        base, order = ("x", "y", "z"), tuple(order)
        p = _poly(base, terms, order)
        expected = {
            tuple(exps[base.index(v)] if v in base else 0 for v in order): c
            for exps, c in terms.items()
            if c
        }
        grlex = sorted(expected.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)
        assert list(p.sorted_terms()) == grlex
        assert dict(p.monomials()) == expected
        assert p.used_vars() == {v for i, v in enumerate(order) if any(e[i] for e in expected)}
        for exps in expected:
            assert _decode(_encode(exps), len(exps)) == exps
        if grlex:
            assert p.leading_coefficient() == grlex[0][1]
            assert p.total_degree() == max(sum(e) for e in expected)

    @PROPERTY
    @given(_remap_cases())
    @example((("a", "c"), ("a", "b", "c", "d"), {_encode((2, 1)): 3}))  # widening, interleaved
    @example((("a", "b", "c"), ("b",), {_encode((0, 4, 0)): -1}))  # narrowing
    @example((("a", "b"), ("c", "d"), {_encode((0, 0)): 5}))  # disjoint
    def test_remap_matches_decode_encode(self, case):
        old, new, terms = case
        expected = {}
        for key, c in terms.items():
            degree, *exps = _decode(key, len(old) + 1)
            by_name = dict(zip(old, exps))
            new_key = _encode([by_name.get(x, 0) for x in new])
            assert _decode(new_key, len(new) + 1)[0] == degree  # the degree field is kept
            expected[new_key] = c
        assert _remap_terms(terms, old, new) == expected

    @PROPERTY
    @given(st.lists(st.integers(0, 30000), max_size=4))
    @example([21845, 21845, 21845])  # degree 2**16 - 1: one past the capacity
    @example([65534])
    def test_codec_round_trip_or_overflow(self, exps):
        exps = tuple(exps)
        if sum(exps) >= 2**16 - 1:
            with pytest.raises(OverflowError):
                _encode(exps)
        else:
            assert _decode(_encode(exps), len(exps)) == exps


def _reference_eval(f: RatFun, point):
    """Per-term ``Fraction`` evaluation, one term and one sum at a time,
    with the error order of ``RatFun.eval``: a non-rational value (a bool
    included) of a variable of ``f``, then a variable of the denominator without a value,
    then a pole, then a variable of the numerator without a value."""
    values = {}
    for name in f.variables:
        if name in point:
            if not isinstance(point[name], numbers.Rational) or isinstance(point[name], bool):
                raise TypeError(name)
            values[name] = Fraction(point[name])

    def poly(p):
        total = Fraction(0)
        for mono, c in p.monomials():
            term = Fraction(c)
            for name, e in zip(p.vars, mono):
                if e:
                    term *= values[name] ** e  # KeyError without a value
            total += term
        return total

    d = poly(f.den)
    if d == 0:
        raise PoleError(point)
    return poly(f.num) / d


_values = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.sampled_from([True, False, 0.5, 2.0]),
)
_points = st.fixed_dictionaries({}, optional={name: _values for name in (*NAMES, "w")})


class TestIntegerEval:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ratfuns, _points)
    def test_matches_per_term_fractions(self, f, point):
        try:
            expected = _reference_eval(f, point)
        except (TypeError, KeyError, PoleError) as exc:
            with pytest.raises(type(exc)):
                f.eval(point)
        else:
            got = f.eval(point)
            assert type(got) is Fraction
            assert got == expected

    @PROPERTY
    @given(ratfuns, st.fixed_dictionaries({name: _values.filter(lambda v: type(v) not in (float, bool)) for name in NAMES}))
    def test_value_of_every_complete_point(self, f, point):
        try:
            expected = _reference_eval(f, point)
        except PoleError:
            with pytest.raises(PoleError):
                f.eval(point)
        else:
            assert f.eval(point) == expected

    def test_constants(self):
        assert const(Q(-7, 3)).eval({}) == Q(-7, 3)
        assert const(0).eval({"x": 0.5}) == 0
        assert type(const(5).eval({})) is Fraction

    def test_variables_absent_from_some_terms(self):
        f = (x**3 * y - 2 * y**2 + z) / (x + 1)
        pt = {"x": Q(-1, 2), "y": Q(3, 4), "z": 0}
        assert f.eval(pt) == _reference_eval(f, pt)
        assert f.eval({"x": 0, "y": -2, "z": Q(1, 3)}) == Q(-23, 3)

    def test_errors(self):
        f = x / y
        with pytest.raises(PoleError):
            f.eval({"x": 1, "y": 0})
        with pytest.raises(PoleError):  # the pole is found before the missing x
            f.eval({"y": 0})
        with pytest.raises(KeyError, match="'x'"):
            f.eval({"y": 1})
        with pytest.raises(KeyError, match="'y'"):
            f.eval({"x": 1})
        with pytest.raises(TypeError):  # a float before the missing y
            f.eval({"x": 0.5})
        assert x.eval({"x": 2, "w": 0.5}) == 2  # values of other names are not read

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda: (x + y).eval({"x": True, "y": 2}),
            lambda: x.eval({"x": False}),
            lambda: (x + y).eval_many([{"x": 1, "y": 2}, {"x": 1, "y": True}]),
            lambda: RatFun.const(True),
            lambda: const(False),
        ],
        ids=["eval-true", "eval-false", "eval-many", "const-true", "const-false"],
    )
    def test_bools_are_not_rationals(self, evaluate):
        with pytest.raises(TypeError, match="not an exact rational"):
            evaluate()


_exact_values = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=5))
_batches = st.lists(
    st.one_of(_points, st.fixed_dictionaries({name: _exact_values for name in NAMES})), max_size=4
)


def _first_reference_error(f: RatFun, points):
    """(stage, index, type) of the error a batch evaluation raises, or None:
    the first point with a value that is not rational, else the first point
    at which :func:`_reference_eval` raises."""
    errors = []
    for j, point in enumerate(points):
        try:
            _reference_eval(f, point)
        except (TypeError, KeyError, PoleError) as exc:
            errors.append((type(exc) is not TypeError, j, type(exc)))
    return min(errors, default=None)


class TestBatchEval:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(ratfuns, certified_ratfuns), _batches)
    def test_matches_per_point_fractions(self, f, points):
        """eval_many is the per-term Fraction sum at each point; a batch
        raises what eval raises at its first bad point, with the same
        message, coercion errors of the whole batch first."""
        first = _first_reference_error(f, points)
        if first is None:
            got = f.eval_many(points)
            assert got == [_reference_eval(f, point) for point in points]
            assert got == [f.eval(point) for point in points]
            assert all(type(value) is Fraction for value in got)
            return
        _, j, error = first
        with pytest.raises(error) as batch:
            f.eval_many(points)
        with pytest.raises(error) as single:
            f.eval(points[j])
        assert str(batch.value) == str(single.value)

    def test_empty_batch(self):
        assert (x / y).eval_many([]) == []
        assert const(3).eval_many(iter([])) == []
        assert ZERO.eval_many([{}, {"x": 1}]) == [0, 0]

    def test_errors_in_batch_order(self):
        f = x / y
        with pytest.raises(TypeError):  # coercion of the whole batch comes first
            f.eval_many([{"y": 1}, {"x": 0.5, "y": 1}])
        with pytest.raises(KeyError, match="'y'"):  # a denominator variable without a value
            f.eval_many([{"x": 1, "y": 2}, {"x": 1}, {"x": 1, "y": 0}])
        with pytest.raises(PoleError, match="'y': 0"):
            f.eval_many([{"x": 1, "y": 2}, {"x": 1, "y": 0}, {"y": 1}])
        with pytest.raises(KeyError, match="'x'"):  # a numerator variable, after the pole check
            f.eval_many([{"y": 1}, {"x": 1, "y": 0}])
        assert f.eval_many([{"x": 1, "y": 2}, {"x": Q(1, 3), "y": -1}]) == [Q(1, 2), Q(-1, 3)]


# ---------------------------------------------------------------------------
# gcd cancellation, with sympy as the oracle

GCD_NAMES = tuple(f"v{i}" for i in range(6))


def _random_poly(rng: random.Random, names: tuple, signed: bool) -> Poly:
    """A polynomial of 1-4 terms over ``names``, total degree at most 3."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * len(names)
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(len(names))] += 1
        c = rng.randint(1, 5) * (rng.choice((1, -1)) if signed else 1)
        terms[_encode(exps)] = terms.get(_encode(exps), 0) + c
    return Poly(names, terms)


def _positive_value(rng: random.Random, names: tuple) -> RatFun:
    """A certified polynomial built from variables, positive constants,
    sums and products."""
    total = const(rng.randint(1, 4))
    for _ in range(rng.randint(0, 3)):
        term = const(rng.randint(1, 3))
        for _ in range(rng.randint(1, 2)):
            term = term * var(rng.choice(names))
        total = total + term
    return total


def _gcd_is_constant(f: RatFun) -> bool:
    sympy = pytest.importorskip("sympy")
    num, den = (to_sympy(RatFun(p, Poly.const(1))) for p in (f.num, f.den))
    return sympy.gcd(num, den).is_number


class TestReduced:
    @pytest.mark.parametrize("signed", [False, True])
    def test_shared_factor_cancels(self, signed):
        rng = random.Random(8101 + signed)
        for case in range(80):
            names = GCD_NAMES[: rng.randint(1, 6)]
            f, g, h = (_random_poly(rng, names, signed) for _ in range(3))
            if case % 8 == 0:
                h = Poly.const(rng.randint(2, 6), names)  # a constant factor
            elif case % 8 == 1:
                h = Poly(names, {_encode([1] + [0] * (len(names) - 1)): 1})  # a monomial
            if f.is_zero or g.is_zero or h.is_zero:
                continue
            value = RatFun(f * h, g * h)
            result = value.reduced()
            assert result == value
            assert _gcd_is_constant(result), (case, str(value), str(result))

    def test_certified_shared_factor(self):
        rng = random.Random(8103)
        for _ in range(30):
            names = GCD_NAMES[: rng.randint(1, 4)]
            f, g, h = (_positive_value(rng, names) for _ in range(3))
            value = (f * h) / (g * h)
            result = value.reduced()
            assert result == value
            assert result.cert is value.cert
            assert _gcd_is_constant(result)

    def test_coprime_value_is_returned_unchanged(self):
        f = (x**2 + y) / (x + y**2 + 1)
        assert f.reduced() is f
        for monomial_side in (x**2 * y / (x + 1), (x + 1) / (x * y)):
            assert monomial_side.reduced() is monomial_side

    def test_heuristic_failure_returns_the_input(self, monkeypatch):
        import geomcrystal.ratfun as ratfun

        monkeypatch.setattr(ratfun, "_heuristic_gcd", lambda a, b, m: None)
        # no variable of degree one, so no operand is certified irreducible
        # and the gcd is left to the heuristic
        f = (x**4 - y**4) / (x**2 - y**2)
        assert len(f.den.terms) == 2
        assert f.reduced() is f

    def test_certificate_needs_positive_cofactors(self):
        f = (x**3 + 1) / (x + 1)  # x^2 - x + 1 would lose the certificate
        assert f.positive_cert
        assert f.reduced() is f
        assert f.reduced().cert is f.cert
        g = (x**3 - 1 + 2) / (x + 1)  # the same value without a certificate
        assert not g.positive_cert
        assert str(g.reduced()) == "x^2 - x + 1"

    def test_large_exponent_skips_the_reduction(self):
        f = (x**32768 * y + x**32768) / (y + 1)
        assert f.reduced() is f
        g = (x**3 * y + x**3) / (y + 1)
        assert str(g.reduced()) == "x^3"

    def test_large_operands_are_not_tried(self):
        # num and den share (1 + x1 + ... + x9)^3 and have 3,850 and 3,115
        # terms; GCDHEU finds the gcd, but in about 9 s, because the degree
        # box of the pair is 7^9, above the bound
        xs = [var(f"x{i}") for i in range(1, 10)]
        shared = (1 + sum(xs[1:], xs[0])) ** 3
        odd, even = 2 + sum(xs[2::2], xs[0]), 1 + sum(xs[3::2], xs[1])
        f = (shared * odd**3) / (shared * even**3)
        assert (len(f.num.terms), len(f.den.terms)) == (3850, 3115)
        start = time.perf_counter()
        assert f.reduced() is f
        assert time.perf_counter() - start < 1
        assert _gcd(f.num, f.den, False) is None

    def test_exact_quotient(self):
        def quotient(a, b):
            return _exact_quotient(a.num.terms, b.num.terms, len(a.variables))

        assert quotient((x + y) * (x - y), x + y) == (x - y).num.terms
        assert quotient(x**2 + 1, x + 1) is None  # a remainder of 2
        assert quotient(x**2 + y**2, x + y) is None  # y^2 is no multiple of x
        assert quotient(2 * x + 2, 2 * x + 1) is None  # 2 is no multiple of 2x
        assert quotient(x**32768 + x, x) is None  # an exponent at 2**15

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_henrici_operations(self, op):
        # each operator against the unreduced fraction built directly, and
        # its result in lowest terms
        operation, unreduced = {
            "add": (RatFun.__add__, lambda p, q: RatFun(
                p.num * q.den + q.num * p.den, p.den * q.den, CAdd((p.cert, q.cert))
            )),
            "sub": (RatFun.__sub__, lambda p, q: RatFun(
                p.num * q.den - q.num * p.den, p.den * q.den
            )),
            "mul": (RatFun.__mul__, lambda p, q: RatFun(
                p.num * q.num, p.den * q.den, CMul((p.cert, q.cert))
            )),
            "div": (RatFun.__truediv__, lambda p, q: RatFun(
                p.num * q.den, p.den * q.num, CDiv(p.cert, q.cert)
            )),
        }[op]
        rng = random.Random(8107)
        for _ in range(25):
            names = GCD_NAMES[: rng.randint(1, 4)]
            f, g, h, k = (_positive_value(rng, names) for _ in range(4))
            p, q = ((f * h) / (g * h)).reduced(), ((g * k) / (h * k)).reduced()
            result = operation(p, q)
            expected = unreduced(p, q)
            assert result == expected
            assert result.cert == expected.cert
            assert _gcd_is_constant(result)

    def test_sum_cancels_against_the_shared_denominator_factor(self):
        # the denominators share x + 1, and so does the new numerator
        # x*(y + 2) + (x + y + 3) = (x + 1)*(y + 3)
        f = x / (x + 1) + (x + y + 3) / ((x + 1) * (y + 2))
        assert str(f) == "(y + 3) / (y + 2)"
        assert f.positive_cert

    def test_operators_keep_the_certificate(self):
        # (x^3 + 1)/(x + 1) is x^2 - x + 1, which would lose the
        # certificate, so each operator leaves the certified value unreduced
        for f in (
            (x**3 + 1) * (1 / (x + 1)),
            (x**3 + 1) / (x + 1),
            x**3 / (x + 1) + 1 / (x + 1),
        ):
            assert f.positive_cert
            assert str(f) == "(x^3 + 1) / (x + 1)"
        f = ((x**3 + 1) / (y + 1)) * ((y + 2) / (x + 1))  # the gcd path, not a structural match
        assert f.positive_cert
        assert (len(f.num.terms), len(f.den.terms)) == (4, 4)
        assert f == RatFun((x**3 + 1).num * (y + 2).num, (y + 1).num * (x + 1).num)


IRR_NAMES = ("a", "b", "c", "s")
_NONZERO = st.sampled_from([-3, -2, -1, 1, 2, 3])
_EXPS = st.tuples(*[st.integers(0, 2)] * len(IRR_NAMES))


def _terms(poly: Poly) -> tuple:
    return poly.terms, len(poly.vars)


def _irr_poly(terms: dict) -> Poly:
    return Poly(IRR_NAMES, terms)


def _polys(least: int, free: int = -1):
    """Terms of polynomials over IRR_NAMES, ``least`` to 3 of them with
    exponents 0-2, free of the variable at slot ``free``."""
    return st.dictionaries(_EXPS, _NONZERO, min_size=least, max_size=3).map(
        lambda d: {_encode(0 if i == free else e for i, e in enumerate(exps)): c for exps, c in d.items()}
    )


@st.composite
def _linear_in_one_variable(draw) -> Poly:
    """t1*x + t0 with t1 a single term: often, not always, certified."""
    x_slot = draw(st.integers(0, len(IRR_NAMES) - 1))
    lead = [1 if i == x_slot else draw(st.integers(0, 1)) for i in range(len(IRR_NAMES))]
    terms = draw(_polys(1, x_slot))
    terms[_encode(lead)] = draw(st.sampled_from([-3, -1, 1, 2]))
    return _irr_poly(terms)


def _heuristic_reference(a: Poly, b: Poly, positive: bool):
    """What ``_gcd`` returns when it asks GCDHEU, for operands of 2 to
    ``_GCD_MAX_TERMS`` terms with small exponents and degree boxes."""
    vars, at, bt = a._aligned(b)
    found = _heuristic_gcd(at, bt, len(vars))
    if found is None or list(found[0]) == [0]:
        return None
    if positive and min(*found[1].values(), *found[2].values()) < 0:
        return None
    return tuple(Poly._trusted(vars, t) for t in found)


class TestIrreducibleOperand:
    """The gcd with a certified irreducible operand t is decided by one
    exact division: t when t divides the other operand, else 1."""

    @pytest.mark.parametrize("text", ["x + y", "x*y + z", "a*s + b*s + 1", "x*y + 1", "3*x + 2"])
    def test_accepts(self, text):
        assert _irreducible(*_terms(parse(text).num))

    @pytest.mark.parametrize("text", [
        "x*y + y",  # y*(x + 1)
        "x*y + x*z",  # x*(y + z)
        "2*x + 2",  # content 2
        "x^2 + 2*x*y + y^2",  # no variable of degree one; (x + y)^2
        "x^2 + y^2",  # no variable of degree one, though irreducible
        "x*y + x*z + y + z + 1",  # irreducible, but no part is a single term
    ])
    def test_rejects(self, text):
        assert not _irreducible(*_terms(parse(text).num))

    @PROPERTY
    @given(_linear_in_one_variable(), _polys(1).map(_irr_poly), _polys(2).map(_irr_poly))
    def test_matches_the_heuristic(self, t, p, q):
        assume(_irreducible(*_terms(t)))
        two = Poly.const(2)  # 2*t has content 2, so it is no certified operand
        for a, b in ((t * p, t * q), (t * p, q), (t, t * p), (t * two, t * p)):
            for positive in (False, True):
                for pair in ((a, b), (b, a)):
                    got, want = (
                        None if found is None else [(g.vars, g.terms) for g in found]
                        for found in (_gcd(*pair, positive), _heuristic_reference(*pair, positive))
                    )
                    assert got == want, (pair, positive)

    def test_heuristic_is_not_asked(self, monkeypatch):
        import geomcrystal.ratfun as ratfun

        def refuse(a, b, m):
            raise AssertionError("GCDHEU ran")

        monkeypatch.setattr(ratfun, "_heuristic_gcd", refuse)
        a, b, s = (var(name).num for name in ("a", "b", "s"))
        one = Poly.const(1)
        for text, other in (("a*s + b*s + 1", a - b), ("x*y - z", (x + y * z).num), ("-x - y + 1", (x * y + 2).num)):
            t = parse(text).num
            g, qa, qb = _gcd(t * other, t, False)
            assert g * qa == t * other and g * qb == t
            assert g.leading_coefficient() > 0 and qb == (one if g == t else -one)
            assert _gcd(other + one, t, False) is None  # coprime: one division says so
        # positive: the cofactor a - b has a negative coefficient
        assert _gcd(a * s + b * s + one, (a - b) * (a * s + b * s + one), True) is None


class TestRandintRounds:
    """``randint_rounds`` against successive ``random.Random.randint``
    calls: the same values and the same generator state afterwards."""

    CODE_BOUNDS = [(-10, 10), (-5, 5), (1, 60), (1, 9)] + [(1, top) for top in range(1, 9)]
    EDGE_BOUNDS = [(0, 0), (7, 7), (-4, -4)] + [
        (lo, lo + width - 1)
        for k in (1, 2, 5, 16, 31, 32, 33, 40)
        for width in (2**k, 2**k + 1)
        for lo in (0, -(2**k))
    ]

    @staticmethod
    def _reference(rng, bounds, count):
        return [tuple(rng.randint(lo, hi) for lo, hi in bounds) for _ in range(count)]

    @pytest.mark.parametrize("seed", [0, 7, 31001])
    @pytest.mark.parametrize("which", ["code", "edge"])
    def test_matches_randint(self, seed, which):
        bounds = tuple(self.CODE_BOUNDS if which == "code" else self.EDGE_BOUNDS)
        for count in (0, 1, 3, 50):
            fast, slow = random.Random(seed), random.Random(seed)
            assert randint_rounds(fast, bounds, count) == self._reference(slow, bounds, count)
            assert fast.getstate() == slow.getstate()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        bounds=st.lists(
            st.tuples(st.integers(-(2**40), 2**40), st.integers(0, 2**34)).map(lambda t: (t[0], t[0] + t[1])),
            max_size=8,
        ),
        count=st.integers(0, 5),
    )
    def test_matches_randint_on_random_bounds(self, seed, bounds, count):
        fast, slow = random.Random(seed), random.Random(seed)
        assert randint_rounds(fast, tuple(bounds), count) == self._reference(slow, bounds, count)
        assert fast.getstate() == slow.getstate()

    def test_empty_range(self):
        with pytest.raises(ValueError, match="empty range 3..2"):
            randint_rounds(random.Random(0), ((0, 5), (3, 2)), 1)
