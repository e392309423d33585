"""Exact multivariate rational functions over the rationals.

A value is a fraction of two multivariate polynomials with integer
coefficients, kept in canonical expanded form (sorted variables,
graded-lexicographic term order, no zero terms).  Equality is
extensional, decided by cross multiplication of the expanded forms, so a
fraction need not be in lowest terms.  The normalization every value gets
is cheap bookkeeping: common monomial content is cancelled, unused
variables are dropped, the joint integer content of numerator and
denominator is divided out, and the graded-lexicographically leading
coefficient of the denominator is made positive.  This keeps the
representation deterministic and printable bit-stably; the printed form
divides through by that leading coefficient, so it shows a monic
denominator.  Multiplying by one, or dividing by it, reuses the other
operand's normalized num and den as they are, and ``RatFun.const(0)`` and
``RatFun.const(1)`` return the shared values ``ZERO`` and ``ONE``.

The operators ``+ - * /`` cancel polynomial gcds as they go (Henrici,
JACM 1956): a product cancels each numerator against the other
denominator before it multiplies, and a sum cancels the gcd g of the
denominators and then only g against the new numerator, so on reduced
operands the result is reduced without taking the gcd of the large
expanded result.  :meth:`RatFun.reduced` is the one explicit step, for a
value built some other way.  The gcd is the heuristic GCDHEU, verified by
exact division; when it finds none, or declines to try, the value is left
as it is, which is always sound: equality is extensional.  Before GCDHEU,
an operand certified irreducible (primitive, of degree one in a variable
x, and t1*x + t0 with t1 or t0 a single term none of whose variables is
in every term, as a linear form is) settles the gcd by one exact
division: it is that operand when it divides the other one, else 1,
which is what GCDHEU would find.  Without the cancellation, iterated
crystal actions and matrix products swell to operands of thousands of
terms.

Values built exclusively from variables, positive rational constants,
``+``, ``*`` and ``/`` carry a subtraction-free certificate: the
construction-history expression tree.  The certificate is what the
tropicalization machinery rewrites structurally, and it also guarantees
that numerator and denominator have all-positive coefficients (checked
on construction).  Subtraction and negation drop the certificate.

Monomials are packed into single integers of 16-bit fields: the total
degree in the top field, then the exponents from the first variable of
the tuple down to the last in the lowest field.  A monomial product is
one integer addition, and integer order on keys is graded-lexicographic
order, so degree, leading term and term order are read off the keys
without decoding.  Every product checks that its total degree stays
below 2**16 - 1, and so does every packed key: an exponent never
overflows into the next field.  Rationals (``Q``) appear only in
certificate constants and as the one ``Q`` per point that an evaluation
returns: it sums integer terms over a cleared denominator, in columns over
a batch of points, and divides once per point.  No
floating point is used anywhere in this module: a float operand is
rejected.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import numbers
import operator
import re
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Iterator, Mapping, Sequence

_WIDTH = 16
_MASK = (1 << _WIDTH) - 1
_UNIT_TERMS = {0: 1}  # the terms of the constant polynomial 1


class PoleError(ArithmeticError):
    """Evaluation point lies on the zero set of the denominator."""


def _rational(value) -> Q:
    """``value`` as an exact rational; floats and other inexact numbers
    are rejected rather than expanded into their binary value, and bools
    rather than read as 1 or 0."""
    if isinstance(value, numbers.Rational) and not isinstance(value, bool):
        return Q(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _integer_ratio(value) -> tuple:
    """(p, q) with ``value == p/q`` and q > 0 in lowest terms, for an
    exact rational ``value``; inexact numbers raise ``TypeError``."""
    if type(value) is int:
        return value, 1
    if type(value) is not Q:
        value = _rational(value)
    return value.numerator, value.denominator


def _power_columns(ps: tuple, qs: tuple, top: int) -> list:
    """For e in 0..top, the column of p**e * q**(top - e) over the values
    p/q of one variable at a batch of points."""
    if top == 1:
        return [qs, ps]
    return [
        list(map(operator.mul, map(pow, ps, itertools.repeat(e)), map(pow, qs, itertools.repeat(top - e))))
        for e in range(top + 1)
    ]


def _term_sum(terms: dict, tables: list, count: int) -> list:
    """The column of sum(c * prod of factors) over the batch, each factor
    read from the (field shift, power columns) of a variable."""
    total = None
    for key, c in terms.items():
        column = itertools.repeat(c, count)
        for shift, factors in tables:
            column = map(operator.mul, column, factors[key >> shift & _MASK])
        total = column if total is None else map(operator.add, total, column)
    return [0] * count if total is None else list(total)


def as_int(value) -> int:
    """``value`` as an exact integer; bools and inexact numbers are
    rejected rather than read as 1, 0 or a truncation."""
    if isinstance(value, bool):
        raise TypeError(f"not an integer: {value!r}")
    return operator.index(value)


def as_rank(n) -> int:
    """``n`` as an exact integer rank, at least 1."""
    n = as_int(n)
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    return n


def check_direction(i: int, n: int) -> int:
    """``i`` itself when it is a direction 1..n of the rank-n crystal."""
    if not 1 <= i <= n:
        raise IndexError(f"direction {i} out of range 1..{n}")
    return i


def randint_rounds(rng, bounds: tuple, count: int) -> list:
    """``count`` rounds of one draw from each inclusive range (lo, hi) of
    ``bounds``, a tuple per round, with the values and final ``rng`` state of
    successive ``rng.randint(lo, hi)``: randint's getrandbits rejection loop."""
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        row = []
        for lo, hi in bounds:
            width = hi - lo + 1
            if width < 1:
                raise ValueError(f"empty range {lo}..{hi}")
            r = getrandbits(k := width.bit_length())
            while r >= width:
                r = getrandbits(k)
            row.append(lo + r)
        out.append(tuple(row))
    return out


def state_fields(data, what: str, field: str) -> tuple:
    """(n, {(k, j): value}) of a state document: a JSON object with an
    integer ``n`` and an object-valued ``field`` keyed by ``"k,j"``.
    Anything else is a ``ValueError`` saying that the document is not
    ``what``; the values are left for the caller to check."""
    if not isinstance(data, dict):
        raise ValueError(f"state file is not {what} (not a JSON object)")
    for key in (field, "n"):
        if key not in data:
            raise ValueError(f"state file is not {what} (no {key!r} field)")
    if type(data["n"]) is not int:
        raise ValueError(f"state file is not {what} ('n' is not an integer: {data['n']!r})")
    if not isinstance(data[field], dict):
        raise ValueError(f"state file is not {what} ({field!r} is not an object)")
    slots = {}
    for key, value in data[field].items():
        match = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*", key, re.ASCII)
        if match is None:
            raise ValueError(f"state file is not {what} (key {key!r} is not \"k,j\")")
        slots[(int(match[1]), int(match[2]))] = value
    return data["n"], slots


def _decode(key: int, width: int) -> tuple:
    return tuple((key >> shift) & _MASK for shift in range(_WIDTH * (width - 1), -1, -_WIDTH))


def _encode(exps) -> int:
    """Pack nonnegative exponents: the total degree on top, then one
    field per variable from the first down."""
    exps = tuple(exps)
    key = sum(exps)
    if key >= _MASK:
        raise OverflowError("polynomial degree exceeds the packed-field capacity")
    for e in exps:
        key = key << _WIDTH | e
    return key


# ---------------------------------------------------------------------------
# subtraction-free construction certificates


@dataclass(frozen=True, slots=True)
class CVar:
    name: str


@dataclass(frozen=True, slots=True)
class CConst:
    value: object  # positive rational


@dataclass(frozen=True, slots=True)
class CAdd:
    args: tuple


@dataclass(frozen=True, slots=True)
class CMul:
    args: tuple


@dataclass(frozen=True, slots=True)
class CDiv:
    num: object
    den: object


@dataclass(frozen=True, slots=True)
class CPow:
    base: object
    exponent: int


def _cadd(a, b):
    args = (a.args if isinstance(a, CAdd) else (a,)) + (
        b.args if isinstance(b, CAdd) else (b,)
    )
    return CAdd(args)


def _cmul(a, b):
    args = (a.args if isinstance(a, CMul) else (a,)) + (
        b.args if isinstance(b, CMul) else (b,)
    )
    return CMul(args)


def _joint_cert(make, a, b):
    """``make(a.cert, b.cert)``, or None unless both values are certified."""
    return None if a.cert is None or b.cert is None else make(a.cert, b.cert)


def cert_variables(node) -> set:
    """Collect the variable names referenced by a certificate tree."""
    out: set = set()
    stack = [node]
    while stack:
        c = stack.pop()
        if isinstance(c, CVar):
            out.add(c.name)
        elif isinstance(c, (CAdd, CMul)):
            stack.extend(c.args)
        elif isinstance(c, CDiv):
            stack.append(c.num)
            stack.append(c.den)
        elif isinstance(c, CPow):
            stack.append(c.base)
    return out


# ---------------------------------------------------------------------------
# polynomials


def _merge_vars(u: tuple, v: tuple) -> tuple:
    if u == v:
        return u
    return tuple(sorted(set(u) | set(v)))


def _remap_terms(terms: dict, old: tuple, new: tuple) -> dict:
    """Repack keys over ``old`` as keys over ``new``.  ``new`` may add
    variables (alignment) or drop variables whose exponents are all zero
    (narrowing); the degree field moves to the new top."""
    if old == new or not terms or not old:  # a constant's only key is 0
        return terms
    plan = _remap_plan(old, new)
    if len(plan) == 1:
        # one run from the degree field down: the fields it leaves out or
        # adds are the lowest ones and all zero, so the key just shifts
        src, _, dst = plan[0]
        if src > dst:
            return {key >> (src - dst): c for key, c in terms.items()}
        return {key << (dst - src): c for key, c in terms.items()}
    out: dict = {}
    for key, c in terms.items():
        nk = 0
        for src, mask, dst in plan:
            nk |= (key >> src & mask) << dst
        out[nk] = c
    return out


@functools.lru_cache(maxsize=512)
def _remap_plan(old: tuple, new: tuple) -> tuple:
    """(source shift, mask, destination shift) for each maximal run of
    fields that stay adjacent from ``old`` to ``new``.  Field p counts from
    the top: the degree field is p = 0 and the variable at index i is
    p = i + 1, at shift _WIDTH * (len - p).  Memoized: a computation
    repacks between few distinct pairs of variable tuples."""
    where = {x: q for q, x in enumerate(new, 1)}
    runs = []
    p0 = q0 = 0  # the top fields of the open run, which starts at the degree
    length = 1
    for p, x in enumerate(old, 1):
        q = where.get(x)
        if q is None:
            continue
        if p == p0 + length and q == q0 + length:
            length += 1
        else:
            runs.append((p0, q0, length))
            p0, q0, length = p, q, 1
    runs.append((p0, q0, length))
    lo, ln = len(old) + 1, len(new) + 1
    return tuple(
        (_WIDTH * (lo - p - k), (1 << _WIDTH * k) - 1, _WIDTH * (ln - q - k))
        for p, q, k in runs
    )


def _support(vars: tuple, *term_dicts) -> tuple:
    """The variables of ``vars`` with a nonzero exponent in some term."""
    used = 0
    for terms in term_dicts:
        for key in terms:
            used |= key
    top = _WIDTH * len(vars)
    return tuple(x for i, x in enumerate(vars) if (used >> (top - _WIDTH * (i + 1))) & _MASK)


class Poly:
    """Multivariate polynomial in canonical expanded form.

    ``vars`` is a sorted tuple of variable names; ``terms`` maps packed
    exponent keys (see the module docstring) to nonzero integer
    coefficients.  Instances are immutable by convention: no method
    mutates ``terms``.
    """

    __slots__ = ("vars", "terms", "_deg")

    def __init__(self, vars: tuple, terms: dict):
        self.vars = tuple(vars)
        self.terms = {k: c for k, c in terms.items() if c != 0}
        self._deg = max(self.terms) >> (_WIDTH * len(self.vars)) if self.terms else -1

    @classmethod
    def _trusted(cls, vars: tuple, terms: dict) -> "Poly":
        """Wrap ``terms`` without the zero-filtering copy.  The caller hands
        over a dict with no zero coefficient; it may be shared with another
        Poly (``RatFun`` normalization can pass an input's own dict through
        unchanged), so it must never be mutated."""
        self = object.__new__(cls)
        self.vars = vars
        self.terms = terms
        self._deg = max(terms) >> (_WIDTH * len(vars)) if terms else -1
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, value: int, vars: tuple = ()) -> "Poly":
        value = operator.index(value)
        return cls._trusted(tuple(vars), {0: value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls._trusted((name,), {_encode((1,)): 1})

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def all_positive(self) -> bool:
        return all(c > 0 for c in self.terms.values())

    def used_vars(self) -> set:
        return set(_support(self.vars, self.terms))

    # -- arithmetic ---------------------------------------------------------

    def _aligned(self, other: "Poly"):
        vars = _merge_vars(self.vars, other.vars)
        return (
            vars,
            _remap_terms(self.terms, self.vars, vars),
            _remap_terms(other.terms, other.vars, vars),
        )

    def _combine(self, other: "Poly", negate: bool) -> "Poly":
        vars, a, b = self._aligned(other)
        pairs = ((k, -c) for k, c in b.items()) if negate else b.items()
        return Poly._trusted(vars, _add_into(dict(a), pairs))

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, negate=False)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, negate=True)

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.vars, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        vars, a, b = self._aligned(other)
        if self._deg + other._deg >= _MASK:
            raise OverflowError("polynomial degree exceeds the packed-field capacity")
        if len(a) > len(b):  # iterate the smaller operand outermost
            a, b = b, a
        out: dict = {}
        _mul_into(out, a, b, negate=False)
        return Poly._trusted(vars, out)

    def __pow__(self, k: int) -> "Poly":
        k = as_int(k)
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1, self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- queries ------------------------------------------------------------

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial")
        return self._deg

    def monomials(self) -> Iterator:
        width = len(self.vars)
        for key, c in self.terms.items():
            yield _decode(key, width), c

    def leading_coefficient(self):
        """Coefficient of the graded-lexicographically largest term."""
        if not self.terms:
            raise ValueError("leading coefficient of the zero polynomial")
        return self.terms[max(self.terms)]

    def sorted_terms(self) -> Iterator:
        """(exponents, coefficient) pairs, graded-lexicographically largest
        first."""
        width = len(self.vars)
        for key in sorted(self.terms, reverse=True):
            yield _decode(key, width), self.terms[key]

    # -- comparison / output --------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        if self._deg != other._deg or len(self.terms) != len(other.terms):
            return False
        if self.vars == other.vars:
            return self.terms == other.terms
        _, a, b = self._aligned(other)
        return a == b

    def __hash__(self):
        # equal polynomials share their used variables and, over those in
        # sorted order, their packed terms
        canon = tuple(sorted(_support(self.vars, self.terms)))
        return hash((canon, frozenset(_remap_terms(self.terms, self.vars, canon).items())))

    def __str__(self) -> str:
        return self.text()

    def text(self, divisor: int = 1) -> str:
        """Canonical text of this polynomial divided by ``divisor``."""
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            if divisor != 1:
                coeff = Q(coeff, divisor)
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.vars, mono)
                if e
            ]
            mag = coeff if coeff > 0 else -coeff
            ms = str(mag)
            if "/" in ms:
                ms = f"({ms})"
            if not factors:
                body = ms
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = ms + "*" + "*".join(factors)
            parts.append(("-" if coeff < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"


def _add_into(out: dict, pairs) -> dict:
    """Add (key, coefficient) pairs into ``out``, dropping cancelled keys."""
    get = out.get
    for k, c in pairs:
        s = get(k)
        if s is None:
            out[k] = c
        else:
            s += c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _mul_into(out: dict, a: dict, b: dict, negate: bool):
    """Accumulate (+-) a*b into ``out`` over packed keys, dropping
    cancelled keys.  The one polynomial multiplication loop."""
    get = out.get
    items = list(b.items())
    for ka, ca in a.items():
        if negate:
            ca = -ca
        for kb, cb in items:
            k = ka + kb
            s = get(k)
            if s is None:
                out[k] = ca * cb
            else:
                s += ca * cb
                if s:
                    out[k] = s
                else:
                    del out[k]


# ---------------------------------------------------------------------------
# exact division and the heuristic gcd, over packed keys of m variables

_HALF = 1 << (_WIDTH - 1)  # exact division needs every field below this
_GCD_ROUNDS = 6
# GCDHEU's integer images grow with the product of the per-variable degrees,
# so larger operands are not tried (verify verma at n=5 reaches 1,244 terms
# and a degree box of 691,200; the ratio-chart (5,6) relation at n=6, 3,284
# and 8,294,400)
_GCD_MAX_TERMS = 4096
_GCD_MAX_BOX = 1 << 24


def _exact_quotient(a: dict, b: dict, m: int):
    """a / b when b divides a exactly over the integers, else None.

    Grlex long division: each step divides the leading term of the
    remainder, popped from a heap, by the leading term of b.  A monomial
    quotient is one subtraction with a guard bit set on top of each
    field: a field that borrows clears its guard, so the monomial does not
    divide.  That needs every exponent below 2**15; above it the division
    is not tried and None is returned.
    """
    lead, top = max(b), _WIDTH * m
    if max(a) >> top >= _HALF or lead >> top >= _HALF:
        return None
    guard = ((1 << _WIDTH * (m + 1)) - 1) // _MASK * _HALF
    # the trailing terms must divide as the leading ones do
    low_a, low_b = min(a), min(b)
    if ((low_a | guard) - low_b) & guard != guard or a[low_a] % b[low_b]:
        return None
    lc = b[lead]
    rest = [(k, c) for k, c in b.items() if k != lead]
    r = dict(a)
    heap = [-k for k in r]
    heapq.heapify(heap)
    out: dict = {}
    while r:
        k = -heapq.heappop(heap)
        c = r.pop(k, None)
        if c is None:  # cancelled, or a duplicate heap entry
            continue
        d = (k | guard) - lead
        qc, rem = divmod(c, lc)
        if rem or d & guard != guard:
            return None
        qk = d ^ guard
        out[qk] = qc
        for kb, cb in rest:
            kk = qk + kb
            s = r.get(kk)
            if s is None:
                r[kk] = -qc * cb
                heapq.heappush(heap, -kk)
            elif s == qc * cb:
                del r[kk]
            else:
                r[kk] = s - qc * cb
    return out


def _eval_top(terms: dict, m: int, x: int) -> dict:
    """Substitute the integer x for the first of m variables."""
    low = _WIDTH * (m - 1)
    rest = (1 << low) - 1
    powers = [1]
    for _ in range(max(k >> low & _MASK for k in terms)):
        powers.append(powers[-1] * x)
    out: dict = {}
    for k, c in terms.items():
        e = k >> low & _MASK
        nk = ((k >> low + _WIDTH) - e) << low | k & rest
        out[nk] = out.get(nk, 0) + c * powers[e]
    return {k: c for k, c in out.items() if c}


def _interpolate(image: dict, x: int, m: int) -> dict:
    """Lift an image over the last m - 1 variables back to m variables:
    each coefficient is written in balanced base-x digits, and digit e is
    the coefficient of the first variable to the power e."""
    low = _WIDTH * (m - 1)
    rest = (1 << low) - 1
    half = x // 2
    out: dict = {}
    for k, c in image.items():
        deg, e = k >> low, 0
        while c:
            digit = c % x
            if digit > half:
                digit -= x
            if digit:
                out[(deg + e) << low + _WIDTH | e << low | k & rest] = digit
            c = (c - digit) // x
            e += 1
    return out


def _heuristic_gcd(a: dict, b: dict, m: int):
    """(g, a/g, b/g) for the polynomial gcd g of a and b, or None.

    GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 1989): substitute an
    integer xi for the first variable and recurse on the images, down to
    an integer gcd; interpolate the gcd image (or a cofactor image) from
    its balanced xi-adic digits and keep it only when it divides both
    inputs exactly.  At most six values of xi are tried.  A constant gcd
    image ends the search at once: 1 divides everything.
    """
    content = math.gcd(*a.values(), *b.values())
    if content != 1:
        a = {k: c // content for k, c in a.items()}
        b = {k: c // content for k, c in b.items()}
    na, nb = max(map(abs, a.values())), max(map(abs, b.values()))
    bound = 2 * min(na, nb) + 29
    x = max(
        min(bound, 99 * math.isqrt(bound)),
        2 * min(na // abs(a[max(a)]), nb // abs(b[max(b)])) + 4,
    )
    for _ in range(_GCD_ROUNDS):
        fa, fb = _eval_top(a, m, x), _eval_top(b, m, x)
        if fa and fb:
            if m == 1:
                g = math.gcd(fa[0], fb[0])
                image = ({0: g}, {0: fa[0] // g}, {0: fb[0] // g})
            else:
                image = _heuristic_gcd(fa, fb, m - 1)
                if image is None:
                    return None
            g = _interpolate(image[0], x, m)
            if list(g) == [0]:
                return {0: content}, a, b
            g_content = math.gcd(*g.values())
            found = _cofactors(a, b, {k: c // g_content for k, c in g.items()}, m)
            # else the gcd as a quotient by an interpolated cofactor
            for side, co in ((a, image[1]), (b, image[2])):
                if found is None:
                    g = _exact_quotient(side, _interpolate(co, x, m), m)
                    found = None if g is None else _cofactors(a, b, g, m)
            if found is not None:
                g, qa, qb = found
                return {k: c * content for k, c in g.items()}, qa, qb
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    return None


def _irreducible(t: dict, m: int) -> bool:
    """True when t, over packed keys of m variables with every exponent
    below 2**15, is certified irreducible: t is primitive, and for some
    variable x it reads t1*x + t0 with t1, t0 nonzero and free of x, where
    t1 or t0 is a single term none of whose variables is in every term of
    t.  False says nothing.

    In a factorization of t one factor is free of x, since t has degree
    one in x, and it divides both t1 and t0.  A common divisor of a term
    and a polynomial that no variable of the term divides is an integer,
    and it divides the content of t, which is 1.

    One scan reads each term's variables as the guard bits of their
    fields (a field of 1 or more keeps its guard after subtracting 1);
    then x is a variable with no exponent above 1 that is in exactly one
    term (that term is t1*x) or in all terms but one (the other term is
    t0)."""
    if len(t) < 2 or math.gcd(*t.values()) != 1:
        return False
    guard = ((1 << _WIDTH * m) - 1) // _MASK * _HALF
    ones = guard >> _WIDTH - 1
    high = in_one = in_two = out_one = out_two = 0
    common = guard
    used = []
    for k in t:
        u = ((k | guard) - ones) & guard
        high |= ((k | guard) - 2 * ones) & guard  # an exponent of 2 or more
        in_two |= in_one & u
        in_one |= u
        out_two |= out_one & ~u
        out_one |= guard & ~u
        common &= u
        used.append(u)
    lone = in_one & ~in_two & ~high
    all_but_one = out_one & ~out_two & ~high
    return any((u & lone or ~u & all_but_one) and not u & common for u in used)


def _cofactors(a: dict, b: dict, g: dict, m: int):
    """(g, a/g, b/g) with a positive grlex-leading coefficient of g, when
    g divides both exactly, else None."""
    qa = _exact_quotient(a, g, m)
    qb = None if qa is None else _exact_quotient(b, g, m)
    if qb is None:
        return None
    if g[max(g)] < 0:
        g, qa, qb = ({k: -c for k, c in t.items()} for t in (g, qa, qb))
    return g, qa, qb


# ---------------------------------------------------------------------------
# rational functions


class RatFun:
    """Fraction of two :class:`Poly` values with an optional positivity
    certificate.

    Equality is extensional.  Instances are immutable; all operations are
    pure, so values can be shared freely across threads.
    """

    __slots__ = ("num", "den", "cert")

    def __init__(self, num: Poly, den: Poly, cert=None):
        if den.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        if num.is_zero:
            self.num = Poly._trusted((), {})
            self.den = Poly.const(1)
            self.cert = None
            return
        vars, nt, dt = num._aligned(den)
        nt, dt = _strip_monomial_content(vars, nt, dt)
        # drop the variables no term uses: the support is the canonical tuple
        used = _support(vars, nt, dt)
        vars, nt, dt = used, _remap_terms(nt, vars, used), _remap_terms(dt, vars, used)
        content = math.gcd(*nt.values(), *dt.values())
        if dt[max(dt)] < 0:  # the grlex-leading denominator coefficient
            content = -content
        if content != 1:
            nt = {m: c // content for m, c in nt.items()}
            dt = {m: c // content for m, c in dt.items()}
        self.num = Poly._trusted(vars, nt)
        self.den = Poly._trusted(vars, dt)
        self.cert = cert
        if cert is not None and not (self.num.all_positive() and self.den.all_positive()):
            raise ValueError("positivity certificate on a value with negative coefficients")

    # -- constructors -------------------------------------------------------

    @classmethod
    def _wrap(cls, num: Poly, den: Poly, cert) -> "RatFun":
        """Wrap a normalized num and den without normalizing them again."""
        self = object.__new__(cls)
        self.num, self.den, self.cert = num, den, cert
        return self

    @classmethod
    def const(cls, value) -> "RatFun":
        value = _rational(value)
        if value == 0:
            return ZERO
        if value == 1:
            return ONE
        cert = CConst(value) if value > 0 else None
        return cls(Poly.const(value.numerator), Poly.const(value.denominator), cert)

    @classmethod
    def var(cls, name: str) -> "RatFun":
        return cls(Poly.variable(name), Poly.const(1), CVar(name))

    # -- predicates / accessors ---------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def positive_cert(self) -> bool:
        return self.cert is not None

    @property
    def variables(self) -> tuple:
        return self.num.vars

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "RatFun":
        other = as_ratfun(other)
        return self._sum(other.num, other.den, _joint_cert(_cadd, self, other))

    __radd__ = __add__

    def __sub__(self, other) -> "RatFun":
        other = as_ratfun(other)
        return self._sum(-other.num, other.den, None)

    def _sum(self, c: Poly, d: Poly, cert) -> "RatFun":
        """``self + c/d`` with certificate ``cert``.  With g the gcd of the
        denominators b and d, the sum is (a*(d/g) + c*(b/g)) / (b*d/g), and
        only g can share a factor with that numerator."""
        a, b = self.num, self.den
        if b == d:  # shared denominator: no cross multiplication
            return RatFun(a + c, b, cert).reduced()
        found = _gcd(b, d, cert is not None)
        if found is None:
            return RatFun(a * d + c * b, b * d, cert)
        g, b, d = found
        num = a * d + c * b
        found = _gcd(num, g, cert is not None)
        if found is not None:
            _, num, g = found
        return RatFun(num, b * d * g, cert)

    def __rsub__(self, other) -> "RatFun":
        return as_ratfun(other) - self

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    @property
    def _is_one(self) -> bool:
        return self.num.terms == _UNIT_TERMS and self.den.terms == _UNIT_TERMS

    def __mul__(self, other) -> "RatFun":
        other = as_ratfun(other)
        cert = _joint_cert(_cmul, self, other)
        # a factor one leaves the other operand's normalized num and den
        if other._is_one:
            return RatFun._wrap(self.num, self.den, cert)
        if self._is_one:
            return RatFun._wrap(other.num, other.den, cert)
        return self._product(other.num, other.den, cert)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = as_ratfun(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        cert = _joint_cert(CDiv, self, other)
        if other._is_one:
            return RatFun._wrap(self.num, self.den, cert)
        return self._product(other.den, other.num, cert)

    def _product(self, c: Poly, d: Poly, cert) -> "RatFun":
        """``self * c/d`` with certificate ``cert``, each numerator
        cancelled against the other denominator first; a structurally
        equal pair cancels without expansion."""
        a, b = self.num, self.den
        if c == b:
            return RatFun(a, d, cert).reduced()
        if a == d:
            return RatFun(c, b, cert).reduced()
        found = _gcd(a, d, cert is not None)
        if found is not None:
            _, a, d = found
        found = _gcd(c, b, cert is not None)
        if found is not None:
            _, c, b = found
        return RatFun(a * c, b * d, cert)

    def __rtruediv__(self, other) -> "RatFun":
        return as_ratfun(other) / self

    def __pow__(self, k: int) -> "RatFun":
        k = as_int(k)
        if k == 0:
            return RatFun.const(1)
        cert = CPow(self.cert, k) if self.cert is not None else None
        if k < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of the zero function")
            return RatFun(self.den**-k, self.num**-k, cert)
        return RatFun(self.num**k, self.den**k, cert)

    def reduced(self) -> "RatFun":
        """This value with num and den divided by their polynomial gcd
        (:func:`_gcd`), keeping the certificate; ``self`` itself when
        there is nothing to cancel.  Leaving a value unreduced is always
        sound: equality is extensional."""
        found = _gcd(self.num, self.den, self.cert is not None)
        return self if found is None else RatFun(found[1], found[2], self.cert)

    # -- evaluation / substitution -------------------------------------------

    def eval(self, point: Mapping[str, object]):
        """Exact value at a point ``{variable: rational}``: :meth:`eval_many` of one point."""
        return self.eval_many([point])[0]

    def eval_many(self, points) -> list:
        """Exact values at each point of a batch, each point a mapping
        ``{variable: rational}``; a list of ``Fraction`` in point order.

        Every value of a variable of this function must be rational
        (``TypeError`` otherwise); the whole batch is checked first.  Then
        the first point, in batch order, where a variable of the denominator
        has no value (``KeyError``), the point is a pole (:class:`PoleError`)
        or a variable of the numerator has no value (``KeyError``) raises.

        The exponents are decoded once per batch and each term is summed as
        a column over the points, with num and den over one cleared
        denominator: a variable with value p/q and largest exponent E
        contributes p^e * q^(E-e) to a term of exponent e, so both sums are
        scaled by the same positive factor, which cancels in the one
        ``Fraction`` returned per point."""
        vars, num, den = self.num.vars, self.num.terms, self.den.terms
        points = list(points)
        rows = [[_integer_ratio(p[name]) if name in p else None for name in vars] for p in points]
        shifts = [_WIDTH * idx for idx in reversed(range(len(vars)))]
        tables = []
        for shift, column in zip(shifts, zip(*rows)):
            # a missing value reads as 1: such a point raises below
            ps, qs = zip(*((1, 1) if value is None else value for value in column))
            high = max(key >> shift & _MASK for key in itertools.chain(num, den))
            tables.append((shift, _power_columns(ps, qs, high)))
        nums, dens = _term_sum(num, tables, len(points)), _term_sum(den, tables, len(points))
        if 0 in dens or None in itertools.chain.from_iterable(rows):
            for point, row, d in zip(points, rows, dens):
                missing = [(shift, name) for shift, name, value in zip(shifts, vars, row) if value is None]
                _check_bound(den, missing)
                if d == 0:
                    raise PoleError(f"pole at {dict(point)!r}")
                _check_bound(num, missing)
        return list(map(Q, nums, dens))

    def subst_monomial(self, exponents) -> "RatFun":
        """Substitute each variable by ``c`` raised to the given integer.

        ``exponents`` is a mapping ``{variable: int}``; missing names count
        as 0.  Negative exponents are allowed; the Laurent fraction is
        cleared into an ordinary fraction in the single variable ``c``.
        The positivity certificate is preserved: a certified value expands
        with positive coefficients only, so no cancellation can occur while
        collecting.
        """
        weights = [as_int(exponents.get(name, 0)) for name in self.num.vars]
        num_l = _laurent_collapse(self.num, weights)
        den_l = _laurent_collapse(self.den, weights)
        if not den_l:
            raise ZeroDivisionError("monomial substitution annihilates the denominator")
        if not num_l:
            return RatFun(Poly(("c",), {}), Poly.const(1, ("c",)))
        low = min(min(num_l), min(den_l), 0)
        num_t = {e - low: c for e, c in num_l.items()}
        den_t = {e - low: c for e, c in den_l.items()}
        cert = None
        if self.cert is not None:
            cert = CDiv(_poly_cert_univariate(num_t), _poly_cert_univariate(den_t))
        num = Poly(("c",), {_encode((e,)): c for e, c in num_t.items()})
        den = Poly(("c",), {_encode((e,)): c for e, c in den_t.items()})
        return RatFun(num, den, cert)

    def degree(self) -> int:
        """deg(num) - deg(den) for a univariate (or constant) value."""
        if self.is_zero:
            raise ValueError("degree of the zero rational function")
        used = self.num.used_vars() | self.den.used_vars()
        if len(used) > 1:
            raise ValueError(f"degree of a multivariate value (variables {sorted(used)})")
        return self.num.total_degree() - self.den.total_degree()

    # -- comparison / output ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun):
            try:
                other = RatFun.const(other)
            except TypeError:
                return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        if max(self.num._deg + other.den._deg, other.num._deg + self.den._deg) >= _MASK:
            raise OverflowError("polynomial degree exceeds the packed-field capacity")
        # fused cross multiplication: num*other.den - other.num*den == 0
        vars = _merge_vars(self.num.vars, other.num.vars)
        an = _remap_terms(self.num.terms, self.num.vars, vars)
        ad = _remap_terms(self.den.terms, self.den.vars, vars)
        bn = _remap_terms(other.num.terms, other.num.vars, vars)
        bd = _remap_terms(other.den.terms, other.den.vars, vars)
        diff: dict = {}
        _mul_into(diff, an, bd, negate=False)
        _mul_into(diff, bn, ad, negate=True)
        return not diff

    __hash__ = None  # extensional equality is incompatible with hashing

    def __str__(self) -> str:
        # printed with a monic denominator: divide by its leading coefficient
        lead = self.den.leading_coefficient()
        if self.den.total_degree():
            return f"({self.num.text(lead)}) / ({self.den.text(lead)})"
        return self.num.text(lead)

    def __repr__(self) -> str:
        return f"RatFun({self})"


def _strip_monomial_content(vars: tuple, nt: dict, dt: dict):
    """Cancel the common per-variable minimum exponent of all terms."""
    if not vars:
        return nt, dt
    width = len(vars)
    shifts = range(_WIDTH * (width - 1), -1, -_WIDTH)
    low = None
    # the denominator first: its constant term, if any, ends the scan
    for terms in (dt, nt):
        for key in terms:
            if low is None:
                low = list(_decode(key, width))
            else:
                for i, shift in enumerate(shifts):
                    e = (key >> shift) & _MASK
                    if e < low[i]:
                        low[i] = e
            if not any(low):
                return nt, dt
    shift = _encode(low)
    nt = {k - shift: c for k, c in nt.items()}
    dt = {k - shift: c for k, c in dt.items()}
    return nt, dt


def _gcd(a: Poly, b: Poly, positive: bool):
    """(g, a/g, b/g) for the polynomial gcd g of a and b, or None when
    either is a monomial (:class:`RatFun` cancels monomial content on its
    own), g is a constant, the heuristic gcd finds none, an exponent
    reaches 2**15, an operand is too large to try (more than
    ``_GCD_MAX_TERMS`` terms, or a degree box above ``_GCD_MAX_BOX``), or
    ``positive`` asks for cofactors without a negative coefficient and one
    has one (as (x^3+1)/(x+1) does).

    Past those guards, an operand t that :func:`_irreducible` certifies
    skips GCDHEU: the only divisors of t are 1, -1, t and -t, so the gcd
    is t when t divides the other operand exactly and 1 otherwise, and
    :func:`_cofactors` returns it as GCDHEU does, with a positive leading
    coefficient."""
    if len(a.terms) < 2 or len(b.terms) < 2 or max(a._deg, b._deg) >= _HALF:
        return None
    if max(len(a.terms), len(b.terms)) > _GCD_MAX_TERMS:
        return None
    vars, at, bt = a._aligned(b)
    m = len(vars)
    # (1 + the total degree) ** m bounds the degree box without a scan
    if (1 + max(a._deg, b._deg)) ** m > _GCD_MAX_BOX and _degree_box(at, bt, m) > _GCD_MAX_BOX:
        return None
    # the gcd with an irreducible operand t is t or 1: one division decides
    t = next((t for t in (at, bt) if _irreducible(t, m)), None)
    found = _heuristic_gcd(at, bt, m) if t is None else _cofactors(at, bt, t, m)
    if found is None or list(found[0]) == [0]:
        return None
    if positive and min(*found[1].values(), *found[2].values()) < 0:
        return None
    return tuple(Poly._trusted(vars, t) for t in found)


def _degree_box(a: dict, b: dict, m: int) -> int:
    """The product over the m variables of one plus the largest exponent
    of the variable in a or b."""
    keys = [*a, *b]
    box = 1
    for shift in range(0, _WIDTH * m, _WIDTH):
        box *= 1 + max(key >> shift & _MASK for key in keys)
    return box


def _check_bound(terms: dict, missing: list):
    """Raise ``KeyError`` for the first variable, in term order, that a
    term uses and that has no value; ``missing`` holds the (field shift,
    name) of each variable without a value."""
    for key in terms:
        for shift, name in missing:
            if (key >> shift) & _MASK:
                raise KeyError(f"no value for variable {name!r}")


def _laurent_collapse(poly: Poly, weights: Sequence[int]) -> dict:
    """Map each monomial to its weighted degree, collecting coefficients."""
    return _add_into(
        {}, ((sum(w * k for w, k in zip(weights, mono)), c) for mono, c in poly.monomials())
    )


def _poly_cert_univariate(terms: dict):
    parts = []
    for e, c in sorted(terms.items(), reverse=True):
        if c <= 0:
            raise AssertionError("certificate rebuild on non-positive coefficients")
        if e == 0:
            parts.append(CConst(c))
        else:
            power = CVar("c") if e == 1 else CPow(CVar("c"), e)
            parts.append(power if c == 1 else CMul((CConst(c), power)))
    if len(parts) == 1:
        return parts[0]
    return CAdd(tuple(parts))


# ---------------------------------------------------------------------------
# parsing of the canonical text form


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\[[0-9]+(?:,[0-9]+)*\])?)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        pos = m.end()
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ValueError(f"expected {op!r}, got {val!r}")

    def expr(self) -> "RatFun":
        value = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.pos += 1
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def term(self) -> "RatFun":
        value = self.unary()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.pos += 1
                rhs = self.unary()
                value = value * rhs if val == "*" else value / rhs
            else:
                return value

    def unary(self) -> "RatFun":
        negate = False
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "-":
                self.pos += 1
                negate = not negate
            else:
                break
        value = self.power()
        return -value if negate else value

    def power(self) -> "RatFun":
        value = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.pos += 1
            sign = 1
            kind, val = self.peek()
            if kind == "op" and val == "-":
                self.pos += 1
                sign = -1
            kind, val = self.take()
            if kind != "int":
                raise ValueError("exponent must be an integer")
            value = value ** (sign * val)
        return value

    def atom(self) -> "RatFun":
        kind, val = self.take()
        if kind == "int":
            return RatFun.const(val)
        if kind == "name":
            return RatFun.var(val)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ValueError(f"unexpected token {val!r}" if kind else "unexpected end of input")


def parse(text: str) -> RatFun:
    """Parse the canonical text form (and ordinary +-*/^ expressions)."""
    parser = _Parser(_tokenize(text))
    value = parser.expr()
    if parser.pos != len(parser.tokens):
        raise ValueError(f"trailing input at token {parser.pos}")
    return value


def as_ratfun(value) -> RatFun:
    """``value`` itself if it is a :class:`RatFun`, else the constant it
    names (an int or a rational; a float raises :class:`TypeError`)."""
    return value if isinstance(value, RatFun) else RatFun.const(value)


def var(name: str) -> RatFun:
    return RatFun.var(name)


def const(value) -> RatFun:
    return RatFun.const(value)


# the values RatFun.const(0) and RatFun.const(1) return; sharing them is
# safe because a RatFun is immutable
ZERO = RatFun(Poly.const(0), Poly.const(1))
ONE = RatFun(Poly.const(1), Poly.const(1), CConst(Q(1)))
