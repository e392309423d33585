"""Exact multivariate rational functions over the rationals.

A value is a fraction of two multivariate polynomials with integer
coefficients, kept in canonical expanded form (sorted variables,
graded-lexicographic term order, no zero terms).  Fractions are *not*
reduced by polynomial GCD; equality is extensional, decided by cross
multiplication of the expanded forms.  The only normalization applied is
cheap bookkeeping: common monomial content is cancelled, unused variables
are dropped, the joint integer content of numerator and denominator is
divided out, the graded-lexicographically leading coefficient of the
denominator is made positive, and structurally identical factors cancel
across a product or quotient.  This keeps the representation
deterministic and printable bit-stably; the printed form divides through
by that leading coefficient, so it shows a monic denominator.

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
evaluation results and certificate constants.  No floating point is
used anywhere in this module: a float operand is rejected.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Iterator, Mapping, Sequence

_WIDTH = 16
_MASK = (1 << _WIDTH) - 1


class PoleError(ArithmeticError):
    """Evaluation point lies on the zero set of the denominator."""


def _rational(value) -> Q:
    """``value`` as an exact rational; floats and other inexact numbers
    are rejected rather than expanded into their binary value."""
    if isinstance(value, numbers.Rational):
        return Q(value)
    raise TypeError(f"not an exact rational: {value!r}")


def as_int(value) -> int:
    """``value`` as an exact integer; bools and inexact numbers are
    rejected rather than read as 1, 0 or a truncation."""
    if isinstance(value, bool):
        raise TypeError(f"not an integer: {value!r}")
    return operator.index(value)


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
    if old == new:
        return terms
    top_old, top_new = _WIDTH * len(old), _WIDTH * len(new)
    moves = [
        (top_old - _WIDTH * (i + 1), top_new - _WIDTH * (new.index(x) + 1))
        for i, x in enumerate(old)
        if x in new
    ]
    out: dict = {}
    for key, c in terms.items():
        nk = key >> top_old << top_new
        for src, dst in moves:
            nk |= ((key >> src) & _MASK) << dst
        out[nk] = c
    return out


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

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, value: int, vars: tuple = ()) -> "Poly":
        value = operator.index(value)
        return cls(vars, {0: value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls((name,), {_encode((1,)): 1})

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
        return Poly(vars, _add_into(dict(a), pairs))

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, negate=False)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, negate=True)

    def __neg__(self) -> "Poly":
        return Poly(self.vars, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        vars, a, b = self._aligned(other)
        if self._deg + other._deg >= _MASK:
            raise OverflowError("polynomial degree exceeds the packed-field capacity")
        if len(a) > len(b):  # iterate the smaller operand outermost
            a, b = b, a
        out: dict = {}
        _mul_into(out, a, b, negate=False)
        return Poly(vars, out)

    def __pow__(self, k: int) -> "Poly":
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

    def eval(self, point: Mapping[str, object]):
        total = Q(0)
        vals = [_rational(point[name]) if name in point else None for name in self.vars]
        for mono, c in self.monomials():
            term = c
            for idx, e in enumerate(mono):
                if e:
                    v = vals[idx]
                    if v is None:
                        raise KeyError(f"no value for variable {self.vars[idx]!r}")
                    term = term * v**e
            total = total + term
        return total

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
            self.num = Poly((), {})
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
        self.num = Poly(vars, nt)
        self.den = Poly(vars, dt)
        self.cert = cert
        if cert is not None and not (self.num.all_positive() and self.den.all_positive()):
            raise ValueError("positivity certificate on a value with negative coefficients")

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, value) -> "RatFun":
        value = _rational(value)
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
        cert = None
        if self.cert is not None and other.cert is not None:
            cert = _cadd(self.cert, other.cert)
        if self.den == other.den:  # shared denominator: no cross multiplication
            return RatFun(self.num + other.num, self.den, cert)
        return RatFun(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
            cert,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "RatFun":
        other = as_ratfun(other)
        if self.den == other.den:
            return RatFun(self.num - other.num, self.den)
        return RatFun(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other) -> "RatFun":
        return as_ratfun(other) - self

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __mul__(self, other) -> "RatFun":
        other = as_ratfun(other)
        cert = None
        if self.cert is not None and other.cert is not None:
            cert = _cmul(self.cert, other.cert)
        # structurally equal cross factors cancel without expansion
        if self.den == other.num:
            return RatFun(self.num, other.den, cert)
        if self.num == other.den:
            return RatFun(other.num, self.den, cert)
        return RatFun(self.num * other.num, self.den * other.den, cert)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = as_ratfun(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        cert = None
        if self.cert is not None and other.cert is not None:
            cert = CDiv(self.cert, other.cert)
        # structurally equal parallel factors cancel without expansion
        if self.den == other.den:
            return RatFun(self.num, other.num, cert)
        if self.num == other.num:
            return RatFun(other.den, self.den, cert)
        return RatFun(self.num * other.den, self.den * other.num, cert)

    def __rtruediv__(self, other) -> "RatFun":
        return as_ratfun(other) / self

    def __pow__(self, k: int) -> "RatFun":
        if k == 0:
            return RatFun.const(1)
        cert = CPow(self.cert, k) if self.cert is not None else None
        if k < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of the zero function")
            return RatFun(self.den**-k, self.num**-k, cert)
        return RatFun(self.num**k, self.den**k, cert)

    # -- evaluation / substitution -------------------------------------------

    def eval(self, point: Mapping[str, object]):
        """Exact value at a point given as ``{variable: rational}``."""
        d = self.den.eval(point)
        if d == 0:
            raise PoleError(f"pole at {dict(point)!r}")
        return self.num.eval(point) / d

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


ZERO = RatFun.const(0)
ONE = RatFun.const(1)
