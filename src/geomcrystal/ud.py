"""Structural tropicalization of subtraction-free rational maps.

A certified rational function is rewritten over the max-plus semiring:
multiplication becomes addition, division subtraction, addition becomes
max, and positive constants become 0.  The rewriting walks the value's
construction-history certificate, so expression size stays linear in
the formula.  The independent degree oracle proves pointwise correctness:
it reads only the expanded num and den, never the certificate, and takes
the top degree of their Laurent collapse under the monomial co-character.
Both evaluate a whole batch of points at once (:meth:`TropExpr.eval_many`,
:func:`degree_oracle_many`).

The semiring is (Z, max, +) without minus infinity: a certified value
is a nonzero subtraction-free expression, so every max has at least one
argument and every expression evaluates to an integer.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping
from dataclasses import dataclass

from .gyt import SharpElement
from .ratfun import (
    CAdd,
    CConst,
    CDiv,
    CMul,
    CPow,
    CVar,
    RatFun,
    as_int,
    cert_variables,
)


class NotPositive(ValueError):
    """Tropicalization requires a subtraction-free certificate."""


@dataclass(frozen=True, slots=True)
class TVar:
    index: int


@dataclass(frozen=True, slots=True)
class TConst:
    pass


@dataclass(frozen=True, slots=True)
class TSum:
    args: tuple


@dataclass(frozen=True, slots=True)
class TDiff:
    pos: object
    neg: object


@dataclass(frozen=True, slots=True)
class TMax:
    args: tuple


def tmax(args) -> object:
    """Max node; a singleton collapses to its child.  An empty max has
    no value in the semiring."""
    kept = []
    for a in args:
        if isinstance(a, TMax):
            kept.extend(a.args)
        else:
            kept.append(a)
    if not kept:
        raise ValueError("max of no arguments")
    if len(kept) == 1:
        return kept[0]
    return TMax(tuple(kept))


def tsum(args) -> object:
    """Sum node; constants drop, a singleton collapses to its child."""
    kept = []
    for a in args:
        if isinstance(a, TSum):
            kept.extend(a.args)
        elif not isinstance(a, TConst):
            kept.append(a)
    if not kept:
        return TConst()
    if len(kept) == 1:
        return kept[0]
    return TSum(tuple(kept))


def tdiff(pos, neg) -> object:
    if isinstance(neg, TConst):
        return pos
    return TDiff(pos, neg)


def _scaled(node, k: int) -> object:
    if k == 0:
        return TConst()
    body = tsum([node] * abs(k))
    if k > 0:
        return body
    return tdiff(TConst(), body)


class TropExpr:
    """Max-plus expression over a fixed ordered variable tuple."""

    __slots__ = ("vars", "root")

    def __init__(self, vars: tuple, root):
        self.vars = tuple(vars)
        self.root = root

    def eval(self, point):
        """Evaluate at an integer vector (aligned with :attr:`vars`) or a
        mapping {name: int}; returns an int."""
        return self.eval_many([point])[0]

    def eval_many(self, points) -> list:
        """Evaluate at each point of a batch (each as in :meth:`eval`);
        returns a list of ints in point order.

        Each point is coerced once, then the tree is walked once for the
        whole batch: every node becomes a column over all points, streamed
        through ``map`` so no intermediate column is kept."""
        rows = [_coerce_point(point, self.vars) for point in points]
        if not rows:
            return []
        return list(_column(self.root, list(zip(*rows)), len(rows)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropExpr):
            return NotImplemented
        return self.vars == other.vars and self.root == other.root

    __hash__ = None

    def __str__(self) -> str:
        return _prefix(self.root, self.vars)

    def __repr__(self) -> str:
        return f"TropExpr({self})"


_INT = frozenset((int,))


def _coerce_point(point, vars: tuple) -> list:
    if isinstance(point, Mapping):
        values = [point[name] for name in vars]
    else:
        values = list(point)
        if len(values) != len(vars):
            raise ValueError(f"point has {len(values)} coordinates, expression has {len(vars)}")
    if not _INT.issuperset(map(type, values)):  # only plain ints skip the per-value check
        values = [as_int(x) for x in values]
    return values


def _column(node, columns: list, count: int):
    """Iterator over the values of ``node`` at each point; ``columns[i]``
    holds variable i over the batch of ``count`` points."""
    if isinstance(node, TVar):
        return iter(columns[node.index])
    if isinstance(node, TConst):
        return itertools.repeat(0, count)
    if isinstance(node, TSum):
        total = _column(node.args[0], columns, count)
        for a in node.args[1:]:
            total = map(operator.add, total, _column(a, columns, count))
        return total
    if isinstance(node, TDiff):
        return map(operator.sub, _column(node.pos, columns, count), _column(node.neg, columns, count))
    if isinstance(node, TMax):
        return map(max, *(_column(a, columns, count) for a in node.args))
    raise TypeError(f"unknown node {node!r}")


def _prefix(node, vars: tuple) -> str:
    if isinstance(node, TVar):
        return vars[node.index]
    if isinstance(node, TConst):
        return "0"
    if isinstance(node, TSum):
        return "(+ " + " ".join(_prefix(a, vars) for a in node.args) + ")"
    if isinstance(node, TDiff):
        return f"(- {_prefix(node.pos, vars)} {_prefix(node.neg, vars)})"
    if isinstance(node, TMax):
        return "(max " + " ".join(_prefix(a, vars) for a in node.args) + ")"
    raise TypeError(f"unknown node {node!r}")


def tropicalize(f: RatFun, vars: tuple | None = None) -> TropExpr:
    """Rewrite a certified value over the max-plus semiring.

    ``vars`` optionally fixes the variable order (it must cover the
    certificate's variables); by default the certificate's variables in
    sorted order are used.
    """
    if f.cert is None:
        raise NotPositive("value carries no subtraction-free certificate")
    names = cert_variables(f.cert)
    if vars is None:
        vars = tuple(sorted(names))
    else:
        vars = tuple(vars)
        missing = names - set(vars)
        if missing:
            raise ValueError(f"variable order misses {sorted(missing)}")
    index = {name: i for i, name in enumerate(vars)}
    return TropExpr(vars, _build(f.cert, index))


def _build(cert, index: Mapping):
    if isinstance(cert, CVar):
        return TVar(index[cert.name])
    if isinstance(cert, CConst):
        return TConst()
    if isinstance(cert, CAdd):
        return tmax([_build(a, index) for a in cert.args])
    if isinstance(cert, CMul):
        return tsum([_build(a, index) for a in cert.args])
    if isinstance(cert, CDiv):
        return tdiff(_build(cert.num, index), _build(cert.den, index))
    if isinstance(cert, CPow):
        return _scaled(_build(cert.base, index), cert.exponent)
    raise TypeError(f"unknown certificate node {cert!r}")


def degree_oracle(f: RatFun, point) -> int:
    """Ground truth for tropicalization: the degree in ``c`` of ``f`` with
    each variable replaced by ``c`` to the power ``point[name]`` (a mapping;
    missing names count as 0)."""
    return degree_oracle_many(f, tuple(point), [point])[0]


def degree_oracle_many(f: RatFun, vars: tuple, points) -> list:
    """:func:`degree_oracle` at each point of a batch, each point an integer
    vector aligned with ``vars``; variables of ``f`` outside ``vars`` count
    as 0.

    The exponent vectors of the expanded num and den are decoded once.  At
    each point every term goes to its weighted degree, coefficients with
    equal degree are summed (the Laurent collapse), and the degree is the
    largest degree with a nonzero sum in num minus that in den.  This is
    ``f.subst_monomial(point).degree()`` for any input, certified or not,
    since normalization cancels no common factor.  Raises
    ``ZeroDivisionError`` where the denominator collapses to zero and
    ``ValueError`` where the numerator does.
    """
    vars = tuple(vars)
    num = _weighted_terms(f.num, vars)
    den = _weighted_terms(f.den, vars)
    out = []
    for point in points:
        values = _coerce_point(point, vars)
        low = _top_degree(den, values)
        if low is None:
            raise ZeroDivisionError("monomial substitution annihilates the denominator")
        high = _top_degree(num, values)
        if high is None:
            raise ValueError("degree of the zero rational function")
        out.append(high - low)
    return out


def _weighted_terms(poly, vars: tuple) -> list:
    """(((slot in vars, exponent), ...), coefficient) for each term."""
    slot = {name: i for i, name in enumerate(vars)}
    return [
        (tuple((slot[name], e) for name, e in zip(poly.vars, exps) if e and name in slot), c)
        for exps, c in poly.monomials()
    ]


def _top_degree(terms: list, values: list):
    """Largest weighted degree whose collapsed coefficient is nonzero, or
    None when every degree cancels."""
    sums = {}
    for exps, c in terms:
        d = sum(values[i] * e for i, e in exps)
        sums[d] = sums.get(d, 0) + c
    return max((d for d, s in sums.items() if s), default=None)


class TropMap:
    """Componentwise tropicalized map between co-character lattices."""

    __slots__ = ("vars", "names", "components")

    def __init__(self, vars: tuple, names: tuple, components: tuple):
        self.vars = tuple(vars)
        self.names = tuple(names)
        self.components = tuple(components)

    def eval(self, point) -> tuple:
        if not isinstance(point, Mapping):
            point = dict(zip(self.vars, point))
        return tuple(e.eval(point) for e in self.components)

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "components": {n: str(e) for n, e in zip(self.names, self.components)},
        }

    def __repr__(self) -> str:
        return f"TropMap({len(self.vars)} -> {len(self.components)})"


def ud_map(components, vars: tuple | None = None) -> TropMap:
    """Tropicalize a named family of certified values over a shared
    domain.  ``components`` is a sequence of (name, RatFun) pairs; by
    default the domain is the union of their variables, sorted."""
    items = list(components)
    if vars is None:
        vars = tuple(sorted({v for _, f in items for v in tropicalize(f).vars}))
    exprs = tuple(tropicalize(f, vars) for _, f in items)
    return TropMap(vars, tuple(name for name, _ in items), exprs)


# ---------------------------------------------------------------------------
# identification of the chart lattice with the tableau lattice


def chart_to_sharp(n: int, values: Mapping) -> SharpElement:
    """Send the chart coordinate (k, j), 1 <= k <= j <= n, to the stored
    slot (k, j+1) of the free crystal (the index shift j -> j+1)."""
    entries = {}
    for (k, j), val in values.items():
        if not 1 <= k <= j <= n:
            raise ValueError(f"chart index {(k, j)} out of range")
        entries[(k, j + 1)] = val
    return SharpElement(n, entries)


def sharp_to_chart(v: SharpElement) -> dict:
    """Inverse identification: slot (k, j) maps to coordinate (k, j-1)."""
    return {(k, j - 1): val for (k, j), val in v.entries.items()}
