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

from .gyt import SharpElement, sharp_pairs
from .ratfun import (
    CAdd,
    CConst,
    CDiv,
    CMul,
    CPow,
    CVar,
    RatFun,
    as_int,
    as_rank,
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

        The batch is coerced once, then the tree is walked once for the
        whole batch: every node becomes a column over all points, streamed
        through ``map`` so no intermediate column is kept."""
        points = list(points)
        rows = _int_rows(points, self.vars)
        if rows is None:
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
_ROW = frozenset((tuple, list))


def _int_rows(points: list, vars: tuple):
    """The batch itself when every point is a tuple or list of plain ints
    aligned with ``vars`` (one type scan over every value), else None: then
    each point goes through :func:`_coerce_point`."""
    if (
        _ROW.issuperset(map(type, points))
        and _INT.issuperset(map(type, itertools.chain.from_iterable(points)))
        and set(map(len, points)) <= {len(vars)}
    ):
        return points
    return None


def _coerce_point(point, vars: tuple) -> list:
    if isinstance(point, Mapping):
        missing = [name for name in vars if name not in point]
        if missing:
            raise ValueError(f"point misses coordinates {missing}")
        values = [point[name] for name in vars]
    else:
        values = list(point)
        if len(values) != len(vars):
            raise ValueError(f"point has {len(values)} coordinates, expression has {len(vars)}")
    coerced = []
    for name, x in zip(vars, values):
        try:
            coerced.append(as_int(x))
        except TypeError:
            raise TypeError(f"coordinate {name} = {x!r} is not an integer") from None
    return coerced


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
    vector aligned with ``vars`` or a mapping {name: int}; variables of
    ``f`` outside ``vars`` count as 0.

    The exponent vectors of the expanded num and den are decoded once, and
    each term becomes a column of its weighted degree over the batch.  The
    degree is the largest degree whose coefficients do not sum to zero (the
    Laurent collapse) in num minus that in den.  This is
    ``f.subst_monomial(point).degree()`` for any input, certified or not,
    since normalization cancels no common factor.  A polynomial whose
    coefficients are all positive cannot cancel, so its top degree is the
    column max; otherwise each point is collapsed.  Raises
    ``ZeroDivisionError`` where the denominator collapses to zero and
    ``ValueError`` where the numerator does; the first faulty point in
    batch order decides.
    """
    vars = tuple(vars)
    num = (_weighted_terms(f.num, vars), f.num.all_positive())
    den = (_weighted_terms(f.den, vars), f.den.all_positive())
    points = list(points)
    rows = _int_rows(points, vars)
    if rows is None:
        # point by point, so an earlier point's collapse raises before a
        # later point's coercion error
        return [_degrees(num, den, [_coerce_point(point, vars)])[0] for point in points]
    return _degrees(num, den, rows)


def _weighted_terms(poly, vars: tuple) -> list:
    """(((slot in vars, exponent), ...), coefficient) for each term."""
    slot = {name: i for i, name in enumerate(vars)}
    return [
        (tuple((slot[name], e) for name, e in zip(poly.vars, exps) if e and name in slot), c)
        for exps, c in poly.monomials()
    ]


def _degrees(num: tuple, den: tuple, rows: list) -> list:
    """The degree at each row of plain ints, with num and den each given as
    (weighted terms, all coefficients positive); the first row where den or
    num collapses raises, den first."""
    if not rows:
        return []
    columns = list(zip(*rows))
    low = _top_degrees(*den, columns, len(rows))
    high = _top_degrees(*num, columns, len(rows))
    if None in low or None in high:
        for a, b in zip(low, high):
            if a is None:
                raise ZeroDivisionError("monomial substitution annihilates the denominator")
            if b is None:
                raise ValueError("degree of the zero rational function")
    return list(map(operator.sub, high, low))


def _top_degrees(terms: list, positive: bool, columns: list, count: int) -> list:
    """At each point, the largest weighted degree whose collapsed
    coefficient is nonzero, or None when every degree cancels; with
    ``positive`` (no negative coefficient) nothing cancels."""
    if not terms:
        return [None] * count
    degrees = [_degree_column(exps, columns, count) for exps, _ in terms]
    if positive:
        return list(map(max, *degrees)) if len(degrees) > 1 else list(degrees[0])
    coeffs = [c for _, c in terms]
    return [_collapse(point, coeffs) for point in zip(*degrees)]


def _degree_column(exps: tuple, columns: list, count: int):
    """Iterator over the weighted degree of one term at each point."""
    if not exps:
        return itertools.repeat(0, count)
    total = None
    for i, e in exps:
        part = columns[i] if e == 1 else map(operator.mul, columns[i], itertools.repeat(e))
        total = iter(part) if total is None else map(operator.add, total, part)
    return total


def _collapse(degrees: tuple, coeffs: list):
    sums = {}
    for d, c in zip(degrees, coeffs):
        sums[d] = sums.get(d, 0) + c
    return max((d for d, s in sums.items() if s), default=None)


# ---------------------------------------------------------------------------
# identification of the chart lattice with the tableau lattice


def chart_to_sharp(n: int, values: Mapping) -> SharpElement:
    """Send the chart coordinate (k, j), 1 <= k <= j <= n, to the stored
    slot (k, j+1) of the free crystal (the index shift j -> j+1)."""
    n = as_rank(n)
    entries = dict.fromkeys(sharp_pairs(n), 0)
    for (k, j), val in values.items():
        if not 1 <= k <= j <= n:
            raise ValueError(f"chart index {(k, j)} out of range")
        entries[(k, j + 1)] = as_int(val)
    return SharpElement._trusted(n, tuple(entries.values()))


def point_to_sharp(n: int, point) -> SharpElement:
    """:func:`chart_to_sharp` of an int lattice point that starts with its chart
    coordinates in ``index_pairs`` order: the shift j -> j+1 keeps the order."""
    return SharpElement._trusted(n, tuple(point[: n * (n + 1) // 2]))
