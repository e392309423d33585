"""Structural tropicalization of subtraction-free rational maps.

A certified rational function is read over the max-plus semiring:
multiplication becomes addition, division subtraction, addition becomes
max, a power a multiple, and positive constants become 0.  The reading
walks the value's construction-history certificate itself, the one tree
kept for the formula, so its size stays linear in the formula.  The
independent degree oracle proves pointwise correctness: it reads only the
expanded num and den, never the certificate, and takes the top degree of
their Laurent collapse under the monomial co-character.  Both evaluate a
whole batch of points at once (:meth:`TropExpr.eval_many`,
:func:`degree_oracle_many`).

The semiring is (Z, max, +) without minus infinity: a certified value
is a nonzero subtraction-free expression, so every max has at least one
argument and every expression evaluates to an integer.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping

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


class TropExpr:
    """A certificate read in the max-plus semiring, over a fixed ordered
    variable tuple."""

    __slots__ = ("vars", "cert")

    def __init__(self, vars: tuple, cert):
        self.vars = tuple(vars)
        self.cert = cert

    def eval(self, point):
        """Evaluate at an integer vector (aligned with :attr:`vars`) or a
        mapping {name: int}; returns an int."""
        return self.eval_many([point])[0]

    def eval_many(self, points) -> list:
        """Evaluate at each point of a batch (each as in :meth:`eval`);
        returns a list of ints in point order.

        The batch is coerced once, then the certificate is walked once for
        the whole batch: every node becomes a column over all points,
        streamed through ``map`` so no intermediate column is kept."""
        points = list(points)
        rows = _int_rows(points, self.vars)
        if rows is None:
            rows = [_coerce_point(point, self.vars) for point in points]
        if not rows:
            return []
        return list(_column(self.cert, dict(zip(self.vars, zip(*rows))), len(rows)))

    def __str__(self) -> str:
        return _prefix(self.cert)

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


def _column(node, columns: Mapping, count: int):
    """Iterator over the max-plus value of the certificate ``node`` at each
    point; ``columns[name]`` holds that variable over the batch of ``count``
    points."""
    if isinstance(node, CVar):
        return iter(columns[node.name])
    if isinstance(node, CMul):
        parts = [_column(a, columns, count) for a in _factors(node)]
        if not parts:
            return itertools.repeat(0, count)
        total = parts[0]
        for part in parts[1:]:
            total = map(operator.add, total, part)
        return total
    if isinstance(node, CAdd):
        return map(max, *(_column(a, columns, count) for a in node.args))
    if isinstance(node, CDiv):
        num = _column(node.num, columns, count)
        if isinstance(node.den, CConst):
            return num
        return map(operator.sub, num, _column(node.den, columns, count))
    if isinstance(node, CPow):
        return map(operator.mul, _column(node.base, columns, count), itertools.repeat(node.exponent))
    if isinstance(node, CConst):
        return itertools.repeat(0, count)
    raise TypeError(f"unknown certificate node {node!r}")


def _prefix(node) -> str:
    """Prefix text of the max-plus reading of ``node``, by the rules of
    :func:`_column`: a product drops its constants, and a quotient by a
    constant is its numerator."""
    if isinstance(node, CVar):
        return node.name
    if isinstance(node, CConst):
        return "0"
    if isinstance(node, CAdd):
        return "(max " + " ".join(map(_prefix, node.args)) + ")"
    if isinstance(node, CMul):
        factors = _factors(node)
        if len(factors) < 2:
            return _prefix(factors[0]) if factors else "0"
        return "(+ " + " ".join(map(_prefix, factors)) + ")"
    if isinstance(node, CDiv):
        if isinstance(node.den, CConst):
            return _prefix(node.num)
        return f"(- {_prefix(node.num)} {_prefix(node.den)})"
    if isinstance(node, CPow):
        return f"(* {node.exponent} {_prefix(node.base)})"
    raise TypeError(f"unknown certificate node {node!r}")


def _factors(node: CMul) -> list:
    """The arguments of a product that are not constants (0 in max-plus)."""
    return [a for a in node.args if not isinstance(a, CConst)]


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
    return TropExpr(vars, f.cert)


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
