"""Structural tropicalization of subtraction-free rational maps.

A certified rational function is read over the max-plus semiring:
multiplication becomes addition, division subtraction, addition becomes
max, a power a multiple, and positive constants become 0.  The reading
walks the value's construction-history certificate itself, the one tree
kept for the formula, so its size stays linear in the formula.  The
independent degree oracle proves pointwise correctness: it reads only the
expanded num and den, never the certificate, and takes the top degree of
their Laurent collapse under the monomial co-character.  Both evaluate
many formulas over one batch of points at once, in columns over the
batch: :func:`eval_columns` walks all the certificates together and
computes each distinct node (by identity) once, since formulas built from
the same chart share their subexpressions; :func:`degree_columns`
computes each distinct monomial of all the expanded nums and dens once.
:meth:`TropExpr.eval_many` and :func:`degree_oracle_many` are their
one-formula calls, and :meth:`TropExpr.eval` and :func:`degree_oracle`
their one-point calls.

The semiring is (Z, max, +) without minus infinity: a certified value
is a nonzero subtraction-free expression, so every max has at least one
argument and every expression evaluates to an integer.
"""

from __future__ import annotations

import collections
import functools
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
        returns a list of ints in point order: :func:`eval_columns` of this
        one expression."""
        return eval_columns([self], self.vars, points)[0]

    def __str__(self) -> str:
        return _prefix(self.cert)

    def __repr__(self) -> str:
        return f"TropExpr({self})"


_ADD = functools.partial(map, operator.add)
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


def eval_columns(exprs, vars: tuple, points) -> list:
    """Each expression of ``exprs`` at each point of one batch, each point
    an integer vector aligned with ``vars`` or a mapping {name: int}; every
    expression's variables must be among ``vars``.  Returns one list of
    ints per expression, in point order.

    The batch is coerced once, then all certificates are walked together,
    once: each distinct node (by identity) becomes one column over all
    points.  A column that more than one parent reads is kept as a list;
    every other column is streamed through ``map`` and never stored."""
    vars = tuple(vars)
    exprs = list(exprs)
    missing = {name for e in exprs for name in e.vars} - set(vars)
    if missing:
        raise ValueError(f"variable order misses {sorted(missing)}")
    points = list(points)
    rows = _int_rows(points, vars)
    if rows is None:
        rows = [_coerce_point(point, vars) for point in points]
    if not rows:
        return [[] for _ in exprs]
    roots = [e.cert for e in exprs]
    column = _column_walk(roots, dict(zip(vars, zip(*rows))), len(rows))
    return [list(column(root)) for root in roots]


def _column_walk(roots: list, columns: Mapping, count: int):
    """``column(node)``: an iterator over the max-plus value of the
    certificate ``node`` at each point; ``columns[name]`` holds that
    variable over the batch of ``count`` points.  Each non-leaf node under
    ``roots`` is computed once; one read by several parents (or roots) is
    kept as a list.  A batch of one point keeps every column, one int per
    node, and so skips the pre-pass that counts the readers."""
    uses = {}  # id of a non-leaf node -> how many parents and roots read it
    children = {}  # id of a non-leaf node -> _children(node)
    stack = list(roots) if count > 1 else []
    while stack:
        node = stack.pop()
        if isinstance(node, (CVar, CConst)):
            continue
        key = id(node)
        if key in uses:
            uses[key] += 1
        else:
            uses[key] = 1
            children[key] = kids = _children(node)
            stack.extend(kids)
    kept = {}

    def column(node):
        if isinstance(node, CVar):
            return iter(columns[node.name])
        if isinstance(node, CConst):
            return itertools.repeat(0, count)
        key = id(node)
        out = kept.get(key)
        if out is not None:
            return iter(out)
        parts = [column(a) for a in (children[key] if children else _children(node))]
        if isinstance(node, CMul):
            out = functools.reduce(_ADD, parts) if parts else itertools.repeat(0, count)
        elif isinstance(node, CAdd):
            out = map(max, *parts)
        elif isinstance(node, CDiv):
            out = map(operator.sub, *parts) if len(parts) == 2 else parts[0]
        elif isinstance(node, CPow):
            out = map(operator.mul, parts[0], itertools.repeat(node.exponent))
        else:
            raise TypeError(f"unknown certificate node {node!r}")
        if count == 1 or uses[key] > 1:
            out = kept[key] = list(out)
            return iter(out)
        return out

    return column


def _children(node) -> tuple:
    """The sub-certificates that the max-plus reading of ``node`` reads: a
    product drops its constants, and a quotient by a constant is its
    numerator."""
    if isinstance(node, CMul):
        return _factors(node)
    if isinstance(node, CAdd):
        return node.args
    if isinstance(node, CDiv):
        return (node.num,) if isinstance(node.den, CConst) else (node.num, node.den)
    if isinstance(node, CPow):
        return (node.base,)
    return ()


def _prefix(node) -> str:
    """Prefix text of the max-plus reading of ``node``, by the rules of
    :func:`_column_walk`: a product drops its constants, and a quotient by a
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


def _factors(node: CMul) -> tuple:
    """The arguments of a product that are not constants (0 in max-plus)."""
    return tuple([a for a in node.args if not isinstance(a, CConst)])


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
    ``f`` outside ``vars`` count as 0: :func:`degree_columns` of this one
    formula."""
    return degree_columns([f], vars, points)[0]


def degree_columns(formulas, vars: tuple, points) -> list:
    """:func:`degree_oracle` of each formula at each point of one batch,
    each point as in :func:`degree_oracle_many`; one list of ints per
    formula, in point order.

    The exponent vectors of each expanded num and den are decoded once, and
    each distinct monomial of all the formulas becomes one column of its
    weighted degree over the batch.  The degree is the largest degree whose
    coefficients do not sum to zero (the Laurent collapse) in num minus
    that in den.  This is ``f.subst_monomial(point).degree()`` for any
    input, certified or not, since normalization cancels no common factor.
    A polynomial whose coefficients are all positive cannot cancel, so its
    top degree is the column max; otherwise each point is collapsed.
    Raises what the first formula in order that fails would raise alone:
    at its first faulty point in batch order, a point that is no integer
    vector raises its coercion error, else ``ZeroDivisionError`` where the
    denominator collapses to zero, else ``ValueError`` where the numerator
    does.
    """
    vars = tuple(vars)
    parts = [
        ((_weighted_terms(f.num, vars), f.num.all_positive()), (_weighted_terms(f.den, vars), f.den.all_positive()))
        for f in formulas
    ]
    points = list(points)
    rows = _int_rows(points, vars)
    if rows is None:
        rows, error = [], None
        for point in points:
            try:
                rows.append(_coerce_point(point, vars))
            except (TypeError, ValueError) as bad:
                error = bad
                break
        if error is not None:
            # every formula meets the bad point, so the first formula decides:
            # its collapse at an earlier point, else the bad point's error
            _degree_columns(parts[:1], rows)
            raise error
    return _degree_columns(parts, rows)


def _weighted_terms(poly, vars: tuple) -> list:
    """(((slot in vars, exponent), ...), coefficient) for each term."""
    slot = {name: i for i, name in enumerate(vars)}
    return [
        (tuple((slot[name], e) for name, e in zip(poly.vars, exps) if e and name in slot), c)
        for exps, c in poly.monomials()
    ]


def _degree_columns(parts: list, rows: list) -> list:
    """The degree column of each formula, given as (num, den), each (weighted
    terms, all coefficients positive), over rows of plain ints.  Each
    distinct monomial's column is computed once, and kept as a list when
    more than one term reads it (every column, for one row, without
    counting the readers).  The first formula that collapses raises, at its
    first faulty row, den first."""
    if not rows:
        return [[] for _ in parts]
    count = len(rows)
    columns = list(zip(*rows))
    uses = None
    if count > 1:
        uses = collections.Counter(exps for pair in parts for terms, _ in pair for exps, _ in terms)
    kept = {}

    def degree(exps):
        if exps in kept:
            return iter(kept[exps])
        out = _degree_column(exps, columns, count)
        if count == 1 or uses[exps] > 1:
            out = kept[exps] = list(out)
            return iter(out)
        return out

    return [_degrees(num, den, degree, count) for num, den in parts]


def _degrees(num: tuple, den: tuple, degree, count: int) -> list:
    """The degree at each of ``count`` points, with num and den each given
    as (weighted terms, all coefficients positive) and ``degree(exps)`` the
    column of one monomial; the first point where den or num collapses
    raises, den first."""
    low = _top_degrees(*den, degree, count)
    high = _top_degrees(*num, degree, count)
    if None in low or None in high:
        for a, b in zip(low, high):
            if a is None:
                raise ZeroDivisionError("monomial substitution annihilates the denominator")
            if b is None:
                raise ValueError("degree of the zero rational function")
    return list(map(operator.sub, high, low))


def _top_degrees(terms: list, positive: bool, degree, count: int) -> list:
    """At each point, the largest weighted degree whose collapsed
    coefficient is nonzero, or None when every degree cancels; with
    ``positive`` (no negative coefficient) nothing cancels."""
    if not terms:
        return [None] * count
    degrees = [degree(exps) for exps, _ in terms]
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
