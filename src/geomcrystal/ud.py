"""Structural tropicalization of subtraction-free rational maps.

A certified rational function is read over the max-plus semiring:
multiplication becomes addition, division subtraction, addition becomes
max, a power a multiple, and positive constants become 0.  The reading is
the value's construction-history certificate itself, the one DAG kept for
the formula: the certificate DAG, walked once without recursion
(:func:`ratfun.cert_nodes`), gives each distinct node once, after its
children, so the reading stays linear in the formula however deep or
shared it is.  The independent degree oracle proves pointwise
correctness: it reads only the expanded num and den, never the
certificate, and takes the top degree of their Laurent collapse under the
monomial co-character.  Both evaluate many formulas over one batch of
points at once, one list per column over the batch: :func:`eval_columns`
reads the steps of all the formulas together and computes each distinct
node (by identity) once, since formulas built from the same chart share
their subexpressions; :func:`degree_columns` computes each distinct
monomial of all the expanded nums and dens once.  :meth:`TropExpr.eval_many`
and :func:`degree_oracle_many` are their one-formula calls, and
:meth:`TropExpr.eval` and :func:`degree_oracle` their one-point calls.

The semiring is (Z, max, +) without minus infinity: a certified value
is a nonzero subtraction-free expression, so every max has at least one
argument and every expression evaluates to an integer.
"""

from __future__ import annotations

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
    cert_nodes,
    cert_variables,
)


class NotPositive(ValueError):
    """Tropicalization requires a subtraction-free certificate."""


class TropExpr:
    """A certificate read in the max-plus semiring, over a fixed ordered
    variable tuple, as steps built once: each distinct node with the
    children it reads (:func:`_children`), after them, and the root last."""

    __slots__ = ("vars", "_steps")

    def __init__(self, vars: tuple, cert):
        self.vars = tuple(vars)
        self._steps = tuple([(node, _children(node)) for node in cert_nodes([cert])])

    @property
    def cert(self):
        """The certificate read, the last step's node."""
        return self._steps[-1][0]

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
        """The prefix text, e.g. ``(- (max x y) z)``; a shared node is spelled
        out at each reader, so the text grows exponentially with the sharing depth."""
        text = {}
        for node, kids in self._steps:
            parts = [text[id(a)] for a in kids]
            if isinstance(node, CVar):
                out = node.name
            elif isinstance(node, CAdd):
                out = "(max " + " ".join(parts) + ")"
            elif isinstance(node, CMul) and len(parts) > 1:
                out = "(+ " + " ".join(parts) + ")"
            elif isinstance(node, CDiv) and len(parts) > 1:
                out = f"(- {parts[0]} {parts[1]})"
            elif isinstance(node, CPow):
                out = f"(* {node.exponent} {parts[0]})"
            else:  # a constant, or a product or quotient that reads one part
                out = parts[0] if parts else "0"
            text[id(node)] = out
        return out

    def __repr__(self) -> str:
        return f"TropExpr({self})"


def _children(node) -> tuple:
    """The sub-certificates that the max-plus reading of ``node`` reads: a
    product drops its constants, and a quotient by a constant is its
    numerator."""
    if isinstance(node, CMul):
        return tuple([a for a in node.args if not isinstance(a, CConst)])
    if isinstance(node, CAdd):
        return node.args
    if isinstance(node, CDiv):
        return (node.num,) if isinstance(node.den, CConst) else (node.num, node.den)
    if isinstance(node, CPow):
        return (node.base,)
    if isinstance(node, (CVar, CConst)):
        return ()
    raise TypeError(f"unknown certificate node {node!r}")


_INT = frozenset((int,))
_ROW = frozenset((tuple, list))


def _rows(points: list, vars: tuple):
    """(rows, error): the batch as rows of ints aligned with ``vars`` up to
    its first point that is no integer vector, and that point's coercion
    error or None.  A batch of tuples or lists of plain ints of the right
    length is its own rows (one type scan over every value)."""
    if (
        _ROW.issuperset(map(type, points))
        and _INT.issuperset(map(type, itertools.chain.from_iterable(points)))
        and set(map(len, points)) <= {len(vars)}
    ):
        return points, None
    rows = []
    for point in points:
        try:
            rows.append(_coerce_point(point, vars))
        except (TypeError, ValueError) as error:
            return rows, error
    return rows, None


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
    ints per expression, in point order, each a new list.

    The batch is coerced once, then the steps of all the expressions are
    read together, once: each distinct node (by identity) becomes one column
    over all points, kept to the end, a list built from its children's by
    ``map`` one level deep (a product adds its parts two at a time), so no
    certificate is too deep or too wide to read.  A product or quotient
    that reads one part is that part's column."""
    vars = tuple(vars)
    exprs = list(exprs)
    missing = {name for e in exprs for name in e.vars} - set(vars)
    if missing:
        raise ValueError(f"variable order misses {sorted(missing)}")
    rows, error = _rows(list(points), vars)
    if error is not None:
        raise error
    if not rows:
        return [[] for _ in exprs]
    columns = dict(zip(vars, zip(*rows)))
    zeros = (0,) * len(rows)
    steps = exprs[0]._steps if len(exprs) == 1 else {id(s[0]): s for e in exprs for s in e._steps}.values()
    value = {}
    for node, kids in steps:
        if isinstance(node, CVar):
            out = columns[node.name]
        elif not kids:  # a constant, or a product of constants alone
            out = zeros
        else:
            parts = [value[id(a)] for a in kids]
            if isinstance(node, CMul) and len(parts) > 1:
                out = functools.reduce(lambda a, b: list(map(operator.add, a, b)), parts)
            elif isinstance(node, CAdd):
                out = list(map(max, *parts))
            elif isinstance(node, CDiv) and len(parts) > 1:
                out = list(map(operator.sub, *parts))
            elif isinstance(node, CPow):
                out = list(map(operator.mul, parts[0], itertools.repeat(node.exponent)))
            else:  # a product or quotient that reads one part
                out = parts[0]
        value[id(node)] = out
    return [list(value[id(e.cert)]) for e in exprs]


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
    rows, error = _rows(list(points), vars)
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
    distinct monomial of all the formulas becomes one list, computed once.
    The first formula that collapses raises, at its first faulty row, den
    first."""
    if not rows:
        return [[] for _ in parts]
    count = len(rows)
    columns = list(zip(*rows))
    monomials = dict.fromkeys(exps for pair in parts for terms, _ in pair for exps, _ in terms)
    degree = {exps: _degree_column(exps, columns, count) for exps in monomials}
    return [_degrees(num, den, degree, count) for num, den in parts]


def _degrees(num: tuple, den: tuple, degree: dict, count: int) -> list:
    """The degree at each of ``count`` points, with num and den each given
    as (weighted terms, all coefficients positive) and ``degree`` the column
    of each monomial; the first point where den or num collapses raises,
    den first."""
    low = _top_degrees(*den, degree, count)
    high = _top_degrees(*num, degree, count)
    if None in low or None in high:
        for a, b in zip(low, high):
            if a is None:
                raise ZeroDivisionError("monomial substitution annihilates the denominator")
            if b is None:
                raise ValueError("degree of the zero rational function")
    return list(map(operator.sub, high, low))


def _top_degrees(terms: list, positive: bool, degree: dict, count: int) -> list:
    """At each point, the largest weighted degree whose collapsed
    coefficient is nonzero, or None when every degree cancels; with
    ``positive`` (no negative coefficient) nothing cancels."""
    if not terms:
        return [None] * count
    degrees = [degree[exps] for exps, _ in terms]
    if positive:
        return list(map(max, *degrees)) if len(degrees) > 1 else degrees[0]
    coeffs = [c for _, c in terms]
    return [_collapse(point, coeffs) for point in zip(*degrees)]


def _degree_column(exps: tuple, columns: list, count: int) -> list:
    """The weighted degree of one term at each point."""
    if not exps:
        return [0] * count
    total = None
    for i, e in exps:
        part = columns[i] if e == 1 else map(operator.mul, columns[i], itertools.repeat(e))
        total = part if total is None else map(operator.add, total, part)
    return list(total)


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
