"""The two torus charts on the lower unipotent subgroup.

The factor chart ("a") parametrizes the dense torus by the parameters of
the triangular product of lower elementary elements; the ratio chart
("A") is its image under the birational coordinate change whose
components are ratios of staircase products.  Both carry the closed-form
crystal action, every component of which is subtraction-free, so each
carries a positivity certificate by construction.

Coordinates are stored sparsely by index pair (k, j), 1 <= k <= j <= n;
serialization orders indices lexicographically.  The crystal parameter
is a fresh symbol named ``z`` when not supplied numerically.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Mapping, Sequence

from .ratfun import RatFun, as_rank, as_ratfun, check_direction, parse, state_fields, var
from .slgroup import MatRF, TorusElem, coroot, factored_unipotent, symbolic_lower_coords


def crystal_parameter() -> RatFun:
    """The symbolic one-parameter group variable of the crystal action."""
    return var("z")


def index_pairs(n: int) -> list:
    return [(k, j) for k in range(1, n + 1) for j in range(k, n + 1)]


def coordinate_names(n: int, chart: str) -> tuple:
    """Variable names of the symbolic point of chart ``"a"`` or ``"A"``,
    in index-pair order."""
    return tuple(x.variables[0] for x in symbolic_lower_coords(n, chart).values())


def _sum(values) -> RatFun:
    values = list(values)
    if not values:
        raise ValueError("empty sum has no subtraction-free form")
    return reduce(operator.add, values)


def _prod(values) -> RatFun:
    return reduce(operator.mul, values, RatFun.const(1))


def _mixed_sum(column: Sequence, k: int, alpha) -> RatFun:
    """alpha times the sum of the first k entries plus the sum of the
    rest; an empty part drops out."""
    head, tail = column[:k], column[k:]
    if not head:
        return _sum(tail)
    total = _sum(head) * alpha
    return total + _sum(tail) if tail else total


def _column_ratio(coords: Mapping, k: int, j: int) -> RatFun:
    """prod_{l<=k} A_{l,j} / prod_{l<=k-1} A_{l,j-1}: a factor-chart
    coordinate in ratio coordinates, in lowest terms when the coordinates
    are."""
    num = _prod(coords[(l, j)] for l in range(1, k + 1))
    den = _prod(coords[(l, j - 1)] for l in range(1, k))
    return num / den


class _ChartPoint:
    """Shared storage, serialization and action skeleton for both charts."""

    chart: str = ""

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords: Mapping):
        n = as_rank(n)
        expected = set(index_pairs(n))
        coords = {key: as_ratfun(val) for key, val in coords.items()}
        if set(coords) != expected:
            raise ValueError(
                f"chart point of rank {n} needs exactly the index pairs {sorted(expected)}"
            )
        self.n = n
        self.coords = coords

    @classmethod
    def symbolic(cls, n: int):
        return cls(n, symbolic_lower_coords(n, cls.chart))

    def _moved(self, rules: Mapping) -> "_ChartPoint":
        """The point of a crystal action: each column j named in
        ``rules`` is rewritten entrywise by ``rules[j](k, value)``, every
        other column is kept."""
        out = {}
        for (k, j), value in self.coords.items():
            rule = rules.get(j)
            out[(k, j)] = value if rule is None else rule(k, value)
        return type(self)(self.n, out)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.first_difference(other) is None

    __hash__ = None

    def first_difference(self, other: "_ChartPoint"):
        """``{"coordinate": [k, j]}`` for the first differing coordinate in
        index-pair order, or None when the points agree."""
        for key in index_pairs(self.n):
            if not self.coords[key] == other.coords[key]:
                return {"coordinate": list(key)}
        return None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "chart": self.chart,
            "coords": {
                f"{k},{j}": str(self.coords[(k, j)]) for (k, j) in index_pairs(self.n)
            },
        }

    @classmethod
    def from_json(cls, data):
        n, texts = state_fields(data, f"a chart-{cls.chart!r} point", "coords")
        if data.get("chart") != cls.chart:
            raise ValueError(f"expected a chart-{cls.chart!r} point")
        coords = {}
        for (k, j), text in texts.items():
            if not isinstance(text, str):
                raise ValueError(f"chart coordinate {k},{j} = {text!r} is not an expression string")
            value = coords[(k, j)] = parse(text)
            if not value.positive_cert:
                raise ValueError(f"chart coordinate {k},{j} = {text!r} is not a positive expression")
        return cls(n, coords)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{key}: {self.coords[key]}" for key in index_pairs(self.n)
        )
        return f"{type(self).__name__}({body})"


def factor_act_coefficients(i: int, coords: Mapping, alpha) -> list:
    """The column-i mixing ratios mix(k)/mix(0) of the factor-chart
    action at index k, 0 <= k <= i; they are 1 at k = 0 and alpha at
    k = i; the rank is the largest column of ``coords``."""
    check_direction(i, max(j for _, j in coords))
    column = [coords[(l, i)] for l in range(1, i + 1)]
    mix = [_mixed_sum(column, k, alpha) for k in range(i + 1)]
    return [RatFun.const(1)] + [m / mix[0] for m in mix[1:]]


class TorusPointA(_ChartPoint):
    """Point of the factor chart: parameters of the triangular product
    of lower elementary elements."""

    chart = "a"

    def to_matrix(self) -> MatRF:
        return factored_unipotent(self.n, self.coords)

    def act(self, i: int, alpha) -> "TorusPointA":
        """Closed-form crystal action: columns i-1, i, i+1 are rescaled
        by consecutive mixing ratios, everything else is fixed."""
        coeff = factor_act_coefficients(i, self.coords, as_ratfun(alpha))
        return self._moved({
            i - 1: lambda k, value: coeff[k] * value,
            i: lambda k, value: value / (coeff[k - 1] * coeff[k]),
            i + 1: lambda k, value: coeff[k - 1] * value,
        })

    def to_ratio(self) -> "TorusPointB":
        """Coordinate change onto the ratio chart: each new coordinate is
        a staircase product over a shorter staircase product."""
        out = {}
        for (k, j) in index_pairs(self.n):
            num = _prod(self.coords[(k - l, j - l)] for l in range(k))
            den = _prod(self.coords[(k - 1 - l, j - l)] for l in range(k - 1))
            out[(k, j)] = num / den
        return TorusPointB(self.n, out)


def ratio_act_coefficients(i: int, coords: Mapping, alpha) -> list:
    """The mixing ratios mix(k)/mix(k-1) of the ratio-chart action at
    index k - 1, 1 <= k <= i: alpha-weighted sums of the column ladder
    products, which are the factor-chart coordinates of column i; the
    rank is the largest column of ``coords``."""
    check_direction(i, max(j for _, j in coords))
    ladders = [_column_ratio(coords, j, i) for j in range(1, i + 1)]
    mix = [_mixed_sum(ladders, k, alpha) for k in range(i + 1)]
    return [mix[k] / mix[k - 1] for k in range(1, i + 1)]


def ratio_act_coefficient(i: int, k: int, coords: Mapping, alpha) -> RatFun:
    """The k-th mixing ratio of the ratio-chart action in direction i;
    the rank is the largest column of ``coords``."""
    coeffs = ratio_act_coefficients(i, coords, alpha)
    if not 1 <= k <= i:
        raise IndexError(f"mixing ratio index {k} out of range 1..{i}")
    return coeffs[k - 1]


class TorusPointB(_ChartPoint):
    """Point of the ratio chart, the image of the factor chart under the
    staircase-ratio coordinate change."""

    chart = "A"

    def act(self, i: int, alpha) -> "TorusPointB":
        """Closed-form crystal action: column i-1 is multiplied by the
        mixing ratios, column i is divided by them, all else fixed."""
        coeff = ratio_act_coefficients(i, self.coords, as_ratfun(alpha))
        return self._moved({
            i - 1: lambda k, value: coeff[k - 1] * value,
            i: lambda k, value: value / coeff[k - 1],
        })

    def to_factor(self) -> TorusPointA:
        """Inverse coordinate change: column products over the previous
        column's products."""
        return TorusPointA(
            self.n, {key: _column_ratio(self.coords, *key) for key in index_pairs(self.n)}
        )

    def weight_component(self, i: int) -> RatFun:
        """Reciprocal of the hook product prod_{k<=i, j>=i} A_{k,j}."""
        return RatFun.const(1) / _prod(
            self.coords[(k, j)]
            for k in range(1, i + 1)
            for j in range(i, self.n + 1)
        )

    def torus_weight(self) -> TorusElem:
        """Torus-valued weight in ratio coordinates: the product of
        coroots at the reciprocal hook products."""
        out = TorusElem.identity(self.n + 1)
        for i in range(1, self.n + 1):
            out = out * coroot(i, self.weight_component(i), self.n)
        return out
