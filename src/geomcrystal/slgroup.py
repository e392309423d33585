"""Matrix realization of SL(n+1) over the rational function field.

Provides the elementary one-parameter generators, diagonal coroot
elements, Gauss (LDU) decomposition as a partial map with explicit
domain errors, the corner-minor torus correction that embeds the lower
unipotent subgroup into the Borel, and the induced one-parameter crystal
action on lower unitriangular matrices.

The crystal action uses the parameter (c-1)/phi(u) for the leading
elementary factor.  The reciprocal convention phi(u)/(c-1) that is
sometimes written for this action is inconsistent with the
one-parameter law e^1 = id and with the chart-level closed form, and is
not used here.  ``crystal_act`` computes the commutation-derived
factored form; ``crystal_act_gauss`` computes the same map from first
principles through the Gauss decomposition, and the test suite proves
the two agree symbolically.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from .ratfun import RatFun, as_rank, as_ratfun, check_direction, var


class DecompositionOutsideDomain(ArithmeticError):
    """A leading principal minor vanishes identically; the rational
    Gauss decomposition is undefined there."""


class TorusUndefined(ArithmeticError):
    """Some corner minor is identically zero, so the torus correction
    does not exist at this element."""


class PhiVanishes(ArithmeticError):
    """The subdiagonal coordinate phi_i is identically zero; the crystal
    action in direction i is undefined."""


def cartan_entry(i: int, j: int) -> int:
    """Entry a_ij of the type-A Cartan matrix."""
    if i == j:
        return 2
    if abs(i - j) == 1:
        return -1
    return 0


class MatRF:
    """Square matrix with :class:`RatFun` entries, 0-indexed storage.
    The rows are tuples and never change, so the minors of a matrix are
    expanded once, into one memo shared by all its callers."""

    __slots__ = ("size", "_rows", "_minor")

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(as_ratfun(e) for e in row) for row in rows)
        size = len(rows)
        if not size:
            raise ValueError("matrix must have at least one row")
        if any(len(row) != size for row in rows):
            raise ValueError("matrix must be square")
        self.size = size
        self._rows = rows
        self._minor = None

    @property
    def rows(self) -> tuple:
        """The rows, a tuple of tuples; read-only, since the minor memo
        is built from them."""
        return self._rows

    @classmethod
    def identity(cls, size: int) -> "MatRF":
        return cls(_identity_rows(size))

    def minor(self, live: tuple) -> RatFun:
        """The minor on rows ``live`` (ascending) and the first len(live)
        columns, from this matrix's one :func:`_minors` memo."""
        if self._minor is None:
            self._minor = _minors(self._rows)
        return self._minor(live)

    @property
    def rank(self) -> int:
        return self.size - 1

    def __mul__(self, other: "MatRF") -> "MatRF":
        if self.size != other.size:
            raise ValueError("size mismatch")
        m = self.size
        left, right = self._rows, other._rows
        out = []
        for i in range(m):
            row = []
            for j in range(m):
                acc = None
                for k in range(m):
                    a, b = left[i][k], right[k][j]
                    if a.is_zero or b.is_zero:
                        continue
                    term = a * b
                    acc = term if acc is None else acc + term
                row.append(acc if acc is not None else RatFun.const(0))
            out.append(row)
        return MatRF(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatRF):
            return NotImplemented
        return self.size == other.size and self.first_difference(other) is None

    __hash__ = None

    def first_difference(self, other: "MatRF"):
        """``{"entry": [i, j]}``, 1-based, for the first differing entry in
        row-major order, or None when the matrices agree."""
        left, right = self._rows, other._rows
        for i in range(self.size):
            for j in range(self.size):
                if not left[i][j] == right[i][j]:
                    return {"entry": [i + 1, j + 1]}
        return None

    def det(self) -> RatFun:
        return self.minor(tuple(range(self.size)))

    def to_json(self) -> dict:
        return {"n": self.rank, "entries": [[str(e) for e in row] for row in self.rows]}

    def __str__(self) -> str:
        return json.dumps(self.to_json()["entries"])

    def __repr__(self) -> str:
        return f"MatRF(size={self.size})"


def _identity_rows(size: int) -> list:
    """The rows of the identity matrix, as lists to fill in."""
    one, zero = RatFun.const(1), RatFun.const(0)
    return [[one if i == j else zero for j in range(size)] for i in range(size)]


def _minors(rows: Sequence):
    """``minor(live)``: the minor on rows ``live`` (ascending) and the
    first len(live) columns, by cofactor expansion along its last column,
    skipping structural zeros.  Expanding drops one row and the last
    column, so every sub-minor is again such a minor; one memo serves
    every call, and each distinct minor is expanded once:
    O(m * 2**m) products over all minors of an m-row matrix."""
    memo: dict = {}

    def minor(live: tuple) -> RatFun:
        size = len(live)
        if size == 1:
            return rows[live[0]][0]
        if live in memo:
            return memo[live]
        if size == 2:
            (a, b), (c, d) = (rows[r][:2] for r in live)
            out = a * d - b * c
        else:
            out = None
            for pos, r in enumerate(live):
                pivot = rows[r][size - 1]
                if pivot.is_zero:
                    continue
                term = pivot * minor(live[:pos] + live[pos + 1 :])
                if (size - 1 - pos) % 2:
                    term = -term
                out = term if out is None else out + term
            if out is None:
                out = RatFun.const(0)
        memo[live] = out
        return out

    return minor


class TorusElem:
    """Diagonal torus element.  For SL-group elements the product of the
    diagonal entries is 1; constructor paths in this module preserve
    that, and the test suite asserts it."""

    __slots__ = ("diag",)

    def __init__(self, diag: Sequence):
        self.diag = tuple(as_ratfun(d) for d in diag)

    @classmethod
    def identity(cls, size: int) -> "TorusElem":
        return cls([RatFun.const(1)] * size)

    @property
    def size(self) -> int:
        return len(self.diag)

    def __mul__(self, other: "TorusElem") -> "TorusElem":
        if self.size != other.size:
            raise ValueError("size mismatch")
        return TorusElem([a * b for a, b in zip(self.diag, other.diag)])

    def inverse(self) -> "TorusElem":
        return TorusElem([d**-1 for d in self.diag])

    def as_matrix(self) -> MatRF:
        zero = RatFun.const(0)
        return MatRF(
            [
                [self.diag[i] if i == j else zero for j in range(self.size)]
                for i in range(self.size)
            ]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusElem):
            return NotImplemented
        return self.size == other.size and self.first_difference(other) is None

    __hash__ = None

    def first_difference(self, other: "TorusElem"):
        """``{"diagonal": k}``, 1-based, for the first differing diagonal
        slot, or None when the elements agree."""
        for k, (a, b) in enumerate(zip(self.diag, other.diag), start=1):
            if not a == b:
                return {"diagonal": k}
        return None

    def __repr__(self) -> str:
        return "TorusElem(" + ", ".join(str(d) for d in self.diag) + ")"


# ---------------------------------------------------------------------------
# generators


def x_elem(i: int, t, n: int) -> MatRF:
    """I + t*E_{i,i+1}: the upper elementary one-parameter element."""
    check_direction(i, n)
    rows = _identity_rows(n + 1)
    rows[i - 1][i] = t
    return MatRF(rows)


def y_elem(i: int, t, n: int) -> MatRF:
    """I + t*E_{i+1,i}: the lower elementary one-parameter element."""
    check_direction(i, n)
    rows = _identity_rows(n + 1)
    rows[i][i - 1] = t
    return MatRF(rows)


def coroot(i: int, c, n: int) -> TorusElem:
    """diag(1, ..., c, c^-1, ..., 1) with c in slot i (1-indexed)."""
    check_direction(i, n)
    c = as_ratfun(c)
    if c.is_zero:
        raise ZeroDivisionError("coroot parameter must be nonzero")
    diag = [RatFun.const(1)] * (n + 1)
    diag[i - 1] = c
    diag[i] = c**-1
    return TorusElem(diag)


def factored_unipotent(n: int, coords: Mapping) -> MatRF:
    """Product of lower elementary elements in the triangular pattern
    y_n(a_{1,n})...y_1(a_{1,1}) * y_n(a_{2,n})...y_2(a_{2,2}) * ... *
    y_n(a_{n,n}), for coordinates keyed by (k, j) with 1 <= k <= j <= n.
    """
    out = MatRF.identity(n + 1)
    for k in range(1, n + 1):
        for j in range(n, k - 1, -1):
            out = out * y_elem(j, coords[(k, j)], n)
    return out


def symbolic_lower_coords(n: int, prefix: str = "a") -> dict:
    """Fresh symbols {(k, j): prefix[k,j]} for 1 <= k <= j <= n."""
    return {
        (k, j): var(f"{prefix}[{k},{j}]")
        for k in range(1, n + 1)
        for j in range(k, n + 1)
    }


def generic_unipotent(n: int) -> MatRF:
    """The factored unipotent element on fresh symbolic coordinates,
    built once per rank; callers share it and its minor memo."""
    return _generic_unipotent(as_rank(n))


@functools.cache
def _generic_unipotent(n: int) -> MatRF:
    return factored_unipotent(n, symbolic_lower_coords(n))


# ---------------------------------------------------------------------------
# Gauss decomposition


@dataclass
class GaussFactors:
    """g = lower * torus * upper with lower/upper unitriangular."""

    lower: MatRF
    torus: TorusElem
    upper: MatRF

    @property
    def borel(self) -> MatRF:
        """The Borel factor lower*torus of the decomposition."""
        return self.lower * self.torus.as_matrix()


def gauss_decompose(g: MatRF) -> GaussFactors:
    """LDU decomposition by sequential elimination on the leading
    principal minors.  Raises :class:`DecompositionOutsideDomain` when a
    pivot (a ratio of consecutive leading minors) is identically zero.
    """
    m = g.size
    work = [list(row) for row in g.rows]
    lower = _identity_rows(m)
    upper = _identity_rows(m)
    diag = []
    for k in range(m):
        pivot = work[k][k]
        if pivot.is_zero:
            raise DecompositionOutsideDomain(
                f"leading principal minor {k + 1} vanishes identically"
            )
        diag.append(pivot)
        for i in range(k + 1, m):
            lower[i][k] = work[i][k] / pivot
        for j in range(k + 1, m):
            upper[k][j] = work[k][j] / pivot
        for i in range(k + 1, m):
            factor = lower[i][k]
            if factor.is_zero:
                continue
            for j in range(k + 1, m):
                if not work[k][j].is_zero:
                    work[i][j] = work[i][j] - factor * work[k][j]
    return GaussFactors(MatRF(lower), TorusElem(diag), MatRF(upper))


# ---------------------------------------------------------------------------
# unipotent-crystal data on the lower unipotent subgroup


def phi(i: int, u: MatRF) -> RatFun:
    """Entry (i+1, i) of a lower unitriangular element."""
    check_direction(i, u.rank)
    return u.rows[i][i - 1]


def corner_minor(i: int, u: MatRF) -> RatFun:
    """Determinant of the lower-left i x i block (last i rows, first i
    columns), from the matrix's minor memo (:meth:`MatRF.minor`)."""
    check_direction(i, u.rank)
    return u.minor(tuple(range(u.size - i, u.size)))


def torus_weight(u: MatRF) -> TorusElem:
    """Product over i of coroot(i, 1/corner_minor(i, u)); the torus part
    of the Borel embedding and the weight map of the induced crystal.
    Corner minor i-1 is a sub-minor of corner minor i, so all n come
    from the matrix's one minor memo."""
    n, m = u.rank, u.size
    out = TorusElem.identity(m)
    for i in range(1, n + 1):
        m_i = u.minor(tuple(range(m - i, m)))
        if m_i.is_zero:
            raise TorusUndefined(f"corner minor {i} is identically zero")
        out = out * coroot(i, m_i**-1, n)
    return out


def borel_embed(u: MatRF) -> MatRF:
    """u times its torus correction; lands in the lower Borel."""
    return u * torus_weight(u).as_matrix()


def _nonzero_phi(i: int, u: MatRF) -> RatFun:
    p = phi(i, u)
    if p.is_zero:
        raise PhiVanishes(f"phi_{i} vanishes identically on this element")
    return p


def crystal_act(i: int, c, u: MatRF) -> MatRF:
    """One-parameter crystal action on a lower unitriangular element.

    Computed in the commutation-derived factored form
    x_i((c-1)/phi) * u * x_i((1-c)/(c*phi)) * coroot(i, c)^-1,
    which equals the lower factor of the Gauss decomposition of
    x_i((c-1)/phi) * u (see :func:`crystal_act_gauss`).
    """
    n = u.rank
    p = _nonzero_phi(i, u)
    c = as_ratfun(c)
    t1 = (c - 1) / p
    t2 = (1 - c) / (c * p)
    return x_elem(i, t1, n) * u * x_elem(i, t2, n) * coroot(i, c, n).inverse().as_matrix()


def crystal_act_gauss(i: int, c, u: MatRF) -> MatRF:
    """The same action from first principles: the lower unitriangular
    factor of the Gauss decomposition of x_i((c-1)/phi(u)) * u."""
    n = u.rank
    p = _nonzero_phi(i, u)
    c = as_ratfun(c)
    t1 = (c - 1) / p
    return gauss_decompose(x_elem(i, t1, n) * u).lower


# ---------------------------------------------------------------------------
# identity checks


@dataclass
class IdentityReport:
    """An identity and where it fails: the ``first_difference`` of its
    two sides, None when it holds."""

    identity: str
    witness: dict | None = None

    @property
    def holds(self) -> bool:
        return self.witness is None

    def __bool__(self) -> bool:
        return self.holds


def relation_kind(i: int, j: int) -> str:
    """Kind of the rank-2 relation between the actions in directions i
    and j: in type A only "commute" (distant indices) and "braid"
    (adjacent indices) occur."""
    return "commute" if cartan_entry(i, j) == 0 else "braid"


def rank2_relation(i: int, j: int, act, x) -> tuple:
    """(lhs, rhs) of the rank-2 relation between directions i and j at
    x, for an action ``act(i, c, x)`` with symbolic parameters c1, c2:
    e_i^c1 e_j^c2 = e_j^c2 e_i^c1 when commuting, and
    e_i^c1 e_j^(c1 c2) e_i^c2 = e_j^c2 e_i^(c1 c2) e_j^c1 when braided."""
    c1, c2 = var("c1"), var("c2")
    if relation_kind(i, j) == "commute":
        return act(i, c1, act(j, c2, x)), act(j, c2, act(i, c1, x))
    lhs = act(i, c1, act(j, c1 * c2, act(i, c2, x)))
    rhs = act(j, c2, act(i, c1 * c2, act(j, c1, x)))
    return lhs, rhs


def check_braid_relation(i: int, j: int, n: int) -> IdentityReport:
    """Verify the rank-2 relation between the actions in directions i
    and j on the generic factored unipotent element, with symbolic
    parameters."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise IndexError("need two distinct directions in range")
    lhs, rhs = rank2_relation(i, j, crystal_act, generic_unipotent(n))
    return IdentityReport(f"{relation_kind(i, j)}(e_{i}, e_{j}) at n={n}", lhs.first_difference(rhs))


def check_borel_embed_equivariant(i: int, n: int) -> IdentityReport:
    """The Borel embedding intertwines the unipotent actions on the
    lower unipotent subgroup and on the Borel, for the generator
    x_i(s) applied to the generic factored element."""
    u = generic_unipotent(n)
    x = x_elem(i, var("s"), n)
    lhs = borel_embed(gauss_decompose(x * u).lower)
    rhs = gauss_decompose(x * borel_embed(u)).borel
    return IdentityReport(f"embed-equivariance(i={i}) at n={n}", lhs.first_difference(rhs))


def check_torus_compatibility(i: int, n: int) -> IdentityReport:
    """Generator-level torus identity behind the Borel embedding: the
    torus correction of the transported element equals the torus factor
    of x_i(s)*u times the correction of u."""
    u = generic_unipotent(n)
    x = x_elem(i, var("s"), n)
    factors = gauss_decompose(x * u)
    lhs = torus_weight(factors.lower)
    rhs = factors.torus * torus_weight(u)
    return IdentityReport(f"torus-compatibility(i={i}) at n={n}", lhs.first_difference(rhs))
