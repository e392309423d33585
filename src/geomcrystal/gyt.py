"""The free crystal on generalized Young tableaux.

An element is an integer point (B_{k,j}) indexed by 1 <= k < j <= n+1;
diagonal slots are never stored, and updates addressed to them are
discarded.  It is stored as one immutable tuple in :func:`sharp_pairs`
order; ``entries`` is a read-only mapping view.  Kashiwara operators,
their closed-form signed power, the Weyl involutions, and a
classical-tableau tensor-rule oracle are provided.  The oracle reads a
tableau's arabic word into the box crystal and raises it by the bracket
(signature) rule, so it shares no code with the two-max formula behind
the closed power it checks.

The k-th column datum b_k sums the first k entries of column i+1 minus
the first k-1 entries of column i; epsilon is the maximum of these, and
the raising operator acts at the first maximizer, the lowering operator
at the last.
"""

from __future__ import annotations

import functools
import json
import random
from itertools import accumulate
from types import MappingProxyType, SimpleNamespace
from typing import Mapping, Sequence

from .ratfun import as_int, as_rank, check_direction, randint_rounds, state_fields


class Annihilated(Exception):
    """A raising power would leave the finite box-word crystal."""


def sharp_pairs(n: int) -> list:
    """All stored index pairs (k, j), 1 <= k < j <= n+1, lexicographic."""
    return [(k, j) for k in range(1, n + 1) for j in range(k + 1, n + 2)]


@functools.cache
def _layout(n: int) -> SimpleNamespace:
    """Where rank n's pairs sit in the tuple: ``slot`` of each pair, ``cols[i]``
    the slots of (k, i), k < i, and ``rows[i]`` those of (i, j), j > i.
    Direction i reads columns i+1 and i; weight step i is cols[i] - rows[i]."""
    slot = {p: s for s, p in enumerate(sharp_pairs(n))}
    cols = {i: tuple(slot[(k, i)] for k in range(1, i)) for i in range(1, n + 2)}
    rows = {i: tuple(slot[(i, j)] for j in range(i + 1, n + 2)) for i in range(1, n + 2)}
    return SimpleNamespace(pairs=tuple(slot), slot=slot, cols=cols, rows=rows)


class SharpElement:
    """Integer lattice point of the free crystal."""

    __slots__ = ("n", "vals")

    def __init__(self, n: int, entries: Mapping):
        n = as_rank(n)
        layout = _layout(n)
        entries = {key: as_int(val) for key, val in entries.items()}
        unknown = set(entries) - set(layout.pairs)
        if unknown:
            raise ValueError(f"entries outside the index set: {sorted(unknown)}")
        self.n = n
        self.vals = tuple(entries.get(key, 0) for key in layout.pairs)

    @classmethod
    def _trusted(cls, n: int, vals: tuple) -> "SharpElement":
        """An element over a validated tuple, one int per stored pair."""
        v = object.__new__(cls)
        v.n = n
        v.vals = vals
        return v

    @classmethod
    def zero(cls, n: int) -> "SharpElement":
        return cls(n, {})

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "SharpElement":
        """Every entry drawn uniformly from -10..10."""
        return cls.random_with(n, rng, ())[0]

    @classmethod
    def random_with(cls, n: int, rng: random.Random, extra: tuple) -> tuple:
        """(element, draws from the ranges ``extra``), in one :func:`randint_rounds` call."""
        n = as_rank(n)
        m = len(_layout(n).pairs)
        (vals,) = randint_rounds(rng, ((-10, 10),) * m + extra, 1)
        return cls._trusted(n, vals[:m]), vals[m:]

    @property
    def entries(self) -> Mapping:
        """Read-only view {(k, j): B_{k,j}} in :func:`sharp_pairs` order."""
        return MappingProxyType(dict(zip(_layout(self.n).pairs, self.vals)))

    def b(self, k: int, j: int) -> int:
        return self.vals[_layout(self.n).slot[(k, j)]]

    def key(self) -> tuple:
        return self.vals

    def __eq__(self, other) -> bool:
        if not isinstance(other, SharpElement):
            return NotImplemented
        return self.vals == other.vals and self.n == other.n

    def __hash__(self):
        return hash(self.vals)  # the tuple's length fixes n

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "B": {f"{k},{j}": val for (k, j), val in zip(_layout(self.n).pairs, self.vals)},
        }

    @classmethod
    def from_json(cls, data) -> "SharpElement":
        n, entries = state_fields(data, "a sharp element", "B")
        for (k, j), val in entries.items():
            if type(val) is not int:
                raise ValueError(f"sharp entry {k},{j} = {val!r} is not an integer")
        return cls(n, entries)

    def __repr__(self) -> str:
        return f"SharpElement(n={self.n}, {json.dumps(self.to_json()['B'])})"


# ---------------------------------------------------------------------------
# crystal data


def bvals(i: int, v: SharpElement) -> tuple:
    """Column data (b_1, ..., b_i) for direction i."""
    check_direction(i, v.n)
    cols, x = _layout(v.n).cols, v.vals
    acc, out = 0, []
    for a, b in zip(cols[i + 1], cols[i]):
        acc += x[a]
        out.append(acc)
        acc -= x[b]
    out.append(acc + x[cols[i + 1][-1]])
    return tuple(out)


def epsilon(i: int, v: SharpElement) -> int:
    return max(bvals(i, v))


def _weight_step(i: int, v: SharpElement) -> int:
    """w_i - w_{i-1}, with w_0 = w_{n+1} = 0: column i above the diagonal minus row i."""
    layout, get = _layout(v.n), v.vals.__getitem__
    return sum(map(get, layout.cols[i])) - sum(map(get, layout.rows[i]))


def weight(v: SharpElement) -> tuple:
    """Coefficients (w_1, ..., w_n) of the weight on the simple-root basis,
    w_i = -sum of B_{k,j} over k <= i < j, as running sums of weight steps."""
    return tuple(accumulate(_weight_step(i, v) for i in range(1, v.n + 1)))


def weight_pairing(i: int, v: SharpElement) -> int:
    """<h_i, wt(v)> = 2 w_i - w_{i-1} - w_{i+1}, the difference of two weight steps."""
    check_direction(i, v.n)
    return _weight_step(i, v) - _weight_step(i + 1, v)


def phi(i: int, v: SharpElement) -> int:
    return epsilon(i, v) + weight_pairing(i, v)


def extremes(i: int, v: SharpElement) -> tuple:
    """(first, last) index k at which b_k attains epsilon."""
    bs = bvals(i, v)
    top = max(bs)
    first = bs.index(top) + 1
    last = len(bs) - bs[::-1].index(top)
    return first, last


def _shifted(v: SharpElement, i: int, rows) -> SharpElement:
    """One new element: for each (k, amount) of ``rows`` (int amounts,
    distinct k), add the amount to slot (k, i) and subtract it from
    (k, i+1); the diagonal slot (i, i) is not stored and its update is
    dropped."""
    cols, x = _layout(v.n).cols, list(v.vals)
    for k, amount in rows:
        if amount:
            if k < i:
                x[cols[i][k - 1]] += amount
            x[cols[i + 1][k - 1]] -= amount
    return SharpElement._trusted(v.n, tuple(x))


def etilde(i: int, v: SharpElement) -> SharpElement:
    """Raising operator: acts at the first maximizer of the column data."""
    first, _ = extremes(i, v)
    return _shifted(v, i, ((first, 1),))


def ftilde(i: int, v: SharpElement) -> SharpElement:
    """Lowering operator: acts at the last maximizer of the column data."""
    _, last = extremes(i, v)
    return _shifted(v, i, ((last, -1),))


def two_max_amounts(beta: int, bs: Sequence[int]) -> tuple:
    """Per-position amounts of the two-max formula on data b_1..b_m:

        c_k = max(beta + P_k, S_{k+1}) - max(beta + P_{k-1}, S_k)

    with prefix maxima P_k = max(b_1..b_k) and suffix maxima
    S_k = max(b_k..b_m).  The empty maxima P_0 and S_{m+1} drop out of
    the outer max, so every quantity stays an integer.  The second max of
    c_k is the first of c_{k-1}: the amounts are steps between levels.
    """
    if not bs:
        return ()
    suffix = list(accumulate(reversed(bs), max))[::-1]
    out = []
    low, top, last = suffix[0], bs[0], len(bs) - 1
    for k, b in enumerate(bs):
        if b > top:
            top = b
        level = beta + top if k == last else max(beta + top, suffix[k + 1])
        out.append(level - low)
        low = level
    return tuple(out)


def crystal_power(i: int, z: int, v: SharpElement) -> SharpElement:
    """Closed form of the signed power e^z, raising for z >= 0 and
    lowering for z < 0: row k shifts by the k-th amount of the two-max
    formula at z."""
    return _shifted(v, i, enumerate(two_max_amounts(as_int(z), bvals(i, v)), start=1))


def stilde(i: int, v: SharpElement) -> SharpElement:
    """Weyl involution in direction i: the signed power by minus the
    weight pairing."""
    return crystal_power(i, -weight_pairing(i, v), v)


class GraphSlice:
    """Radius-r neighborhood of an element under all raising and
    lowering operators: the node set closed under the radius, plus every
    arc (v, i, direction, v') between nodes of the slice."""

    __slots__ = ("root", "radius", "nodes", "arcs")

    def __init__(self, root: SharpElement, radius: int):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        n = root.n
        nodes = {root}
        frontier = [root]
        for _ in range(radius):
            new = []
            for v in frontier:
                for i in range(1, n + 1):
                    for moved in (etilde(i, v), ftilde(i, v)):
                        if moved not in nodes:
                            nodes.add(moved)
                            new.append(moved)
            frontier = new
        self.root = root
        self.radius = radius
        self.nodes = sorted(nodes, key=lambda v: v.key())
        arcs = []
        for v in self.nodes:
            for i in range(1, n + 1):
                up = etilde(i, v)
                if up in nodes:
                    arcs.append((v, i, "e", up))
                down = ftilde(i, v)
                if down in nodes:
                    arcs.append((v, i, "f", down))
        self.arcs = arcs


# ---------------------------------------------------------------------------
# classical tableaux and the box-word oracle


class Tableau:
    """Semistandard Young tableau with entries in 1..n+1 (rows weakly
    increase, columns strictly increase)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(as_int(e) for e in row) for row in rows)
        widths = [len(r) for r in rows]
        if any(w == 0 for w in widths) or any(
            a < b for a, b in zip(widths, widths[1:])
        ):
            raise ValueError("row lengths must be positive and weakly decreasing")
        for r, row in enumerate(rows):
            if any(e < 1 for e in row):
                raise ValueError("entries must be >= 1")
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {r + 1} is not weakly increasing")
            if r:
                above = rows[r - 1]
                if any(above[c] >= row[c] for c in range(len(row))):
                    raise ValueError(f"column strictness fails in row {r + 1}")
        self.rows = rows

    @property
    def shape(self) -> tuple:
        return tuple(len(r) for r in self.rows)

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(r) for r in self.rows]}

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "Tableau":
        """Uniformly random shape (over all partitions with at most
        ``_MAX_CELLS`` boxes and n+1 rows), filled by a random
        semistandard completion with entries in 1..n+1; 200 tries."""
        shapes = _partitions_upto(n + 1)
        for _ in range(200):
            shape = rng.choice(shapes)
            rows = []
            ok = True
            for r, width in enumerate(shape):
                row = []
                for c in range(width):
                    lo = r + 1
                    if c:
                        lo = max(lo, row[c - 1])
                    if r:
                        lo = max(lo, rows[r - 1][c] + 1)
                    if lo > n + 1:
                        ok = False
                        break
                    row.append(rng.randint(lo, n + 1))
                if not ok:
                    break
                rows.append(row)
            if ok:
                return cls(rows)
        raise RuntimeError("could not sample a semistandard tableau")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tableau):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Tableau({list(list(r) for r in self.rows)})"


_MAX_CELLS = 12


@functools.cache
def _partitions_upto(max_rows: int) -> tuple:
    """All partitions with 1.._MAX_CELLS boxes and at most max_rows rows."""
    out = []

    def extend(prefix, remaining, limit):
        if prefix:
            out.append(tuple(prefix))
        if remaining == 0 or len(prefix) == max_rows:
            return
        for width in range(min(limit, remaining), 0, -1):
            prefix.append(width)
            extend(prefix, remaining - width, width)
            prefix.pop()

    extend([], _MAX_CELLS, _MAX_CELLS)
    return tuple(sorted(set(out)))


def arabic_reading(t: Tableau) -> tuple:
    """Reading word: each row right to left, top row first."""
    word = []
    for row in t.rows:
        word.extend(reversed(row))
    return tuple(word)


def tableau_rowcounts(t: Tableau, n: int) -> SharpElement:
    """Off-diagonal row content counts; diagonal counts are discarded."""
    entries = {}
    for r, row in enumerate(t.rows, start=1):
        for value in row:
            if value > n + 1:
                raise ValueError(f"entry {value} exceeds the content range 1..{n + 1}")
            if value > r:
                key = (r, value)
                entries[key] = entries.get(key, 0) + 1
    return SharpElement(n, entries)


def rowcounts_from_word(word: Sequence[int], shape: Sequence[int], n: int) -> SharpElement:
    """Row content counts of a (possibly non-semistandard) filling given
    by its arabic reading word and shape."""
    entries: dict = {}
    pos = 0
    for r, width in enumerate(shape, start=1):
        for value in word[pos : pos + width]:
            if value != r:
                key = (r, value)
                entries[key] = entries.get(key, 0) + 1
        pos += width
    if pos != len(word):
        raise ValueError("word length disagrees with the shape")
    for (k, j) in entries:
        if j < k:
            raise ValueError(f"content {j} above the main diagonal in row {k}")
    return SharpElement(n, entries)


def _unmatched(i: int, word: Sequence[int]) -> tuple:
    """The letters of ``word`` as a list of ints, and the positions of the
    letters i+1 that no earlier letter i brackets, in word order."""
    word = [as_int(w) for w in word]
    open_i = 0
    out = []
    for pos, letter in enumerate(word):
        if letter == i:
            open_i += 1
        elif letter == i + 1:
            if open_i:
                open_i -= 1
            else:
                out.append(pos)
    return word, out


def tensor_e_pow(i: int, beta: int, word: Sequence[int]) -> tuple:
    """beta-fold raising operator on a box word via the tensor rule.

    Signature rule: the last ``beta`` unbracketed letters i+1 become i.
    Raises :class:`Annihilated` if fewer than ``beta`` are unbracketed.
    """
    beta = as_int(beta)
    if beta < 0:
        raise ValueError("negative power is not defined on box words")
    word, free = _unmatched(i, word)
    if len(free) < beta:
        raise Annihilated(
            f"raising power {beta} in direction {i} leaves the box-word crystal"
        )
    for pos in free[len(free) - beta:]:
        word[pos] = i
    return tuple(word)


def word_epsilon(i: int, word: Sequence[int]) -> int:
    """Largest raising power applicable to a box word."""
    return len(_unmatched(i, word)[1])
