"""Pinned printed forms.

Each section renders a fixed family of values (``str`` and the
certificate ``repr`` of every component, or the max-plus expression and
its variable order) and compares the sha256 of the rendering with a
pinned digest.  A change to the internal representation
(the packed monomial keys, the term order, normalization) must leave
every printed form and certificate unchanged; a failure names the
section that differs.  To see what changed, print ``SECTIONS[name]()``
on both versions and diff the output.
"""

import hashlib
import random

import pytest

from geomcrystal.charts import (
    TorusPointA,
    TorusPointB,
    crystal_parameter,
    factor_act_coefficients,
    ratio_act_coefficient,
)
from geomcrystal.ratfun import Q, const, var
from geomcrystal.slgroup import corner_minor, gauss_decompose, generic_unipotent, x_elem
from geomcrystal.ud import tropicalize

PARAMETERS = {"z": crystal_parameter(), "3": const(3), "2/5": const(Q(2, 5))}


def _line(label, value) -> str:
    return f"{label}: {value} | {value.cert!r}"


def _point_lines(label, point) -> list:
    return [_line(f"{label} {key}", value) for key, value in sorted(point.coords.items())]


def chart_actions() -> list:
    lines = []
    for cls in (TorusPointA, TorusPointB):
        for n in (1, 2, 3):
            p = cls.symbolic(n)
            for i in range(1, n + 1):
                for name, alpha in PARAMETERS.items():
                    lines += _point_lines(f"{cls.chart} n={n} i={i} alpha={name}", p.act(i, alpha))
    return lines


def coefficients_and_changes() -> list:
    alpha = crystal_parameter()
    lines = []
    for n in (1, 2, 3):
        a, b = TorusPointA.symbolic(n), TorusPointB.symbolic(n)
        for i in range(1, n + 1):
            for k in range(0, i + 1):
                lines.append(_line(f"a n={n} i={i} k={k}", factor_act_coefficients(i, a.coords, alpha)[k]))
            for k in range(1, i + 1):
                lines.append(_line(f"A n={n} i={i} k={k}", ratio_act_coefficient(i, k, b.coords, alpha)))
            lines.append(_line(f"w n={n} i={i}", b.weight_component(i)))
        lines += _point_lines(f"to_ratio n={n}", a.to_ratio())
        lines += _point_lines(f"to_factor n={n}", b.to_factor())
    return lines


def _matrix_lines(label, m) -> list:
    return [
        _line(f"{label} [{r},{c}]", entry)
        for r, row in enumerate(m.rows)
        for c, entry in enumerate(row)
    ]


def matrices() -> list:
    z = crystal_parameter()
    lines = []
    for n in (1, 2, 3):
        u = generic_unipotent(n)
        lines += _matrix_lines(f"u n={n}", u)
        lines += [_line(f"minor n={n} i={i}", corner_minor(i, u)) for i in range(1, n + 1)]
        # the Gauss factors of u and of each x_i(z) * u
        for i in range(0, n + 1):
            f = gauss_decompose(x_elem(i, z, n) * u if i else u)
            lines += _matrix_lines(f"gauss n={n} i={i} lower", f.lower)
            lines += [_line(f"gauss n={n} i={i} torus {r}", d) for r, d in enumerate(f.torus.diag)]
            lines += _matrix_lines(f"gauss n={n} i={i} upper", f.upper)
    return lines


def tropical_forms() -> list:
    """The max-plus expression and variable order of every coefficient,
    weight component and chart change of both charts."""
    alpha = crystal_parameter()
    lines = []

    def trop(label, value):
        e = tropicalize(value)
        lines.append(f"{label}: {e} | {e.vars}")

    for n in (1, 2, 3):
        a, b = TorusPointA.symbolic(n), TorusPointB.symbolic(n)
        for i in range(1, n + 1):
            for k in range(0, i + 1):
                trop(f"a n={n} i={i} k={k}", factor_act_coefficients(i, a.coords, alpha)[k])
            for k in range(1, i + 1):
                trop(f"A n={n} i={i} k={k}", ratio_act_coefficient(i, k, b.coords, alpha))
            trop(f"w n={n} i={i}", b.weight_component(i))
        for key, value in sorted(a.to_ratio().coords.items()):
            trop(f"to_ratio n={n} {key}", value)
        for key, value in sorted(b.to_factor().coords.items()):
            trop(f"to_factor n={n} {key}", value)
    return lines


NAMES = ("x", "y", "b", "a[1,2]", "c1")


def _random_expression(rng: random.Random):
    def leaf():
        r = rng.random()
        if r < 0.5:
            return var(rng.choice(NAMES))
        if r < 0.8:
            return const(rng.randint(-4, 6))
        return const(Q(rng.randint(1, 7), rng.randint(1, 5)))

    value = leaf()
    for _ in range(rng.randint(1, 5)):
        other = leaf() ** rng.randint(1, 3) if rng.random() < 0.3 else leaf()
        op = rng.randrange(4)
        if op == 0:
            value = value + other
        elif op == 1:
            value = value - other
        elif op == 2:
            value = value * other
        elif not other.is_zero:
            value = value / other
    return value


def random_expressions() -> list:
    rng = random.Random(4004)
    lines = []
    for idx in range(500):
        f = _random_expression(rng)
        lines.append(_line(f"expr {idx} {f.variables}", f))
        weights = {name: rng.randint(-3, 3) for name in NAMES}
        try:
            g = f.subst_monomial(weights)
        except ZeroDivisionError as exc:
            lines.append(f"subst {idx}: {type(exc).__name__}")
        else:
            lines.append(_line(f"subst {idx}", g))
    return lines


SECTIONS = {
    "chart-actions": chart_actions,
    "coefficients-and-chart-changes": coefficients_and_changes,
    "matrices": matrices,
    "random-expressions": random_expressions,
    "tropical-forms": tropical_forms,
}

DIGESTS = {
    "chart-actions": "1fef3dbddc9b078fb6e8efb5f5580e2ee4d603de9b2504004819b7914b7d9f87",
    "coefficients-and-chart-changes": "1a8fe66f3450948be6e705bb41e1314dd255cd0d23f0b3098d0be0f1728968fd",
    "matrices": "4eb13082139370b6e837c4b2b41814418fccb0eefe2351466522b97b36fe85ae",
    "random-expressions": "04d92a28ca9dc7522cba8ec89783866a348485042c55dec8bb88197f3f8e3a84",
    "tropical-forms": "54a284b7c850217691ab894ccabda1923cd13dc973f65f96827c400db060e043",
}


def digest(name: str) -> str:
    text = "\n".join(SECTIONS[name]()) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_printed_forms_unchanged(name):
    assert digest(name) == DIGESTS[name], f"printed forms of section {name!r} differ"


def test_matrices_unchanged_after_the_symbolic_suites():
    # the suites share each rank's generic element and its minor memo;
    # running them first must leave every printed entry and minor as pinned
    from geomcrystal import verify

    assert all(r.holds for r in verify.axiom_reports(3) + verify.umorphism_reports(3))
    assert digest("matrices") == DIGESTS["matrices"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_last_factor_coefficient_prints_the_parameter(n):
    # mix(i)/mix(0) is alpha times a column sum over the same sum: the
    # operators cancel it to alpha itself
    coords = TorusPointA.symbolic(n).coords
    for i in range(1, n + 1):
        assert str(factor_act_coefficients(i, coords, crystal_parameter())[i]) == "z"
