import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geomcrystal.ratfun import RatFun, const, parse, var
from geomcrystal.slgroup import (
    DecompositionOutsideDomain,
    MatRF,
    PhiVanishes,
    TorusElem,
    TorusUndefined,
    borel_embed,
    cartan_entry,
    check_borel_embed_equivariant,
    check_braid_relation,
    check_torus_compatibility,
    corner_minor,
    coroot,
    crystal_act,
    crystal_act_gauss,
    factored_unipotent,
    gauss_decompose,
    generic_unipotent,
    phi,
    rank2_relation,
    symbolic_lower_coords,
    torus_weight,
    x_elem,
    y_elem,
)

a, s, t, c = var("a"), var("s"), var("t"), var("c")


def test_cartan_matrix_tridiagonal_symmetric():
    m = [[cartan_entry(i, j) for j in range(1, 4)] for i in range(1, 4)]
    assert m == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert all(m[i][j] == m[j][i] for i in range(3) for j in range(3))


def is_unitriangular(m: MatRF, lower: bool) -> bool:
    """Ones on the diagonal and zeros strictly above it (lower) or
    strictly below it (upper)."""
    return all(
        m.rows[i][j] == 1 if i == j else m.rows[i][j].is_zero
        for i in range(m.size)
        for j in range(m.size)
        if i == j or (j > i) == lower
    )


def recompose(f) -> MatRF:
    """lower * torus * upper of Gauss factors."""
    return f.lower * f.torus.as_matrix() * f.upper


def borel_pair_act(x: MatRF, b1: MatRF, b2: MatRF):
    """Unipotent action on a pair of Borel elements: the first factor
    absorbs x, the second absorbs the upper remainder of the first."""
    f1 = gauss_decompose(x * b1)
    f2 = gauss_decompose(f1.upper * b2)
    return f1.borel, f2.borel


class TestGenerators:
    def test_x_matrix(self):
        m = x_elem(1, t, 1)
        assert m == MatRF([[1, t], [0, 1]])

    def test_one_parameter_subgroup(self):
        assert y_elem(1, t, 2) * y_elem(1, s, 2) == y_elem(1, t + s, 2)

    def test_coroot_diagonal(self):
        d = coroot(1, c, 2)
        assert d.diag[0] == c
        assert d.diag[1] == 1 / c
        assert d.diag[2] == 1

    def test_index_range(self):
        with pytest.raises(IndexError):
            x_elem(3, t, 2)

    def test_shared_constants_survive_matrix_edits(self):
        # identity matrices hold the shared RatFun.const(0) and const(1);
        # the generators write into their own row lists, never into those
        before = (str(MatRF.identity(3)), str(RatFun.const(1)), str(RatFun.const(0)))
        assert RatFun.const(0) is RatFun.const(0)
        assert MatRF.identity(3).rows[1][1] is RatFun.const(1)
        assert x_elem(1, t, 2).rows[0][1] == t and y_elem(2, s, 2).rows[2][1] == s
        assert x_elem(2, const(5), 2).rows[1][2] == 5 and y_elem(1, 0, 2).rows[1][0].is_zero
        assert (str(MatRF.identity(3)), str(RatFun.const(1)), str(RatFun.const(0))) == before
        assert before[0] == '[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]'

    def test_entries_cannot_be_assigned(self):
        # a matrix never changes, so its minor memo stays valid
        m = x_elem(1, t, 2)
        with pytest.raises(TypeError):
            m.rows[0][1] = s
        with pytest.raises(TypeError):
            m.rows[0] = m.rows[1]
        assert m == x_elem(1, t, 2)

    def test_rows_cannot_be_rebound(self):
        # rebinding the rows would leave the minor memo stale
        m = y_elem(1, 5, 1)
        assert m.det() == 1
        with pytest.raises(AttributeError):
            m.rows = MatRF([[2, 0], [0, 7]]).rows
        assert m.det() == 1 and m == y_elem(1, 5, 1)

    def test_generic_element_built_once_per_rank(self):
        assert generic_unipotent(3) is generic_unipotent(3)
        assert generic_unipotent(2) is not generic_unipotent(3)
        for bad in (True, 2.0):
            with pytest.raises(TypeError):
                generic_unipotent(bad)
        with pytest.raises(ValueError):
            generic_unipotent(0)

    def test_determinants_one(self):
        n = 3
        g = x_elem(1, s, n) * y_elem(2, t, n) * coroot(3, c, n).as_matrix()
        assert g.det() == 1

    def test_torus_diag_product_one(self):
        for elem in (coroot(2, c, 3), coroot(1, a, 3) * coroot(3, t, 3)):
            prod = const(1)
            for d in elem.diag:
                prod = prod * d
            assert prod == 1

    def test_commutation_xy(self):
        # same-index case produces a lower factor, a torus and an upper
        # factor; distinct indices commute
        n = 3
        d = 1 + a * t
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lhs = x_elem(i, a, n) * y_elem(j, t, n)
                if i == j:
                    rhs = (
                        y_elem(i, t / d, n)
                        * coroot(i, d, n).as_matrix()
                        * x_elem(i, a / d, n)
                    )
                else:
                    rhs = y_elem(j, t, n) * x_elem(i, a, n)
                assert lhs == rhs

    def test_commutation_coroot_x(self):
        n = 3
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lhs = coroot(i, a, n).as_matrix() * x_elem(j, t, n)
                rhs = x_elem(j, a ** cartan_entry(i, j) * t, n) * coroot(i, a, n).as_matrix()
                assert lhs == rhs


def _cofactor_det(rows):
    """Plain cofactor expansion along the first column: m! products."""
    m = len(rows)
    if m == 1:
        return rows[0][0]
    if m == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = None
    for i in range(m):
        if rows[i][0].is_zero:
            continue
        term = rows[i][0] * _cofactor_det([row[1:] for r, row in enumerate(rows) if r != i])
        if i % 2:
            term = -term
        total = term if total is None else total + term
    return total if total is not None else const(0)


def _last_column_det(rows):
    """Plain cofactor expansion along the last column, with no memo: the
    summation order of ``MatRF.det``, so the same unreduced num/den."""
    m = len(rows)
    if m == 1:
        return rows[0][0]
    if m == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = None
    for i in range(m):
        if rows[i][m - 1].is_zero:
            continue
        term = rows[i][m - 1] * _last_column_det(
            [row[: m - 1] for r, row in enumerate(rows) if r != i]
        )
        if (m - 1 - i) % 2:
            term = -term
        total = term if total is None else total + term
    return total if total is not None else const(0)


_x, _y = var("x"), var("y")
_ENTRIES = (
    const(0),
    const(0),
    const(1),
    const(-2),
    const(1) / 3,
    _x,
    _y,
    _x - _y,
    1 / _x,
    (_x + 1) / (_y - 2),
    _x * _y / (_x + _y),
)
_square = st.integers(1, 5).flatmap(
    lambda m: st.lists(
        st.lists(st.sampled_from(_ENTRIES), min_size=m, max_size=m), min_size=m, max_size=m
    )
)


class TestDeterminant:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_square)
    def test_matches_plain_cofactor_expansion(self, rows):
        got = MatRF(rows).det()
        assert got == _cofactor_det(rows)  # an independent order, equal in value
        assert str(got) == str(_last_column_det(rows))  # the memo changes no form

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_square)
    def test_shared_memo_matches_each_minor_alone(self, rows):
        m = len(rows)
        u = MatRF(rows)
        u.det()  # fill the memo from the full determinant first
        for size in range(1, m + 1):
            for live in itertools.combinations(range(m), size):
                alone = MatRF([rows[r][:size] for r in live]).det()
                assert u.minor(live) == alone
                assert str(u.minor(live)) == str(alone)

    @staticmethod
    def _count_products(monkeypatch) -> list:
        """Patch ``RatFun.__mul__`` to append to the returned list per call."""
        products = []
        mul = RatFun.__mul__

        def counted(f, g):
            products.append(None)
            return mul(f, g)

        monkeypatch.setattr(RatFun, "__mul__", counted)
        return products

    def test_expands_each_minor_once(self, monkeypatch):
        m = 7
        u = MatRF([[var(f"x[{i},{j}]") for j in range(m)] for i in range(m)])
        products = self._count_products(monkeypatch)
        det = u.det()
        assert len(products) <= m * 2 ** (m - 1)
        assert len(det.num.terms) == 5040  # one term per permutation
        assert det.den.terms == {0: 1}

    def test_corner_minors_share_one_expansion(self, monkeypatch):
        # the m corner minors of an (m+1)x(m+1) matrix, taken one at a
        # time, cost 741 products at m=7; shared, they cost what the
        # largest alone does, at most m * 2**(m-1)
        m = 7
        u = MatRF([[var(f"x[{i},{j}]") for j in range(m + 1)] for i in range(m + 1)])
        products = self._count_products(monkeypatch)
        weight = torus_weight(u)
        assert len(products) <= m * 2 ** (m - 1) + m * (m + 1)  # plus the coroot products
        assert len(weight.diag[0].den.terms) == 1  # 1 / corner minor 1, one entry
        assert len(weight.diag[m].num.terms) == 5040  # corner minor m, a full determinant

    def test_public_minors_and_det_share_one_expansion(self, monkeypatch):
        # every corner minor, then the determinant, of one matrix: all are
        # minors on the first columns, so they cost what the determinant does
        m = 8
        u = MatRF([[var(f"x[{i},{j}]") for j in range(m)] for i in range(m)])
        products = self._count_products(monkeypatch)
        minors = [corner_minor(i, u) for i in range(1, m)]
        det = u.det()
        assert len(products) <= m * 2 ** (m - 1)
        assert [len(f.num.terms) for f in minors] == [1, 2, 6, 24, 120, 720, 5040]
        assert len(det.num.terms) == 40320

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            MatRF([])


class TestGauss:
    def test_identity(self):
        f = gauss_decompose(MatRF.identity(3))
        assert f.lower == MatRF.identity(3)
        assert f.upper == MatRF.identity(3)
        assert f.torus == TorusElem.identity(3)

    def test_generic_two_by_two(self):
        b, c2, d = var("b"), var("c"), var("d")
        g = MatRF([[a, b], [c2, d]])
        f = gauss_decompose(g)
        assert f.lower == MatRF([[1, 0], [c2 / a, 1]])
        assert f.upper == MatRF([[1, b / a], [0, 1]])
        assert f.torus.diag[0] == a
        assert recompose(f) == g

    def test_known_product(self):
        g = x_elem(1, s, 1) * y_elem(1, a, 1)
        f = gauss_decompose(g)
        d = 1 + s * a
        assert f.lower == y_elem(1, a / d, 1)
        assert f.torus == coroot(1, d, 1)
        assert f.upper == x_elem(1, s / d, 1)

    def test_recompose_random_symbolic(self):
        u = generic_unipotent(2)
        g = x_elem(1, s, 2) * u
        f = gauss_decompose(g)
        assert recompose(f) == g
        assert is_unitriangular(f.lower, lower=True)
        assert is_unitriangular(f.upper, lower=False)

    def test_torus_factor_has_unit_product(self):
        # a determinant-one input yields a torus factor multiplying to 1
        g = x_elem(1, s, 2) * generic_unipotent(2)
        f = gauss_decompose(g)
        prod = const(1)
        for d in f.torus.diag:
            prod = prod * d
        assert prod == 1

    def test_outside_domain(self):
        g = MatRF([[0, 1], [-1, 0]])
        with pytest.raises(DecompositionOutsideDomain):
            gauss_decompose(g)


class TestUnipotentData:
    def test_corner_minor_identity(self):
        for i in (1, 2, 3):
            assert corner_minor(i, MatRF.identity(4)).is_zero

    def test_corner_minor_factored(self):
        u = generic_unipotent(2)
        a11, a12, a22 = var("a[1,1]"), var("a[1,2]"), var("a[2,2]")
        assert corner_minor(1, u) == a11 * a12
        assert corner_minor(2, u) == a11 * a22

    def test_corner_minor_rank_one(self):
        assert corner_minor(1, y_elem(1, a, 1)) == a

    def test_torus_weight_rank_one(self):
        w = torus_weight(y_elem(1, a, 1))
        assert w == coroot(1, 1 / a, 1)
        f = borel_embed(y_elem(1, a, 1))
        assert f == MatRF([[1 / a, 0], [1, a]])

    def test_torus_weight_rank_two(self):
        u = generic_unipotent(2)
        a11, a12, a22 = var("a[1,1]"), var("a[1,2]"), var("a[2,2]")
        expected = coroot(1, 1 / (a11 * a12), 2) * coroot(2, 1 / (a11 * a22), 2)
        assert torus_weight(u) == expected

    def test_torus_weight_undefined_at_identity(self):
        with pytest.raises(TorusUndefined):
            torus_weight(MatRF.identity(3))

    def test_torus_weight_names_first_zero_minor(self):
        # corner minor 1 is t*a; corner minor 2 is a*t - t*a
        u = y_elem(2, t, 2) * y_elem(1, a, 2)
        with pytest.raises(TorusUndefined, match="^corner minor 2 is identically zero$"):
            torus_weight(u)

    def test_torus_weight_matches_minors_one_at_a_time(self):
        def one_at_a_time(u):
            out = TorusElem.identity(u.size)
            for i in range(1, u.rank + 1):
                out = out * coroot(i, 1 / corner_minor(i, u), u.rank)
            return out

        al = var("al")
        for n in (1, 2, 3, 4):
            u = generic_unipotent(n)
            for v in (u, *(crystal_act(i, al, u) for i in range(1, n + 1))):
                got, expected = torus_weight(v), one_at_a_time(v)
                assert got == expected
                assert repr(got) == repr(expected)

    def test_phi_column_sums(self):
        for n in (1, 2, 3):
            u = generic_unipotent(n)
            for i in range(1, n + 1):
                expected = sum(
                    (var(f"a[{k},{i}]") for k in range(2, i + 1)),
                    var(f"a[1,{i}]"),
                )
                assert phi(i, u) == expected

    def test_phi_identity_zero(self):
        assert phi(1, MatRF.identity(2)).is_zero


class TestCrystalAction:
    def test_unit_parameter(self):
        u = generic_unipotent(2)
        for i in (1, 2):
            assert crystal_act(i, const(1), u) == u

    def test_rank_one_closed_form(self):
        al = var("al")
        out = crystal_act(1, al, y_elem(1, a, 1))
        assert out == y_elem(1, a / al, 1)

    def test_closed_form_equals_gauss(self):
        al = var("al")
        for n in (1, 2, 3):
            u = generic_unipotent(n)
            for i in range(1, n + 1):
                assert crystal_act(i, al, u) == crystal_act_gauss(i, al, u)

    def test_result_unitriangular(self):
        u = generic_unipotent(2)
        out = crystal_act(1, var("al"), u)
        assert is_unitriangular(out, lower=True)

    def test_one_parameter_composition(self):
        c1, c2 = var("c1"), var("c2")
        for n in (1, 2, 3):
            u = generic_unipotent(n)
            for i in range(1, n + 1):
                assert crystal_act(i, c2, crystal_act(i, c1, u)) == crystal_act(
                    i, c1 * c2, u
                )

    def test_weight_equivariance(self):
        al = var("al")
        for n in (1, 2, 3):
            u = generic_unipotent(n)
            for i in range(1, n + 1):
                lhs = torus_weight(crystal_act(i, al, u))
                rhs = coroot(i, al, n) * torus_weight(u)
                assert lhs == rhs

    def test_phi_scaling(self):
        al = var("al")
        for n in (1, 2, 3):
            u = generic_unipotent(n)
            for i in range(1, n + 1):
                assert phi(i, crystal_act(i, al, u)) == phi(i, u) / al

    def test_phi_vanishes(self):
        with pytest.raises(PhiVanishes):
            crystal_act(1, const(2), MatRF.identity(2))


class TestPairAction:
    def _borels(self):
        b1 = borel_embed(factored_unipotent(1, {(1, 1): const(2)}))
        b2 = borel_embed(factored_unipotent(1, {(1, 1): const(5)}))
        b3 = borel_embed(factored_unipotent(1, {(1, 1): const(3)}))
        return b1, b2, b3

    def test_identity_acts_trivially(self):
        b1, b2, _ = self._borels()
        out1, out2 = borel_pair_act(MatRF.identity(2), b1, b2)
        assert out1 == b1
        assert out2 == b2

    def test_associativity(self):
        # acting on ((b1, b2), b3) and (b1, (b2, b3)) gives the same triple
        b1, b2, b3 = self._borels()
        x = x_elem(1, s, 1)
        left_pair = borel_pair_act(x, b1, b2)
        remainder = gauss_decompose(
            gauss_decompose(x * b1).upper * b2
        ).upper
        left = (*left_pair, gauss_decompose(remainder * b3).borel)

        first = gauss_decompose(x * b1)
        rest = borel_pair_act(first.upper, b2, b3)
        right = (first.borel, *rest)
        for lm, rm in zip(left, right):
            assert lm == rm

    def test_product_embedding_compatible(self):
        # the product Borel element of the transported pair equals the
        # transported product Borel element
        b1, b2, _ = self._borels()
        x = x_elem(1, s, 1)
        out1, out2 = borel_pair_act(x, b1, b2)
        assert out1 * out2 == gauss_decompose(x * (b1 * b2)).borel


class TestIdentityChecks:
    def test_braid_rank_two(self):
        assert check_braid_relation(1, 2, 2)

    def test_commuting_rank_three(self):
        assert check_braid_relation(1, 3, 3)

    def test_braid_matrix_entries_stay_reduced(self):
        # both sides of the n=3 (e_2, e_3) braid, built as
        # check_braid_relation builds them; without gcd cancellation in
        # the operators entry [3,3] of the right side has 116 terms, with
        # it at most 16 per numerator or denominator
        sides = rank2_relation(2, 3, crystal_act, generic_unipotent(3))
        for side in sides:
            for row in side.rows:
                for value in row:
                    assert len(value.num.terms) <= 16 and len(value.den.terms) <= 16
        assert sides[0] == sides[1]

    def test_embed_equivariance(self):
        for n in (1, 2):
            for i in range(1, n + 1):
                assert check_borel_embed_equivariant(i, n)

    def test_torus_compatibility(self):
        for n in (1, 2):
            for i in range(1, n + 1):
                assert check_torus_compatibility(i, n)


class TestJsonRoundTrip:
    def test_matrix(self):
        u = generic_unipotent(2)
        data = u.to_json()
        assert data["n"] == 2
        again = MatRF([[parse(e) for e in row] for row in data["entries"]])
        assert again == u

    def test_symbolic_coords_layout(self):
        coords = symbolic_lower_coords(2)
        assert set(coords) == {(1, 1), (1, 2), (2, 2)}
