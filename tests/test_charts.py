import pytest

from geomcrystal.charts import (
    TorusPointA,
    TorusPointB,
    crystal_parameter,
    factor_act_coefficients,
    index_pairs,
    ratio_act_coefficient,
    ratio_act_coefficients,
)
from geomcrystal.ratfun import Q, const, var
from geomcrystal.slgroup import (
    MatRF,
    coroot,
    crystal_act_gauss,
    phi,
    rank2_relation,
    torus_weight,
)


def test_index_pairs_count():
    for n in (1, 2, 3, 4):
        assert len(index_pairs(n)) == n * (n + 1) // 2


@pytest.mark.parametrize("cls", [TorusPointA, TorusPointB])
def test_act_direction_out_of_range(cls):
    p = cls.symbolic(2)
    for i in (0, 3, 5):
        with pytest.raises(IndexError):
            p.act(i, const(3))


@pytest.mark.parametrize("coefficients", [factor_act_coefficients, ratio_act_coefficients])
def test_coefficients_direction_out_of_range(coefficients):
    # the rank is read off the largest column of the coordinates
    coords = TorusPointB.symbolic(2).coords
    for i in (0, 3):
        with pytest.raises(IndexError, match=f"direction {i} out of range 1..2"):
            coefficients(i, coords, crystal_parameter())


class TestFactorChart:
    def test_matrix_rank_one(self):
        p = TorusPointA.symbolic(1)
        assert p.to_matrix() == MatRF([[1, 0], [var("a[1,1]"), 1]])

    def test_matrix_rank_two(self):
        p = TorusPointA.symbolic(2)
        a11, a12, a22 = var("a[1,1]"), var("a[1,2]"), var("a[2,2]")
        expected = MatRF(
            [[1, 0, 0], [a11, 1, 0], [a11 * a12, a12 + a22, 1]]
        )
        assert p.to_matrix() == expected

    def test_phi_column_sums(self):
        for n in (1, 2, 3):
            p = TorusPointA.symbolic(n)
            u = p.to_matrix()
            for i in range(1, n + 1):
                total = p.coords[(1, i)]
                for k in range(2, i + 1):
                    total = total + p.coords[(k, i)]
                assert phi(i, u) == total

    def test_unit_parameter_fixes_point(self):
        p = TorusPointA.symbolic(2)
        for i in (1, 2):
            assert p.act(i, const(1)) == p

    def test_rank_one_action(self):
        p = TorusPointA.symbolic(1)
        al = crystal_parameter()
        out = p.act(1, al)
        assert out.coords[(1, 1)] == var("a[1,1]") / al

    def test_matches_matrix_action(self):
        # chart-level closed form == first-principles action via Gauss
        al = crystal_parameter()
        for n in (1, 2, 3):
            p = TorusPointA.symbolic(n)
            for i in range(1, n + 1):
                assert p.act(i, al).to_matrix() == crystal_act_gauss(
                    i, al, p.to_matrix()
                )


class TestCoordinateChange:
    def test_rank_one_identity(self):
        p = TorusPointA.symbolic(1)
        q = p.to_ratio()
        assert q.coords[(1, 1)] == p.coords[(1, 1)]
        assert q.to_factor() == p

    def test_rank_two_component(self):
        p = TorusPointA.symbolic(2)
        q = p.to_ratio()
        a11, a12, a22 = var("a[1,1]"), var("a[1,2]"), var("a[2,2]")
        assert q.coords[(2, 2)] == a22 * a11 / a12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip(self, n):
        p = TorusPointA.symbolic(n)
        assert p.to_ratio().to_factor() == p
        q = TorusPointB.symbolic(n)
        assert q.to_factor().to_ratio() == q


class TestRatioChart:
    def test_rank_one_coefficient_is_alpha(self):
        q = TorusPointB.symbolic(1)
        al = crystal_parameter()
        assert ratio_act_coefficient(1, 1, q.coords, al) == al
        assert q.act(1, al).coords[(1, 1)] == var("A[1,1]") / al

    def test_unit_parameter(self):
        q = TorusPointB.symbolic(2)
        for i in (1, 2):
            assert q.act(i, const(1)) == q

    def test_chart_compatibility(self):
        al = crystal_parameter()
        for n in (1, 2, 3):
            p = TorusPointA.symbolic(n)
            for i in range(1, n + 1):
                assert p.act(i, al).to_ratio() == p.to_ratio().act(i, al)

    def test_braid_in_ratio_coordinates(self):
        # n=2 on a fully symbolic point; the heavy n=3 adjacent pairs are
        # exercised by the acceptance suite on the generic pulled-back point
        c1, c2 = var("c1"), var("c2")
        q = TorusPointB.symbolic(2)
        lhs = q.act(1, c2).act(2, c1 * c2).act(1, c1)
        rhs = q.act(2, c1).act(1, c1 * c2).act(2, c2)
        assert lhs == rhs
        q = TorusPointA.symbolic(3).to_ratio()
        assert q.act(3, c2).act(1, c1) == q.act(1, c1).act(3, c2)

    def test_braid_operands_stay_reduced(self):
        # both sides of the n=3 (e_2, e_3) braid, built as the verma suite
        # builds them; unreduced, coordinate (1,2) of the right side has
        # 8,116/10,023 terms, reduced 25/30
        q = TorusPointA.symbolic(3).to_ratio()
        sides = rank2_relation(2, 3, lambda d, c, x: x.act(d, c), q)
        for side in sides:
            for value in side.coords.values():
                assert len(value.num.terms) <= 30 and len(value.den.terms) <= 30
        assert sides[0] == sides[1]

    def test_weight_rank_one(self):
        q = TorusPointB.symbolic(1)
        assert q.torus_weight() == coroot(1, 1 / var("A[1,1]"), 1)

    def test_weight_rank_two(self):
        q = TorusPointB.symbolic(2)
        A11, A12, A22 = var("A[1,1]"), var("A[1,2]"), var("A[2,2]")
        expected = coroot(1, 1 / (A11 * A12), 2) * coroot(2, 1 / (A12 * A22), 2)
        assert q.torus_weight() == expected

    def test_weight_matches_matrix_weight(self):
        for n in (1, 2, 3):
            p = TorusPointA.symbolic(n)
            assert p.to_ratio().torus_weight() == torus_weight(p.to_matrix())

    def test_weight_equivariance(self):
        al = crystal_parameter()
        for n in (1, 2, 3):
            q = TorusPointB.symbolic(n)
            for i in range(1, n + 1):
                lhs = q.act(i, al).torus_weight()
                rhs = coroot(i, al, n) * q.torus_weight()
                assert lhs == rhs


class TestPositivity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_components_certified(self, n):
        al = crystal_parameter()
        p = TorusPointA.symbolic(n)
        q = TorusPointB.symbolic(n)

        def certified(point):
            return all(v.positive_cert for v in point.coords.values())

        assert certified(p.to_ratio())
        assert certified(q.to_factor())
        for i in range(1, n + 1):
            assert certified(p.act(i, al))
            assert certified(q.act(i, al))
            assert q.weight_component(i).positive_cert


class TestJson:
    def test_round_trip(self):
        p = TorusPointA(2, {(1, 1): const(2), (1, 2): const(Q(3, 2)), (2, 2): const(5)})
        data = p.to_json()
        assert data["chart"] == "a"
        assert data["coords"]["1,2"] == "(3/2)"
        assert TorusPointA.from_json(data) == p

    def test_chart_mismatch(self):
        q = TorusPointB.symbolic(1)
        with pytest.raises(ValueError):
            TorusPointA.from_json(q.to_json())

    def test_bad_index_set(self):
        with pytest.raises(ValueError):
            TorusPointA(2, {(1, 1): const(1)})

    @pytest.mark.parametrize("text", ["-6", "0", "x - 1"])
    def test_non_positive_coordinate_rejected(self, text):
        data = {"n": 2, "chart": "A", "coords": {"1,1": "6", "1,2": text, "2,2": "y"}}
        with pytest.raises(ValueError, match="1,2"):
            TorusPointB.from_json(data)
