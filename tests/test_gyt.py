import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomcrystal import gyt
from geomcrystal.gyt import (
    Annihilated,
    SharpElement,
    Tableau,
    arabic_reading,
    bvals,
    crystal_power,
    epsilon,
    etilde,
    extremes,
    ftilde,
    sharp_pairs as index_pairs,
    phi,
    rowcounts_from_word,
    stilde,
    tableau_rowcounts,
    tensor_e_pow,
    two_max_amounts,
    weight,
    weight_pairing,
    word_epsilon,
)


def sharp(n, *vals):
    return SharpElement(n, dict(zip(index_pairs(n), vals)))


V = sharp(2, 2, 1, 3)  # B12=2, B13=1, B23=3


class TestData:
    def test_bvals_hand_example(self):
        assert bvals(2, V) == (1, 2)

    def test_bvals_direction_one(self):
        assert bvals(1, V) == (2,)

    def test_bvals_zero(self):
        assert bvals(2, SharpElement.zero(2)) == (0, 0)

    def test_epsilon(self):
        assert epsilon(1, V) == 2
        assert epsilon(2, V) == 2

    def test_weight(self):
        assert weight(V) == (-3, -4)

    def test_float_entry_rejected(self):
        with pytest.raises(TypeError):
            SharpElement(2, {(1, 2): 1.5})

    def test_zero_element(self):
        z = SharpElement.zero(2)
        assert epsilon(1, z) == 0
        assert weight(z) == (0, 0)
        assert phi(1, z) == 0

    def test_extremes(self):
        assert extremes(2, V) == (2, 2)
        tied = sharp(2, 1, 1, 1)  # bvals(2) = (1, 1)
        assert bvals(2, tied) == (1, 1)
        assert extremes(2, tied) == (1, 2)
        assert extremes(1, V) == (1, 1)


def _reference_weight(v):
    """w_i = -sum of B_{k,j} over k <= i < j, summed slot by slot."""
    return tuple(
        -sum(v.b(k, j) for k in range(1, i + 1) for j in range(i + 1, v.n + 2))
        for i in range(1, v.n + 1)
    )


def _reference_pairing(i, v):
    """2 w_i - w_{i-1} - w_{i+1} with w_0 = w_{n+1} = 0."""
    w = (0, *_reference_weight(v), 0)
    return 2 * w[i] - w[i - 1] - w[i + 1]


class TestWeightSums:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.randoms(use_true_random=False))
    def test_matches_slot_sums(self, n, rng):
        v = SharpElement.random(n, rng)
        assert weight(v) == _reference_weight(v)
        for i in range(1, n + 1):
            assert weight_pairing(i, v) == _reference_pairing(i, v)

    def test_direction_checked(self):
        with pytest.raises(IndexError):
            weight_pairing(3, V)
        with pytest.raises(IndexError):
            weight_pairing(0, V)


class TestOperators:
    def test_etilde_direction_two(self):
        # acts at row 2; the diagonal slot is dropped, column 3 decrements
        assert etilde(2, V) == sharp(2, 2, 1, 2)

    def test_etilde_direction_one(self):
        assert etilde(1, V) == sharp(2, 1, 1, 3)

    def test_mutually_inverse_random(self):
        rng = random.Random(20240612)
        for _ in range(500):
            n = rng.randint(1, 5)
            v = SharpElement.random(n, rng)
            i = rng.randint(1, n)
            assert ftilde(i, etilde(i, v)) == v
            assert etilde(i, ftilde(i, v)) == v

    def test_axioms_random(self):
        rng = random.Random(99731)
        for _ in range(600):
            n = rng.randint(1, 5)
            v = SharpElement.random(n, rng)
            i = rng.randint(1, n)
            assert phi(i, v) == epsilon(i, v) + weight_pairing(i, v)
            up = etilde(i, v)
            w_v, w_up = weight(v), weight(up)
            expected = list(w_v)
            expected[i - 1] += 1
            assert list(w_up) == expected
            assert epsilon(i, up) == epsilon(i, v) - 1
            assert phi(i, up) == phi(i, v) + 1
            down = ftilde(i, v)
            assert weight(down)[i - 1] == w_v[i - 1] - 1
            # e b2 = b1 <=> f b1 = b2
            assert ftilde(i, up) == v
            assert etilde(i, down) == v


class TestPowers:
    def test_zero_power(self):
        assert crystal_power(2, 0, V) == V

    def test_hand_example(self):
        assert two_max_amounts(2, bvals(2, V)) == (1, 1)
        assert crystal_power(2, 2, V) == sharp(2, 3, 0, 2)

    def test_matches_iteration(self):
        rng = random.Random(555)
        for _ in range(500):
            n = rng.randint(1, 4)
            v = SharpElement.random(n, rng)
            i = rng.randint(1, n)
            beta = rng.randint(0, 6)
            expected = v
            for _ in range(beta):
                expected = etilde(i, expected)
            assert crystal_power(i, beta, v) == expected
            assert sum(two_max_amounts(beta, bvals(i, v))) == beta

    def test_ftilde_pow_matches_iteration(self):
        rng = random.Random(556)
        for _ in range(300):
            n = rng.randint(1, 4)
            v = SharpElement.random(n, rng)
            i = rng.randint(1, n)
            count = rng.randint(0, 6)
            expected = v
            for _ in range(count):
                expected = ftilde(i, expected)
            assert crystal_power(i, -count, v) == expected

    def test_crystal_power_signs(self):
        assert crystal_power(2, 2, V) == etilde(2, etilde(2, V))
        assert crystal_power(2, -3, V) == ftilde(2, ftilde(2, ftilde(2, V)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_crystal_power_is_iterated_operator(self, data):
        # one closed form serves both signs, up to the large negative
        # powers that stilde asks for
        n = data.draw(st.integers(1, 6))
        size = len(index_pairs(n))
        v = sharp(n, *data.draw(st.lists(st.integers(-30, 30), min_size=size, max_size=size)))
        i = data.draw(st.integers(1, n))
        z = data.draw(st.integers(-60, 60))
        step = etilde if z >= 0 else ftilde
        expected = v
        for _ in range(abs(z)):
            expected = step(i, expected)
        assert crystal_power(i, z, v) == expected


class TestPowerMovesTwoColumns:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_slots_move_by_the_amounts(self, data):
        """crystal_power(i, z, v) moves slot (k, i+1) by minus the k-th
        two-max amount and slot (k, i) by plus it, k < i, and no other slot."""
        n = data.draw(st.integers(1, 6))
        size = len(index_pairs(n))
        v = sharp(n, *data.draw(st.lists(st.integers(-30, 30), min_size=size, max_size=size)))
        i = data.draw(st.integers(1, n))
        z = data.draw(st.integers(-60, 60))
        amounts = two_max_amounts(z, bvals(i, v))
        expected = dict(v.entries)
        for k, amount in enumerate(amounts, start=1):
            expected[(k, i + 1)] -= amount
            if k < i:
                expected[(k, i)] += amount
        assert dict(crystal_power(i, z, v).entries) == expected


class TestWeyl:
    def test_zero_pairing_fixes(self):
        rng = random.Random(77)
        found = 0
        while found < 20:
            v = SharpElement.random(2, rng)
            for i in (1, 2):
                if weight_pairing(i, v) == 0:
                    assert stilde(i, v) == v
                    found += 1

    def test_rank_one_hand_value(self):
        v = sharp(1, 3)
        assert weight_pairing(1, v) == -6
        assert stilde(1, v) == sharp(1, -3)

    def test_involution(self):
        rng = random.Random(4242)
        for _ in range(500):
            n = rng.randint(1, 4)
            v = SharpElement.random(n, rng)
            i = rng.randint(1, n)
            assert stilde(i, stilde(i, v)) == v

    def test_braid_and_commutation(self):
        rng = random.Random(90210)
        for _ in range(300):
            n = rng.randint(2, 4)
            v = SharpElement.random(n, rng)
            i = rng.randint(1, n - 1)
            j = i + 1
            lhs = stilde(i, stilde(j, stilde(i, v)))
            rhs = stilde(j, stilde(i, stilde(j, v)))
            assert lhs == rhs
            if n >= 3:
                k, l = 1, 3
                assert stilde(k, stilde(l, v)) == stilde(l, stilde(k, v))


class TestTableaux:
    def test_validation(self):
        Tableau([[1, 1, 2], [2, 3]])
        with pytest.raises(ValueError):
            Tableau([[1, 2], [1, 3]])  # column not strict
        with pytest.raises(ValueError):
            Tableau([[2, 1]])  # row decreasing
        with pytest.raises(ValueError):
            Tableau([[1], [2, 2]])  # widths increase

    def test_arabic_reading_example(self):
        t = Tableau([[1, 2, 3, 4], [2, 3], [3]])
        # rows right-to-left, top first
        assert arabic_reading(t) == (4, 3, 2, 1, 3, 2, 3)

    def test_arabic_reading_small(self):
        assert arabic_reading(Tableau([[2]])) == (2,)
        assert arabic_reading(Tableau([[1, 2, 3]])) == (3, 2, 1)

    def test_rowcounts(self):
        t = Tableau([[1, 1, 2], [2, 2]])
        v = tableau_rowcounts(t, 2)
        assert v == sharp(2, 1, 0, 0)

    def test_rowcounts_column(self):
        t = Tableau([[1], [2], [3]])
        assert tableau_rowcounts(t, 2) == SharpElement.zero(2)

    def test_rowcounts_from_word_roundtrip(self):
        rng = random.Random(31337)
        for _ in range(50):
            n = rng.randint(1, 4)
            t = Tableau.random(n, rng)
            word = arabic_reading(t)
            assert rowcounts_from_word(word, t.shape, n) == tableau_rowcounts(t, n)


def _running_data(i, word):
    """Running data b_k of a box word: epsilon of letter k (1 for i+1)
    minus the pairings of the letters before it (+1 for i, -1 for i+1)."""
    bs, before = [], 0
    for letter in word:
        bs.append(int(letter == i + 1) - before)
        before += int(letter == i) - int(letter == i + 1)
    return bs


def _two_max_epsilon(i, word):
    return max([0, *_running_data(i, word)])


def _two_max_e_pow(i, beta, word):
    """The two-max box-word rule, a reference for the bracket rule: each
    letter is one tensor factor, raised by the two-max amount of the
    running data; :class:`Annihilated` when a factor leaves the box
    crystal."""
    if beta == 0:
        return tuple(word)
    out = []
    for letter, c_k in zip(word, two_max_amounts(beta, _running_data(i, word))):
        if c_k == 0:
            out.append(letter)
        elif c_k == 1 and letter == i + 1:
            out.append(i)
        else:
            return Annihilated
    return tuple(out) if sum(a != b for a, b in zip(word, out)) == beta else Annihilated


def _bracket_e_pow(i, beta, word):
    try:
        return tensor_e_pow(i, beta, word)
    except Annihilated:
        return Annihilated


def _assert_bracket_rule_is_two_max_rule(max_length):
    """Every word over 1..4 up to ``max_length`` letters, i in 1..3 and
    beta in 0..epsilon+2."""
    for length in range(max_length + 1):
        for word in itertools.product(range(1, 5), repeat=length):
            for i in (1, 2, 3):
                eps = _two_max_epsilon(i, word)
                assert word_epsilon(i, word) == eps, (i, word)
                for beta in range(eps + 3):
                    assert _bracket_e_pow(i, beta, word) == _two_max_e_pow(i, beta, word), (
                        i, beta, word,
                    )


class TestBoxWords:
    def test_bracket_rule_equals_two_max_rule(self):
        _assert_bracket_rule_is_two_max_rule(6)

    def test_bracket_rule_does_not_use_two_max(self, monkeypatch):
        """The oracle shares no code with the closed power formula it
        checks: with ``gyt.two_max_amounts`` broken, it still agrees."""

        def broken(beta, bs):
            raise AssertionError("the box-word oracle called two_max_amounts")

        monkeypatch.setattr(gyt, "two_max_amounts", broken)
        _assert_bracket_rule_is_two_max_rule(5)

    def test_single_box_raising(self):
        assert tensor_e_pow(1, 1, (2,)) == (1,)

    def test_highest_weight_annihilates(self):
        with pytest.raises(Annihilated):
            tensor_e_pow(1, 1, (1,))

    def test_word_epsilon(self):
        assert word_epsilon(1, (2, 1)) == 1
        assert word_epsilon(1, (1, 2)) == 0
        assert word_epsilon(2, (3, 3, 2)) == 2

    def test_tensor_rule_hand_case(self):
        # two adjacent raisable letters; the later factor is raised first
        word = (2, 2)
        assert tensor_e_pow(1, 1, word) == (2, 1)
        assert tensor_e_pow(1, 2, word) == (1, 1)

    def test_oracle_against_closed_form(self):
        rng = random.Random(20240613)
        done = 0
        while done < 500:
            n = rng.randint(1, 4)
            t = Tableau.random(n, rng)
            i = rng.randint(1, n)
            beta = rng.randint(0, 4)
            word = arabic_reading(t)
            if beta > word_epsilon(i, word):
                continue
            moved = tensor_e_pow(i, beta, word)
            got = rowcounts_from_word(moved, t.shape, n)
            expected = crystal_power(i, beta, tableau_rowcounts(t, n))
            assert got == expected
            done += 1

    def test_oracle_ignores_diagonal(self):
        # two tableaux differing only in diagonal content give the same
        # off-diagonal transform
        t1 = Tableau([[1, 1, 2], [2, 3]])
        t2 = Tableau([[1, 2], [2, 3]])
        v1, v2 = tableau_rowcounts(t1, 2), tableau_rowcounts(t2, 2)
        assert v1 == v2
        assert crystal_power(2, 1, v1) == crystal_power(2, 1, v2)


class TestGraphSlice:
    def test_rank_one_path(self):
        from geomcrystal.gyt import GraphSlice

        sl = GraphSlice(SharpElement.zero(1), 2)
        assert [v.key() for v in sl.nodes] == [(-2,), (-1,), (0,), (1,), (2,)]
        # every arc joins nodes of the slice and matches its operator
        for v, i, direction, w in sl.arcs:
            assert w in set(sl.nodes)
            op = etilde if direction == "e" else ftilde
            assert op(i, v) == w

    def test_radius_zero(self):
        from geomcrystal.gyt import GraphSlice

        sl = GraphSlice(V, 0)
        assert sl.nodes == [V]
        assert sl.arcs == []


class TestStorage:
    def test_entries_view_is_read_only(self):
        """A hashed element cannot be changed through its entries: a
        write raises, and the element, its hash and its set membership
        stay as they were."""
        v = sharp(2, 1, 2, 3)
        nodes = {v}
        before = hash(v)
        with pytest.raises(TypeError):
            v.entries[(1, 2)] = 5
        with pytest.raises((TypeError, AttributeError)):
            v.entries.update({(1, 2): 5})
        assert v.b(1, 2) == 1 and hash(v) == before
        assert v in nodes and v == next(iter(nodes))

    def test_entries_follow_the_pair_order(self):
        for n in range(1, 6):
            v = sharp(n, *range(len(index_pairs(n))))
            assert list(v.entries.items()) == list(zip(index_pairs(n), range(len(index_pairs(n)))))
            assert v.key() == tuple(range(len(index_pairs(n))))
            assert all(v.b(k, j) == val for (k, j), val in v.entries.items())

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_random_draws_what_randint_draws(self, n):
        """``random`` and ``random_with`` draw the values, and leave the
        generator where, one randint per entry in pair order (then one per
        extra range) leaves it."""
        fast, slow = random.Random(n), random.Random(n)
        for top in (1, 2, n, 8):
            v = SharpElement.random(n, fast)
            assert v == SharpElement(n, {key: slow.randint(-10, 10) for key in index_pairs(n)})
            v, draws = SharpElement.random_with(n, fast, ((1, top), (-3, 3)))
            assert v == SharpElement(n, {key: slow.randint(-10, 10) for key in index_pairs(n)})
            assert draws == (slow.randint(1, top), slow.randint(-3, 3))
            assert fast.getstate() == slow.getstate()


class TestJson:
    def test_round_trip(self):
        data = V.to_json()
        assert data == {"n": 2, "B": {"1,2": 2, "1,3": 1, "2,3": 3}}
        assert SharpElement.from_json(data) == V

    def test_partial_entries_default_zero(self):
        v = SharpElement(2, {(1, 2): 5})
        assert v.b(1, 3) == 0

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            SharpElement(2, {(2, 2): 1})

    def test_tableau_round_trip(self):
        t = Tableau([[1, 1, 2], [2, 3]])
        data = t.to_json()
        assert data == {"shape": [3, 2], "rows": [[1, 1, 2], [2, 3]]}
        assert Tableau(data["rows"]) == t


class TestTwoMax:
    @staticmethod
    def _direct(beta, bs):
        """The two-max formula with every maximum taken over its slice;
        an empty slice leaves its term out of the outer max."""
        def outer(k_prefix, k_suffix):
            parts = []
            if bs[:k_prefix]:
                parts.append(beta + max(bs[:k_prefix]))
            if bs[k_suffix - 1:]:
                parts.append(max(bs[k_suffix - 1:]))
            return max(parts)

        return tuple(outer(k, k + 1) - outer(k - 1, k) for k in range(1, len(bs) + 1))

    def test_matches_direct_formula(self):
        rng = random.Random(5)
        for _ in range(300):
            bs = [rng.randint(-6, 6) for _ in range(rng.randint(1, 6))]
            beta = rng.randint(-5, 5)  # negative for the lowering powers
            amounts = two_max_amounts(beta, bs)
            assert amounts == self._direct(beta, bs)
            assert all(type(a) is int for a in amounts)
            assert sum(amounts) == beta

    def test_empty_word(self):
        assert word_epsilon(1, ()) == 0
        with pytest.raises(Annihilated):
            tensor_e_pow(1, 1, ())


class TestOneCopyOperators:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_results_are_validated_elements(self, data):
        n = data.draw(st.integers(1, 6))
        size = len(index_pairs(n))
        v = sharp(n, *data.draw(st.lists(st.integers(-30, 30), min_size=size, max_size=size)))
        before = v.key()
        i = data.draw(st.integers(1, n))
        z = data.draw(st.integers(-60, 60))
        for result in (crystal_power(i, z, v), stilde(i, v), etilde(i, v), ftilde(i, v)):
            rebuilt = SharpElement(n, result.entries)
            assert result == rebuilt
            assert hash(result) == hash(rebuilt)
            assert list(result.entries) == index_pairs(n)
            assert all(type(b) is int for b in result.entries.values())
        assert v.key() == before  # the operand is never updated in place


class TestIntegerInputs:
    @pytest.mark.parametrize("bad", [True, False, 1.0, 2.5, -1.0])
    def test_powers_reject_bool_and_float(self, bad):
        with pytest.raises(TypeError):
            crystal_power(1, bad, V)

    def test_tableau_entries(self):
        for rows in ([[1.9, 2.2]], [[1, 2.0]], [[True, 2]], [[1], [2.0]]):
            with pytest.raises(TypeError):
                Tableau(rows)

    def test_word_power_and_letters(self):
        with pytest.raises(TypeError):
            tensor_e_pow(1, 1, [2.7, 1])
        with pytest.raises(TypeError):
            tensor_e_pow(1, 1, [True, 2])
        with pytest.raises(TypeError):
            tensor_e_pow(1, 0, (2.0,))
        for beta in (1.0, True):
            with pytest.raises(TypeError):
                tensor_e_pow(1, beta, (2,))
        for letters in ((2.0, True), (2, 1.0), [True]):
            with pytest.raises(TypeError):
                word_epsilon(1, letters)
