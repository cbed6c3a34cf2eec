from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqdiv.coeff import PrimeField, Rationals
from seqdiv.cyclokit import (
    BivarForm,
    cyclotomic_form,
    divisors,
    euler_phi,
    eval_form,
    form_exact_div,
    mobius,
    power_diff_form,
    power_sum_form,
    power_sum_resultant_check,
    power_sum_square_quotient,
    rem_mod_sum_square,
    resultant,
)
from seqdiv.errors import ConstantForm, NotDivisible, ZeroArgument
from seqdiv.polyring import parse_poly


class TestNumberTheory:
    def test_divisors(self):
        assert list(divisors(12)) == [1, 2, 3, 4, 6, 12]
        assert list(divisors(1)) == [1]
        with pytest.raises(ZeroArgument):
            divisors(0)

    @pytest.mark.parametrize(
        "n,mu", [(1, 1), (2, -1), (4, 0), (6, 1), (30, -1), (12, 0)]
    )
    def test_mobius(self, n, mu):
        assert mobius(n) == mu

    @pytest.mark.parametrize("n,phi", [(1, 1), (2, 1), (6, 2), (12, 4), (97, 96)])
    def test_euler_phi(self, n, phi):
        assert euler_phi(n) == phi

    @given(n=st.integers(1, 300))
    def test_mobius_sums_to_zero(self, n):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


class TestForms:
    def test_str(self):
        assert str(cyclotomic_form(6)) == "X^2-X*Y+Y^2"
        assert str(power_sum_form(2)) == "X+Y"
        assert str(BivarForm.zero()) == "0"

    @pytest.mark.parametrize(
        "degree,coeffs,text",
        [
            (2, (-1, 0, 3), "-X^2+3*Y^2"),
            (2, (1, -1, 0), "X^2-X*Y"),
            (3, (-2, 1, -1, -7), "-2*X^3+X^2*Y-X*Y^2-7*Y^3"),
            (4, (0, 0, -1, 0, 0), "-X^2*Y^2"),
            (0, (-7,), "-7"),
            (3, (0, 0, 0, 0), "0"),
        ],
    )
    def test_str_signs_and_units(self, degree, coeffs, text):
        assert str(BivarForm(degree, coeffs)) == text

    @given(
        a=st.lists(st.integers(-5, 5), min_size=3, max_size=3),
        b=st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    )
    def test_ring_laws(self, a, b):
        fa, fb = BivarForm(2, a), BivarForm(2, b)
        assert fa + fb == fb + fa
        assert fa * fb == fb * fa
        assert (fa + fb) - fb == fa

    @given(
        a=st.lists(st.integers(-5, 5), min_size=2, max_size=4),
        b=st.lists(st.integers(-5, 5), min_size=2, max_size=4),
    )
    def test_exact_div_of_product(self, a, b):
        fa, fb = BivarForm(len(a) - 1, a), BivarForm(len(b) - 1, b)
        if fa.is_zero() or fb.is_zero():
            return
        assert form_exact_div(fa * fb, fb) == fa

    def test_exact_div_rejects(self):
        with pytest.raises(NotDivisible):
            form_exact_div(cyclotomic_form(6), power_sum_form(2))


class TestCyclotomic:
    @pytest.mark.parametrize(
        "n,text",
        [
            (1, "X-Y"),
            (2, "X+Y"),
            (3, "X^2+X*Y+Y^2"),
            (4, "X^2+Y^2"),
            (6, "X^2-X*Y+Y^2"),
            (5, "X^4+X^3*Y+X^2*Y^2+X*Y^3+Y^4"),
        ],
    )
    def test_small_forms(self, n, text):
        assert str(cyclotomic_form(n)) == text

    @given(n=st.integers(1, 60))
    def test_degree_is_totient(self, n):
        assert cyclotomic_form(n).degree == euler_phi(n)

    @given(n=st.integers(1, 60))
    def test_product_reassembles_power_difference(self, n):
        acc = None
        for d in divisors(n):
            f = cyclotomic_form(d)
            acc = f if acc is None else acc * f
        assert acc == power_diff_form(n)

    @given(n=st.integers(2, 60))
    def test_power_sum_drops_first_factor(self, n):
        acc = None
        for d in divisors(n):
            if d >= 2:
                f = cyclotomic_form(d)
                acc = f if acc is None else acc * f
        assert acc == power_sum_form(n)

    def test_cyclotomic_rejects_bad_index(self):
        with pytest.raises(ZeroArgument):
            cyclotomic_form(0)


class TestCongruences:
    @given(k=st.integers(1, 40))
    def test_even_power_sum_congruence(self, k):
        # X^(2k) + Y^(2k) = (-1)^k 2 (XY)^k mod (X+Y)^2
        lhs = BivarForm(2 * k, [1] + [0] * (2 * k - 1) + [1])
        mono = [0] * (2 * k + 1)
        mono[k] = 2 * (-1 if k % 2 else 1)
        assert rem_mod_sum_square(lhs) == rem_mod_sum_square(BivarForm(2 * k, mono))

    @given(n=st.integers(1, 30).map(lambda k: 2 * k + 1))
    def test_odd_quotient_congruence(self, n):
        k = (n - 1) // 2
        mono = [0] * n
        mono[k] = -1 if k % 2 else 1
        assert rem_mod_sum_square(power_sum_form(n)) == rem_mod_sum_square(
            BivarForm(n - 1, mono)
        )

    @given(cs=st.integers(2, 12).flatmap(
        lambda d: st.lists(st.integers(-20, 20), min_size=d + 1, max_size=d + 1)
    ))
    def test_remainder_is_value_and_slope_at_minus_one(self, cs):
        # u(X) = a(X, 1) = r1*X + r0 mod (X + 1)^2, so r1 = u'(-1), r0 = u(-1) + u'(-1)
        d = len(cs) - 1
        value = sum(c * (-1) ** (d - k) for k, c in enumerate(cs))
        slope = sum(c * (d - k) * (-1) ** (d - k - 1) for k, c in enumerate(cs) if k < d)
        expected = BivarForm(d, [0] * (d - 1) + [slope, value + slope])
        assert rem_mod_sum_square(BivarForm(d, cs)) == expected

    def test_quotient_frozen_values(self):
        assert str(power_sum_square_quotient(3)) == "1"
        assert str(power_sum_square_quotient(5)) == "X^2-X*Y+Y^2"

    @given(n=st.integers(1, 15).map(lambda k: 2 * k + 1))
    def test_quotient_reconstructs(self, n):
        k = (n - 1) // 2
        c = power_sum_square_quotient(n)
        back = BivarForm(2, [1, 2, 1]) * c
        cs = list(back.coeffs)
        cs[k] += -1 if k % 2 else 1
        assert BivarForm(n - 1, cs) == power_sum_form(n)

    def test_quotient_rejects_even(self):
        with pytest.raises(ZeroArgument):
            power_sum_square_quotient(4)


class TestResultant:
    def test_frozen_values(self):
        assert resultant(power_sum_form(2), power_sum_form(3)) == 1
        assert resultant(cyclotomic_form(1), cyclotomic_form(2)) == 2
        assert resultant(power_sum_form(2), power_sum_form(4)) == 0

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (2, 4), (4, 6), (5, 7), (6, 9)])
    def test_check_op(self, m, n):
        ok, value = power_sum_resultant_check(m, n)
        assert ok
        if gcd(m, n) == 1:
            assert abs(value) == 1
        else:
            assert value == 0

    def test_rejects_constant_forms(self):
        with pytest.raises(ConstantForm):
            resultant(power_sum_form(2), BivarForm(0, [1]))


class TestEval:
    def test_frozen_eval(self, rationals):
        f = parse_poly(rationals, "x+1")
        g = parse_poly(rationals, "x")
        assert str(eval_form(cyclotomic_form(3), f, g)) == "3*x^2+3*x+1"

    def test_eval_respects_characteristic(self):
        f3 = PrimeField(3)
        f = parse_poly(f3, "x+1")
        g = parse_poly(f3, "x")
        # (x+1)^3 - x^3 = 1 in characteristic 3
        assert str(eval_form(power_diff_form(3), f, g)) == "1"

    @given(n=st.integers(1, 12))
    def test_eval_is_multiplicative_over_factors(self, n, rationals):
        f = parse_poly(rationals, "x^2+1")
        g = parse_poly(rationals, "x")
        acc = None
        for d in divisors(n):
            v = eval_form(cyclotomic_form(d), f, g)
            acc = v if acc is None else acc * v
        assert acc == eval_form(power_diff_form(n), f, g)
