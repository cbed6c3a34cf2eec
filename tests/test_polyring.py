from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seqdiv.coeff import PrimeField, Rationals
from seqdiv.errors import (
    DivisionByZero,
    FieldMismatch,
    NotDivisible,
    ParseError,
    PreconditionViolated,
    ZeroArgument,
)
from seqdiv.polyring import (
    MAX_EXPONENT,
    Poly,
    _exact_quotient_z,
    _mul_raw,
    _strip_power,
    exact_div,
    format_poly,
    is_associated,
    parse_poly,
    poly_gcd,
    valuation,
)

from conftest import FIELDS, poly_strategy


class TestArithmetic:
    @given(data=poly_strategy(PrimeField(5)))
    def test_additive_group(self, data):
        a = data
        zero = Poly.zero(a.field)
        assert a + zero == a
        assert a - a == zero
        assert -(-a) == a

    @given(a=poly_strategy(PrimeField(7), 3), b=poly_strategy(PrimeField(7), 3))
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(
        a=poly_strategy(Rationals(), 3),
        b=poly_strategy(Rationals(), 3),
        c=poly_strategy(Rationals(), 3),
    )
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    def test_value_semantics(self, f5):
        q = parse_poly(f5, "x+2")
        assert repr(q) == "Poly(PrimeField(5), [2, 1])"
        with pytest.raises(AttributeError):
            q.coeffs = (1,)
        with pytest.raises(TypeError, match="expected Poly"):
            q._check(2)

    def test_degree_and_lc(self, f5):
        q = parse_poly(f5, "3*x^4+x+2")
        assert q.degree == 4
        assert q.lc() == 3
        assert Poly.zero(f5).degree == -1

    def test_mixed_fields_rejected(self, f5):
        with pytest.raises(FieldMismatch):
            parse_poly(f5, "x") + parse_poly(Rationals(), "x")

    def test_pow(self, f5):
        q = parse_poly(f5, "x+1")
        assert q**3 == parse_poly(f5, "x^3+3*x^2+3*x+1")
        assert q**0 == Poly.one(f5)

        with pytest.raises(ValueError):
            q**-1

    def test_scalar_on_the_left(self, f5, rationals):
        # 3 - p reaches Poly.__rsub__, which must stay in the class dict
        assert "__rsub__" in Poly.__dict__
        assert 3 - parse_poly(f5, "x+1") == parse_poly(f5, "4*x+2")
        assert Fraction(1, 2) - parse_poly(rationals, "x") == parse_poly(rationals, "-x+1/2")

    def test_divmod(self, f5):
        p, q = parse_poly(f5, "x^3+2*x+1"), parse_poly(f5, "x+1")
        assert divmod(p, q) == (parse_poly(f5, "x^2+4*x+3"), parse_poly(f5, "3"))

    @pytest.mark.parametrize("other", ["x", 1.5, None])
    def test_foreign_operand_is_a_type_error(self, f5, other):
        q = parse_poly(f5, "x+1")
        for op in (
            lambda: q + other,
            lambda: other + q,
            lambda: q - other,
            lambda: other - q,
            lambda: q * other,
            lambda: other * q,
            lambda: divmod(q, other),
        ):
            with pytest.raises(TypeError):
                op()

class TestDivision:
    @given(
        a=poly_strategy(PrimeField(5), 5),
        b=poly_strategy(PrimeField(5), 3, nonzero=True),
    )
    def test_divrem_invariant(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    @given(
        a=poly_strategy(Rationals(), 4),
        b=poly_strategy(Rationals(), 2, nonzero=True),
    )
    def test_divrem_invariant_rationals(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_division_by_zero(self, f5):
        with pytest.raises(DivisionByZero):
            divmod(parse_poly(f5, "x"), Poly.zero(f5))

    def test_exact_division_frozen(self, f5):
        q, r = divmod(parse_poly(f5, "x^2+1"), parse_poly(f5, "x+2"))
        assert format_poly(q) == "x+3"
        assert r.is_zero()
        assert exact_div(parse_poly(f5, "x^2+1"), parse_poly(f5, "x+2")) == q

    def test_exact_division_rejects_remainder(self, f5):
        with pytest.raises(NotDivisible):
            exact_div(parse_poly(f5, "x^2+1"), parse_poly(f5, "x+1"))

    @given(
        a=poly_strategy(PrimeField(3), 3, nonzero=True),
        b=poly_strategy(PrimeField(3), 3, nonzero=True),
    )
    def test_exact_div_of_product(self, a, b):
        assert exact_div(a * b, b) == a


class TestGcd:
    @given(
        a=poly_strategy(PrimeField(5), 4),
        b=poly_strategy(PrimeField(5), 4),
    )
    def test_gcd_divides_both(self, a, b):
        if a.is_zero() and b.is_zero():
            return
        g = poly_gcd(a, b)
        assert g.monic() == g
        for h in (a, b):
            if not h.is_zero():
                _, r = divmod(h, g)
                assert r.is_zero()

    @given(
        a=poly_strategy(Rationals(), 3, nonzero=True),
        b=poly_strategy(Rationals(), 3, nonzero=True),
        c=poly_strategy(Rationals(), 2, nonzero=True),
    )
    def test_gcd_respects_common_factor(self, a, b, c):
        # gcd(ac, bc) = gcd(a,b) * c up to units
        assert poly_gcd(a * c, b * c) == (poly_gcd(a, b) * c).monic()

    def test_gcd_with_zero(self, f5):
        q = parse_poly(f5, "2*x+2")
        assert poly_gcd(q, Poly.zero(f5)) == q.monic()
        assert poly_gcd(Poly.zero(f5), Poly.zero(f5)).is_zero()

    def test_frozen_gcd(self, rationals):
        a = parse_poly(rationals, "x^3-2*x")
        b = parse_poly(rationals, "x^5-4*x^3+3*x")
        assert format_poly(poly_gcd(a, b)) == "x"


class TestNormalForms:
    def test_monic_and_associates(self, f5):
        q = parse_poly(f5, "2*x+2")
        assert format_poly(q.monic()) == "x+1"
        assert is_associated(q, parse_poly(f5, "3*x+3"))
        assert not is_associated(q, parse_poly(f5, "x+2"))

    def test_units(self, rationals):
        assert parse_poly(rationals, "5").is_unit()
        assert not parse_poly(rationals, "x").is_unit()
        assert not Poly.zero(rationals).is_unit()

    def test_ideals_coprime(self, rationals):
        x = parse_poly(rationals, "x")
        assert poly_gcd(x, parse_poly(rationals, "x+1")).is_unit()
        assert not poly_gcd(x, parse_poly(rationals, "x^2+x")).is_unit()


class TestValuation:
    def test_valuation_counts_multiplicity(self, rationals):
        x = parse_poly(rationals, "x")
        h = parse_poly(rationals, "x^3+x^2")
        assert valuation(x, h) == 2
        assert valuation(parse_poly(rationals, "x+1"), h) == 1
        assert valuation(parse_poly(rationals, "x+2"), h) == 0

    def test_valuation_of_zero_rejected(self, rationals):
        with pytest.raises(ZeroArgument):
            valuation(parse_poly(rationals, "x"), Poly.zero(rationals))

    def test_valuation_by_a_constant_rejected(self, rationals):
        with pytest.raises(PreconditionViolated):
            valuation(parse_poly(rationals, "2"), parse_poly(rationals, "x^2"))

    @given(data=st.data(), field=st.sampled_from(FIELDS))
    def test_strip_power_removes_every_factor(self, data, field):
        q = data.draw(poly_strategy(field, max_degree=2).filter(lambda q: q.degree >= 1))
        h = data.draw(poly_strategy(field, max_degree=3, nonzero=True))
        k = data.draw(st.integers(0, 3))
        e, rest = _strip_power(q, h * q**k)
        assert e >= k and rest * q**e == h * q**k and not divmod(rest, q)[1].is_zero()

    @pytest.mark.parametrize("field", FIELDS)
    def test_strip_power_of_zero(self, field):
        # over F_p 0 / q = 0, so without its guard the loop would never end
        zero = Poly.zero(field)
        e, rest = _strip_power(parse_poly(field, "x+1"), zero)
        assert e == 0 and rest.is_zero()


INTS = st.lists(st.integers(-6, 6), min_size=1, max_size=6)
NONZERO_LEAD = INTS.filter(lambda b: b[-1] != 0)


class TestExactQuotientZ:
    @given(a=INTS, b=NONZERO_LEAD)
    def test_quotient_of_a_product(self, a, b):
        assert _exact_quotient_z(_mul_raw(a, b), b) == a

    @given(a=INTS, b=NONZERO_LEAD)
    @example(a=[1, 0, 1], b=[1, 1])
    @example(a=[1, 2], b=[1, 2])
    @example(a=[2, 1], b=[2])
    def test_none_exactly_when_not_divisible_over_z(self, a, b):
        q, r = divmod(Poly(Rationals(), a), Poly(Rationals(), b))
        integral = all(Fraction(c).denominator == 1 for c in q.coeffs)
        got = _exact_quotient_z(a, b)
        if r or not integral:
            assert got is None
        else:
            assert Poly(Rationals(), got) == q


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,canon",
        [
            ("x^3-2*x", "x^3-2*x"),
            ("1/2*x+3", "1/2*x+3"),
            ("-x", "-x"),
            ("x + 1", "x+1"),
            ("3", "3"),
            ("0", "0"),
            ("2*x^2 - x + 1", "2*x^2-x+1"),
            ("2x", "2*x"),
            ("x-x", "0"),
        ],
    )
    def test_canonical_q(self, rationals, text, canon):
        assert format_poly(parse_poly(rationals, text)) == canon

    def test_canonical_fp(self, f5):
        assert format_poly(parse_poly(f5, "-x+7")) == "4*x+2"
        assert format_poly(parse_poly(f5, "x^2+4*x^2+x")) == "x"
        assert format_poly(parse_poly(f5, "5*x^3+1")) == "1"

    @pytest.mark.parametrize("bad", ["", "x^^2", "x^", "^2", "x**2", "x+", "(x+1)"])
    def test_parse_rejects(self, rationals, bad):
        with pytest.raises(ParseError):
            parse_poly(rationals, bad)

    @pytest.mark.parametrize("bad", ["*", "3*", "*x", "x+3*"])
    def test_stray_star_is_a_bad_term(self, rationals, bad):
        with pytest.raises(ParseError, match="bad term"):
            parse_poly(rationals, bad)

    def test_exponent_cap(self, f5):
        assert parse_poly(f5, f"x^{MAX_EXPONENT}").degree == MAX_EXPONENT
        assert parse_poly(f5, "x^007") == parse_poly(f5, "x^7")
        for bad in (f"x^{MAX_EXPONENT + 1}", "x^1000000000", "x^" + "9" * 5000):
            with pytest.raises(ParseError, match="exceeds"):
                parse_poly(f5, bad)

    @given(q=poly_strategy(Rationals(), 4))
    def test_roundtrip_q(self, rationals, q):
        assert parse_poly(rationals, format_poly(q)) == q

    @given(q=poly_strategy(PrimeField(7), 4))
    def test_roundtrip_fp(self, q):
        assert parse_poly(q.field, format_poly(q)) == q
