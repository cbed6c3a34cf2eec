import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqdiv.coeff import PrimeField, Rationals
from seqdiv.errors import UnsupportedField, ZeroArgument
from seqdiv import factorization
from seqdiv.factorization import (
    Factorization,
    factor_fp,
    is_irreducible_fp,
    low_degree_factors_q,
    squarefree_decomp,
)
from seqdiv.polyring import Poly, parse_poly, poly_gcd

from conftest import poly_strategy


class TestFactorFp:
    def test_frozen_example(self, f5):
        fact = factor_fp(parse_poly(f5, "x^2+1"))
        assert str(fact) == "(x+2)(x+3)"

    def test_unit_prefix_and_exponents(self, f5):
        fact = factor_fp(parse_poly(f5, "2*x^2+4*x+2"))
        assert str(fact) == "2(x+1)^2"
        assert fact.unit == 2

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @given(data=st.data())
    def test_expand_roundtrip(self, p, data):
        field = PrimeField(p)
        h = data.draw(poly_strategy(field, 6, nonzero=True))
        fact = factor_fp(h)
        assert fact.expand() == h

    @pytest.mark.parametrize("p", [2, 3, 5])
    @given(data=st.data())
    def test_factors_are_monic_irreducible(self, p, data):
        field = PrimeField(p)
        h = data.draw(poly_strategy(field, 5, nonzero=True))
        for f, e in factor_fp(h):
            assert e >= 1
            assert f.lc() == 1
            assert is_irreducible_fp(f)

    def test_deterministic_across_seeds_and_runs(self, f5, monkeypatch):
        h = parse_poly(f5, "x^6+x^4+3*x^2+2*x+4")
        first = factor_fp(h)
        assert factor_fp(h) == first
        monkeypatch.setattr(factorization, "_DEFAULT_SEED", 99)
        assert factor_fp(h) == first

    def test_char_p_power(self):
        f2 = PrimeField(2)
        fact = factor_fp(parse_poly(f2, "x^2+1"))
        assert str(fact) == "(x+1)^2"

    def test_frobenius_pth_root(self):
        f3 = PrimeField(3)
        # x^9 - x = product of all monic linears and cubics dividing it
        fact = factor_fp(parse_poly(f3, "x^9-x"))
        assert fact.expand() == parse_poly(f3, "x^9-x")
        assert all(e == 1 for _, e in fact)

    @pytest.mark.parametrize(
        "p, factors, expected",
        [
            # the trace branch; three quartics need a split inside a split
            (
                2,
                "x, x+1, x^2+x+1, x^3+x+1, x^3+x^2+1, x^4+x+1, x^4+x^3+1, x^4+x^3+x^2+x+1",
                "(x)(x+1)(x^2+x+1)(x^3+x^2+1)(x^3+x+1)(x^4+x^3+1)(x^4+x+1)(x^4+x^3+x^2+x+1)",
            ),
            # five linears need a split inside a split; (x^2+x+1)^2 makes a
            # second squarefree part
            (
                5,
                "x^5-x, x^2+2, x^2+3, x^3+x+1, x^2+x+1, x^2+x+1",
                "(x)(x+1)(x+2)(x+3)(x+4)(x^2+x+1)^2(x^2+2)(x^2+3)(x^3+x+1)",
            ),
        ],
    )
    @pytest.mark.parametrize("seed", [None, 2, 3])
    def test_splits_at_several_degrees(self, p, factors, expected, seed, monkeypatch):
        """The squarefree part splits at several degrees, and every equal-degree
        split takes its gcd against its own factor, not the ring's modulus."""
        if seed is not None:
            monkeypatch.setattr(factorization, "_DEFAULT_SEED", seed)
        field = PrimeField(p)
        h = Poly.one(field)
        for text in factors.split(", "):
            h = h * parse_poly(field, text)
        assert str(factor_fp(h)) == expected

    def test_rejects_zero(self, f5):
        with pytest.raises(ZeroArgument):
            factor_fp(Poly.zero(f5))

    def test_rejects_rationals(self, rationals):
        with pytest.raises(UnsupportedField):
            factor_fp(parse_poly(rationals, "x^2-1"))

    def test_constant_input(self, f5):
        fact = factor_fp(parse_poly(f5, "3"))
        assert fact.unit == 3 and fact.factors == ()

    def test_value_semantics(self, f5):
        fact = factor_fp(parse_poly(f5, "2*x^2+2"))
        assert repr(fact) == (
            "Factorization(PrimeField(5), 2, ((Poly(PrimeField(5), [2, 1]), 1), "
            "(Poly(PrimeField(5), [3, 1]), 1)))"
        )
        assert hash(fact) == hash(factor_fp(parse_poly(f5, "2*x^2+2")))
        with pytest.raises(AttributeError):
            fact.unit = 1


class TestIrreducibility:
    @pytest.mark.parametrize(
        "p,text,expect",
        [
            (2, "x^2+x+1", True),
            (2, "x^2+1", False),
            (5, "x^2+2", True),
            (5, "x^2+1", False),
            (3, "x^3-x+1", True),
            (7, "x", True),
        ],
    )
    def test_known_cases(self, p, text, expect):
        assert is_irreducible_fp(parse_poly(PrimeField(p), text)) is expect

    def test_rejects_rationals(self, rationals):
        with pytest.raises(UnsupportedField):
            is_irreducible_fp(parse_poly(rationals, "x^2+1"))


class TestSquarefree:
    @pytest.mark.parametrize("p", [0, 5])
    def test_rejects_zero(self, p):
        field = PrimeField(p) if p else Rationals()
        with pytest.raises(ZeroArgument):
            squarefree_decomp(Poly.zero(field))

    def test_yun_over_q(self, rationals):
        h = parse_poly(rationals, "x^3-x^2-x+1")  # (x-1)^2 (x+1)
        fact = squarefree_decomp(h)
        parts = {str(f): e for f, e in fact}
        assert parts == {"x-1": 2, "x+1": 1}

    def test_char_p_squarefree(self):
        f3 = PrimeField(3)
        h = parse_poly(f3, "x^3+2")  # (x+2)^3 in characteristic 3
        fact = squarefree_decomp(h)
        assert {str(f): e for f, e in fact} == {"x+2": 3}

    @given(data=st.data())
    def test_components_are_coprime_and_squarefree(self, data):
        field = PrimeField(5)
        h = data.draw(poly_strategy(field, 6, nonzero=True))
        fact = squarefree_decomp(h)
        assert fact.expand() == h
        comps = [f for f, _ in fact.factors]
        for i, f in enumerate(comps):
            assert poly_gcd(f, f.derivative()).is_unit()
            for g in comps[i + 1 :]:
                assert poly_gcd(f, g).is_unit()


class TestLowDegreeFactorsQ:
    def test_guards(self, rationals, f5):
        with pytest.raises(UnsupportedField):
            low_degree_factors_q(parse_poly(f5, "x^2+1"))
        with pytest.raises(ZeroArgument):
            low_degree_factors_q(Poly.zero(rationals))

    def test_linear_roots(self, rationals):
        h = parse_poly(rationals, "x^2-1")
        found = {str(f) for f in low_degree_factors_q(h)}
        assert found == {"x-1", "x+1"}

    def test_rational_root(self, rationals):
        h = parse_poly(rationals, "2*x^2-x")  # roots 0 and 1/2
        found = {str(f) for f in low_degree_factors_q(h)}
        assert found == {"x", "x-1/2"}

    def test_irreducible_quadratic(self, rationals):
        h = parse_poly(rationals, "x^4-x^2-2")  # (x^2+1)(x^2-2)
        found = {str(f) for f in low_degree_factors_q(h)}
        assert found == {"x^2+1", "x^2-2"}

    def test_repeated_factor_listed_once(self, rationals):
        h = parse_poly(rationals, "x^4+2*x^2+1")  # (x^2+1)^2
        assert {str(f) for f in low_degree_factors_q(h)} == {"x^2+1"}

    def test_skips_higher_degree(self, rationals):
        h = parse_poly(rationals, "x^5-x+1")  # irreducible quintic
        assert low_degree_factors_q(h) == []

    @pytest.mark.parametrize(
        "text,expected",
        [
            # c(1) = c(-1) = 0, and candidates with u + v = 0 and v - u = 0 divide
            ("x^3-x", ["x", "x+1", "x-1"]),
            ("x^3-x^2+x-1", ["x-1", "x^2+1"]),  # c(1) = 0
            ("x^3+x^2+x+1", ["x+1", "x^2+1"]),  # c(-1) = 0
            # u + v = 0 and v - u = 0 at nonzero c(1), c(-1): both rejected
            ("x^2+1", ["x^2+1"]),
            ("x^4+3*x^2+2", ["x^2+1", "x^2+2"]),  # quadratic x^2+3x+2 has q(-1) = 0
            ("x^4+x^2+4", []),  # quadratic x^2-4x+4 has q(2) = 0
        ],
    )
    def test_value_filter_zero_guards(self, rationals, text, expected):
        found = low_degree_factors_q(parse_poly(rationals, text))
        assert [str(f) for f in found] == expected

    def test_divisors_actually_divide(self, rationals):
        h = parse_poly(rationals, "x^6-1")
        for f in low_degree_factors_q(h):
            assert valuation_divides(f, h)


def valuation_divides(f, h):
    _, r = divmod(h, f)
    return r.is_zero()
