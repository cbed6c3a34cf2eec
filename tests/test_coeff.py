import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqdiv.coeff import PRIME_BOUND, PrimeField, Rationals, is_prime
from seqdiv.errors import NotPrime, ParseError, WrongField


class TestRationals:
    def test_constants(self, rationals):
        assert rationals.char == 0

    def test_normalize_accepts_ints_and_fractions(self, rationals):
        for v, want in ((3, 3), (Fraction(4, 2), 2), (True, 1)):
            got = rationals.normalize(v)
            assert got == want and type(got) is int
        assert rationals.normalize(Fraction(2, 4)) == Fraction(1, 2)
        with pytest.raises(WrongField):
            rationals.normalize(1.5)

    def test_scalar_parsing(self, rationals):
        got = rationals.parse_scalar("-6/3")
        assert got == -2 and type(got) is int
        got = rationals.parse_scalar("-3/6")
        assert got == Fraction(-1, 2) and type(got) is Fraction
        with pytest.raises(ParseError):
            rationals.parse_scalar("1/0")
        with pytest.raises(ParseError):
            rationals.parse_scalar("x")


class TestPrimeField:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101])
    def test_accepts_primes(self, p):
        assert PrimeField(p).p == p

    @pytest.mark.parametrize("n", [0, 1, 4, 6, 9, 100])
    def test_rejects_composites(self, n):
        with pytest.raises(NotPrime):
            PrimeField(n)

    def test_no_fraction_literals(self):
        f = PrimeField(5)
        with pytest.raises(ParseError):
            f.parse_scalar("1/2")
        assert f.parse_scalar("-1") == 4

    def test_equality_is_by_characteristic(self):
        assert PrimeField(5) == PrimeField(5)
        assert PrimeField(5) != PrimeField(7)
        assert PrimeField(5) != Rationals()

    def test_descriptors_are_interned(self):
        assert PrimeField(5) is PrimeField(5)
        assert PrimeField(5) is not PrimeField(7)
        assert Rationals() is Rationals()
        assert pickle.loads(pickle.dumps(PrimeField(5))) is PrimeField(5)

    @pytest.mark.parametrize("p", [2.0, True, "5"])
    def test_rejects_non_integer_moduli(self, p):
        with pytest.raises(NotPrime):
            PrimeField(p)

    def test_wide_prime_is_accepted_quickly(self):
        p = 2**61 - 1  # trial division to its square root takes minutes
        start = time.perf_counter()
        assert PrimeField(p).p == p
        assert time.perf_counter() - start < 0.5


# 2047 and 3215031751 are strong pseudoprimes to base 2 (the latter to bases
# 2, 3, 5 and 7); 561 and 41041 are Carmichael numbers.
@pytest.mark.parametrize(
    "n,expect",
    [
        (2, True), (3, True), (4, False), (97, True), (91, False), (1, False),
        (2047, False), (3215031751, False), (561, False), (41041, False),
        (2**31 - 1, True), (2**61 - 1, True), ((2**31 - 1) * (10**9 + 7), False),
    ],
)
def test_is_prime(n, expect):
    assert is_prime(n) is expect


def test_is_prime_refuses_above_the_bound():
    with pytest.raises(NotPrime, match=str(PRIME_BOUND)):
        is_prime(2**89 - 1)


@given(n=st.integers(0, 5000))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) is (n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1)))
