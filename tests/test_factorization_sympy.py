"""Differential test of factorization against sympy.

sympy is a test-only dependency: the module is skipped without it.  Over
F_p, sympy prints coefficients in symmetric form (-p/2 .. p/2), so its
factors are made monic and their coefficients taken mod p before comparing.
The prime 2^31 - 1 exercises the widest packed slots of the quotient ring
and of the Berlekamp rows; 13 is the largest prime of the byte-packed gcd
and rows (one addition between two reductions, 11 has two), and from 17 on
every gcd inside factorization takes the remainders of the list division
and the split is random.
Over Q, sympy's complete factorization restricted to degrees 1 and 2 is the
reference for the bounded-degree divisor search, output order included.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from seqdiv.coeff import PrimeField, Rationals
from seqdiv.factorization import (
    factor_fp,
    is_irreducible_fp,
    low_degree_factors_q,
    squarefree_decomp,
)
from seqdiv.polyring import Poly, parse_poly

from conftest import poly_strategy
from test_polyring_sympy import from_sympy, scalar, to_sympy

WIDE_PRIME = 2**31 - 1


def canonical(field, unit, pairs):
    """sympy's (unit, factors) with monic factors, in the order Factorization keeps."""
    for g, e in pairs:
        unit *= g.LC() ** e
    factors = sorted(
        ((from_sympy(g.monic(), field), e) for g, e in pairs),
        key=lambda fe: (len(fe[0]), fe[0]),
    )
    return scalar(unit, field), factors


def ours(fact):
    return fact.unit, [(q.coeffs, e) for q, e in fact.factors]


def squareful(data, field, max_degree):
    """A nonzero polynomial with a repeated factor, up to about max_degree."""
    h = data.draw(poly_strategy(field, max_degree - 4, nonzero=True))
    return h * data.draw(poly_strategy(field, 2, nonzero=True)) ** 2


@pytest.mark.parametrize(
    "p, max_degree",
    [(2, 20), (3, 20), (5, 20), (7, 20), (13, 20), (17, 12), (WIDE_PRIME, 8)]
    + [(p, 30) for p in (2, 3, 5, 7, 11, 13)],
)
@given(data=st.data())
def test_factor_fp_matches_sympy(p, max_degree, data):
    field = PrimeField(p)
    h = squareful(data, field, max_degree)
    unit, pairs = to_sympy(h).factor_list()
    assert ours(factor_fp(h)) == canonical(field, unit, pairs)


@pytest.mark.parametrize("p", [11, 13])
def test_factor_fp_dense_inputs_at_the_slot_bound(p):
    """Dense inputs at the two primes with the least room, 2 and 1 additions
    between two reductions of a byte slot: Frobenius rows and elimination
    steps add close to (p-1)^2 to many slots, so one reduction made a step
    late carries into a neighbouring slot and spoils a factorization."""
    field, rng = PrimeField(p), random.Random(p)
    for _ in range(30):
        h = Poly(field, [rng.randrange(1, p) for _ in range(rng.randrange(20, 31))] + [1])
        unit, pairs = to_sympy(h).factor_list()
        assert ours(factor_fp(h)) == canonical(field, unit, pairs)


@pytest.mark.parametrize(
    "p, max_degree", [(2, 20), (3, 20), (5, 20), (7, 20), (13, 20), (17, 12), (WIDE_PRIME, 8)]
)
@given(data=st.data())
def test_is_irreducible_fp_matches_sympy(p, max_degree, data):
    field = PrimeField(p)
    h = data.draw(poly_strategy(field, max_degree, nonzero=True))
    expected = h.degree >= 1 and to_sympy(h).is_irreducible
    assert is_irreducible_fp(h) is expected


@given(data=st.data())
def test_squarefree_decomp_q_matches_sympy(data):
    field = Rationals()
    h = squareful(data, field, 10)
    unit, pairs = to_sympy(h).sqf_list()
    assert ours(squarefree_decomp(h)) == canonical(field, unit, pairs)


Q = Rationals()
FORCED = [parse_poly(Q, t) for t in ("x", "x-1", "x+1", "2*x+3", "3*x^2-2", "6*x^2+x-12")]


@st.composite
def rational_products(draw):
    """Products of 1-4 factors of degree 0-3 over Q, each to the power 1 or 2."""
    non_monic = st.builds(
        lambda lead, rest: Poly(Q, rest + [lead]),
        st.integers(2, 6),
        st.lists(st.integers(-6, 6), min_size=1, max_size=2),
    )
    factor = st.one_of(
        poly_strategy(Q, 3, nonzero=True), st.sampled_from(FORCED), non_monic
    )
    h = Poly.one(Q)
    for _ in range(draw(st.integers(1, 4))):
        h = h * draw(factor) ** draw(st.integers(1, 2))
    return h


def sympy_low_degree(h):
    """Monic divisors of degree 1 and 2 from sympy, in the search's order:
    x, then linear factors by root ascending, then quadratics by coefficients."""
    _, pairs = sympy.factor_list(to_sympy(h), domain=sympy.QQ)
    monics = [from_sympy(g.monic(), Q) for g, _ in pairs if 1 <= g.degree() <= 2]
    linear = sorted((m for m in monics if len(m) == 2), key=lambda m: (m[0] != 0, -m[0]))
    return linear + sorted(m for m in monics if len(m) == 3)


@given(h=rational_products())
def test_low_degree_factors_q_matches_sympy(h):
    assert [q.coeffs for q in low_degree_factors_q(h)] == sympy_low_degree(h)
