"""Differential test of factorization against sympy.

sympy is a test-only dependency: the module is skipped without it.  Over
F_p, sympy prints coefficients in symmetric form (-p/2 .. p/2), so its
factors are made monic and their coefficients taken mod p before comparing.
The prime 2^31 - 1 exercises the widest packed slots of the quotient ring.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from seqdiv.coeff import PrimeField, Rationals
from seqdiv.factorization import factor_fp, is_irreducible_fp, squarefree_decomp

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


@pytest.mark.parametrize("p, max_degree", [(2, 20), (3, 20), (5, 20), (7, 20), (WIDE_PRIME, 8)])
@given(data=st.data())
def test_factor_fp_matches_sympy(p, max_degree, data):
    field = PrimeField(p)
    h = squareful(data, field, max_degree)
    unit, pairs = to_sympy(h).factor_list()
    assert ours(factor_fp(h)) == canonical(field, unit, pairs)


@pytest.mark.parametrize("p, max_degree", [(2, 20), (3, 20), (5, 20), (7, 20), (WIDE_PRIME, 8)])
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
