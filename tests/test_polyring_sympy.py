"""Differential test of the raw-coefficient kernel against sympy.

sympy is a test-only dependency: the module is skipped without it.  Over
F_p, sympy prints coefficients in symmetric form (-p/2 .. p/2), so they are
taken mod p before comparing.  F_p degrees reach about 60 so that the long
unreduced sums inside division and gcd are exercised.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from seqdiv.polyring import poly_gcd

from conftest import FIELDS, poly_strategy

X = sympy.Symbol("x")


def to_sympy(f):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    if f.field.char:
        return sympy.Poly(coeffs or [0], X, modulus=f.field.p)
    return sympy.Poly(coeffs or [0], X, domain="QQ")


def scalar(c, field):
    c = sympy.Rational(c)
    if field.char:
        return int(c) % field.p
    return Fraction(int(c.p), int(c.q))


def from_sympy(g, field):
    raw = [scalar(c, field) for c in reversed(g.all_coeffs())]
    while raw and not raw[-1]:
        raw.pop()
    return tuple(raw)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
def test_kernel_matches_sympy(field, data):
    max_deg = 60 if field.char else 10
    common = data.draw(poly_strategy(field, 6, nonzero=True))
    a = data.draw(poly_strategy(field, max_deg)) * common
    b = data.draw(poly_strategy(field, max_deg, nonzero=True)) * common
    sa, sb = to_sympy(a), to_sympy(b)

    def same(ours, theirs):
        assert ours.coeffs == from_sympy(theirs, field)
        assert all(type(c) in (int, Fraction) for c in ours.coeffs)

    q, r = divmod(a, b)
    sq, sr = sa.div(sb)
    same(q, sq)
    same(r, sr)
    same(poly_gcd(a, b), sa.gcd(sb).monic())
    same(b.monic(), sb.monic())
    same(a.derivative(), sa.diff(X))
    same(a + b, sa + sb)
    same(a - b, sa - sb)
    same(b - a, sb - sa)
    same(a * b, sa * sb)
    value = a(3)
    assert value == scalar(sa.eval(3), field)
    assert type(value) in (int, Fraction)
