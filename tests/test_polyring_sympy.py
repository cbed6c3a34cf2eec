"""Differential test of the raw-coefficient kernel against sympy.

sympy is a test-only dependency: the module is skipped without it.  Over
F_p, sympy prints coefficients in symmetric form (-p/2 .. p/2), so they are
taken mod p before comparing.  F_p degrees reach about 60 so that the long
unreduced sums inside division and gcd are exercised.

Over F_p the gcd has two Euclidean loops, byte-packed for p <= 13 and on
lists above; both are compared with sympy, including inputs that take the
packed slots to their bound.

Over Q, exact division, valuation and gcd run on primitive integer forms;
the tests below compare them with sympy, with plain division (divmod) and
with the Euclidean gcd loop the heuristic gcd falls back to.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from seqdiv import polyring
from seqdiv.coeff import PrimeField, Rationals
from seqdiv.errors import NotDivisible
from seqdiv.polyring import (
    Poly,
    _heu_gcd_z,
    _int_form,
    _strip_power,
    exact_div,
    parse_poly,
    poly_gcd,
    valuation,
)

from conftest import FIELDS, poly_strategy

Q = Rationals()
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
    value = polyring._horner(a.coeffs, 3)
    value = value % field.p if field.char else value
    assert value == scalar(sa.eval(3), field)
    assert type(value) in (int, Fraction)


def sympy_gcd(a, b):
    return from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)).monic(), a.field)


# 2..13 take the byte-packed loop (11 and 13 renormalize within a division),
# 17 and 2^31 - 1 the list loop.
GCD_PRIMES = (2, 3, 5, 7, 11, 13, 17, 2**31 - 1)


@pytest.mark.parametrize("p", GCD_PRIMES)
@given(data=st.data())
def test_fp_gcd_matches_sympy(p, data):
    """Degrees up to 60 around a drawn common factor, which may be zero or a
    constant, as may either cofactor."""
    field = PrimeField(p)
    common = data.draw(poly_strategy(field, 6))
    a = data.draw(poly_strategy(field, 54)) * common
    b = data.draw(poly_strategy(field, 54)) * common
    g = poly_gcd(a, b)
    assert g.coeffs == sympy_gcd(a, b)
    assert poly_gcd(b, a) == g


@pytest.mark.parametrize("p", GCD_PRIMES)
def test_fp_gcd_zero_and_constants(p):
    field = PrimeField(p)
    zero, one = Poly.zero(field), Poly.one(field)
    c, f = Poly(field, [p - 1]), Poly(field, [1, 0, p - 1, p - 1])
    for a, b, g in [(zero, zero, zero), (zero, c, one), (c, f, one), (zero, f, f.monic())]:
        assert poly_gcd(a, b) == poly_gcd(b, a) == g
        assert g.coeffs == sympy_gcd(a, b)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_fp_gcd_at_the_slot_bound(p):
    """The first division adds the most a step can, (p-1)^2, to every slot.
    The divisor b has every coefficient p-1 and degree room + 2, and a = b*c
    where the top room + 1 coefficients of c are 1, so each of the first
    room + 1 quotient steps is q = p-1; the next two coefficients of c make
    the two slots below those steps start at p-1.  After room steps those
    slots reach p-1 + room (p-1)^2 <= 255, the bound; one step more before
    the renormalization would carry.  The gcd is b itself, so a carry that
    spoils the remainder shows."""
    room = (256 - p) // (p - 1) ** 2
    field = PrimeField(p)
    b = Poly(field, [p - 1] * (room + 3))
    a = b * Poly(field, [0, -room] + [1] * (room + 1))
    assert poly_gcd(a, b) == poly_gcd(b, a) == b.monic()
    assert b.monic().coeffs == sympy_gcd(a, b)


def list_euclid_gcd(a, b):
    """The list loop of _gcd_raw made monic by _monic_raw: the reference for the packed loop."""
    field, a, b = a.field, list(a.coeffs), list(b.coeffs)
    while b:
        a, b = b, polyring._divrem_raw(a, b, field)[1]
    return tuple(polyring._monic_raw(a, field)) if a else ()


def random_poly(field, rng, degree, lead=None):
    p = field.p
    return Poly(field, [rng.randrange(p) for _ in range(degree)] + [lead or rng.randrange(1, p)])


PACKED_PRIMES = (3, 5, 7, 11, 13)


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_gcd_makes_every_lead_monic(p):
    """The packed loop makes its last remainder monic in bytes.  gcd(f, 0)
    and gcd(f u, f) end on f itself, so every lead 1..p-1 is taken there;
    gcd(f u, f v) ends on a multiple of f."""
    field = PrimeField(p)
    rng = random.Random(p)
    zero = Poly.zero(field)
    for lead in range(1, p):
        for degree in range(6):
            f = random_poly(field, rng, degree, lead)
            u, v = random_poly(field, rng, 4), random_poly(field, rng, 3)
            for a, b in [(f, zero), (f * u, f), (f * u, f * v)]:
                g = poly_gcd(a, b)
                assert g.coeffs == list_euclid_gcd(a, b) == sympy_gcd(a, b)
                assert poly_gcd(b, a) == g


@pytest.mark.parametrize("p", [11, 13])
def test_packed_gcd_one_degree_drop(p):
    """A division that drops the degree by one takes two steps.  b has every
    coefficient p-1 and a = b (x + 1), so both steps add (p-1)^2 to a slot
    that starts at p-1 or p-2: 210 <= 255 at p = 11 (room 2), where the two
    steps run unrolled, but 300 at p = 13 (room 1), where they must not."""
    assert (256 - p) // (p - 1) ** 2 == (2 if p == 11 else 1)
    field = PrimeField(p)
    for k in range(1, 9):
        b = Poly(field, [p - 1] * k)
        a = b * Poly(field, [1, 1])
        assert poly_gcd(a, b) == poly_gcd(b, a) == b.monic()
        assert b.monic().coeffs == sympy_gcd(a, b)


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_gcd_consecutive_degrees(p):
    """Degrees d + 1 and d: most divisions of the run drop the degree by one."""
    field = PrimeField(p)
    rng = random.Random(100 + p)
    for _ in range(60):
        d = rng.randrange(1, 12)
        common = random_poly(field, rng, rng.randrange(3))
        a = random_poly(field, rng, d + 1) * common
        b = random_poly(field, rng, d) * common
        assert poly_gcd(a, b).coeffs == list_euclid_gcd(a, b) == sympy_gcd(a, b)


def exact_types(f):
    return all(type(c) in (int, Fraction) for c in f.coeffs)


def euclid_gcd(a, b):
    """poly_gcd with the heuristic switched off: the Euclidean loop alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyring, "_HEU_GCD_TRIES", 0)
        return poly_gcd(a, b)


SCALES = st.sampled_from([1, -1, 6, Fraction(1, 6), Fraction(-4, 9)])


@given(data=st.data(), s=SCALES, t=SCALES)
def test_q_gcd_matches_sympy_and_euclid(data, s, t):
    """Non-monic, non-primitive and Fraction inputs, zero arguments included."""
    common = data.draw(poly_strategy(Q, 4))
    a = data.draw(poly_strategy(Q, 8)) * common * s
    b = data.draw(poly_strategy(Q, 8)) * common * t
    g = poly_gcd(a, b)
    assert g.coeffs == from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)).monic(), Q)
    assert g == euclid_gcd(a, b) and exact_types(g)


@pytest.mark.parametrize("m", range(1, 60))
def test_q_gcd_needs_the_evaluation_bound(m):
    """gcd((x-m)(x+1), (x-m)(x+2)) = x-m.  Both arguments of the min norm m.
    At any integer xi below 2m+1 the integer gcd of the values reconstructs
    a proper divisor that the divisions accept (at xi = 2m it is the constant
    m), so a start below the bound of GCDHEU gives 1 here."""
    f, g = Poly(Q, [-m, 1 - m, 1]), Poly(Q, [-2 * m, 2 - m, 1])
    assert _heu_gcd_z(list(f.coeffs), list(g.coeffs)) == [-m, 1]
    assert poly_gcd(f, g) == poly_gcd(f * Fraction(2, 3), g * -5) == Poly(Q, [-m, 1])


@pytest.mark.parametrize(
    "f,g",
    [
        ([0, 3, 2], [-1, 1, -1, 1]),
        ([-2, -1, 3, -3, 1], [6, -7, 0, 1]),
        ([6, -7, 12, -6, 9], [4, -4, 3, 3]),
    ],
    ids=["divides-f-only", "divides-g-only", "divides-neither"],
)
def test_q_gcd_rejects_a_false_reconstruction(f, g):
    """At the first evaluation point the reconstruction of the integer gcd is
    2x+3, x^2+x-6 and x^3+x^2-x-11, which divides only f, only g, and neither;
    each of the two divisions is needed to reject it."""
    f, g = Poly(Q, f), Poly(Q, g)
    expected = from_sympy(sympy.gcd(to_sympy(f), to_sympy(g)).monic(), Q)
    assert poly_gcd(f, g).coeffs == euclid_gcd(f, g).coeffs == expected


@given(data=st.data())
def test_q_gcd_heuristic_matches_euclid_on_integer_forms(data):
    """Where the heuristic answers, it agrees with Euclid; on these inputs it always answers."""
    common = data.draw(poly_strategy(Q, 5, nonzero=True))
    a = data.draw(poly_strategy(Q, 10, nonzero=True)) * common
    b = data.draw(poly_strategy(Q, 10, nonzero=True)) * common
    h = _heu_gcd_z(_int_form(a.coeffs)[0], _int_form(b.coeffs)[0])
    assert h is not None and h[-1] > 0
    assert Poly(Q, h).monic() == euclid_gcd(a, b)


def divmod_valuation(q, h):
    e = 0
    while True:
        quo, rem = divmod(h, q)
        if rem:
            return e, h
        h, e = quo, e + 1


def check_division(q, h):
    """exact_div, _strip_power and valuation of h by q against plain division."""
    quo, rem = divmod(h, q)
    if rem:
        with pytest.raises(NotDivisible):
            exact_div(h, q)
    else:
        got = exact_div(h, q)
        assert got == quo and exact_types(got)
    if h:
        e, rest = _strip_power(q, h)
        assert (e, rest) == divmod_valuation(q, h) and exact_types(rest)
        assert valuation(q, h) == e


@given(data=st.data(), s=SCALES)
def test_q_exact_div_and_valuation_match_divmod(data, s):
    """The integer-form division agrees with plain division, divisible or not."""
    q = data.draw(poly_strategy(Q, 3).filter(lambda f: f.degree >= 1)) * s
    h = data.draw(poly_strategy(Q, 6, nonzero=True))
    check_division(q, h)
    check_division(q, h * q ** data.draw(st.integers(0, 3)) + data.draw(poly_strategy(Q, 1)))


@pytest.mark.parametrize(
    "h",
    ["x^2", "2*x^2+3*x+2", "3/4*x^2+3/4*x+3/16", "0"],
    ids=["fails-at-first-coefficient", "fails-at-remainder", "fraction-square", "zero"],
)
def test_q_exact_div_pinned(h):
    """Divided by 2x+1: x^2 fails at the first quotient coefficient over Z,
    2x^2+3x+2 = (2x+1)(x+1)+1 only at the remainder, and 3/4 (x+1/2)^2 has
    valuation 2 with cofactor 3/16."""
    check_division(parse_poly(Q, "2*x+1"), parse_poly(Q, h))
