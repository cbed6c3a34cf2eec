"""Squarefree decomposition over Q and F_p, full factorization over F_p,
and the bounded-degree rational divisor search used by the valuation checks.

The F_p pipeline is squarefree decomposition (with p-th-root extraction when
the derivative vanishes), then distinct-degree splitting with Frobenius
powers, then randomized equal-degree splitting; for p = 2 the equal-degree
split uses the trace map.  Randomness is confined to an explicitly seeded
generator so runs are reproducible, and factors are returned in a canonical
order either way.

The distinct- and equal-degree steps work on raw lists in one
``_QuotientRing`` F_p[x]/(f) per squarefree part f: Kronecker substitution
packs each operand into one int, so a product is one multiply, then its
slots are reduced mod p and mod f.  Every cofactor and split factor g they
take a gcd with divides f, so gcd(g, h mod f) = gcd(g, h): the ring is never
rebuilt for a smaller modulus.

Over Q only the divisors of degree 1 and 2 are searched for, on the
primitive integer form c of the squarefree part.  By Gauss's lemma a
primitive integer polynomial divides c over Q exactly when it divides c over
Z, so each candidate allowed by the divisors of lead(c), c(0) and c(1), and
by the values of c at two more small integers, is tested by one exact
division over Z.
"""

import random
from fractions import Fraction

from .coeff import PrimeField, Rationals
from .cyclokit import divisors
from .errors import UnsupportedField, ZeroArgument
from .polyring import (
    Poly,
    _divrem_raw,
    _exact_quotient_z,
    _gcd_raw,
    _horner,
    _int_form,
    _strip,
    exact_div,
    poly_gcd,
)

__all__ = [
    "Factorization",
    "factors_text",
    "squarefree_decomp",
    "factor_fp",
    "is_irreducible_fp",
    "low_degree_factors_q",
]

_DEFAULT_SEED = 1


class Factorization:
    """unit * product(factor^exp) == the factored polynomial, factors monic."""

    __slots__ = ("field", "unit", "factors")

    def __init__(self, field, unit, factors):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "unit", field.normalize(unit))
        object.__setattr__(
            self,
            "factors",
            tuple(sorted(factors, key=lambda fe: (fe[0].degree, fe[0].coeffs))),
        )

    def __setattr__(self, name, value):
        raise AttributeError("Factorization is immutable")

    def expand(self):
        acc = Poly(self.field, [self.unit])
        for f, e in self.factors:
            acc = acc * f**e
        return acc

    def __str__(self):
        unit = str(self.unit) if self.unit != 1 or not self.factors else ""
        return unit + factors_text(self.factors)


def factors_text(factors):
    """(factor, exponent) pairs as text: "(f)" for exponent 1, "(f)^e" otherwise."""
    return "".join(f"({f})" if e == 1 else f"({f})^{e}" for f, e in factors)


class _QuotientRing:
    """F_p[x]/(f) for a monic raw f of degree n, elements packed into ints.

    A packed element of degree < n holds its residues 0..p-1 in slots of w
    bits.  A product of two has at most n(p-1)^2 in each of its 2n-1 slots;
    once its top n-1 slots, reduced mod p, are added as multiples of the
    packed rows x^k mod f, a low slot holds at most (2n-1)(p-1)^2 < 2^w.
    """

    __slots__ = ("p", "w", "mask", "low_bits", "rows")

    def __init__(self, f, p):
        n = len(f) - 1
        self.p = p
        self.w = ((2 * n - 1) * (p - 1) ** 2).bit_length()
        self.mask = (1 << self.w) - 1
        self.low_bits = n * self.w
        row, self.rows = [-c % p for c in f[:-1]], []  # row = x^n mod f
        for _ in range(n - 1):
            self.rows.append(self.pack(row))
            top = row[-1]
            row = [(c - top * fc) % p for c, fc in zip([0] + row[:-1], f)]

    def pack(self, cs):
        v = 0
        for c in reversed(cs):
            v = v << self.w | c
        return v

    def unpack(self, v):
        """The raw list of a packed element, without trailing zeros."""
        out = []
        while v:
            out.append(v & self.mask)
            v >>= self.w
        return out

    def mul(self, a, b):
        w, mask, p = self.w, self.mask, self.p
        c = a * b
        low, c = c & ((1 << self.low_bits) - 1), c >> self.low_bits
        for row in self.rows:
            low += (c & mask) % p * row
            c >>= w
        out = shift = 0
        while low:
            out |= (low & mask) % p << shift
            low >>= w
            shift += w
        return out

    def pow(self, a, e):
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            e >>= 1
            a = self.mul(a, a) if e else a
        return result


def _minus_monomial(cs, k, p):
    out = cs + [0] * (k + 1 - len(cs))
    out[k] = (out[k] - 1) % p
    return _strip(out)


def _sqf(f):
    """Squarefree components of a monic polynomial with multiplicities (Musser).

    Over Q the first pass leaves g = 1.  Over F_p what is left is a p-th
    power, whose p-th root is decomposed in turn with multiplicities scaled by p.
    """
    p = f.field.char
    out = []
    n = 1
    while True:
        df = f.derivative()
        if not df.is_zero():
            g = poly_gcd(f, df)
            h = exact_div(f, g)
            i = 1
            while not h.is_unit():
                gh = poly_gcd(g, h)
                part = exact_div(h, gh)
                if part.degree > 0:
                    out.append((part, i * n))
                g = exact_div(g, gh)
                h = gh
                i += 1
            if g.is_unit():
                return out
            f = g
        f = Poly._make(f.field, list(f.coeffs[::p]))
        n *= p


def squarefree_decomp(h):
    """Squarefree components with multiplicities; works over Q and F_p."""
    if h.is_zero():
        raise ZeroArgument("cannot decompose the zero polynomial")
    unit = h.lc()
    f = h.monic()
    if f.degree < 1:
        return Factorization(h.field, unit, ())
    return Factorization(h.field, unit, _sqf(f))


def _ddf(f, ring, field):
    """Distinct-degree split of a monic squarefree raw list over F_p; ring is F_p[x]/(f)."""
    p = field.p
    out = []
    h = ring.pack([0, 1])
    d = 1
    while len(f) > 2 * d:
        h = ring.pow(h, p)
        g = _gcd_raw(f, _minus_monomial(ring.unpack(h), 1, p), field)
        if len(g) > 1:
            out.append((g, d))
            f = _divrem_raw(f, g, field)[0]
        d += 1
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf(f, d, ring, rng, field):
    """Equal-degree split: f is monic squarefree raw, all factors of degree d,
    and divides the modulus of ring."""
    if len(f) - 1 == d:
        return [f]
    p = field.p
    while True:
        r = [rng.randrange(p) for _ in range(rng.randrange(len(f) - 1))]
        r.append(rng.randrange(1, p))
        if p == 2:
            # canonical slots are bits, so adding mod 2 is XOR
            acc = t = ring.pack(r)
            for _ in range(d - 1):
                t = ring.mul(t, t)
                acc ^= t
            g = _gcd_raw(f, ring.unpack(acc), field)
        else:
            t = ring.unpack(ring.pow(ring.pack(r), (p**d - 1) // 2))
            g = _gcd_raw(f, _minus_monomial(t, 0, p), field)
        if 1 < len(g) < len(f):
            rest = _divrem_raw(f, g, field)[0]
            return _edf(g, d, ring, rng, field) + _edf(rest, d, ring, rng, field)


def factor_fp(h):
    """Complete factorization over F_p into monic irreducibles with exponents."""
    if not isinstance(h.field, PrimeField):
        raise UnsupportedField("full factorization is implemented over F_p only")
    if h.is_zero():
        raise ZeroArgument("cannot factor the zero polynomial")
    sqf = squarefree_decomp(h)
    rng = random.Random(_DEFAULT_SEED)
    factors = []
    for part, mult in sqf.factors:
        ring = _QuotientRing(part.coeffs, h.field.p)
        for prod, d in _ddf(list(part.coeffs), ring, h.field):
            for q in _edf(prod, d, ring, rng, h.field):
                factors.append((Poly._make(h.field, q), mult))
    return Factorization(h.field, sqf.unit, factors)


def is_irreducible_fp(h):
    """Irreducibility over F_p: the distinct-degree split of h is h alone (a
    reducible h, squarefree or not, splits off a factor of degree <= deg h / 2)."""
    if not isinstance(h.field, PrimeField):
        raise UnsupportedField("irreducibility test is implemented over F_p only")
    f = list(h.monic().coeffs)
    return h.degree >= 1 and _ddf(f, _QuotientRing(f, h.field.p), h.field) == [(f, h.degree)]


def _signed_divisors(n):
    return [s for d in divisors(abs(n)) for s in (d, -d)]


def _rules_out(ck, qk):
    """True when q(k) = qk cannot divide c(k) = ck; c(k) = 0 allows any q."""
    return ck != 0 and (qk == 0 or ck % qk != 0)


def low_degree_factors_q(h):
    """All monic irreducible divisors of h over Q of degree 1 or 2.

    The search runs on c, the primitive integer form of the squarefree part
    of h.  By Gauss's lemma a primitive integer q divides c over Q exactly
    when it divides c over Z, and then lead(q) | lead(c), q(0) | c(0) and
    q(1) | c(1).  So the linear candidates u*x + v have u | lead(c) and
    v | c(0), and each one found is divided out of c.  With every rational
    root gone, c(0) and c(1) are nonzero, and a quadratic c2*x^2 + c1*x + c0
    has c2 | lead(c), c0 | c(0) and c2 + c1 + c0 | c(1).  Every candidate is
    tested by exact division over Z; a candidate that is not primitive, or a
    reducible quadratic, cannot divide c, so the division rejects it too.

    Before that division a candidate q must pass a value filter: q(k) | c(k)
    at k = 1 and -1 for a linear q, at k = -1 and 2 for a quadratic one,
    with c(k) taken of the current c.  A q dividing c over Z has
    q(k) | c(k) at every integer k (and a c(k) of 0 allows any q(k)), so
    the filter drops only candidates the division would reject: the factors
    found, and their order, are the same.
    """
    if not isinstance(h.field, Rationals):
        raise UnsupportedField("rational divisor search needs a polynomial over Q")
    if h.is_zero():
        raise ZeroArgument("zero polynomial")
    if h.degree < 1:
        return []
    c = _int_form(exact_div(h, poly_gcd(h, h.derivative())).coeffs)[0]
    found = []
    if c[0] == 0:
        found.append(Poly(h.field, [0, 1]))
        c = c[1:]

    linear = []
    leads, consts = divisors(c[-1]), _signed_divisors(c[0])
    at_1, at_m1 = sum(c), _horner(c, -1)
    for u in leads:
        for v in consts:
            if _rules_out(at_1, u + v) or _rules_out(at_m1, v - u):
                continue
            q = _exact_quotient_z(c, [v, u])
            if q is not None:
                linear.append(Fraction(v, u))
                c = q
                at_1, at_m1 = sum(c), _horner(c, -1)
    found.extend(Poly(h.field, [v, 1]) for v in sorted(linear, reverse=True))

    quadratic = []
    leads, consts, values = divisors(c[-1]), _signed_divisors(c[0]), _signed_divisors(sum(c))
    at_m1, at_2 = _horner(c, -1), _horner(c, 2)
    for c2 in leads:
        for c0 in consts:
            for d1 in values:
                # q(-1) = 2*c2 + 2*c0 - d1 and q(2) = 2*c2 + 2*d1 - c0
                if _rules_out(at_m1, 2 * (c2 + c0) - d1) or _rules_out(at_2, 2 * (c2 + d1) - c0):
                    continue
                cand = [c0, d1 - c2 - c0, c2]
                q = _exact_quotient_z(c, cand)
                if q is not None:
                    quadratic.append(tuple(Fraction(k, c2) for k in cand))
                    c = q
                    at_m1, at_2 = _horner(c, -1), _horner(c, 2)
    found.extend(Poly(h.field, k) for k in sorted(quadratic))
    return found
