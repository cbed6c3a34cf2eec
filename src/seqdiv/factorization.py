"""Squarefree decomposition over Q and F_p, full factorization over F_p,
and the bounded-degree rational divisor search used by the valuation checks.

Over F_p, after the squarefree decomposition (with p-th-root extraction when
the derivative vanishes), Berlekamp's algorithm (von zur Gathen and Gerhard,
Modern Computer Algebra, ch. 14) splits each squarefree part f: the v with
v^p = v mod f, the left nullspace of Q - I for Q the Frobenius matrix, have
the number of irreducible factors of f as dimension, and gcds of f with
v - s (s in F_p) split f.  Rows of [Q - I | I] are packed into ints.  Only
for p > 13 does the split draw random elements, from a seeded generator.

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
from .cyclokit import _factor_int, divisors
from .errors import UnsupportedField, ZeroArgument
from .polyring import (
    _BYTE_SLOT_MAX_P,
    Poly,
    _byte_slot_tables,
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
        return self.reduce(low)

    def reduce(self, v):
        return self.pack([c % self.p for c in self.unpack(v)])

    def pow(self, a, e):
        """a^e for e >= 1, left to right from a itself."""
        result = a
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result


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
            if g.is_unit():  # f is squarefree
                out.append((f, n))
                return out
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


def _berlekamp_basis(f, p, ring):
    """A basis of {v : v^p = v mod f}, 1 first, as lists of n = deg f values:
    the right halves of the rows [X_i - e_i | e_i], X_i = x^(ip) mod f, that
    never pivot.  A live row takes at most room additions, each adding at most
    (p-1)^2 to a slot, between two reductions of its slots mod p.  For p <= 13
    (ring is None) a slot is a byte, as in _gcd_raw, and X_i is X_(i-1) shifted
    p times by one slot, each top slot folded in as a multiple of x^n mod f.
    For p > 13 a slot of ring, F_p[x]/(f), holds n additions, so only a pivot
    is reduced, and X_i is one ring product."""
    n = len(f) - 1
    if ring is None:
        mod_p, _, room = _byte_slot_tables(p)
        w, low, fold = 8, (1 << 8 * n) - 1, int.from_bytes(bytes(-c % p for c in f[:-1]), "little")

        def reduce(r):
            return int.from_bytes(r.to_bytes(2 * n, "little").translate(mod_p), "little")

        xs, x = [1], 1
        for j in range(1, p * (n - 1) + 1):
            x = (x << 8 & low) + mod_p[x >> 8 * n - 8] * fold
            if j % p == 0:
                xs.append(x := reduce(x))
            elif j % room == 0:
                x = reduce(x)
    else:
        w, room, reduce = ring.w, n, ring.reduce
        xs = [1, ring.pow(ring.pack([0, 1]), p)]
        while len(xs) < n:
            xs.append(ring.mul(xs[-1], xs[1]))
    # p - 1 at slot i subtracts e_i, so a row starts with one addition in
    live = [x + ((p - 1) << w * i) + (1 << w * (n + i)) for i, x in enumerate(xs)]
    mask = (1 << w) - 1
    for _ in range(n):  # column j is in slot 0: every live row shifts once a column
        t = next((t for t, r in enumerate(live) if (r & mask) % p), None)
        pivot = 0 if t is None else reduce(live.pop(t))  # 0: the rows only shift
        if (n - len(live)) % room == 0:  # the rows have had room additions
            live = [reduce(r) for r in live]
        inv = -pow(pivot & mask, p - 2, p)
        live = [(r + (r & mask) * inv % p * pivot) >> w for r in live]
    return [[(r >> w * i & mask) % p for i in range(n)] for r in live]


def _split(f, field):
    """Monic irreducible factors of a monic squarefree raw f.  Each factor h
    splits into the gcd(h, v - s), s in F_p, for basis vectors v (p <= 13), or
    into gcd(h, u^((p-1)/2) - 1) and its cofactor, u random in the span."""
    if len(f) < 3:
        return [f]
    p, ring = field.p, None if field.p <= _BYTE_SLOT_MAX_P else _QuotientRing(f, field.p)
    basis, factors = _berlekamp_basis(f, p, ring), [f]
    if ring is None:
        for v in basis[1:]:
            out = []
            for h in factors:
                r, left = _strip(_divrem_raw(v, h, field)[1]), len(h) - 1
                if len(r) < 2:  # v is constant mod h
                    out.append(h)
                    continue
                for s in range(p):
                    if left and len(g := _gcd_raw(h, [(r[0] - s) % p] + r[1:], field)) > 1:
                        out.append(g)
                        left -= len(g) - 1
            factors = out
            if len(factors) == len(basis):
                break
        return factors
    rng = random.Random(_DEFAULT_SEED)
    while len(factors) < len(basis):
        u = ring.reduce(sum(rng.randrange(p) * ring.pack(v) for v in basis))  # n(p-1)^2 < 2^w
        t = ring.unpack(ring.reduce(ring.pow(u, (p - 1) // 2) + p - 1))
        out = []
        for h in factors:
            g = _gcd_raw(h, t, field)
            out += [g, _divrem_raw(h, g, field)[0]] if 1 < len(g) < len(h) else [h]
        factors = out
    return factors


def factor_fp(h):
    """Complete factorization over F_p into monic irreducibles with exponents,
    in canonical order: Berlekamp's split of each squarefree part, which draws
    random elements (from a seeded generator) only for p > 13."""
    if not isinstance(h.field, PrimeField):
        raise UnsupportedField("full factorization is implemented over F_p only")
    if h.is_zero():
        raise ZeroArgument("cannot factor the zero polynomial")
    sqf = squarefree_decomp(h)
    factors = [(q, e) for part, e in sqf.factors for q in _split(list(part.coeffs), h.field)]
    return Factorization(h.field, sqf.unit, [(Poly._make(h.field, q), e) for q, e in factors])


def is_irreducible_fp(h):
    """Irreducibility over F_p by Rabin's test: for f = monic h of degree n,
    x^(p^n) = x mod f, and gcd(x^(p^(n/r)) - x, f) = 1 for each prime r | n."""
    if not isinstance(h.field, PrimeField):
        raise UnsupportedField("irreducibility test is implemented over F_p only")
    n, p, f = h.degree, h.field.p, list(h.monic().coeffs)
    if n < 2:
        return n == 1
    ring, checks = _QuotientRing(f, p), {n // r for r, _ in _factor_int(n)}
    x = t = ring.pack([0, 1])
    for k in range(1, n + 1):
        t = ring.pow(t, p)
        if k in checks and _gcd_raw(f, ring.unpack(ring.reduce(t + (p - 1) * x)), h.field) != [1]:
            return False
    return t == x


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
