"""Univariate polynomials over an exact coefficient field.

``Poly`` stores raw coefficient values (lowest degree first, no trailing
zeros) plus its field descriptor.  All arithmetic is exact.  The raw kernel
below (``_reduce``, ``_add_raw``, ``_inverse``, ``_monic_raw``, ``_divrem_raw``,
``_gcd_raw``, ``_exact_quotient``, ``_strip_power``) is the only code that
reads the characteristic: over F_p it works on integers congruent to the
true values and reduces mod p where a value is read or leaves the kernel;
over Q reduction is a no-op.  A Q value enters as an ``int`` unless it is
fractional, and the kernel makes a ``Fraction`` only in ``_inverse`` and
when it rescales an integer form (a quotient may keep one with denominator
1, which compares, hashes and prints like the int).

Over Q, exact division, the strip-power loop behind ``valuation`` and the
gcd run on primitive integer forms (``_int_form``) and rescale a result once
(``_scale``).  This is exact: by Gauss's lemma a primitive integer b divides
a over Q exactly when it does over Z, so the first quotient coefficient that
is not an integer proves that b does not divide a; the heuristic gcd
(``_heu_gcd_z``) accepts its candidate only after two exact divisions, and
when it gives up (or an argument is zero) ``_gcd_raw`` runs Euclid on the
remainders of ``_divrem_raw``, as over F_p with p > 13.  ``divmod`` is the
one quotient-and-remainder operator of ``Poly`` (it has no ``//`` or ``%``);
it runs ``_divrem_raw`` over Q as well, and no campaign calls it.

Over F_p with p <= 13 the Euclidean loop of ``_gcd_raw`` runs on
byte-packed ints, one coefficient per byte: a division step adds at most
(p-1)^2 to a slot, so a slot that starts below p stays below 256 for
room = (256 - p) // (p-1)^2 steps, and one ``bytes.translate`` reduces every
slot mod p after each division and every room steps (room >= 1 only for
p <= 16).  Product and division stay on lists: in the campaigns their
shorter F_p operand has 2-5 coefficients, too few for a packed step to pay.

The integer forms of ``cyclokit`` and the rational divisor search share its
exact quotient over Z (``_exact_quotient_z``) and its primitive integer form;
``_strip_power`` and the signed-sum text ``_format_terms`` also have no other
copy.  ``str(p)`` is the one canonical text of a Poly; ``parse_poly`` reads it back.

Units of K[x] are the nonzero constants; two polynomials are associated
exactly when their monic normalizations coincide, and ideals are identified
with their unique monic (or zero) generator.
"""

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NotDivisible,
    ParseError,
    PreconditionViolated,
    ZeroArgument,
)

__all__ = [
    "Poly",
    "exact_div",
    "poly_gcd",
    "is_associated",
    "valuation",
    "parse_poly",
    "MAX_EXPONENT",
]


def _strip(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _reduce(cs, field):
    """Canonical values of a raw list: residues mod p over F_p, as is over Q."""
    p = field.char
    return [c % p for c in cs] if p else cs


def _add_raw(a, b, field, sub=False):
    """a + b, or a - b when sub, on canonical raw sequences, reduced in the same
    pass; the result may end in zeros."""
    p = field.char
    pairs = zip_longest(a, b, fillvalue=0)
    if sub:
        return [(x - y) % p for x, y in pairs] if p else [x - y for x, y in pairs]
    return [(x + y) % p for x, y in pairs] if p else [x + y for x, y in pairs]


def _mul_raw(a, b):
    """Schoolbook product of two nonempty raw lists, not reduced."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _inverse(c, p):
    """Inverse of a nonzero raw value; over Q an int when integral, never a float."""
    if p:
        return pow(c, p - 2, p)
    inv = Fraction(1, c)
    return inv.numerator if inv.denominator == 1 else inv


def _monic_raw(cs, field):
    """The monic associate of a nonzero raw list."""
    inv = _inverse(cs[-1], field.char)
    return _reduce([c * inv for c in cs], field)


def _divrem_raw(a, b, field):
    """(quotient, remainder) on raw lists; remainder degree < divisor degree."""
    if not b:
        raise DivisionByZero("division by the zero polynomial")
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return [], list(a)
    p = field.char
    inv = _inverse(b[db], p)
    r = list(a)
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = r[db + k] * inv
        if p:
            c %= p
        if c:
            q[k] = c
            for i in range(db):
                r[i + k] -= c * b[i]
    return q, _strip(_reduce(r[:db], field))


def _gcd_raw(a, b, field):
    """Monic gcd on raw lists (canonical over F_p).

    Over Q, two nonzero arguments go to the heuristic gcd; the Euclidean loop
    runs over F_p and when it gives up.

    Over F_p with p <= 13 the loop runs on byte-packed ints, highest degree
    in the lowest byte.  A division step reads the lowest slot s, takes
    q = -(s mod p) / lead mod p from the 256-entry row of the divisor's
    lead, adds q times the divisor and shifts the cleared slot (a multiple
    of p) out: one big-int update.  A step adds at most (p-1)^2 to a slot,
    so a slot that starts below p stays below 256 and never carries into
    its neighbour for room = (256 - p) // (p-1)^2 steps; one bytes.translate
    reduces every slot mod p after each division and, when a division takes
    more than room steps, before step room + 1.  room >= 1 only for p <= 16.

    For p > 13, and over Q with a zero argument or when the heuristic gives
    up, each remainder is the one of ``_divrem_raw``.
    """
    p = field.char
    if not p and a and b:
        g = _heu_gcd_z(_int_form(a)[0], _int_form(b)[0])
        if g is not None:
            return _scale(g, Fraction(1, g[-1]))
    if 0 < p <= _BYTE_SLOT_MAX_P:
        mod_p, rows, room = _byte_slot_tables(p)
        if len(a) < len(b):
            a, b = b, a
        a, b = bytes(a[::-1]), bytes(b[::-1])
        r = int.from_bytes(a, "little")
        while b:
            db = len(b) - 1
            row, d, steps = rows[b[0]], int.from_bytes(b, "little"), 0
            for m in range(len(a), db, -1):  # r has m slots
                q = row[r & 255]
                if q:
                    if steps == room:
                        r = int.from_bytes(r.to_bytes(m, "little").translate(mod_p), "little")
                        steps = 0
                    r += q * d
                    steps += 1
                r >>= 8
            a, b, r = b, r.to_bytes(db, "little").translate(mod_p).lstrip(b"\0"), d
        a = list(a[::-1])
    else:
        while b:
            a, b = b, _divrem_raw(a, b, field)[1]
    if a and a[-1] != 1:
        a = _monic_raw(a, field)
    return a


# The largest prime with room >= 1 in the byte-packed loop of _gcd_raw.
_BYTE_SLOT_MAX_P = 13


@lru_cache(maxsize=None)  # one entry per prime p <= 13, at most 3.3 KB each
def _byte_slot_tables(p):
    """(mod-p translate table, quotient rows by divisor lead, room) for _gcd_raw."""
    mod_p = bytes(s % p for s in range(256))
    rows = [b""]
    for lead in range(1, p):
        inv = _inverse(lead, p)
        rows.append(bytes(-s * inv % p for s in range(256)))
    return mod_p, rows, (256 - p) // (p - 1) ** 2


# GCDHEU evaluation points tried before _gcd_raw falls back to Euclid.
_HEU_GCD_TRIES = 6


def _heu_gcd_z(f, g):
    """Primitive gcd (positive lead) of two nonzero primitive integer lists; None if it gives up.

    GCDHEU (Char, Geddes and Gonnet, J. Symb. Comput. 1989): for xi >=
    2 * min(|f|, |g|) + 2 (max norms), the primitive part h of the balanced
    xi-adic digits of gcd(f(xi), g(xi)) is gcd(f, g) exactly when h divides f
    and g.  The first xi and its growth are sympy's (dup_zz_heu_gcd), without
    the 99*sqrt(xi) cap that would take xi below that bound for large norms.
    """
    if len(f) == 1 or len(g) == 1:
        return [1]
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(_HEU_GCD_TRIES):
        gamma = math.gcd(_horner(f, xi), _horner(g, xi))
        h = []
        while gamma:
            d = gamma % xi
            if d > xi // 2:
                d -= xi
            h.append(d)
            gamma = (gamma - d) // xi
        h = _int_form(h)[0]
        if _exact_quotient_z(f, h) is not None and _exact_quotient_z(g, h) is not None:
            return h
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _exact_quotient_z(a, b):
    """a / b on integer lists (lowest first, b[-1] != 0) over Z; None when b does not divide a."""
    n = len(b) - 1
    lead = b[-1]
    r = list(a)
    q = [0] * max(len(a) - n, 0)
    for k in range(len(a) - 1 - n, -1, -1):
        c, m = divmod(r[n + k], lead)
        if m:
            return None
        if c:
            q[k] = c
            for i in range(n):
                r[i + k] -= c * b[i]
    return None if any(r[:n]) else q


def _exact_quotient(a, b, field):
    """a / b on raw lists when b divides a, else None; DivisionByZero for b = 0.

    Over Q it divides the primitive integer forms (Gauss's lemma) and rescales once.
    """
    if field.char or not a or not b:
        q, r = _divrem_raw(a, b, field)
        return None if r else q
    (ca, sa), (cb, sb) = _int_form(a), _int_form(b)
    q = _exact_quotient_z(ca, cb)
    return None if q is None else _scale(q, Fraction(sa, sb))


def _int_form(cs):
    """(c, s) with cs = s * c for a nonzero Q raw list: c is the primitive
    integer form (content removed, positive lead), s a rational."""
    den = math.lcm(*[v.denominator for v in cs])
    ints = [v.numerator * (den // v.denominator) for v in cs]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [v // g for v in ints]
    return ints, g if den == 1 else Fraction(g, den)


def _scale(cs, s):
    """s * cs for an integer list cs and a rational s, each value an int when integral."""
    num, den = s.numerator, s.denominator
    if den == 1:
        return cs if num == 1 else [c * num for c in cs]
    return [v.numerator if (v := Fraction(c * num, den)).denominator == 1 else v for c in cs]


def _horner(cs, v):
    """Value of a raw list at v by Horner's rule, not reduced."""
    acc = 0
    for c in reversed(cs):
        acc = acc * v + c
    return acc


class Poly:
    """Immutable dense polynomial over Q or F_p."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        cs = [field.normalize(c) for c in coeffs]
        _strip(cs)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _make(cls, field, raw):
        """Trusted constructor: raw values already canonical, may have trailing zeros."""
        _strip(raw)
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(raw))
        return self

    @classmethod
    def zero(cls, field):
        return cls._make(field, [])

    @classmethod
    def one(cls, field):
        return cls._make(field, [1])

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_unit(self):
        return len(self.coeffs) == 1

    def lc(self):
        return self.coeffs[-1] if self.coeffs else 0

    def monic(self):
        """The unique monic associate (zero stays zero)."""
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        return Poly._make(self.field, _monic_raw(self.coeffs, self.field))

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {other!r}")
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch(f"cannot mix {self.field!r} and {other.field!r}")

    def _coerce(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly(self.field, [other])
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._make(self.field, _add_raw(self.coeffs, other.coeffs, self.field))

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.field, _reduce([-c for c in self.coeffs], self.field))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._make(self.field, _add_raw(self.coeffs, other.coeffs, self.field, sub=True))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._make(self.field, _add_raw(other.coeffs, self.coeffs, self.field, sub=True))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.field)
        return Poly._make(self.field, _reduce(_mul_raw(a, b), self.field))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        q, r = _divrem_raw(list(self.coeffs), list(other.coeffs), self.field)
        return Poly._make(self.field, q), Poly._make(self.field, r)

    def derivative(self):
        out = [c * k for k, c in enumerate(self.coeffs)][1:]
        return Poly._make(self.field, _reduce(out, self.field))

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and (other.field is self.field or other.field == self.field)
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Poly({self.field!r}, {list(self.coeffs)!r})"

    def __str__(self):
        """Canonical expression string: descending powers, explicit '*', reduced scalars."""
        cs = self.coeffs
        return _format_terms((cs[k], (("x", k),)) for k in range(len(cs) - 1, -1, -1))


def exact_div(a, b):
    """a / b when b | a exactly; NotDivisible otherwise."""
    a._check(b)
    q = _exact_quotient(a.coeffs, b.coeffs, a.field)
    if q is None:
        raise NotDivisible(f"({a}) is not divisible by ({b})")
    return Poly._make(a.field, q)


def poly_gcd(a, b):
    """Monic gcd; gcd(0, 0) = 0."""
    a._check(b)
    return Poly._make(a.field, _gcd_raw(a.coeffs, b.coeffs, a.field))


def is_associated(a, b):
    """True when a and b differ by a nonzero constant factor."""
    return a.monic() == b.monic()


def valuation(q, h):
    """Largest e with q^e dividing h.

    q must be non-constant (the caller asserts irreducibility where the
    count is meant to be prime-wise); h must be nonzero.
    """
    if h.is_zero():
        raise ZeroArgument("valuation of the zero polynomial")
    if q.degree < 1:
        raise PreconditionViolated("valuation divisor must be non-constant")
    return _strip_power(q, h)[0]


def _strip_power(q, h):
    """(e, h / q^e) for the largest e with q^e dividing h, q non-constant; (0, 0) for h = 0.

    Over Q the loop divides the primitive integer forms and rescales once.
    """
    field, a, b = h.field, h.coeffs, q.coeffs
    if not a:
        return 0, h
    if not field.char:
        (a, sa), (b, sb) = _int_form(a), _int_form(b)
    e = 0
    while True:
        c = _exact_quotient(a, b, field) if field.char else _exact_quotient_z(a, b)
        if c is None:
            break
        a, e = c, e + 1
    if not e:
        return 0, h
    return e, Poly._make(field, a if field.char else _scale(a, Fraction(sa, sb**e)))


# --- text syntax ------------------------------------------------------------
#
# expr  := ('+'|'-')? term (('+'|'-') term)*
# term  := coef ('*'? 'x' ('^' uint)?)? | 'x' ('^' uint)?
# coef  := int | int '/' uint
#
# Whitespace is ignored and the '*' between a coefficient and x is optional.
# Exponents above MAX_EXPONENT are rejected: the dense result would need one
# list entry per power of x.

MAX_EXPONENT = 10_000

# one term of the grammar, its sign split off; '^' only after an x
_TERM_RE = re.compile(r"(?:(?P<coef>[0-9]+(?:/[0-9]+)?)(?:\*?x)?|x)(?:(?<=x)\^(?P<exp>[0-9]+))?")


def parse_poly(field, text):
    """Parse an expression like ``x^3-2*x`` or ``1/2*x+3`` into a Poly."""
    s = "".join(text.split())
    if not s:
        raise ParseError("empty polynomial expression")
    coeffs = {}
    chunks = re.split(r"(?!^)(?=[+-])", s)  # each term with its sign
    for i, chunk in enumerate(chunks):
        sign = -1 if chunk[0] == "-" else 1
        body = chunk[1:] if chunk[0] in "+-" else chunk
        if not body and 0 < i == len(chunks) - 1:
            raise ParseError(f"dangling sign in {text!r}")
        m = _TERM_RE.fullmatch(body)
        if not m:
            raise ParseError(f"bad term {body!r} in {text!r}")
        c = 1 if m["coef"] is None else field.parse_scalar(m["coef"])
        e = 0
        if "x" in body:
            digits = (m["exp"] or "1").lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent in {body!r} exceeds {MAX_EXPONENT}")
            e = int(digits)
        coeffs[e] = coeffs.get(e, 0) + sign * c
    return Poly(field, [coeffs.get(e, 0) for e in range(max(coeffs) + 1)])


def _format_terms(terms):
    """Signed sum of (coefficient, monomial) pairs; a monomial is (variable, exponent) pairs.

    Zero coefficients and zero exponents are skipped, '*' joins the factors
    of a term, and a unit coefficient before a non-constant monomial is implicit.
    """
    out = []
    for c, mono in terms:
        if not c:
            continue
        mag = -c if c < 0 else c
        factors = [v if e == 1 else f"{v}^{e}" for v, e in mono if e]
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        out.append(("-" if c < 0 else "+" if out else "") + "*".join(factors))
    return "".join(out) or "0"
