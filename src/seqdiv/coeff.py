"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

A field descriptor owns the raw value representation (``fractions.Fraction``
for the rationals, canonical residues ``0..p-1`` for F_p) and all arithmetic
on it; polynomial code works on raw values directly for speed.
"""

from fractions import Fraction

from .errors import DivisionByZero, NotPrime, ParseError, WrongField


def is_prime(n):
    """Trial-division primality test, meant for desk-scale moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Rationals:
    """Descriptor for Q with Fraction values (always reduced, positive denominator)."""

    kind = "q"
    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def normalize(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise WrongField(f"not a rational value: {v!r}")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return 1 / a

    def from_int(self, k):
        return Fraction(k)

    def parse_scalar(self, text):
        """Parse ``int`` or ``int/uint`` literal syntax."""
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}") from exc

    def format_scalar(self, v):
        return str(v)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """Descriptor for F_p with residues 0..p-1 as raw values."""

    kind = "fp"
    __slots__ = ("p", "char")

    def __init__(self, p):
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrime(f"modulus must be prime, got {p!r}")
        self.p = p
        self.char = p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def normalize(self, v):
        if isinstance(v, int):
            return v % self.p
        raise WrongField(f"not an integer residue: {v!r}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if not a:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, k):
        return k % self.p

    def parse_scalar(self, text):
        """Bare integers only; they reduce mod p."""
        if "/" in text:
            raise ParseError(f"fractional literal {text!r} not allowed over F_{self.p}")
        try:
            return int(text) % self.p
        except ValueError as exc:
            raise ParseError(f"bad integer literal {text!r}") from exc

    def format_scalar(self, v):
        return str(v)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"
