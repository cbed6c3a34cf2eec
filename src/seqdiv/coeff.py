"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

A field descriptor names the raw value representation and its literal
syntax; the raw kernel in ``polyring`` does all arithmetic on those values.
A rational is an ``int`` if integral, else a reduced ``fractions.Fraction``;
an element of F_p is its residue 0..p-1, so 0 and 1 serve every field.
Descriptors are interned, so a field check is an identity test.
"""

from fractions import Fraction

from .errors import NotPrime, ParseError, WrongField


# The first 13 primes as Miller-Rabin bases decide primality for every n
# below PRIME_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n):
    """Deterministic Miller-Rabin test; NotPrime for n >= PRIME_BOUND, where it is unproven."""
    if n >= PRIME_BOUND:
        raise NotPrime(f"primality is decided only below {PRIME_BOUND}, got {n}")
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


class Rationals:
    """Descriptor for Q with int or Fraction values (int when integral); a singleton."""

    char = 0
    _instance = None

    def __new__(cls):
        cls._instance = cls._instance or super().__new__(cls)
        return cls._instance

    def normalize(self, v):
        if not isinstance(v, (int, Fraction)):
            raise WrongField(f"not a rational value: {v!r}")
        return int(v) if v.denominator == 1 else v

    def parse_scalar(self, text):
        """Parse ``int`` or ``int/uint`` literal syntax."""
        try:
            return self.normalize(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}") from exc

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """Descriptor for F_p with residues 0..p-1 as raw values; interned, one per p."""

    __slots__ = ("p", "char")
    _interned = {}

    def __new__(cls, p):
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrime(f"modulus must be prime, got {p!r}")
        if p not in cls._interned:
            cls._interned[p] = self = super().__new__(cls)
            self.p = self.char = p
        return cls._interned[p]

    def __getnewargs__(self):  # pickle and copy return the interned instance
        return (self.p,)

    def normalize(self, v):
        if isinstance(v, int):
            return v % self.p
        raise WrongField(f"not an integer residue: {v!r}")

    def parse_scalar(self, text):
        """Bare integers only; they reduce mod p."""
        if "/" in text:
            raise ParseError(f"fractional literal {text!r} not allowed over F_{self.p}")
        try:
            return int(text) % self.p
        except ValueError as exc:
            raise ParseError(f"bad integer literal {text!r}") from exc

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"
