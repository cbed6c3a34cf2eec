"""Homogeneous bivariate integer forms and their cyclotomic structure.

A form of degree d is stored as the integer tuple (c_0, ..., c_d) with c_k the
coefficient of X^(d-k) Y^k.  Setting X = 1 turns that tuple into an ordinary
integer polynomial in Y, so products and exact quotients of forms reduce to
dense univariate arithmetic plus degree bookkeeping.  The arithmetic, the
remainder modulo (X + Y)^2 and the text are the ``polyring`` kernel's own.

The split of X^n - Y^n into cyclotomic forms, the complete power sums
P_n = (X^n - Y^n)/(X - Y), their resultants, and their remainders modulo
(X + Y)^2 are the combinatorial backbone the sequence checks evaluate at
polynomial arguments.
"""

import math
from functools import lru_cache

from .errors import (
    ConstantForm,
    DegreeMismatch,
    DivisionByZero,
    NotDivisible,
    ZeroArgument,
)
from .coeff import Rationals
from .polyring import Poly, _divrem_raw, _exact_quotient_z, _format_terms, _mul_raw, _strip

__all__ = [
    "BivarForm",
    "form_exact_div",
    "power_sum_form",
    "cyclotomic_form",
    "power_diff_form",
    "power_sum_square_quotient",
    "rem_mod_sum_square",
    "resultant",
    "power_sum_resultant_check",
    "eval_form",
    "divisors",
    "mobius",
    "euler_phi",
]


def divisors(n):
    """Sorted positive divisors."""
    if n < 1:
        raise ZeroArgument("divisors of a non-positive integer")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _factor_int(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def mobius(n):
    if n < 1:
        raise ZeroArgument("mobius of a non-positive integer")
    mu = 1
    for _, e in _factor_int(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def euler_phi(n):
    if n < 1:
        raise ZeroArgument("euler_phi of a non-positive integer")
    phi = n
    for q, _ in _factor_int(n):
        phi -= phi // q
    return phi


class BivarForm:
    """Homogeneous integer form in X and Y of a fixed degree."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients")
        if not any(coeffs):
            degree, coeffs = 0, (0,)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("BivarForm is immutable")

    @classmethod
    def zero(cls):
        return cls(0, (0,))

    def is_zero(self):
        return self.degree == 0 and self.coeffs[0] == 0

    def __eq__(self, other):
        return (
            isinstance(other, BivarForm)
            and other.degree == self.degree
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __add__(self, other):
        if not isinstance(other, BivarForm):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"cannot add forms of degrees {self.degree} and {other.degree}"
            )
        return BivarForm(
            self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return BivarForm(self.degree, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, BivarForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, BivarForm):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return BivarForm.zero()
        return BivarForm(self.degree + other.degree, _mul_raw(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"BivarForm({self.degree}, {self.coeffs!r})"

    def __str__(self):
        d = self.degree
        return _format_terms((c, (("X", d - k), ("Y", k))) for k, c in enumerate(self.coeffs))


def form_exact_div(a, b):
    """Exact quotient of homogeneous forms; NotDivisible when b does not divide a."""
    if b.is_zero():
        raise DivisionByZero("division by the zero form")
    if a.is_zero():
        return BivarForm.zero()
    # with X set to 1 a form is an integer polynomial in Y
    q = _exact_quotient_z(_strip(list(a.coeffs)), _strip(list(b.coeffs)))
    if q is None:
        raise NotDivisible("the divisor does not divide the form")
    dq = a.degree - b.degree
    if len(q) - 1 > dq:
        raise NotDivisible("divisor has a higher power of X")
    return BivarForm(dq, q + [0] * (dq + 1 - len(q)))


def power_diff_form(n):
    """X^n - Y^n."""
    if n < 1:
        raise ZeroArgument("index must be positive")
    cs = [0] * (n + 1)
    cs[0], cs[n] = 1, -1
    return BivarForm(n, cs)


def power_sum_form(n):
    """P_n = (X^n - Y^n)/(X - Y) = X^(n-1) + X^(n-2) Y + ... + Y^(n-1)."""
    if n < 1:
        raise ZeroArgument("index must be positive")
    return BivarForm(n - 1, [1] * n)


@lru_cache(maxsize=128)  # holds every index up to verifier.MAX_INDEX = 100
def cyclotomic_form(n):
    """The degree-phi(n) form whose product over divisors rebuilds X^n - Y^n."""
    if n < 1:
        raise ZeroArgument("index must be positive")
    num = power_diff_form(n)
    for d in divisors(n)[:-1]:
        num = form_exact_div(num, cyclotomic_form(d))
    return num


_SUM_SQUARE = BivarForm(2, (1, 2, 1))  # (X + Y)^2


def rem_mod_sum_square(a):
    """Remainder of a modulo (X + Y)^2, kept homogeneous of the same degree.

    Divisibility is equivalent to the dehomogenization having a double root
    at X = -1, i.e. value and first derivative vanishing there.
    """
    if a.degree < 2:
        return a
    # dense univariate coefficients in X (lowest first); the divisor is monic over Z
    r = _divrem_raw(a.coeffs[::-1], [1, 2, 1], Rationals())[1] + [0, 0]
    return BivarForm(a.degree, [0] * (a.degree - 1) + [r[1], r[0]])


def power_sum_square_quotient(n):
    """For odd n >= 3, the form C with
    P_n = (X + Y)^2 * C + (-1)^((n-1)/2) * (XY)^((n-1)/2); C has degree n - 3."""
    if n < 3 or n % 2 == 0:
        raise ZeroArgument("defined for odd n >= 3")
    k = (n - 1) // 2
    sign = -1 if k % 2 else 1
    cs = list(power_sum_form(n).coeffs)
    cs[k] -= sign
    return form_exact_div(BivarForm(n - 1, cs), _SUM_SQUARE)


def resultant(a, b):
    """Integer resultant of two non-constant forms via fraction-free elimination.

    The Sylvester matrix is built from the full homogeneous coefficient
    tuples, so vanishing leading coefficients are handled by the declared
    degrees rather than dropped.
    """
    if a.degree == 0 or b.degree == 0:
        raise ConstantForm("resultant needs two non-constant forms")
    m, n = a.degree, b.degree
    size = m + n
    rows = []
    for i in range(n):
        row = [0] * size
        row[i : i + m + 1] = list(a.coeffs)
        rows.append(row)
    for i in range(m):
        row = [0] * size
        row[i : i + n + 1] = list(b.coeffs)
        rows.append(row)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if not rows[k][k]:
            for r in range(k + 1, size):
                if rows[r][k]:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for i in range(k + 1, size):
            ri, rk = rows[i], rows[k]
            lead = ri[k]
            if lead:
                for j in range(k + 1, size):
                    ri[j] = (ri[j] * pivot - lead * rk[j]) // prev
            else:
                for j in range(k + 1, size):
                    ri[j] = (ri[j] * pivot) // prev
            ri[k] = 0
        prev = pivot
    return sign * rows[size - 1][size - 1]


def power_sum_resultant_check(m, n):
    """True when Res(P_m, P_n) behaves per coprimality: |res| = 1 for
    gcd(m, n) = 1 and res = 0 otherwise.  Returns (ok, value)."""
    if m < 2 or n < 2:
        raise ZeroArgument("indices must be at least 2")
    value = resultant(power_sum_form(m), power_sum_form(n))
    if math.gcd(m, n) == 1:
        return abs(value) == 1, value
    return value == 0, value


def eval_form(a, u, v):
    """Evaluate an integer form at a pair of polynomials over a common field."""
    u._check(v)
    field = u.field
    d = a.degree
    u_pows = [Poly.one(field)]
    v_pows = [Poly.one(field)]
    for _ in range(d):
        u_pows.append(u_pows[-1] * u)
        v_pows.append(v_pows[-1] * v)
    acc = Poly.zero(field)
    for k, c in enumerate(a.coeffs):
        if c:
            acc = acc + u_pows[d - k] * v_pows[k] * Poly(field, [c])
    return acc
