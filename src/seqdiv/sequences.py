"""Power-difference, Lucas-type, and Lehmer-type sequences over K[x].

Three kinds share one parameter shape (a, b):

* ``power``:  F_n = a^n - b^n for a coprime pair of polynomials;
* ``lucas``:  terms of the pair with sum a and product b, i.e. L_1 = 1,
  L_2 = a, L_n = a L_(n-1) - b L_(n-2);
* ``lehmer``: terms of the pair with squared sum a and product b, i.e.
  U_1 = U_2 = 1, U_n = a U_(n-1) - b U_(n-2) for odd n and
  U_n = U_(n-1) - b U_(n-2) for even n.

For lucas and lehmer the defining pair lives in a small commutative tower
over K[x]; ``oracle_term`` computes terms there from the definition alone
and is kept deliberately independent of the recurrences so either side can
catch a bug in the other.
"""

from enum import Enum

from .cyclokit import divisors, mobius
from .errors import (
    BothUnits,
    FieldMismatch,
    NotCoprime,
    OracleMismatch,
    PreconditionViolated,
    RatioRootOfUnity,
    ZeroParameter,
)
from .polyring import Poly, exact_div, ideals_coprime, is_associated
from .errors import NotDivisible

__all__ = [
    "SeqKind",
    "SeqParams",
    "validate",
    "term",
    "oracle_term",
    "cyclotomic_value",
]


class SeqKind(str, Enum):
    POWER = "power"
    LUCAS = "lucas"
    LEHMER = "lehmer"


class SeqParams:
    """A validated parameter pair plus growable per-sequence caches.

    _terms holds term(n) by index, _apow and _bpow only the newest powers
    a^k and b^k, from which term builds the power kind (nothing else reads
    them), _lam and _eta the tower powers of the oracle, _gcd the monic
    gcd(term(m), term(n)) keyed by (m, n) with m <= n, and _val the
    valuation(q, term(n)) keyed by (q.coeffs, n).  The last two are filled
    by the divisibility checks, each only with values actually computed.
    Compared by identity: two objects for one pair keep separate caches.
    """

    __slots__ = (
        "kind", "field", "a", "b", "_terms", "_apow", "_bpow", "_lam", "_eta", "_gcd", "_val",
    )

    def __init__(self, kind, field, a, b):
        self.kind = kind
        self.field = field
        self.a = a
        self.b = b
        self._terms = [None]
        self._apow = self._bpow = Poly.one(field)
        self._lam = None
        self._eta = None
        self._gcd = {}
        self._val = {}

    def __repr__(self):
        return f"SeqParams({self.kind.value!r}, {self.field!r}, {self.a!r}, {self.b!r})"


def validate(kind, field, a, b):
    """Admission control for parameter pairs.

    Checks, in order: neither parameter zero; for the power kind the ratio
    a/b is not a constant root of unity (over F_p every nonzero constant has
    finite order, over Q only 1 and -1 do); the parameters generate coprime
    ideals; not both are units.

    For lucas and lehmer no separate ratio test is needed: a root-of-unity
    ratio of the underlying pair would force a constant c with a^2 = c b
    (lucas) or a = c b (lehmer), which together with coprimality forces both
    parameters to be units, or c = 0 and with it a = 0 - and those cases are
    already rejected.  A zero parameter (including a = 0) is rejected
    outright as degenerate.
    """
    kind = SeqKind(kind)
    if a.field != field or b.field != field:
        raise FieldMismatch("parameters must live over the declared field")
    if a.is_zero() or b.is_zero():
        raise ZeroParameter(f"{kind.value} parameters must be nonzero")
    if kind is SeqKind.POWER and is_associated(a, b):
        if field.char:
            raise RatioRootOfUnity(
                "a/b is a constant of the multiplicative group of F_p, "
                "so every group element order divides some n and a^n = b^n"
            )
        if a == b or a == -b:
            raise RatioRootOfUnity("a = c*b with c in {1, -1}")
    if not ideals_coprime(a, b):
        raise NotCoprime(f"gcd({a}, {b}) is not a unit")
    if a.is_unit() and b.is_unit():
        raise BothUnits("both parameters are constants; all terms would be units")
    return SeqParams(kind, field, a, b)


def _check_index(n):
    if not isinstance(n, int) or n < 1:
        raise PreconditionViolated(f"term index must be a positive integer, got {n!r}")


def term(params, n):
    """The n-th sequence term, computed by definition (power) or recurrence."""
    _check_index(n)
    terms = params._terms
    kind, a, b = params.kind, params.a, params.b
    while len(terms) <= n:
        k = len(terms)
        if kind is SeqKind.POWER:
            params._apow, params._bpow = params._apow * a, params._bpow * b
            terms.append(params._apow - params._bpow)
        elif k == 1:
            terms.append(Poly.one(params.field))
        elif k == 2:
            terms.append(a if kind is SeqKind.LUCAS else Poly.one(params.field))
        elif kind is SeqKind.LUCAS or k % 2:
            terms.append(a * terms[k - 1] - b * terms[k - 2])
        else:
            terms.append(terms[k - 1] - b * terms[k - 2])
    return terms[n]


# --- definitional oracle ------------------------------------------------------
#
# lucas:  the pair (alpha, beta) lives in K[x][t] / (t^2 - a t + b) with
#         alpha = t, beta = a - t; elements are pairs (c0, c1) = c0 + c1 t.
# lehmer: the pair (lam, eta) lives in K[x][s, t] / (s^2 - a, t^2 - s t + b)
#         with lam = t, eta = s - t; elements are quadruples
#         (c0, c1, c2, c3) = c0 + c1 s + c2 t + c3 st.
#
# Powers are stepped by one generator at a time, each step the product with
# that generator reduced by the two relations above:
#   lucas:  c t = -b c1 + (c0 + a c1) t,  c (a - t) = (a c0 + b c1) - c0 t;
#   lehmer: c t = -b c2 - b c3 s + (c0 + a c3) t + (c1 + c2) st,
#           c (s - t) = (a c1 + b c2) + (c0 + b c3) s - c0 t - c1 st.
# _TOWER gives each kind its tuple size and these two steps.  The power
# difference is divided by lam - eta (lucas 2t - a, lehmer 2t - s), for the
# lehmer kind at even n by lam^2 - eta^2 = 2st - a.


def _lucas_times_t(c, a, b):
    c0, c1 = c
    return (-(b * c1), c0 + a * c1)


def _lucas_times_a_minus_t(c, a, b):
    c0, c1 = c
    return (a * c0 + b * c1, -c0)


def _lehmer_times_t(c, a, b):
    c0, c1, c2, c3 = c
    return (-(b * c2), -(b * c3), c0 + a * c3, c1 + c2)


def _lehmer_times_s_minus_t(c, a, b):
    c0, c1, c2, c3 = c
    return (a * c1 + b * c2, c0 + b * c3, -c0, -c1)


_TOWER = {
    SeqKind.LUCAS: (2, _lucas_times_t, _lucas_times_a_minus_t),
    SeqKind.LEHMER: (4, _lehmer_times_t, _lehmer_times_s_minus_t),
}


def _solve_scalar(u, d):
    """The unique w in K[x] with u = w * d componentwise, if it exists.

    w is the quotient at the first nonzero d_i; where d_i is zero, u_i must
    be zero.  OracleMismatch otherwise, and for an all-zero d.
    """
    i = next((i for i, di in enumerate(d) if di), None)
    if i is None:
        raise OracleMismatch("degenerate divisor in the tower")
    try:
        w = exact_div(u[i], d[i])
    except NotDivisible as exc:
        raise OracleMismatch(f"quotient left the base ring: {exc}") from exc
    if any((ui != w * di) if di else ui for ui, di in zip(u, d)):
        raise OracleMismatch("tower element is not a scalar multiple")
    return w


def oracle_term(params, n):
    """Recompute term(n) from the defining pair in the tower.

    The oracle for term(): powers of the pair are stepped in the kind's
    tower, in its own _lam/_eta caches, and the difference is divided back
    into K[x].  It may share only the polynomial layer: it never calls
    term() or reads _apow, _bpow, the gcd table or the valuation table.
    """
    _check_index(n)
    if params.kind is SeqKind.POWER:
        raise PreconditionViolated("the power kind is already definitional")
    size, lam_step, eta_step = _TOWER[params.kind]
    zero, one = Poly.zero(params.field), Poly.one(params.field)
    a, b = params.a, params.b
    if params._lam is None:
        params._lam = [(one,) + (zero,) * (size - 1)]
        params._eta = list(params._lam)
    lam_pows, eta_pows = params._lam, params._eta
    while len(lam_pows) <= n:
        lam_pows.append(lam_step(lam_pows[-1], a, b))
        eta_pows.append(eta_step(eta_pows[-1], a, b))
    u = tuple(x - y for x, y in zip(lam_pows[n], eta_pows[n]))
    if params.kind is SeqKind.LEHMER and n % 2:
        div = (zero, -one, one + one, zero)
    else:
        div = (-a,) + (zero,) * (size - 2) + (one + one,)
    return _solve_scalar(u, div)


def cyclotomic_value(params, n):
    """The n-th cyclotomic form evaluated at the defining pair, for n >= 3.

    For every kind this is the Moebius product of term(d)^mu(n/d) over the
    divisors d of n: the forms over the divisors multiply to X^n - Y^n over
    Z, so the quotient is exact (no term of an admissible pair is zero), and
    for n >= 3 the normalising factors of the kinds cancel.  It may share the
    terms with the stripping it checks, never a result of it: it must not
    read the gcd table or call primitive_part.
    """
    if not isinstance(n, int) or n < 3:
        raise PreconditionViolated("cyclotomic comparison starts at index 3")
    num = den = Poly.one(params.field)
    for d in divisors(n):
        mu = mobius(n // d)
        if mu == 1:
            num = num * term(params, d)
        elif mu == -1:
            den = den * term(params, d)
    return exact_div(num, den)
