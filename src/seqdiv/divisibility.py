"""Divisibility theorems as executable checks.

Covers, for validated sequence parameters: the strong divisibility law
gcd(term(m), term(n)) ~ term(gcd(m, n)); primitive parts and primitive prime
divisors with their cyclotomic description; valuation stability under index
scaling; and a family of coprimality facts between related terms.

The primitive part of term(n) is the product of the primitive prime powers:
those irreducible factors that divide no earlier term, kept with their full
multiplicity.  It is computed here by gcd-stripping, which needs no
factorization and therefore works over Q[x] and F_p[x] alike; over F_p an
independent factorization-based construction is provided as a cross-check.
"""

from dataclasses import dataclass
from math import gcd as int_gcd

from .errors import PreconditionViolated, UnsupportedField
from .factorization import factor_fp, low_degree_factors_q
from .polyring import Poly, _strip_power, exact_div, poly_gcd, valuation
from .sequences import SeqKind, cyclotomic_value, term

__all__ = [
    "PrimitiveReport",
    "strong_div_check",
    "primitive_part",
    "phi_claimed",
    "matches_phi",
    "zsigmondy_check",
    "zsigmondy_claimed",
    "valuation_stability_check",
    "term_divisors",
    "sum_square_coprime_check",
    "index_scaled_coprime_check",
    "coprime_pair_check",
    "primitive_parts_factored",
]


@dataclass(frozen=True)
class PrimitiveReport:
    """Primitive-divisor data for a single index: what stripping computed,
    and the facts that follow from n, the field and the primitive part."""

    n: int
    term: Poly
    primitive_part: Poly

    @property
    def has_primitive(self):
        """Whether the primitive part is not a unit."""
        return not self.primitive_part.is_unit()

    @property
    def excluded(self):
        """Whether the characteristic divides n."""
        p = self.term.field.char
        return bool(p) and self.n % p == 0

    @property
    def position(self):
        """The index of n inside the subsequence that survives deleting the
        indices divisible by the characteristic (n over Q); None when n is deleted."""
        if self.excluded:
            return None
        p = self.term.field.char
        return self.n - self.n // p if p else self.n


def _term_gcd(params, m, n):
    """Monic gcd(term(m), term(n)), computed once per sequence.

    The table params._gcd is keyed by (min, max) and holds only gcds that
    were actually computed from the two terms, never a value predicted by
    the strong divisibility law.
    """
    key = (m, n) if m <= n else (n, m)
    g = params._gcd.get(key)
    if g is None:
        g = params._gcd[key] = poly_gcd(term(params, key[0]), term(params, key[1]))
    return g


def strong_div_check(params, m, n):
    """True iff gcd(term(m), term(n)) is associated to term(gcd(m, n)).

    Reads and fills the per-sequence gcd table, which primitive_part may
    then reuse.  The gcd is always computed from the two terms themselves;
    term(gcd(m, n)) appears only on the right of the comparison, made monic
    once per sequence in params._monic.
    """
    if m < 1 or n < 1:
        raise PreconditionViolated("indices must be positive")
    d = int_gcd(m, n)
    right = params._monic.get(d)
    if right is None:
        right = params._monic[d] = term(params, d).monic()
    return _term_gcd(params, m, n) == right


def primitive_part(params, n):
    """Strip every non-primitive factor out of term(n) and report.

    For each earlier index m the gcd with term(m) is divided out repeatedly,
    so an irreducible occurring in any earlier term is removed with its full
    multiplicity while primitive irreducibles are never touched.  The
    survivor (made monic) is the primitive part.  The cyclotomic value it
    is compared with is matches_phi's to compute, never this function's.

    The divisor for m is the gcd table's G = gcd(term(m), term(n)) when the
    table holds it (filled by strong_div_check or coprime_pair_check), else
    term(m): b divides term(n), so gcd(b, term(m)) = gcd(b, G).  The table's
    gcds go first, largest degree first: each divides term(n), so the largest
    usually takes the primes of the smaller ones, whose gcd with b is then 1
    at once.  Then come the terms the table lacks, in index order.  The order
    changes no result, since every prime of a divisor leaves b with its full
    multiplicity; each gcd found is the divisor of the next, since it holds
    every prime of the divisor still in b.  A divisor is skipped when it is a
    unit or has already been stripped.  This function reads the table but
    never fills it, and never strips against term(gcd(m, n)), which would
    assume the law strong_div_check is there to test.
    """
    if n < 1:
        raise PreconditionViolated("index must be positive")
    t = b = term(params, n)
    table, indices = params._gcd, range(1, n)
    known = [table[m, n] for m in indices if (m, n) in table]
    known.sort(key=lambda g: g.degree, reverse=True)
    stripped = set()
    for divisor in known + [term(params, m) for m in indices if (m, n) not in table]:
        if divisor.is_unit() or divisor.coeffs in stripped:
            continue
        stripped.add(divisor.coeffs)
        g = divisor
        while True:
            g = poly_gcd(b, g)
            if g.is_unit():
                break
            b = exact_div(b, g)
    return PrimitiveReport(n, t, b.monic())


def phi_claimed(report):
    """Whether the cyclotomic description is claimed: n >= 3, prime to the characteristic."""
    return report.n >= 3 and not report.excluded


def matches_phi(params, report):
    """Where phi_claimed, whether the primitive part is the monic n-th cyclotomic value."""
    if not phi_claimed(report):
        return False
    return report.primitive_part == cyclotomic_value(params, report.n).monic()


def zsigmondy_check(params, n_max):
    """Primitive-divisor reports for every index 1 <= n <= n_max."""
    if n_max < 1:
        raise PreconditionViolated("n_max must be at least 1")
    return [primitive_part(params, n) for n in range(1, n_max + 1)]


def zsigmondy_claimed(report, include_excluded=False):
    """Whether the primitive-divisor property is asserted at this index.

    The property is claimed for every term beyond the second of the
    subsequence that survives deleting indices divisible by the
    characteristic, i.e. at pruned position >= 3 (which over Q is just
    n >= 3).  With include_excluded the pruning is deliberately skipped and
    every raw index n >= 3 is claimed; that mode exists to demonstrate the
    failures the deletion is there to avoid.
    """
    if report.n < 3:
        return False
    if include_excluded:
        return True
    if report.excluded:
        return False
    return report.position >= 3


def _term_valuation(params, q, n):
    """valuation(q, term(n)), computed once per sequence.

    The table params._val is keyed by (q.coeffs, n) and holds only
    valuations that were actually computed from the term.
    """
    key = (q.coeffs, n)
    v = params._val.get(key)
    if v is None:
        v = params._val[key] = valuation(q, term(params, n))
    return v


def valuation_stability_check(params, q, n, m):
    """True iff the q-adic valuation of term(m*n) equals that of term(n).

    q must be a divisor of term(n) and the scaling index m must avoid the
    characteristic.  Both valuations are read from, or added to, the
    per-sequence valuation table.
    """
    if params.kind is not SeqKind.LEHMER:
        raise PreconditionViolated("valuation stability is stated for the lehmer kind")
    if n < 3 or m < 1:
        raise PreconditionViolated("need n >= 3 and m >= 1")
    p = params.field.char
    if p and m % p == 0:
        raise PreconditionViolated(f"scaling index {m} is divisible by the characteristic")
    vn = _term_valuation(params, q, n)
    if vn == 0:
        raise PreconditionViolated(f"{q} does not divide term({n})")
    return _term_valuation(params, q, m * n) == vn


def term_divisors(params, n):
    """Irreducible divisors of term(n): all of them over F_p, those of
    degree <= 2 over Q."""
    t = term(params, n)
    if params.field.char:
        return [q for q, _ in factor_fp(t).factors]
    return low_degree_factors_q(t)


def sum_square_coprime_check(params, n):
    """True iff term(n) and the squared-sum parameter generate coprime ideals (odd n)."""
    if params.kind is not SeqKind.LEHMER:
        raise PreconditionViolated("the squared-sum coprimality is a lehmer statement")
    if n % 2 == 0:
        raise PreconditionViolated("index must be odd")
    return poly_gcd(term(params, n), params.a).is_unit()


def index_scaled_coprime_check(params, m, n):
    """True iff term(m*n)/term(n) and term(2n)/term(n) generate coprime ideals.

    Both quotients are exact for odd m, n; the first is the m-th power-sum
    value at the n-th powers of the defining pair, the second is their sum
    divided by the original sum.
    """
    if params.kind is not SeqKind.LEHMER:
        raise PreconditionViolated("index-scaled coprimality is a lehmer statement")
    if m % 2 == 0 or n % 2 == 0:
        raise PreconditionViolated("both indices must be odd")
    tn = term(params, n)
    right = params._half.get(n)
    if right is None:
        right = params._half[n] = exact_div(term(params, 2 * n), tn)
    return poly_gcd(exact_div(term(params, m * n), tn), right).is_unit()


def coprime_pair_check(params, m, n):
    """True iff term(m) and term(n) generate coprime ideals, for coprime m, n.

    For the lehmer kind the statement needs one odd index, and one of two
    coprime indices always is.  Symmetric in m and n: reads and fills the
    gcd table under the key (min(m, n), max(m, n)).
    """
    if params.kind is SeqKind.POWER:
        raise PreconditionViolated("pairwise coprimality applies to lucas and lehmer terms")
    if int_gcd(m, n) != 1:
        raise PreconditionViolated(f"indices {m}, {n} are not coprime")
    return _term_gcd(params, m, n).is_unit()


def primitive_parts_factored(params, n_max):
    """Primitive parts over F_p from complete factorizations, per definition.

    Divides term(n) by every monic irreducible seen in earlier terms, as
    often as it divides; the monic cofactor is the product of the unseen
    irreducibles with their multiplicity in term(n), and only it is factored.

    The independent oracle for the gcd-stripping construction: it may share
    term() and the polynomial and factorization layers with it, but must not
    read the gcd table, call primitive_part, or divide by anything but the
    irreducibles factor_fp returned.
    """
    if not params.field.char:
        raise UnsupportedField("the factorization oracle needs a prime field")
    seen = []
    parts = {}
    for n in range(1, n_max + 1):
        b = term(params, n)
        for q in seen:
            b = _strip_power(q, b)[1]
        parts[n] = b = b.monic()
        seen.extend(q for q, _ in factor_fp(b).factors)
    return parts
