"""Exact divisibility sequences over Q[x] and F_p[x].

Lehmer, Lucas, and power-difference sequences with exact coefficient
arithmetic, cyclotomic machinery, finite-field factorization, primitive
prime divisor reports, and a campaign verifier that checks the divisibility
theorems mechanically on enumerable parameter grids.  Every name is imported
from its module, for example ``from seqdiv.sequences import term``.
"""

__version__ = "0.1.0"
