"""Workload inputs, requests and correctness gates for the seqdiv benchmark.

Every input is generated here from the workload seed with this file's own
coefficient arithmetic.  Nothing comes from the program's enumeration or
random helpers, so a change to those cannot change what is measured.  A
request is one parameter pair verified end to end; the program receives
only the polynomial pair.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import product

# Criterion 4 of the acceptance suite: the exhaustive degree <= 2 power grids.
GRID_SIZES = {2: 30, 3: 240, 5: 3120}
GRID_BLOCKS = 30  # divides every grid size, so each block keeps the field mix

Q_KINDS = ("lucas", "lehmer")
Q_COEFF = 4
Q_BLOCKS = 12
Q_PER_CELL = 4


def _gcd_degree(a, b, p):
    """Degree of gcd(a, b) over F_p (p > 0) or Q (p == 0), a and b nonzero."""
    if not p:
        a = [Fraction(c) for c in a]
        b = [Fraction(c) for c in b]
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, p) if p else 1 / b[-1]
        r = a
        while len(r) >= len(b):
            c = r[-1] * inv
            k = len(r) - len(b)
            for i, bi in enumerate(b):
                r[i + k] = (r[i + k] - c * bi) % p if p else r[i + k] - c * bi
            while r and not r[-1]:
                r.pop()
        a, b = b, r
    return len(a) - 1


def _associated_fp(a, b, p):
    """True when a = c * b for a constant c of F_p."""
    if len(a) != len(b):
        return False
    la, lb = a[-1], b[-1]
    return all((x * lb - y * la) % p == 0 for x, y in zip(a, b))


def admissible(kind, a, b, p):
    """Admission rule of the paper for a nonzero pair; the power kind only over F_p.

    The pair is coprime, not both constants, and for the power kind a/b is
    not a constant (over F_p every nonzero constant is a root of unity).
    """
    if len(a) == 1 and len(b) == 1:
        return False
    if kind == "power" and _associated_fp(a, b, p):
        return False
    return _gcd_degree(a, b, p) == 0


def power_grid(p):
    """Admissible power pairs: a monic, b nonzero, both of degree <= 2."""
    monic = [t + (1,) for d in range(3) for t in product(range(p), repeat=d)]
    nonzero = [
        t + (lead,) for d in range(3) for lead in range(1, p) for t in product(range(p), repeat=d)
    ]
    return [(a, b) for a in monic for b in nonzero if admissible("power", a, b, p)]


def _deal(items, nblocks, rng):
    """Split items into nblocks groups with near-equal counts per degree pair."""
    strata = {}
    for a, b in items:
        strata.setdefault((len(a), len(b)), []).append((a, b))
    ordered = []
    for key in sorted(strata):
        rng.shuffle(strata[key])
        ordered.extend(strata[key])
    blocks = [[] for _ in range(nblocks)]
    for i, item in enumerate(ordered):
        blocks[i % nblocks].append(item)
    return blocks


def fp_power_requests(seed):
    """The whole criterion-4 grid in seeded order, in blocks of equal field and degree mix."""
    rng = random.Random(seed)
    dealt = {}
    for p, size in GRID_SIZES.items():
        grid = power_grid(p)
        if len(grid) != size:
            raise RuntimeError(f"admissible F_{p} grid has {len(grid)} pairs, criterion 4 says {size}")
        dealt[p] = _deal(grid, GRID_BLOCKS, rng)
    out = []
    for i in range(GRID_BLOCKS):
        block = [(p, a, b) for p in GRID_SIZES for a, b in dealt[p][i]]
        rng.shuffle(block)
        out.extend(block)
    return out, len(out) // GRID_BLOCKS


def _q_poly(degree, rng):
    tail = tuple(rng.randint(-Q_COEFF, Q_COEFF) for _ in range(degree))
    return tail + (rng.choice([c for c in range(-Q_COEFF, Q_COEFF + 1) if c]),)


def q_requests(seed):
    """Distinct admissible lucas and lehmer pairs over Q with coefficients in -4..4.

    Each block holds Q_PER_CELL pairs of every (kind, deg a, deg b) cell, so
    every block has the same kind and degree mix; (0, 0) is empty because
    two constants are never admissible.
    """
    rng = random.Random(seed)
    cells = [
        (k, da, db) for k in Q_KINDS for da in range(3) for db in range(3) if da or db
    ]
    seen = set()
    out = []
    for _ in range(Q_BLOCKS):
        block = []
        for kind, da, db in cells * Q_PER_CELL:
            while True:
                a, b = _q_poly(da, rng), _q_poly(db, rng)
                if (kind, a, b) not in seen and admissible(kind, a, b, 0):
                    break
            seen.add((kind, a, b))
            block.append((kind, a, b))
        rng.shuffle(block)
        out.extend(block)
    return out, len(cells) * Q_PER_CELL


def format_poly(cs):
    """Canonical text of a coefficient tuple: descending powers, explicit '*'."""
    out = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == 1 else f"{mag}*{xs}"
        sign = "-" if c < 0 else ("+" if out else "")
        out.append(sign + body)
    return "".join(out) or "0"


def _canonical(doc):
    doc = dict(doc)
    doc.pop("wall_time", None)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class FpCampaign:
    """One F_p power pair through ``verifier.run_campaign`` with fixed checks."""

    def __init__(self, checks, n_max, seed, mods):
        self.checks = checks
        self.n_max = n_max  # m_max too
        self.mods = mods
        self.requests, self.block = fp_power_requests(seed)
        self._fields = {p: mods.coeff.PrimeField(p) for p in GRID_SIZES}
        self.small = next(
            i for i, (p, a, b) in enumerate(self.requests) if p == 5 and len(a) == len(b) == 2
        )

    def prepare(self, req):
        p, a, b = req
        Poly = self.mods.polyring.Poly
        return Poly(self._fields[p], a), Poly(self._fields[p], b)

    def call(self, req, prepared):
        config = self.mods.verifier.CampaignConfig(
            field=self._fields[req[0]],
            kinds=(self.mods.sequences.SeqKind.POWER,),
            max_param_degree=max(len(req[1]), len(req[2])) - 1,
            enumeration=None,
            n_max=self.n_max,
            m_max=self.n_max,
            checks=self.checks,
            params=(prepared,),
        )
        return self.mods.verifier.run_campaign(config)

    def expected_cases(self, p):
        """Cases a power pair over F_p must run, derived from n, m and p alone."""
        n_max = self.n_max
        kept = [n for n in range(3, n_max + 1) if n % p]
        count = {
            "strong_div": n_max * (n_max + 1) // 2,  # 1 <= m <= n <= n_max
            "zsigmondy": sum(1 for n in kept if n - n // p >= 3),
            "primitive_part_phi": len(kept),
            "oracle_equivalence": n_max,
        }
        return sum(count[c] for c in self.checks)

    def check(self, req, report):
        """(ok, canonical report text, cases run)."""
        ok = (
            report.params_admitted == 1
            and report.params_rejected == 0
            and not report.failures
            and report.cases_passed == report.cases_run == self.expected_cases(req[0])
        )
        return ok, _canonical(report.to_json()), report.cases_run

    def describe(self, req):
        p, a, b = req
        return f"F_{p}", "power", max(len(a), len(b)) - 1


class QCliVerify:
    """One lucas or lehmer pair over Q through ``cli.main(["verify", ...])``."""

    N_MAX = 8

    def __init__(self, seed, mods):
        self.mods = mods
        self.requests, self.block = q_requests(seed)
        self.small = next(
            i for i, (k, a, b) in enumerate(self.requests) if k == "lehmer" and len(a) == len(b) == 2
        )

    def prepare(self, req):
        kind, a, b = req
        # "--a=<poly>": argparse takes "--a -x+3" for a flag and rejects it.
        return [
            "verify", "--kind", kind, "--field", "q",
            f"--a={format_poly(a)}", f"--b={format_poly(b)}",
            "--n-max", str(self.N_MAX), "--m-max", str(self.N_MAX), "--json",
        ]

    def call(self, req, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mods.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, req, result):
        """(ok, canonical report text, cases run).

        Only zsigmondy failures are allowed: for lucas and lehmer the
        primitive-divisor property is not a theorem (see NOTES.md).
        """
        code, out, err = result
        if err or code not in (0, 1):
            return False, None, 0
        doc = json.loads(out)
        failures = doc["failures"]
        kind, a, b = req
        ok = (
            code == (1 if failures else 0)
            and all(f["check"] == "zsigmondy" for f in failures)
            and doc["params_admitted"] == 1
            and doc["cases_passed"] + len(failures) == doc["cases_run"]
            and doc["config"]["kinds"] == [kind]
            and doc["config"]["params"] == [[format_poly(a), format_poly(b)]]
        )
        doc["code"] = code
        return ok, _canonical(doc), doc["cases_run"]

    def describe(self, req):
        kind, a, b = req
        return "Q", kind, max(len(a), len(b)) - 1


WORKLOADS = {
    "fp_power_grid": lambda seed, mods: FpCampaign(
        ("strong_div", "zsigmondy", "primitive_part_phi"), 20, seed, mods
    ),
    "fp_factor_oracle": lambda seed, mods: FpCampaign(("oracle_equivalence",), 12, seed, mods),
    "q_cli_verify": QCliVerify,
}
