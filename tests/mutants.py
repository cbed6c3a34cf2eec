"""Mutants of the checks, the oracles and the parsers, each with the test that kills it.

pytest does not collect this file.  Run it by hand from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant the script copies src/ to a temporary directory, replaces
the anchor text (which occurs exactly once in its module) by the
replacement, and runs the killing test against that copy.  It prints one
line per mutant and exits 1 when a mutant survives, an equivalent one is
killed, or a test cannot run.  An equivalent mutant changes no result, so no
test can kill it; it is run against the test that exercises its code, which
must still pass.

tests/test_mutants.py checks in Tier-1 that every anchor is still there.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str  # a module of src/seqdiv, without .py
    anchor: str  # text that occurs exactly once in the module
    replacement: str
    test: str  # the pytest node id that kills it (or, if equivalent, exercises it)
    equivalent: str = ""  # why no test can kill it


MUTANTS = [
    Mutant(
        "strip_skips_term_1",
        "divisibility",
        "range(1, n)",
        "range(2, n)",
        "tests/test_divisibility.py::TestGcdTable::test_stripping_against_the_table_is_exact",
    ),
    Mutant(
        "claim_gate_at_4",
        "divisibility",
        "return report.position >= 3",
        "return report.position >= 4",
        "tests/test_divisibility.py::TestZsigmondy::test_claim_gate",
    ),
    Mutant(
        "validate_without_root_of_unity_test",
        "sequences",
        "if kind is SeqKind.POWER and is_associated(a, b):",
        "if False:",
        "tests/test_sequences.py::TestValidate::test_ratio_over_q_needs_plus_minus_one",
    ),
    Mutant(
        "lehmer_reach_off_by_one",
        "verifier",
        "(m_max - 1 + m_max % 2) ** 2",
        "(m_max + m_max % 2) ** 2",
        "tests/test_verifier.py::TestConfigValidation::test_lehmer_term_reach_is_capped",
    ),
    Mutant(
        "packed_gcd_reduces_a_step_late",
        "polyring",
        "if steps == room:",
        "if steps == room + 1:",
        "tests/test_polyring_sympy.py::test_fp_gcd_at_the_slot_bound",
    ),
    Mutant(
        "tower_scalar_test_disabled",
        "sequences",
        "if any((ui != w * di) if di else ui for ui, di in zip(u, d)):",
        "if False:",
        "tests/test_sequences.py::TestOracle::test_solve_scalar_mismatches",
    ),
    Mutant(
        "strip_without_already_stripped_skip",
        "divisibility",
        "if divisor.is_unit() or divisor.coeffs in stripped:",
        "if divisor.is_unit():",
        "tests/test_divisibility.py::TestGcdTable",
        equivalent="the skip only saves time: stripping a divisor twice divides out nothing more",
    ),
    Mutant(
        "known_divisors_reversed",
        "divisibility",
        "for divisor in known + [",
        "for divisor in known[::-1] + [",
        "tests/test_divisibility.py::TestGcdTable",
        equivalent="the order only changes the work: every divisor's primes leave b in full",
    ),
    Mutant(
        "monic_term_cache_keyed_by_m",
        "divisibility",
        "right = params._monic.get(d)\n    if right is None:\n        right = params._monic[d]",
        "right = params._monic.get(m)\n    if right is None:\n        right = params._monic[m]",
        "tests/test_divisibility.py::TestStrongDivisibility::test_small_grid",
    ),
    Mutant(
        "packed_gcd_unrolls_without_room",
        "polyring",
        "if len(a) - db == 2 and room >= 2:",
        "if len(a) - db == 2:",
        "tests/test_polyring_sympy.py::test_packed_gcd_one_degree_drop",
    ),
    Mutant(
        "packed_gcd_monic_by_the_lead_row",
        "polyring",
        "rows[p - a[0]]",
        "rows[a[0]]",
        "tests/test_polyring_sympy.py::test_packed_gcd_makes_every_lead_monic",
    ),
    Mutant(
        "lehmer_term_degree_uncapped",
        "verifier",
        "        _at_most(key, _lehmer_reach(config) * degree, MAX_TERM_DEGREE)",
        "        pass",
        "tests/test_verifier.py::TestConfigValidation::test_lehmer_term_degree_is_capped",
    ),
    Mutant(
        "caret_after_a_coefficient",
        "polyring",
        r"(?:(?<=x)\^",
        r"(?:\^",
        "tests/test_polyring.py::TestParseFormat::test_parse_table",
    ),
    Mutant(
        "lone_sign_is_dangling",
        "polyring",
        "if not body and 0 < i == len(chunks) - 1:",
        "if not body and i == len(chunks) - 1:",
        "tests/test_polyring.py::TestParseFormat::test_parse_table",
    ),
    Mutant(
        "position_off_by_one",
        "divisibility",
        "return self.n - self.n // p if p else self.n",
        "return self.n - self.n // p + 1 if p else self.n",
        "tests/test_divisibility.py::TestPrimitivePart::test_report_facts_table",
    ),
    Mutant(
        "has_primitive_always",
        "divisibility",
        "return not self.primitive_part.is_unit()",
        "return True",
        "tests/test_divisibility.py::TestPrimitivePart::test_report_facts_table",
    ),
    Mutant(
        "berlekamp_rows_without_minus_e_i",
        "factorization",
        "live = [x + ((p - 1) << w * i) + (1 << w * (n + i)) for i, x in enumerate(xs)]",
        "live = [x + (1 << w * (n + i)) for i, x in enumerate(xs)]",
        "tests/test_factorization.py::TestFactorFp::test_product_of_known_irreducibles",
    ),
    Mutant(
        "value_split_skips_zero",
        "factorization",
        "for s in range(p):",
        "for s in range(1, p):",
        "tests/test_factorization.py::TestFactorFp::test_product_of_known_irreducibles",
    ),
    Mutant(
        "berlekamp_rows_reduced_a_pivot_late",
        "factorization",
        "if (n - len(live)) % room == 0:",
        "if (n - len(live)) % (room + 1) == 0:",
        "tests/test_factorization_sympy.py::test_factor_fp_dense_inputs_at_the_slot_bound",
    ),
    Mutant(
        "frobenius_rows_reduced_a_shift_late",
        "factorization",
        "elif j % room == 0:",
        "elif j % (room + 1) == 0:",
        "tests/test_factorization_sympy.py::test_factor_fp_dense_inputs_at_the_slot_bound",
    ),
    Mutant(
        "berlekamp_pivot_not_reduced",
        "factorization",
        "reduce(live.pop(t))",
        "live.pop(t)",
        "tests/test_factorization.py::TestFactorFp::test_product_of_known_irreducibles",
    ),
    Mutant(
        "report_keys_reversed",
        "verifier",
        "for f in fields(self)}",
        "for f in reversed(fields(self))}",
        "tests/test_verifier.py::TestReporting::test_report_json_key_order",
    ),
]


def module_path(src, mutant):
    return Path(src) / "seqdiv" / f"{mutant.module}.py"


def run(mutant):
    """'killed', 'survived', or 'error' (the test did not run, or ran 10 minutes) for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = module_path(src, mutant)
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.anchor) != 1:
            return "error"
        path.write_text(text.replace(mutant.anchor, mutant.replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", mutant.test]
        try:
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=600)
        except subprocess.TimeoutExpired:
            return "error"
    return {0: "survived", 1: "killed"}.get(done.returncode, "error")


def main(names):
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        result = run(mutant)
        expected = "survived" if mutant.equivalent else "killed"
        bad += result != expected
        note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        print(f"{result:8}  {mutant.name}  by {mutant.test}{note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
