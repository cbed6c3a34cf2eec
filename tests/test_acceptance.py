"""Acceptance checklist for the library.

One test per criterion, so `pytest -v` prints one pass/fail line for each.
Every comparison is bit-exact; the timed criteria assert their wall-clock
budget on top of correctness.
"""

import math
import time

import pytest

from seqdiv.cli import main as cli_main
from seqdiv.coeff import PrimeField, Rationals
from seqdiv.cyclokit import (
    BivarForm,
    cyclotomic_form,
    divisors,
    power_diff_form,
    power_sum_form,
    power_sum_resultant_check,
    power_sum_square_quotient,
    rem_mod_sum_square,
    resultant,
)
from seqdiv.divisibility import (
    coprime_pair_check,
    index_scaled_coprime_check,
    primitive_part,
    sum_square_coprime_check,
    term_divisors,
    valuation_stability_check,
    zsigmondy_check,
    zsigmondy_failures,
)
from seqdiv.errors import ValidationError
from seqdiv.polyring import parse_poly
from seqdiv.sequences import SeqKind, oracle_term, term, validate
from seqdiv.verifier import (
    CampaignConfig,
    Exhaustive,
    Random,
    enumerate_params,
    run_campaign,
)

Q = Rationals()

FIXED_PAIRS = (("x", "1"), ("x^2+1", "x"), ("x+1", "x^2+x+1"), ("2*x+1", "x^2"))


def fixed_params(kind, field):
    """The fixed parameter list mapped into a field, skipping pairs the
    admissibility rules reject there."""
    out = []
    for a_text, b_text in FIXED_PAIRS:
        try:
            out.append(
                validate(kind, field, parse_poly(field, a_text), parse_poly(field, b_text))
            )
        except ValidationError:
            continue
    return out


def power_grid_config(p, checks, n_max, m_max):
    return CampaignConfig(
        field=PrimeField(p),
        kinds=(SeqKind.POWER,),
        max_param_degree=2,
        enumeration=Exhaustive(),
        n_max=n_max,
        m_max=m_max,
        checks=checks,
    )


def test_criterion_01_cyclotomic_product_identities():
    started = time.perf_counter()
    one = BivarForm(0, (1,))
    for n in range(1, 201):
        ds = divisors(n)
        full = one
        tail = one
        for d in ds:
            phi = cyclotomic_form(d)
            full = full * phi
            if d >= 2:
                tail = tail * phi
        assert full == power_diff_form(n)
        assert tail == power_sum_form(n)
    assert time.perf_counter() - started < 10.0


def test_criterion_02_power_sum_resultants():
    started = time.perf_counter()
    pairs = 0
    for m in range(2, 31):
        for n in range(m + 1, 31):
            ok, value = power_sum_resultant_check(m, n)
            assert ok
            # re-derive the expectation independently of the check's verdict
            if math.gcd(m, n) == 1:
                assert abs(value) == 1
            else:
                assert value == 0
            assert value == resultant(power_sum_form(m), power_sum_form(n))
            pairs += 1
    assert pairs == 406
    assert time.perf_counter() - started < 30.0


def test_criterion_03_sum_square_congruences():
    # even powers: X^(2k) + Y^(2k) = (-1)^k 2 (XY)^k mod (X+Y)^2
    for k in range(1, 61):
        lhs = BivarForm(2 * k, (1,) + (0,) * (2 * k - 1) + (1,))
        rhs_cs = [0] * (2 * k + 1)
        rhs_cs[k] = 2 * (-1) ** k
        rhs = BivarForm(2 * k, rhs_cs)
        assert rem_mod_sum_square(lhs - rhs).is_zero()
    # odd power sums: P_(2k+1) = (-1)^k (XY)^k mod (X+Y)^2
    for k in range(1, 61):
        lhs = power_sum_form(2 * k + 1)
        rhs_cs = [0] * (2 * k + 1)
        rhs_cs[k] = (-1) ** k
        rhs = BivarForm(2 * k, rhs_cs)
        assert rem_mod_sum_square(lhs - rhs).is_zero()
    # quotient reconstruction: P_n = (X+Y)^2 C + (-1)^((n-1)/2) (XY)^((n-1)/2)
    sum_square = BivarForm(2, (1, 2, 1))
    for n in range(3, 100, 2):
        c = power_sum_square_quotient(n)
        j = (n - 1) // 2
        rest_cs = [0] * n
        rest_cs[j] = (-1) ** j
        rebuilt = sum_square * c
        assert power_sum_form(n) - rebuilt == BivarForm(n - 1, rest_cs)


def test_criterion_04_prime_field_exhaustive_campaigns():
    started = time.perf_counter()
    checks = ("strong_div", "zsigmondy", "primitive_part_phi")
    expected_grid = {2: 30, 3: 240, 5: 3120}
    for p in (2, 3, 5):
        config = power_grid_config(p, checks, n_max=20, m_max=20)
        report = run_campaign(config)
        assert report.params_admitted == expected_grid[p]
        assert report.failures == []
        assert report.cases_passed == report.cases_run
    # the campaign claims start at pruned position 3; over F_2 the raw index
    # 3 sits at position 2, so cover it directly to reach every non-excluded
    # raw index >= 3
    f2_params, _ = enumerate_params(power_grid_config(2, checks, 20, 20))
    for params in f2_params:
        assert primitive_part(params, 3).has_primitive
    assert time.perf_counter() - started < 300.0


def test_criterion_05_rational_fixed_grid_campaign():
    started = time.perf_counter()
    pairs = tuple(
        (parse_poly(Q, a), parse_poly(Q, b)) for a, b in FIXED_PAIRS
    )
    config = CampaignConfig(
        field=Q,
        kinds=(SeqKind.LUCAS, SeqKind.LEHMER),
        max_param_degree=2,
        enumeration=None,
        n_max=18,
        m_max=18,
        checks=("strong_div", "zsigmondy", "primitive_part_phi"),
        params=pairs,
    )
    report = run_campaign(config)
    assert report.params_admitted == 8
    assert report.failures == []
    assert time.perf_counter() - started < 120.0


def test_criterion_06_recurrence_matches_tower_oracle():
    for field in (Q, PrimeField(5)):
        config = CampaignConfig(
            field=field,
            kinds=(SeqKind.LUCAS, SeqKind.LEHMER),
            max_param_degree=3,
            enumeration=Random(count=50, seed=1),
            n_max=40,
            m_max=40,
            checks=("oracle_equivalence",),
        )
        admitted, _ = enumerate_params(config)
        assert len(admitted) == 100  # 50 per kind
        for params in admitted:
            for n in range(1, 41):
                assert term(params, n) == oracle_term(params, n)


def test_criterion_07_valuation_stability_on_divisors():
    for field in (Q, PrimeField(2), PrimeField(3), PrimeField(5)):
        p = field.char
        for params in fixed_params(SeqKind.LEHMER, field):
            # the first two terms are 1, so divisors only exist from n = 3 on
            for n in range(3, 9):
                for q in term_divisors(params, n):
                    for m in range(2, 6):
                        if p and m % p == 0:
                            continue
                        assert valuation_stability_check(params, q, n, m)


def test_criterion_08_coprimality_lemma_suite():
    fields = (Q, PrimeField(2), PrimeField(3), PrimeField(5))
    for field in fields:
        for kind in (SeqKind.LUCAS, SeqKind.LEHMER):
            for params in fixed_params(kind, field):
                for m in range(1, 13):
                    for n in range(m + 1, 13):
                        if math.gcd(m, n) != 1:
                            continue
                        if kind is SeqKind.LEHMER and m % 2 == 0:
                            assert coprime_pair_check(params, n, m)
                        else:
                            assert coprime_pair_check(params, m, n)
        for params in fixed_params(SeqKind.LEHMER, field):
            for n in range(1, 20, 2):
                assert sum_square_coprime_check(params, n)
            for m in range(1, 8, 2):
                for n in range(1, 8, 2):
                    assert index_scaled_coprime_check(params, m, n)


def test_criterion_09_sabotage_detects_excluded_indices(capsys):
    field = PrimeField(2)
    params = validate(
        SeqKind.POWER, field, parse_poly(field, "x+1"), parse_poly(field, "x")
    )
    reports = zsigmondy_check(params, 12)
    assert zsigmondy_failures(reports) == []
    assert zsigmondy_failures(reports, include_excluded=True) != []

    config = CampaignConfig(
        field=field,
        kinds=(SeqKind.POWER,),
        max_param_degree=1,
        enumeration=None,
        n_max=12,
        m_max=12,
        checks=("zsigmondy",),
        include_excluded=True,
        params=((params.a, params.b),),
    )
    assert not run_campaign(config).ok

    code = cli_main(
        [
            "verify", "--kind", "power", "--field", "fp", "--p", "2",
            "--a", "x+1", "--b", "x", "--n-max", "12", "--include-excluded",
        ]
    )
    capsys.readouterr()
    assert code == 1


def test_criterion_10_primitive_part_factorization_oracle():
    for p in (2, 3, 5):
        config = power_grid_config(p, ("oracle_equivalence",), n_max=12, m_max=12)
        report = run_campaign(config)
        assert report.failures == []
        assert report.cases_run == report.params_admitted * 12
