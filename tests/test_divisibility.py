import dataclasses

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import poly_strategy
from seqdiv import divisibility
from seqdiv.coeff import PrimeField, Rationals
from seqdiv.divisibility import (
    coprime_pair_check,
    index_scaled_coprime_check,
    matches_phi,
    phi_claimed,
    primitive_part,
    primitive_parts_factored,
    strong_div_check,
    sum_square_coprime_check,
    term_divisors,
    valuation_stability_check,
    zsigmondy_check,
    zsigmondy_claimed,
)
from seqdiv.errors import PreconditionViolated, UnsupportedField, ValidationError
from seqdiv.factorization import factor_fp
from seqdiv.polyring import Poly, is_associated, parse_poly, poly_gcd, valuation
from seqdiv.sequences import SeqKind, term, validate
from seqdiv.verifier import CampaignConfig, run_campaign

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def mk(kind, field, a, b):
    return validate(SeqKind(kind), field, parse_poly(field, a), parse_poly(field, b))


def claim_failures(reports, include_excluded=False):
    """Reports where the primitive-divisor claim applies but fails."""
    return [r for r in reports if zsigmondy_claimed(r, include_excluded) and not r.has_primitive]


class TestStrongDivisibility:
    def test_lucas_frozen(self):
        params = mk("lucas", Q, "x", "1")
        assert strong_div_check(params, 4, 6)
        # and the underlying identity: gcd(L_4, L_6) ~ L_2 = x
        g = poly_gcd(term(params, 4), term(params, 6))
        assert str(g.monic()) == "x"

    def test_lehmer_frozen(self):
        params = mk("lehmer", Q, "x", "1")
        assert strong_div_check(params, 3, 6)
        g = poly_gcd(term(params, 3), term(params, 6))
        assert str(g.monic()) == "x-1"

    @pytest.mark.parametrize("kind", ["power", "lucas", "lehmer"])
    def test_small_grid(self, kind):
        params = mk(kind, Q, "x^2+1", "x")
        for m in range(1, 9):
            for n in range(m, 9):
                assert strong_div_check(params, m, n)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_small_grid_fp(self, p):
        field = PrimeField(p)
        params = mk("lehmer", field, "x+1", "x")
        for m in range(1, 9):
            for n in range(m, 9):
                assert strong_div_check(params, m, n)

    def test_divisor_indices_give_divisor_terms(self):
        params = mk("lucas", Q, "2*x+1", "x^2")
        for n in range(1, 13):
            tn = term(params, n)
            for m in range(1, n):
                if n % m == 0:
                    _, r = divmod(tn, term(params, m))
                    assert r.is_zero()

    def test_rejects_bad_indices(self):
        params = mk("lucas", Q, "x", "1")
        with pytest.raises(PreconditionViolated):
            strong_div_check(params, 0, 4)


class TestPrimitivePart:
    def test_power_frozen_q(self):
        params = mk("power", Q, "x+1", "x")
        rep = primitive_part(params, 3)
        assert str(rep.term) == "3*x^2+3*x+1"
        assert str(rep.primitive_part) == "x^2+x+1/3"
        assert rep.has_primitive and matches_phi(params, rep) and not rep.excluded
        assert rep.position == 3

    def test_rejects_index_zero(self):
        with pytest.raises(PreconditionViolated):
            primitive_part(mk("power", Q, "x+1", "x"), 0)

    def test_lucas_frozen_q(self):
        params = mk("lucas", Q, "x", "1")
        rep = primitive_part(params, 6)
        assert str(rep.primitive_part) == "x^2-3"
        assert rep.has_primitive and matches_phi(params, rep)

    def test_excluded_index(self):
        params = mk("power", F3, "x+1", "x")
        rep = primitive_part(params, 3)
        assert rep.excluded
        assert rep.position is None
        assert str(rep.term) == "1"
        assert not rep.has_primitive and not matches_phi(params, rep)

    def test_position_counts_surviving_indices(self):
        params = mk("power", F3, "x+1", "x")
        positions = [primitive_part(params, n).position for n in range(1, 8)]
        assert positions == [1, 2, None, 3, 4, None, 5]

    # power(x+1, x) at n = 1..12: the position of each index (None where it
    # is excluded) and the indices with a primitive divisor (term(1) = 1 has none)
    @pytest.mark.parametrize(
        "field,positions,primitive",
        [
            (F2, [1, None, 2, None, 3, None, 4, None, 5, None, 6, None], [3, 5, 7, 9, 11]),
            (F3, [1, 2, None, 3, 4, None, 5, 6, None, 7, 8, None], [2, 4, 5, 7, 8, 10, 11]),
            (Q, list(range(1, 13)), list(range(2, 13))),
        ],
        ids=["F2", "F3", "Q"],
    )
    def test_report_facts_table(self, field, positions, primitive):
        reports = zsigmondy_check(mk("power", field, "x+1", "x"), 12)
        assert [r.position for r in reports] == positions
        assert [r.excluded for r in reports] == [pos is None for pos in positions]
        assert [r.n for r in reports if r.has_primitive] == primitive

    def test_report_with_a_unit_primitive_part_has_no_primitive(self):
        rep = primitive_part(mk("power", F3, "x+1", "x"), 5)
        assert rep.has_primitive
        assert not dataclasses.replace(rep, primitive_part=Poly.one(F3)).has_primitive

    def test_phi_is_claimed_from_3_at_indices_prime_to_p(self):
        params = mk("power", F3, "x+1", "x")
        claimed = [phi_claimed(primitive_part(params, n)) for n in range(1, 8)]
        assert claimed == [False, False, False, True, True, False, True]

    def test_low_indices_never_match_phi(self):
        params = mk("lucas", Q, "x", "1")
        assert not matches_phi(params, primitive_part(params, 1))
        assert not matches_phi(params, primitive_part(params, 2))


class TestPhiMatch:
    @pytest.mark.parametrize(
        "kind,field,a,b",
        [
            ("power", Q, "x+1", "x"),
            ("power", F5, "x^2+1", "x"),
            ("lucas", Q, "x", "1"),
            ("lehmer", Q, "x", "1"),
            ("lehmer", F3, "x+1", "x"),
        ],
    )
    def test_primitive_part_is_cyclotomic_value(self, kind, field, a, b):
        params = mk(kind, field, a, b)
        reports = zsigmondy_check(params, 12)
        assert all(matches_phi(params, r) for r in reports if r.n >= 3 and not r.excluded)

    def test_match_holds_even_when_part_is_trivial(self):
        # when the primitive part collapses to a unit the cyclotomic value
        # collapses with it, so the identity still holds
        params = mk("lehmer", Q, "x+1", "x")
        rep = primitive_part(params, 3)
        assert str(rep.term) == "1"
        assert not rep.has_primitive
        assert matches_phi(params, rep)

    def test_stripping_computes_no_cyclotomic_value(self, monkeypatch):
        """The cyclotomic value is the phi check's oracle: primitive_part,
        zsigmondy_check and the factorization oracle never compute it."""

        def poisoned(params, n):
            raise AssertionError(f"cyclotomic_value({n}) called")

        monkeypatch.setattr(divisibility, "cyclotomic_value", poisoned)
        params = mk("power", F5, "x^2+1", "x")
        assert primitive_part(params, 6).has_primitive
        assert len(zsigmondy_check(params, 12)) == 12
        report = run_campaign(
            CampaignConfig(
                field=F5,
                kinds=(SeqKind.POWER,),
                max_param_degree=2,
                enumeration=None,
                n_max=12,
                m_max=12,
                checks=("oracle_equivalence",),
                params=((params.a, params.b),),
            )
        )
        assert report.ok and report.cases_run == 12
        with pytest.raises(AssertionError, match="called"):
            matches_phi(params, primitive_part(params, 6))


class TestZsigmondy:
    def test_requires_room_for_a_claim(self):
        params = mk("lucas", Q, "x", "1")
        with pytest.raises(PreconditionViolated):
            zsigmondy_check(params, 0)
        assert [r.n for r in zsigmondy_check(params, 2)] == [1, 2]

    def test_clean_run_q(self):
        params = mk("lucas", Q, "x", "1")
        reports = zsigmondy_check(params, 12)
        assert claim_failures(reports) == []
        assert all(r.has_primitive for r in reports if r.n >= 3)

    def test_claim_gate(self):
        params = mk("power", F3, "x+1", "x")
        reports = {r.n: r for r in zsigmondy_check(params, 8)}
        assert not zsigmondy_claimed(reports[2])
        assert not zsigmondy_claimed(reports[3])  # excluded
        # raw index 4 sits at pruned position 3, the first claimed slot
        assert zsigmondy_claimed(reports[4])
        assert zsigmondy_claimed(reports[8])

    def test_counterexample_lehmer_q(self):
        # a term beyond the second can collapse to a unit: the third lehmer
        # term for (x+1, x) is a - b = 1, so no primitive divisor exists
        params = mk("lehmer", Q, "x+1", "x")
        reports = zsigmondy_check(params, 6)
        bad = claim_failures(reports)
        assert [r.n for r in bad] == [3]
        assert str(bad[0].term) == "1"

    def test_counterexample_lucas_q(self):
        # same collapse for the lucas kind: L_3 = P^2 - Q = 1 here
        params = mk("lucas", Q, "x", "x^2-1")
        bad = claim_failures(zsigmondy_check(params, 6))
        assert [r.n for r in bad] == [3]

    def test_counterexample_lehmer_f3(self):
        # U_4 = a - 2b becomes the unit 1 over F_3 for (x, 2x+1)
        params = mk("lehmer", F3, "x", "2*x+1")
        reports = zsigmondy_check(params, 8)
        bad = claim_failures(reports)
        assert [r.n for r in bad] == [4]
        assert str(bad[0].term) == "1"
        assert bad[0].position == 3

    def test_pruned_position_two_is_not_claimed(self):
        # over F_2 the raw index 3 sits at pruned position 2, inside the
        # first two positions where no claim is made, so the collapsed term
        # is not a failure
        params = mk("lehmer", F2, "x+1", "x")
        reports = zsigmondy_check(params, 6)
        by_n = {r.n: r for r in reports}
        assert str(by_n[3].term) == "1"
        assert by_n[3].position == 2
        assert not zsigmondy_claimed(by_n[3])
        assert claim_failures(reports) == []

    def test_include_excluded_widens_the_claim(self):
        params = mk("power", F2, "x+1", "x")
        reports = zsigmondy_check(params, 6)
        assert claim_failures(reports) == []
        bad = claim_failures(reports, include_excluded=True)
        assert [r.n for r in bad] == [4, 6]


class TestValuationStability:
    def test_frozen_q(self):
        params = mk("lehmer", Q, "x", "1")
        q = parse_poly(Q, "x-1")
        for m in (2, 3, 4, 5):
            assert valuation_stability_check(params, q, 3, m)

    def test_fp_grid(self):
        params = mk("lehmer", F3, "x+1", "x")
        for n in range(3, 7):
            for q in term_divisors(params, n):
                for m in (2, 4, 5):
                    assert valuation_stability_check(params, q, n, m)

    @pytest.mark.parametrize(
        "field,a,b", [(Q, "x", "1"), (Q, "x^2+1", "x-2"), (F3, "x+1", "x"), (F5, "x^2+2", "x+1")]
    )
    def test_table_equals_direct_valuations(self, field, a, b):
        params = mk("lehmer", field, a, b)
        for n in range(3, 7):
            for q in term_divisors(params, n):
                for m in range(1, 5):
                    if field.char and m % field.char == 0:
                        continue
                    fresh = mk("lehmer", field, a, b)
                    vn = valuation(q, term(fresh, n))
                    expected = valuation(q, term(fresh, m * n)) == vn
                    assert valuation_stability_check(params, q, n, m) == expected
        fresh = mk("lehmer", field, a, b)
        assert params._val
        for (coeffs, n), v in params._val.items():
            assert v == valuation(Poly(field, coeffs), term(fresh, n))

    def test_rejects_characteristic_scaling(self):
        params = mk("lehmer", F2, "x+1", "x^2+x+1")
        q = term_divisors(params, 4)[0]
        with pytest.raises(PreconditionViolated):
            valuation_stability_check(params, q, 4, 2)

    def test_rejects_non_divisor(self):
        params = mk("lehmer", Q, "x", "1")
        with pytest.raises(PreconditionViolated):
            valuation_stability_check(params, parse_poly(Q, "x+7"), 3, 2)

    def test_lehmer_only(self):
        params = mk("lucas", Q, "x", "1")
        with pytest.raises(PreconditionViolated):
            valuation_stability_check(params, parse_poly(Q, "x"), 3, 2)

    def test_rejects_small_index(self):
        params = mk("lehmer", Q, "x", "1")
        with pytest.raises(PreconditionViolated):
            valuation_stability_check(params, parse_poly(Q, "x"), 2, 3)


class TestCoprimalityLemmas:
    def test_sum_square_frozen(self):
        params = mk("lehmer", Q, "x", "1")
        for n in (3, 5, 7, 9, 11):
            assert sum_square_coprime_check(params, n)

    def test_sum_square_rejects_even(self):
        params = mk("lehmer", Q, "x", "1")
        with pytest.raises(PreconditionViolated):
            sum_square_coprime_check(params, 4)

    def test_sum_square_lehmer_only(self):
        params = mk("lucas", Q, "x", "1")
        with pytest.raises(PreconditionViolated):
            sum_square_coprime_check(params, 3)

    def test_index_scaled_frozen(self):
        params = mk("lehmer", Q, "x", "1")
        for m in (3, 5):
            for n in (3, 5, 7):
                assert index_scaled_coprime_check(params, m, n)

    def test_index_scaled_rejects_even(self):
        params = mk("lehmer", Q, "x", "1")
        with pytest.raises(PreconditionViolated):
            index_scaled_coprime_check(params, 2, 3)
        with pytest.raises(PreconditionViolated):
            index_scaled_coprime_check(params, 3, 4)

    def test_index_scaled_lehmer_only(self):
        params = mk("lucas", Q, "x", "1")
        with pytest.raises(PreconditionViolated):
            index_scaled_coprime_check(params, 3, 5)

    def test_coprime_pair_frozen(self):
        lucas = mk("lucas", Q, "x", "1")
        assert coprime_pair_check(lucas, 4, 9)
        lehmer = mk("lehmer", Q, "x", "1")
        assert coprime_pair_check(lehmer, 3, 8)

    def test_coprime_pair_guards(self):
        lehmer = mk("lehmer", Q, "x", "1")
        # symmetric: one gcd table entry answers both orders
        assert coprime_pair_check(lehmer, 4, 9) == coprime_pair_check(lehmer, 9, 4)
        assert set(lehmer._gcd) == {(4, 9)}
        with pytest.raises(PreconditionViolated):
            coprime_pair_check(lehmer, 3, 9)  # not coprime
        power = mk("power", Q, "x+1", "x")
        with pytest.raises(PreconditionViolated):
            coprime_pair_check(power, 2, 3)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_coprime_pair_fp_grid(self, p):
        field = PrimeField(p)
        params = mk("lehmer", field, "x+1", "x")
        from math import gcd

        for m in range(1, 10, 2):
            for n in range(1, 13):
                if gcd(m, n) == 1:
                    assert coprime_pair_check(params, m, n)


class TestFactoredOracle:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("kind", ["power", "lucas", "lehmer"])
    def test_matches_gcd_stripping(self, p, kind):
        field = PrimeField(p)
        params = mk(kind, field, "x+1", "x")
        parts = primitive_parts_factored(params, 10)
        for n in range(1, 11):
            assert parts[n] == primitive_part(params, n).primitive_part

    def test_larger_field(self):
        params = mk("lehmer", F5, "x^2+1", "x")
        parts = primitive_parts_factored(params, 8)
        for n in range(1, 9):
            assert parts[n] == primitive_part(params, n).primitive_part

    def test_needs_prime_field(self):
        params = mk("lucas", Q, "x", "1")
        with pytest.raises(UnsupportedField):
            primitive_parts_factored(params, 6)

    @given(data=st.data())
    def test_incremental_oracle_matches_factoring_every_term(self, data):
        field = data.draw(st.sampled_from([F2, F3, F5]))
        kind = data.draw(st.sampled_from(list(SeqKind)))
        a = data.draw(poly_strategy(field, 2, nonzero=True))
        b = data.draw(poly_strategy(field, 2, nonzero=True))
        try:
            params = validate(kind, field, a, b)
        except ValidationError:
            assume(False)
        n_max = data.draw(st.integers(1, 12))
        parts = primitive_parts_factored(params, n_max)
        assert not params._gcd  # the oracle never reads or fills the gcd table
        assert parts == factored_from_scratch(params, n_max)


def factored_from_scratch(params, n_max):
    """Reference: factor every term in full, keep the factors not seen before."""
    seen = set()
    parts = {}
    for n in range(1, n_max + 1):
        factors = factor_fp(term(params, n)).factors
        part = Poly.one(params.field)
        for q, e in factors:
            if q.coeffs not in seen:
                part = part * q**e
        parts[n] = part
        seen.update(q.coeffs for q, _ in factors)
    return parts


class TestGcdTable:
    @given(data=st.data())
    def test_stripping_against_the_table_is_exact(self, data):
        field = data.draw(st.sampled_from([F2, F3, F5, Q]))
        kind = data.draw(st.sampled_from(list(SeqKind)))
        a = data.draw(poly_strategy(field, 2, nonzero=True))
        b = data.draw(poly_strategy(field, 2, nonzero=True))
        try:
            fresh = validate(kind, field, a, b)
        except ValidationError:
            assume(False)
        filled = validate(kind, field, a, b)
        n_max = 10
        m_max = data.draw(st.integers(1, n_max))  # below n_max the table is partial
        for m in range(1, m_max + 1):
            for n in range(m, n_max + 1):
                strong_div_check(filled, m, n)
        plain = [primitive_part(fresh, n) for n in range(1, n_max + 1)]
        assert not fresh._gcd  # primitive_part reads the table, never fills it
        assert [primitive_part(filled, n) for n in range(1, n_max + 1)] == plain
        if field.char:
            parts = primitive_parts_factored(fresh, n_max)
            assert [r.primitive_part for r in plain] == [parts[n] for n in range(1, n_max + 1)]

    def test_keys_are_ordered_pairs(self):
        params = mk("lehmer", F5, "x^2+1", "x")
        assert coprime_pair_check(params, 3, 2)
        assert strong_div_check(params, 6, 4)
        assert set(params._gcd) == {(2, 3), (4, 6)}
        assert params._gcd[(4, 6)] == poly_gcd(term(params, 4), term(params, 6)).monic()


class TestTermDivisors:
    def test_fp_lists_all(self):
        params = mk("lucas", F5, "x", "1")
        divs = term_divisors(params, 6)
        t = term(params, 6)
        assert divs
        for q in divs:
            _, r = divmod(t, q)
            assert r.is_zero()

    def test_q_lists_low_degree(self):
        params = mk("lucas", Q, "x", "1")
        divs = term_divisors(params, 6)
        names = {str(q) for q in divs}
        assert names == {"x", "x-1", "x+1", "x^2-3"}
