import dataclasses
import json

import pytest

from seqdiv import verifier
from seqdiv.cli import main
from seqdiv.coeff import PRIME_BOUND, PrimeField, Rationals
from seqdiv.errors import ConfigInvalid, OracleMismatch
from seqdiv.polyring import Poly, parse_poly
from seqdiv.sequences import SeqKind
from seqdiv.verifier import (
    ALL_CHECKS,
    MAX_COUNT,
    MAX_TERM_DEGREE,
    MAX_TERM_INDEX,
    CampaignConfig,
    Exhaustive,
    Random,
    enumerate_params,
    load_config,
    parse_config,
    render_report,
    run_campaign,
)

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def config(**overrides):
    base = dict(
        field=F2,
        kinds=(SeqKind.POWER,),
        max_param_degree=1,
        enumeration=Exhaustive(),
        n_max=6,
        m_max=6,
        checks=("strong_div",),
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestConfigValidation:
    def test_exhaustive_needs_small_prime_field(self):
        with pytest.raises(ConfigInvalid):
            enumerate_params(config(field=Q))
        with pytest.raises(ConfigInvalid):
            enumerate_params(config(field=PrimeField(11)))
        with pytest.raises(ConfigInvalid):
            enumerate_params(config(max_param_degree=4))

    def test_kind_and_check_lists(self):
        with pytest.raises(ConfigInvalid):
            enumerate_params(config(kinds=()))
        with pytest.raises(ConfigInvalid):
            enumerate_params(config(checks=()))
        with pytest.raises(ConfigInvalid):
            enumerate_params(config(checks=("strong_div", "nonsense")))

    def test_primitive_checks_need_indices(self):
        with pytest.raises(ConfigInvalid):
            enumerate_params(config(checks=("zsigmondy",), n_max=2))
        with pytest.raises(ConfigInvalid):
            enumerate_params(config(checks=("primitive_part_phi",), n_max=2))

    def test_bad_enumeration(self):
        with pytest.raises(ConfigInvalid):
            enumerate_params(config(enumeration=None))
        with pytest.raises(ConfigInvalid):
            enumerate_params(config(enumeration=Random(count=0, seed=1)))

    def test_empty_explicit_params(self):
        with pytest.raises(ConfigInvalid):
            enumerate_params(config(params=()))

    def test_explicit_params_skip_enumeration_rules(self):
        # a rationals field with no enumeration strategy is fine as long as
        # the pairs are given explicitly
        pair = (parse_poly(Q, "x"), parse_poly(Q, "1"))
        cfg = config(field=Q, kinds=(SeqKind.LUCAS,), enumeration=None, params=(pair,))
        admitted, rejected = enumerate_params(cfg)
        assert len(admitted) == 1 and rejected == 0

    def test_explicit_params_count_rejections(self):
        pairs = (
            (parse_poly(Q, "x"), parse_poly(Q, "1")),
            (parse_poly(Q, "x"), parse_poly(Q, "x")),  # not coprime
        )
        cfg = config(field=Q, kinds=(SeqKind.LUCAS,), enumeration=None, params=pairs)
        admitted, rejected = enumerate_params(cfg)
        assert len(admitted) == 1 and rejected == 1

    def test_repeated_kind_or_check_is_named(self):
        # the parsers drop repeats; a library config that repeats one is refused
        with pytest.raises(ConfigInvalid, match="repeated kind 'power'"):
            run_campaign(config(kinds=(SeqKind.POWER, SeqKind.LUCAS, SeqKind.POWER)))
        with pytest.raises(ConfigInvalid, match="repeated check 'strong_div'"):
            run_campaign(config(checks=("strong_div", "zsigmondy", "strong_div")))

    @pytest.mark.parametrize(
        "overrides,key",
        [
            ({"field": "F_5"}, "field"),
            ({"kinds": ("power",)}, "kind"),
            ({"max_param_degree": -1}, "max_param_degree"),
            ({"n_max": 0}, "n_max"),
            ({"enumeration": None, "params": ((parse_poly(F5, "x"), parse_poly(F5, "1")),)},
             "params"),
        ],
        ids=["field", "kind", "degree", "n_max", "params-field"],
    )
    def test_library_config_values_are_named(self, overrides, key):
        with pytest.raises(ConfigInvalid, match=key):
            enumerate_params(config(**overrides))

    def test_explicit_params_degree_is_capped(self):
        # the cap holds for every pair, whatever max_param_degree says
        def cfg(b):
            pair = (parse_poly(Q, "x+1"), parse_poly(Q, b))
            return config(field=Q, kinds=(SeqKind.LUCAS,), enumeration=None, params=(pair,))

        assert len(enumerate_params(cfg("x^32"))[0]) == 1
        with pytest.raises(ConfigInvalid, match="params degree must be at most 32, got 33"):
            enumerate_params(cfg("x^33"))

    def test_random_count_is_capped(self):
        verifier.validate_config(config(enumeration=Random(count=MAX_COUNT, seed=0)))
        with pytest.raises(ConfigInvalid, match=f"count must be at most {MAX_COUNT}, got 1001"):
            verifier.validate_config(config(enumeration=Random(count=MAX_COUNT + 1, seed=0)))

    def test_random_needs_a_positive_degree(self):
        # at degree 0 every draw is two constants, which validate() rejects
        for field in (F5, Q):
            cfg = config(field=field, max_param_degree=0, enumeration=Random(count=10, seed=0))
            with pytest.raises(ConfigInvalid, match="needs max_param_degree >= 1, got 0"):
                verifier.validate_config(cfg)
        # an exhaustive walk at degree 0 is still allowed; it admits nothing
        assert enumerate_params(config(field=F5, max_param_degree=0)) == ([], 4)

    def test_random_enumeration_beside_params_is_refused(self):
        pair = (parse_poly(Q, "x"), parse_poly(Q, "1"))
        explicit = dict(field=Q, kinds=(SeqKind.LUCAS,), params=(pair,))
        with pytest.raises(ConfigInvalid, match="enumeration"):
            enumerate_params(config(enumeration=Random(count=0, seed=1), **explicit))
        for enumeration in (Exhaustive(), None):
            assert len(enumerate_params(config(enumeration=enumeration, **explicit))[0]) == 1

    @pytest.mark.parametrize(
        "field,checks,n_max,m_max,reach",
        [
            (Q, ("valuation_stability",), 100, 20, 2000),
            (Q, ("valuation_stability",), 100, 21, 2100),
            (F3, ("valuation_stability",), 100, 21, 2000),  # m = 21 is skipped over F_3
            (Q, ("index_scaled_coprime",), 3, 44, 1849),
            (Q, ("index_scaled_coprime",), 3, 45, 2025),
            (Q, ALL_CHECKS, 12, 12, 144),
            (Q, ALL_CHECKS, 100, 100, 10000),
        ],
    )
    def test_lehmer_term_reach_is_capped(self, field, checks, n_max, m_max, reach):
        pair = (parse_poly(field, "x^2+1"), parse_poly(field, "x"))
        cfg = config(field=field, kinds=(SeqKind.LEHMER,), enumeration=None, params=(pair,),
                     checks=checks, n_max=n_max, m_max=m_max)
        if reach <= MAX_TERM_INDEX:
            assert len(enumerate_params(cfg)[0]) == 1
        else:
            with pytest.raises(ConfigInvalid, match=f"n_max = {n_max} and m_max = {m_max} "
                               f"reach must be at most {MAX_TERM_INDEX}, got {reach}"):
                enumerate_params(cfg)
        # the other kinds compute no term beyond n_max
        lucas = dataclasses.replace(cfg, kinds=(SeqKind.LUCAS,))
        assert len(enumerate_params(lucas)[0]) == 1

    @pytest.mark.parametrize("pairs", ["params = x^32+x+1,x", "max_param_degree = 32\n"
                                       "enumeration = random:1:0"], ids=["params", "random"])
    @pytest.mark.parametrize("m_max,degree", [(25, 4000), (26, 4160)])
    def test_lehmer_term_degree_is_capped(self, pairs, m_max, degree):
        # term(n_max * m_max) of a degree-32 pair has degree up to 32 n_max m_max
        text = (f"field = q\nkinds = lehmer\nchecks = valuation_stability\n{pairs}\n"
                f"n_max = 5\nm_max = {m_max}\n")
        if degree <= MAX_TERM_DEGREE:
            assert parse_config(text).m_max == m_max
        else:
            with pytest.raises(ConfigInvalid, match=f"term degree that n_max = 5 and m_max = "
                               f"{m_max} reach at parameter degree 32 must be at most "
                               f"{MAX_TERM_DEGREE}, got {degree}"):
                parse_config(text)


class TestEnumeration:
    def test_f2_power_degree_one_frozen(self):
        admitted, rejected = enumerate_params(config())
        pairs = {(str(p.a), str(p.b)) for p in admitted}
        assert pairs == {
            ("1", "x"),
            ("1", "x+1"),
            ("x", "1"),
            ("x", "x+1"),
            ("x+1", "1"),
            ("x+1", "x"),
        }
        assert rejected == 3

    def test_lehmer_first_parameter_lead_classes(self):
        cfg = config(field=F5, kinds=(SeqKind.LEHMER,), checks=("strong_div",))
        admitted, _ = enumerate_params(cfg)
        leads = {p.a.lc() for p in admitted}
        assert leads == {1, 2}  # 2 is the smallest non-square mod 5

    def test_monic_first_parameter_for_other_kinds(self):
        for kind in (SeqKind.POWER, SeqKind.LUCAS):
            cfg = config(field=F5, kinds=(kind,))
            admitted, _ = enumerate_params(cfg)
            assert all(p.a.lc() == 1 for p in admitted)

    def test_random_is_seeded_and_deduplicated(self):
        cfg = config(
            field=Q,
            kinds=(SeqKind.LUCAS, SeqKind.LEHMER),
            enumeration=Random(count=7, seed=42),
            max_param_degree=2,
        )
        first, _ = enumerate_params(cfg)
        second, _ = enumerate_params(cfg)
        assert [(str(p.a), str(p.b)) for p in first] == [
            (str(p.a), str(p.b)) for p in second
        ]
        assert len(first) == 14
        per_kind = {}
        for p in first:
            per_kind.setdefault(p.kind, set()).add((str(p.a), str(p.b)))
        assert all(len(v) == 7 for v in per_kind.values())

    def test_random_redraws_until_every_pair_is_admitted(self, monkeypatch):
        # F_2 at degree 1 has exactly 6 admissible power pairs; asking for 6
        # forces repeated draws, which are skipped, not admitted twice
        draws = []
        original = verifier._random_poly
        monkeypatch.setattr(
            verifier, "_random_poly", lambda *args: draws.append(1) or original(*args)
        )
        cfg = config(enumeration=Random(count=6, seed=0))
        admitted, rejected = enumerate_params(cfg)
        assert [(str(p.a), str(p.b)) for p in admitted] == [
            ("x+1", "1"),
            ("1", "x+1"),
            ("x", "1"),
            ("1", "x"),
            ("x", "x+1"),
            ("x+1", "x"),
        ]
        assert rejected == 18
        assert len(draws) == 2 * 30  # 30 attempts: 6 admitted, 18 rejected, 6 repeats

    def test_random_rejection_rate_refusal(self, monkeypatch):
        # a generator that draws only constants gets every pair rejected
        monkeypatch.setattr(verifier, "_random_poly", lambda field, max_deg, rng: Poly.one(field))
        cfg = config(field=F5, enumeration=Random(count=1, seed=0))
        with pytest.raises(ConfigInvalid, match="rejection rate"):
            enumerate_params(cfg)

    def test_f2_lehmer_exhaustive_frozen(self):
        # over F_2 the only lead class is 1
        admitted, rejected = enumerate_params(config(kinds=(SeqKind.LEHMER,)))
        assert [(str(p.a), str(p.b)) for p in admitted] == [
            ("1", "x"),
            ("1", "x+1"),
            ("x", "1"),
            ("x", "x+1"),
            ("x+1", "1"),
            ("x+1", "x"),
        ]
        assert rejected == 3

    def test_random_seeds_differ(self):
        def draw(seed):
            cfg = config(
                field=F5,
                kinds=(SeqKind.POWER,),
                enumeration=Random(count=10, seed=seed),
                max_param_degree=2,
            )
            admitted, _ = enumerate_params(cfg)
            return [(str(p.a), str(p.b)) for p in admitted]

        assert draw(1) != draw(2)


class TestCampaigns:
    def test_clean_power_campaign(self):
        cfg = config(checks=("strong_div", "zsigmondy", "primitive_part_phi"))
        report = run_campaign(cfg)
        assert report.ok
        assert report.params_admitted == 6
        assert report.cases_run > 0
        assert report.cases_passed == report.cases_run

    def test_unit_collapse_failures_f3(self):
        # twelve lehmer pairs at degree <= 1 over F_3 have a - 2b equal to
        # a nonzero constant, so their fourth term is a unit and the
        # primitive-divisor claim fails there (and only there)
        cfg = config(
            field=F3,
            kinds=(SeqKind.LEHMER,),
            checks=("zsigmondy",),
            n_max=8,
            m_max=8,
        )
        report = run_campaign(cfg)
        assert not report.ok
        assert len(report.failures) == 12
        for f in report.failures:
            assert f.kind == "lehmer"
            assert f.check == "zsigmondy"
            assert f.indices == {"n": 4}
            a = parse_poly(F3, f.a)
            b = parse_poly(F3, f.b)
            u4 = a - b - b
            assert u4.degree == 0 and not u4.is_zero()

    def test_campaign_is_deterministic(self):
        cfg = config(
            field=F3,
            kinds=(SeqKind.LEHMER,),
            checks=("zsigmondy",),
            n_max=8,
            m_max=8,
        )
        first = run_campaign(cfg).to_json()
        second = run_campaign(cfg).to_json()
        first.pop("wall_time")
        second.pop("wall_time")
        assert first == second

    def test_include_excluded_sabotage(self):
        pair = (parse_poly(F2, "x+1"), parse_poly(F2, "x"))
        base = config(enumeration=None, params=(pair,), checks=("zsigmondy",))
        assert run_campaign(base).ok
        sabotaged = config(
            enumeration=None,
            params=(pair,),
            checks=("zsigmondy",),
            include_excluded=True,
        )
        report = run_campaign(sabotaged)
        assert not report.ok
        assert {(f.check, f.indices["n"]) for f in report.failures} == {
            ("zsigmondy", 4),
            ("zsigmondy", 6),
        }

    def test_check_order_does_not_change_results(self):
        # strong_div first fills the gcd table that primitive_part then
        # reads; zsigmondy first strips against the full terms.  m_max below
        # n_max leaves the table partial.
        def run(checks):
            report = run_campaign(
                config(field=F3, kinds=(SeqKind.LEHMER,), checks=checks, n_max=8, m_max=5)
            )
            failures = sorted(json.dumps(f.to_json(), sort_keys=True) for f in report.failures)
            return report.cases_run, report.cases_passed, failures

        zs_first = run(("zsigmondy", "strong_div"))
        assert zs_first == run(("strong_div", "zsigmondy"))
        assert len(zs_first[2]) == 12

    def test_all_checks_smoke(self):
        # parameters of distinct degrees so no term collapses to a unit
        pair = (parse_poly(F5, "x^2+1"), parse_poly(F5, "x"))
        cfg = config(
            field=F5,
            kinds=(SeqKind.LUCAS, SeqKind.LEHMER),
            enumeration=None,
            params=(pair,),
            checks=ALL_CHECKS,
            n_max=8,
            m_max=6,
        )
        report = run_campaign(cfg)
        assert report.ok
        assert report.params_admitted == 2

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    @pytest.mark.parametrize("kind,per_n", [(SeqKind.POWER, 1), (SeqKind.LEHMER, 2)])
    def test_oracle_equivalence_at_small_n_max(self, kind, per_n, n_max):
        # lehmer runs the tower oracle and the factored primitive part per
        # index, power only the latter
        pair = (parse_poly(F3, "x+1"), parse_poly(F3, "x"))
        cfg = config(
            field=F3,
            kinds=(kind,),
            enumeration=None,
            params=(pair,),
            checks=("oracle_equivalence",),
            n_max=n_max,
            m_max=n_max,
        )
        report = run_campaign(cfg)
        assert report.cases_run == per_n * n_max
        assert report.failures == []


class TestConfigParsing:
    FLAT = """
    # campaign description
    field = fp
    p = 3
    kinds = lehmer
    checks = zsigmondy, strong_div
    enumeration = exhaustive
    max_param_degree = 1
    n_max = 8
    m_max = 8
    """

    JSON_DOC = json.dumps(
        {
            "field": {"type": "fp", "p": 3},
            "kinds": ["lehmer"],
            "checks": ["zsigmondy", "strong_div"],
            "enumeration": {"type": "exhaustive"},
            "max_param_degree": 1,
            "n_max": 8,
            "m_max": 8,
        }
    )

    def test_null_enumeration_only_beside_params(self):
        doc = {"field": {"type": "q"}, "kinds": ["lucas"], "checks": ["all"], "enumeration": None}
        with pytest.raises(ConfigInvalid, match="null beside params"):
            parse_config(json.dumps(doc))
        cfg = parse_config(json.dumps({**doc, "params": [["x", "1"]]}))
        assert cfg.enumeration is None and cfg.to_json()["enumeration"] is None

    def test_flat_equals_json(self):
        assert parse_config(self.FLAT) == parse_config(self.JSON_DOC)

    def test_checks_all_expands(self):
        cfg = parse_config(
            '{"field": {"type": "fp", "p": 2}, "kinds": ["power"],'
            ' "checks": ["all", "zsigmondy"], "max_param_degree": 1}'
        )
        assert cfg.checks == ALL_CHECKS

    def test_repeated_kinds_and_checks_run_once(self):
        """A kind or check named again keeps its first place and runs once."""
        json_cfg = parse_config(
            '{"field": {"type": "fp", "p": 3}, "kinds": ["power", "lucas", "power"],'
            ' "checks": ["strong_div", "zsigmondy", "strong_div"], "max_param_degree": 1}'
        )
        flat_cfg = parse_config(
            "field = fp\np = 3\nkinds = power, lucas, power\n"
            "checks = strong_div, zsigmondy, strong_div\nmax_param_degree = 1\n"
        )
        for cfg in (json_cfg, flat_cfg):
            assert cfg.kinds == (SeqKind.POWER, SeqKind.LUCAS)
            assert cfg.checks == ("strong_div", "zsigmondy")
        doc = {"field": {"type": "fp", "p": 3}, "checks": ["all"], "max_param_degree": 1}
        once = run_campaign(parse_config(json.dumps({**doc, "kinds": ["power"]})))
        twice = run_campaign(parse_config(json.dumps({**doc, "kinds": ["power", "power"]})))
        assert (twice.params_admitted, twice.cases_run) == (once.params_admitted, once.cases_run)

    def test_random_shorthand(self):
        cfg = parse_config(
            "field = q\nkinds = lucas\nchecks = strong_div\n"
            "enumeration = random:5:42\nmax_param_degree = 2\n"
        )
        assert cfg.enumeration == Random(count=5, seed=42)

    @pytest.mark.parametrize(
        "text",
        [
            "enumeration = random:1001:0",
            '{"type": "random", "count": 1001, "seed": 0}',
        ],
        ids=["flat", "json"],
    )
    def test_random_count_above_the_cap_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "c.cfg"
        if text.startswith("{"):
            doc = json.loads(self.JSON_DOC)
            doc["enumeration"] = json.loads(text)
            path.write_text(json.dumps(doc), encoding="utf-8")
        else:
            path.write_text("field = fp\np = 3\nkinds = power\nchecks = all\n" + text + "\n")
        assert main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"ConfigInvalid: count must be at most {MAX_COUNT}, got 1001\n"

    @pytest.mark.parametrize("fmt", ["json", "flat"])
    def test_random_enumeration_beside_params_exits_2(self, tmp_path, capsys, fmt):
        path = tmp_path / "c.cfg"
        if fmt == "json":
            doc = {"field": {"type": "q"}, "kinds": ["lucas"], "checks": ["all"],
                   "enumeration": {"type": "random", "count": 0, "seed": 1}, "params": [["x", "1"]]}
            path.write_text(json.dumps(doc), encoding="utf-8")
        else:
            path.write_text("field = q\nkinds = lucas\nchecks = all\nenumeration = random:3:1\n"
                            "params = x,1\n")
        assert main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("ConfigInvalid: enumeration")

    def test_params_shorthand_trailing_semicolon(self):
        cfg = parse_config("field = q\nkinds = lucas\nchecks = strong_div\nparams = x,1;\n")
        assert [tuple(map(str, pair)) for pair in cfg.params] == [("x", "1")]

    def test_params_shorthand(self):
        cfg = parse_config(
            "field = q\nkinds = lucas\nchecks = strong_div\n"
            "params = x,1; x^2+1,x\n"
        )
        assert cfg.params is not None and len(cfg.params) == 2
        assert str(cfg.params[1][0]) == "x^2+1"

    @pytest.mark.parametrize(
        "text,key",
        [
            (JSON_DOC.replace('"lehmer"', '"sideways"'), "kind"),
            (JSON_DOC.replace('"zsigmondy"', '"bogus"'), "check"),
            (JSON_DOC.replace('"n_max"', '"params": [["x+", "1"]], "n_max"'), "params"),
            (JSON_DOC.replace('{"type": "fp", "p": 3}', '"fp"'), "field"),
            (JSON_DOC.replace('"exhaustive"', '"sideways"'), "enumeration"),
            (FLAT.replace("= exhaustive", "= sideways"), "enumeration"),
        ],
        ids=["json-kind", "json-check", "json-params", "json-field", "json-enumeration",
             "flat-enumeration"],
    )
    def test_bad_values_are_named(self, text, key):
        assert text not in (self.FLAT, self.JSON_DOC)
        with pytest.raises(ConfigInvalid, match=key):
            parse_config(text)

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '{"field": {"type": "fp", "p": 4}, "kinds": ["power"], "checks": ["all"]}',
            '{"field": {"type": "elliptic"}, "kinds": ["power"], "checks": ["all"]}',
            '{"field": {"type": "q"}, "kinds": ["power"], "checks": ["all"], "extra": 1}',
            '{"field": {"type": "fp", "p": 2}, "kinds": ["power"], "checks": ["all"], "enumeration": {"type": "random"}}',
            "field = fp\nkinds = power\nchecks = all\n",  # fp without p
            "field = q\nkinds = power\nchecks = all\nenumeration = random:5\n",
            "no equals sign here",
        ],
    )
    def test_rejected_configs(self, text):
        with pytest.raises(ConfigInvalid):
            parse_config(text)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("include_excluded", "false"),
            ("include_excluded", 0),
            ("include_excluded", None),
            ("n_max", 12.9),
            ("n_max", "8"),
            ("n_max", True),
            ("m_max", 8.0),
            ("max_param_degree", "1"),
            ("max_param_degree", False),
        ],
    )
    def test_json_values_must_have_their_json_type(self, key, value):
        doc = json.loads(self.JSON_DOC)
        doc[key] = value
        with pytest.raises(ConfigInvalid):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "enumeration",
        [
            {"type": "random", "count": "5", "seed": 1},
            {"type": "random", "count": 5.0, "seed": 1},
            {"type": "random", "count": True, "seed": 1},
            {"type": "random", "count": 5, "seed": "1"},
            {"type": "random", "count": 5, "seed": 1.5},
        ],
    )
    def test_json_random_enumeration_needs_integers(self, enumeration):
        doc = json.loads(self.JSON_DOC)
        doc["enumeration"] = enumeration
        with pytest.raises(ConfigInvalid):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("kinds", 5),
            ("kinds", "lehmer"),
            ("kinds", [["lehmer"]]),
            ("checks", 7),
            ("checks", "all"),
            ("checks", [None]),
            ("params", 5),
            ("params", "x,1"),
            ("params", ["x1"]),
            ("params", [["x", 5]]),
            ("params", [["x"]]),
            ("params", [["x", "1", "2"]]),
            ("params", [{"a": "x", "b": "1"}]),
        ],
    )
    def test_json_lists_must_hold_strings(self, key, value):
        doc = json.loads(self.JSON_DOC)
        doc[key] = value
        with pytest.raises(ConfigInvalid):
            parse_config(json.dumps(doc))

    def test_json_params_pairs_accepted(self):
        doc = json.loads(self.JSON_DOC)
        doc["params"] = [["x", "1"], ["x^2+1", "x"]]
        cfg = parse_config(json.dumps(doc))
        assert [(str(a), str(b)) for a, b in cfg.params] == [("x", "1"), ("x^2+1", "x")]

    @pytest.mark.parametrize("p", ["3", 3.0, True])
    def test_json_p_must_be_an_integer(self, p):
        doc = json.loads(self.JSON_DOC)
        doc["field"]["p"] = p
        with pytest.raises(ConfigInvalid):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "text,key",
        [
            (FLAT + "n_mx = 20\n", "n_mx"),
            (FLAT + "n_max = 9\n", "n_max"),
            (FLAT.replace("fp", "q"), "p"),
            (JSON_DOC.replace('"p": 3', '"p": 3, "q": 1'), "q"),
            (JSON_DOC.replace('"type": "fp"', '"type": "q"'), "p"),
            (JSON_DOC.replace('"type": "exhaustive"', '"type": "random", "count": 2, "sed": 5'), "sed"),
            (JSON_DOC.replace('"type": "exhaustive"', '"type": "exhaustive", "count": 2'), "count"),
            (JSON_DOC.replace('"n_max": 8', '"n_max": 8, "n_max": 9'), "n_max"),
        ],
        ids=[
            "flat-unknown", "flat-repeated", "flat-p-without-fp", "json-field-extra",
            "json-p-without-fp", "json-enumeration-typo", "json-exhaustive-count", "json-repeated",
        ],
    )
    def test_unknown_and_repeated_keys_are_named(self, text, key):
        assert text not in (self.FLAT, self.JSON_DOC)
        with pytest.raises(ConfigInvalid, match=repr(key)):
            parse_config(text)

    def test_json_include_excluded_boolean(self):
        doc = json.loads(self.JSON_DOC)
        doc["include_excluded"] = True
        assert parse_config(json.dumps(doc)).include_excluded is True

    @pytest.mark.parametrize(
        "line",
        [
            "include_excluded = flase",
            "include_excluded = ",
            "n_max = 12.9",
            "n_max = 1_0",
            "m_max = eight",
            "max_param_degree = 1.0",
            "p = 3.0",
            "enumeration = random:5.5:1",
            "enumeration = random:5:x",
        ],
    )
    def test_flat_values_parse_strictly(self, line):
        with pytest.raises(ConfigInvalid):
            parse_config(self.FLAT + line + "\n")

    @pytest.mark.parametrize(
        "text,expected",
        [("true", True), ("Yes", True), ("1", True), ("false", False), ("NO", False), ("0", False)],
    )
    def test_flat_include_excluded_words(self, text, expected):
        cfg = parse_config(self.FLAT + f"include_excluded = {text}\n")
        assert cfg.include_excluded is expected

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        doc = json.loads(self.JSON_DOC)
        doc["include_excluded"] = "false"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("ConfigInvalid:")

    def test_modulus_above_the_primality_bound_exits_2(self, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        doc = json.loads(self.JSON_DOC)
        doc["field"]["p"] = 2**89 - 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid:") and str(PRIME_BOUND) in err

    def test_load_config(self, tmp_path):
        path = tmp_path / "campaign.cfg"
        path.write_text(self.FLAT, encoding="utf-8")
        assert load_config(path) == parse_config(self.JSON_DOC)

    def test_config_json_round_trip(self):
        cfg = parse_config(self.JSON_DOC)
        doc = cfg.to_json()
        assert doc["field"] == {"type": "fp", "p": 3}
        assert doc["kinds"] == ["lehmer"]
        assert doc["enumeration"] == {"type": "exhaustive"}
        again = parse_config(json.dumps(doc))
        assert again == cfg

    def test_explicit_params_serialize_without_enumeration(self):
        pair = (parse_poly(Q, "x"), parse_poly(Q, "1"))
        cfg = config(field=Q, kinds=(SeqKind.LUCAS,), enumeration=None, params=(pair,))
        doc = cfg.to_json()
        assert doc["enumeration"] is None
        assert doc["params"] == [["x", "1"]]


class TestReporting:
    def test_render_pass(self):
        report = run_campaign(config())
        text = render_report(report)
        assert text.splitlines()[-1] == "result: PASS"
        assert "params: 6 admitted, 3 rejected" in text

    def test_render_fail_lists_cases(self):
        cfg = config(
            field=F3,
            kinds=(SeqKind.LEHMER,),
            checks=("zsigmondy",),
            n_max=8,
            m_max=8,
        )
        text = render_report(run_campaign(cfg))
        assert text.splitlines()[-1] == "result: FAIL"
        assert text.count("FAIL lehmer") == 12
        assert "[n=4]" in text

    def test_report_json_shape(self):
        report = run_campaign(config())
        doc = report.to_json()
        assert set(doc) == {
            "config",
            "params_admitted",
            "params_rejected",
            "cases_run",
            "cases_passed",
            "failures",
            "wall_time",
        }
        assert doc["failures"] == []
        assert doc["cases_run"] == doc["cases_passed"]

    def test_failure_json_shape(self):
        cfg = config(
            field=F3,
            kinds=(SeqKind.LEHMER,),
            checks=("zsigmondy",),
            n_max=8,
            m_max=8,
        )
        doc = run_campaign(cfg).to_json()
        failure = doc["failures"][0]
        assert set(failure) == {"kind", "a", "b", "check", "indices", "detail"}
        assert json.loads(json.dumps(doc)) == doc


class TestFailureRecords:
    """The failure records a campaign writes when a check says no."""

    PAIR = (parse_poly(F3, "x+1"), parse_poly(F3, "x"))

    def lucas(self, checks):
        return config(
            field=F3, kinds=(SeqKind.LUCAS,), enumeration=None, params=(self.PAIR,), checks=checks
        )

    def test_strong_div_detail(self, monkeypatch):
        monkeypatch.setattr(verifier, "strong_div_check", lambda p, m, n: (m, n) != (2, 4))
        report = run_campaign(self.lucas(("strong_div",)))
        assert [f.to_json() for f in report.failures] == [
            {
                "kind": "lucas",
                "a": "x+1",
                "b": "x",
                "check": "strong_div",
                "indices": {"m": 2, "n": 4},
                "detail": "gcd(term(2), term(4)) = x+1 but term(2) = x+1",
            }
        ]
        assert report.cases_run == report.cases_passed + 1 == 21

    def test_primitive_part_phi_detail(self, monkeypatch):
        original = verifier.zsigmondy_check

        def reports(params, n_max):
            # the report holds no verdict: the check must find the bad part itself
            return [
                dataclasses.replace(r, primitive_part=Poly.one(F3)) if r.n == 5 else r
                for r in original(params, n_max)
            ]

        monkeypatch.setattr(verifier, "zsigmondy_check", reports)
        report = run_campaign(self.lucas(("primitive_part_phi",)))
        [failure] = report.failures
        assert (failure.check, failure.indices) == ("primitive_part_phi", {"n": 5})
        assert failure.detail == "primitive part = 1, cyclotomic value = x^4+x^3+x^2+x+1"

    def test_oracle_mismatch_is_recorded(self, monkeypatch):
        original = verifier.oracle_term

        def oracle(params, n):
            if n == 3:
                raise OracleMismatch("tower element is not a scalar multiple")
            return original(params, n)

        monkeypatch.setattr(verifier, "oracle_term", oracle)
        report = run_campaign(self.lucas(("oracle_equivalence",)))
        [failure] = report.failures
        assert failure.to_json() == {
            "kind": "lucas",
            "a": "x+1",
            "b": "x",
            "check": "oracle_equivalence",
            "indices": {"n": 3},
            "detail": "tower element is not a scalar multiple",
        }

    def test_memory_error_gives_a_partial_report(self, monkeypatch):
        def runner(params, config, ctx):
            yield {"n": 1}, True, ""
            raise MemoryError

        monkeypatch.setitem(verifier._RUNNERS, "strong_div", runner)
        report = run_campaign(self.lucas(("strong_div",)))
        assert (report.cases_run, report.cases_passed) == (1, 1)
        assert [f.to_json() for f in report.failures] == [
            {
                "kind": "-",
                "a": "-",
                "b": "-",
                "check": "resource",
                "indices": {},
                "detail": "memory limit reached; report is partial",
            }
        ]
        lines = render_report(report).splitlines()
        assert "FAIL - a=- b=- resource [] memory limit reached; report is partial" in lines
        assert lines[-1] == "result: FAIL"

    def test_render_caps_the_failure_lines(self, monkeypatch):
        # 6 pairs x 21 strong_div cases, every one failing
        monkeypatch.setattr(verifier, "strong_div_check", lambda p, m, n: False)
        report = run_campaign(config())
        assert len(report.failures) == 126
        lines = render_report(report).splitlines()
        assert sum(line.startswith("FAIL ") for line in lines) == 50
        assert lines[-2:] == ["... and 76 more failures", "result: FAIL"]
