import json

import pytest

from seqdiv import verifier
from seqdiv.cli import build_parser, main
from seqdiv.coeff import PrimeField
from seqdiv.polyring import parse_poly
from seqdiv.verifier import MAX_INDEX, MAX_PARAM_DEGREE

F5 = PrimeField(5)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_lucas_terms(self, capsys):
        code, out, err = run(
            capsys, "gen", "--kind", "lucas", "--field", "q", "--a", "x",
            "--b", "1", "--n", "5",
        )
        assert code == 0 and err == ""
        assert out.splitlines() == ["1", "x", "x^2-1", "x^3-2*x", "x^4-3*x^2+1"]

    def test_power_collapse_f3(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--kind", "power", "--field", "fp", "--p", "3",
            "--a", "x+1", "--b", "x", "--n", "3",
        )
        assert code == 0
        assert out.splitlines() == ["1", "2*x+1", "1"]

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--kind", "lehmer", "--field", "fp", "--p", "5",
            "--a", "x^2+1", "--b", "x", "--n", "4", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "kind": "lehmer",
            "field": {"type": "fp", "p": 5},
            "params": {"a": "x^2+1", "b": "x"},
            "terms": ["1", "1", "x^2+4*x+1", "x^2+3*x+1"],
        }

    def test_rejects_inadmissible_pair(self, capsys):
        code, out, err = run(
            capsys, "gen", "--kind", "power", "--field", "fp", "--p", "5",
            "--a", "2*x", "--b", "x", "--n", "3",
        )
        assert code == 2 and out == ""
        assert err.startswith("RatioRootOfUnity:")

    def test_rejects_nonpositive_n(self, capsys):
        code, _, err = run(
            capsys, "gen", "--kind", "lucas", "--field", "q", "--a", "x",
            "--b", "1", "--n", "0",
        )
        assert code == 2
        assert err.startswith("ConfigInvalid:")

    def test_rejects_p_without_fp(self, capsys):
        code, _, err = run(
            capsys, "gen", "--kind", "lucas", "--field", "q", "--p", "5",
            "--a", "x", "--b", "1", "--n", "2",
        )
        assert code == 2
        assert err.startswith("ConfigInvalid:")

    def test_wide_prime_modulus(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--kind", "lucas", "--field", "fp", "--p", str(2**61 - 1),
            "--a", "x", "--b", "1", "--n", "3",
        )
        assert code == 0 and out.splitlines() == ["1", "x", "x^2+2305843009213693950"]

    def test_modulus_above_the_primality_bound_exits_2(self, capsys):
        code, out, err = run(
            capsys, "gen", "--kind", "lucas", "--field", "fp", "--p", str(2**89 - 1),
            "--a", "x", "--b", "1", "--n", "3",
        )
        assert code == 2 and out == ""
        assert err.startswith("NotPrime:") and "3317044064679887385961981" in err

    def test_parse_error_is_reported(self, capsys):
        code, _, err = run(
            capsys, "gen", "--kind", "lucas", "--field", "q", "--a", "x^^2",
            "--b", "1", "--n", "2",
        )
        assert code == 2
        assert err.startswith("ParseError:")

    def test_exponent_above_cap_is_a_parse_error(self, capsys):
        code, out, err = run(
            capsys, "gen", "--kind", "lucas", "--field", "fp", "--p", "5",
            "--a", "x^1000000000", "--b", "1", "--n", "2",
        )
        assert code == 2 and out == ""
        assert err.startswith("ParseError:")


class TestPrimitive:
    def test_single_index_q(self, capsys):
        code, out, _ = run(
            capsys, "primitive", "--kind", "power", "--field", "q",
            "--a", "x+1", "--b", "x", "--n", "3",
        )
        assert code == 0
        assert out.strip() == (
            "n=3 term=3*x^2+3*x+1 primitive_part=x^2+x+1/3 "
            "has_primitive=true matches_phi=true excluded=false"
        )

    def test_collapsed_term_line(self, capsys):
        code, out, _ = run(
            capsys, "primitive", "--kind", "lehmer", "--field", "q",
            "--a", "x+1", "--b", "x", "--n", "3",
        )
        assert code == 0
        assert out.strip() == (
            "n=3 term=1 primitive_part=1 "
            "has_primitive=false matches_phi=true excluded=false"
        )

    def test_range_includes_primes_over_fp(self, capsys):
        code, out, _ = run(
            capsys, "primitive", "--kind", "power", "--field", "fp", "--p", "5",
            "--a", "x+1", "--b", "x", "--n-max", "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all("primitive_primes=" in line for line in lines)

    def test_primitive_primes_fp(self, capsys):
        code, out, _ = run(
            capsys, "primitive", "--kind", "lehmer", "--field", "fp", "--p", "5",
            "--a", "x+1", "--b", "x", "--n", "6", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        prod = parse_poly(F5, "1")
        for entry in doc["primitive_primes"]:
            prod = prod * parse_poly(F5, entry["factor"]) ** entry["exp"]
        assert str(prod.monic()) == doc["primitive_part"]

    def test_no_primitive_primes_over_q(self, capsys):
        base = [
            "primitive", "--kind", "lucas", "--field", "q",
            "--a", "x", "--b", "1", "--n", "4",
        ]
        code, out, _ = run(capsys, *base)
        assert code == 0 and "primitive_primes" not in out
        code, out, _ = run(capsys, *base, "--json")
        assert code == 0 and "primitive_primes" not in json.loads(out)

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "primitive", "--kind", "power", "--field", "fp", "--p", "3",
            "--a", "x+1", "--b", "x", "--n", "4", "--json",
        )
        assert code == 0
        assert list(json.loads(out)) == [
            "n",
            "term",
            "primitive_part",
            "has_primitive",
            "matches_phi",
            "excluded",
            "primitive_primes",
        ]

    def test_json_single_vs_range(self, capsys):
        _, single, _ = run(
            capsys, "primitive", "--kind", "lucas", "--field", "q",
            "--a", "x", "--b", "1", "--n", "6", "--json",
        )
        doc = json.loads(single)
        assert isinstance(doc, dict)
        assert doc["primitive_part"] == "x^2-3"
        assert "position" not in doc
        _, many, _ = run(
            capsys, "primitive", "--kind", "lucas", "--field", "q",
            "--a", "x", "--b", "1", "--n-max", "6", "--json",
        )
        docs = json.loads(many)
        assert isinstance(docs, list) and len(docs) == 6
        assert docs[5] == doc

    def test_exactly_one_index_flag(self, capsys):
        base = [
            "primitive", "--kind", "lucas", "--field", "q",
            "--a", "x", "--b", "1",
        ]
        code, _, err = run(capsys, *base)
        assert code == 2 and err.startswith("ConfigInvalid:")
        code, _, err = run(capsys, *base, "--n", "3", "--n-max", "6")
        assert code == 2 and err.startswith("ConfigInvalid:")

    def test_range_below_the_first_claim(self, capsys):
        base = [
            "primitive", "--kind", "power", "--field", "fp", "--p", "3",
            "--a", "x+1", "--b", "x",
        ]
        singles = []
        for n in ("1", "2"):
            code, out, _ = run(capsys, *base, "--n", n)
            assert code == 0
            singles.append(out.strip())
        code, out, _ = run(capsys, *base, "--n-max", "2")
        assert code == 0
        assert out.splitlines() == singles
        code, _, err = run(capsys, *base, "--n-max", "0")
        assert code == 2 and err.startswith("PreconditionViolated:")


class TestVerify:
    INLINE = [
        "verify", "--kind", "lucas", "--field", "q", "--a", "x", "--b", "1",
        "--n-max", "8", "--m-max", "8",
    ]

    def test_inline_pass(self, capsys):
        code, out, _ = run(capsys, *self.INLINE)
        assert code == 0
        assert out.splitlines()[-1] == "result: PASS"

    def test_inline_failure_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--kind", "lehmer", "--field", "q",
            "--a", "x+1", "--b", "x", "--n-max", "6", "--m-max", "6",
        )
        assert code == 1
        assert out.splitlines()[-1] == "result: FAIL"

    def test_sabotage_flag(self, capsys):
        base = [
            "verify", "--kind", "power", "--field", "fp", "--p", "2",
            "--a", "x+1", "--b", "x", "--n-max", "6", "--m-max", "6",
        ]
        code, _, _ = run(capsys, *base)
        assert code == 0
        code, out, _ = run(capsys, *base, "--include-excluded")
        assert code == 1
        assert "zsigmondy" in out

    def test_inline_rejects_bad_pair(self, capsys):
        code, _, err = run(
            capsys, "verify", "--kind", "lucas", "--field", "q",
            "--a", "x", "--b", "x",
        )
        assert code == 2
        assert err.startswith("NotCoprime:")

    def test_config_file(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "field = fp\np = 2\nkinds = power\nchecks = zsigmondy\n"
            "enumeration = exhaustive\nmax_param_degree = 1\nn_max = 6\nm_max = 6\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "verify", "--config", str(path))
        assert code == 0
        assert "params: 6 admitted, 3 rejected" in out

    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8", "too_deep", "too_big"])
    def test_unusable_config_file_exits_2(self, capsys, tmp_path, case):
        path = tmp_path / "c.json"
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(b"field = q\xff\n")
        elif case == "too_deep":
            path.write_text('{"kinds": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        elif case == "too_big":
            path.write_bytes(b" " * (verifier.MAX_CONFIG_BYTES + 1))
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("ConfigInvalid:")
        if case != "too_deep":  # json.loads, which knows no path, finds that one
            assert str(path) in err

    def test_explicit_params_report_their_largest_degree(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "field = q\nkinds = lucas\nchecks = strong_div\nparams = x^10+x+1,x\n"
            "n_max = 3\nm_max = 3\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "verify", "--config", str(path))
        assert code == 0
        assert out.splitlines()[0] == "campaign over Q | kinds: lucas | degree <= 10"

    @pytest.mark.parametrize(
        "key,value",
        [("kinds", 5), ("checks", 7), ("params", 5), ("params", [["x", 5]]), ("params", ["x1"])],
    )
    def test_json_config_list_of_wrong_shape_exits_2(self, capsys, tmp_path, key, value):
        doc = {"field": {"type": "q"}, "kinds": ["lucas"], "checks": ["strong_div"]}
        doc[key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("ConfigInvalid:")

    def test_config_and_inline_conflict(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("field = q\nkinds = lucas\nchecks = all\nparams = x,1\n")
        code, _, err = run(
            capsys, "verify", "--config", str(path), "--a", "x", "--b", "1",
        )
        assert code == 2 and err.startswith("ConfigInvalid:")

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--kind", "lucas"), ("--field", "q"), ("--p", "3"), ("--a", "x"), ("--b", "1"),
            ("--n-max", "9"), ("--m-max", "9"), ("--include-excluded", None),
        ],
    )
    def test_config_refuses_every_inline_flag(self, capsys, tmp_path, flag, value):
        path = tmp_path / "c.cfg"
        path.write_text("field = q\nkinds = lucas\nchecks = strong_div\nparams = x,1\n")
        given = [flag] if value is None else [flag, value]
        code, out, err = run(capsys, "verify", "--config", str(path), *given, "--json")
        assert code == 2 and out == ""
        assert err == f"ConfigInvalid: --config and {flag} are mutually exclusive\n"

    def test_inline_defaults(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--kind", "lehmer", "--a", "x^2+1", "--b", "x", "--json"
        )
        config = json.loads(out)["config"]
        assert code == 0
        assert config["field"] == {"type": "q"}
        assert (config["n_max"], config["m_max"], config["include_excluded"]) == (12, 12, False)

    def test_inline_lehmer_reach_above_the_cap_exits_2(self, capsys, monkeypatch):
        # without the cap the campaign would build term(10000): fail at once instead
        monkeypatch.setattr(verifier, "_RUNNERS", {})
        code, out, err = run(
            capsys, "verify", "--kind", "lehmer", "--a", "x^2+1", "--b", "x",
            "--n-max", "100", "--m-max", "100",
        )
        assert code == 2 and out == ""
        assert err.startswith("ConfigInvalid: the term index that n_max = 100 and m_max = 100")

    def test_inline_index_bound_is_checked_by_the_campaign(self, capsys):
        code, out, err = run(
            capsys, "verify", "--kind", "power", "--field", "fp", "--p", "3",
            "--a", "x+1", "--b", "x", "--n-max", "2",
        )
        assert code == 2 and out == ""
        assert err.startswith("ConfigInvalid:")

    def test_fp_field_needs_p(self, capsys):
        code, out, err = run(
            capsys, "verify", "--kind", "lucas", "--field", "fp", "--a", "x", "--b", "1",
        )
        assert code == 2 and out == ""
        assert err.startswith("ConfigInvalid:") and "--p" in err

    def test_inline_needs_pair(self, capsys):
        code, _, err = run(capsys, "verify", "--kind", "lucas")
        assert code == 2 and err.startswith("ConfigInvalid:")

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, *self.INLINE, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == []
        assert doc["config"]["params"] == [["x", "1"]]

    @pytest.mark.parametrize(
        "extra,key",
        [("n_mx = 20\n", "n_mx"), ("n_max = 6\n", "n_max"), ("p = 5\n", "p")],
        ids=["unknown", "repeated", "p-without-fp"],
    )
    def test_config_key_errors_exit_2(self, capsys, tmp_path, extra, key):
        path = tmp_path / "c.cfg"
        path.write_text("field = q\nkinds = lucas\nchecks = all\nparams = x,1\nn_max = 8\n" + extra)
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("ConfigInvalid:") and repr(key) in err

    def test_inline_report_config_round_trips(self, capsys, tmp_path):
        first = run(capsys, *self.INLINE[:-4], "--n-max", "4", "--m-max", "4", "--json")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(json.loads(first[1])["config"]), encoding="utf-8")
        assert '"enumeration": null' in path.read_text(encoding="utf-8")
        second = run(capsys, "verify", "--config", str(path), "--json")
        docs = [json.loads(out) for _, out, _ in (first, second)]
        for doc in docs:
            del doc["wall_time"]
        assert first[0] == second[0] == 0 and docs[0] == docs[1]

    def test_random_report_config_round_trips(self, capsys, tmp_path):
        flat = tmp_path / "c.cfg"
        flat.write_text(
            "field = fp\np = 3\nkinds = power,lucas\nchecks = strong_div,zsigmondy\n"
            "enumeration = random:4:9\nmax_param_degree = 2\nn_max = 5\nm_max = 5\n",
            encoding="utf-8",
        )
        first = run(capsys, "verify", "--config", str(flat), "--json")
        path = tmp_path / "c.json"
        config = json.loads(first[1])["config"]
        assert config["enumeration"] == {"type": "random", "count": 4, "seed": 9}
        path.write_text(json.dumps(config), encoding="utf-8")
        second = run(capsys, "verify", "--config", str(path), "--json")
        docs = [json.loads(out) for _, out, _ in (first, second)]
        for doc in docs:
            del doc["wall_time"]
        assert first[0] == second[0] and docs[0] == docs[1]
        assert docs[0]["params_admitted"] == 8

    def test_parser_is_built_once(self, capsys):
        assert build_parser() is build_parser()
        first = run(capsys, *self.INLINE, "--json")
        second = run(capsys, *self.INLINE, "--json")
        docs = [json.loads(out) for _, out, _ in (first, second)]
        for doc in docs:
            del doc["wall_time"]
        assert first[0] == second[0] == 0 and docs[0] == docs[1]


class TestForms:
    def test_cyclo_frozen(self, capsys):
        code, out, _ = run(capsys, "cyclo", "--n", "1")
        assert code == 0 and out.strip() == "X-Y"
        _, out, _ = run(capsys, "cyclo", "--n", "6")
        assert out.strip() == "X^2-X*Y+Y^2"

    def test_cyclo_json(self, capsys):
        _, out, _ = run(capsys, "cyclo", "--n", "4", "--json")
        assert json.loads(out) == {"n": 4, "phi": "X^2+Y^2"}

    def test_resultant_frozen(self, capsys):
        code, out, _ = run(capsys, "resultant", "--m", "2", "--n", "3")
        assert code == 0 and out.strip() == "1"
        _, out, _ = run(capsys, "resultant", "--m", "2", "--n", "4")
        assert out.strip() == "0"

    def test_resultant_json(self, capsys):
        _, out, _ = run(capsys, "resultant", "--m", "3", "--n", "5", "--json")
        doc = json.loads(out)
        assert doc["m"] == 3 and doc["n"] == 5
        assert doc["resultant"] == "1"


class TestFactor:
    def test_fp_frozen(self, capsys):
        code, out, _ = run(
            capsys, "factor", "--field", "fp", "--p", "5", "2*x+1",
        )
        assert code == 0 and out.strip() == "2(x+3)"

    def test_fp_json(self, capsys):
        _, out, _ = run(
            capsys, "factor", "--field", "fp", "--p", "5", "x^2+4", "--json",
        )
        doc = json.loads(out)
        assert doc["unit"] == "1"
        assert {f["factor"] for f in doc["factors"]} == {"x+1", "x+4"}
        assert all(f["exp"] == 1 for f in doc["factors"])

    def test_squarefree_over_q(self, capsys):
        code, out, _ = run(
            capsys, "factor", "--field", "q", "--squarefree",
            "x^3-x^2-x+1",
        )
        assert code == 0
        assert out.strip() == "(x-1)^2(x+1)"

    def test_full_factor_over_q_unsupported(self, capsys):
        code, _, err = run(capsys, "factor", "--field", "q", "x^2-1")
        assert code == 2
        assert err.startswith("UnsupportedField:")


class TestSeedHandling:
    ARGS = ["factor", "--field", "fp", "--p", "5", "x^2+1"]

    def test_env_seed_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("SEQ_SEED", "99")
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        assert out.strip() == "(x+2)(x+3)"

    @pytest.mark.parametrize("raw", ["banana", "1_000", " 7", "٣"])
    def test_env_seed_is_not_read(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("SEQ_SEED", raw)
        code, out, err = run(capsys, *self.ARGS)
        assert code == 0 and err == ""
        assert out.strip() == "(x+2)(x+3)"

    @pytest.mark.parametrize("raw", ["3", "1_000", " 7", "٣", "3.0", ""])
    def test_factor_has_no_seed_flag(self, capsys, raw):
        with pytest.raises(SystemExit) as exc:
            main([*self.ARGS, "--seed", raw])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_output_independent_of_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SEQ_SEED", "1")
        first = run(capsys, *self.ARGS)
        monkeypatch.setenv("SEQ_SEED", "1234")
        second = run(capsys, *self.ARGS)
        monkeypatch.delenv("SEQ_SEED")
        assert first == second == run(capsys, *self.ARGS)


class TestNegativeParameters:
    @pytest.mark.parametrize(
        "cmd,extra",
        [("gen", ["--n", "5"]), ("verify", ["--n-max", "6", "--m-max", "6"])],
    )
    def test_leading_minus_value_matches_joined_form(self, capsys, cmd, extra):
        def lines(result):
            code, out, err = result
            return code, [l for l in out.splitlines() if not l.startswith("wall time")], err

        base = [cmd, "--kind", "lucas", "--field", "q", *extra]
        split = lines(run(capsys, *base, "--a", "-x+3", "--b", "-2"))
        assert split[0] == 0 and split[2] == ""
        assert split == lines(run(capsys, *base, "--a=-x+3", "--b=-2"))

    def test_gen_terms_of_negative_parameter(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--kind", "lucas", "--field", "q", "--a", "-x+3",
            "--b", "1", "--n", "3",
        )
        assert code == 0
        assert out.splitlines() == ["1", "-x+3", "x^2-6*x+8"]


PAIR = ["--kind", "lucas", "--a", "x", "--b", "1"]


class TestIntegerFlags:
    @pytest.mark.parametrize("raw", ["1_000", " 7", "٣", "3.0", ""])
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["gen", *PAIR, "--field", "q"], "--n"),
            (["gen", *PAIR, "--field", "fp", "--n", "3"], "--p"),
            (["primitive", *PAIR, "--field", "q"], "--n"),
            (["primitive", *PAIR, "--field", "q"], "--n-max"),
            (["verify", *PAIR], "--n-max"),
            (["verify", *PAIR], "--m-max"),
            (["verify", *PAIR, "--field", "fp"], "--p"),
            (["cyclo"], "--n"),
            (["resultant", "--n", "3"], "--m"),
            (["resultant", "--m", "3"], "--n"),
        ],
    )
    def test_only_plain_decimal_integers(self, capsys, argv, flag, raw):
        code, out, err = run(capsys, *argv, flag, raw)
        assert code == 2 and out == ""
        assert err.startswith(f"ConfigInvalid: {flag} must be an integer")

    def test_signed_decimal_is_accepted(self, capsys):
        code, out, _ = run(capsys, "cyclo", "--n", "+06")
        assert code == 0
        assert out == run(capsys, "cyclo", "--n", "6")[1]


class TestCaps:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["gen", *PAIR, "--field", "q"], "--n"),
            (["verify", *PAIR], "--n-max"),
            (["verify", *PAIR], "--m-max"),
            (["primitive", *PAIR, "--field", "q"], "--n"),
            (["primitive", *PAIR, "--field", "q"], "--n-max"),
            (["cyclo"], "--n"),
            (["resultant", "--n", "1"], "--m"),
            (["resultant", "--m", "1"], "--n"),
        ],
    )
    def test_flag_above_the_cap_exits_2(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv, flag, str(MAX_INDEX + 1))
        assert code == 2 and out == ""
        assert err == f"ConfigInvalid: {flag} must be at most {MAX_INDEX}, got {MAX_INDEX + 1}\n"

    def test_gen_at_the_cap(self, capsys):
        code, out, _ = run(capsys, "gen", *PAIR, "--field", "q", "--n", str(MAX_INDEX))
        assert code == 0 and len(out.splitlines()) == MAX_INDEX

    @pytest.mark.parametrize(
        "key,cap", [("n_max", MAX_INDEX), ("m_max", MAX_INDEX), ("max_param_degree", MAX_PARAM_DEGREE)]
    )
    @pytest.mark.parametrize("excess", [1, 10**9])
    def test_config_key_above_the_cap_exits_2(self, capsys, tmp_path, key, cap, excess):
        value = cap + excess
        doc = {"field": {"type": "q"}, "kinds": ["lucas"], "checks": ["all"], "params": [["x", "1"]]}
        doc[key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert code == 2 and out == ""
        assert err == f"ConfigInvalid: {key} must be at most {cap}, got {value}\n"

    @pytest.mark.parametrize("cmd", ["gen", "primitive"])
    @pytest.mark.parametrize("flag", ["--a", "--b"])
    def test_parameter_degree_above_the_cap_exits_2(self, capsys, cmd, flag):
        pair = {"--a": "x+1", "--b": "x", flag: f"x^{MAX_PARAM_DEGREE + 1}+x+1"}
        argv = [cmd, "--kind", "power", "--field", "fp", "--p", "3", "--n", "3"]
        code, out, err = run(capsys, *argv, *[v for item in pair.items() for v in item])
        assert code == 2 and out == ""
        cap = MAX_PARAM_DEGREE
        assert err == f"ConfigInvalid: {flag} degree must be at most {cap}, got {cap + 1}\n"

    @pytest.mark.parametrize("flag", ["--a", "--b"])
    def test_verify_parameter_degree_above_the_cap_names_the_flag(self, capsys, flag):
        pair = {"--a": "x+1", "--b": "x", flag: f"x^{MAX_PARAM_DEGREE + 1}+x+1"}
        argv = ["verify", "--kind", "power", "--field", "fp", "--p", "3"]
        code, out, err = run(capsys, *argv, *[v for item in pair.items() for v in item])
        assert code == 2 and out == ""
        cap = MAX_PARAM_DEGREE
        assert err == f"ConfigInvalid: {flag} degree must be at most {cap}, got {cap + 1}\n"

    @pytest.mark.parametrize("cmd", ["gen", "primitive"])
    def test_parameter_degree_at_the_cap(self, capsys, cmd):
        a = f"x^{MAX_PARAM_DEGREE}+x+1"
        code, out, _ = run(capsys, cmd, "--kind", "power", "--field", "fp", "--p", "3",
                           "--a", a, "--b", "x", "--n", "3")
        assert code == 0 and out

    @pytest.mark.parametrize("fmt", ["json", "flat"])
    @pytest.mark.parametrize("degree, code", [(MAX_PARAM_DEGREE, 0), (MAX_PARAM_DEGREE + 1, 2)])
    def test_params_entry_degree_cap(self, capsys, tmp_path, fmt, degree, code):
        a = f"x^{degree}+x+1"
        path = tmp_path / "c.cfg"
        if fmt == "json":
            doc = {"field": {"type": "fp", "p": 3}, "kinds": ["power"], "checks": ["strong_div"],
                   "n_max": 3, "m_max": 3, "params": [["x", "1"], [a, "x"]]}
            path.write_text(json.dumps(doc), encoding="utf-8")
        else:
            path.write_text(
                "field = fp\np = 3\nkinds = power\nchecks = strong_div\n"
                f"n_max = 3\nm_max = 3\nparams = x,1; {a},x\n",
                encoding="utf-8",
            )
        got, out, err = run(capsys, "verify", "--config", str(path))
        assert got == code
        if code == 2:
            assert out == ""
            assert err == (
                f"ConfigInvalid: params degree must be at most {MAX_PARAM_DEGREE}, got {degree}\n"
            )


class TestArgparseErrors:
    def test_verify_has_no_seed_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--kind", "lucas", "--a", "x", "--b", "1", "--seed", "1"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cyclo"])
        assert exc.value.code == 2
