"""Verification campaigns over parameter grids.

A campaign enumerates (or samples) admissible parameter pairs for the chosen
sequence kinds, runs the configured divisibility checks over an index grid,
and aggregates exact pass/fail results with replayable failure witnesses.
Everything is deterministic: exhaustive enumeration is ordered
lexicographically by coefficient tuples and random enumeration is seeded.
"""

import json
import random
import re
import time
from dataclasses import dataclass, fields
from itertools import product
from math import gcd as int_gcd
from typing import Optional

from .coeff import PrimeField, Rationals
from .divisibility import (
    coprime_pair_check,
    index_scaled_coprime_check,
    matches_phi,
    phi_claimed,
    primitive_parts_factored,
    strong_div_check,
    sum_square_coprime_check,
    term_divisors,
    valuation_stability_check,
    zsigmondy_check,
    zsigmondy_claimed,
)
from .errors import ConfigInvalid, NotPrime, OracleMismatch, ParseError, ValidationError
from .polyring import Poly, format_poly, parse_poly, poly_gcd
from .sequences import SeqKind, cyclotomic_value, oracle_term, term, validate

__all__ = [
    "ALL_CHECKS",
    "MAX_INDEX",
    "MAX_PARAM_DEGREE",
    "MAX_TERM_INDEX",
    "MAX_TERM_DEGREE",
    "MAX_COUNT",
    "Exhaustive",
    "Random",
    "CampaignConfig",
    "Failure",
    "VerifyReport",
    "enumerate_params",
    "run_campaign",
    "parse_config",
    "load_config",
    "render_report",
]


@dataclass(frozen=True)
class Exhaustive:
    def to_json(self):
        return {"type": "exhaustive"}


@dataclass(frozen=True)
class Random:
    count: int
    seed: int

    def to_json(self):
        return {"type": "random", "count": self.count, "seed": self.seed}


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce a campaign run.

    When ``params`` is given it is used verbatim (after validation), and the
    enumeration must be exhaustive or None, which both leave it as it is;
    otherwise pairs come from exhaustive or seeded-random enumeration at
    degree <= max_param_degree.
    """

    field: object
    kinds: tuple
    max_param_degree: int
    enumeration: object
    n_max: int
    m_max: int
    checks: tuple
    include_excluded: bool = False
    params: Optional[tuple] = None

    def to_json(self):
        doc = {
            "field": _field_json(self.field),
            "kinds": [k.value for k in self.kinds],
            "max_param_degree": self.max_param_degree,
            "enumeration": None
            if self.enumeration is None
            else self.enumeration.to_json(),
            "n_max": self.n_max,
            "m_max": self.m_max,
            "checks": list(self.checks),
            "include_excluded": self.include_excluded,
        }
        if self.params is not None:
            doc["params"] = [[format_poly(a), format_poly(b)] for a, b in self.params]
        return doc


def _field_json(field):
    if field.char:
        return {"type": "fp", "p": field.p}
    return {"type": "q"}


@dataclass(frozen=True)
class Failure:
    kind: str
    a: str
    b: str
    check: str
    indices: dict
    detail: str

    def to_json(self):
        return {
            "kind": self.kind,
            "a": self.a,
            "b": self.b,
            "check": self.check,
            "indices": dict(self.indices),
            "detail": self.detail,
        }


@dataclass
class VerifyReport:
    config: CampaignConfig
    params_admitted: int
    params_rejected: int
    cases_run: int
    cases_passed: int
    failures: list
    wall_time: float

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return {
            "config": self.config.to_json(),
            "params_admitted": self.params_admitted,
            "params_rejected": self.params_rejected,
            "cases_run": self.cases_run,
            "cases_passed": self.cases_passed,
            "failures": [f.to_json() for f in self.failures],
            "wall_time": self.wall_time,
        }


# Caps on the size of a campaign.  MAX_INDEX also caps every index flag of
# the CLI: seq verify --n-max/--m-max, seq gen --n, seq primitive --n/--n-max,
# seq cyclo --n and seq resultant --m/--n.  MAX_PARAM_DEGREE also caps the
# degree of every explicit params pair and of --a and --b.  MAX_TERM_INDEX
# caps the term index the lehmer checks reach (up to n_max * m_max, see
# _lehmer_reach), and MAX_TERM_DEGREE that index times the parameter degree,
# which bounds the degree of the terms reached.  MAX_COUNT caps the pairs per
# kind of a random enumeration.  The acceptance tests, the benchmark and the
# README stay far below them (index 40, term index 144, degree 4, count 50).
MAX_INDEX = 100
MAX_PARAM_DEGREE = 32
MAX_TERM_INDEX = 2000
MAX_TERM_DEGREE = 2 * MAX_TERM_INDEX
MAX_COUNT = 1000
_DEFAULT_INDEX = 12  # n_max and m_max where a config or inline seq verify omits them


def _at_most(key, value, cap):
    """value, or ConfigInvalid naming key when it exceeds cap."""
    if value > cap:
        raise ConfigInvalid(f"{key} must be at most {cap}, got {value}")
    return value


def _lehmer_reach(config):
    """The largest term index of the lehmer checks beyond n_max: term(m*n) in
    valuation_stability (n <= n_max, m <= m_max prime to the characteristic)
    and in index_scaled_coprime (odd m, n <= m_max)."""
    p, m_max = config.field.char, config.m_max
    reach = 0
    if "valuation_stability" in config.checks:
        reach = config.n_max * (m_max - 1 if p and m_max % p == 0 else m_max)
    if "index_scaled_coprime" in config.checks:
        reach = max(reach, (m_max - 1 + m_max % 2) ** 2)
    return reach


def _param_degree(config):
    """The largest parameter degree of a campaign: that of the explicit
    params when given, else max_param_degree."""
    if config.params is not None:
        return max(q.degree for pair in config.params for q in pair)
    return config.max_param_degree


def validate_config(config):
    field = config.field
    if not isinstance(field, (Rationals, PrimeField)):
        raise ConfigInvalid("field must be the rationals or a prime field")
    if not config.kinds:
        raise ConfigInvalid("at least one sequence kind is required")
    for k in config.kinds:
        if not isinstance(k, SeqKind):
            raise ConfigInvalid(f"unknown kind {k!r}")
    if not config.checks:
        raise ConfigInvalid("at least one check is required")
    for c in config.checks:
        if c not in ALL_CHECKS:
            raise ConfigInvalid(f"unknown check {c!r}")
    for what, values in (("kind", [k.value for k in config.kinds]), ("check", config.checks)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigInvalid(f"repeated {what} {repeated[0]!r}")
    if config.max_param_degree < 0:
        raise ConfigInvalid("max_param_degree must be >= 0")
    if config.m_max < 1 or config.n_max < 1:
        raise ConfigInvalid("index bounds n_max and m_max must be positive")
    _at_most("max_param_degree", config.max_param_degree, MAX_PARAM_DEGREE)
    _at_most("n_max", config.n_max, MAX_INDEX)
    _at_most("m_max", config.m_max, MAX_INDEX)
    reaches = f"that n_max = {config.n_max} and m_max = {config.m_max} reach"
    if SeqKind.LEHMER in config.kinds:
        _at_most(f"the term index {reaches}", _lehmer_reach(config), MAX_TERM_INDEX)
    needs_reports = {"zsigmondy", "primitive_part_phi"} & set(config.checks)
    if needs_reports and config.n_max < 3:
        raise ConfigInvalid("primitive-divisor checks need n_max >= 3")
    if config.params is not None:
        if isinstance(config.enumeration, Random):
            raise ConfigInvalid("enumeration must be exhaustive or null beside params, got random")
        if not config.params:
            raise ConfigInvalid("explicit parameter list is empty")
        for pair in config.params:
            if len(pair) != 2 or any(q.field != field for q in pair):
                raise ConfigInvalid("explicit params must be pairs over the config field")
            _at_most("params degree", max(q.degree for q in pair), MAX_PARAM_DEGREE)
    elif isinstance(config.enumeration, Exhaustive):
        if not field.char or field.p > 7 or config.max_param_degree > 3:
            raise ConfigInvalid(
                "exhaustive enumeration is limited to prime fields with "
                "p <= 7 and degree <= 3"
            )
    elif isinstance(config.enumeration, Random):
        if config.enumeration.count < 1:
            raise ConfigInvalid("random enumeration needs count >= 1")
        _at_most("count", config.enumeration.count, MAX_COUNT)
        if config.max_param_degree == 0:  # every draw would be two constants
            raise ConfigInvalid("random enumeration needs max_param_degree >= 1, got 0")
    else:
        raise ConfigInvalid("enumeration must be exhaustive or random")
    if SeqKind.LEHMER in config.kinds:
        degree = _param_degree(config)
        key = f"the term degree {reaches} at parameter degree {degree}"
        _at_most(key, _lehmer_reach(config) * degree, MAX_TERM_DEGREE)


def _candidates(field, max_deg, leads):
    """Polynomials of degree <= max_deg with a lead in leads, by degree, lead, tail."""
    p = field.p
    for d in range(max_deg + 1):
        for lead in leads:
            for tail in product(range(p), repeat=d):
                yield Poly(field, tail + (lead,))


def _lead_representatives(field):
    # one leading coefficient per orbit of squared units
    p = field.p
    if p == 2:
        return (1,)
    squares = {(i * i) % p for i in range(1, p)}
    smallest = min(v for v in range(1, p) if v not in squares)
    return (1, smallest)


def _random_poly(field, max_deg, rng):
    d = rng.randrange(max_deg + 1)
    if field.char:
        tail = [rng.randrange(field.p) for _ in range(d)]
        lead = rng.randrange(1, field.p)
    else:
        tail = [rng.randint(-4, 4) for _ in range(d)]
        lead = rng.randint(1, 4) * rng.choice((1, -1))
    return Poly(field, tail + [lead])


def _pairs(config, kind, rng):
    """Candidate (a, b) pairs of one kind: explicit params as given, else
    the exhaustive walk over one representative per unit orbit (a monic, or
    for the lehmer kind with a lead of 1 or the smallest non-square, one per
    coset of squared units; b any nonzero polynomial), else random draws of
    a, then b, with ConfigInvalid after 20000 * count attempts."""
    field, max_deg = config.field, config.max_param_degree
    if config.params is not None:
        yield from config.params
    elif isinstance(config.enumeration, Exhaustive):
        leads = _lead_representatives(field) if kind is SeqKind.LEHMER else (1,)
        seconds = list(_candidates(field, max_deg, range(1, field.p)))
        for a in _candidates(field, max_deg, leads):
            for b in seconds:
                yield a, b
    else:
        for _ in range(20000 * config.enumeration.count):
            a = _random_poly(field, max_deg, rng)
            yield a, _random_poly(field, max_deg, rng)
        raise ConfigInvalid("rejection rate too high for random enumeration")


def enumerate_params(config):
    """Admissible parameter pairs for the campaign, with the rejection count.

    Returns (params_list, rejected).  Each candidate of _pairs goes through
    validate(), and one failing it is counted as rejected.  Random
    enumeration, seeded once for all kinds, skips a pair it has already
    admitted and stops at `count` distinct admissible pairs per kind.
    """
    validate_config(config)
    count = rng = None
    if config.params is None and isinstance(config.enumeration, Random):
        count, rng = config.enumeration.count, random.Random(config.enumeration.seed)
    admitted = []
    rejected = 0
    for kind in config.kinds:
        seen = set()
        for a, b in _pairs(config, kind, rng):
            try:
                params = validate(kind, config.field, a, b)
            except ValidationError:
                rejected += 1
                continue
            key = (a.coeffs, b.coeffs)
            if rng is not None and key in seen:
                continue
            seen.add(key)
            admitted.append(params)
            if len(seen) == count:
                break
    return admitted, rejected


# --- per-check case generators ------------------------------------------------
# Each runner yields (indices, ok, detail) triples; detail is only filled on
# failure.  ctx carries per-params shared state (the primitive reports).


def _reports(params, config, ctx):
    if "reports" not in ctx:
        ctx["reports"] = zsigmondy_check(params, config.n_max)
    return ctx["reports"]


def _run_strong_div(params, config, ctx):
    for m in range(1, config.m_max + 1):
        for n in range(m, config.n_max + 1):
            ok = strong_div_check(params, m, n)
            detail = ""
            if not ok:
                g = poly_gcd(term(params, m), term(params, n))
                d = int_gcd(m, n)
                detail = (
                    f"gcd(term({m}), term({n})) = {g} but term({d}) = {term(params, d)}"
                )
            yield {"m": m, "n": n}, ok, detail


def _run_zsigmondy(params, config, ctx):
    for r in _reports(params, config, ctx):
        if not zsigmondy_claimed(r, config.include_excluded):
            continue
        ok = r.has_primitive
        detail = "" if ok else f"term = {r.term}, primitive part = {r.primitive_part}"
        yield {"n": r.n}, ok, detail


def _run_phi_match(params, config, ctx):
    for r in _reports(params, config, ctx):
        if not phi_claimed(r):
            continue
        ok = matches_phi(params, r)
        detail = ""
        if not ok:
            detail = (
                f"primitive part = {r.primitive_part}, "
                f"cyclotomic value = {cyclotomic_value(params, r.n)}"
            )
        yield {"n": r.n}, ok, detail


def _run_valuation_stability(params, config, ctx):
    if params.kind is not SeqKind.LEHMER:
        return
    p = params.field.char
    for n in range(3, config.n_max + 1):
        for q in term_divisors(params, n):
            q_text = format_poly(q)
            for m in range(1, config.m_max + 1):
                if p and m % p == 0:
                    continue
                ok = valuation_stability_check(params, q, n, m)
                detail = "" if ok else f"q = {q_text}, term({n}) vs term({m * n})"
                yield {"q": q_text, "n": n, "m": m}, ok, detail


def _run_sum_square_coprime(params, config, ctx):
    if params.kind is not SeqKind.LEHMER:
        return
    for n in range(1, config.n_max + 1, 2):
        ok = sum_square_coprime_check(params, n)
        detail = "" if ok else f"gcd(term({n}), {params.a}) is not a unit"
        yield {"n": n}, ok, detail


def _run_index_scaled_coprime(params, config, ctx):
    if params.kind is not SeqKind.LEHMER:
        return
    for m in range(1, config.m_max + 1, 2):
        for n in range(1, config.m_max + 1, 2):
            ok = index_scaled_coprime_check(params, m, n)
            detail = "" if ok else f"quotients at ({m}*{n}, 2*{n}) share a factor"
            yield {"m": m, "n": n}, ok, detail


def _run_coprime_pairs(params, config, ctx):
    if params.kind is SeqKind.POWER:
        return
    for m in range(1, config.n_max + 1):
        for n in range(m + 1, config.n_max + 1):
            if int_gcd(m, n) != 1:
                continue
            ok = coprime_pair_check(params, m, n)
            detail = "" if ok else f"gcd(term({m}), term({n})) is not a unit"
            yield {"m": m, "n": n}, ok, detail


def _run_oracle_equivalence(params, config, ctx):
    if params.kind is not SeqKind.POWER:
        for n in range(1, config.n_max + 1):
            try:
                ok = oracle_term(params, n) == term(params, n)
                detail = "" if ok else f"recurrence {term(params, n)} != tower value"
            except OracleMismatch as exc:
                ok, detail = False, str(exc)
            yield {"n": n}, ok, detail
    if params.field.char:
        parts = primitive_parts_factored(params, config.n_max)
        for r in _reports(params, config, ctx):
            ok = r.primitive_part == parts[r.n]
            detail = "" if ok else f"stripped = {r.primitive_part}, factored = {parts[r.n]}"
            yield {"n": r.n}, ok, detail


_RUNNERS = {
    "strong_div": _run_strong_div,
    "zsigmondy": _run_zsigmondy,
    "primitive_part_phi": _run_phi_match,
    "valuation_stability": _run_valuation_stability,
    "sum_square_coprime": _run_sum_square_coprime,
    "index_scaled_coprime": _run_index_scaled_coprime,
    "coprime_pairs": _run_coprime_pairs,
    "oracle_equivalence": _run_oracle_equivalence,
}

ALL_CHECKS = tuple(_RUNNERS)


def run_campaign(config):
    """Run every configured check for every admissible parameter pair.

    Never aborts on a failed case; failures accumulate in enumeration order
    with enough context to replay the single case by hand.
    """
    start = time.perf_counter()
    params_list, rejected = enumerate_params(config)
    cases_run = 0
    cases_passed = 0
    failures = []
    try:
        for params in params_list:
            ctx = {}
            a_text, b_text = format_poly(params.a), format_poly(params.b)
            for check in config.checks:
                for indices, ok, detail in _RUNNERS[check](params, config, ctx):
                    cases_run += 1
                    if ok:
                        cases_passed += 1
                    else:
                        failures.append(
                            Failure(params.kind.value, a_text, b_text, check, indices, detail)
                        )
    except MemoryError:
        failures.append(
            Failure("-", "-", "-", "resource", {}, "memory limit reached; report is partial")
        )
    wall = time.perf_counter() - start
    return VerifyReport(
        config=config,
        params_admitted=len(params_list),
        params_rejected=rejected,
        cases_run=cases_run,
        cases_passed=cases_passed,
        failures=failures,
        wall_time=wall,
    )


# --- config files ---------------------------------------------------------


def _json_int(doc, key, default=None):
    """doc[key] as a JSON integer (a bool is not one), or the default if absent."""
    value = doc.get(key, default)
    if type(value) is not int:
        raise ConfigInvalid(f"{key} must be an integer, got {value!r}")
    return value


def _json_strings(key, value):
    """value as a JSON list of strings."""
    if type(value) is not list or not all(type(v) is str for v in value):
        raise ConfigInvalid(f"{key} must be a list of strings, got {value!r}")
    return value


def _only_keys(doc, allowed, where):
    """ConfigInvalid naming the keys of doc outside allowed."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigInvalid(f"unknown {where} keys: {unknown}")


def _unique_keys(pairs):
    """A dict of (key, value) pairs; ConfigInvalid naming a repeated key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigInvalid(f"repeated config key {key!r}")
        doc[key] = value
    return doc


def _field_from_desc(fdesc):
    kind_text = fdesc["type"]
    if kind_text == "q":
        _only_keys(fdesc, ("type",), "field 'q'")
        return Rationals()
    if kind_text == "fp":
        _only_keys(fdesc, ("type", "p"), "field 'fp'")
        if fdesc.get("p") is None:
            raise ConfigInvalid("prime field needs p")
        try:
            return PrimeField(_json_int(fdesc, "p"))
        except NotPrime as exc:
            raise ConfigInvalid(str(exc)) from exc
    raise ConfigInvalid(f"unknown field type {kind_text!r}")


def _parse_kinds(values):
    try:
        return tuple(dict.fromkeys(SeqKind(v) for v in values))
    except ValueError as exc:
        raise ConfigInvalid(f"unknown kind: {exc}") from exc


def _parse_checks(values):
    out = []
    for v in values:
        if v == "all":
            out.extend(ALL_CHECKS)
        elif v in ALL_CHECKS:
            out.append(v)
        else:
            raise ConfigInvalid(f"unknown check {v!r}")
    return tuple(dict.fromkeys(out))


def _parse_param_pairs(field, pairs):
    if type(pairs) is not list:
        raise ConfigInvalid(f"params must be a list of [a, b] pairs, got {pairs!r}")
    out = []
    for pair in pairs:
        if len(_json_strings("a params entry", pair)) != 2:
            raise ConfigInvalid("parameter entries must be [a, b] pairs")
        try:
            out.append((parse_poly(field, pair[0]), parse_poly(field, pair[1])))
        except ParseError as exc:
            raise ConfigInvalid(f"bad params polynomial: {exc}") from exc
    return tuple(out)


def parse_config(text):
    """Build a CampaignConfig from JSON or key=value text.

    JSON keys: field {"type": "q"|"fp", "p"?}, kinds, max_param_degree,
    enumeration {"type": "exhaustive"} or {"type": "random", "count", "seed"}
    (or null beside params, as the --json report of an inline seq verify
    writes it), n_max, m_max, checks (names or "all"), include_excluded,
    params (pairs of polynomial strings).  p, max_param_degree, n_max, m_max,
    count and seed must be JSON integers (max_param_degree at most
    MAX_PARAM_DEGREE, n_max and m_max at most MAX_INDEX, count at most
    MAX_COUNT, and for the lehmer kind the term index its checks reach at
    most MAX_TERM_INDEX and that index times the parameter degree at most
    MAX_TERM_DEGREE), include_excluded a
    JSON boolean, kinds and checks lists of strings, and params a list of
    two-string lists, each polynomial of degree at most MAX_PARAM_DEGREE; a
    repeated kind or check is kept once, at its first place.  The key=value
    format takes one key per line with # comments; lists are
    comma-separated, params entries are semicolon-separated "a,b" pairs,
    enumeration is "exhaustive" or "random:count:seed", integers are
    optionally signed decimal digits, and include_excluded is one of
    true/false/yes/no/1/0.  Any other value, an unknown or repeated key (in
    field and enumeration too), a p without the fp field and a random
    enumeration beside params or at max_param_degree 0 raise ConfigInvalid.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"bad JSON config: {exc}") from exc
        return _config_from_dict(doc)
    pairs = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"expected key=value, got {line!r}")
        pairs.append(tuple(part.strip() for part in line.split("=", 1)))
    return _config_from_flat(_unique_keys(pairs))


_CONFIG_KEYS = {f.name for f in fields(CampaignConfig)}


def _config_from_dict(doc):
    _only_keys(doc, _CONFIG_KEYS, "config")
    fdesc = doc.get("field")
    if not isinstance(fdesc, dict) or "type" not in fdesc:
        raise ConfigInvalid('field must be {"type": "q"} or {"type": "fp", "p": ...}')
    field = _field_from_desc(fdesc)
    kinds = _parse_kinds(_json_strings("kinds", doc.get("kinds", [])))
    checks = _parse_checks(_json_strings("checks", doc.get("checks", [])))
    enum_desc = doc.get("enumeration", {"type": "exhaustive"})
    if enum_desc is None and "params" in doc:
        enumeration = None  # as the report of an inline seq verify writes it
    elif not isinstance(enum_desc, dict):
        raise ConfigInvalid("enumeration must be an object with a type (or null beside params)")
    elif enum_desc.get("type") == "exhaustive":
        _only_keys(enum_desc, ("type",), "enumeration 'exhaustive'")
        enumeration = Exhaustive()
    elif enum_desc.get("type") == "random":
        _only_keys(enum_desc, ("type", "count", "seed"), "enumeration 'random'")
        if "count" not in enum_desc:
            raise ConfigInvalid("random enumeration needs a count")
        enumeration = Random(_json_int(enum_desc, "count"), _json_int(enum_desc, "seed", 0))
    else:
        raise ConfigInvalid("enumeration type must be exhaustive or random")
    params = None
    if "params" in doc:
        params = _parse_param_pairs(field, doc["params"])
    include_excluded = doc.get("include_excluded", False)
    if not isinstance(include_excluded, bool):
        raise ConfigInvalid(f"include_excluded must be true or false, got {include_excluded!r}")
    config = CampaignConfig(
        field=field,
        kinds=kinds,
        max_param_degree=_json_int(doc, "max_param_degree", 2),
        enumeration=enumeration,
        n_max=_json_int(doc, "n_max", _DEFAULT_INDEX),
        m_max=_json_int(doc, "m_max", _DEFAULT_INDEX),
        checks=checks,
        include_excluded=include_excluded,
        params=params,
    )
    validate_config(config)
    return config


_FLAT_INT_RE = re.compile(r"[+-]?[0-9]+")
_FLAT_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _flat_int(key, text):
    if not _FLAT_INT_RE.fullmatch(text):
        raise ConfigInvalid(f"{key} must be an integer, got {text!r}")
    return int(text)


def _config_from_flat(doc):
    _only_keys(doc, _CONFIG_KEYS | {"p"}, "config")
    out = {}
    if "field" in doc:
        out["field"] = {"type": doc["field"]}
        if "p" in doc:
            out["field"]["p"] = _flat_int("p", doc["p"])
    if "kinds" in doc:
        out["kinds"] = [v.strip() for v in doc["kinds"].split(",") if v.strip()]
    if "checks" in doc:
        out["checks"] = [v.strip() for v in doc["checks"].split(",") if v.strip()]
    if "enumeration" in doc:
        enum_text = doc["enumeration"]
        if enum_text == "exhaustive":
            out["enumeration"] = {"type": "exhaustive"}
        elif enum_text.startswith("random:"):
            bits = enum_text.split(":")
            if len(bits) != 3:
                raise ConfigInvalid("random enumeration is random:count:seed")
            out["enumeration"] = {
                "type": "random",
                "count": _flat_int("count", bits[1]),
                "seed": _flat_int("seed", bits[2]),
            }
        else:
            raise ConfigInvalid(f"unknown enumeration {enum_text!r}")
    for key in ("max_param_degree", "n_max", "m_max"):
        if key in doc:
            out[key] = _flat_int(key, doc[key])
    if "include_excluded" in doc:
        text = doc["include_excluded"]
        if text.lower() not in _FLAT_BOOLS:
            raise ConfigInvalid(f"include_excluded must be true or false, got {text!r}")
        out["include_excluded"] = _FLAT_BOOLS[text.lower()]
    if "params" in doc:
        pairs = []
        for chunk in doc["params"].split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            bits = [v.strip() for v in chunk.split(",")]
            pairs.append(bits)
        out["params"] = pairs
    return _config_from_dict(out)


def load_config(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def render_report(report):
    """Human-readable summary of a VerifyReport."""
    config = report.config
    field = config.field
    field_text = f"F_{field.p}" if field.char else "Q"
    degree = _param_degree(config)
    lines = [
        "campaign over {} | kinds: {} | degree <= {}".format(
            field_text,
            ",".join(k.value for k in config.kinds),
            degree,
        ),
        "checks: " + ", ".join(config.checks),
        f"indices: n <= {config.n_max}, m <= {config.m_max}"
        + (" (excluded indices kept in)" if config.include_excluded else ""),
        f"params: {report.params_admitted} admitted, {report.params_rejected} rejected",
        f"cases: {report.cases_run} run, {report.cases_passed} passed, "
        f"{len(report.failures)} failed",
        f"wall time: {report.wall_time:.2f}s",
    ]
    for f in report.failures[:50]:
        where = " ".join(f"{k}={v}" for k, v in f.indices.items())
        lines.append(f"FAIL {f.kind} a={f.a} b={f.b} {f.check} [{where}] {f.detail}")
    if len(report.failures) > 50:
        lines.append(f"... and {len(report.failures) - 50} more failures")
    lines.append("result: " + ("PASS" if report.ok else "FAIL"))
    return "\n".join(lines)
