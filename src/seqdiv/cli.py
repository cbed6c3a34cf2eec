"""Command-line surface for sequence generation, reports, and campaigns.

Every invocation is reproducible from its argument vector alone; the only
environment input is the optional SEQ_SEED default for the factorization
seed of ``seq factor``, and its --seed flag overrides it.

Exit codes: 0 success, 1 campaign ran and found failures, 2 for validation,
parse, or configuration errors (the error name and message go to stderr).
"""

import argparse
import json
import os
import sys
from functools import lru_cache

from .coeff import PrimeField, Rationals
from .cyclokit import cyclotomic_form, power_sum_form, resultant
from .divisibility import primitive_part, zsigmondy_check
from .errors import ConfigInvalid, SeqdivError, UnsupportedField
from .factorization import DEFAULT_SEED, factor_fp, factors_text, squarefree_decomp
from .polyring import parse_poly
from .sequences import SeqKind, term, validate
from .verifier import (
    ALL_CHECKS,
    MAX_INDEX,
    MAX_PARAM_DEGREE,
    CampaignConfig,
    _at_most,
    _field_json,
    _flat_int,
    load_config,
    render_report,
    run_campaign,
)

__all__ = ["main"]


def _field_from_args(args):
    if args.field == "fp":
        if args.p is None:
            raise ConfigInvalid("--field fp requires --p")
        return PrimeField(args.p)
    if args.p is not None:
        raise ConfigInvalid("--p only makes sense with --field fp")
    return Rationals()


def _params_from_args(args):
    field = _field_from_args(args)
    a = parse_poly(field, args.a)
    b = parse_poly(field, args.b)
    _at_most("--a degree", a.degree, MAX_PARAM_DEGREE)
    _at_most("--b degree", b.degree, MAX_PARAM_DEGREE)
    return validate(SeqKind(args.kind), field, a, b)


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    raw = os.environ.get("SEQ_SEED")
    if raw is None:
        return DEFAULT_SEED
    return _flat_int("SEQ_SEED", raw)


def _bool(v):
    return "true" if v else "false"


def cmd_gen(args):
    if args.n < 1:
        raise ConfigInvalid("--n must be at least 1")
    params = _params_from_args(args)
    terms = [term(params, i) for i in range(1, args.n + 1)]
    if args.json:
        print(
            json.dumps(
                {
                    "kind": params.kind.value,
                    "field": _field_json(params.field),
                    "params": {"a": str(params.a), "b": str(params.b)},
                    "terms": [str(t) for t in terms],
                },
                indent=2,
            )
        )
    else:
        for t in terms:
            print(t)
    return 0


def _report_line(r, primes):
    line = (
        f"n={r.n} term={r.term} primitive_part={r.primitive_part} "
        f"has_primitive={_bool(r.has_primitive)} "
        f"matches_phi={_bool(r.matches_phi)} excluded={_bool(r.excluded)}"
    )
    if primes is not None:
        line += f" primitive_primes={factors_text(primes)}"
    return line


def _report_json(r, primes):
    doc = r.to_json()
    if primes is not None:
        doc["primitive_primes"] = [{"factor": str(f), "exp": e} for f, e in primes]
    return doc


def cmd_primitive(args):
    if (args.n is None) == (args.n_max is None):
        raise ConfigInvalid("give exactly one of --n or --n-max")
    params = _params_from_args(args)
    if args.n is not None:
        reports = [primitive_part(params, args.n)]
    else:
        reports = zsigmondy_check(params, args.n_max)
    primes = [factor_fp(r.primitive_part).factors if params.field.char else None for r in reports]
    if args.json:
        payload = [_report_json(r, ps) for r, ps in zip(reports, primes)]
        print(json.dumps(payload[0] if args.n is not None else payload, indent=2))
    else:
        for r, ps in zip(reports, primes):
            print(_report_line(r, ps))
    return 0


def cmd_verify(args):
    if args.config is not None:
        if args.a is not None or args.b is not None:
            raise ConfigInvalid("--config and inline --a/--b are mutually exclusive")
        config = load_config(args.config)
    else:
        if args.kind is None or args.a is None or args.b is None:
            raise ConfigInvalid(
                "inline verify needs --kind, --a and --b (or use --config)"
            )
        field = _field_from_args(args)
        pair = (parse_poly(field, args.a), parse_poly(field, args.b))
        validate(SeqKind(args.kind), field, pair[0], pair[1])
        config = CampaignConfig(
            field=field,
            kinds=(SeqKind(args.kind),),
            max_param_degree=max(p.degree for p in pair),
            enumeration=None,
            n_max=args.n_max,
            m_max=args.m_max,
            checks=ALL_CHECKS,
            include_excluded=args.include_excluded,
            params=(pair,),
        )
    report = run_campaign(config)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(render_report(report))
    return 0 if report.ok else 1


def cmd_cyclo(args):
    form = cyclotomic_form(args.n)
    if args.json:
        print(json.dumps({"n": args.n, "phi": str(form)}))
    else:
        print(form)
    return 0


def cmd_resultant(args):
    value = resultant(power_sum_form(args.m), power_sum_form(args.n))
    text = str(value)
    if args.json:
        print(json.dumps({"m": args.m, "n": args.n, "resultant": text}))
    else:
        print(text)
    return 0


def cmd_factor(args):
    field = _field_from_args(args)
    h = parse_poly(field, args.poly)
    if args.squarefree:
        fact = squarefree_decomp(h)
    elif field.char:
        fact = factor_fp(h, seed=_resolve_seed(args))
    else:
        raise UnsupportedField(
            "full factorization over Q is not provided; --squarefree is"
        )
    if args.json:
        print(
            json.dumps(
                {
                    "field": _field_json(field),
                    "input": str(h),
                    "unit": str(fact.unit),
                    "factors": [{"factor": str(f), "exp": e} for f, e in fact.factors],
                },
                indent=2,
            )
        )
    else:
        print(fact)
    return 0


def _add_int_flag(sub, flag, cap=None, **kwargs):
    """An integer flag, read as SEQ_SEED and the flat config are and at most
    cap when one is given: ConfigInvalid names it."""

    def parse(text):
        value = _flat_int(flag, text)
        return value if cap is None else _at_most(flag, value, cap)

    sub.add_argument(flag, type=parse, **kwargs)


def _add_field_flags(sub):
    sub.add_argument("--field", choices=("q", "fp"), required=True)
    _add_int_flag(sub, "--p", help="characteristic, required for --field fp")


def _add_pair_flags(sub):
    sub.add_argument("--kind", choices=[k.value for k in SeqKind], required=True)
    _add_field_flags(sub)
    sub.add_argument("--a", required=True, help="first parameter, e.g. \"x^2+1\"")
    sub.add_argument("--b", required=True, help="second parameter")


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built on first use and shared: parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="seq",
        description="Exact divisibility sequences over Q[x] and F_p[x].",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="print terms 1..n")
    _add_pair_flags(gen)
    _add_int_flag(gen, "--n", cap=MAX_INDEX, required=True)
    gen.add_argument("--json", action="store_true")
    gen.set_defaults(func=cmd_gen)

    prim = sub.add_parser("primitive", help="primitive-divisor reports")
    _add_pair_flags(prim)
    _add_int_flag(prim, "--n", cap=MAX_INDEX, help="single index")
    _add_int_flag(prim, "--n-max", cap=MAX_INDEX, help="report every index 1..n_max")
    prim.add_argument("--json", action="store_true")
    prim.set_defaults(func=cmd_primitive)

    ver = sub.add_parser("verify", help="run a verification campaign")
    ver.add_argument("--config", help="campaign config path (json or key=value)")
    ver.add_argument("--kind", choices=[k.value for k in SeqKind])
    ver.add_argument("--field", choices=("q", "fp"), default="q")
    _add_int_flag(ver, "--p")
    ver.add_argument("--a")
    ver.add_argument("--b")
    _add_int_flag(ver, "--n-max", cap=MAX_INDEX, default=12)
    _add_int_flag(ver, "--m-max", cap=MAX_INDEX, default=12)
    ver.add_argument("--include-excluded", action="store_true")
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=cmd_verify)

    cyc = sub.add_parser("cyclo", help="homogeneous cyclotomic form")
    _add_int_flag(cyc, "--n", cap=MAX_INDEX, required=True)
    cyc.add_argument("--json", action="store_true")
    cyc.set_defaults(func=cmd_cyclo)

    res = sub.add_parser("resultant", help="resultant of two power-sum forms")
    _add_int_flag(res, "--m", cap=MAX_INDEX, required=True)
    _add_int_flag(res, "--n", cap=MAX_INDEX, required=True)
    res.add_argument("--json", action="store_true")
    res.set_defaults(func=cmd_resultant)

    fac = sub.add_parser("factor", help="factor a polynomial")
    _add_field_flags(fac)
    fac.add_argument("poly", help="polynomial expression")
    fac.add_argument("--squarefree", action="store_true")
    _add_int_flag(fac, "--seed")
    fac.add_argument("--json", action="store_true")
    fac.set_defaults(func=cmd_factor)

    return parser


def _join_poly_values(argv):
    """Rewrite "--a -x+3" as "--a=-x+3".

    argparse reads a value that starts with "-" as the next flag; the joined
    form passes it through as the value.
    """
    out = []
    for arg in argv:
        if out and out[-1] in ("--a", "--b") and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_join_poly_values(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except SeqdivError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
