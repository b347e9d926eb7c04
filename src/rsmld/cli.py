"""Command-line front end.

Subcommands:

    encode    message coefficients -> word JSON
    corrupt   word JSON -> word JSON with seeded random errors
    decode    word JSON -> all nearest codewords
    params    interpolation parameter optimizer, as a table or JSON
    repro     run the built-in reference cases

All randomized commands require an explicit --seed and produce
byte-identical output for identical inputs.  Exit codes: 0 success,
2 invalid input, 3 search radius cap hit, 4 no workable interpolation
parameters.
"""

from __future__ import annotations

import argparse
import json
import sys

from .code import OracleBudgetExceeded, RSCode, Word, corrupt
from .division import RadiusCapExceeded, decode_minimal
from .fields import parse_field
from .groebner import mgb_euclid
from .rational import decode_rational
from .ratparams import InfeasibleParams, InterpParams, optimize_params, wu_params
from .repro import run_all

_JSON_SEP = (", ", ": ")


def _print_json(obj: dict) -> None:
    print(json.dumps(obj, separators=_JSON_SEP))


def _int_list(text: str) -> list[int]:
    # every entry must be an integer: "1,,2" is an error, not [1, 2]
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _read_word(path: str) -> Word:
    if path == "-":
        return Word.from_json(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return Word.from_json(fh.read())


def _build_code(args: argparse.Namespace) -> RSCode:
    field = parse_field(args.field)
    return RSCode(field, args.n, args.k, eval_points=args.eval_points)


def cmd_encode(args: argparse.Namespace) -> int:
    code = _build_code(args)
    word = code.encode(code.message_poly(args.msg))
    print(word.to_json())
    return 0


def cmd_corrupt(args: argparse.Namespace) -> int:
    word = _read_word(args.word)
    print(corrupt(word, args.weight, args.seed).to_json())
    return 0


def _params_dict(p: InterpParams) -> dict:
    return {"t": p.t, "k1": p.k1, "k2": p.k2, "s": p.s, "M": p.M,
            "rho": p.rho, "N": p.N, "U": p.U, "cost": p.cost,
            "source": p.source}


_METHOD_RUNNERS = {
    "division": lambda code, word, args: decode_minimal(
        code, word, j_cap=args.j_cap, beyond_johnson=args.beyond_johnson),
    "rational": lambda code, word, args: decode_rational(
        code, word, j_cap=args.j_cap, beyond_johnson=args.beyond_johnson),
    "oracle": lambda code, word, args: code.ml_oracle(
        word, budget=args.oracle_budget),
}


def cmd_decode(args: argparse.Namespace) -> int:
    word = _read_word(args.word)
    code = word.code

    method = args.method
    if method == "all":
        results = {name: _METHOD_RUNNERS[name](code, word, args)
                   for name in ("division", "rational")}
        try:
            results["oracle"] = _METHOD_RUNNERS["oracle"](code, word, args)
        except OracleBudgetExceeded:
            pass  # q**k is past the budget: compare the other two
        first = results["division"]
        for name, res in results.items():
            if res != first:
                print(f"error: method {name} disagrees with division: "
                      f"d={res.min_distance} messages={res.message_coeff_lists()} "
                      f"vs d={first.min_distance} "
                      f"messages={first.message_coeff_lists()}",
                      file=sys.stderr)
                return 1
        outcome, agreed = first, list(results)
    else:
        outcome, agreed = _METHOD_RUNNERS[method](code, word, args), [method]

    basis = None
    if args.dump_basis:
        basis = mgb_euclid(code, word).to_json_dict()

    if args.output == "json":
        doc = {
            "v": 1,
            "min_distance": outcome.min_distance,
            "messages": outcome.message_coeff_lists(),
            "method": method,
            "methods_agreed": agreed,
            "search_level": outcome.search_level,
            "ell1": outcome.ell1,
            "ell2": outcome.ell2,
            "params": [_params_dict(p) for p in outcome.params_used],
        }
        if basis is not None:
            doc["basis"] = basis
        _print_json(doc)
        return 0

    print(f"min_distance: {outcome.min_distance}")
    print(f"method: {method}")
    print(f"methods_agreed: {', '.join(agreed)}")
    if outcome.search_level is not None:
        print(f"search_level: {outcome.search_level}")
    if outcome.ell1 is not None:
        print(f"basis degrees: ell1={outcome.ell1} ell2={outcome.ell2}")
    for p in outcome.params_used:
        print(f"fit: s={p.s} M={p.M} rho={p.rho} N={p.N} U={p.U} ({p.source})")
    print(f"messages: {len(outcome.messages)}")
    for m in outcome.messages:
        print(f"  {list(m.coeffs)}  {m}")
    if basis is not None:
        print(f"basis: {json.dumps(basis, separators=_JSON_SEP)}")
    return 0


def cmd_params(args: argparse.Namespace) -> int:
    res = optimize_params(args.n, args.k, args.t, args.k1, args.k2)
    try:
        wu = wu_params(args.n, args.k, args.t, args.k1, args.k2)
    except InfeasibleParams:
        wu = None

    if args.output == "json":
        doc = {
            "v": 1,
            "n": args.n, "k": args.k, "t": args.t,
            "k1": args.k1, "k2": args.k2,
            "s_low": res.s_low, "s_high": res.s_high,
            "scan": [{"s": sc.s, "N": sc.N, "disc": str(sc.disc),
                      "M1": None if sc.M1 is None else float(sc.M1),
                      "M2": None if sc.M2 is None else float(sc.M2),
                      "feasible": sc.feasible} for sc in res.scan],
            "rows": [_params_dict(p) for p in res.rows],
            "best": _params_dict(res.best),
            "wu": None if wu is None else _params_dict(wu),
        }
        _print_json(doc)
        return 0

    print(f"code: n={args.n} k={args.k}  radius t={args.t}  "
          f"fit degrees k1={args.k1} k2={args.k2}")
    print(f"multiplicity range tried: {res.s_low}..{res.s_high}")
    for sc in res.scan:
        if sc.M1 is None:
            print(f"  s={sc.s}: N={sc.N} disc={sc.disc} "
                  f"no real interval")
        else:
            gap = f"M in [{sc.m_low}, {sc.m_high}]" if sc.feasible \
                else "no integer in interval"
            print(f"  s={sc.s}: N={sc.N} roots ({float(sc.M1):.4f}, "
                  f"{float(sc.M2):.4f}) {gap}")
    print("rows:")
    for p in res.rows:
        star = "  *" if p == res.best else ""
        print(f"  M={p.M} rho={p.rho} N={p.N} U={p.U} cost={p.cost}{star}")
    print(f"optimum: s={res.best.s} M={res.best.M} rho={res.best.rho} "
          f"N={res.best.N} U={res.best.U} cost={res.best.cost}")
    if wu is None:
        print("closed form: infeasible")
    else:
        print(f"closed form: s={wu.s} M={wu.M} rho={wu.rho} "
              f"N={wu.N} U={wu.U} cost={wu.cost}")
    return 0


def cmd_repro(args: argparse.Namespace) -> int:
    suites = run_all()
    passed = sum(1 for _, checks in suites for c in checks if c.ok)
    failed = sum(1 for _, checks in suites for c in checks if not c.ok)

    if args.output == "json":
        _print_json({
            "v": 1,
            "suites": [{"name": name,
                        "checks": [{"name": c.name, "ok": c.ok,
                                    "detail": c.detail} for c in checks]}
                       for name, checks in suites],
            "passed": passed,
            "failed": failed,
        })
        return 0 if failed == 0 else 1

    for name, checks in suites:
        print("=" * 60)
        print(name)
        print("=" * 60)
        for c in checks:
            if c.ok:
                print(f"  ✅ {c.name}")
            else:
                print(f"  ❌ {c.name}: {c.detail}")
    print("=" * 60)
    print(f"passed: {passed}, failed: {failed}")
    return 0 if failed == 0 else 1


def _add_code_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--field", required=True,
                     help='field label, e.g. "p:7" or "2^4" or "2^4:0b10011"')
    sub.add_argument("--n", type=int, required=True, help="code length")
    sub.add_argument("--k", type=int, required=True, help="message length")
    sub.add_argument("--eval-points", type=_int_list, default=None,
                     help="comma-separated evaluation points (default 0..n-1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsmld",
        description="Minimal list decoding of Reed-Solomon codes.")
    subs = parser.add_subparsers(dest="command", required=True)

    enc = subs.add_parser("encode", help="encode a message into a word JSON")
    _add_code_arguments(enc)
    enc.add_argument("--msg", type=_int_list, required=True,
                     help="comma-separated message coefficients, low degree first")
    enc.set_defaults(func=cmd_encode)

    cor = subs.add_parser("corrupt", help="add seeded random errors to a word")
    cor.add_argument("--word", required=True,
                     help='word JSON file, or "-" for stdin')
    cor.add_argument("--weight", type=int, required=True,
                     help="number of positions to corrupt")
    cor.add_argument("--seed", type=int, required=True,
                     help="PRNG seed (required: runs must be reproducible)")
    cor.set_defaults(func=cmd_corrupt)

    dec = subs.add_parser("decode", help="find all nearest codewords")
    dec.add_argument("--word", required=True,
                     help='word JSON file, or "-" for stdin')
    dec.add_argument("--method", choices=[*_METHOD_RUNNERS, "all"],
                     default="division")
    dec.add_argument("--j-cap", type=int, default=None,
                     help="search levels 0..J only (J >= 0)")
    dec.add_argument("--beyond-johnson", action="store_true",
                     help="keep searching past the Johnson radius, up to n-k")
    dec.add_argument("--oracle-budget", type=int, default=10_000_000,
                     help="max q^k codewords for the oracle (--method oracle "
                          "or all), whichever enumeration it takes")
    dec.add_argument("--dump-basis", action="store_true",
                     help="also emit the normalized module basis")
    dec.add_argument("--output", choices=["text", "json"], default="text")
    dec.set_defaults(func=cmd_decode)

    par = subs.add_parser("params", help="interpolation parameter optimizer")
    par.add_argument("--n", type=int, required=True)
    par.add_argument("--k", type=int, required=True)
    par.add_argument("--t", type=int, required=True, help="target radius")
    par.add_argument("--k1", type=int, required=True,
                     help="numerator degree bound")
    par.add_argument("--k2", type=int, required=True,
                     help="denominator degree bound")
    par.add_argument("--output", choices=["text", "json"], default="text")
    par.set_defaults(func=cmd_params)

    rep = subs.add_parser("repro", help="run the built-in reference cases")
    rep.add_argument("--output", choices=["text", "json"], default="text")
    rep.set_defaults(func=cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RadiusCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
