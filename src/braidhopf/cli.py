"""Command line: evaluate structure maps of a presented algebra, run the
check catalog, the positivity checker, and the braiding obstruction."""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import Algebra, Tensor, tensor_product
from .braidtensor import braided_product, comul
from .deform import Deformation, conv_exp
from .presentation import parse_presentation, parse_psi, parse_scalar
from .verify import (q_presentation, qnogo_eval, require_confluence,
                     run_catalog, schoenberg_check)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

_BINARY_OPS = ("mul", "mu_t", "expL")
_UNARY_OPS = ("comul", "antipode", "s_t", "sigma")


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def _t_value(text: str):
    """A value of t: a real scalar in the parse_scalar grammar, as a
    Fraction."""
    t = parse_scalar(text)
    if t.im:
        raise ValueError(f"t must be real, got {text!r}")
    return t.re


def _print_reports(reports, fmt: str):
    if fmt == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
        return
    for r in reports:
        tag = {"pass": "pass", "fail": "FAIL", "skipped": "skip"}[r.status]
        line = f"[{tag}] {r.id} (degree {r.degree})"
        if r.witness:
            line += " -- " + "; ".join(
                f"{k}: {v}" for k, v in r.witness.items())
        print(line)


def cmd_verify(args) -> int:
    pres = _load(args.presentation)
    ids = None
    if args.checks is not None:
        ids = [s.strip() for s in args.checks.split(",") if s.strip()]
    reports = run_catalog(pres, ids, max_degree=args.max_degree)
    _print_reports(reports, args.format)
    return EXIT_OK if all(r.ok() for r in reports) else EXIT_FAIL


def cmd_eval(args) -> int:
    pres = _load(args.presentation)
    alg = Algebra(pres)
    require_confluence(alg)
    defm = Deformation(alg)
    lhs = alg.parse_element(args.lhs)
    if args.op in _BINARY_OPS:
        if args.rhs is None:
            raise ValueError(f"--op {args.op} needs --rhs")
        rhs = alg.parse_element(args.rhs)
    elif args.rhs is not None:
        raise ValueError(f"--op {args.op} takes no --rhs")

    if args.op == "mul":
        out = braided_product(alg, lhs, rhs)
    elif args.op == "mu_t":
        out = defm.mu_t(tensor_product(lhs, rhs))
    elif args.op == "expL":
        out = Tensor(0, {(): conv_exp(defm.L, tensor_product(lhs, rhs))})
    elif args.op == "comul":
        out = comul(alg, lhs)
    elif args.op == "antipode":
        out = alg.antipode(lhs)
    elif args.op == "s_t":
        out = defm.st(lhs)
    else:
        out = Tensor(0, {(): defm.sigma(lhs)})

    if args.t is not None:
        out = out.substitute(_t_value(args.t))
    print(alg.format(out))
    return EXIT_OK


def cmd_schoenberg(args) -> int:
    pres = _load(args.presentation)
    psi = None
    if args.psi is not None:
        with open(args.psi, "r", encoding="utf-8") as fh:
            psi = parse_psi(fh.read(), pres)
    t_samples = [_t_value(s) for s in args.t.split(",") if s.strip()]
    result = schoenberg_check(pres, psi, max_degree=args.max_degree,
                              t_samples=t_samples)
    if args.format == "json":
        print(json.dumps({
            "conditional": result.conditional.to_dict(),
            "states": [r.to_dict() for r in result.states],
            "equivalence_observed": result.equivalence_observed,
        }, indent=2))
    else:
        _print_reports(result.reports(), "text")
        print("equivalence observed: "
              + ("yes" if result.equivalence_observed else "no"))
    return EXIT_OK if result.ok() else EXIT_FAIL


def cmd_qnogo(args) -> int:
    q = parse_scalar(args.q)
    t0 = _t_value(args.t)
    lhs, rhs = qnogo_eval(q)
    equal = lhs == rhs
    lhs, rhs = lhs.substitute(t0), rhs.substitute(t0)
    alg = Algebra(q_presentation(q))
    if args.format == "json":
        print(json.dumps({"q": str(q), "t": str(t0),
                          "lhs": alg.format(lhs), "rhs": alg.format(rhs),
                          "equal": equal}, indent=2))
    else:
        print(f"lhs = {alg.format(lhs)}")
        print(f"rhs = {alg.format(rhs)}")
        print("equal" if equal else "unequal")
    return EXIT_OK if equal else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="braidhopf",
        description="exact additive deformations of presented braided "
                    "Hopf *-algebras")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the check catalog")
    v.add_argument("presentation", help="presentation file (.alg)")
    v.add_argument("--checks", help="comma-separated check ids (default all)")
    v.add_argument("--max-degree", type=int, default=4)
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("eval", help="evaluate one structure map")
    e.add_argument("presentation", help="presentation file (.alg)")
    e.add_argument("--op", required=True, choices=_BINARY_OPS + _UNARY_OPS)
    e.add_argument("--lhs", required=True, help="element expression")
    e.add_argument("--rhs", help="second element (binary ops)")
    e.add_argument("--t", help="substitute a real scalar for t")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("schoenberg",
                       help="conditional positivity and the state family")
    s.add_argument("presentation", help="presentation file (.alg)")
    s.add_argument("--psi", help="support table file (.psi); default zero")
    s.add_argument("--max-degree", type=int, default=4)
    s.add_argument("--t", default="0,1/2,1,2",
                   help="comma-separated real sample points")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.set_defaults(func=cmd_schoenberg)

    n = sub.add_parser("qnogo",
                       help="both sides of the diagonal-braiding obstruction")
    n.add_argument("--q", required=True, help="nonzero scalar")
    n.add_argument("--t", default="1", help="real value for t")
    n.add_argument("--format", choices=("text", "json"), default="text")
    n.set_defaults(func=cmd_qnogo)
    return p


# options whose value may start with "-": a negative sample list or q, or an
# element such as "-x", which argparse would otherwise take for an option
_VALUE_OPTIONS = ("--t", "--q", "--lhs", "--rhs")


def _attach_values(argv):
    """Rewrite '--t -1,0' to '--t=-1,0' for the value options."""
    out = []
    for arg in argv:
        if (out and out[-1] in _VALUE_OPTIONS and arg.startswith("-")
                and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_values(argv))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
