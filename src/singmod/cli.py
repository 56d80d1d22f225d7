"""Batch command line: reduced forms, g_{2n}, k_n, tables, jpoly, verifications.

Every command returns a `Record`, which `main` renders as text, tsv or json.
Exit codes: 0 success, 1 verification residual not below its tolerance
(10^(10 - prec) unless --tol is given), 2 usage, 3 internal failure (no exact
square root and similar).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import mpmath as mp

from . import highprec, modulus, pell, qforms, weber
from .surd import NotASquareError


@dataclass
class Record:
    """What one command computed: the json payload, the tsv rows and the text."""

    payload: dict
    rows: list[dict]
    text: str
    residual: object = None
    tolerance: object = None


def _json_dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _tsv(rows: list[dict]) -> str:
    """A header line of the row keys, then one line per row."""
    lines = ["\t".join(rows[0])]
    lines += ["\t".join(str(v) for v in row.values()) for row in rows]
    return "\n".join(lines)


def _nstr(x, prec: int) -> str:
    return mp.nstr(x, prec, strip_zeros=False)


def cmd_forms(args) -> Record:
    forms = qforms.reduced_forms(args.disc)
    rows = [{"a": F.a, "b": F.b, "c": F.c} for F in forms]
    lines = [f"reduced forms, discriminant {args.disc}:"]
    lines += [f"  {i}. {F}" for i, F in enumerate(forms, 1)]
    lines.append(f"class number h({args.disc}) = {len(forms)}")
    payload = {"discriminant": args.disc, "class_number": len(forms), "forms": rows}
    return Record(payload, rows, "\n".join(lines))


def cmd_g2n(args) -> Record:
    prec = args.prec
    product, value = weber.g2n(args.n, prec)
    with highprec.working_precision(prec):
        residual = value - highprec.gn_numeric(2 * args.n, prec)
    p = {
        "n": 2 * args.n,
        "product": str(product),
        "value": _nstr(value, prec),
        "qseries_residual": mp.nstr(residual, 3),
    }
    row = {"n": p["n"], "product": p["product"], "value": p["value"], "residual": p["qseries_residual"]}
    text = f"g_{p['n']} = {p['product']}\n      = {p['value']}\nq-series residual: {p['qseries_residual']}"
    return Record(p, [row], text)


def cmd_kn(args) -> Record:
    prec = args.prec
    sm = modulus.singular_modulus(args.n, prec)
    p = {
        "n": args.n,
        "k": _nstr(sm.k_numeric, prec),
        "alpha": _nstr(sm.alpha_numeric, prec),
        "ratio_residual": mp.nstr(sm.ratio_residual, 3),
        "k_product": str(sm.k_product) if sm.k_product is not None else None,
        "exact": sm.k_surd is not None,
    }
    lines = [f"k_{args.n}:"]
    if p["k_product"]:
        lines.append(f"  = {p['k_product']}")
    lines += [f"  = {p['k']}", f"  alpha = {p['alpha']}"]
    if sm.witness is not None:
        w = p["witness"] = {k: str(getattr(sm.witness, k)) for k in ("alpha", "beta", "a", "b", "c", "d")}
        lines.append(f"  quartet: a = {w['a']}; b = {w['b']}; c = {w['c']}; d = {w['d']}")
    lines.append(f"  F-ratio residual: {p['ratio_residual']}")
    row = {"n": args.n, "k": p["k"], "alpha": p["alpha"], "product": p["k_product"] or "",
           "residual": p["ratio_residual"]}
    return Record(p, [row], "\n".join(lines))


def cmd_tables(args) -> Record:
    data = weber.weighted_sum_table(args.m)
    deltas = data["deltas"]
    jacobi_rows = [
        {"label": row["label"], "chi": [row["chi"][d] for d in deltas]} for row in data["rows"]
    ]
    payload = {
        "m": args.m,
        "deltas": deltas,
        "jacobi_rows": jacobi_rows,
        "differences": [{"delta": d, "by_A": data["differences"][d]} for d in deltas],
        "survivors": [
            {"delta": s.delta, "delta_prime": s.pair.delta_prime, "coefficients": s.coefficients}
            for s in data["survivors"]
        ],
    }
    width = 5
    lines = [
        f"weighted-sum tables for m = {args.m}",
        "chi".ljust(10) + "".join(str(d).rjust(width) for d in deltas),
    ]
    for row in jacobi_rows:
        lines.append(f"(d/{row['label']})".ljust(10) + "".join(str(v).rjust(width) for v in row["chi"]))
    lines += ["", "coefficient differences (per pair, by odd A):"]
    a_keys = sorted(payload["differences"][0]["by_A"])
    lines.append("delta".ljust(8) + "".join(f"A={a}".rjust(width + 1) for a in a_keys))
    for entry in payload["differences"]:
        lines.append(
            str(entry["delta"]).ljust(8) + "".join(str(entry["by_A"][a]).rjust(width + 1) for a in a_keys)
        )
    lines += ["", "survivors: " + ", ".join(str(s["delta"]) for s in payload["survivors"])]
    rows = [{"label": row["label"], **dict(zip(map(str, deltas), row["chi"]))} for row in jacobi_rows]
    return Record(payload, rows, "\n".join(lines))


def cmd_jpoly(args) -> Record:
    coeffs = highprec.class_polynomial(args.disc)
    degree = len(coeffs) - 1
    rows = [{"degree": degree - i, "coefficient": c} for i, c in enumerate(coeffs)]
    lines = [f"class polynomial for discriminant {args.disc} (monic, degree {degree}):"]
    lines += [f"  x^{r['degree']}: {r['coefficient']}" for r in rows]
    payload = {"discriminant": args.disc, "coefficients": [str(c) for c in coeffs]}
    return Record(payload, rows, "\n".join(lines))


def check_ratio(args):
    sm = modulus.singular_modulus(args.n, args.prec)
    extra = {"alpha": _nstr(sm.alpha_numeric, args.prec)}
    return f"F(1-a)/F(a) = sqrt({args.n})", sm.ratio_residual, extra


def check_dirichlet(args):
    prec, delta = args.prec, args.delta
    with highprec.working_precision(prec):
        finite = highprec.dirichlet_l_one(delta, prec)
        K = qforms.weighted_class_number(delta)
        if delta < 0:
            closed = mp.pi / mp.sqrt(-delta) * K.numerator / K.denominator
        else:
            eps = pell.unit_value(pell.solve_even_pell(delta)).evalf()
            closed = mp.log(eps) / mp.sqrt(delta) * K.numerator / K.denominator
        residual = finite - closed
    extra = {"finite_sum": _nstr(finite, prec), "closed_form": _nstr(closed, prec)}
    return f"L(1, chi_{delta}) class number formula", residual, extra


def check_formula_g(args):
    residual = highprec.verify_formula_g(args.a, args.c, args.prec)
    return f"Epstein pair difference = 4 pi/sqrt(m) ln g, A={args.a}, C={args.c}", residual, {}


def check_grenzformel(args):
    residual = highprec.verify_grenzformel(args.a, args.b, args.c, args.prec)
    return f"Epstein constant term, form ({args.a}, {args.b}, {args.c})", residual, {}


def cmd_verify(args) -> Record:
    label, residual, extra = args.run_check(args)
    tol = args.tol or mp.mpf(10) ** (10 - args.prec)
    ok = abs(residual) < tol
    row = {"check": label, "residual": mp.nstr(residual, 6), "tolerance": mp.nstr(tol, 3), "pass": int(ok)}
    text = f"{'PASS' if ok else 'FAIL'}  {label}: residual {row['residual']} (tol {row['tolerance']})"
    return Record({**row, "pass": bool(ok), **extra}, [row], text, residual, tol)


# name, help, check, default --prec (None: the global default), int options
CHECKS = (
    ("ratio", "F(1-a)/F(a) = sqrt(n) for the computed modulus", check_ratio, None, {"n": None}),
    ("dirichlet", "finite L-sum against the class number formula", check_dirichlet, 40, {"delta": None}),
    ("formula-g", "Epstein pair difference against ln g", check_formula_g, 30, {"a": None, "c": None}),
    ("grenzformel", "Epstein constant term against the closed form", check_grenzformel, 30,
     {"a": None, "b": 0, "c": None}),
)


def _positive_int(text: str) -> int:
    """A precision in decimal digits: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_number(text: str):
    """A tolerance: a finite number above 0."""
    try:
        value = mp.mpf(text)
    except ValueError:
        value = mp.mpf(0)
    if not (mp.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _subcommand(sub, name, help, func, prec=None, **ints):
    """A subparser with int options (default None: required), --prec and --format.

    An int option's value is its default, or a (default, help) pair.
    """
    p = sub.add_parser(name, help=help)
    for flag, spec in ints.items():
        default, text = spec if isinstance(spec, tuple) else (spec, None)
        p.add_argument(f"--{flag}", type=int, required=default is None, default=default, help=text)
    if prec is not None:
        p.add_argument("--prec", type=_positive_int, default=prec, help="working precision, decimal digits")
    p.add_argument("--format", choices=("text", "tsv", "json"), default="text")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singmod",
        description="singular moduli, Weber invariants and their verifications",
    )
    try:
        default_prec = _positive_int(os.environ.get("SINGMOD_PREC", "50"))
    except argparse.ArgumentTypeError as err:
        parser.error(f"SINGMOD_PREC: {err}")
    sub = parser.add_subparsers(dest="command", required=True)
    _subcommand(sub, "forms", "reduced forms and class number", cmd_forms, disc=None)
    _subcommand(sub, "g2n", "Weber invariant g_{2n} as an exact unit product", cmd_g2n,
                max(default_prec, 60), n=(None, "g_{2n} is computed for this n"))
    _subcommand(sub, "kn", "singular modulus k_n", cmd_kn, default_prec, n=None)
    _subcommand(sub, "tables", "Jacobi symbol table and surviving sums", cmd_tables, m=None)
    _subcommand(sub, "jpoly", "integer coefficients of the class polynomial", cmd_jpoly, disc=-840)

    p_v = sub.add_parser("verify", help="numerical verifications with residual report")
    v_sub = p_v.add_subparsers(dest="check", required=True)
    for name, text, check, prec, ints in CHECKS:
        p = _subcommand(v_sub, name, text, cmd_verify, prec or default_prec, **ints)
        p.add_argument("--tol", type=_positive_number, default=None)
        p.set_defaults(run_check=check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        record = args.func(args)
    except NotASquareError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(_json_dump(record.payload))
    else:
        print(_tsv(record.rows) if args.format == "tsv" else record.text)
    failed = record.tolerance is not None and not abs(record.residual) < record.tolerance
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
