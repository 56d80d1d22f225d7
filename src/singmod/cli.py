"""Batch command line: reduced forms, g_{2n}, k_n, tables, jpoly, verifications.

Exit codes: 0 success, 1 verification residual above tolerance, 2 usage,
3 internal failure (no exact square root and similar).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import mpmath as mp

from . import highprec, modulus, pell, qforms, weber
from .surd import NotASquareError


def _json_dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _emit(payload, fmt: str, text_renderer, tsv_renderer) -> None:
    if fmt == "json":
        print(_json_dump(payload))
    elif fmt == "tsv":
        print(tsv_renderer(payload))
    else:
        print(text_renderer(payload))


def _nstr(x, prec: int) -> str:
    return mp.nstr(x, prec, strip_zeros=False)


def cmd_forms(args) -> int:
    forms = qforms.reduced_forms(args.disc)
    payload = {
        "discriminant": args.disc,
        "class_number": len(forms),
        "forms": [{"a": F.a, "b": F.b, "c": F.c} for F in forms],
    }

    def text(p):
        lines = [f"reduced forms, discriminant {p['discriminant']}:"]
        for i, F in enumerate(forms, 1):
            lines.append(f"  {i}. {F}")
        lines.append(f"class number h({p['discriminant']}) = {p['class_number']}")
        return "\n".join(lines)

    def tsv(p):
        lines = ["a\tb\tc"] + [f"{F.a}\t{F.b}\t{F.c}" for F in forms]
        return "\n".join(lines)

    _emit(payload, args.format, text, tsv)
    return 0


def cmd_g2n(args) -> int:
    prec = args.prec
    product, value = weber.g2n(args.n, prec)
    with highprec.working_precision(prec):
        qseries = highprec.gn_numeric(2 * args.n, prec)
        residual = value - qseries
    payload = {
        "n": 2 * args.n,
        "product": str(product),
        "value": _nstr(value, prec),
        "qseries_residual": mp.nstr(residual, 3),
    }

    def text(p):
        return (
            f"g_{p['n']} = {p['product']}\n"
            f"      = {p['value']}\n"
            f"q-series residual: {p['qseries_residual']}"
        )

    def tsv(p):
        return f"n\tproduct\tvalue\tresidual\n{p['n']}\t{p['product']}\t{p['value']}\t{p['qseries_residual']}"

    _emit(payload, args.format, text, tsv)
    return 0


def cmd_kn(args) -> int:
    prec = args.prec
    sm = modulus.singular_modulus(args.n, prec)
    payload = {
        "n": args.n,
        "k": _nstr(sm.k_numeric, prec),
        "alpha": _nstr(sm.alpha_numeric, prec),
        "ratio_residual": mp.nstr(sm.ratio_residual, 3),
        "k_product": str(sm.k_product) if sm.k_product is not None else None,
        "exact": sm.k_surd is not None,
    }
    if sm.witness is not None:
        payload["witness"] = {
            k: str(getattr(sm.witness, k)) for k in ("alpha", "beta", "a", "b", "c", "d")
        }

    def text(p):
        lines = [f"k_{p['n']}:"]
        if p["k_product"]:
            lines.append(f"  = {p['k_product']}")
        lines.append(f"  = {p['k']}")
        lines.append(f"  alpha = {p['alpha']}")
        if "witness" in p:
            w = p["witness"]
            lines.append(f"  quartet: a = {w['a']}; b = {w['b']}; c = {w['c']}; d = {w['d']}")
        lines.append(f"  F-ratio residual: {p['ratio_residual']}")
        return "\n".join(lines)

    def tsv(p):
        return (
            "n\tk\talpha\tproduct\tresidual\n"
            f"{p['n']}\t{p['k']}\t{p['alpha']}\t{p['k_product'] or ''}\t{p['ratio_residual']}"
        )

    _emit(payload, args.format, text, tsv)
    return 0


def cmd_tables(args) -> int:
    data = weber.weighted_sum_table(args.m)
    deltas = data["deltas"]
    payload = {
        "m": args.m,
        "deltas": deltas,
        "jacobi_rows": [
            {"label": row["label"], "chi": [row["chi"][d] for d in deltas]}
            for row in data["rows"]
        ],
        "differences": [
            {"delta": d, "by_A": data["differences"][d]} for d in deltas
        ],
        "survivors": [
            {"delta": s.delta, "delta_prime": s.pair.delta_prime, "coefficients": s.coefficients}
            for s in data["survivors"]
        ],
    }

    def text(p):
        width = 5
        head = "chi".ljust(10) + "".join(str(d).rjust(width) for d in deltas)
        lines = [f"weighted-sum tables for m = {p['m']}", head]
        for row in p["jacobi_rows"]:
            lines.append(
                f"(d/{row['label']})".ljust(10)
                + "".join(str(v).rjust(width) for v in row["chi"])
            )
        lines.append("")
        lines.append("coefficient differences (per pair, by odd A):")
        a_keys = sorted(p["differences"][0]["by_A"])
        lines.append("delta".ljust(8) + "".join(f"A={a}".rjust(width + 1) for a in a_keys))
        for entry in p["differences"]:
            lines.append(
                str(entry["delta"]).ljust(8)
                + "".join(str(entry["by_A"][a]).rjust(width + 1) for a in a_keys)
            )
        lines.append("")
        lines.append("survivors: " + ", ".join(str(s["delta"]) for s in p["survivors"]))
        return "\n".join(lines)

    def tsv(p):
        lines = ["label\t" + "\t".join(str(d) for d in deltas)]
        for row in p["jacobi_rows"]:
            lines.append(str(row["label"]) + "\t" + "\t".join(str(v) for v in row["chi"]))
        return "\n".join(lines)

    _emit(payload, args.format, text, tsv)
    return 0


def cmd_jpoly(args) -> int:
    coeffs = highprec.class_polynomial(args.disc)
    payload = {"discriminant": args.disc, "coefficients": [str(c) for c in coeffs]}

    def text(p):
        lines = [f"class polynomial for discriminant {p['discriminant']} (monic, degree {len(coeffs) - 1}):"]
        for i, c in enumerate(coeffs):
            lines.append(f"  x^{len(coeffs) - 1 - i}: {c}")
        return "\n".join(lines)

    def tsv(p):
        return "\n".join(f"{len(coeffs) - 1 - i}\t{c}" for i, c in enumerate(coeffs))

    _emit(payload, args.format, text, tsv)
    return 0


def _verify_payload(name: str, residual, tol, extra=None) -> tuple[dict, int]:
    ok = abs(residual) < tol
    payload = {
        "check": name,
        "residual": mp.nstr(residual, 6),
        "tolerance": mp.nstr(mp.mpf(tol), 3),
        "pass": bool(ok),
    }
    if extra:
        payload.update(extra)
    return payload, 0 if ok else 1


def cmd_verify(args) -> int:
    tol = mp.mpf(args.tol) if args.tol else None
    if args.check == "ratio":
        sm = modulus.singular_modulus(args.n, args.prec)
        payload, code = _verify_payload(
            f"F(1-a)/F(a) = sqrt({args.n})",
            sm.ratio_residual,
            tol if tol is not None else mp.mpf("1e-30"),
            {"alpha": _nstr(sm.alpha_numeric, args.prec)},
        )
    elif args.check == "dirichlet":
        prec = args.prec
        delta = args.delta
        with highprec.working_precision(prec):
            finite = highprec.dirichlet_l_one(delta, prec)
            K = qforms.weighted_class_number(delta)
            if delta < 0:
                closed = mp.pi / mp.sqrt(-delta) * K.numerator / K.denominator
            else:
                eps = pell.unit_value(pell.solve_even_pell(delta)).evalf()
                closed = mp.log(eps) / mp.sqrt(delta) * K.numerator / K.denominator
            residual = finite - closed
        payload, code = _verify_payload(
            f"L(1, chi_{delta}) class number formula",
            residual,
            tol if tol is not None else mp.mpf(10) ** (10 - prec),
            {"finite_sum": _nstr(finite, prec), "closed_form": _nstr(closed, prec)},
        )
    elif args.check == "formula-g":
        residual = highprec.verify_formula_g(args.a, args.c, args.prec)
        payload, code = _verify_payload(
            f"Epstein pair difference = 4 pi/sqrt(m) ln g, A={args.a}, C={args.c}",
            residual,
            tol if tol is not None else mp.mpf("1e-8"),
        )
    else:  # grenzformel
        residual = highprec.verify_grenzformel(args.a, args.b, args.c, args.prec)
        payload, code = _verify_payload(
            f"Epstein constant term, form ({args.a}, {args.b}, {args.c})",
            residual,
            tol if tol is not None else mp.mpf("1e-8"),
        )

    def text(p):
        status = "PASS" if p["pass"] else "FAIL"
        return f"{status}  {p['check']}: residual {p['residual']} (tol {p['tolerance']})"

    def tsv(p):
        return f"check\tresidual\ttolerance\tpass\n{p['check']}\t{p['residual']}\t{p['tolerance']}\t{int(p['pass'])}"

    _emit(payload, args.format, text, tsv)
    return code


def _positive_int(text: str) -> int:
    """A precision in decimal digits: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


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

    def add_common(p, prec=default_prec):
        p.add_argument("--prec", type=_positive_int, default=prec, help="working precision, decimal digits")
        p.add_argument("--format", choices=("text", "tsv", "json"), default="text")

    p_forms = sub.add_parser("forms", help="reduced forms and class number")
    p_forms.add_argument("--disc", type=int, required=True)
    p_forms.add_argument("--format", choices=("text", "tsv", "json"), default="text")
    p_forms.set_defaults(func=cmd_forms)

    p_g = sub.add_parser("g2n", help="Weber invariant g_{2n} as an exact unit product")
    p_g.add_argument("--n", type=int, required=True, help="g_{2n} is computed for this n")
    add_common(p_g, max(default_prec, 60))
    p_g.set_defaults(func=cmd_g2n)

    p_k = sub.add_parser("kn", help="singular modulus k_n")
    p_k.add_argument("--n", type=int, required=True)
    add_common(p_k)
    p_k.set_defaults(func=cmd_kn)

    p_t = sub.add_parser("tables", help="Jacobi symbol table and surviving sums")
    p_t.add_argument("--m", type=int, required=True)
    p_t.add_argument("--format", choices=("text", "tsv", "json"), default="text")
    p_t.set_defaults(func=cmd_tables)

    p_j = sub.add_parser("jpoly", help="integer coefficients of the class polynomial")
    p_j.add_argument("--disc", type=int, default=-840)
    p_j.add_argument("--format", choices=("text", "tsv", "json"), default="text")
    p_j.set_defaults(func=cmd_jpoly)

    p_v = sub.add_parser("verify", help="numerical verifications with residual report")
    v_sub = p_v.add_subparsers(dest="check", required=True)

    v_ratio = v_sub.add_parser("ratio", help="F(1-a)/F(a) = sqrt(n) for the computed modulus")
    v_ratio.add_argument("--n", type=int, required=True)
    v_ratio.add_argument("--tol", default=None)
    add_common(v_ratio)
    v_ratio.set_defaults(func=cmd_verify)

    v_diri = v_sub.add_parser("dirichlet", help="finite L-sum against the class number formula")
    v_diri.add_argument("--delta", type=int, required=True)
    v_diri.add_argument("--tol", default=None)
    add_common(v_diri, 40)
    v_diri.set_defaults(func=cmd_verify)

    v_fg = v_sub.add_parser("formula-g", help="Epstein pair difference against ln g")
    v_fg.add_argument("--a", type=int, required=True)
    v_fg.add_argument("--c", type=int, required=True)
    v_fg.add_argument("--tol", default=None)
    add_common(v_fg, 30)
    v_fg.set_defaults(func=cmd_verify)

    v_gr = v_sub.add_parser("grenzformel", help="Epstein constant term against the closed form")
    v_gr.add_argument("--a", type=int, required=True)
    v_gr.add_argument("--b", type=int, default=0)
    v_gr.add_argument("--c", type=int, required=True)
    v_gr.add_argument("--tol", default=None)
    add_common(v_gr, 30)
    v_gr.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotASquareError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
