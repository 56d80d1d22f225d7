#!/usr/bin/env python3
"""Regenerate bench/reference.json, the class polynomial coefficients the checks compare against.

    python3 bench/make_reference.py

Each polynomial is computed at 3000 digits, three times the precision the
benchmark requests, and must agree with the 1000-digit result; its degree
must equal the number of reduced forms, and the -840 polynomial must carry the
paper's a1 and a8 digit for digit.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from singmod import highprec, qforms  # noqa: E402

from checks import JPOLY_PREC, REFERENCE_PATH  # noqa: E402
from workloads import CONVENIENT  # noqa: E402

PAPER_840_A1 = -3494487845306481075093315600749304691200
PAPER_840_A8 = int(
    "7587169380271379738636919142674280077130439504327732605512510089785122"
    "099137867107270656000000000000"
)


def main() -> None:
    polys = {}
    for n in CONVENIENT:
        disc = -4 * n
        coeffs = highprec.class_polynomial(disc, 3 * JPOLY_PREC)
        if coeffs != highprec.class_polynomial(disc, JPOLY_PREC):
            raise SystemExit(f"class polynomial of {disc} differs between precisions")
        if len(coeffs) - 1 != len(qforms.reduced_forms(disc)) or coeffs[0] != 1:
            raise SystemExit(f"class polynomial of {disc} is not monic of degree h")
        polys[str(disc)] = coeffs
    if polys["-840"][1] != PAPER_840_A1 or polys["-840"][8] != PAPER_840_A8:
        raise SystemExit("the -840 polynomial differs from the paper")
    REFERENCE_PATH.write_text(json.dumps({"class_polynomials": polys}, indent=1) + "\n")


if __name__ == "__main__":
    main()
