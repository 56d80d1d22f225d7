"""The benchmark's workloads: inputs, the closed loop that runs them, and tallies.

Import only with the checkout's ``src/`` on ``sys.path``; bench/run.py sets it.
"""

from __future__ import annotations

import gc
import math
import time
from collections import Counter
from contextlib import nullcontext

import mpmath as mp

import checks
from singmod import highprec, modulus

# Even idoneal n = 2 * (odd squarefree): the inputs of the exact descent.
CONVENIENT = (2, 6, 10, 22, 30, 42, 58, 70, 78, 102, 130, 190, 210, 330, 462)
NUMERIC_RANGE = range(1, 3001)


def workload_ops(name: str) -> list[tuple[str, int]]:
    """The inputs of one cycle, as (operation, n) pairs."""
    if name == "descent":
        return [("singular_modulus", n) for n in CONVENIENT]
    if name == "numeric":
        return [("singular_modulus", n) for n in NUMERIC_RANGE if n not in CONVENIENT]
    if name == "analytic":
        kinds = ("class_polynomial", "verify_grenzformel", "verify_formula_g")
        return [(kind, n) for n in CONVENIENT for kind in kinds]
    raise ValueError(f"unknown workload {name!r}")


# A cycle probes after every (ops // PROBES_PER_CYCLE)-th op, at least every op:
# 15 probes a cycle on descent, 31 on numeric, 45 on analytic.
PROBES_PER_CYCLE = 30


def probe() -> None:
    """A fixed unit of work that gauges the machine's speed; calls no singmod code.

    On a shared machine, other tenants' load can slow this code by up to
    1.6x, switching many times a second, in proportions that drift over
    minutes.  The probe's instruction mix follows the library's: dict and
    integer work, then mpmath at 60 and at 1000 digits.
    """
    d = {}
    for i in range(600):
        d[i % 97] = d.get(i % 97, 0) + i * i
    with mp.workdps(60):
        x = mp.mpf(2) / 3
        for i in range(6):
            x = mp.agm(1, x) ** 0.5 + mp.sqrt(i + 2)
    with mp.workdps(1000):
        x = mp.mpf(2) / 3
        for _ in range(2):
            x = x * x / (x + 1) + mp.sqrt(x)


def call(op):
    """Run one op through the library's public API.

    Functions are looked up on their modules at call time, so the traced run
    sees the wrapped versions.
    """
    kind, n = op
    if kind == "singular_modulus":
        return modulus.singular_modulus(n, checks.PREC)
    if kind == "class_polynomial":
        return highprec.class_polynomial(-4 * n, checks.JPOLY_PREC)
    if kind == "verify_grenzformel":
        return highprec.verify_grenzformel(1, 0, n, checks.EPSTEIN_PREC)
    if kind == "verify_formula_g":
        return highprec.verify_formula_g(1, n // 2, checks.EPSTEIN_PREC)
    raise ValueError(f"unknown op {kind!r}")


def check(op, output, reference) -> checks.Verdict:
    kind, n = op
    if kind == "singular_modulus":
        return checks.check_modulus(n, output)
    if kind == "class_polynomial":
        return checks.check_class_polynomial(-4 * n, output, reference)
    return checks.check_epstein(output)


class Tally:
    """Verdicts and timings of the measured cycles of one run."""

    def __init__(self):
        self.cycle_s: list[float] = []  # timed wall time of each cycle
        self.verdicts = Counter()
        self.routes = Counter()
        self.raised = Counter()
        self.wrong: list[str] = []
        self.op_s: dict[tuple, list[float]] = {}  # per input, one wall time per cycle
        self.probe_s: list[float] = []  # wall time of each probe()
        self.latencies_ms: dict[tuple, list[float]] = {}  # per passing input, one per cycle
        self.min_digits = math.inf  # over passing ops
        self.min_digits_op = None
        self.worst_failed_digits = math.inf  # over failed ops that returned a residual
        self.worst_failed_op = None
        self.witness_verify_failures = 0

    @property
    def cycles(self) -> int:
        return len(self.cycle_s)

    @property
    def timed_s(self) -> float:
        return sum(self.cycle_s)

    @property
    def attempted(self) -> int:
        return sum(self.verdicts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.verdicts["pass"]

    def add(self, op, output, error, reference) -> checks.Verdict:
        if error is not None:
            verdict = checks.Verdict("raised", f"{type(error).__name__}: {error}")
            self.raised[type(error).__name__] += 1
            if op[0] == "singular_modulus":
                self.routes["raised"] += 1
        else:
            verdict = check(op, output, reference)
            if verdict.route:
                self.routes[verdict.route] += 1
            if verdict.route == "exact" and checks.witness_verify_fails(output):
                self.witness_verify_failures += 1
        self.verdicts[verdict.kind] += 1
        if verdict.kind == "wrong" and len(self.wrong) < 10:
            self.wrong.append(f"{op}: {verdict.reason}")
        if verdict.residual is not None and verdict.residual != 0:
            digits = float(-mp.log10(abs(verdict.residual)))
            if verdict.passed and digits < self.min_digits:
                self.min_digits, self.min_digits_op = digits, list(op)
            elif not verdict.passed and digits < self.worst_failed_digits:
                self.worst_failed_digits, self.worst_failed_op = digits, list(op)
        return verdict


def run_cycle(ops, rng, tally: Tally, reference, tracer=None) -> None:
    """One closed-loop cycle: every op once, in shuffled order, one at a time.

    A probe runs between ops at evenly spaced points of the cycle, with the
    garbage collector off so that the program's heap cannot slow it; its
    time is left out of the cycle's.  Outputs are checked after the cycle,
    outside the timed region and with tracing off.
    """
    order = list(ops)
    rng.shuffle(order)
    probe_every = max(1, len(order) // PROBES_PER_CYCLE)
    clock = time.perf_counter
    results = []
    probe_total = 0.0
    with tracer if tracer is not None else nullcontext():
        start = clock()
        for i, op in enumerate(order):
            if tracer is not None:
                tracer.op += 1
            t0 = clock()
            try:
                out, err = call(op), None
            except Exception as exc:  # an op that raises is a counted failure
                out, err = None, exc
            results.append((op, clock() - t0, out, err))
            if i % probe_every == 0:
                gc.disable()
                t0 = clock()
                probe()
                probe_s = clock() - t0
                gc.enable()
                tally.probe_s.append(probe_s)
                probe_total += probe_s
        cycle_s = clock() - start - probe_total
    tally.cycle_s.append(cycle_s)
    for op, op_s, out, err in results:
        tally.op_s.setdefault(op, []).append(op_s)
        if tally.add(op, out, err, reference).passed:
            tally.latencies_ms.setdefault(op, []).append(op_s * 1e3)
