#!/usr/bin/env python3
"""The singmod benchmark: closed-loop workloads through the public library API.

Run from the root of a source checkout:

    python3 bench/run.py --workload descent --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout, never from an installed
copy.  One process and one thread issue one op at a time; a cycle runs every
input of the workload once, in an order shuffled by ``--seed``, and a run is a
whole number of cycles lasting at least ``--seconds`` of timed wall time.
Every op's output is checked after its cycle, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced cycles with cycles in which every public function of every layer is
wrapped in a span; it prints per-layer metrics per traced cycle and writes
every span to ``bench/out/``.  The last line of stdout is the result object;
the line before it is a run summary with the run's metadata.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_STARTS = 15  # cold starts per run; the median is reported
# Timings are reported at the machine speed at which workloads.probe() takes
# this long: about its trimmed mean on the 2-vCPU Xeon VM the bounds were set on.
PROBE_REF_S = 0.8e-3
TRIM = 0.1  # share of samples cut from each end of a trimmed mean

END_TO_END_UNITS = {
    "goodput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "pass_rate": "ratio",
    "min_correct_digits": "digits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# (metric prefix, statistics) pairs reported by the traced run, per cycle.
LAYER_FUNCTIONS = (
    ("surd.exact_sqrt", ("calls", "self_s", "failures")),
    ("surd.mul", ("calls",)),
    ("surd.inverse", ("self_s",)),
    ("surd.expand_exact", ("self_s",)),
    ("arith.squarefree_decompose", ("calls",)),
    ("arith.factorize", ("calls",)),
    ("modulus.quartet_roots", ("calls", "self_s")),
    ("modulus.subgroup_splits", ("self_s",)),
    ("modulus.factor_into_units", ("self_s",)),
    ("modulus.k_from_g_numeric", ("self_s",)),
    ("highprec.gn_numeric", ("calls", "self_s")),
    ("highprec.verify_ratio_value", ("self_s",)),
    ("weber.g2n", ("calls", "self_s", "total_s")),
    ("highprec.dirichlet_l_one", ("self_s",)),
    ("qforms.weighted_class_number", ("self_s",)),
    ("qforms.reduced_forms", ("calls", "self_s")),
    ("pell.solve_even_pell", ("self_s",)),
    ("highprec.j_invariant", ("calls", "self_s")),
    ("highprec.class_polynomial", ("self_s",)),
    ("highprec.epstein_constant_term", ("self_s",)),
    ("highprec.grenzformel_rhs", ("self_s",)),
)
# Metric prefixes that name a method, by the method's span label (see spans.py).
METHOD_SPANS = {
    "surd.mul": "surd.SurdElement.mul",
    "surd.inverse": "surd.SurdElement.inverse",
    "surd.expand_exact": "surd.UnitProduct.expand_exact",
}
STAT_UNITS = {"calls": "calls/cycle", "failures": "calls/cycle", "self_s": "s/cycle", "total_s": "s/cycle"}
ROUTES = ("exact", "closed", "numeric", "raised")

SETUP_CODE = (
    "import random, sys\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import singmod.cli\n"
    "import workloads\n"
    "random.Random(int(sys.argv[4])).shuffle(workloads.workload_ops(sys.argv[3]))\n"
)


def cold_start(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports singmod.cli and makes the inputs."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), workload, str(seed)]
    t0 = time.perf_counter()
    # No timeout: with one, wait() polls with sleeps of up to 50 ms, which
    # would round the measured time to that grain.
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def trimmed_mean(values) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    kept = values[cut : len(values) - cut]
    return sum(kept) / len(kept) if kept else math.nan


def timings(tally, scale: float) -> dict:
    """Goodput and latency percentiles, with every wall time multiplied by scale.

    Each input is represented by the trimmed mean of its wall times over the
    run's cycles.  Goodput is the passing ops of a cycle over the sum of these
    for every input, failed inputs included; the percentiles are over the
    passing inputs.
    """
    per_input = [trimmed_mean(v) * scale for v in tally.latencies_ms.values()]
    cycle_s = sum(trimmed_mean(v) for v in tally.op_s.values()) * scale
    return {
        "goodput_ops_s": tally.verdicts["pass"] / tally.cycles / cycle_s if cycle_s else math.nan,
        "latency_p50_ms": statistics.median(per_input) if per_input else math.nan,
        "latency_p90_ms": statistics.quantiles(per_input, n=10)[8] if len(per_input) > 1 else math.nan,
    }


def probe_scale(tally) -> float:
    """Factor that brings the run's wall times to the reference machine speed.

    The machine's slow share drifts over minutes, and a trimmed mean of an
    op's times rises with it in the same proportion as the probe's, which
    runs between the ops throughout the run.
    """
    return PROBE_REF_S / trimmed_mean(tally.probe_s) if tally.probe_s else math.nan


def end_to_end(tally, setup_times: list[float]) -> dict:
    """End-to-end metrics of one untraced run; SystemExit if one is not finite."""
    values = {
        **timings(tally, probe_scale(tally)),
        "pass_rate": tally.verdicts["pass"] / tally.attempted,
        "min_correct_digits": tally.min_digits,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    undefined = [name for name, value in values.items() if not math.isfinite(value)]
    if undefined:
        # No passing op, or none with a nonzero residual: nothing to measure.
        raise SystemExit(f"error: undefined metrics {undefined}; verdicts {dict(tally.verdicts)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(tracer, untraced, traced) -> dict:
    stats = tracer.function_stats()
    cycles = traced.cycles
    out = {}
    for fn, keys in LAYER_FUNCTIONS:
        s = stats[METHOD_SPANS.get(fn, fn)]
        for key in keys:
            out[f"{fn}.{key}"] = {"value": s[key] / cycles, "unit": STAT_UNITS[key]}
    for route in ROUTES:
        out[f"modulus.route.{route}"] = {"value": traced.routes[route] / cycles, "unit": "ops/cycle"}
    overhead = statistics.median(traced.cycle_s) / statistics.median(untraced.cycle_s)
    out["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    unattributed = (traced.timed_s - tracer.root_time()) / cycles
    out["trace.unattributed_s"] = {"value": unattributed, "unit": "s/cycle"}
    return out


def git_commit():
    """HEAD of the checkout; None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(seed: int) -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
    }


def missing_spans(tracer) -> list[str]:
    """Declared layer functions that the tracer found nothing to wrap for."""
    return [fn for fn, _ in LAYER_FUNCTIONS if METHOD_SPANS.get(fn, fn) not in tracer.names]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("descent", "numeric", "analytic"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "singmod" / "__init__.py").is_file():
        print(f"error: no singmod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import checks
    import workloads

    reference = checks.load_reference()
    ops = workloads.workload_ops(args.workload)
    rng = random.Random(args.seed)
    workloads.run_cycle(ops, random.Random(-1), workloads.Tally(), reference)  # warm-up, not counted

    summary = {"workload": args.workload, "ops_per_cycle": len(ops), "meta": metadata(args.seed)}
    if args.trace:
        from spans import Tracer

        # Traced and untraced cycles alternate, so drift in machine speed
        # falls on both sides of the overhead ratio alike.
        untraced, traced = workloads.Tally(), workloads.Tally()
        tracer = Tracer()
        missing = missing_spans(tracer)
        if missing:
            print(f"error: no public callable for {missing}", file=sys.stderr)
            return 2
        while not traced.cycle_s or untraced.timed_s + traced.timed_s < args.seconds:
            workloads.run_cycle(ops, rng, untraced, reference)
            workloads.run_cycle(ops, rng, traced, reference, tracer=tracer)
        metrics = per_layer(tracer, untraced, traced)
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(span_file)
        summary["spans"] = {"file": str(span_file.relative_to(ROOT)), "count": len(tracer.start)}
        tallies = (untraced, traced)
    else:
        # The cold starts are spread over the run, between cycles, so a slow
        # spell of the shared machine reaches only some of them.
        cold_start(args.workload, args.seed)  # may compile bytecode; not counted
        tally, setup_times = workloads.Tally(), []
        while not tally.cycle_s or tally.timed_s < args.seconds:
            workloads.run_cycle(ops, rng, tally, reference)
            while len(setup_times) < min(1, tally.timed_s / args.seconds) * SETUP_STARTS:
                setup_times.append(cold_start(args.workload, args.seed))
        while len(setup_times) < SETUP_STARTS:
            setup_times.append(cold_start(args.workload, args.seed))
        metrics = end_to_end(tally, setup_times)
        summary["latency_samples"] = {"inputs": len(tally.latencies_ms), "per_input": tally.cycles}
        summary["probe"] = {"count": len(tally.probe_s), "trimmed_mean_ms": trimmed_mean(tally.probe_s) * 1e3}
        summary["unscaled"] = timings(tally, 1.0)
        summary["min_correct_digits_op"] = tally.min_digits_op
        if tally.worst_failed_op is not None:
            summary["worst_failed"] = {"op": tally.worst_failed_op, "digits": tally.worst_failed_digits}
        tallies = (tally,)

    verdicts = sum((t.verdicts for t in tallies), Counter())
    summary.update(
        cycles=sum(t.cycles for t in tallies),
        timed_s=sum(t.timed_s for t in tallies),
        verdicts=dict(verdicts),
        raised=dict(sum((t.raised for t in tallies), Counter())),
        witness_verify_failures=sum(t.witness_verify_failures for t in tallies),
        wrong_examples=[w for t in tallies for w in t.wrong][:10],
    )
    print(json.dumps(summary))
    result = {
        "correct": verdicts["wrong"] == 0,
        "attempted": sum(verdicts.values()),
        "failed": sum(verdicts.values()) - verdicts["pass"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
