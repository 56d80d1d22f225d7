#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny size.

    python3 bench/smoke.py

They check that every declared metric is printed with its unit, that every
declared layer function is wrapped, that an undefined metric is an error, that
corrupted outputs count as failures, that both numeric failure kinds are
counted, and that the benchmark refuses to run without the program's sources.
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import mpmath as mp

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from singmod import highprec, modulus  # noqa: E402
from singmod.surd import SurdElement, UnitProduct  # noqa: E402
from spans import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def assert_declared(self, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, declared)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], float)

    def test_end_to_end(self):
        proc = run_bench("--workload", "descent", "--seed", "1", "--seconds", "0.1", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assert_declared(result, "end_to_end")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_per_layer(self):
        proc = run_bench("--workload", "descent", "--seed", "1", "--seconds", "0.1", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assert_declared(result, "per_layer")
        metrics = result["metrics"]
        self.assertEqual(metrics["surd.exact_sqrt.calls"]["value"], 195.0)
        self.assertEqual(metrics["modulus.route.exact"]["value"], 15.0)
        self.assertEqual(metrics["highprec.j_invariant.calls"]["value"], 0.0)

    def test_every_layer_function_is_wrapped(self):
        tracer = Tracer()
        self.assertEqual(run.missing_spans(tracer), [])
        x = SurdElement({2: 1})
        with tracer:
            x * x
        self.assertEqual(tracer.names[tracer.fn[0]], "surd.SurdElement.mul")

    def test_undefined_metric_is_an_error(self):
        tally = workloads.Tally()
        tally.cycle_s.append(1.0)
        tally.verdicts["raised"] += 1
        with self.assertRaises(SystemExit):
            run.end_to_end(tally, [0.2])

    def test_timings_follow_the_probe(self):
        # A machine twice as slow doubles every wall time, the probe's included.
        def metrics_at(slowdown):
            tally = workloads.Tally()
            tally.cycle_s.append(0.008 * slowdown)
            tally.verdicts["pass"] += 2
            tally.min_digits = 40.0
            for n, op_s in ((2, 0.003), (6, 0.005)):
                tally.op_s[("singular_modulus", n)] = [op_s * slowdown]
                tally.latencies_ms[("singular_modulus", n)] = [op_s * slowdown * 1e3]
            tally.probe_s = [run.PROBE_REF_S * slowdown] * 3
            return run.end_to_end(tally, [0.2])

        fast, slow = metrics_at(1.0), metrics_at(2.0)
        self.assertAlmostEqual(fast["goodput_ops_s"]["value"], 250.0)
        for name in ("goodput_ops_s", "latency_p50_ms", "latency_p90_ms"):
            self.assertAlmostEqual(slow[name]["value"], fast[name]["value"])

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench("--workload", "descent", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class CorruptedOutputsFail(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.k30 = modulus.singular_modulus(30, checks.PREC)
        cls.reference = checks.load_reference()

    def tally_of(self, op, output):
        tally = workloads.Tally()
        verdict = tally.add(op, output, None, self.reference)
        self.assertEqual(tally.failed, 1)
        return verdict

    def test_genuine_outputs_pass(self):
        self.assertTrue(checks.check_modulus(30, self.k30).passed)
        coeffs = highprec.class_polynomial(-120, checks.JPOLY_PREC)
        self.assertTrue(checks.check_class_polynomial(-120, coeffs, self.reference).passed)

    def test_wrong_unit_factor(self):
        factors = list(self.k30.k_product.factors)
        base, exp = factors[-1]
        factors[-1] = (base * base, exp)
        bad = dataclasses.replace(self.k30, k_product=UnitProduct(factors))
        self.assertEqual(self.tally_of(("singular_modulus", 30), bad).kind, "wrong")

    def test_perturbed_coefficient(self):
        coeffs = list(self.reference[-120])
        coeffs[2] += 1
        self.assertEqual(self.tally_of(("class_polynomial", 30), coeffs).kind, "wrong")

    def test_residual_one_digit_short(self):
        exact = dataclasses.replace(self.k30, ratio_residual=mp.mpf("1e-30"))
        self.assertEqual(self.tally_of(("singular_modulus", 30), exact).kind, "residual")
        sm = modulus.singular_modulus(5, checks.PREC)
        short = dataclasses.replace(sm, ratio_residual=checks.numeric_tol(checks.PREC))
        self.assertEqual(self.tally_of(("singular_modulus", 5), short).kind, "residual")
        self.assertEqual(self.tally_of(("verify_grenzformel", 30), mp.mpf("1e-20")).kind, "residual")

    def test_tolerance_is_not_a_float(self):
        # 10.0 ** (10 - 1000) underflows to 0.0, which no residual is below.
        self.assertGreater(checks.numeric_tol(1000), 0)


class NumericFailureKinds(unittest.TestCase):
    def test_raised_and_residual_are_both_counted(self):
        ops = [("singular_modulus", n) for n in (5, 14, 332, 2000)]
        tally = workloads.Tally()
        workloads.run_cycle(ops, random.Random(0), tally, checks.load_reference())
        self.assertEqual(
            dict(tally.verdicts), {"pass": 1, "raised": 1, "understated": 1, "residual": 1}
        )
        self.assertEqual(tally.failed, 3)
        self.assertEqual(dict(tally.raised), {"ValueError": 1})
        self.assertEqual(tally.routes["raised"], 1)


if __name__ == "__main__":
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    unittest.main()
