"""Self-test of the benchmark at tiny sizes with a fixed seed.

    python3 perfbench/selftest.py

Checks that a seed always gives the same argv, that every metric named in
BENCHMARK.json is printed with its unit, that output digests agree between
runs and between the untraced and the traced pass, that the traced
functions are restored afterwards, that time in a traced function with
no .self_s metric fails the accounting check, and that the benchmark
refuses to run without the program's sources.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def results(workload: str, trace: int) -> dict:
    path = os.path.join(ROOT, run.OUT_DIR, "results",
                        f"{workload}-seed{SEED}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def digests(result: dict, traced: bool) -> list[str]:
    first = next(p for p in result["passes"] if p["traced"] == traced)
    return [c["sha256"] for c in first["commands"]]


class SelfTest(unittest.TestCase):
    runs: dict = {}

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)
        for w in workloads.WORKLOADS:
            for trace in (0, 1):
                proc = bench("--workload", w, "--seed", str(SEED), "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny")
                if proc.returncode != 0:
                    raise RuntimeError(f"{w} trace={trace} failed:\n{proc.stderr}")
                cls.runs[w, trace] = last_json(proc)

    def test_workload_names_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_seed_gives_same_argv(self):
        for w in workloads.WORKLOADS:
            for size in workloads.SIZES:
                self.assertEqual(workloads.commands(w, SEED, size),
                                 workloads.commands(w, SEED, size))
            self.assertNotEqual(workloads.commands(w, SEED), workloads.commands(w, SEED + 1))

    def test_every_metric_printed_with_unit(self):
        for (w, trace), out in self.runs.items():
            self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(out["correct"], (w, trace))
            self.assertEqual(out["failed"], 0)
            self.assertGreaterEqual(out["attempted"], 1)
            wanted = self.spec["per_layer" if trace else "end_to_end"]
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            self.assertEqual(got, {m["name"]: m["unit"] for m in wanted}, (w, trace))
            for k, v in out["metrics"].items():
                self.assertIsInstance(v["value"], (int, float), k)

    def test_metric_lists_match_benchmark_json(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]],
                         run.PER_LAYER)

    def test_digests_repeat(self):
        for w in workloads.WORKLOADS:
            untraced = digests(results(w, 0), traced=False)
            self.assertEqual(untraced, digests(results(w, 1), traced=False), w)
            self.assertEqual(untraced, digests(results(w, 1), traced=True), w)

    def test_layer_counts(self):
        amp = self.runs["amplitude_timescales", 1]["metrics"]
        (n,) = {int(run.checks.option(argv, "--points"))
                for argv in workloads.commands("amplitude_timescales", SEED, "tiny")
                if argv[0] == "amplitude"}
        self.assertAlmostEqual(amp["ring.gamma_early_per_amplitude_row"]["value"],
                               (2 * n - 1) / n)
        for w in ("amplitude_timescales", "oracle_gfun"):
            self.assertEqual(
                self.runs[w, 1]["metrics"]["decoherence.noise_action.calls"]["value"], 0)
        wexp = self.runs["wexp_general", 1]["metrics"]
        self.assertGreater(wexp["ring.noise_action_per_w_general"]["value"], 1)

    def test_functions_restored(self):
        for w in workloads.WORKLOADS:
            self.assertTrue(results(w, 1)["functions_restored"], w)
        # in process: wrapped under every binding while installed, then restored
        run.pin_threads()
        run.load_program()
        import cdwring.bath
        import cdwring.decoherence
        import cdwring.dynamics
        import cdwring.specfun
        import tracing

        before = tracing.bindings()
        tracer = tracing.Tracer()
        with tracer:
            for mod, attr in ((cdwring.specfun, "mittag_leffler"),
                              (cdwring.dynamics, "mittag_leffler"),
                              (cdwring.bath, "coth_thermal"),
                              (cdwring.decoherence, "coth_thermal")):
                self.assertIsNot(getattr(mod, attr), before[mod.__name__, attr])
            spec = cdwring.bath.BathSpec(s=1.2, g_s=1.0, Omega=1e8)
            cdwring.dynamics.g_fun(spec, 1e-3)
        self.assertEqual(tracing.bindings(), before)
        summary = tracer.summary()
        self.assertEqual(summary["dynamics.g_fun"]["calls"], 1)
        self.assertEqual(summary["specfun.mittag_leffler"]["calls"], 2)

    def test_unlisted_time_fails_accounting(self):
        # half the traced time in a function that has no .self_s metric
        run.pin_threads()
        run.load_program()
        import tracing

        tracer = tracing.Tracer()
        summary = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                   for name in tracer.names}
        summary["cli.main"] = {"calls": 1, "self_s": 0.5, "total_s": 1.0}
        summary["dynamics.omega_s"] = {"calls": 1, "self_s": 0.5, "total_s": 0.5}
        one = run.Pass(1.0, [{"seconds": 1.0, "text": ""}],
                       [run.CAL_REF_S, run.CAL_REF_S], traced=True)
        values = run.per_layer_metrics(summary, tracer, [["params"]], one, one)
        self.assertEqual(values["trace.unlisted_self_s"], 0.5)
        self.assertEqual(values["trace.accounted_frac"], 0.5)
        self.assertLess(values["trace.accounted_frac"], 1.0 - run.ACCOUNTED_TOL)

    def test_refuses_without_program(self):
        bare = os.path.join(ROOT, run.OUT_DIR, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = bench("--workload", "oracle_gfun", "--seed", str(SEED),
                         "--seconds", "1", "--trace", "0", "--size", "tiny", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
