"""cdwring benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload wexp_general --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload oracle_gfun --seed 1 --seconds 30 --trace 1
    python3 perfbench/selftest.py

Each workload is a closed loop with one client: a single process runs the
workload's `cdwring` commands back to back through `cdwring.cli.main(argv)`,
each after the previous one returns, with BLAS and OpenMP pinned to one
thread.  `--seed` draws the command parameters (see workloads.py); the
program sees only the generated argv.  Outputs go to files under
`.perfbench_out/outputs/`; their SHA-256 digests, the per-command times,
the environment and all metrics go to `.perfbench_out/results/`.

Workloads:
  wexp_general          general <W(t)> curves at the FIG4 bath out to 48 P
                        (ground and wrapped-Gaussian states, one at T > 0)
                        plus one --early curve: noise_action dominates.
  amplitude_timescales  amplitude curves (n1_osc, Gamma) over 10 P at T = 0
                        and T > 0, plus params: gamma_early quadratures and
                        the tau_decoh / tau_damp root searches.  One params
                        point in three is at weak coupling (g ~ 1e-3),
                        which only lengthens the tau_decoh search;
                        Mittag-Leffler stays in its float series here.
  oracle_gfun           the full oracle suite at stratified s in [0.8, 1.2]
                        plus a long-horizon gfun curve: RK4 bath ODE,
                        direct mode sums, Talbot, 1F2, and the asymptotic
                        and extended-precision branches of Mittag-Leffler.

One run repeats the workload (a "pass") while the next pass still fits in
`--seconds`, and always runs at least one.  Output checks and digests are
computed after each pass, outside the timed region.

--trace 0 prints the end-to-end metrics (tracing off):
  wall_s       median over passes of the seconds to produce all of the
               workload's outputs, scaled to a reference CPU speed.  On a
               shared host the speed available to one process can shift by
               half for tens of seconds; that shift is measured with a
               calibration kernel that does not use cdwring (an interpreter
               loop, a scipy quad over numpy scalars, numpy array
               operations), timed for 0.2 s before each command and after
               the last.  Each command's seconds are multiplied by
               (CAL_REF_S / calibration time around it) ** CAL_EXPONENT.
               The exponent is below 1 because a host-speed shift moves
               the kernel more than it moves cdwring's commands: timed
               side by side, the commands followed the kernel's time to
               a power of about 0.3 (oracle) to 0.7 (wexp, amplitude), and
               on whole passes 0.7 left the least run-to-run spread.  A
               change to cdwring moves wall_s in proportion.  Unscaled
               pass seconds are printed and written to the results file.
  setup_s      median, over SETUP_PROBES fresh interpreters, of the seconds
               until the first command is ready: importing cdwring, numpy,
               scipy and mpmath, and generating the argv.  Unscaled: import
               time did not follow the calibration kernel, and scaling it
               widened the run-to-run spread instead of narrowing it.
  peak_rss_mb  peak resident memory of the benchmark process, in MB.
  ok_frac      1 - failed_frac, where failed_frac = failed / attempted
               operations; a failure is a non-zero exit, a FAIL oracle line,
               a failed output check or a digest that differs between
               passes.  failed_frac itself reads 0 when nothing fails, so it
               is written to the results file, not used as a metric.

--trace 1 runs one untraced pass, then one traced pass, and prints the
per-layer metrics.  The traced pass wraps every public function of
specfun, bath, dynamics, decoherence, ring and oracle, and cli.main, under
every name a cdwring module binds it to (tracing.py); spans are written to
`.perfbench_out/spans/`.  Metrics are `<layer>.<function>.calls`, `.self_s`
(span time minus child spans) and `.total_s`, plus:
  ring.noise_action_per_w_general  noise_action calls per w_general call
                                   (base: ring.w_general.calls)
  ring.gamma_early_per_amplitude_row  gamma_early calls inside amplitude
                                   commands per amplitude row (base:
                                   cli.amplitude_rows)
  cli.self_s           time in cli.main outside every traced function
  cli.rows             table rows written by gfun, amplitude and wexp
  trace.wall_s         traced pass seconds, unscaled (the spans' clock)
  trace_overhead_frac  (traced - untraced pass seconds) / untraced, both
                       scaled to the reference speed as wall_s is
  trace.unlisted_self_s  self time of the traced functions that have no
                       .self_s metric of their own (omega_s, tau_damp,
                       winding_sets, ...); the results file lists every
                       traced function with its calls and times
  trace.accounted_frac the .self_s metrics above, cli.self_s included,
                       summed and divided by trace.wall_s; the run counts
                       as incorrect when it is below 0.95, that is when
                       more than 5% of the traced time is in no listed
                       layer metric.

ROADMAP baseline rows and what replaces them:
  CLI amplitude / wexp general, --early / oracle --quick, params
        wall_s of amplitude_timescales / wexp_general / oracle_gfun (the
        full oracle); per-command seconds are in the results file
  g_fun, per call          dynamics.g_fun.self_s / .calls, with
                           specfun.mittag_leffler.self_s / .calls
  gamma_early, per call    decoherence.gamma_early.total_s / .calls
  gamma_early_lowT         decoherence.gamma_early_lowT.self_s / .calls
  tau_decoh / tau_Q        decoherence.tau_decoh.total_s / .calls and
                           dynamics.tau_damp.total_s / .calls
  noise_action             decoherence.noise_action.total_s / .calls
  w_general                ring.w_general.total_s / .calls
  simulate_bath_ode        oracle.simulate_bath_ode.self_s / .calls
  tier-1 wall time         not replaced: it times the tests, not the program

A ratio whose base is 0 reads 0.  params has no metric: no workload's hot
path calls it and its functions are closed-form arithmetic.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".perfbench_out"  # relative to ROOT, the working directory

sys.path.insert(0, HERE)
import checks  # noqa: E402  (these two import only the standard library)
import workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 7
ACCOUNTED_TOL = 0.05
CAL_SAMPLE_S = 0.2   # length of one calibration sample
# calibration kernel time that wall_s is scaled to: about its time on a
# 2-core x86-64 host with numpy 2.4 and scipy 1.17, so that scaled and
# unscaled seconds read alike there
CAL_REF_S = 2.9e-3
CAL_EXPONENT = 0.7

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "ratio")]

PER_LAYER = [
    ("specfun.mittag_leffler.calls", "count"),
    ("specfun.mittag_leffler.self_s", "s"),
    ("specfun.hyp1f2.calls", "count"),
    ("specfun.hyp1f2.self_s", "s"),
    ("specfun.inverse_laplace.calls", "count"),
    ("specfun.inverse_laplace.self_s", "s"),
    ("bath.coth_thermal.calls", "count"),
    ("bath.coth_thermal.self_s", "s"),
    ("bath.noise_kernel.calls", "count"),
    ("bath.noise_kernel.self_s", "s"),
    ("dynamics.g_fun.calls", "count"),
    ("dynamics.g_fun.self_s", "s"),
    ("dynamics.classical_paths.calls", "count"),
    ("dynamics.classical_paths.self_s", "s"),
    ("dynamics.kappa.self_s", "s"),
    ("dynamics.g_ddot.calls", "count"),
    ("dynamics.tau_damp.calls", "count"),
    ("dynamics.tau_damp.total_s", "s"),
    ("decoherence.noise_action.calls", "count"),
    ("decoherence.noise_action.self_s", "s"),
    ("decoherence.noise_action.total_s", "s"),
    ("decoherence.gamma_early.calls", "count"),
    ("decoherence.gamma_early.self_s", "s"),
    ("decoherence.gamma_early.total_s", "s"),
    ("decoherence.gamma_early_lowT.calls", "count"),
    ("decoherence.gamma_early_lowT.self_s", "s"),
    ("decoherence.tau_decoh.calls", "count"),
    ("decoherence.tau_decoh.total_s", "s"),
    ("ring.w_general.calls", "count"),
    ("ring.w_general.self_s", "s"),
    ("ring.w_general.total_s", "s"),
    ("ring.w_early.calls", "count"),
    ("ring.w_early.total_s", "s"),
    ("ring.charge_density_amplitude.calls", "count"),
    ("ring.charge_density_amplitude.total_s", "s"),
    ("ring.noise_action_per_w_general", "ratio"),
    ("ring.gamma_early_per_amplitude_row", "ratio"),
    ("oracle.simulate_bath_ode.calls", "count"),
    ("oracle.simulate_bath_ode.self_s", "s"),
    ("oracle.noise_kernel_direct.calls", "count"),
    ("oracle.noise_kernel_direct.self_s", "s"),
    ("oracle.discretize_bath.self_s", "s"),
    ("cli.main.total_s", "s"),
    ("cli.self_s", "s"),
    ("cli.rows", "count"),
    ("cli.amplitude_rows", "count"),
    ("trace.wall_s", "s"),
    ("trace_overhead_frac", "ratio"),
    ("trace.unlisted_self_s", "s"),
    ("trace.accounted_frac", "ratio"),
]

TABLE_COMMANDS = ("gfun", "amplitude", "wexp")  # the ones that write --out


def pin_threads() -> dict[str, str]:
    """Pin BLAS and OpenMP to one thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def load_program():
    """Import cdwring from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cdwring", "__init__.py")):
        raise SystemExit(f"error: no cdwring sources under {src}")
    sys.path.insert(0, src)
    import cdwring.cli
    if not os.path.abspath(cdwring.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: cdwring imported from {cdwring.cli.__file__}")
    return cdwring.cli


def measure_setup(workload: str, seed: int, size: str) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported the
    program and generated the workload's argv, once per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--setup-probe",
                 "--workload", workload, "--seed", str(seed), "--size", size],
                stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                rc = proc.wait(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"setup probe failed (exit {rc}): {line!r}")
        samples.append(t1 - t0)
    return samples


def output_paths(workload: str, cmds: list[list[str]]) -> list[str | None]:
    """Fixed relative output paths: the CLI writes them into its output
    header, so they must not change between runs for the digests to match."""
    paths = []
    for i, argv in enumerate(cmds):
        if argv[0] in TABLE_COMMANDS:
            ext = checks.option(argv, "--format", "csv")
            paths.append(f"{OUT_DIR}/outputs/{workload}/{i:02d}-{argv[0]}.{ext}")
        else:
            paths.append(None)
    return paths


def calibration_kernel() -> float:
    """A fixed mix of the kinds of work cdwring's hot paths do, without
    using cdwring: an interpreter loop over math calls, a scipy quad whose
    integrand works on numpy scalars, and numpy operations on a 4096-element
    array."""
    import numpy as np
    from scipy.integrate import quad

    acc = 0.0
    for i in range(1000):
        acc += math.sin(i) * i
    acc += quad(lambda w: np.ones_like(np.asarray(w, dtype=float))[()]
                * w**0.2 * np.cos(3.0 * w), 0.0, 10.0, limit=200)[0]
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(20):
        a = np.cos(a) * 0.5 + a * 1e-3
    return acc + float(a[0])


def calibrate() -> float:
    """Mean seconds per calibration kernel over about CAL_SAMPLE_S."""
    n, t0 = 0, time.perf_counter()
    while (t1 := time.perf_counter()) - t0 < CAL_SAMPLE_S:
        calibration_kernel()
        n += 1
    return (t1 - t0) / n


@dataclass
class Pass:
    seconds: float          # sum of the command times
    records: list[dict]     # per command: rc, seconds, text, sha256, error
    samples: list[float]    # calibration kernel seconds around the commands
    traced: bool
    problems: list[list[str]] | None = None

    def scaled_seconds(self) -> float:
        """Seconds at the reference speed: each command's time scaled by
        CAL_REF_S over the mean of the calibration samples just before and
        just after it, to the power CAL_EXPONENT."""
        k = self.samples
        return sum(rec["seconds"]
                   * (2 * CAL_REF_S / (k[i] + k[i + 1])) ** CAL_EXPONENT
                   for i, rec in enumerate(self.records))


def run_pass(cli, cmds, paths, tracer=None) -> Pass:
    """Run every command once, back to back, with a calibration sample
    before each command and after the last, outside the command times."""
    for path in paths:
        if path and os.path.exists(path):
            os.remove(path)
    records, samples = [], []
    for i, (argv, path) in enumerate(zip(cmds, paths)):
        samples.append(calibrate())
        full = argv + ["--out", path] if path else list(argv)
        buf = io.StringIO()
        error = None
        if tracer is not None:
            tracer.current_command = i
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(full)  # looked up per call: the tracer rebinds it
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # counted as a failed operation, not fatal
            rc, error = None, traceback.format_exc()
        records.append({"rc": rc, "seconds": time.perf_counter() - t0,
                        "stdout": buf.getvalue(), "error": error})
    samples.append(calibrate())
    if tracer is not None:
        tracer.current_command = -1
    for rec, path in zip(records, paths):
        data = rec.pop("stdout").encode()
        if path:
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                data = b""
        rec["text"] = data.decode()
        rec["sha256"] = hashlib.sha256(data).hexdigest()
    return Pass(sum(rec["seconds"] for rec in records), records, samples,
                traced=tracer is not None)


def grade(cmds, records, reference) -> list[list[str]]:
    """Problems per command: exit status, output checks on the first pass,
    identical digests on later passes."""
    out = []
    for i, (argv, rec) in enumerate(zip(cmds, records)):
        problems = []
        if rec["error"]:
            problems.append(rec["error"].strip().splitlines()[-1])
        elif rec["rc"] != 0:
            problems.append(f"exit code {rec['rc']}")
        if reference is None:
            problems += checks.check(argv, rec["text"])
        elif rec["sha256"] != reference[i]["sha256"]:
            problems.append("output differs from the first pass")
        out.append(problems)
    return out


def count_rows(argv, text) -> int:
    if argv[0] not in TABLE_COMMANDS:
        return 0
    try:
        return len(checks.parse_table(text)[1])
    except (ValueError, KeyError, IndexError):
        return 0


def per_layer_metrics(summary, tracer, cmds, untraced: Pass, traced: Pass):
    amplitude = {i for i, argv in enumerate(cmds) if argv[0] == "amplitude"}
    in_amplitude = tracer.summary(amplitude)
    rows = [count_rows(argv, rec["text"])
            for argv, rec in zip(cmds, traced.records)]
    amp_rows = sum(rows[i] for i in amplitude)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "ring.noise_action_per_w_general": ratio(
            summary["decoherence.noise_action"]["calls"],
            summary["ring.w_general"]["calls"]),
        "ring.gamma_early_per_amplitude_row": ratio(
            in_amplitude["decoherence.gamma_early"]["calls"], amp_rows),
        "cli.self_s": summary["cli.main"]["self_s"],
        "cli.rows": sum(rows),
        "cli.amplitude_rows": amp_rows,
        "trace.wall_s": traced.seconds,
        "trace_overhead_frac": (traced.scaled_seconds() - untraced.scaled_seconds())
        / untraced.scaled_seconds(),
    }
    for name, _ in PER_LAYER:
        func, _, field = name.rpartition(".")
        if func in summary:
            values[name] = summary[func][field]
    listed = {name.rsplit(".", 1)[0] for name, _ in PER_LAYER
              if name.endswith(".self_s") and name != "cli.self_s"}
    values["trace.unlisted_self_s"] = sum(
        v["self_s"] for func, v in summary.items()
        if func not in listed and func != "cli.main")
    accounted = sum(values[name] for name, _ in PER_LAYER
                    if name.endswith(".self_s"))
    values["trace.accounted_frac"] = accounted / traced.seconds
    return values


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (which
    would read configuration outside the checkout); None if not a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, threads: dict[str, str]) -> dict:
    import mpmath
    import numpy
    import scipy

    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "cdwring")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "threads": threads,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="draws the command parameters; same seed, same argv")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring budget; at least one pass always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics")
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny is for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    os.chdir(ROOT)
    cli = load_program()
    cmds = workloads.commands(args.workload, args.seed, args.size)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else measure_setup(args.workload, args.seed, args.size)
    paths = output_paths(args.workload, cmds)
    for d in ("outputs/" + args.workload, "results", "spans"):
        os.makedirs(os.path.join(OUT_DIR, d), exist_ok=True)

    passes: list[Pass] = []

    def record(p: Pass):
        p.problems = grade(cmds, p.records, passes[0].records if passes else None)
        passes.append(p)

    record(run_pass(cli, cmds, paths))
    if args.trace:
        import tracing

        before = tracing.bindings()
        tracer = tracing.Tracer()
        with tracer:
            traced_pass = run_pass(cli, cmds, paths, tracer)
        restored = tracing.bindings() == before
        record(traced_pass)
    else:
        walls = [passes[0].seconds]
        while sum(walls) + statistics.median(walls) <= args.seconds:
            record(run_pass(cli, cmds, paths))
            walls.append(passes[-1].seconds)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted = sum(len(p.records) for p in passes)
    failed = sum(1 for p in passes for probs in p.problems if probs)
    correct = failed == 0
    if args.trace:
        functions = tracer.summary()
        values = per_layer_metrics(functions, tracer, cmds, passes[0], passes[1])
        accounted_ok = values["trace.accounted_frac"] >= 1.0 - ACCOUNTED_TOL
        correct = correct and restored and accounted_ok
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
        spans_path = os.path.join(OUT_DIR, "spans",
                                  f"{args.workload}-seed{args.seed}.npz")
        tracer.save(spans_path)
    else:
        values = {
            "wall_s": statistics.median(p.scaled_seconds() for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_kb * 1024 / 1e6,
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    result = {
        "workload": args.workload, "size": args.size, "trace": args.trace,
        "environment": environment(args.seed, threads),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "setup_s_samples": setup,
        "passes": [{
            "seconds": p.seconds, "traced": p.traced, "calibration_s": p.samples,
            "commands": [{"argv": argv, "rc": rec["rc"], "seconds": rec["seconds"],
                          "sha256": rec["sha256"], "problems": probs}
                         for argv, rec, probs in zip(cmds, p.records, p.problems)],
        } for p in passes],
    }
    if args.trace:
        result["functions_restored"] = restored
        result["functions"] = functions
        result["spans"] = spans_path
    results_path = os.path.join(
        OUT_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(results_path, "w") as fh:
        json.dump(result, fh, indent=1)

    for p in passes:
        for argv, probs in zip(cmds, p.problems):
            for problem in probs:
                print(f"FAILED {' '.join(argv)}: {problem}", file=sys.stderr)
    if args.trace and not restored:
        print("FAILED: traced functions were not restored", file=sys.stderr)
    if args.trace and not accounted_ok:
        print("FAILED: the listed .self_s metrics cover less than "
              f"{1.0 - ACCOUNTED_TOL:.0%} of the traced wall time",
              file=sys.stderr)
    print(f"{args.workload} seed={args.seed} attempted={attempted} "
          f"failed={failed} failed_frac={failed / attempted}")
    print(f"  pass seconds (unscaled): {[p.seconds for p in passes]}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"results: {results_path}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
