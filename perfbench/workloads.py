"""Seeded generation of each workload's `cdwring` command lines.

A workload is a list of argv lists for `cdwring.cli.main`.  The seed only
draws command parameters; the program sees nothing but the argv.  Every
draw uses a `random.Random` seeded with the workload name and the seed, so
the same (workload, seed, size) always gives the same argv.

Parameters that change a command's cost are drawn stratified: k draws
from [lo, hi) take one value from each of k equal sub-intervals, in
shuffled order.  This keeps the total work of a workload close to the same
for every seed, which keeps `wall_s` comparable between seeds.  The `full`
size is what the benchmark measures; `tiny` is for the self-test.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("wexp_general", "amplitude_timescales", "oracle_gfun")
SIZES = ("full", "tiny")

# The FIG4 bath: s = 1.2, g = 1, mu = 1e-8 s and Omega = 1/mu (the CLI
# default when --omega-cutoff is not given).
FIG4 = ["--s", "1.2", "--g", "1", "--mu", "1e-08"]


def _num(x: float) -> str:
    """Shortest text that parses back to exactly ``x``."""
    return repr(float(x))


def stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw from each of k equal sub-intervals of [lo, hi), shuffled."""
    width = (hi - lo) / k
    values = [lo + (i + rng.random()) * width for i in range(k)]
    rng.shuffle(values)
    return values


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _wexp_general(rng: random.Random, tiny: bool) -> list[list[str]]:
    # Out to 48 P, about 0.3 tau_Q at the FIG4 bath, where noise_action
    # dominates.  Omega * t stays <= 600 so the node cap in noise_action
    # never binds here.
    n_gauss, periods, points = (1, 2.0, 3) if tiny else (5, 48.0, 9)
    grid = ["--t-max-periods", _num(periods), "--points", str(points)]
    states = ["ground"]
    for _ in range(n_gauss + 1):
        theta0 = rng.uniform(-math.pi, math.pi)
        sigma = rng.uniform(0.2, 0.6)
        states.append(f"gaussian:{_num(theta0)},{_num(sigma)}")
    thermal_state = states.pop()
    temperature = _num(log_uniform(rng, 1e-4, 1e-2))
    cmds = [["wexp", *FIG4, "--state", st, *grid] for st in states]
    # one curve at T > 0 (the coth branch), and the early-time form of it
    cmds.append(["wexp", *FIG4, "--state", thermal_state,
                 "--temperature", temperature, *grid])
    cmds.append(["wexp", *FIG4, "--state", thermal_state,
                 "--temperature", temperature, "--early", *grid])
    return cmds


def _amplitude_timescales(rng: random.Random, tiny: bool) -> list[list[str]]:
    groups, points = (1, 8) if tiny else (5, 100)
    # the T = 0 and the T > 0 curves each cover the s range
    s_cold = stratified(rng, 0.8, 1.3, groups)
    s_warm = stratified(rng, 0.8, 1.3, groups)
    s_params = stratified(rng, 0.8, 1.3, 3 * groups)
    cmds = []
    for k in range(groups):
        for s, temperature in ((s_cold[k], 0.0),
                               (s_warm[k], log_uniform(rng, 1e-4, 1e-2))):
            cmds.append(["amplitude", "--s", _num(s),
                         "--g", _num(log_uniform(rng, 0.3, 3.0)),
                         "--mu", "1e-08", "--temperature", _num(temperature),
                         "--n1", _num(rng.uniform(0.5, 1.5)),
                         "--t-max-periods", "10", "--points", str(points)])
        # One params point in three at weak coupling, g ~ 1e-3.  Its only
        # effect is on the tau_decoh root search: for s in [0.85, 1.25] the
        # root lies 14-46 times later than at g in [0.3, 3], and the search
        # takes 24-26 gamma_early calls against 18-24.  tau_damp is not
        # affected: the root of Gdot = 1/e sits at |x| of order 1 for any g,
        # inside Mittag-Leffler's float series, which is all that params
        # uses.  The asymptotic and extended-precision branches run in
        # oracle_gfun.
        for j, g in enumerate((log_uniform(rng, 5e-4, 2e-3),
                               log_uniform(rng, 0.3, 3.0),
                               log_uniform(rng, 0.3, 3.0))):
            cmds.append(["params", "--s", _num(s_params[3 * k + j]),
                         "--g", _num(g), "--mu", "1e-08"])
    return cmds


def _oracle_gfun(rng: random.Random, tiny: bool) -> list[list[str]]:
    # oracle cost grows about tenfold from s = 0.8 to s = 1.2 (the RK4 step
    # count follows the ODE cutoff), hence the stratified draw
    n_oracle = 1 if tiny else 6
    cmds = [["oracle", "--s", _num(s), "--g", "1", "--mu", "1e-08",
             *(["--quick"] if tiny else [])]
            for s in stratified(rng, 0.8, 1.2, n_oracle)]
    # --mu 0.1 puts Omega at 10 Hz, so ten periods span several damping
    # times: about 60% of the curve's Mittag-Leffler calls leave the float
    # series for the asymptotic expansion, and each of those falls back to
    # the extended-precision series
    pair = f"{_num(rng.uniform(0.6, 0.95))},{_num(rng.uniform(1.05, 1.4))}"
    cmds.append(["gfun", "--s", pair, "--g", "1", "--mu", "0.1",
                 "--t-max-periods", "10", "--points", "12" if tiny else "100",
                 "--format", "json"])
    return cmds


_BUILDERS = {
    "wexp_general": _wexp_general,
    "amplitude_timescales": _amplitude_timescales,
    "oracle_gfun": _oracle_gfun,
}


def commands(workload: str, seed: int, size: str = "full") -> list[list[str]]:
    """The workload's argv lists, without output paths."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, size == "tiny")
