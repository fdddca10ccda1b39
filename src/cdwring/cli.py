"""Command-line front end: sweeps, CSV/JSON emission, and the oracle harness."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, asdict

import numpy as np

from . import __version__
from .bath import BathSpec, noise_kernel, omega_s
from .errors import EvaluationError, RootNotFoundError
from .constants import HBAR
from . import decoherence, dynamics, oracle, ring, specfun
from .params import RingSpec, derived_scales

__all__ = ["main", "RunConfig"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_ORACLE = 3


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Resolved run configuration; exactly one of ring/mu must be given."""

    s: float = 1.2
    g: float = 1.0
    omega_cutoff: float | None = None   # defaults to 1/mu
    temperature: float = 0.0
    mu: float | None = 1e-8
    ring: dict | None = None
    state: str = "ground"
    t_max_periods: float = 10.0
    points: int = 200
    n1: float = 1.0
    out: str | None = None
    format: str = "csv"
    early: bool = False
    isolated: bool = False
    quick: bool = False

    def resolve(self):
        if (self.ring is None) == (self.mu is None):
            raise UsageError("exactly one of {ring, mu} must be provided")
        if self.points < 2:
            raise UsageError("points must be >= 2")
        if self.ring is not None:
            spec = RingSpec(**self.ring)
            self.mu = derived_scales(spec).mu
            self.ring = None
        if self.omega_cutoff is None:
            self.omega_cutoff = 1.0 / self.mu

    def bath_spec(self) -> BathSpec:
        return BathSpec(s=self.s, g_s=self.g, Omega=self.omega_cutoff,
                        T=self.temperature)

    def ring_state(self) -> ring.RingState:
        kind, _, rest = self.state.partition(":")
        if kind == "ground":
            return ring.RingState.ground()
        if kind == "momentum":
            return ring.RingState.momentum(int(rest))
        if kind == "gaussian":
            theta0, sigma = (float(v) for v in rest.split(","))
            return ring.RingState.wrapped_gaussian(theta0, sigma)
        raise UsageError(f"unknown state descriptor {self.state!r}")

    def time_grid(self) -> np.ndarray:
        period = 4.0 * math.pi * self.mu
        return np.linspace(0.0, self.t_max_periods * period, self.points)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(config: RunConfig, columns: list[str], rows: list[list[float]]):
    header = {"tool": "cdwring", "version": __version__,
              "config": {k: v for k, v in sorted(asdict(config).items())}}
    if config.format == "json":
        doc = {"header": header, "columns": columns,
               "rows": [[_fmt(v) for v in row] for row in rows]}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [f"# {json.dumps(header, sort_keys=True)}",
                 f"# columns: {','.join(columns)}",
                 ",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gfun(config: RunConfig, s_values: list[float]) -> int:
    period = 4.0 * math.pi * config.mu
    rows = []
    for s in s_values:
        spec = BathSpec(s=s, g_s=config.g, Omega=config.omega_cutoff,
                        T=config.temperature)
        for t in config.time_grid():
            G, Gdot = dynamics.g_fun(spec, t)
            rows.append([s, t, t / period, G, Gdot])
    _emit(config, ["s", "t", "t_over_P", "G", "Gdot"], rows)
    return EXIT_OK


def cmd_amplitude(config: RunConfig) -> int:
    spec = config.bath_spec()
    period = 4.0 * math.pi * config.mu
    rows = []
    for t in config.time_grid():
        amp, gam = ring.charge_density_amplitude(spec, config.mu, config.n1, t)
        rows.append([t, t / period, amp, gam])
    _emit(config, ["t", "t_over_P", "n1_osc", "Gamma"], rows)
    return EXIT_OK


def cmd_wexp(config: RunConfig) -> int:
    spec = config.bath_spec()
    state = config.ring_state()
    inertia = HBAR * config.mu
    period = 4.0 * math.pi * config.mu
    rows = []
    for t in config.time_grid():
        if config.isolated:
            w = ring.w_isolated(state, config.mu, t)
        elif config.early:
            w = ring.w_early(state, spec, config.mu, t)
        else:
            w = (ring.w_isolated(state, config.mu, t) if t == 0.0
                 else ring.w_general(state, spec, config.mu, inertia, t))
        rows.append([t, t / period, w.real, w.imag, abs(w)])
    _emit(config, ["t", "t_over_P", "re_w", "im_w", "abs_w"], rows)
    return EXIT_OK


def cmd_params(config: RunConfig) -> int:
    spec = config.bath_spec()
    mu = config.mu
    doc = {
        "I": {"value": HBAR * mu, "unit": "J*s^2"},
        "mu": {"value": mu, "unit": "s"},
        "P": {"value": 4.0 * math.pi * mu, "unit": "s"},
        "omega_s": {"value": omega_s(spec), "unit": "Hz"},
    }
    try:
        td = dynamics.tau_damp(spec)
        doc["tau_damp"] = {"value": td, "unit": "s"}
    except RootNotFoundError as exc:
        td = None
        doc["tau_damp"] = {"value": None, "reason": str(exc)}
    try:
        tdec = decoherence.tau_decoh(spec, mu)
        doc["tau_decoh"] = {"value": tdec, "unit": "s"}
    except RootNotFoundError as exc:
        tdec = None
        doc["tau_decoh"] = {"value": None, "reason": str(exc)}
    found = [v for v in (td, tdec) if v is not None]
    if found:
        tq = min(found)
        doc["tau_Q"] = {"value": tq, "unit": "s"}
        doc["N"] = {"value": tq / (4.0 * math.pi * mu), "unit": "periods"}
    else:
        doc["tau_Q"] = {"value": None, "reason": "no timescale found"}
        doc["N"] = {"value": None, "reason": "no timescale found"}
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _oracle_checks(config: RunConfig):
    """The cross-validation suite: yields (name, max_error, tolerance)."""
    quick = config.quick
    loosen = 10.0 if quick else 1.0
    spec = config.bath_spec()
    mu = config.mu
    inertia = HBAR * mu
    ws = omega_s(spec)

    # 1. Talbot inversion vs Mittag-Leffler fundamental solution
    worst = 0.0
    for t in np.geomspace(1e-2 / ws, 10.0 / ws, 8 if quick else 20):
        G, _ = dynamics.g_fun(spec, t)
        ref = specfun.inverse_laplace(
            lambda z: 1.0 / (z * z + z * ws ** (2.0 - spec.s) * z ** (spec.s - 1.0)), t)
        worst = max(worst, abs(G - ref) / max(abs(ref), 1e-300))
    yield "talbot_vs_mittag_leffler_G", worst, 1e-6 * loosen

    # 2. discrete-bath noise kernel vs quadrature
    n_modes = 2**12 if quick else 2**16
    bath_d = oracle.discretize_bath(spec, inertia, n_modes)
    worst = 0.0
    for t in np.linspace(0.0, 5.0 / spec.Omega, 5):
        direct = oracle.noise_kernel_direct(bath_d, spec.T, t)
        ref = noise_kernel(spec, inertia, t)
        worst = max(worst, abs(direct - ref) / max(abs(ref), 1e-300))
    yield "noise_kernel_direct_vs_quadrature", worst, 1e-4 * loosen

    # 3. exact normal-mode trajectory of the discrete bath, whose tail inertia
    # carries the weight above the cutoff, vs the fundamental solution (scaled
    # units): what is left is discretization error, at or below about 1.3e-4
    # with 4096 modes at these cutoffs (the ones acceptance criterion 3 uses).
    anchors = sorted(oracle.ODE_CUTOFFS.items())
    s_clip = min(max(spec.s, anchors[0][0]), anchors[-1][0])
    for (s_lo, w_lo), (s_hi, w_hi) in zip(anchors, anchors[1:]):
        if s_lo <= s_clip <= s_hi:
            frac = (s_clip - s_lo) / (s_hi - s_lo)
            omega_ode = w_lo * (w_hi / w_lo) ** frac
            break
    n_modes = 1024 if quick else 4096
    ode_spec = BathSpec(s=spec.s, g_s=1.0, Omega=omega_ode / (4 if quick else 1),
                        T=0.0)
    bath_o = oracle.discretize_bath(ode_spec, 1.0, n_modes)
    t_end = min(dynamics.tau_damp(ode_spec),
                0.5 * 2.0 * math.pi * n_modes / ode_spec.Omega)
    t_grid = np.linspace(0.25 * t_end, t_end, 4)
    traj = oracle.simulate_bath_ode(bath_o, 0.0, 1.0, t_grid)
    ref = np.array([dynamics.g_fun(ode_spec, t)[0] for t in t_grid])
    worst = float(np.max(np.abs(traj - ref) / np.abs(ref)))
    yield "bath_ode_vs_G", worst, 2e-3 * loosen

    # 4. closed-form Gamma vs quadrature
    worst = 0.0
    t0_spec = BathSpec(s=spec.s, g_s=spec.g_s, Omega=spec.Omega, T=0.0)
    for t in np.linspace(0.5 * math.pi * mu, 20.0 * math.pi * mu, 4 if quick else 10):
        a = decoherence.gamma_early(t0_spec, mu, t)
        b = decoherence.gamma_early_lowT(t0_spec, mu, t)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    yield "gamma_lowT_closed_form_vs_quadrature", worst, 1e-6 * loosen


def cmd_oracle(config: RunConfig) -> int:
    failed = False
    for name, err, tol in _oracle_checks(config):
        ok = err <= tol
        failed = failed or not ok
        status = "PASS" if ok else "FAIL"
        sys.stdout.write(f"{status} {name}: max_error={err:.3e} tol={tol:.1e}\n")
    return EXIT_ORACLE if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    p = _Parser(prog="cdwring",
                description="Charge-density-wave ring quantum Brownian motion")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("gfun", "amplitude", "wexp", "params", "oracle"):
        sp = sub.add_parser(name, help=f"{name} command")
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--s", help="bath exponent(s), comma separated for gfun")
        sp.add_argument("--g", type=float, help="coupling g_s, Hz^(2-s)")
        sp.add_argument("--mu", type=float, help="reduced inertia I/hbar, s")
        sp.add_argument("--omega-cutoff", type=float, help="cutoff frequency, Hz")
        sp.add_argument("--temperature", type=float, help="bath temperature, K")
        sp.add_argument("--state", help="ground | momentum:l | gaussian:theta0,sigma")
        sp.add_argument("--t-max-periods", type=float, help="grid extent in periods")
        sp.add_argument("--points", type=int, help="number of grid points")
        sp.add_argument("--n1", type=float, help="modulation amplitude")
        sp.add_argument("--early", action="store_true", default=None)
        sp.add_argument("--isolated", action="store_true", default=None)
        sp.add_argument("--quick", action="store_true", default=None)
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), help="output format")
    return p


_FLAGS = ("g", "mu", "omega_cutoff", "temperature", "state", "t_max_periods",
          "points", "n1", "early", "isolated", "quick", "out", "format")


def _load_config(args) -> tuple[RunConfig, list[float]]:
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
    known = {f for f in RunConfig.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise UsageError(f"unknown config fields: {sorted(unknown)}")
    config = RunConfig(**data)
    for flag in _FLAGS:
        val = getattr(args, flag, None)
        if val is not None:
            setattr(config, flag, val)
    s_values = [config.s]
    if args.s is not None:
        s_values = [float(v) for v in args.s.split(",")]
        config.s = s_values[0]
    if args.mu is not None:
        config.ring = None
    config.resolve()
    return config, s_values


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, s_values = _load_config(args)
        if args.command == "gfun":
            return cmd_gfun(config, s_values)
        if args.command == "amplitude":
            return cmd_amplitude(config)
        if args.command == "wexp":
            return cmd_wexp(config)
        if args.command == "params":
            return cmd_params(config)
        if args.command == "oracle":
            return cmd_oracle(config)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (EvaluationError, RootNotFoundError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
