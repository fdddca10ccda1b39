"""Correctness checks on the outputs of each `cdwring` command.

Each check takes the command's argv and output text and returns a list of
problems (empty when the output is correct).  They run outside the timed
region.  The amplitude checks compare the quadrature Gamma column with the
closed form `gamma_early_lowT`, an independent route through 1F2.
"""

from __future__ import annotations

import json
import math

W_SLACK = 1e-6       # |<W>| <= 1 + W_SLACK
LOWT_REL_TOL = 1e-6  # T = 0: quadrature Gamma vs the 1F2 closed form


def option(argv: list[str], flag: str, default: str | None = None) -> str | None:
    """Value of ``flag`` in ``argv``, or ``default`` when it is absent."""
    return argv[argv.index(flag) + 1] if flag in argv else default


def parse_table(text: str) -> tuple[list[str], list[list[float]]]:
    """Columns and rows of a CSV or JSON table written by the CLI."""
    if text.startswith("{"):
        doc = json.loads(text)
        return doc["columns"], [[float(v) for v in row] for row in doc["rows"]]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    return columns, [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _table_problems(columns, rows) -> list[str]:
    if not rows:
        return ["no rows"]
    if any(len(r) != len(columns) for r in rows):
        return ["ragged rows"]
    if not all(math.isfinite(v) for r in rows for v in r):
        return ["non-finite value"]
    return []


def check_gfun(argv, text) -> list[str]:
    return _table_problems(*parse_table(text))


def check_wexp(argv, text) -> list[str]:
    columns, rows = parse_table(text)
    problems = _table_problems(columns, rows)
    if problems:
        return problems
    k = columns.index("abs_w")
    worst = max(r[k] for r in rows)
    return [f"|<W>| = {worst!r} > 1"] if worst > 1.0 + W_SLACK else []


def check_amplitude(argv, text) -> list[str]:
    from cdwring.bath import BathSpec
    from cdwring.decoherence import gamma_early_lowT

    columns, rows = parse_table(text)
    problems = _table_problems(columns, rows)
    if problems:
        return problems
    n1 = float(option(argv, "--n1", "1.0"))
    mu = float(option(argv, "--mu"))
    temperature = float(option(argv, "--temperature", "0.0"))
    spec0 = BathSpec(s=float(option(argv, "--s")), g_s=float(option(argv, "--g")),
                     Omega=1.0 / mu, T=0.0)
    it, ia, ig = (columns.index(c) for c in ("t", "n1_osc", "Gamma"))
    for r in rows:
        if abs(r[ia]) > n1:
            problems.append(f"|n1_osc| = {abs(r[ia])!r} > n1 at t = {r[it]!r}")
    for prev, cur in zip(rows, rows[1:]):
        if cur[ig] < prev[ig]:
            problems.append(f"Gamma decreases at t = {cur[it]!r}")
    for r in rows:
        closed = gamma_early_lowT(spec0, mu, r[it])
        if temperature == 0.0:
            if abs(r[ig] - closed) > LOWT_REL_TOL * abs(closed):
                problems.append(f"Gamma {r[ig]!r} != closed form {closed!r} "
                                f"at t = {r[it]!r}")
        elif r[ig] < closed * (1.0 - LOWT_REL_TOL):
            problems.append(f"Gamma {r[ig]!r} < T = 0 closed form {closed!r} "
                            f"at t = {r[it]!r}")
    return problems


def check_params(argv, text) -> list[str]:
    doc = json.loads(text)
    values = {k: v.get("value") for k, v in doc.items()}
    problems = [f"{k} = {v!r} is not positive" for k, v in sorted(values.items())
                if v is None or not v > 0]
    if problems:
        return problems
    expect = min(values["tau_damp"], values["tau_decoh"])
    if values["tau_Q"] != expect:
        problems.append(f"tau_Q = {values['tau_Q']!r} != min(tau_damp, tau_decoh)"
                        f" = {expect!r}")
    return problems


def check_oracle(argv, text) -> list[str]:
    lines = text.splitlines()
    if not lines:
        return ["no oracle lines"]
    return [ln for ln in lines if not ln.startswith("PASS ")]


CHECKS = {
    "gfun": check_gfun,
    "wexp": check_wexp,
    "amplitude": check_amplitude,
    "params": check_params,
    "oracle": check_oracle,
}


def check(argv: list[str], text: str) -> list[str]:
    """Problems with one command's output; a parse error is a problem too."""
    try:
        return CHECKS[argv[0]](argv, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
