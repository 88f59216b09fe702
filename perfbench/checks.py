"""Output checks for benchmark ops.

Each check reads the artifacts an op wrote under its --out directory and
returns a list of problems; an empty list means the output is correct.
The tolerances are fixed here, with the value measured at the commit that
introduced the benchmark noted beside each one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# FD oracle against the analytic inner variations on the vary fields
# (measured over seeds: absolute gap <= 6e-5 on the first variation, relative
# gap <= 7e-3 on the second).  (rtol, atol) pairs.
FIRST_VARIATION_TOL = (5e-3, 2e-4)
SECOND_VARIATION_TOL = (3e-2, 1e-3)
# Exact radial cone at h = 0.005: volume vs surface second variation
# (measured: relative gap 2-3.5 %), curvature error (measured: 1.3e-2).
CONE_FORMS_RTOL = 8e-2
CONE_H_TOL = 2e-2
CONE_FIRST_ABS = 1e-3
WEDGE_SLOPE_TOL = 1e-6


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def check_solve(out: Path, params: dict) -> list[str]:
    rep = _read_json(out / "report.json")
    problems = []
    if rep.get("converged") is not True:
        problems.append("solve did not converge")
    if not rep.get("final_residual", math.inf) <= params["tol"]:
        problems.append(f"final_residual {rep.get('final_residual')} > {params['tol']}")
    x_tol = params.get("x_tol")
    if x_tol is not None:
        shape = tuple(rep["grid"]["shape"])
        u = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)[:, -1]
        u = u.reshape(shape)
        spread = float(np.max(np.abs(u - u[shape[0] // 2][None, :])))
        if not spread <= x_tol:
            problems.append(f"profile solution varies in x by {spread:.3e}")
    return problems


def check_vary(out: Path, params: dict) -> list[str]:
    rep = _read_json(out / "report.json")
    problems = []
    for order, tol in (("first", FIRST_VARIATION_TOL), ("second", SECOND_VARIATION_TOL)):
        a, fd = rep[f"{order}_analytic"], rep[f"{order}_fd"]
        if not _close(a, fd, *tol):
            problems.append(f"{order} variation: analytic {a} vs fd {fd}")
    if rep.get("classical_second") is None:
        problems.append("classical second variation missing at eps > 0")
    return problems


def check_cone(out: Path, params: dict) -> list[str]:
    rep = _read_json(out / "report.json")
    iface, forms = rep["interface"], rep["forms"]
    problems = []
    if iface["closed"] is not True:
        problems.append("radial interface is not closed")
    if not iface["max_abs_H_error"] <= CONE_H_TOL:
        problems.append(f"max_abs_H_error {iface['max_abs_H_error']} > {CONE_H_TOL}")
    if not abs(iface["H_expected"] - 1.0 / params["radius"]) <= 1e-12:
        problems.append(f"H_expected {iface['H_expected']}")
    if not abs(forms["first_volume"]) <= CONE_FIRST_ABS:
        problems.append(f"first_volume {forms['first_volume']} is not ~0")
    if not _close(forms["second_volume"], forms["second_surface"], CONE_FORMS_RTOL, 0.0):
        problems.append(
            f"second_volume {forms['second_volume']} vs "
            f"second_surface {forms['second_surface']}"
        )
    return problems


def check_scan_pass(out: Path, params: dict) -> list[str]:
    rep = _read_json(out / "report.json")
    if rep.get("pass") is not True or not rep.get("values"):
        return [f"{rep.get('check')} scan did not pass: worst {rep.get('worst')}"]
    return []


def check_exit(out: Path, params: dict) -> list[str]:
    rep = _read_json(out / "report.json")
    if rep.get("reached") is not True or not 0.0 < (rep.get("value") or 0.0) < 0.2:
        return [f"exit radius not reached: {rep.get('value')}"]
    return []


def check_poincare(out: Path, params: dict) -> list[str]:
    rep = _read_json(out / "report.json")
    if not 0.0 < rep.get("value", 0.0) <= 1.0:
        return [f"poincare ratio {rep.get('value')} outside (0, 1]"]
    return []


def check_wedge(out: Path, params: dict) -> list[str]:
    rep = _read_json(out / "report.json")
    problems = []
    if not abs(rep["slope_end"] - params["s"]) <= WEDGE_SLOPE_TOL:
        problems.append(f"wedge slope_end {rep['slope_end']} != {params['s']}")
    if not rep["first_integral_residual"] < 1e-8:
        problems.append(f"first_integral_residual {rep['first_integral_residual']}")
    return problems


def check_sweep_l1(out: Path, params: dict) -> list[str]:
    rep = _read_json(out / "summary.json")
    eps = [e["eps"] for e in rep["entries"]]
    if eps != params["eps"]:
        return [f"sweep entries {eps} != {params['eps']}"]
    gaps = [e["report"]["value"] for e in rep["entries"]]
    if not all(a > b > 0.0 for a, b in zip(gaps, gaps[1:])):
        return [f"l1 gaps do not fall with eps: {gaps}"]
    return []


CHECKS = {
    "solve": check_solve,
    "vary": check_vary,
    "cone": check_cone,
    "scan_pass": check_scan_pass,
    "exit": check_exit,
    "poincare": check_poincare,
    "wedge": check_wedge,
    "sweep_l1": check_sweep_l1,
}


def run_check(name: str, out: Path, params: dict) -> list[str]:
    """Run one named check; unreadable or malformed output is a problem."""
    try:
        return CHECKS[name](out, params)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{name} check could not read the output: {type(exc).__name__}: {exc}"]
