"""Seeded workload definitions for the onephase CLI benchmark.

A workload is a list of `Op`s: one CLI argv each, run in a fresh
interpreter from its own directory with `--out out`.  Inputs that the CLI
reads from files (stored fields, deformation specs) are written before any
timing by `write_inputs`, through the library's public writers.  Every op
names the output check in `checks.py` that validates it.

Why these three workloads (see README.md for the layer map):

- solve: the grid minimizer dominates (solver + potentials.f_eps), with a
  near start (profile boundary, pays the ode1d profile) and a far start
  (halfplane boundary, no ode1d at all).
- vary: deformation-field tables, flows/pullbacks, the FD oracle and field
  I/O; the solver is never called and no monotone profile is built.
- scan: many short processes, each paying the import and most paying the
  RK4 profile, plus the fbcheck scans and the threaded sweep; no solver, no
  variations.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("solve", "vary", "scan")

# Relative paths as the CLI sees them from an op directory.  Keeping them
# relative (and identical between traced and untraced runs) keeps the
# config_sha256 embedded in every report, and so the bytes, identical.
INPUTS_REL = "../../inputs"
OUT_REL = "out"

VARY_EPS = 0.1
VARY_N = 201
WEDGE_S2 = 0.3125
SWEEP_EPS = (0.2, 0.1, 0.05, 0.025)


@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI invocation and the check that validates its outputs."""

    name: str
    argv: tuple[str, ...]
    check: str
    params: dict = dataclasses.field(default_factory=dict)
    env: dict = dataclasses.field(default_factory=dict)


def _rng(seed: int, workload: str) -> np.random.Generator:
    # One independent stream per workload, so adding an op to one workload
    # never shifts the inputs of another.
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _num(x: float) -> str:
    return repr(float(x))


def _solve_ops(rng: np.random.Generator) -> list[Op]:
    # The seed shifts the y-window by a whole number of grid steps within
    # [-0.05, 0.05]; the profile layer sits at y = 0, so the solution family
    # is translated, not reshaped.  The iteration count depends on where the
    # layer falls between grid nodes (at 101^2, eps 0.05: ~38 iterations
    # with a node on y = 0, ~190 with y = 0 midway between nodes), so that
    # alignment is fixed per op and the work does not depend on the seed.
    # Profile-boundary solutions depend on y only, up to the gap between the
    # continuous profile on the x-walls and the discrete one inside, which
    # grows like (h / eps)^2 (measured: 6.1e-5 at 201^2, 2.9e-3 at 101^2).
    cases = (
        # boundary, eps, n, offset in grid steps, x-independence bound
        ("profile", 0.1, 201, 0.0, 5e-4),
        ("halfplane", 0.1, 201, 0.0, None),
        ("profile", 0.05, 101, 0.5, 1e-2),
    )
    ops = []
    for k, (boundary, eps, n, offset, x_tol) in enumerate(cases):
        h = 2.0 / (n - 1)
        steps = int(rng.integers(math.ceil(-0.05 / h - offset), math.floor(0.05 / h - offset) + 1))
        dy = h * (steps + offset)
        argv = (
            "solve", "--eps", _num(eps),
            f"--lo=-1,{_num(-1.0 + dy)}", f"--hi=1,{_num(1.0 + dy)}",
            "--n", str(n), "--boundary", boundary, "--tol", "1e-08",
            "--out", OUT_REL,
        )
        ops.append(
            Op(
                name=f"solve{k}_{boundary}_{n}",
                argv=argv,
                check="solve",
                params={"tol": 1e-8, "x_tol": x_tol},
            )
        )
    return ops


def _poly_spec(rng: np.random.Generator, center_span: float, halfwidth: float):
    """Random 2D PolyBump spec with total degree <= 2 and O(1) coefficients.

    Both components share one seeded center and fixed halfwidths: the flow
    and table cost scales with the area of the spec's support box, so a
    seeded box size would make the work depend on the seed.
    """
    from onephase.field import PolyBump, VectorFieldSpec

    center = tuple(rng.uniform(-center_span, center_span, size=2))
    comps = []
    for _ in range(2):
        coeffs = np.zeros((4, 4))
        for a in range(3):
            for b in range(3 - a):
                coeffs[a, b] = rng.uniform(-0.8, 0.8)
        comps.append(
            PolyBump(coeffs=coeffs, center=center, halfwidths=(halfwidth, halfwidth))
        )
    return VectorFieldSpec(dim=2, components=tuple(comps))


def _layer_field(rng: np.random.Generator):
    """eps * softplus((n.x - c) / eps) on [-1, 1]^2 with a seeded n and c."""
    from onephase.field import ScalarField, make_grid

    grid = make_grid((-1.0, -1.0), (1.0, 1.0), (VARY_N, VARY_N))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c = rng.uniform(-0.2, 0.2)
    xm, ym = np.meshgrid(*grid.axes(), indexing="ij")
    s = (math.cos(angle) * xm + math.sin(angle) * ym - c) / VARY_EPS
    return ScalarField(grid=grid, values=VARY_EPS * np.logaddexp(0.0, s))


def _vary_inputs(rng: np.random.Generator) -> dict[str, object]:
    """Input files of the vary workload, as name -> (kind, object)."""
    files: dict[str, object] = {"spec0.json": ("spec", _poly_spec(rng, 0.1, 0.55))}
    for k in (1, 2):
        files[f"field{k}.csv"] = ("field", _layer_field(rng))
        files[f"spec{k}.json"] = ("spec", _poly_spec(rng, 0.15, 0.45))
    return files


def _vary_ops() -> list[Op]:
    ops = [
        Op(
            name="cone_radial_401",
            argv=(
                "cone", "--kind", "radial", "--radius", "0.5", "--emit-interface",
                "--x", f"{INPUTS_REL}/spec0.json", "--out", OUT_REL,
            ),
            check="cone",
            params={"radius": 0.5},
        )
    ]
    for k in (1, 2):
        ops.append(
            Op(
                name=f"vary{k}_layer_{VARY_N}",
                argv=(
                    "vary", "--eps", _num(VARY_EPS),
                    "--field", f"{INPUTS_REL}/field{k}.csv",
                    "--x", f"{INPUTS_REL}/spec{k}.json", "--out", OUT_REL,
                ),
                check="vary",
            )
        )
    return ops


def _scan_ops(rng: np.random.Generator) -> list[Op]:
    px = float(rng.uniform(-0.3, 0.3))
    py = float(rng.uniform(-0.12, -0.06))
    bump_seed = int(rng.integers(0, 2**31 - 1))
    return [
        Op(
            name="check_nondeg",
            argv=("check", "--what", "nondeg", "--threshold", "0.5", "--out", OUT_REL),
            check="scan_pass",
        ),
        Op(
            name="check_density_401",
            argv=(
                "check", "--what", "density", "--n", "401",
                "--radii", "0.5,1.0", "--threshold", "0.1", "--out", OUT_REL,
            ),
            check="scan_pass",
        ),
        Op(
            name="check_exit",
            argv=(
                "check", "--what", "exit", "--theta", "0.125",
                f"--point={_num(px)},{_num(py)}", "--out", OUT_REL,
            ),
            check="exit",
        ),
        Op(
            name="check_poincare_bumps",
            argv=(
                "check", "--what", "poincare", "--field", "bumps",
                "--seed", str(bump_seed), "--out", OUT_REL,
            ),
            check="poincare",
        ),
        Op(
            name="profile_wedge",
            argv=("profile", "--wedge", "--s2", _num(WEDGE_S2), "--out", OUT_REL),
            check="wedge",
            params={"s": math.sqrt(WEDGE_S2)},
        ),
        Op(
            name="sweep_l1_threads2",
            argv=(
                "sweep", "--check", "l1",
                "--eps", ",".join(_num(e) for e in SWEEP_EPS), "--out", OUT_REL,
            ),
            check="sweep_l1",
            params={"eps": list(SWEEP_EPS)},
            env={"ONEPHASE_THREADS": "2"},
        ),
    ]


def build(workload: str, seed: int) -> tuple[list[Op], dict[str, object]]:
    """The ops of a workload and the input files they read, for one seed.

    Returns:
        (ops, inputs) where inputs maps a file name under the inputs
        directory to a ("field" | "spec", object) pair.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = _rng(seed, workload)
    if workload == "solve":
        return _solve_ops(rng), {}
    if workload == "vary":
        inputs = _vary_inputs(rng)
        return _vary_ops(), inputs
    return _scan_ops(rng), {}


def write_inputs(inputs: dict[str, object], directory: Path) -> None:
    """Write generated inputs with the library's own writers."""
    from onephase.field import save_field, save_vector_spec

    directory.mkdir(parents=True, exist_ok=True)
    for name, (kind, obj) in inputs.items():
        if kind == "field":
            save_field(obj, directory / name)
        else:
            save_vector_spec(obj, directory / name)
