"""Batch experiment runner for the package.

Each subcommand wires one module to files: reaction terms, 1D profiles,
minimized fields, variation reports, exact cones with their interface
geometry, and free-boundary scans.  Options come from flags or a JSON
config (flags win); outputs are CSV and JSON artifacts that reproduce
byte-for-byte on reruns.  Every JSON embeds the tool version and a
sha256 of the resolved option set.  `sweep` repeats a subcommand over
an eps list, one run after another, into per-eps subdirectories and
merges one summary.  The CLI starts OpenBLAS with one thread, as no
subcommand calls BLAS or LAPACK; a user's OPENBLAS_NUM_THREADS is kept.

Exit codes: 0 on success, 1 with an error JSON on stdout when an
operation fails, 2 when the command line or config cannot be parsed,
`solve` rejects its tolerance, cycle cap or eps, or a subcommand its grid,
--radius, --level or --bumps.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

# numpy loads OpenBLAS, whose worker threads spin on idle cores; no module calls
# BLAS or LAPACK (test_no_module_calls_blas_or_lapack), so one thread is enough.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np

from . import __version__
from .field import (
    GridSpec,
    PolyBump,
    ScalarField,
    VectorFieldSpec,
    evaluate,
    halfplane,
    load_field,
    load_vector_spec,
    make_grid,
    radial_cone,
    save_field,
)
from .ode1d import (
    first_integral_residual,
    profile_field,
    rescale,
    save_profile,
    solve_monotone,
    solve_wedge,
    wedge_field,
)
from .potentials import make_reference, make_tabulated, term_to_json, validate
from .records import read_json, to_json, write_json, write_table

__all__ = ["main", "entry"]


def __getattr__(name: str):
    # The solver, the variations and fbcheck are imported by the
    # subcommands that use them, so `import onephase.cli` loads none of
    # them.  `cli.minimize` stays readable: perfbench's tracer test checks
    # that it is wrapped.
    if name == "minimize":
        from .solver import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(ValueError):
    """The command line or config file could not be interpreted."""


_CHECKS = (
    "nondeg",
    "density",
    "zero-density",
    "lipschitz",
    "l1",
    "hausdorff",
    "exit",
    "poincare",
)


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _ints(text: str) -> list[int]:
    values = _floats(text)
    if not all(v.is_integer() for v in values):
        raise ConfigError(f"expected comma-separated integers, got {text!r}")
    return [int(v) for v in values]


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="onephase", description="One-phase transition-layer experiments."
    )
    subs = parser.add_subparsers(dest="command", required=True)
    table: dict[str, argparse.ArgumentParser] = {}

    def sub(name: str, text: str) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=text)
        p.add_argument("--config", default=None, help="JSON file with option defaults")
        p.add_argument("--out", default=".", help="output directory")
        if name != "sweep":
            p.add_argument("--T", type=float, default=1.0)
        table[name] = p
        return p

    p = sub("potential", "validate a reaction term and optionally tabulate it")
    p.add_argument("--table", default=None, help="CSV of (s, f) rows for a tabulated term")
    p.add_argument("--tabulate", type=int, default=0, help="emit an (s, f, F) CSV with this many rows")

    p = sub("profile", "integrate a 1D profile and report its invariants")
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--wedge", action="store_true")
    p.add_argument("--s", type=float, default=None, help="wedge slope")
    p.add_argument("--s2", type=float, default=None, help="wedge slope squared")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--h", type=float, default=None)

    p = sub("solve", "minimize the energy over a grid with fixed boundary data")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--lo", default="-1,-1")
    p.add_argument("--hi", default="1,1")
    p.add_argument("--n", default="201")
    p.add_argument("--boundary", default="profile", help="field source or CSV path")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=20_000, help="cap on multigrid cycles")

    p = sub("vary", "inner variations of a stored field under a stored deformation")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--field", required=False, default=None, help="field CSV path")
    p.add_argument("--x", required=False, default=None, help="deformation spec JSON path")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--emit-interface", action="store_true")

    p = sub("check", "free-boundary scans and convergence measures")
    p.add_argument("--what", choices=_CHECKS, required=False, default=None)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--field", default="profile", help="field source or CSV path")
    p.add_argument("--limit", default="halfplane", help="limit field source or CSV path")
    p.add_argument("--lo", default="-1,-1")
    p.add_argument("--hi", default="1,1")
    p.add_argument("--n", default="201")
    p.add_argument("--radius", type=float, default=0.5, help="radial zero-set radius")
    p.add_argument("--s", type=float, default=None, help="wedge slope, eps by default")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--radii", default="0.25,0.5")
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--point", default=None)
    p.add_argument("--zero-fraction", type=float, default=0.0)
    p.add_argument("--bumps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub("cone", "exact half-plane or radial fields with interface geometry")
    p.add_argument("--kind", choices=("halfplane", "radial"), default="halfplane")
    p.add_argument("--h", type=float, default=0.005)
    p.add_argument("--lo", default="-1,-1")
    p.add_argument("--hi", default="1,1")
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--emit-interface", action="store_true")
    p.add_argument("--x", default=None, help="deformation spec JSON for the surface forms")

    p = sub("sweep", "repeat a subcommand over an eps list and merge a summary")
    p.add_argument(
        "--command",
        dest="sub_command",
        choices=("profile", "solve", "check"),
        default=None,
    )
    p.add_argument("--check", dest="check_what", choices=_CHECKS, default=None)
    p.add_argument("--eps", required=False, default=None, help="comma-separated eps list")
    p.add_argument("--sub-config", default=None, help="config JSON forwarded to each run")

    return parser, table


def _load_config(path: str) -> dict:
    try:
        payload = read_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    return payload


def _config_hash(args: argparse.Namespace) -> str:
    resolved = {k: v for k, v in vars(args).items() if k != "config"}
    blob = json.dumps(resolved, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# At most 4096^2 nodes: one float64 field of that size takes 134 MB, and a
# solve holds tens of whole-grid arrays.
_MAX_NODES = 4096**2


def _grid_from_args(args) -> GridSpec:
    """The grid from --lo to --hi by --n nodes per axis, or cone's --h: else ConfigError."""
    lo, hi = _floats(args.lo), _floats(args.hi)
    if args.command == "cone":
        if not 0.0 < args.h < math.inf:
            raise ConfigError(f"--h must be finite and positive, got {args.h}")
        n = [np.round((b - a) / args.h) + 1.0 for a, b in zip(lo, hi)]
    else:
        n = _ints(args.n)
        n = n * len(lo) if len(n) == 1 else n
    try:  # the bound is checked before any count becomes an integer
        if not math.prod(abs(k) for k in n) <= _MAX_NODES:
            shape = " x ".join(f"{k:.6g}" for k in n)
            raise ValueError(f"a {shape} grid exceeds the bound of {_MAX_NODES} nodes")
        return make_grid(tuple(lo), tuple(hi), tuple(int(k) for k in n))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _level(args, grid: GridSpec) -> float:
    """The interface level: --level, h/2 by default; ConfigError unless finite."""
    if args.level is not None and not math.isfinite(args.level):
        raise ConfigError(f"--level must be finite, got {args.level}")
    return 0.5 * grid.h if args.level is None else args.level


def _field_from_source(source: str, grid: GridSpec, eps: float, term, args) -> ScalarField:
    """The field source a --boundary, --field or --limit value names, else that CSV."""
    if source == "halfplane":
        return halfplane(grid)
    if source == "radial":
        try:  # a --radius that is not finite and positive is a usage error
            return radial_cone(grid, getattr(args, "radius", 0.5))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if source == "profile":
        return profile_field(term, grid, eps)
    if source == "wedge":
        s = args.s if getattr(args, "s", None) is not None else eps
        return wedge_field(term, grid, eps, s)
    return load_field(source)


def _run_potential(args, out: Path) -> dict:
    if args.table is not None:
        first = Path(args.table).read_text(encoding="utf-8").splitlines()
        skip = 1 if first and first[0][:1].isalpha() else 0
        # A hand-made input: no sidecar, maybe no header.
        rows = np.loadtxt(args.table, delimiter=",", ndmin=2, skiprows=skip)
        term = make_tabulated(rows[:, :2])
    else:
        term = make_reference(args.T)
    payload = {"term": term_to_json(term), "validate": validate(term)}
    if args.tabulate:
        s = np.linspace(-0.25 * term.T, 1.25 * term.T, args.tabulate)
        table = np.stack([s, np.asarray(term.f(s)), np.asarray(term.F(s))], axis=1)
        write_table(out / "potential_table.csv", "s,f,F", table)
    return payload


def _run_profile(args, out: Path) -> dict:
    term = make_reference(args.T)
    eps = args.eps
    if args.wedge:
        if (args.s is None) == (args.s2 is None):
            raise ConfigError("wedge profiles need exactly one of --s or --s2")
        s = args.s if args.s is not None else math.sqrt(args.s2)
        # The layer is T*eps wide, so the default span and step scale with
        # it; at T = 1 they are 30*eps and 1e-3*eps to the bit.
        t_max = args.t_max if args.t_max is not None else 30.0 * args.T * eps
        h = args.h if args.h is not None else 1e-3 * args.T * eps
        prof = solve_wedge(term, eps, s, t_max, h)
    else:
        t_max = args.t_max if args.t_max is not None else 30.0 * args.T
        h = args.h if args.h is not None else 1e-3 * args.T
        prof = solve_monotone(term, -t_max, t_max, h)
        if eps != 1.0:
            prof = rescale(prof, eps)
    save_profile(prof, out / "profile.csv")
    i0 = int(np.argmin(np.abs(prof.t)))
    return {
        "kind": prof.kind,
        "eps": prof.eps,
        "s": prof.s,
        "V0": float(prof.V[i0]),
        "slope_end": float(prof.Vp[-1]),
        "first_integral_residual": first_integral_residual(prof, term),
    }


def _run_solve(args, out: Path) -> dict:
    from .solver import GridBoundError, SolveConfig, minimize

    try:  # the solver checks the settings and the grid bound: usage errors
        cfg = SolveConfig(eps=args.eps, tol_residual=args.tol, max_iter=args.max_iter)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    term = make_reference(args.T)
    grid = _grid_from_args(args)
    boundary = _field_from_source(args.boundary, grid, args.eps, term, args)
    try:
        u, report = minimize(boundary, boundary, term, cfg)
    except GridBoundError as exc:
        raise ConfigError(str(exc)) from exc
    save_field(u, out / "solution.csv")
    payload = to_json(report)
    payload["energy"] = report.energy_trace[-1]  # the energy of u
    # The grid the solve ran on: a CSV boundary brings its own.
    payload["grid"] = {"lo": list(u.grid.origin), "h": u.grid.h, "shape": list(u.grid.shape)}
    return payload


def _run_vary(args, out: Path) -> dict:
    if args.field is None or args.x is None:
        raise ConfigError("vary needs --field and --x")
    from .variations import extract_interface, save_curve, variation_report

    term = make_reference(args.T)
    u = load_field(args.field)
    spec = load_vector_spec(args.x)
    level = _level(args, u.grid)
    curve = None
    if args.emit_interface:
        curve = extract_interface(u, level)
        save_curve(curve, out / "interface.csv")
    report = variation_report(u, spec, term, args.eps, dt=args.dt, curve=curve)
    return to_json(report)


def _run_check(args, out: Path) -> dict:
    if args.what is None:
        raise ConfigError("check needs --what")
    from . import fbcheck

    term = make_reference(args.T)
    theta = args.theta if args.theta is not None else term.tau / 4.0
    grid = _grid_from_args(args)
    eps = args.eps
    what = args.what
    if what == "poincare" and args.field == "bumps":
        if args.bumps < 1:
            raise ConfigError(f"--bumps must be at least 1, got {args.bumps}")
        value = _bump_suite_ratio(grid, args.bumps, args.seed, args.zero_fraction)
        return {"check": "poincare", "value": value, "suite": args.bumps, "seed": args.seed}
    u = _field_from_source(args.field, grid, eps, term, args)
    radii = _floats(args.radii)
    if what == "nondeg":
        scan = fbcheck.nondegeneracy_scan(u, eps, theta, radii, args.threshold)
        return fbcheck.check_to_json(scan)
    if what == "density":
        scan = fbcheck.density_scan(u, term, eps, args.L, radii, args.threshold)
        return fbcheck.check_to_json(scan)
    if what == "zero-density":
        return fbcheck.check_to_json(fbcheck.zero_phase_density(u, radii, args.threshold))
    if what == "lipschitz":
        return {"check": "lipschitz", "value": fbcheck.lipschitz_constant(u)}
    if what == "poincare":
        return {"check": "poincare", "value": fbcheck.poincare_ratio(u, args.zero_fraction)}
    if what == "exit":
        if args.point is None:
            raise ConfigError("exit needs --point")
        r = fbcheck.exit_radius(u, term, eps, theta, _floats(args.point))
        reached = math.isfinite(r)
        return {"check": "exit", "eps": eps, "reached": reached, "value": r if reached else None}
    limit = _field_from_source(args.limit, u.grid, eps, term, args)
    if what == "l1":
        return {"check": "l1", "eps": eps, "value": fbcheck.l1_gap(u, limit, term, eps)}
    band = fbcheck.level_region(u, term, eps, "F", term.tau)
    boundary = np.argwhere(fbcheck._limit_boundary(limit.values))
    value = fbcheck.hausdorff_distance(band, boundary, u.grid.h)
    return {"check": "hausdorff", "eps": eps, "value": value}


def _bump_suite_ratio(grid: GridSpec, count: int, seed: int, zero_fraction: float) -> float:
    from .fbcheck import poincare_ratio

    if grid.dim != 2:
        raise ValueError("the bump suite needs a 2D grid")
    rng = np.random.default_rng(seed)
    zero = PolyBump(coeffs=np.zeros((4, 4)), center=(0.0, 0.0), halfwidths=(0.3, 0.3))
    worst = 0.0
    for _ in range(count):
        coeffs = np.zeros((4, 4))
        for a in range(4):
            for b in range(4 - a):
                coeffs[a, b] = rng.uniform(-1.0, 1.0)
        bump = PolyBump(
            coeffs=coeffs,
            center=tuple(rng.uniform(-0.3, 0.3, size=2)),
            halfwidths=tuple(rng.uniform(0.3, 0.6, size=2)),
        )
        spec = VectorFieldSpec(dim=2, components=(bump, zero))
        g = ScalarField(grid=grid, values=evaluate(spec, grid)[..., 0])
        worst = max(worst, poincare_ratio(g, zero_fraction))
    return worst


def _run_cone(args, out: Path) -> dict:
    from . import variations

    grid = _grid_from_args(args)
    level = _level(args, grid)
    term = make_reference(args.T)
    u = _field_from_source(args.kind, grid, 0.0, term, args)
    save_field(u, out / "field.csv")
    payload: dict = {"kind": args.kind, "h": grid.h, "shape": list(grid.shape)}
    curve = None
    if args.emit_interface or args.x is not None:
        curve = variations.extract_interface(u, level)
        variations.save_curve(curve, out / "interface.csv")
        expected = 0.0 if args.kind == "halfplane" else 1.0 / args.radius
        errors = np.abs(curve.curvature[~curve.singular] - expected)
        payload["interface"] = {
            "vertices": len(curve),
            "closed": curve.closed,
            "H_expected": expected,
            # None when no regular vertex exists to measure.
            "max_abs_H_error": float(np.max(errors)) if len(errors) else None,
            "singular_vertices": int(np.count_nonzero(curve.singular)),
        }
    if args.x is not None:
        spec = load_vector_spec(args.x)
        first, second = variations.inner_variations(u, spec, term, 0.0)
        payload["forms"] = {
            "first_volume": first,
            "second_volume": second,
            "second_surface": variations.surface_second_variation(u, spec, curve),
        }
    return payload


def _run_sweep(args, out: Path) -> dict:
    command = args.sub_command
    if args.check_what is not None:
        if command not in (None, "check"):
            raise ConfigError("--check only applies to the check subcommand")
        command = "check"
    if command is None:
        raise ConfigError("sweep needs --command or --check")
    if args.eps is None:
        raise ConfigError("sweep needs --eps")
    eps_list = _floats(args.eps)
    if not eps_list:
        raise ConfigError("sweep needs a nonempty --eps list")
    names = [f"eps_{eps:g}" for eps in eps_list]
    clash = sorted({name for name in names if names.count(name) > 1})
    if clash:
        raise ConfigError(f"eps values collide in directory names {clash}")

    base = [command]
    if args.sub_config is not None:
        base += ["--config", args.sub_config]
    if command == "check" and args.check_what is not None:
        base += ["--what", args.check_what]
    # One run at a time: the work holds the GIL, and the runs share the
    # process's profile cache in ode1d.
    codes = [
        main(base + ["--eps", repr(eps), "--out", str(out / name)])
        for eps, name in zip(eps_list, names)
    ]
    if any(code != 0 for code in codes):
        bad = [f"{e:g}" for e, c in zip(eps_list, codes) if c != 0]
        raise RuntimeError(f"sweep entries failed for eps in {{{', '.join(bad)}}}")

    entries = []
    for eps, name in zip(eps_list, names):
        report = read_json(out / name / "report.json")
        entries.append({"eps": eps, "dir": name, "report": report})
    return {"command": command, "eps": eps_list, "entries": entries}


_RUNNERS = {
    "potential": _run_potential,
    "profile": _run_profile,
    "solve": _run_solve,
    "vary": _run_vary,
    "check": _run_check,
    "cone": _run_cone,
    "sweep": _run_sweep,
}


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run one subcommand, and return the exit code.

    Args:
        argv: argument list without the program name; sys.argv by default.

    Returns:
        0 on success, 1 after an operation error (error JSON on stdout),
        2 when the command line or config file cannot be parsed, `solve`
        rejects its tolerance, cycle cap or eps, or a subcommand its grid,
        --radius, --level or --bumps.
    """
    parser, table = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            cfg = _load_config(args.config)
            allowed = {
                a.dest for a in table[args.command]._actions if a.dest != "help"
            }
            unknown = set(cfg) - allowed
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            table[args.command].set_defaults(**cfg)
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr, flush=True)
        return 2

    stamp = {"version": __version__, "config_sha256": _config_hash(args)}
    out = Path(args.out)
    new_dirs = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    code = 0
    try:
        out.mkdir(parents=True, exist_ok=True)
        payload = _RUNNERS[args.command](args, out)
        name = "summary.json" if args.command == "sweep" else "report.json"
        write_json(out / name, {**payload, **stamp})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr, flush=True)
        code = 2
    except Exception as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        print(json.dumps({"error": error, **stamp}, sort_keys=True), flush=True)
        code = 1
    while code and new_dirs and new_dirs[0].is_dir() and not any(new_dirs[0].iterdir()):
        new_dirs.pop(0).rmdir()
    return code


def entry() -> None:
    """Console-script wrapper around main."""
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
