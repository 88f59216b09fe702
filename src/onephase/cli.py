"""Batch experiment runner for the package.

Each subcommand wires one module to files: reaction terms, 1D profiles,
minimized fields, variation reports, exact cones with their interface
geometry, and free-boundary scans.  Options come from flags or a JSON
config (flags win); outputs are CSV and JSON artifacts that reproduce
byte-for-byte on reruns.  Every JSON embeds the tool version and a
sha256 of the resolved option set.  `sweep` repeats a subcommand over
an eps list, one run after another, into per-eps subdirectories and
merges one summary.

Exit codes: 0 on success, 1 with an error JSON on stdout when an
operation fails, 2 when the command line or config cannot be parsed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fbcheck import (
    _limit_boundary,
    check_to_json,
    density_scan,
    exit_radius,
    hausdorff_distance,
    l1_gap,
    level_region,
    lipschitz_constant,
    nondegeneracy_scan,
    poincare_ratio,
    zero_phase_density,
)
from .field import (
    GridSpec,
    PolyBump,
    ScalarField,
    VectorFieldSpec,
    evaluate,
    load_field,
    load_vector_spec,
    make_grid,
    save_field,
)
from .ode1d import (
    first_integral_residual,
    rescale,
    save_profile,
    solve_monotone,
    solve_wedge,
)
from .potentials import make_reference, make_tabulated, term_to_json, validate
from .records import read_json, to_json, write_json, write_table

__all__ = ["main", "entry"]


def __getattr__(name: str):
    # The solver and the variations are imported by the subcommands that
    # use them, so `import onephase.cli` loads neither.  `cli.minimize`
    # stays readable: perfbench's tracer test checks that it is wrapped.
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
_FIELD_SOURCES = ("profile", "halfplane", "wedge", "radial")


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
        table[name] = p
        return p

    p = sub("potential", "validate a reaction term and optionally tabulate it")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--table", default=None, help="CSV of (s, f) rows for a tabulated term")
    p.add_argument("--tabulate", type=int, default=0, help="emit an (s, f, F) CSV with this many rows")

    p = sub("profile", "integrate a 1D profile and report its invariants")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--wedge", action="store_true")
    p.add_argument("--s", type=float, default=None, help="wedge slope")
    p.add_argument("--s2", type=float, default=None, help="wedge slope squared")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--h", type=float, default=None)

    p = sub("solve", "minimize the energy over a grid with fixed boundary data")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--lo", default="-1,-1")
    p.add_argument("--hi", default="1,1")
    p.add_argument("--n", default="201")
    p.add_argument("--boundary", default="profile", help="field source or CSV path")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=20_000)

    p = sub("vary", "inner variations of a stored field under a stored deformation")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--field", required=False, default=None, help="field CSV path")
    p.add_argument("--x", required=False, default=None, help="deformation spec JSON path")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--emit-interface", action="store_true")

    p = sub("check", "free-boundary scans and convergence measures")
    p.add_argument("--what", choices=_CHECKS, required=False, default=None)
    p.add_argument("--T", type=float, default=1.0)
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
    p.add_argument("--T", type=float, default=1.0)
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
        choices=("profile", "solve", "check", "cone"),
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


_PROFILE_CACHE: dict[float, object] = {}


def _base_profile(term):
    # The layer is T wide: span and step scale with T, the step count not.
    T = term.T
    if T not in _PROFILE_CACHE:
        _PROFILE_CACHE[T] = solve_monotone(term, -30.0 * T, 30.0 * T, 1e-3 * T)
    return _PROFILE_CACHE[T]


def _grid_from_args(args) -> GridSpec:
    lo = _floats(args.lo)
    hi = _floats(args.hi)
    n = _ints(args.n)
    if len(n) == 1:
        n = n * len(lo)
    if len(lo) == 1:
        return make_grid(lo[0], hi[0], n[0])
    return make_grid(tuple(lo), tuple(hi), tuple(n))


def _field_from_source(source: str, grid: GridSpec, eps: float, term, args) -> ScalarField:
    if source not in _FIELD_SOURCES:
        return load_field(source)
    axis = np.meshgrid(*grid.axes(), indexing="ij")[grid.dim - 1]
    if source == "halfplane":
        return ScalarField(grid=grid, values=np.maximum(axis, 0.0))
    if source == "profile":
        base = _base_profile(term)
        return ScalarField(grid=grid, values=eps * np.interp(axis / eps, base.t, base.V))
    if source == "wedge":
        s = args.s if getattr(args, "s", None) is not None else eps
        span = float(np.max(np.abs([axis.min(), axis.max()])))
        wedge = solve_wedge(term, eps, s, span + grid.h, min(1e-4, grid.h / 4.0))
        return ScalarField(grid=grid, values=np.interp(axis, wedge.t, wedge.V))
    if grid.dim != 2:
        raise ValueError("radial fields need a 2D grid")
    xm, ym = np.meshgrid(*grid.axes(), indexing="ij")
    rr = np.sqrt(xm**2 + ym**2)
    radius = getattr(args, "radius", 0.5)
    vals = np.where(rr > radius, radius * np.log(np.maximum(rr, 1e-300) / radius), 0.0)
    return ScalarField(grid=grid, values=vals)


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
    from .solver import SolveConfig, minimize

    term = make_reference(args.T)
    grid = _grid_from_args(args)
    boundary = _field_from_source(args.boundary, grid, args.eps, term, args)
    # From this spacing on the node energies are not strictly convex
    # (min f' = -2/T^2) and minimize raises; name it as a usage error.
    h, dim = boundary.grid.h, boundary.grid.dim
    bound = math.sqrt(dim) * term.T * args.eps
    if not h < bound:
        raise ConfigError(f"grid spacing h = {h:g} must be below sqrt(d)*T*eps = {bound:g}")
    cfg = SolveConfig(eps=args.eps, tol_residual=args.tol, max_iter=args.max_iter)
    u, report = minimize(boundary, boundary, term, cfg)
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
    curve = None
    if args.emit_interface:
        level = args.level if args.level is not None else 0.5 * u.grid.h
        curve = extract_interface(u, level)
        save_curve(curve, out / "interface.csv")
    report = variation_report(u, spec, term, args.eps, dt=args.dt, curve=curve)
    return to_json(report)


def _run_check(args, out: Path) -> dict:
    if args.what is None:
        raise ConfigError("check needs --what")
    term = make_reference(args.T)
    tau = term.T / 2.0
    theta = args.theta if args.theta is not None else tau / 4.0
    grid = _grid_from_args(args)
    eps = args.eps
    what = args.what
    if what == "poincare" and args.field == "bumps":
        payload = {
            "check": "poincare",
            "value": _bump_suite_ratio(grid, args.bumps, args.seed, args.zero_fraction),
            "suite": args.bumps,
            "seed": args.seed,
        }
    else:
        u = _field_from_source(args.field, grid, eps, term, args)
        radii = _floats(args.radii)
        if what == "nondeg":
            payload = check_to_json(
                nondegeneracy_scan(u, eps, theta, radii, None, args.threshold)
            )
        elif what == "density":
            payload = check_to_json(
                density_scan(u, eps, args.L, radii, args.threshold, term)
            )
        elif what == "zero-density":
            payload = check_to_json(zero_phase_density(u, radii, args.threshold))
        elif what == "lipschitz":
            payload = {"check": "lipschitz", "value": lipschitz_constant(u)}
        elif what == "l1":
            limit = _field_from_source(args.limit, u.grid, eps, term, args)
            payload = {"check": "l1", "eps": eps, "value": l1_gap(u, limit, term, eps)}
        elif what == "hausdorff":
            limit = _field_from_source(args.limit, u.grid, eps, term, args)
            band = level_region(u, term, eps, "F", tau)
            boundary = np.argwhere(_limit_boundary(limit.values))
            payload = {
                "check": "hausdorff",
                "eps": eps,
                "value": hausdorff_distance(band.indices, boundary, u.grid.h),
            }
        elif what == "exit":
            if args.point is None:
                raise ConfigError("exit needs --point")
            r = exit_radius(u, eps, theta, _floats(args.point), term)
            payload = {
                "check": "exit",
                "eps": eps,
                "reached": math.isfinite(r),
                "value": r if math.isfinite(r) else None,
            }
        else:
            payload = {
                "check": "poincare",
                "value": poincare_ratio(u, None, args.zero_fraction),
            }
    return payload


def _bump_suite_ratio(grid: GridSpec, count: int, seed: int, zero_fraction: float) -> float:
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
        worst = max(worst, poincare_ratio(g, None, zero_fraction))
    return worst


def _run_cone(args, out: Path) -> dict:
    from .variations import (
        cjk_form,
        extract_interface,
        first_inner_variation,
        lie_derivative,
        save_curve,
        second_inner_variation,
        surface_second_variation,
    )

    term = make_reference(args.T)
    lo = _floats(args.lo)
    hi = _floats(args.hi)
    n = tuple(int(round((b - a) / args.h)) + 1 for a, b in zip(lo, hi))
    grid = make_grid(tuple(lo), tuple(hi), n)
    source = "halfplane" if args.kind == "halfplane" else "radial"
    u = _field_from_source(source, grid, 1.0, term, args)
    save_field(u, out / "field.csv")
    payload: dict = {"kind": args.kind, "h": grid.h, "shape": list(grid.shape)}
    curve = None
    if args.emit_interface or args.x is not None:
        level = args.level if args.level is not None else 0.5 * grid.h
        curve = extract_interface(u, level)
        save_curve(curve, out / "interface.csv")
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
        phi = lie_derivative(u, spec)
        payload["forms"] = {
            "first_volume": first_inner_variation(u, spec, term, 0.0),
            "second_volume": second_inner_variation(u, spec, term, 0.0),
            "second_surface": surface_second_variation(u, spec, curve),
            "cjk": cjk_form(u, phi, curve),
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
    # One run at a time: the work holds the GIL, and only runs that do not
    # overlap share the in-process profile cache.
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
        2 when the command line or config file cannot be parsed.
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
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = _RUNNERS[args.command](args, out)
        name = "summary.json" if args.command == "sweep" else "report.json"
        write_json(out / name, {**payload, **stamp})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr, flush=True)
        return 2
    except Exception as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        print(json.dumps({"error": error, **stamp}, sort_keys=True), flush=True)
        return 1
    return 0


def entry() -> None:
    """Console-script wrapper around main."""
    raise SystemExit(main())
