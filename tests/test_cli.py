"""End-to-end checks of the command-line runner.

Each test drives main() with an argv list and inspects exit codes and
the files left behind.  Numeric behavior is owned by the module tests;
here the concern is wiring, reproducibility, and the error contract.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import onephase
from onephase import cli, solver
from onephase.cli import main
from onephase.field import (
    PolyBump,
    ScalarField,
    VectorFieldSpec,
    interior_mask,
    load_field,
    make_grid,
    save_field,
    save_vector_spec,
)
from onephase.ode1d import load_profile, solve_monotone
from onephase.potentials import make_reference
from onephase.solver import energy
from onephase.variations import _curve_quadrature, extract_interface


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _spec_file(path: Path) -> Path:
    comp_x = PolyBump(
        coeffs=np.array(
            [
                [0.8, 0.0, -0.4, 0.0],
                [0.3, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        ),
        center=(0.1, -0.15),
        halfwidths=(0.55, 0.5),
    )
    comp_y = PolyBump(
        coeffs=np.array(
            [
                [-0.5, 0.0, 0.0, 0.0],
                [0.0, 0.6, 0.0, 0.0],
                [0.2, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        ),
        center=(0.05, -0.1),
        halfwidths=(0.5, 0.6),
    )
    target = path / "x.json"
    save_vector_spec(VectorFieldSpec(dim=2, components=(comp_x, comp_y)), target)
    return target


def _layer_file(path: Path) -> Path:
    """A 41^2 softplus layer of width eps = 0.1, deformed by the vary tests."""
    grid = make_grid((-1.0, -1.0), (1.0, 1.0), (41, 41))
    xs, ys = np.meshgrid(*grid.axes(), indexing="ij")
    layer = 0.1 * np.logaddexp(0.0, (0.6 * xs + 0.8 * ys - 0.05) / 0.1)
    target = path / "u.csv"
    save_field(ScalarField(grid=grid, values=layer), target)
    return target


def _child_env(**extra: str) -> dict[str, str]:
    """os.environ with extra set and this package's source root first on PYTHONPATH."""
    src = str(Path(onephase.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out or True


_SCIPY_PROBE = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from onephase.cli import main
lazy = ("onephase.solver", "onephase.variations", "onephase.fbcheck")
loaded = {"lazy": sorted(m for m in lazy if m in sys.modules)}
for k, argv in enumerate(json.loads(sys.argv[1])):
    loaded[" ".join(argv)] = main(argv + ["--out", f"out{k}"])
loaded["scipy"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(loaded))
"""


def test_cli_import_and_scipy_free_ops_load_no_scipy(tmp_path):
    # Every subcommand runs on numpy alone: a fresh interpreter in which any
    # scipy import raises runs each one to exit code 0.  The CLI import loads
    # none of the solver, the variations and fbcheck either: the
    # subcommands that use them import them.
    spec = _spec_file(tmp_path)
    field = _layer_file(tmp_path)
    table = tmp_path / "f.csv"
    table.write_text("s,f\n0,0\n0.25,0.5\n0.5,1\n0.75,0.5\n1,0\n", encoding="utf-8")
    commands = [
        ["potential", "--tabulate", "201"],
        ["potential", "--table", str(table)],
        ["profile"],
        ["solve", "--n", "21"],
        ["solve", "--n", "21", "--boundary", "radial"],
        ["vary", "--eps", "0.1", "--field", str(field), "--x", str(spec)],
        ["cone", "--kind", "radial", "--emit-interface"],
        ["cone", "--kind", "radial", "--h", "0.02", "--x", str(spec)],
        ["sweep", "--check", "hausdorff", "--eps", "0.2,0.1"],
        ["check", "--what", "nondeg"],
        ["check", "--what", "density"],
        ["check", "--what", "zero-density", "--field", "halfplane"],
        ["check", "--what", "lipschitz"],
        ["check", "--what", "lipschitz", "--field", "wedge"],
        ["check", "--what", "l1"],
        ["check", "--what", "hausdorff"],
        ["check", "--what", "hausdorff", "--limit", "radial"],
        ["check", "--what", "exit", "--point=0.1,-0.08"],
        ["check", "--what", "poincare"],
    ]
    assert {c[2] for c in commands if c[0] == "check"} == set(cli._CHECKS)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands)],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True, check=True,
    )
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"lazy": [], **{" ".join(c): 0 for c in commands}, "scipy": []}


def test_no_module_imports_scipy_and_numpy_is_the_only_dependency():
    package = Path(onephase.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(n.split(".")[0] != "scipy" for n in names), (path.name, node.lineno)
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_no_module_calls_blas_or_lapack():
    # OpenBLAS picks its kernels by CPU, and they round differently, so a
    # BLAS or LAPACK call would make reported bits depend on the machine.
    # np.linalg.norm along an axis is sqrt(sum(x*x)) and calls neither.
    # It is also why the CLI can start OpenBLAS with one thread at no cost.
    package = Path(onephase.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            name, owner = node.func.attr, node.func.value
            linalg = isinstance(owner, ast.Attribute) and owner.attr == "linalg"
            axis = any(k.arg == "axis" for k in node.keywords)
            if name in ("dot", "matmul", "einsum") or (linalg and not (name == "norm" and axis)):
                found.append((path.name, node.lineno, name))
    assert found == []


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_import_starts_one_blas_thread_unless_preset(preset):
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it: in a
    # fresh interpreter the CLI import leaves no worker thread, and a value
    # the user set is kept.
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        "import os, onephase.cli; "
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    threads, value = proc.stdout.split()
    assert value == (preset or "1")
    if preset is None:
        assert threads == "1"


def test_grid_below_three_nodes_fails_without_warnings(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["check", "--what", "lipschitz", "--n", "1", "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need at least 3 nodes" in captured.err


def test_python_dash_m_runs_a_subcommand(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "onephase.cli", "potential", "--out", "d"],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "d" / "report.json").exists()


def test_non_finite_report_exits_one_and_writes_no_report(tmp_path, capsys):
    # a = 6 / T**4 would overflow at T = 1e-78, so make_reference rejects
    # that T with a ValueError: the run fails before report.json exists.
    assert main(["potential", "--T", "1e-78", "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValueError"
    assert not (tmp_path / "report.json").exists()


def test_unknown_choice_exits_two(capsys):
    assert main(["check", "--what", "bogus"]) == 2
    capsys.readouterr()


def test_potential_reports_validation(tmp_path):
    rc = main(["potential", "--T", "1.0", "--tabulate", "21", "--out", str(tmp_path)])
    assert rc == 0
    report = _read(tmp_path / "report.json")
    assert report["validate"]["passed"] is True
    assert report["version"]
    assert len(report["config_sha256"]) == 64
    table = np.loadtxt(tmp_path / "potential_table.csv", delimiter=",", skiprows=1)
    assert table.shape == (21, 3)


def test_potential_table_roundtrip(tmp_path):
    from onephase.potentials import make_reference

    term = make_reference(1.0)
    s = np.linspace(0.0, 1.0, 20001)
    table = tmp_path / "table.csv"
    with open(table, "w", newline="") as fh:
        fh.write("s,f\n")
        np.savetxt(fh, np.stack([s, np.asarray(term.f(s))], axis=1),
                   fmt="%.17g", delimiter=",")
    rc = main(["potential", "--table", str(table), "--out", str(tmp_path / "b")])
    assert rc == 0
    report = _read(tmp_path / "b" / "report.json")
    assert report["term"]["family"] == "tabulated"
    assert report["validate"]["passed"] is True


def test_profile_wedge_slope_squared(tmp_path):
    rc = main(
        ["profile", "--wedge", "--eps", "1", "--s2", "0.3125", "--out", str(tmp_path)]
    )
    assert rc == 0
    report = _read(tmp_path / "report.json")
    assert report["kind"] == "wedge"
    assert report["V0"] == pytest.approx(0.5, abs=1e-10)
    assert report["first_integral_residual"] < 1e-8
    prof = load_profile(tmp_path / "profile.csv")
    assert prof.kind == "wedge"
    center = int(np.argmin(np.abs(prof.t)))
    assert prof.V[center] == pytest.approx(0.5, abs=1e-10)


def test_profile_default_span_scales_with_T(tmp_path):
    # The layer widens in proportion to T; a span fixed at 30*eps ends the
    # wedge long before its slope reaches s.
    rc = main(
        ["profile", "--wedge", "--s2", "0.25", "--T", "100000", "--out", str(tmp_path)]
    )
    assert rc == 0
    report = _read(tmp_path / "report.json")
    assert report["slope_end"] == pytest.approx(0.5, abs=1e-6)


def test_profile_monotone_rescales(tmp_path):
    rc = main(["profile", "--eps", "0.25", "--out", str(tmp_path)])
    assert rc == 0
    report = _read(tmp_path / "report.json")
    assert report["eps"] == 0.25
    assert report["slope_end"] == pytest.approx(1.0, abs=1e-6)
    assert report["first_integral_residual"] < 1e-8


def test_profile_wedge_needs_one_slope(tmp_path, capsys):
    assert main(["profile", "--wedge", "--out", str(tmp_path)]) == 2
    both = ["profile", "--wedge", "--s", "0.5", "--s2", "0.25", "--out", str(tmp_path)]
    assert main(both) == 2
    assert "config error" in capsys.readouterr().err


def test_solve_writes_solution_and_report(tmp_path):
    rc = main(
        [
            "solve",
            "--eps",
            "0.2",
            "--lo=-1,-1",
            "--hi",
            "1,1",
            "--n",
            "101",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    report = _read(tmp_path / "report.json")
    assert report["converged"] is True
    assert report["final_residual"] <= 1e-8
    u = load_field(tmp_path / "solution.csv")
    assert u.grid.shape == (101, 101)
    trace = report["energy_trace"]
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert report["energy"] == energy(u, make_reference(1.0), 0.2)
    assert 0 <= report["extrapolated"] <= report["iterations"] == len(trace) - 1


def test_solve_report_states_boundary_csv_grid(tmp_path):
    grid = make_grid(0.0, 1.0, 21)
    save_field(ScalarField(grid=grid, values=np.linspace(0.0, 1.0, 21)), tmp_path / "bc.csv")
    out = tmp_path / "out"
    rc = main(["solve", "--eps", "0.5", "--boundary", str(tmp_path / "bc.csv"), "--out", str(out)])
    assert rc == 0
    sidecar = _read(out / "solution.json")
    assert _read(out / "report.json")["grid"] == {
        "lo": sidecar["origin"],
        "h": sidecar["h"],
        "shape": sidecar["shape"],
    }


def test_solve_profile_boundary_scales_with_T(tmp_path):
    # The layer of V_T is T wide: V_T(t) = T * V_1(t / T), so the boundary
    # data eps * V_T(y / eps) must be eps*T * V_1(y / (eps*T)) at every y.
    assert main(["solve", "--T", "100", "--eps", "0.01", "--n", "21", "--out", str(tmp_path)]) == 0
    u = load_field(tmp_path / "solution.csv")
    y = np.meshgrid(*u.grid.axes(), indexing="ij")[1]
    base = solve_monotone(make_reference(1.0), -30.0, 30.0, 1e-3)
    scale = 0.01 * 100.0
    want = scale * np.interp(y / scale, base.t, base.V)
    edge = ~interior_mask(u.grid)
    assert np.max(np.abs(u.values[edge] - want[edge])) < 1e-9


def test_solve_rejects_grid_coarser_than_layer(tmp_path, capsys):
    # h = 0.02 >= sqrt(2) * T * eps = 0.0170: the node Newton cannot converge.
    rc = main(["solve", "--eps", "0.012", "--n", "101", "--out", str(tmp_path)])
    assert rc == 2
    assert "sqrt(d)*T*eps" in capsys.readouterr().err
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tol", "0", "tol_residual must be positive"),
        ("--max-iter", "0", "max_iter must be at least 1"),
        ("--eps", "0", "eps must be positive"),
        ("--eps", "nan", "eps must be positive"),
    ],
)
def test_solve_rejects_settings_as_usage_errors(tmp_path, capsys, flag, value, message):
    # SolveConfig checks these before any field is built; the CLI maps its
    # ValueError to exit 2, like a value the parser rejects.
    rc = main(["solve", "--n", "21", flag, value, "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not (tmp_path / "solution.csv").exists()
    assert not (tmp_path / "report.json").exists()


def test_check_lipschitz_of_wedge_field_is_its_slope(tmp_path):
    # The wedge source at the default --s has slope s = eps far from its layer.
    argv = ["check", "--what", "lipschitz", "--field", "wedge", "--eps", "0.1"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert abs(_read(tmp_path / "report.json")["value"] - 0.1) < 1e-9


def test_cone_halfplane_interface_is_flat(tmp_path):
    rc = main(
        [
            "cone",
            "--kind",
            "halfplane",
            "--h",
            "0.005",
            "--emit-interface",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    report = _read(tmp_path / "report.json")
    assert report["interface"]["closed"] is False
    assert report["interface"]["max_abs_H_error"] <= 1e-6
    rows = np.loadtxt(tmp_path / "interface.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.max(np.abs(rows[:, 4])) <= 1e-6
    u = load_field(tmp_path / "field.csv")
    assert u.grid.h == pytest.approx(0.005)


def test_cone_radial_curvature_matches_radius(tmp_path):
    rc = main(
        [
            "cone",
            "--kind",
            "radial",
            "--h",
            "0.005",
            "--radius",
            "0.5",
            "--emit-interface",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    report = _read(tmp_path / "report.json")
    assert report["interface"]["closed"] is True
    assert report["interface"]["H_expected"] == pytest.approx(2.0)
    assert report["interface"]["max_abs_H_error"] <= 2e-2


def test_cone_empty_interface_reports_null_error(tmp_path):
    argv = ["cone", "--kind", "halfplane", "--h", "0.02", "--level", "5"]
    assert main(argv + ["--emit-interface", "--out", str(tmp_path)]) == 0
    interface = _read(tmp_path / "report.json")["interface"]
    assert interface["vertices"] == 0
    assert interface["max_abs_H_error"] is None


def test_cone_surface_forms_with_deformation(tmp_path):
    spec = _spec_file(tmp_path)
    rc = main(
        [
            "cone",
            "--kind",
            "radial",
            "--h",
            "0.005",
            "--x",
            str(spec),
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert rc == 0
    forms = _read(tmp_path / "run" / "report.json")["forms"]
    assert abs(forms["first_volume"]) <= 1e-3
    assert forms["second_volume"] == pytest.approx(forms["second_surface"], rel=0.05)


def test_vary_reads_stored_field_and_spec(tmp_path):
    spec = _spec_file(tmp_path)
    assert main(["cone", "--kind", "halfplane", "--h", "0.01", "--out", str(tmp_path)]) == 0
    rc = main(
        [
            "vary",
            "--field",
            str(tmp_path / "field.csv"),
            "--x",
            str(spec),
            "--eps",
            "0",
            "--emit-interface",
            "--out",
            str(tmp_path / "v"),
        ]
    )
    assert rc == 0
    report = _read(tmp_path / "v" / "report.json")
    assert report["classical_second"] is None
    assert report["surface_second"] == pytest.approx(report["second_analytic"], rel=0.05)
    assert (tmp_path / "v" / "interface.csv").exists()


def test_check_nondegeneracy_report(tmp_path):
    rc = main(
        [
            "check",
            "--what",
            "nondeg",
            "--eps",
            "0.1",
            "--field",
            "profile",
            "--lo=-1,-1",
            "--hi",
            "1,1",
            "--n",
            "201",
            "--radii",
            "0.25,0.5",
            "--threshold",
            "0.5",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    report = _read(tmp_path / "report.json")
    assert report["check"] == "nondegeneracy"
    assert report["pass"] is True
    assert report["worst"] >= 0.5
    assert len(report["values"]) == 2


def test_check_exit_radius_reports_reached(tmp_path):
    rc = main(
        [
            "check",
            "--what",
            "exit",
            "--eps",
            "0.1",
            "--field",
            "profile",
            "--theta",
            "0.125",
            "--point=0.0,-0.1",
            "--lo=-1,-1",
            "--hi",
            "1,1",
            "--n",
            "401",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    report = _read(tmp_path / "report.json")
    assert report["check"] == "exit"
    assert report["reached"] is True
    assert 0.0 < report["value"] < 0.2


def test_check_poincare_bump_suite(tmp_path):
    rc = main(
        [
            "check",
            "--what",
            "poincare",
            "--field",
            "bumps",
            "--bumps",
            "6",
            "--seed",
            "7",
            "--lo=-1,-1",
            "--hi",
            "1,1",
            "--n",
            "201",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    report = _read(tmp_path / "report.json")
    assert 0.0 < report["value"] <= 1.0
    assert report["seed"] == 7


def test_check_poincare_of_the_profile_field(tmp_path):
    # u = eps V(y/eps) with V(t) = 1 + t for t >= 0 and V' = sqrt(F(V)) below:
    # over [-1, 1]^2, |u|_L1 = 2 (1/2 + eps + c eps^2) with
    # c = int_0^1 dV / sqrt(3 V^2 - 8 V + 6), |grad u|_L1 = 2 (1 + eps), and
    # R = sqrt(2).  The trapezoid norms give 0.389798 at h = 0.01, against
    # 0.389793 (test_poincare_ratio_is_second_order_in_h).
    eps = 0.1
    argv = ["check", "--what", "poincare", "--field", "profile", "--eps", repr(eps)]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    r3 = np.sqrt(3.0)
    c = np.log((2.0 * r3 - 2.0) / (6.0 * np.sqrt(2.0) - 8.0)) / r3
    want = (0.5 + eps + c * eps * eps) / (np.sqrt(2.0) * (1.0 + eps))
    assert abs(_read(tmp_path / "report.json")["value"] - want) < 0.0025


def test_sweep_l1_gaps_shrink(tmp_path):
    rc = main(
        [
            "sweep",
            "--check",
            "l1",
            "--eps",
            "0.2,0.1,0.05",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    summary = _read(tmp_path / "summary.json")
    assert [e["eps"] for e in summary["entries"]] == [0.2, 0.1, 0.05]
    gaps = [e["report"]["value"] for e in summary["entries"]]
    assert gaps[0] > gaps[1] > gaps[2]


def test_sweep_forwards_its_sub_config_to_every_entry(tmp_path):
    cfg = tmp_path / "sub.json"
    cfg.write_text(json.dumps({"n": "41"}))
    argv = ["sweep", "--check", "l1", "--eps", "0.2,0.1", "--sub-config", str(cfg)]
    assert main([*argv, "--out", str(tmp_path / "sweep")]) == 0
    entries = _read(tmp_path / "sweep" / "summary.json")["entries"]
    for entry in entries:
        eps = repr(entry["eps"])
        value = {}
        for n in ("41", "201"):
            out = tmp_path / f"{n}-{eps}"
            assert main(["check", "--what", "l1", "--eps", eps, "--n", n, "--out", str(out)]) == 0
            value[n] = _read(out / "report.json")["value"]
        assert entry["report"]["value"] == value["41"] != value["201"]


def test_sweep_rerun_is_byte_identical(tmp_path):
    argv = ["sweep", "--check", "l1", "--eps", "0.2,0.1", "--out", str(tmp_path)]
    assert main(argv) == 0
    first = _tree_hashes(tmp_path)
    assert main(argv) == 0
    assert _tree_hashes(tmp_path) == first


def test_sweep_rejects_colliding_directories(tmp_path, capsys):
    argv = ["sweep", "--check", "l1", "--eps", "0.1,0.1000001", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "eps_0.1" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_rerun_is_byte_identical(tmp_path):
    argv = [
        "cone",
        "--kind",
        "radial",
        "--h",
        "0.01",
        "--emit-interface",
        "--out",
        str(tmp_path),
    ]
    assert main(argv) == 0
    first = _tree_hashes(tmp_path)
    assert len(first) == 5
    assert main(argv) == 0
    assert _tree_hashes(tmp_path) == first


_PINNED_SOLVES = {
    "2d-41": ["--eps", "0.2", "--n", "41"],
    "1d-81": ["--eps", "0.1", "--lo=-1", "--hi=1", "--n", "81"],
    # One level: its first coarse spacing is 1.4 of the bound (1d-81's is
    # 0.5), so each cycle is the 24 over-relaxed sweeps of a coarsest level.
    "2d-41-single": ["--eps", "0.05", "--n", "41"],
}


def _check_solve_pin(path: Path, argv, csv_sha256, iterations, residual_hex, energy_hex):
    assert main(["solve", *argv, "--out", str(path)]) == 0
    digest = hashlib.sha256((path / "solution.csv").read_bytes()).hexdigest()
    assert digest == csv_sha256
    report = _read(path / "report.json")
    assert report["iterations"] == iterations
    assert float.hex(report["final_residual"]) == residual_hex
    assert float.hex(report["energy"]) == energy_hex


@pytest.mark.parametrize(
    "name, csv_sha256, iterations, residual_hex, energy_hex",
    [
        (
            "2d-41",
            "479b9da474565adddec03ade19bb2d8e89869310c666753c0714d4c29e0e4d56",
            6,
            "0x1.46643ffffffffp-30",
            "0x1.249a5ec9ffe76p+2",
        ),
        (
            "1d-81",
            "51ea41d35417fed2922f2223c210060857b66e011647f5c8f0ae8ed8d1cd56c7",
            9,
            "0x1.08af5ffffffffp-27",
            "0x1.124d2bef6754ap+1",
        ),
        (
            "2d-41-single",
            "7bee12e71f653c33b100eb88b92b09829908c33443d0735255307d7cef16cfc7",
            6,
            "0x1.0f8a4bf6b3c00p-30",
            "0x1.0873fc12e0f19p+2",
        ),
    ],
    ids=list(_PINNED_SOLVES),
)
def test_solve_output_bits_are_pinned(
    tmp_path, name, csv_sha256, iterations, residual_hex, energy_hex
):
    # A rerun of one tree cannot notice a solver change that moves bits;
    # these pins can.
    argv = _PINNED_SOLVES[name]
    _check_solve_pin(tmp_path, argv, csv_sha256, iterations, residual_hex, energy_hex)


@pytest.mark.parametrize(
    "name, csv_sha256, iterations, residual_hex, energy_hex",
    [
        (
            "2d-41",
            "73b2a2b59cc98bb944b7129d04ed03d41ac7dd26cd7d1459249d9b88f4fedac0",
            10,
            "0x1.caf8dfffffffep-28",
            "0x1.249a5ec9ffe76p+2",
        ),
        (
            "1d-81",
            "0634a38cd80ae51dff7bcd853c8f37fda57d4133b94a86a9330fe3fa57965fc8",
            9,
            "0x1.634aaffffffffp-28",
            "0x1.124d2bef6754bp+1",
        ),
        (
            "2d-41-single",
            "4a2ee86cc52824a09b9ba76acd9d25bfecabfb9ddcc6a2c70b484628f700f1ad",
            6,
            "0x1.8974fffffffffp-31",
            "0x1.0873fc12e0f19p+2",
        ),
    ],
    ids=list(_PINNED_SOLVES),
)
def test_plain_cycles_keep_the_old_pins(
    tmp_path, monkeypatch, name, csv_sha256, iterations, residual_hex, energy_hex
):
    # Without the Anderson step the solver is the one these pins were
    # captured on, before its cycles and diagnostics ran on preallocated
    # buffers: every bit of them survived that move.  The one-level cases
    # were re-captured when their cycle became a coarsest level's 24 sweeps:
    # 1d-81 reaches the same bits in 9 such cycles as in 27 of 8 sweeps.
    monkeypatch.setattr(solver, "_ANDERSON_DEPTH", 0)
    argv = _PINNED_SOLVES[name]
    _check_solve_pin(tmp_path, argv, csv_sha256, iterations, residual_hex, energy_hex)


# A 1D grid of 401 nodes on [-1, 1].
_LINE_401 = ["--lo=-1", "--hi", "1", "--n", "401"]


@pytest.mark.parametrize(
    "argv, values_hex",
    [
        (["--what", "nondeg"], ["0x1.d70a3d70a3b70p-1", "0x1.eb851eb851e48p-1"]),
        (
            ["--what", "density", "--n", "401", "--radii", "0.5,1.0"],
            ["0x1.9bf313df7f8f4p-3", "0x1.6208b80652bd5p-2"],
        ),
        (
            ["--what", "zero-density", "--field", "halfplane"],
            ["0x1.f2af31373886cp-2", "0x1.f9688566902b5p-2"],
        ),
        (["--what", "hausdorff", "--eps", "0.05"], ["0x1.47ae147ae147bp-6"]),
        (
            ["--what", "nondeg", *_LINE_401],
            ["0x1.d70a3d70a3b70p-1", "0x1.eb851eb851e48p-1"],
        ),
        (
            ["--what", "density", "--radii", "0.5,1.0", *_LINE_401],
            ["0x1.079a9d260511cp-2", "0x1.832f1fd73e687p-2"],
        ),
        (
            ["--what", "zero-density", "--field", "halfplane", *_LINE_401],
            ["0x1.faee41e6a7498p-2", "0x1.fd73e68701461p-2"],
        ),
    ],
    ids=[
        "nondeg", "density-401", "zero-density", "hausdorff",
        "nondeg-1d", "density-1d", "zero-density-1d",
    ],
)
def test_check_scan_bits_are_pinned(tmp_path, argv, values_hex):
    # The scans' ball statistics, margins and minima, bit for bit.
    assert main(["check", *argv, "--out", str(tmp_path)]) == 0
    report = _read(tmp_path / "report.json")
    values = report["values"] if "values" in report else [report["value"]]
    assert [float.hex(v) for v in values] == values_hex


# Report values of the pinned vary op.  Its path makes no BLAS or LAPACK
# call, and its reaction kernels use + - * / alone, so they hold whichever
# OpenBLAS kernels and numpy SIMD kernels the CPU selects.
_VARY_PINS = {
    "first_analytic": "-0x1.ce4d4f7bc60cep-7",
    "second_analytic": "0x1.91cba032ac537p-3",
    "first_fd": "-0x1.ce4d4d5cc8a43p-7",
    "second_fd": "0x1.91cb9c9b7c58cp-3",
    "classical_second": "0x1.bd0723241b636p-5",
}


def _pinned_vary_argv(path: Path) -> list[str]:
    """Write the pinned op's inputs under path; its argv, --out excepted."""
    field, spec = _layer_file(path), _spec_file(path)
    return ["vary", "--eps", "0.1", "--field", str(field), "--x", str(spec)]


def _pinned_hex(report: dict) -> dict[str, str]:
    return {k: float.hex(report[k]) for k in _VARY_PINS}


def test_variation_report_bits_are_pinned(tmp_path):
    # Tolerances cannot notice a change to the deformation tables or the
    # variation integrands that moves bits; these pins can.
    assert main([*_pinned_vary_argv(tmp_path), "--out", str(tmp_path / "v")]) == 0
    assert _pinned_hex(_read(tmp_path / "v" / "report.json")) == _VARY_PINS
    spec = tmp_path / "x.json"
    argv = ["cone", "--kind", "radial", "--h", "0.01", "--x", str(spec)]
    assert main([*argv, "--out", str(tmp_path / "c")]) == 0
    forms = _read(tmp_path / "c" / "report.json")["forms"]
    assert {k: float.hex(v) for k, v in forms.items()} == {
        "first_volume": "0x1.12a11a0453262p-15",
        "second_surface": "0x1.2822e5fc8ae78p-3",
        "second_volume": "0x1.1068a2577556cp-3",
    }


_CONE_GRID = make_grid((-1.0, -1.0), (1.0, 1.0), 201)


def _elliptic_cone(path: Path) -> Path:
    """Write an elliptic cone's node values to path (.npy); return path.

    u = R·log(r/R)₊ with r = hypot(x, y/0.8) and R = 0.5, on the 201² grid
    over [−1, 1]².  numpy's log moves last bits between its SIMD kernels,
    so a child process reads these bytes instead of building its own.
    """
    xm, ym = np.meshgrid(*_CONE_GRID.axes(), indexing="ij")
    r = np.hypot(xm, ym / 0.8)
    np.save(path, np.where(r > 0.5, 0.5 * np.log(np.maximum(r, 1e-12) / 0.5), 0.0))
    return path


def _elliptic_cone_quadrature(path: Path) -> str:
    """Hex of the curvature's curve quadrature on the cone stored at path.

    The interface is taken at level h/2.  A segment length taken by a BLAS
    ddot moves the last bit of this value between OpenBLAS kernels.
    """
    field = ScalarField(grid=_CONE_GRID, values=np.load(path))
    curve = extract_interface(field, 0.5 * _CONE_GRID.h)
    return float.hex(_curve_quadrature(curve, curve.curvature))


_KERNEL_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from test_cli import _elliptic_cone_quadrature
from onephase.cli import main
print(_elliptic_cone_quadrature(sys.argv[2]))
sys.exit(main(sys.argv[3:]))
"""


@pytest.mark.parametrize(
    "kernels",
    [
        {"OPENBLAS_CORETYPE": "Haswell"},
        {"OPENBLAS_CORETYPE": "Prescott"},
        {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
        {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"},
    ],
    ids=["Haswell", "Prescott", "numpy-AVX2", "numpy-baseline"],
)
def test_variation_pins_hold_on_other_blas_kernels(tmp_path, kernels):
    # OPENBLAS_CORETYPE picks OpenBLAS's kernels and NPY_DISABLE_CPU_FEATURES
    # numpy's SIMD kernels when numpy loads, so only a child process sees
    # them.  The child gives the pinned bits, and the in-process curve
    # quadrature, only if no BLAS, LAPACK or CPU-dependent numpy kernel
    # sets them.
    argv = _pinned_vary_argv(tmp_path)
    cone = _elliptic_cone(tmp_path / "cone.npy")
    proc = subprocess.run(
        [sys.executable, "-c", _KERNEL_PROBE, str(Path(__file__).parent), str(cone), *argv,
         "--out", "v"],
        cwd=tmp_path, env=_child_env(**kernels), capture_output=True, text=True, check=True,
    )
    assert _pinned_hex(_read(tmp_path / "v" / "report.json")) == _VARY_PINS
    assert proc.stdout.splitlines()[0] == _elliptic_cone_quadrature(cone)


def test_config_supplies_defaults_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wedge": True, "s2": 0.3125, "eps": 1.0}))
    rc = main(["profile", "--config", str(cfg), "--out", str(tmp_path / "a")])
    assert rc == 0
    assert _read(tmp_path / "a" / "report.json")["V0"] == pytest.approx(0.5, abs=1e-10)
    rc = main(
        [
            "profile",
            "--config",
            str(cfg),
            "--s2",
            "0.75",
            "--out",
            str(tmp_path / "b"),
        ]
    )
    assert rc == 0
    v0 = _read(tmp_path / "b" / "report.json")["V0"]
    assert v0 == pytest.approx(0.24302, abs=1e-4)


def test_malformed_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["profile", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilon": 0.1}))
    assert main(["profile", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_operation_failure_emits_error_json(tmp_path, capsys):
    spec = _spec_file(tmp_path)
    rc = main(
        [
            "vary",
            "--field",
            str(tmp_path / "missing.csv"),
            "--x",
            str(spec),
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "FileNotFoundError"
    # The sidecar is read before the rows, so the error names it.
    assert payload["error"]["message"].endswith(f"{str(tmp_path / 'missing.json')!r}")
    assert len(payload["config_sha256"]) == 64
    assert payload["version"]


@pytest.mark.parametrize("n", ["21.9", "1e400", "nan", "21,2.5"])
def test_node_count_that_is_not_a_finite_integer_exits_two(tmp_path, capsys, n):
    argv = ["check", "--what", "lipschitz", "--n", n, "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "expected comma-separated integers" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_node_count_in_float_notation_runs(tmp_path):
    values = []
    for n in ("21", "2.1e1"):
        assert main(["check", "--what", "lipschitz", "--n", n, "--out", str(tmp_path / n)]) == 0
        values.append(_read(tmp_path / n / "report.json")["value"])
    assert values[0] == values[1]


@pytest.mark.parametrize("dt", ["5", "inf"])
def test_vary_rejects_a_dt_that_folds_the_flow(tmp_path, capsys, dt):
    # On this layer dt = 5 turns det J negative; inf is no step at all.
    spec = _spec_file(tmp_path)
    field = _layer_file(tmp_path)
    argv = ["vary", "--eps", "0.1", "--field", str(field), "--x", str(spec)]
    assert main([*argv, "--dt", dt, "--out", str(tmp_path / "v")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "ValueError"
    assert f"dt = {float(dt)}" in payload["error"]["message"]
    assert not (tmp_path / "v" / "report.json").exists()


@pytest.mark.parametrize(
    "argv, code", [(["solve", "--n", "21", "--tol", "0"], 2), (["profile", "--eps", "0"], 1)]
)
def test_failed_run_removes_only_the_empty_out_it_made(tmp_path, capsys, argv, code):
    made = tmp_path / "o"
    assert main([*argv, "--out", str(made)]) == code
    assert not made.exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main([*argv, "--out", str(kept)]) == code
    assert kept.is_dir()
    # mkdir makes the parents too; each goes, down to the one that was there.
    assert main([*argv, "--out", str(tmp_path / "a" / "b")]) == code
    assert not (tmp_path / "a").exists()
    assert main([*argv, "--out", str(kept / "c" / "d")]) == code
    assert kept.is_dir() and not any(kept.iterdir())
    capsys.readouterr()


@pytest.mark.parametrize("h", ["0", "nan"])
def test_cone_rejects_a_spacing_that_is_not_finite_and_positive(tmp_path, capsys, h):
    # Unchecked, --h 0 divided by zero and --h nan failed to round to a node
    # count, both as operation errors (exit 1).
    assert main(["cone", "--h", h, "--out", str(tmp_path / "c")]) == 2
    captured = capsys.readouterr()
    assert "--h must be finite and positive" in captured.err and captured.out == ""
    assert not (tmp_path / "c").exists()


def test_cone_rejects_a_spacing_too_coarse_for_three_nodes(tmp_path, capsys):
    # --h 1.5 on [-1, 1]^2 gives 2 nodes per axis; make_grid's ValueError
    # used to surface as an operation error (exit 1).
    assert main(["cone", "--h", "1.5", "--out", str(tmp_path / "c")]) == 2
    captured = capsys.readouterr()
    assert "need at least 3 nodes per axis" in captured.err and captured.out == ""
    assert not (tmp_path / "c").exists()


# Each grid is refused before any node is allocated: over 10^12 nodes, or
# fewer than 3 (or a spacing that differs) per axis.
@pytest.mark.parametrize(
    "argv, reason",
    [
        (["cone", "--h", "1e-6"], "exceeds the bound of 16777216 nodes"),
        (["cone", "--h", "5e-324"], "exceeds the bound of 16777216 nodes"),
        (["solve", "--n", "1000000"], "exceeds the bound of 16777216 nodes"),
        (["check", "--what", "lipschitz", "--n", "1000000,1000000"], "exceeds the bound"),
        (["solve", "--n", "2"], "need at least 3 nodes per axis"),
        (["solve", "--n", "21,31"], "axes disagree on spacing"),
        (["check", "--what", "lipschitz", "--n", "2"], "need at least 3 nodes per axis"),
    ],
)
def test_every_grid_builder_rejects_a_grid_it_cannot_build(tmp_path, capsys, argv, reason):
    # Before one helper built every CLI grid, these exited 1: cone --h 1e-6
    # only when its 2 000 001^2 allocation failed, --h 5e-324 on an
    # OverflowError, and solve and check on make_grid's ValueError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*argv, "--out", str(tmp_path / "c")])
    assert rc == 2
    captured = capsys.readouterr()
    assert reason in captured.err and captured.out == ""
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["cone", "--kind", "radial", "--emit-interface"],
        ["check", "--what", "lipschitz", "--field", "radial", "--n", "21"],
        ["check", "--what", "l1", "--limit", "radial", "--n", "21"],
    ],
    ids=["cone", "field", "limit"],
)
def test_radial_sources_reject_a_radius_that_is_not_finite_and_positive(
    tmp_path, capsys, argv, radius
):
    # Unchecked, nan gave an all-zero cone, inf a cone with H_expected 0.0,
    # and 0 and -1 warned and failed (exit 1), nan after writing field.csv.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*argv, f"--radius={radius}", "--out", str(tmp_path / "c")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "radius must be finite and positive" in captured.err and captured.out == ""
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--what", "nondeg", "--radii", "nan"], "radii must be finite and positive"),
        (["--what", "nondeg", "--radii", "0.25,inf"], "radii must be finite and positive"),
        (["--what", "density", "--radii", "nan"], "radii must be finite and at least"),
        (["--what", "zero-density", "--radii", "inf"], "radii must be finite and positive"),
        (["--what", "nondeg", "--theta", "nan"], "theta must be finite and positive"),
        (["--what", "nondeg", "--theta", "inf"], "theta must be finite and positive"),
        (["--what", "nondeg", "--theta", "0"], "theta must be finite and positive"),
        (["--what", "nondeg", "--threshold", "nan"], "threshold must be finite"),
        (["--what", "poincare", "--zero-fraction", "nan"], "zero_fraction must lie in [0, 1]"),
        (["--what", "exit", "--theta", "0.125", "--point=nan,0"], "not finite or outside"),
    ],
)
def test_check_names_a_parameter_it_cannot_use(tmp_path, capsys, argv, message):
    # Before, nan and inf radii failed in int(r / h) without naming the
    # parameter; nan and inf theta gave empty scans and 0 scanned every node
    # (exit 0); a nan threshold failed in the JSON writer; a nan zero fraction
    # kept no promise and a nan point was never reached (exit 0).
    out = tmp_path / "c"
    rc = main(["check", *argv, "--field", "halfplane", "--n", "41", "--out", str(out)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert message in payload["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["cone", "vary"])
def test_interface_level_that_is_not_finite_exits_two(tmp_path, capsys, command, level):
    # Before, both gave an empty curve (exit 0), and vary's surface_second
    # silently dropped its curve integral.
    if command == "cone":
        argv = ["cone", "--h", "0.05", "--emit-interface"]
    else:
        field, spec = _layer_file(tmp_path), _spec_file(tmp_path)
        argv = ["vary", "--field", str(field), "--x", str(spec), "--emit-interface"]
    rc = main([*argv, f"--level={level}", "--out", str(tmp_path / "c")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--level must be finite" in captured.err and captured.out == ""
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_bump_suite_without_bumps_exits_two(tmp_path, capsys, count):
    # Before, an empty suite reported the ratio 0.0 (exit 0).
    argv = ["check", "--what", "poincare", "--field", "bumps", f"--bumps={count}", "--n", "21"]
    assert main([*argv, "--out", str(tmp_path / "c")]) == 2
    captured = capsys.readouterr()
    assert "--bumps must be at least 1" in captured.err and captured.out == ""
    assert not (tmp_path / "c").exists()


def test_sweep_refuses_a_command_without_eps(tmp_path, capsys):
    # cone has no --eps, which sweep appends to every run, so every entry
    # failed and the sweep exited 1.
    rc = main(["sweep", "--command", "cone", "--eps", "0.1", "--out", str(tmp_path / "s")])
    assert rc == 2
    capsys.readouterr()
    assert not (tmp_path / "s").exists()


def test_sweep_without_command_exits_two(capsys):
    assert main(["sweep", "--eps", "0.1"]) == 2
    capsys.readouterr()


def test_sweep_propagates_sub_failure(tmp_path, capsys):
    rc = main(
        [
            "sweep",
            "--command",
            "check",
            "--eps",
            "0.1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["check", "--what", "nondeg", "--radii", "0.5,abc", "--n", "21"], 2,
         "expected comma-separated numbers, got '0.5,abc'"),
        (["profile", "--config", "ARRAY"], 2, "config must be a JSON object"),
        (["vary", "--x", "spec.json"], 2, "vary needs --field and --x"),
        (["vary", "--field", "field.csv"], 2, "vary needs --field and --x"),
        (["check", "--what", "exit", "--n", "21"], 2, "exit needs --point"),
        (["sweep", "--command", "solve", "--check", "l1", "--eps", "0.1"], 2,
         "--check only applies to the check subcommand"),
        (["sweep", "--command", "profile"], 2, "sweep needs --eps"),
        (["sweep", "--command", "profile", "--eps", ","], 2, "sweep needs a nonempty --eps list"),
        (["check", "--what", "poincare", "--field", "bumps", "--lo=-1", "--hi", "1", "--n", "21"], 1,
         "the bump suite needs a 2D grid"),
        # An infinite spacing built the grid, and the run exited 1 on its field.
        (["solve", "--hi=inf,inf", "--n", "5"], 2,
         "spacing and origin must be finite, got h = inf, origin = (-1.0, -1.0)"),
        (["check", "--what", "nondeg", "--lo=-inf,-1", "--n", "5"], 2,
         "spacing and origin must be finite, got h = inf, origin = (-inf, -1.0)"),
    ],
)
def test_usage_errors_exit_with_their_message(tmp_path, capsys, argv, code, message):
    array = tmp_path / "array.json"
    array.write_text("[1, 2]", encoding="utf-8")
    out = tmp_path / "c"
    rc = main([str(array) if a == "ARRAY" else a for a in argv] + ["--out", str(out)])
    assert rc == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err == f"config error: {message}\n" and captured.out == ""
    else:
        assert json.loads(captured.out)["error"]["message"] == message
    assert not out.exists()


def test_reports_share_version_and_hash_fields(tmp_path):
    assert main(["profile", "--out", str(tmp_path / "p")]) == 0
    assert main(["potential", "--out", str(tmp_path / "q")]) == 0
    a = _read(tmp_path / "p" / "report.json")
    b = _read(tmp_path / "q" / "report.json")
    assert a["version"] == b["version"]
    assert a["config_sha256"] != b["config_sha256"]
