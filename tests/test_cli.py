"""End-to-end checks of the command-line runner.

Each test drives main() with an argv list and inspects exit codes and
the files left behind.  Numeric behavior is owned by the module tests;
here the concern is wiring, reproducibility, and the error contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import onephase
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


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out or True


_SCIPY_PROBE = """
import json, sys
from onephase.cli import main
loaded = {
    "import": sorted(m for m in sys.modules if m.startswith("scipy")),
    "lazy": sorted(m for m in ("onephase.solver", "onephase.variations") if m in sys.modules),
}
for k, argv in enumerate(json.loads(sys.argv[1])):
    rc = main(argv + ["--out", f"out{k}"])
    loaded[" ".join(argv)] = rc or sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps(loaded))
"""


def test_cli_import_and_scipy_free_ops_load_no_scipy(tmp_path):
    # Only potential (Simpson) and the hausdorff check need scipy; the CLI
    # import and the other ops must not load it.  The CLI import loads
    # neither the solver nor the variations either: the subcommands that
    # use them import them.
    spec = _spec_file(tmp_path)
    field = _layer_file(tmp_path)
    commands = [
        ["check", "--what", "nondeg"],
        ["check", "--what", "exit", "--point=0.1,-0.08"],
        ["cone", "--kind", "radial", "--emit-interface"],
        ["cone", "--kind", "radial", "--h", "0.02", "--x", str(spec)],
        ["vary", "--eps", "0.1", "--field", str(field), "--x", str(spec)],
    ]
    src = str(Path(onephase.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"import": [], "lazy": [], **{" ".join(c): [] for c in commands}}


def test_grid_below_three_nodes_fails_without_warnings(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["check", "--what", "lipschitz", "--n", "1", "--out", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ValueError"
    assert "need at least 3 nodes" in error["message"]


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


def test_sweep_thread_count_does_not_change_bytes(tmp_path, monkeypatch):
    argv = ["sweep", "--check", "l1", "--eps", "0.2,0.1", "--out", str(tmp_path)]
    monkeypatch.setenv("ONEPHASE_THREADS", "2")
    assert main(argv) == 0
    parallel = _tree_hashes(tmp_path)
    monkeypatch.setenv("ONEPHASE_THREADS", "1")
    assert main(argv) == 0
    assert _tree_hashes(tmp_path) == parallel


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


@pytest.mark.parametrize(
    "argv, csv_sha256, iterations, residual_hex, energy_hex",
    [
        (
            ["--eps", "0.2", "--n", "41"],
            "3c6b655f0683ac65565e2a0588ec94f51aac5b25e2033b03d307d0a5015fc574",
            14,
            "0x1.d3a9e34e00000p-28",
            "0x1.249a5ec9ffe78p+2",
        ),
        (
            ["--eps", "0.1", "--lo=-1", "--hi=1", "--n", "81"],
            "0634a38cd80ae51dff7bcd853c8f37fda57d4133b94a86a9330fe3fa57965fc8",
            27,
            "0x1.634aaffffffffp-28",
            "0x1.124d2bef6754bp+1",
        ),
    ],
    ids=["2d-41", "1d-81"],
)
def test_solve_output_bits_are_pinned(
    tmp_path, argv, csv_sha256, iterations, residual_hex, energy_hex
):
    # A rerun of one tree cannot notice a solver change that moves bits;
    # these pins can.
    assert main(["solve", *argv, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "solution.csv").read_bytes()).hexdigest()
    assert digest == csv_sha256
    report = _read(tmp_path / "report.json")
    assert report["iterations"] == iterations
    assert float.hex(report["final_residual"]) == residual_hex
    assert float.hex(report["energy"]) == energy_hex


def test_variation_report_bits_are_pinned(tmp_path):
    # Tolerances cannot notice a change to the deformation tables or the
    # variation integrands that moves bits; these pins can.
    spec = _spec_file(tmp_path)
    field = _layer_file(tmp_path)
    argv = ["vary", "--eps", "0.1", "--field", str(field), "--x", str(spec)]
    assert main([*argv, "--out", str(tmp_path / "v")]) == 0
    report = _read(tmp_path / "v" / "report.json")
    keys = ("first_analytic", "second_analytic", "first_fd", "second_fd", "classical_second")
    assert {k: float.hex(report[k]) for k in keys} == {
        "first_analytic": "-0x1.ce4d4f7bc60bap-7",
        "second_analytic": "0x1.91cba032ac532p-3",
        "first_fd": "-0x1.ce4d4d5cc89a9p-7",
        "second_fd": "0x1.91cb9c9b7c6e7p-3",
        "classical_second": "0x1.bd0723241b635p-5",
    }
    argv = ["cone", "--kind", "radial", "--h", "0.01", "--x", str(spec)]
    assert main([*argv, "--out", str(tmp_path / "c")]) == 0
    forms = _read(tmp_path / "c" / "report.json")["forms"]
    assert {k: float.hex(v) for k, v in forms.items()} == {
        "cjk": "0x1.1f2cf10d65de2p-3",
        "first_volume": "0x1.12a11a0453260p-15",
        "second_surface": "0x1.2822e5fc8ae78p-3",
        "second_volume": "0x1.1068a2577556cp-3",
    }


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


def test_reports_share_version_and_hash_fields(tmp_path):
    assert main(["profile", "--out", str(tmp_path / "p")]) == 0
    assert main(["potential", "--out", str(tmp_path / "q")]) == 0
    a = _read(tmp_path / "p" / "report.json")
    b = _read(tmp_path / "q" / "report.json")
    assert a["version"] == b["version"]
    assert a["config_sha256"] != b["config_sha256"]
