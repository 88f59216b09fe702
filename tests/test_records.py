"""Tests for the shared file formats: JSON records and sidecars, CSV tables."""

from __future__ import annotations

import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onephase
from onephase.field import (
    GridSpec,
    PolyBump,
    ScalarField,
    VectorFieldSpec,
    load_field,
    make_grid,
    save_field,
    save_vector_spec,
)
from onephase.ode1d import Profile1D, load_profile, save_profile
from onephase.records import from_json, read_table, to_json, write_table
from onephase.solver import SolveConfig
from onephase.variations import InterfaceCurve, VariationReport, load_curve, save_curve


@pytest.mark.parametrize(
    "cls, payload",
    [
        (SolveConfig, {"eps": 0.1}),
        (VariationReport, to_json(VariationReport(1.0, 2.0, 1.0, 2.0, 0.1))),
        (GridSpec, to_json(make_grid(0.0, 1.0, 11))),
        (
            PolyBump,
            {"coeffs": np.zeros((4, 4)).tolist(), "center": [0.0, 0.0], "halfwidths": [0.5, 0.5]},
        ),
    ],
)
def test_from_json_rejects_unknown_keys(cls, payload):
    from_json(cls, payload)
    with pytest.raises(ValueError, match="bogus"):
        from_json(cls, {**payload, "bogus": 1})


def test_sidecar_text_is_pinned(tmp_path):
    grid = make_grid((0.0, -0.5), (1.0, 0.5), (11, 11))
    save_field(ScalarField(grid=grid, values=np.zeros(grid.shape)), tmp_path / "f.csv")
    assert (tmp_path / "f.json").read_text(encoding="utf-8") == (
        '{\n  "dim": 2,\n  "h": 0.1,\n  "origin": [\n    0.0,\n    -0.5\n  ],\n'
        '  "shape": [\n    11,\n    11\n  ]\n}\n'
    )
    bump = PolyBump(coeffs=np.array([1.0, 0.0, -0.5, 0.0]), center=(0.5,), halfwidths=(0.25,))
    save_vector_spec(VectorFieldSpec(dim=1, components=(bump,)), tmp_path / "s.json")
    assert (tmp_path / "s.json").read_text(encoding="utf-8") == (
        '{\n  "components": [\n    {\n      "center": [\n        0.5\n      ],\n'
        '      "coeffs": [\n        1.0,\n        0.0,\n        -0.5,\n        0.0\n      ],\n'
        '      "halfwidths": [\n        0.25\n      ]\n    }\n  ],\n  "dim": 1\n}\n'
    )


def _savetxt(rows, header: str, fmt="%.17g") -> bytes:
    buf = io.StringIO()
    np.savetxt(buf, rows, fmt=fmt, delimiter=",", header=header, comments="")
    return buf.getvalue().encode("utf-8")


def _rows(n: int, k: int) -> np.ndarray:
    """n rows of k >= 3 floats across the exponent range, edge values in row 0."""
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-300, 300, (n, k))
    rows[:1, -3:] = [-0.0, 5e-324, 1e308]
    return rows


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# headers of the write_table tables the package writes
_KINDS = {"profile": "t,V,Vp", "curve": "x,y,nu_x,nu_y,H", "potential": "s,f,F"}
# header and per-column formats of a 2D field table
_FIELD = ("i,j,x,y,u", ["%d"] * 2 + ["%.17g"] * 3)


@pytest.mark.parametrize("n", [0, 1, 4097])  # 4097 crosses chunk boundaries
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_table_bytes_match_savetxt_and_reload_bit_for_bit(tmp_path, kind, n):
    header = _KINDS[kind]
    rows = _rows(n, header.count(",") + 1)
    path = tmp_path / "t.csv"
    write_table(path, header, rows, {"kind": kind})
    assert path.read_bytes() == _savetxt(rows, header)
    again, sidecar = read_table(path)
    assert sidecar == {"kind": kind}
    assert _same_bits(again, rows)


def test_table_without_sidecar_writes_none(tmp_path):
    write_table(tmp_path / "t.csv", "s,f,F", _rows(2, 3))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_package_writers_use_the_table_format(tmp_path):
    grid = make_grid((0.0, -0.5), (1.0, 1.0), (3, 4))
    values = _rows(3, 4)
    save_field(ScalarField(grid=grid, values=values), tmp_path / "f.csv")
    rows, _ = read_table(tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_bytes() == _savetxt(rows, *_FIELD)
    assert _same_bits(load_field(tmp_path / "f.csv").values, values)

    t, V, Vp = _rows(5, 3).T
    prof = Profile1D(eps=0.5, kind="wedge", s=0.25, t=t, V=V, Vp=Vp, h=0.1, T=1.0)
    save_profile(prof, tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_bytes() == _savetxt(np.column_stack([t, V, Vp]), "t,V,Vp")
    again = load_profile(tmp_path / "p.csv")
    assert all(_same_bits(getattr(again, k), getattr(prof, k)) for k in ("t", "V", "Vp"))
    assert (again.eps, again.kind, again.s, again.h, again.T) == (0.5, "wedge", 0.25, 0.1, 1.0)

    empty = InterfaceCurve(
        points=np.zeros((0, 2)), normals=np.zeros((0, 2)), curvature=np.zeros(0),
        singular=np.zeros(0, dtype=bool), closed=False,
    )
    save_curve(empty, tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_bytes() == b"x,y,nu_x,nu_y,H\n"
    again = load_curve(tmp_path / "c.csv")
    assert again.points.shape == again.normals.shape == (0, 2)
    assert again.curvature.shape == again.singular.shape == (0,)


def test_only_records_writes_tables_and_names_sidecars():
    # The one exemption: `potential --table` reads a hand-made CSV that has
    # no sidecar and may have no header, so cli keeps its np.loadtxt.
    sidecar_rule = re.compile(r"""with_suffix\(\s*["']\.json""")
    for module in sorted(Path(onephase.__file__).parent.glob("*.py")):
        if module.name == "records.py":
            continue
        text = module.read_text(encoding="utf-8")
        assert "savetxt" not in text, module.name
        assert not sidecar_rule.search(text), module.name
        assert text.count("loadtxt") == (module.name == "cli.py"), module.name



def test_every_module_all_names_resolve():
    # The benchmark's tracer wraps what __all__ lists and skips a name that
    # is missing, so a stale entry would drop a layer without an error.
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules(onephase.__path__):
        module = importlib.import_module(f"onephase.{info.name}")
        names = module.__all__
        assert len(set(names)) == len(names), info.name
        assert [n for n in names if not hasattr(module, n)] == [], info.name

_EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1.5e-310,
    1e300, -1e300, 1e-300, -1e-300, 1.0, -3.0, 2.0**53, -12345.0,
]


@st.composite
def _fields(draw) -> ScalarField:
    dim = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.lists(st.integers(3, 9), min_size=dim, max_size=dim)))
    origin = tuple(draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    h = draw(st.floats(1e-6, 10.0))
    size = int(np.prod(shape))
    value = st.sampled_from(_EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(value, min_size=size, max_size=size))
    grid = GridSpec(dim, origin, h, shape)
    return ScalarField(grid=grid, values=np.array(values).reshape(shape))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_fields())
def test_field_round_trip_is_savetxt_bytes_and_bits(tmp_path_factory, u):
    path = tmp_path_factory.mktemp("field") / "f.csv"
    save_field(u, path)
    dim = u.grid.dim
    index = np.indices(u.grid.shape).reshape(dim, -1)
    coords = [a.ravel() for a in np.meshgrid(*u.grid.axes(), indexing="ij")]
    rows = np.column_stack([*index, *coords, u.values.ravel()])
    header = ",".join(["i", "j"][:dim] + ["x", "y"][:dim] + ["u"])
    assert path.read_bytes() == _savetxt(rows, header, ["%d"] * dim + ["%.17g"] * (dim + 1))
    again = load_field(path)
    assert again.grid == u.grid
    assert _same_bits(again.values, u.values)
