"""Tests for the shared JSON codec of records and sidecars."""

from __future__ import annotations

import numpy as np
import pytest

from onephase.field import (
    GridSpec,
    PolyBump,
    ScalarField,
    VectorFieldSpec,
    make_grid,
    save_field,
    save_vector_spec,
)
from onephase.records import from_json, to_json
from onephase.solver import SolveConfig
from onephase.variations import VariationReport


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
