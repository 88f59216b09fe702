"""Tests of the benchmark's own logic: self time, seeds, checks, metrics.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# --- self-time arithmetic ---


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, "a", 0.0, 10.0, None),
        (1, "b", 1.0, 4.0, 0),
        (2, "c", 2.0, 3.0, 1),
        (3, "b", 5.0, 9.0, 0),
    ]
    got = tracer.self_times(spans)
    assert got["a"] == (1, pytest.approx(3.0))
    assert got["b"] == (2, pytest.approx(2.0 + 4.0))
    assert got["c"] == (1, pytest.approx(1.0))
    total_self = sum(s for _, s in got.values())
    assert total_self == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # Children from a pool can overlap; their union is subtracted, clipped
    # to the parent interval.
    spans = [
        (0, "p", 0.0, 10.0, None),
        (1, "k", 1.0, 5.0, 0),
        (2, "k", 3.0, 7.0, 0),
        (3, "k", 9.0, 12.0, 0),
    ]
    got = tracer.self_times(spans)
    assert got["p"] == (1, pytest.approx(10.0 - 6.0 - 1.0))


def test_tracer_records_nesting_and_counters():
    clock = iter(float(t) for t in range(100))
    tr = tracer.Tracer(clock=lambda: next(clock))

    def leaf(x):
        return x + 1

    def count(c, args, kwargs, result):
        c["leaf.calls_seen"] += result

    leaf_t = tr.wrap("m.leaf", leaf, count)
    root_t = tr.wrap("m.root", lambda: leaf_t(1) + leaf_t(2))
    assert root_t() == 5
    names = {s[0]: s for s in tr.spans}
    root = next(s for s in tr.spans if s[1] == "m.root")
    leaves = [s for s in tr.spans if s[1] == "m.leaf"]
    assert root[4] is None and all(s[4] == root[0] for s in leaves)
    assert tr.counters["leaf.calls_seen"] == 5
    assert len(names) == 3
    got = tracer.self_times(tr.spans)
    assert got["m.leaf"] == (2, 2.0)
    assert got["m.root"] == (1, 5.0 - 2.0)


def test_tracer_stacks_are_per_thread():
    tr = tracer.Tracer()
    inner = tr.wrap("m.inner", lambda: None)

    def outer():
        t = threading.Thread(target=inner)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tr.wrap("m.outer", outer)()
    inner_span = next(s for s in tr.spans if s[1] == "m.inner")
    assert inner_span[4] is None


def test_install_rebinds_imported_names():
    tr = tracer.install()
    import onephase.cli as cli
    import onephase.field as field
    import onephase.solver as solver

    try:
        for fn in (field.evaluate, cli.evaluate, solver.integrate, cli.minimize, cli.main):
            assert fn.__wrapped__ is not None
        before = len(tr.spans)
        grid = field.make_grid(0.0, 1.0, 5)
        assert len(tr.spans) == before + 1 and tr.spans[-1][1] == "field.make_grid"
        assert grid.shape == (5,)
    finally:
        _uninstall()


def _uninstall():
    for name, module in list(sys.modules.items()):
        if name == "onephase" or name.startswith("onephase."):
            for attr, value in list(vars(module).items()):
                original = getattr(value, "__wrapped__", None)
                if original is not None and callable(value):
                    setattr(module, attr, original)


# --- seeds ---


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    ops_a, inputs_a = workloads.build(workload, 7)
    ops_b, inputs_b = workloads.build(workload, 7)
    assert ops_a == ops_b
    workloads.write_inputs(inputs_a, tmp_path / "a")
    workloads.write_inputs(inputs_b, tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").glob("*"))
    assert files_a == sorted(p.name for p in (tmp_path / "b").glob("*"))
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_other_seed_other_inputs():
    for workload in workloads.WORKLOADS:
        ops_a, inputs_a = workloads.build(workload, 1)
        ops_b, inputs_b = workloads.build(workload, 2)
        assert [o.name for o in ops_a] == [o.name for o in ops_b]
        if workload != "vary":
            assert ops_a != ops_b
        else:
            assert json.dumps(_spec_json(inputs_a)) != json.dumps(_spec_json(inputs_b))


def _spec_json(inputs):
    from onephase.field import spec_to_json

    return {k: spec_to_json(v) for k, (kind, v) in inputs.items() if kind == "spec"}


def test_negative_values_use_equals_form():
    for workload in workloads.WORKLOADS:
        for seed in range(20):
            for op in workloads.build(workload, seed)[0]:
                for flag, value in zip(op.argv, op.argv[1:]):
                    if flag.startswith("--") and "=" not in flag:
                        assert value.startswith("--") or not value.startswith("-"), op.argv


# --- output checks ---


def _write(out: Path, name: str, payload: dict) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(json.dumps(payload), encoding="utf-8")
    return out


def test_vary_check_rejects_fd_mismatch(tmp_path):
    good = {
        "first_analytic": 1.0, "first_fd": 1.0 + 1e-4,
        "second_analytic": 2.0, "second_fd": 2.02,
        "dt": 0.01, "classical_second": 2.0, "surface_second": None,
    }
    assert checks.run_check("vary", _write(tmp_path / "g", "report.json", good), {}) == []
    bad = dict(good, second_fd=3.0)
    problems = checks.run_check("vary", _write(tmp_path / "b", "report.json", bad), {})
    assert problems and "second variation" in problems[0]


def test_solve_check_rejects_unconverged_report(tmp_path):
    bad = {"converged": False, "final_residual": 1e-3, "iterations": 5}
    out = _write(tmp_path, "report.json", bad)
    problems = checks.run_check("solve", out, {"tol": 1e-8, "x_tol": None})
    assert len(problems) == 2


def test_sweep_check_rejects_rising_gap(tmp_path):
    entries = [{"eps": e, "report": {"value": v}} for e, v in ((0.2, 0.3), (0.1, 0.4))]
    out = _write(tmp_path, "summary.json", {"entries": entries})
    assert checks.run_check("sweep_l1", out, {"eps": [0.2, 0.1]})


def test_missing_output_is_a_problem(tmp_path):
    assert checks.run_check("wedge", tmp_path, {"s": 0.5})


# --- metric declarations ---


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"]]
    assert names == list(metrics.END_TO_END)
