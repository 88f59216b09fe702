"""Benchmark of the onephase CLI, end to end and layer by layer.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload {solve,vary,scan} --seed N \
        --seconds S --trace {0,1}

A closed loop with one client: each op of the workload runs as a fresh
`onephase` process (the way users run it), one at a time, and its outputs
are checked.  Passes over the workload repeat until --seconds have passed;
at least one full pass always runs.

--trace 0 reports the end-to-end metrics (per op medians, summed over the
ops of one pass).  --trace 1 runs every op twice, untraced and traced,
requires byte-identical --out trees, and reports per-layer calls, self time
and work counters of one traced pass.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2 means the benchmark could not
run at all (no source tree, bad arguments); no result line is printed then.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import metrics
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
BOOT = HERE / "boot.py"

# Every op process is killed once the run has lasted this long, so the
# benchmark always exits well within three minutes.
RUN_BUDGET_S = 170.0
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclasses.dataclass
class OpResult:
    """Timing, resource use and check outcome of one op process."""

    name: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float | None = None
    maxrss_kb: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    hashes: dict[str, str] = dataclasses.field(default_factory=dict)
    out_bytes: int = 0
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _child_env(extra: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PERFBENCH_TRACE", None)
    env.update(extra)
    return env


def tree_hashes(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_op(op, op_dir: Path, traced: bool, deadline: float) -> OpResult:
    """Run one op in a fresh interpreter from op_dir and check its outputs.

    The process is killed at `deadline` (time.monotonic()) and then fails.
    """
    res = OpResult(op.name)
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    stamp = op_dir / "stamp"
    trace_file = op_dir / "trace.json"
    extra = dict(op.env)
    extra["PERFBENCH_STAMP"] = str(stamp)
    if traced:
        extra["PERFBENCH_TRACE"] = str(trace_file)
    env = _child_env(extra)
    with open(op_dir / "stdout.txt", "wb") as out_fh, open(op_dir / "stderr.txt", "wb") as err_fh:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BOOT), *op.argv],
            cwd=op_dir, env=env, stdout=out_fh, stderr=err_fh,
        )
        watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        res.wall_s = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    res.cpu_s = usage.ru_utime + usage.ru_stime
    res.maxrss_kb = usage.ru_maxrss
    if proc.returncode != 0:
        err = (op_dir / "stderr.txt").read_text(errors="replace")[-400:]
        res.problems.append(f"exit code {proc.returncode}: {err.strip()}")
    try:
        res.setup_s = float(stamp.read_text()) - start
    except (OSError, ValueError):
        res.problems.append("interpreter never finished importing onephase.cli")
    if not res.problems:
        res.problems += checks.run_check(op.check, op_dir / "out", op.params)
    out_dir = op_dir / "out"
    if out_dir.is_dir():
        res.hashes = tree_hashes(out_dir)
        res.out_bytes = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    if traced and trace_file.is_file():
        res.trace = json.loads(trace_file.read_text(encoding="utf-8"))
    shutil.rmtree(op_dir, ignore_errors=True)
    return res


def _git_sha() -> str | None:
    # The ceiling keeps git from reporting an enclosing repository when the
    # checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _warm_up() -> None:
    # Compiles bytecode and fills the page cache once, so the first timed op
    # does not pay costs that a user's repeated runs do not pay.  A failure
    # here shows again, and is counted, in the ops.
    subprocess.run(
        [sys.executable, "-c", "import onephase.cli"],
        env=_child_env({}), timeout=60,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def end_to_end(results: list[OpResult]) -> dict:
    """Per-op medians summed over one pass; setup is the median over ops."""
    by_op: dict[str, list[OpResult]] = {}
    for r in results:
        by_op.setdefault(r.name, []).append(r)
    wall = sum(statistics.median(r.wall_s for r in rs) for rs in by_op.values())
    cpu = sum(statistics.median(r.cpu_s for r in rs) for rs in by_op.values())
    # An op that never finished its import counts its whole wall time.
    setup = statistics.median(r.wall_s if r.setup_s is None else r.setup_s for r in results)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "cpu_s": {"value": cpu, "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": max(r.maxrss_kb for r in results) / 1024.0, "unit": "MB"},
    }


def layer_totals(results: list[OpResult]) -> dict[str, float]:
    """Per-layer values of one traced pass, keyed by metric name."""
    totals: dict[str, float] = {}
    minimize_s = 0.0
    for r in results:
        if r.trace is None:
            continue
        for name, (calls, self_s) in tracer.self_times(r.trace["spans"]).items():
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + calls
            totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + self_s
        for name, value in r.trace["counters"].items():
            totals[name] = totals.get(name, 0) + value
        minimize_s += sum(s[3] - s[2] for s in r.trace["spans"] if s[1] == "solver.minimize")
        totals["cli.out_bytes"] = totals.get("cli.out_bytes", 0) + r.out_bytes
    node_iters = totals.pop("solver.node_iters", 0)
    totals["solver.node_iter_ns"] = 1e9 * minimize_s / node_iters if node_iters else 0.0
    return totals


def _report_op(r: OpResult, tag: str) -> None:
    status = "FAIL " + "; ".join(r.problems) if r.failed else "ok"
    print(f"{r.name:24s} {tag:6s} wall {r.wall_s:8.3f} s  cpu {r.cpu_s:8.3f} s  "
          f"setup {r.setup_s or 0.0:6.3f} s  {status}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    # A terminated run unwinds through the finally blocks, which kill the
    # running op and remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "onephase" / "cli.py").is_file():
        print(f"perfbench: no onephase source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        ops, inputs = workloads.build(args.workload, args.seed)
        workloads.write_inputs(inputs, run_dir / "inputs")
        _warm_up()
        print(json.dumps({"environment": environment(args)}, sort_keys=True), flush=True)

        plain: list[OpResult] = []
        traced_passes: list[list[OpResult]] = []
        start = time.monotonic()
        while True:
            this_pass = []
            for op in ops:
                r = run_op(op, run_dir / "plain" / op.name, False, deadline)
                plain.append(r)
                _report_op(r, "")
                if args.trace:
                    t = run_op(op, run_dir / "traced" / op.name, True, deadline)
                    if t.hashes != r.hashes:
                        t.problems.append("--out tree differs between traced and untraced runs")
                    if t.trace is None:
                        t.problems.append("traced run wrote no trace")
                    this_pass.append(t)
                    _report_op(t, "traced")
            if args.trace:
                traced_passes.append(this_pass)
            if time.monotonic() - start >= args.seconds:
                break

        done = plain + [t for p in traced_passes for t in p]
        failed = sum(r.failed for r in done)
        if args.trace:
            per_pass = [layer_totals(p) for p in traced_passes]
            values = {
                name: statistics.median(p.get(name, 0) for p in per_pass)
                for name, _unit in metrics.PER_LAYER
            }
            traced_wall = sum(t.wall_s for p in traced_passes for t in p)
            plain_wall = sum(r.wall_s for r in plain)
            values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
            result_metrics = {
                name: {"value": values[name], "unit": unit} for name, unit in metrics.PER_LAYER
            }
        else:
            result_metrics = end_to_end(plain)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": result_metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
