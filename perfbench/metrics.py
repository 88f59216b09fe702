"""Names and units of the metrics the benchmark reports.

BENCHMARK.json declares the same lists; a test keeps them in step.
"""

END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")

# Public functions that at least one workload calls, per layer.  Each gets a
# `.calls` and a `.self_s` metric; a workload that never calls one reports 0.
TRACED_FUNCTIONS = {
    "potentials": ("F_eps", "f_eps", "make_reference"),
    "ode1d": ("first_integral_residual", "save_profile", "solve_monotone", "solve_wedge"),
    "field": (
        "evaluate", "flow", "gradient", "hessian", "integrate", "interior_mask",
        "jacobian", "laplacian", "load_field", "load_vector_spec", "make_grid",
        "max_norm", "pullback", "sample", "save_field", "spec_from_json", "support_box",
    ),
    "solver": ("energy", "minimize", "report_to_json", "residual"),
    "variations": (
        "cjk_form", "classical_second_variation", "extract_interface",
        "first_inner_variation", "inner_variation_fd", "lie_derivative",
        "report_to_json", "save_curve", "second_inner_variation",
        "surface_second_variation", "variation_report",
    ),
    "fbcheck": (
        "check_to_json", "density_scan", "exit_radius", "l1_gap",
        "nondegeneracy_scan", "poincare_ratio",
    ),
    "cli": ("main",),
}

COUNTERS = (
    ("ode1d.rk4_steps", "count"),
    ("solver.iterations", "count"),
    ("solver.node_iter_ns", "ns"),
    ("field.table_points", "count"),
    ("field.io_bytes", "bytes"),
    ("cli.out_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)

PER_LAYER = tuple(
    (f"{layer}.{fn}.{kind}", unit)
    for layer, fns in TRACED_FUNCTIONS.items()
    for fn in fns
    for kind, unit in (("calls", "count"), ("self_s", "s"))
) + COUNTERS
