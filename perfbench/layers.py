"""Which program functions the traced run wraps, and the per-layer metrics built from them.

Every entry names the module whose attribute callers resolve at call time:
`bench.run_single` looks up `build_svd_basis` in the `bench` module,
`build_svd_basis` looks up `arnoldi_vandermonde` in `solvers`, and the
solvers call `linalg.cond2` through the `linalg` module.  A span's self time
excludes its traced children, so e.g. `solvers.build_s` is the basis build
without its Arnoldi factorizations and SVD.

`linalg.flops` is a model count, not a measurement: Golub-Van Loan operation
counts for the R-SVD of a k x l matrix (l >= k), times 4 for complex input.
"""

CELL_SPAN = "cell.{method}"
METHODS = ("direct", "qr", "svd")


def _arnoldi_cols(arguments, result):
    return {"cols": int(result.q.shape[1])}


def _rows(arguments, result):
    return {"pts": int(result.shape[0])}


def _cap_bound(arguments, result):
    return {"cap_bound": int(result.base_order is not None and result.degree < result.base_order)}


def _eval_points(arguments, result):
    return {"pts": int(arguments.get("count", 0))}


def _flops(model):
    def work(arguments, result):
        import numpy as np    # imported by the program first, after BLAS is pinned

        a = np.asarray(arguments.get("a"))
        if a.ndim != 2:
            return {"flops": 0}
        k, l = sorted(a.shape)
        scale = 4 if np.iscomplexobj(a) else 1
        return {"flops": int(scale * model(l, k))}

    return work


SVD_FLOPS = _flops(lambda l, k: 6 * l * k * k + 20 * k**3)      # U1, S, V
LSTSQ_FLOPS = _flops(lambda l, k: 2 * l * k * k + 11 * k**3)    # S, V and the solve
COND2_FLOPS = _flops(lambda l, k: 2 * l * k * k + 2 * k**3)     # S only

# (module, attribute, span, work counter)
WRAPS = (
    ("bench", "parse_config", "bench.parse_config", None),
    ("bench", "max_boundary_radius", "geometry.max_radius", None),
    ("bench", "run_single", "bench.run_single", None),
    ("bench", "sample_collocation", "geometry.sample", None),
    ("bench", "sample_sources", "geometry.sample", None),
    ("bench", "setup_expansion", "expansion.setup", _cap_bound),
    ("bench", "truncation_order", "expansion.truncation_order", None),
    ("expansion", "truncation_order", "expansion.truncation_order", None),
    ("bench", "build_svd_basis", "solvers.build", None),
    ("bench", "build_qr_basis", "solvers.build", None),
    ("solvers", "arnoldi_vandermonde", "arnoldi.factor", _arnoldi_cols),
    ("solvers", "evaluate_basis", "arnoldi.evaluate", _rows),
    ("bench", "assemble_direct", "solvers.assemble", None),
    ("bench", "assemble_svd_system", "solvers.assemble", None),
    ("bench", "assemble_qr_system", "solvers.assemble", None),
    ("bench", "solve_direct", "solvers.solve", None),
    ("bench", "solve_svd", "solvers.solve", None),
    ("bench", "solve_qr", "solvers.solve", None),
    ("bench", "boundary_error", "solvers.eval", _eval_points),
    ("linalg", "svd_thin", "linalg.svd", SVD_FLOPS),
    ("linalg", "lstsq", "linalg.lstsq", LSTSQ_FLOPS),
    ("linalg", "cond2", "linalg.cond2", COND2_FLOPS),
)


def register(tracer, modules):
    """Register every WRAPS entry; `modules` maps a module name to the module or None."""
    for module_name, attr, span, work in WRAPS:
        module = modules.get(module_name)
        if module is None:
            tracer.absent.append(f"{module_name}.{attr}")
        else:
            tracer.wrap(module, attr, span, work)


def per_layer(summary):
    """Per-layer metric values (without units) from a span summary."""

    def self_s(span):
        return summary.get(span, {}).get("self_s", 0.0)

    def calls(span):
        return summary.get(span, {}).get("calls", 0)

    def work(span, key):
        return summary.get(span, {}).get("work", {}).get(key, 0)

    linalg = ("linalg.svd", "linalg.lstsq", "linalg.cond2")
    out = {
        "arnoldi.factor_s": self_s("arnoldi.factor"),
        "arnoldi.factor_calls": calls("arnoldi.factor"),
        "arnoldi.factor_cols": work("arnoldi.factor", "cols"),
        "arnoldi.evaluate_s": self_s("arnoldi.evaluate"),
        "arnoldi.evaluate_pts": work("arnoldi.evaluate", "pts"),
        "expansion.truncation_order_s": self_s("expansion.truncation_order"),
        "expansion.truncation_order_calls": calls("expansion.truncation_order"),
        "expansion.setup_s": self_s("expansion.setup"),
        "expansion.cap_bound": work("expansion.setup", "cap_bound"),
        "linalg.svd_s": self_s("linalg.svd"),
        "linalg.lstsq_s": self_s("linalg.lstsq"),
        "linalg.cond2_s": self_s("linalg.cond2"),
        "linalg.calls": sum(calls(s) for s in linalg),
        "linalg.flops": sum(work(s, "flops") for s in linalg),
        "solvers.build_s": self_s("solvers.build"),
        "solvers.assemble_s": self_s("solvers.assemble"),
        "solvers.solve_s": self_s("solvers.solve"),
        "solvers.eval_s": self_s("solvers.eval"),
        "solvers.eval_pts": work("solvers.eval", "pts"),
        "geometry.sample_s": self_s("geometry.sample"),
        "geometry.max_radius_s": self_s("geometry.max_radius"),
        "bench.parse_config_s": self_s("bench.parse_config"),
        "bench.run_single_self_s": self_s("bench.run_single"),
    }
    for method in METHODS:
        span = CELL_SPAN.format(method=method)
        out[f"solvers.{method}_cell_s"] = summary.get(span, {}).get("total_s", 0.0)
    return out
