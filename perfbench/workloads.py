"""Workload definitions of the mfs2d benchmark.

Each workload is one committed sweep config under configs/ (run with
`timing = off`) and the reference CSV that `mfs2d sweep` wrote from it under
reference/.  The seed only permutes the order in which the (method, N) cells
run, so every seed yields the same table.  Why each workload was chosen,
which layer it stresses and which it bypasses is in BENCHMARK.json.

Layer -> end-to-end mapping.  A change to the layer behind a per-layer
metric is predicted to move the named end-to-end metrics on the named
workloads, and nothing on the others (the "does not move" side):

    per-layer metric                 moves                on
    arnoldi.factor_s|calls|cols      wall_s, tta_s        star_sweep, near_svd
    arnoldi.evaluate_s|pts           wall_s, tta_s        star_sweep, near_svd
    expansion.truncation_order_s     wall_s               near_svd
    expansion.setup_s, cap_bound     wall_s               near_svd
    linalg.svd_s                     wall_s               star_sweep, near_svd
    linalg.lstsq_s, cond2_s, calls   wall_s, tta_s        direct_disk
    solvers.build_s                  wall_s               star_sweep, near_svd
    solvers.assemble_s, solve_s      wall_s               direct_disk, star_sweep
    solvers.eval_s|pts               wall_s, peak_rss_mb  direct_disk, star_sweep
    geometry.sample_s                setup_s, wall_s      all
    geometry.max_radius_s            setup_s              all
    bench.parse_config_s             setup_s              all
    bench.run_single_self_s          wall_s               all

direct_disk makes no Arnoldi and no expansion call, so it is the control run
for any change to those layers.
"""

import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# pinned to 1 in every measured process before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    target_method: str    # time to accuracy: the smallest-N cell of this method ...
    target_error: float   # ... whose linf_error is at most this

    @property
    def config(self) -> str:
        return os.path.join(HERE, "configs", f"{self.name}.cfg")

    @property
    def reference(self) -> str:
        return os.path.join(HERE, "reference", f"{self.name}.csv")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("star_sweep", target_method="svd", target_error=1e-9),      # N=350
        Workload("near_svd", target_method="svd", target_error=5e-6),        # N=225
        Workload("direct_disk", target_method="direct", target_error=1e-12), # N=300
    )
}
