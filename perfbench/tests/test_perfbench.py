"""Tests of the benchmark harness: smoke runs on tiny N lists, determinism,
the no-worse-than-reference check, the tracer and the result line."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, root_seconds, summarize  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

# the smallest N of each workload, one cell per method
TINY = {
    "star_sweep": [("direct", 50), ("qr", 50), ("svd", 50)],
    "near_svd": [("svd", 25)],
    "direct_disk": [("direct", 100)],
}


@pytest.fixture(scope="module")
def modules():
    return worker.import_program()


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def _measure(modules, name, **kwargs):
    kwargs.setdefault("cells", TINY[name])
    return worker.measure(modules, WORKLOADS[name], seed=1, seconds=0, **kwargs)


def _rewrite_reference(src, dst, method, n, **changes):
    lines = open(src).read().splitlines()
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if parts[0] == method and int(parts[1]) == n:
            for key, value in changes.items():
                parts[header.index(key)] = repr(value)
            lines[i] = ",".join(parts)
    dst.write_text("\n".join(lines) + "\n")
    return str(dst)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_and_trace(modules, name):
    result = _measure(modules, name)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == len(result["orders"]) * len(TINY[name])
    assert result["metrics"]["wall_s"] > 0
    assert result["metrics"]["pass_frac"] == 1.0

    traced = _measure(modules, name, trace=True)
    assert traced["failed"] == 0, traced["failures"]
    assert traced["absent"] == []
    assert traced["span_check"]["ok"], traced["span_check"]
    metrics = traced["layer_metrics"]
    if name == "direct_disk":
        assert metrics["arnoldi.factor_calls"] == 0
        assert metrics["expansion.truncation_order_calls"] == 0
    else:
        # one z and one w factorization per svd cell
        assert metrics["arnoldi.factor_calls"] == 2
        assert metrics["expansion.truncation_order_calls"] >= 1
    assert metrics["linalg.calls"] == 2 * len(TINY[name]) + (name != "direct_disk")


def test_seeds_change_only_the_order(modules):
    cells = [(m, n) for m in ("direct", "qr", "svd") for n in (50, 100)]
    a = _measure(modules, "star_sweep", cells=cells)
    b = worker.measure(modules, WORKLOADS["star_sweep"], seed=2, seconds=0, cells=cells)
    assert a["orders"] != b["orders"]
    assert a["csv"] == b["csv"]
    assert a["csv"].count("\n") == 1 + len(cells)


def test_worse_reference_row_fails(modules, tmp_path):
    ref = WORKLOADS["direct_disk"].reference
    good = verify.load_reference(ref)[("direct", 100)]
    perturbed = _rewrite_reference(
        ref, tmp_path / "ref.csv", "direct", 100, linf_error=good["linf_error"] / 10
    )
    result = _measure(modules, "direct_disk", reference=perturbed)
    assert result["failed"] == len(result["orders"])
    assert 1.0 - result["metrics"]["pass_frac"] > 0
    assert "linf_error" in result["failures"][0]


def test_changed_degree_and_missing_row_fail(modules, tmp_path):
    ref = WORKLOADS["star_sweep"].reference
    perturbed = _rewrite_reference(ref, tmp_path / "ref.csv", "svd", 50, p=48)
    with open(perturbed, "a") as fh:
        fh.write("svd,550,1100,275,1.5,1e-13,1e-13,0.0,0.28\n")
    result = _measure(modules, "star_sweep", reference=perturbed)
    reps = len(result["orders"])
    assert result["failed"] == reps + 1
    assert result["attempted"] == reps * len(TINY["star_sweep"]) + 1
    assert any("not produced" in f for f in result["failures"])
    assert any("(M, p) changed" in f for f in result["failures"])


def test_raising_cell_counts_as_failed(modules, monkeypatch):
    bench = modules["bench"]
    original = bench.run_single

    def flaky(cfg, method, n, ws=None):
        if method == "qr":
            raise ValueError("boom")
        return original(cfg, method, n, ws)

    monkeypatch.setattr(bench, "run_single", flaky)
    result = _measure(modules, "star_sweep")
    reps = len(result["orders"])
    assert result["attempted"] == 3 * reps
    assert result["failed"] == reps
    assert "ValueError: boom" in result["failures"][0]


def test_check_row_tolerances():
    ref = {"M": 200, "p": 0, "cond2": 1e6, "linf_error": 1e-6, "max_imag": 0.0}
    better = dict(ref, cond2=1e5, linf_error=1e-9)
    assert verify.check_row(ref, better) is None
    assert verify.check_row(ref, dict(ref, linf_error=1.5e-6)) is None
    assert "linf_error" in verify.check_row(ref, dict(ref, linf_error=3e-6))
    assert "linf_error" in verify.check_row(ref, dict(ref, linf_error=math.nan))
    assert "max_imag" in verify.check_row(ref, dict(ref, max_imag=1e-9))
    assert "cond2" in verify.check_row(ref, dict(ref, cond2=1.3e6))
    # above 1/(M*eps) cond2 is roundoff noise and is not compared
    saturated = dict(ref, cond2=1e17)
    assert verify.check_row(saturated, dict(saturated, cond2=1e19)) is None
    assert verify.check_row(None, ref) == "no reference row"


def test_tracer_reports_missing_name_as_absent(modules):
    tracer = Tracer()
    tracer.wrap(modules["solvers"], "no_such_function", "arnoldi.factor")
    layers.register(tracer, dict(modules, linalg=None))
    with tracer.installed():
        modules["linalg"].cond2([[1.0, 0.0], [0.0, 2.0]])
    assert "mfs2d.solvers.no_such_function" in tracer.absent
    assert {"linalg.svd_thin", "linalg.lstsq", "linalg.cond2"} <= set(tracer.absent)
    metrics = layers.per_layer(summarize(tracer.take()))
    assert metrics["linalg.calls"] == 0
    assert metrics["arnoldi.factor_calls"] == 0
    assert not hasattr(modules["solvers"].arnoldi_vandermonde, "__wrapped__")


def test_self_times_sum_to_root_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
        with tracer.span("inner"):
            pass
    spans = tracer.take()
    summary = summarize(spans)
    assert summary["inner"]["calls"] == 2
    total_self = sum(s["self_s"] for s in summary.values())
    assert total_self == pytest.approx(root_seconds(spans), rel=1e-12)


def test_result_line_lists_every_metric_with_its_unit(modules, spec):
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(WORKLOADS)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = _measure(modules, "direct_disk", trace=bool(trace))
        line = run.result_line(spec, result, setup_s=0.5, trace=trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert list(line["metrics"]) == [m["name"] for m in spec[group]]
        for m in spec[group]:
            value = line["metrics"][m["name"]]
            assert value["unit"] == m["unit"]
            assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
        assert json.loads(json.dumps(line)) == line


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "star_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
