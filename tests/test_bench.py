import math
import string
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfs2d import (
    MACHINE_EPS,
    ConfigError,
    ExperimentConfig,
    InsufficientDataError,
    NumericalError,
    SweepRow,
    SweepTable,
    curve_names,
    emit_basis_samples,
    fit_growth_rate,
    make_curve,
    parse_config,
    read_table,
    run_single,
    run_sweep,
    sample_collocation,
    sample_sources,
    table_to_csv,
    truncation_order,
    write_table,
)
from mfs2d import SizeLimitError, bench
from mfs2d.bench import CSV_HEADER, build_method_context
from mfs2d.geometry import series_ratio

BASE_CONFIG = """\
[domain]
curve = circle

[source]
curve = circle
radius = 2

[data]
name = x2y3

[run]
methods = svd
N = 8
timing = off
"""


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def config(**overrides):
    base = dict(
        domain="circle",
        source="circle",
        data="x2y3",
        methods=("svd",),
        n_values=(8,),
        source_params={"radius": 2.0},
        timing=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigParsing:
    def test_full_roundtrip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE_CONFIG))
        assert cfg.domain == "circle" and cfg.source == "circle"
        assert cfg.source_params == {"radius": 2.0}
        assert cfg.methods == ("svd",) and cfg.n_values == (8,)
        assert cfg.m_rule == 2 and cfg.error_samples == 10001
        assert not cfg.timing

    def test_n_range_form(self, tmp_path):
        text = BASE_CONFIG.replace("N = 8", "N = 50:200:50")
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.n_values == (50, 100, 150, 200)

    def test_n_list_form(self, tmp_path):
        text = BASE_CONFIG.replace("N = 8", "N = 10,20,40")
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.n_values == (10, 20, 40)

    def test_unknown_run_key_rejected(self, tmp_path):
        text = BASE_CONFIG + "stride = 3\n"
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        text = BASE_CONFIG + "\n[plotting]\nstyle = fancy\n"
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, text))

    def test_unknown_curve_rejected(self, tmp_path):
        text = BASE_CONFIG.replace("curve = circle\nradius = 2", "curve = heptagram")
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, text))

    def test_descending_n_rejected(self):
        with pytest.raises(ConfigError):
            config(n_values=(100, 50))
        with pytest.raises(ConfigError):
            config(n_values=(10, 10))

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            config(methods=("direct", "multigrid"))
        with pytest.raises(ConfigError):
            config(methods=("direct", "direct"))

    def test_empty_methods_rejected(self):
        with pytest.raises(ConfigError):
            config(methods=())

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ConfigError):
            config(tol=tol)

    def test_nan_tol_in_file_rejected(self, tmp_path):
        text = BASE_CONFIG + "tol = nan\n"
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, text))


class TestRunSweep:
    def test_single_row_all_fields_finite(self):
        table = run_sweep(config())
        assert len(table.rows) == 1 and not table.errors
        row = table.rows[0]
        assert row.method == "svd" and row.n == 8 and row.m == 16
        assert math.isfinite(row.cond2) and row.cond2 >= 1.0
        assert row.linf_error >= 0.0
        assert row.constraint_margin == pytest.approx(0.5, abs=1e-12)

    def test_svd_constraint_violation_becomes_error_entry(self):
        # sources inside the domain: svd must refuse, direct still runs
        cfg = config(methods=("direct", "svd"), source_params={"radius": 0.9}, n_values=(6,))
        table = run_sweep(cfg)
        assert [r.method for r in table.rows] == ["direct"]
        assert len(table.errors) == 1
        method, n, message = table.errors[0]
        assert method == "svd" and n == 6 and "margin" in message

    def test_qr_and_svd_report_a_violation_with_one_message(self):
        # unit disk centred at x = 0.5 (R = 1.5) with radius-1.2 sources: ratio 1.25
        cfg = config(
            domain_params={"cx": 0.5},
            source_params={"radius": 1.2},
            methods=("qr", "svd"),
            n_values=(40,),
        )
        table = run_sweep(cfg)
        assert not table.rows
        (qr, _, qr_message), (svd, _, svd_message) = table.errors
        assert (qr, svd) == ("qr", "svd") and qr_message == svd_message
        assert "1.25" in qr_message and "margin=-0.25" in qr_message

    def test_rows_sorted_and_one_per_cell(self):
        cfg = config(methods=("svd", "direct"), n_values=(8, 12))
        table = run_sweep(cfg)
        keys = [(r.method, r.n) for r in table.rows]
        assert keys == sorted(keys)
        assert len(set(keys)) == 4

    def test_rerun_is_byte_identical_with_timing_off(self):
        cfg = config(methods=("direct", "svd"), n_values=(8, 16))
        a = table_to_csv(run_sweep(cfg))
        b = table_to_csv(run_sweep(cfg))
        assert a == b

    def test_timing_on_fills_runtime(self):
        table = run_sweep(config(timing=True))
        assert table.rows[0].runtime_ms > 0.0


class TestCsv:
    def test_header(self):
        assert CSV_HEADER == "method,N,M,p,cond2,linf_error,max_imag,runtime_ms,constraint_margin"

    def test_roundtrip_byte_identical(self, tmp_path):
        table = run_sweep(config(methods=("direct", "svd"), n_values=(8,), timing=True))
        path = tmp_path / "table.csv"
        write_table(table, path)
        text = path.read_text()
        assert text == table_to_csv(read_table(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("method,N\nsvd,8\n")
        with pytest.raises(ConfigError):
            read_table(path)

    def test_header_names_every_row_field_in_order(self):
        assert [h.lower() for h in CSV_HEADER.split(",")] == [f.name for f in fields(SweepRow)]

    @pytest.mark.parametrize(
        "row",
        [
            "direct,ten,20,0,1.0,0.0,0.0,0.0,0.5",     # non-integral N
            "direct,10,20,0,big,0.0,0.0,0.0,0.5",      # non-numeric cond2
            "direct,10,20,0,1.0,0.0,0.0,0.0",          # a field short
            "direct,10,20,0,1.0,0.0,0.0,0.0,0.5,1.0",  # a field over
        ],
    )
    def test_malformed_row_is_a_config_error(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"{CSV_HEADER}\n{row}\n")
        with pytest.raises(ConfigError, match="malformed CSV row"):
            read_table(path)


def _same(a, b):
    """Equal and of one type; floats also match nan to nan and the sign of zero."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1.7976931348623157e308]
_ANY_FLOAT = st.floats() | st.sampled_from(_EDGE_FLOATS)
_ROWS = st.builds(
    SweepRow,
    st.text(string.ascii_letters + string.digits + "_", max_size=8),
    *[st.integers(-(2**63), 2**63)] * 3,
    *[_ANY_FLOAT] * 5,
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_ROWS, max_size=6))
@example(rows=[SweepRow("svd", 8, 16, 3, *_EDGE_FLOATS[:5])])
@example(rows=[SweepRow("qr", 0, -1, 2**63, *_EDGE_FLOATS[2:])])
def test_csv_roundtrip_keeps_every_value(rows):
    table = SweepTable(rows=rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_table(table, path)
        back = read_table(path)
        assert table_to_csv(back) == path.read_text() == table_to_csv(table)
    assert len(back.rows) == len(rows)
    for got, want in zip(back.rows, rows):
        for name, value in vars(want).items():
            assert _same(getattr(got, name), value), name


class TestSizeGuard:
    @pytest.mark.parametrize("method", ["direct", "qr", "svd"])
    def test_every_backend_refuses_before_building(self, monkeypatch, method):
        def built(*args, **kwargs):
            raise AssertionError("basis built past the size guard")

        monkeypatch.setattr(bench, "FEATURE_BYTES_MAX", 0)
        monkeypatch.setattr(bench, "build_qr_basis", built)
        monkeypatch.setattr(bench, "build_svd_basis", built)
        with pytest.raises(SizeLimitError, match="over the 0 GiB budget"):
            run_single(config(methods=(method,)), method, 8)

    def test_budget_is_inclusive(self, monkeypatch):
        # direct N=8: 10001 evaluation rows x 8 kernels x 8 bytes
        monkeypatch.setattr(bench, "FEATURE_BYTES_MAX", 10001 * 8 * 8)
        run_single(config(methods=("direct",)), "direct", 8)
        monkeypatch.setattr(bench, "FEATURE_BYTES_MAX", 10001 * 8 * 8 - 1)
        with pytest.raises(SizeLimitError, match="10001 x 8 feature matrix"):
            run_single(config(methods=("direct",)), "direct", 8)

    def test_capped_qr_degree_is_reported_as_a_bound(self, monkeypatch):
        # unit disk, sources at radius 2: q = 1/2 and the qr degree is p0 (> N/2)
        p0 = truncation_order(0.5, config().tol)
        monkeypatch.setattr(bench, "FEATURE_BYTES_MAX", 10001 * (2 * p0 + 1) * 8)
        assert run_single(config(methods=("qr",)), "qr", 8)[0].p == p0
        # one byte less caps the order search at p0 - 1, which stops without reaching p0
        monkeypatch.setattr(bench, "FEATURE_BYTES_MAX", 10001 * (2 * p0 + 1) * 8 - 1)
        with pytest.raises(SizeLimitError, match=rf"^10001 x \(2p\+1\) feature matrix with p > {p0 - 1} "):
            run_single(config(methods=("qr",)), "qr", 8)

    def test_sweep_records_the_refused_cell(self, monkeypatch):
        monkeypatch.setattr(bench, "FEATURE_BYTES_MAX", 10001 * 8 * 8)
        table = run_sweep(config(methods=("direct",), n_values=(8, 9)))
        assert [r.n for r in table.rows] == [8]
        assert [e[:2] for e in table.errors] == [("direct", 9)]


class TestFitGrowthRate:
    @staticmethod
    def synthetic(rate, n_values, method="direct"):
        rows = [
            SweepRow(method, n, 2 * n, 0, math.exp(rate * n), 0.0, 0.0, 0.0, 0.5)
            for n in n_values
        ]
        return SweepTable(rows=rows)

    def test_exact_synthetic_slope(self):
        fit = fit_growth_rate(self.synthetic(0.5, range(10, 61, 10)), "direct")
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)

    def test_saturated_rows_excluded(self):
        table = self.synthetic(0.5, range(10, 61, 10))
        table.rows.append(SweepRow("direct", 100, 200, 0, 1e16, 0.0, 0.0, 0.0, 0.5))
        assert fit_growth_rate(table, "direct").slope == pytest.approx(0.5, abs=1e-12)

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientDataError):
            fit_growth_rate(self.synthetic(0.5, (10, 20, 30)), "direct")

    def test_missing_method(self):
        with pytest.raises(InsufficientDataError):
            fit_growth_rate(self.synthetic(0.5, range(10, 61, 10)), "svd")


class TestBasisSamples:
    def test_direct_single_source_is_normalized_kernel(self, tmp_path):
        domain = make_curve("circle")
        sources = sample_sources(make_curve("circle", radius=3.0), 1)
        path = tmp_path / "basis.csv"
        emit_basis_samples(sources, domain, 64, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,psi1"
        t = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
        col = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        pts = domain.point(t)
        trace = -np.log(np.hypot(pts[:, 0] - 3.0, pts[:, 1])) / (2 * np.pi)
        assert np.allclose(col, trace / np.max(np.abs(trace)), atol=1e-12)

    def test_svd_emits_one_file(self, tmp_path):
        cfg = config(n_values=(6,))
        context, ws = build_method_context(cfg, "svd", 6)
        path = tmp_path / "svd.csv"
        emit_basis_samples(context, ws.domain, 32, path)
        assert sorted(tmp_path.iterdir()) == [path]
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t," + ",".join(f"phi{i}" for i in range(1, 7))
        assert len(lines) == 33

    def test_sampled_gram_matches_stored_factors(self, tmp_path):
        # emit at exactly the collocation parameters and compare discrete
        # inner products against the assembled system matrix
        from mfs2d import assemble_svd_system, sample_collocation

        cfg = config(n_values=(6,))
        context, ws = build_method_context(cfg, "svd", 6)
        m = 12
        path = tmp_path / "g.csv"
        emit_basis_samples(context, ws.domain, m, path)
        traces = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:]
        a = assemble_svd_system(context, sample_collocation(ws.domain, m))
        assert np.max(np.abs(traces.T @ traces - a.T @ a)) <= 1e-10

    def test_count_too_small(self, tmp_path):
        sources = sample_sources(make_curve("circle", radius=3.0), 1)
        with pytest.raises(ValueError):
            emit_basis_samples(sources, make_curve("circle"), 1, tmp_path / "x.csv")


class TestFigureExamples:
    def test_near_degenerate_direct_basis_far_sources(self, tmp_path):
        # sources far away make all kernel traces nearly identical
        domain = make_curve("circle")
        sources = sample_sources(make_curve("circle", radius=10.0), 8)
        path = tmp_path / "fig.csv"
        emit_basis_samples(sources, domain, 256, path)
        cols = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:]
        worst = max(
            np.max(np.abs(cols[:, i] - cols[:, j]))
            for i in range(8)
            for j in range(i + 1, 8)
        )
        assert worst <= 0.2

    def test_disk_sweep_tracks_until_direct_saturates(self):
        # concentric setting: svd stays O(1)-conditioned while direct grows,
        # and the errors agree wherever both are above the roundoff floor
        cfg = config(
            methods=("direct", "svd"),
            source_params={"radius": 1.1},
            n_values=tuple(range(50, 601, 50)),
        )
        table = run_sweep(cfg)
        assert not table.errors
        direct = {r.n: r for r in table.for_method("direct")}
        svd = {r.n: r for r in table.for_method("svd")}
        for n in cfg.n_values:
            assert 1.0 <= svd[n].cond2 <= 5.0
            if direct[n].cond2 < 1e14 and max(direct[n].linf_error, svd[n].linf_error) > 1e-12:
                ratio = direct[n].linf_error / svd[n].linf_error
                assert 0.1 <= ratio <= 10.0
        assert direct[200].linf_error < 1e-6
        assert min(r.linf_error for r in svd.values()) <= 1e-12
        conds = [direct[n].cond2 for n in cfg.n_values]
        assert conds[-1] > 100 * conds[0]
        # well-conditioned basis: fitted conditioning growth is flat
        assert abs(fit_growth_rate(table, "svd").slope) <= 0.01


def test_run_single_direct_records_negative_margin():
    cfg = config(methods=("direct",), source_params={"radius": 0.9}, n_values=(6,))
    row, record = run_single(cfg, "direct", 6)
    assert row.constraint_margin < 0.0
    assert record.method == "direct"


def test_run_single_svd_rejects_undersampled_grid():
    # M = N with even N cannot carry 2p+1 >= N frame functions
    cfg = config(m_rule=1, n_values=(6,))
    with pytest.raises(ConfigError):
        run_single(cfg, "svd", 6)


def test_build_method_context_svd_rejects_undersampled_grid():
    cfg = config(m_rule=1, n_values=(50,))
    with pytest.raises(ConfigError):
        build_method_context(cfg, "svd", 50)


@pytest.mark.parametrize("method", ["direct", "qr", "svd"])
def test_basis_dump_context_equals_the_solved_cells(method):
    # basis dumps and sweep cells build their contexts through one path
    cfg = config(domain="star_kite", methods=(method,), n_values=(30,))
    dumped, _ = build_method_context(cfg, method, 30)
    solved = run_single(cfg, method, 30)[1].context
    assert type(dumped) is type(solved)
    if method == "direct":
        assert np.array_equal(dumped.points, solved.points)
    elif method == "qr":
        assert np.array_equal(dumped.transform, solved.transform)
    else:
        assert np.array_equal(dumped.basis_coords, solved.basis_coords)
        assert np.array_equal(dumped.h, solved.h)
        assert dumped.node_count == solved.node_count


@pytest.mark.parametrize("n, p", [(193, 97), (199, 100), (200, 100), (201, 101)])
def test_qr_degree_keeps_the_feature_space_wider_than_the_basis(n, p):
    # p0 = 96 on star_kite with radius-2 sources; odd N = 2p+1 needs one more degree
    cfg = config(domain="star_kite", methods=("qr",), n_values=(n,))
    basis, _ = build_method_context(cfg, "qr", n)
    assert basis.degree == p and 2 * p + 1 > n


REPO = Path(__file__).parent.parent
SHIPPED_CONFIGS = sorted(REPO.glob("configs/*.cfg")) + sorted(REPO.glob("perfbench/configs/*.cfg"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_degree_rule_on_every_shipped_cell(monkeypatch, path):
    # p0 from the tolerance, lifted by the width floor, clamped by svd's resolution cap
    monkeypatch.setattr(bench, "build_qr_basis", lambda setup: setup)
    monkeypatch.setattr(bench, "build_svd_basis", lambda setup, colloc: setup)
    cfg = parse_config(path)
    ws = bench._workspace(cfg)
    for method in set(cfg.methods) & {"qr", "svd"}:
        for n in cfg.n_values:
            colloc, sources, _ = bench._sample(cfg, ws, n)
            setup, p = bench._build(cfg, method, ws, colloc, sources)
            p0 = truncation_order(series_ratio(sources, ws.boundary_radius), cfg.tol)
            if method == "qr":
                expected = max(p0, (n + 1) // 2)
            else:
                expected = min(max(p0, n // 2), (colloc.count - 1) // 2)
            assert p == setup.degree == expected, (method, n, p0)


OFFSET_CURVES = st.builds(
    "offset({}, rho={})".format, st.sampled_from(curve_names()), st.sampled_from([0.05, 0.3, 0.5])
)


@settings(max_examples=200, deadline=None)
@given(
    domain=st.one_of(st.sampled_from(curve_names()), OFFSET_CURVES),
    # an offset's outward normal is the one curve tangent that reaches a solve
    source=st.one_of(st.just("circle"), OFFSET_CURVES),
    radius=st.one_of(st.floats(0.1, 10.0), st.sampled_from([1e3, 1e300])),
    cx=st.floats(-3.0, 3.0),
    cy=st.floats(-3.0, 3.0),
    method=st.sampled_from(["direct", "qr", "svd"]),
    n=st.integers(1, 40),
    m_rule=st.integers(1, 3),
    error_samples=st.integers(2, 64),
    tol=st.sampled_from([MACHINE_EPS, 1e-6, 10.0]),
)
@example(    # the row scale (R/rho)^2 / 2 underflows
    domain="star_kite", source="circle", radius=1e300, cx=0.0, cy=0.0, method="qr", n=4,
    m_rule=2, error_samples=64, tol=MACHINE_EPS,
)
def test_every_cell_ends_as_a_row_or_a_typed_error(
    domain, source, radius, cx, cy, method, n, m_rule, error_samples, tol
):
    cfg = config(
        domain=domain,
        source=source,
        methods=(method,),
        n_values=(n,),
        # offset(...) takes no parameters
        source_params={"radius": radius, "cx": cx, "cy": cy} if source == "circle" else {},
        m_rule=m_rule,
        error_samples=error_samples,
        tol=tol,
    )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # no numpy warning reaches stderr either
            row, _ = run_single(cfg, method, n)
    except (ConfigError, NumericalError):
        return
    assert (row.method, row.n, row.m) == (method, n, m_rule * n)
