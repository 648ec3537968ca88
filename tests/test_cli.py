import io
import pathlib
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfs2d import ConfigError
from mfs2d.bench import CSV_HEADER, build_method_context, parse_config
from mfs2d.cli import main

CONFIG = """\
[domain]
curve = circle

[source]
curve = circle
radius = 2

[data]
name = x2y3

[run]
methods = direct,svd
N = 6,8
timing = off
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG)
    return str(path)


class TestSolve:
    def test_prints_rows(self, config_path, capsys):
        assert main(["solve", "--config", config_path]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == CSV_HEADER
        assert len(out) == 3
        assert out[1].startswith("direct,6,12,")
        assert out[2].startswith("svd,6,12,")

    def test_n_override(self, config_path, capsys):
        assert main(["solve", "--config", config_path, "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert ",8,16," in out

    def test_vanishing_singular_value_exits_3(self, tmp_path, capsys):
        # svd sources at radius 1e300: the reduced matrix has an exact zero singular value
        path = tmp_path / "far.cfg"
        path.write_text(
            CONFIG.replace("radius = 2", "radius = 1e300").replace("direct,svd\nN = 6,8", "svd\nN = 4")
        )
        assert main(["solve", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: rank deficiency")

    def test_constraint_failure_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG.replace("radius = 2", "radius = 0.9"))
        assert main(["solve", "--config", str(path)]) == 3

    def test_unknown_curve_exits_2(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG.replace("curve = circle\nradius = 2", "curve = blob9"))
        assert main(["solve", "--config", str(path)]) == 2

    def test_non_numeric_data_parameter_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG.replace("name = x2y3", "name = harmonic_k\nk = abc"))
        assert main(["solve", "--config", str(path)]) == 2
        assert "configuration error: [data] k: expected a number" in capsys.readouterr().err

    def test_seed_is_an_unknown_run_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG + "seed = 0\n")
        assert main(["solve", "--config", str(path)]) == 2
        assert "configuration error: unknown [run] keys ['seed']" in capsys.readouterr().err

    def test_folded_offset_domain_exits_2(self, tmp_path, capsys):
        folded = "curve = offset(osc_r1, rho=0.5)"
        path = tmp_path / "bad.cfg"
        text = CONFIG.replace("[domain]\ncurve = circle", "[domain]\n" + folded)
        path.write_text(text.replace("radius = 2", "radius = 3").replace("N = 6,8", "N = 40"))
        assert main(["solve", "--config", str(path)]) == 2
        assert "folds back on itself" in capsys.readouterr().err
        # the same curve stays a valid source curve: its points lie outside the base
        path.write_text(CONFIG.replace("curve = circle\nradius = 2", folded))
        assert main(["solve", "--config", str(path)]) == 0

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_non_finite_source_radius_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG.replace("radius = 2", "radius = nan"))
        argv = [command, "--config", str(path)]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "table.csv")]
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_negative_source_radius_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG.replace("radius = 2", "radius = -1"))
        argv = [command, "--config", str(path)]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "table.csv")]
        assert main(argv) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_missing_config_exits_4(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 4


class TestSweepAndFit:
    def test_sweep_then_fit(self, config_path, tmp_path, capsys):
        out_path = str(tmp_path / "table.csv")
        assert main(["sweep", "--config", config_path, "--out", out_path]) == 0
        lines = open(out_path).read().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5

        # too few pre-saturation rows for a fit -> numerical failure
        assert main(["fit", "--in", out_path, "--method", "direct"]) == 3

    def test_star_circle2_sweep_writes_max_imag_zero(self, tmp_path):
        # every system, coefficient and evaluation is real
        config = pathlib.Path(__file__).parent.parent / "configs" / "star_circle2.cfg"
        out = tmp_path / "star.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        column = lines[0].split(",").index("max_imag")
        assert len(lines) == 31
        assert {ln.split(",")[column] for ln in lines[1:]} == {"0.0"}

    def test_fit_output(self, tmp_path, capsys):
        import math

        path = tmp_path / "t.csv"
        rows = [CSV_HEADER] + [
            f"direct,{n},{2 * n},0,{math.exp(0.5 * n)!r},0.0,0.0,0.0,0.5"
            for n in range(10, 61, 10)
        ]
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--in", str(path), "--method", "direct"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "slope,intercept"
        assert abs(float(out[1].split(",")[0]) - 0.5) < 1e-12

    def test_fit_non_numeric_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + "\ndirect,ten,20,0,1.0,0.0,0.0,0.0,0.5\n")
        assert main(["fit", "--in", str(path), "--method", "direct"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: malformed CSV row 'direct,ten,")
        assert "Traceback" not in err

    def test_fit_missing_file_exits_4(self, tmp_path):
        assert main(["fit", "--in", str(tmp_path / "none.csv"), "--method", "direct"]) == 4

    def test_fit_on_one_repeated_n_exits_3_without_a_warning(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text(fit_table([10] * 4, [1.0, 2.0, 3.0, 4.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--in", str(path), "--method", "direct"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numerical failure: 1 distinct N")

    @pytest.mark.parametrize("big", [2**64, 10**33, 10**160])
    def test_fit_on_an_n_beyond_float64_exits_2_naming_the_row(self, tmp_path, capsys, big):
        path = tmp_path / "t.csv"
        path.write_text(fit_table([10, 20, 30, big], [1.0, 2.0, 3.0, 4.0]))
        assert main(["fit", "--in", str(path), "--method", "direct"]) == 2
        assert capsys.readouterr().err == f"configuration error: direct row N={big}: |N| above 2^53 cannot be fitted\n"


def fit_table(ns, conds):
    """A sweep CSV of direct rows with the given N and cond2 columns."""
    rows = [f"direct,{n},20,0,{c!r},0.0,0.0,0.0,0.5" for n, c in zip(ns, conds)]
    return "\n".join([CSV_HEADER, *rows]) + "\n"


@settings(max_examples=200, deadline=None)
@given(
    ns=st.lists(
        st.one_of(st.integers(1, 12), st.integers(-(2**70), 2**70), st.sampled_from([2**53, 2**53 + 1])),
        min_size=4,
        max_size=8,
    ),
    conds=st.lists(st.floats(1.0, 1e14), min_size=8, max_size=8),
)
@example(ns=[10, 10, 10, 10], conds=[1.0, 2.0, 3.0, 4.0] * 2)
@example(ns=[2**50 - k for k in range(4)], conds=[1.0, 2.0, 3.0, 4.0] * 2)
def test_fit_ends_in_a_line_or_a_typed_error(ns, conds):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "t.csv"
        path.write_text(fit_table(ns, conds))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(["fit", "--in", str(path), "--method", "direct"])
    if rc == 0:
        assert not caught and err.getvalue() == ""
        assert out.getvalue().splitlines()[0] == "slope,intercept"
    else:
        assert rc in (2, 3) and out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()


_ROW = b"direct,10,20,0,1.0,0.0,0.0,0.0,0.5"


class TestMalformedFiles:
    """Files Python's parsers reject end in exit 2 with one line naming the file and line."""

    @pytest.mark.parametrize(
        "command, text, line",
        [
            pytest.param("sweep", CONFIG.replace("N = 6,8\n", "N = 6,8\nN = 6\n"), 14, id="key-twice"),
            pytest.param("sweep", CONFIG + "\n[run]\nM_rule = 2\n", 16, id="section-twice"),
            pytest.param("sweep", "N = 6\n" + CONFIG, 1, id="no-header"),
            pytest.param("sweep", CONFIG.replace("timing = off", "timing off"), 14, id="no-equals"),
            # values are literal, so this is a bad number, not a substitution
            pytest.param("sweep", CONFIG.replace("radius = 2", "radius = %(x)s"), None, id="percent"),
            pytest.param("sweep", CONFIG.encode().replace(b"x2y3", b"x2\xffy3"), 9, id="config-bytes"),
            pytest.param("fit", CSV_HEADER.encode() + b"\n" + _ROW + b"\n\xe9\n", 3, id="table-bytes"),
        ],
    )
    def test_exits_2_naming_the_line(self, tmp_path, capsys, command, text, line):
        path = tmp_path / "input"
        if isinstance(text, str):
            path.write_text(text)
        else:
            path.write_bytes(text)
        if command == "sweep":
            args = ["sweep", "--config", str(path), "--out", str(tmp_path / "out.csv")]
        else:
            args = ["fit", "--in", str(path), "--method", "direct"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        if line is not None:
            assert str(path) in err and re.search(rf"\bline:? {line}\b", err)
        assert not (tmp_path / "out.csv").exists()


class TestBasis:
    def test_default_method_writes_file(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "basis.csv")
        rc = main(["basis", "--config", config_path, "--n", "6", "--samples", "40", "--out", out])
        assert rc == 0
        assert capsys.readouterr().out == out + "\n"
        assert open(out).readline().startswith("t,psi1")

    def test_svd_method_writes_one_file(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "basis.csv")
        rc = main(
            ["basis", "--config", config_path, "--n", "6", "--samples", "40",
             "--out", out, "--method", "svd"]
        )
        assert rc == 0
        assert capsys.readouterr().out == out + "\n"
        assert sorted(p.name for p in tmp_path.glob("basis*")) == ["basis.csv"]
        assert open(out).readline() == "t," + ",".join(f"phi{i}" for i in range(1, 7)) + "\n"


    @pytest.mark.parametrize("samples", ["1", "0", "-3"])
    def test_samples_below_two_exit_2(self, config_path, tmp_path, capsys, samples):
        out = tmp_path / "basis.csv"
        rc = main(["basis", "--config", config_path, "--n", "6", "--samples", samples,
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "configuration error: --samples must be >= 2\n"
        assert not out.exists()

    def test_undersampled_svd_grid_exits_2(self, tmp_path, capsys):
        # M = N = 50 collocation points cannot carry 50 svd basis functions
        path = tmp_path / "under.cfg"
        path.write_text(CONFIG.replace("methods = direct,svd", "methods = svd\nM_rule = 1"))
        out = str(tmp_path / "basis.csv")
        rc = main(["basis", "--config", str(path), "--n", "50", "--samples", "40", "--out", out])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        with pytest.raises(ConfigError):
            build_method_context(parse_config(str(path)), "svd", 50)


def test_console_entry_point(config_path):
    result = subprocess.run(
        [sys.executable, "-m", "mfs2d.cli", "solve", "--config", config_path],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith(CSV_HEADER)


def test_near_boundary_large_tolerance_solve_returns_a_row(tmp_path):
    # q = 1 - 1e-9 and tol = 20: the order search walked down from ~5e10 terms
    # instead of from the degree cap 99, and the solve hung
    path = tmp_path / "near.cfg"
    path.write_text(
        CONFIG.replace("radius = 2", "radius = 1.000000001").replace(
            "methods = direct,svd\nN = 6,8", "methods = svd\nN = 100\ntol = 20"
        )
    )
    result = subprocess.run(
        [sys.executable, "-m", "mfs2d.cli", "solve", "--config", str(path)],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[1].startswith("svd,100,200,50,")


SHIPPED_CONFIGS = sorted(
    str(p) for p in (pathlib.Path(__file__).parent.parent / "configs").glob("*.cfg")
)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: pathlib.Path(p).stem)
def test_shipped_configs_parse_and_solve(path, capsys):
    cfg = parse_config(path)
    assert main(["solve", "--config", path, "--n", str(cfg.n_values[0])]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == CSV_HEADER
    assert len(out) == 1 + len(cfg.methods)


class TestDegenerateSystems:
    # N=1: the one source lands on the origin up to rounding, at distance 1
    # from both collocation points, so the kernel matrix is all zeros
    ZERO_KERNEL = CONFIG.replace("radius = 2", "cx = -2\nradius = 2").replace(
        "methods = direct,svd\nN = 6,8", "methods = direct\nN = 1,2"
    )
    # Re(z^3000) overflows on star_kite (max |z| ~ 1.43)
    OVERFLOW = CONFIG.replace("curve = circle\n\n[source]", "curve = star_kite\n\n[source]").replace(
        "name = x2y3", "name = harmonic_k\nk = 3000"
    ).replace("N = 6,8", "N = 10,20")

    def test_zero_kernel_solve_exits_3(self, tmp_path, capsys):
        path = tmp_path / "zero.cfg"
        path.write_text(self.ZERO_KERNEL)
        assert main(["solve", "--config", str(path)]) == 3
        assert "numerical failure: condition number of the zero matrix" in capsys.readouterr().err

    def test_zero_kernel_sweep_keeps_the_other_cell(self, tmp_path, capsys):
        path = tmp_path / "zero.cfg"
        path.write_text(self.ZERO_KERNEL)
        out = tmp_path / "table.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert [ln.split(",")[:2] for ln in lines[1:]] == [["direct", "2"]]
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: direct N=1: condition number of the zero matrix is undefined"]

    @pytest.mark.parametrize("samples", [2, 8])    # max-abs exactly 0, then 7e-17
    def test_vanishing_direct_trace_exits_3(self, tmp_path, capsys, samples):
        path = tmp_path / "zero.cfg"
        path.write_text(self.ZERO_KERNEL)
        out = tmp_path / "basis.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["basis", "--config", str(path), "--n", "1", "--samples", str(samples),
                       "--out", str(out), "--method", "direct"])
        assert rc == 3
        assert "numerical failure: direct trace psi1 vanishes" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_data_solve_warns_nothing(self, tmp_path, capsys):
        path = tmp_path / "overflow.cfg"
        path.write_text(self.OVERFLOW)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(path)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: right-hand side contains non-finite entries\n"
        )

    def test_overflowing_data_sweep_reports_every_cell(self, tmp_path, capsys):
        path = tmp_path / "overflow.cfg"
        path.write_text(self.OVERFLOW)
        out = tmp_path / "table.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        assert out.read_text() == CSV_HEADER + "\n"
        err = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert err == [
            f"error: {m} N={n}: right-hand side contains non-finite entries"
            for m in ("direct", "svd")
            for n in (10, 20)
        ]


class TestSizeGuard:
    # qr on star_kite (R ~ 1.4256) with sources just outside R: the degree has
    # no cap, so radius 1.43 asks for a 10001 x 21169 monomial matrix (1.6 GiB)
    # and radius 1.4257 for a 10001 x 1046555 one (78 GiB).
    @pytest.fixture(params=["1.43", "1.4257"])
    def huge_qr(self, request, tmp_path):
        path = tmp_path / "huge.cfg"
        path.write_text(
            CONFIG.replace("curve = circle\n\n[source]", "curve = star_kite\n\n[source]")
            .replace("radius = 2", f"radius = {request.param}")
            .replace("methods = direct,svd\nN = 6,8", "methods = direct,qr\nN = 10")
        )
        return str(path)

    @staticmethod
    def traced_main(argv):
        """Exit code and tracemalloc peak in bytes of one CLI call."""
        tracemalloc.start()
        try:
            rc = main(argv)
            return rc, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_solve_exits_3_without_allocating(self, huge_qr, capsys):
        rc, peak = self.traced_main(["solve", "--config", huge_qr])
        assert rc == 3
        assert peak < 64 * 2**20
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: 10001 x ")
        assert err.endswith("GiB, over the 1 GiB budget\n")

    def test_sweep_keeps_the_other_cell(self, huge_qr, tmp_path, capsys):
        out = tmp_path / "table.csv"
        rc, peak = self.traced_main(["sweep", "--config", huge_qr, "--out", str(out)])
        assert rc == 0
        assert peak < 64 * 2**20
        lines = out.read_text().splitlines()
        assert [ln.split(",")[:2] for ln in lines[1:]] == [["direct", "10"]]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: qr N=10: 10001 x ")

    def test_svd_over_budget_is_refused_before_it_allocates(self, tmp_path, capsys):
        # unit disk, sources at radius 1.001, N = 4000: the resolution cap gives
        # p = 3999, and the 10001 x 7999 complex frame needs 1.19 GiB
        path = tmp_path / "huge_svd.cfg"
        path.write_text(
            CONFIG.replace("radius = 2", "radius = 1.001")
            .replace("methods = direct,svd\nN = 6,8", "methods = svd\nN = 4000")
        )
        rc, peak = self.traced_main(["solve", "--config", str(path)])
        assert rc == 3
        assert peak < 64 * 2**20
        err = capsys.readouterr().err
        assert err == (
            "numerical failure: 10001 x (2p+1) feature matrix with p > 3354 "
            "needs more than 1 GiB, over the 1 GiB budget\n"
        )

    DISK = str(pathlib.Path(__file__).parent.parent / "configs" / "disk_growth_law.cfg")

    def test_huge_n_is_refused_before_sampling(self, capsys):
        # 2e7 collocation points x 1e7 kernels; sampling the points alone needs 320 MB
        rc, peak = self.traced_main(["solve", "--config", self.DISK, "--n", "10000000"])
        assert rc == 3
        assert peak < 64 * 2**20
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: 20000000 x 10000000 feature matrix")

    def test_huge_basis_samples_are_refused_before_sampling(self, tmp_path, capsys):
        # 2e7 samples x 8 kernels x 8 bytes = 1.19 GiB
        out = tmp_path / "basis.csv"
        argv = ["basis", "--config", self.DISK, "--n", "8", "--samples", "20000000"]
        rc, peak = self.traced_main(argv + ["--out", str(out)])
        assert rc == 3
        assert peak < 64 * 2**20
        assert capsys.readouterr().err.startswith("numerical failure: 20000000 x 8 feature matrix")
        assert not out.exists()


class TestSourcesAtTheBoundary:
    # unit disk, circle sources at radius 1 + delta: q = 1/(1 + delta) -> 1, where
    # the truncation-order walk takes O(1/delta) terms unless the cap settles it
    @pytest.mark.parametrize(
        "method, radius, code",
        [("svd", "1.0000000000000002", 0), ("svd", "1.0000001", 0), ("qr", "1.0000001", 3)],
    )
    def test_ends_in_bounded_time(self, tmp_path, capsys, method, radius, code):
        path = tmp_path / "near.cfg"
        path.write_text(
            CONFIG.replace("radius = 2", f"radius = {radius}")
            .replace("methods = direct,svd\nN = 6,8", f"methods = {method}\nN = 8")
        )
        start = time.perf_counter()
        rc = main(["solve", "--config", str(path)])
        assert time.perf_counter() - start < 2.0
        assert rc == code
        out, err = capsys.readouterr()
        if code == 0:
            assert out.splitlines()[1].startswith("svd,8,16,7,")
        else:
            assert err.startswith("numerical failure: 10001 x ")
