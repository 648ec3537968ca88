import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).parent.parent / "scripts" / "sweep_outputs.py"
spec = importlib.util.spec_from_file_location("sweep_outputs", SCRIPT)
sweep_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sweep_outputs)

HEADER = "method,N,linf_error\n"


def write(root, name, text):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_identical_outputs_compare_clean(tmp_path, capsys):
    for side in ("a", "b"):
        write(tmp_path / side, "configs/x.csv", HEADER + "svd,10,1e-12\n")
    assert sweep_outputs.main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == "1 of 1 files byte-identical\n"


def test_differences_are_reported_per_method_and_column(tmp_path, capsys):
    write(tmp_path / "a", "configs/x.csv", HEADER + "qr,10,0.5\nsvd,10,2.0\nsvd,20,4.0\n")
    write(tmp_path / "b", "configs/x.csv", HEADER + "qr,10,0.5\nsvd,10,2.5\nsvd,20,4.0\n")
    write(tmp_path / "a", "configs/x.stderr", "warning\n")
    write(tmp_path / "b", "configs/x.stderr", "other\n")
    write(tmp_path / "a", "basis/only.csv", "t,phi1\n0.0,1.0\n")
    assert sweep_outputs.main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0 of 3 files byte-identical"
    assert lines[1].startswith("basis/only.csv: only in ")
    assert lines[2:] == [
        "configs/x.csv\tsvd\tlinf_error\tmax_abs=0.5\tmax_rel=0.25\tmax_abs/col_max=0.125",
        "configs/x.stderr: differs (not a table)",
    ]
