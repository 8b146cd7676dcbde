import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gluecount
from gluecount import cli, solver
from gluecount.background import DegenerateFieldError
from gluecount.solver import NearDegenerateError
from gluecount.cli import (
    CSV_COLUMNS,
    ExperimentSpec,
    lemma_suite,
    main,
    plots_from_csv,
    run,
)


def small_spec(out_dir, **overrides):
    base = dict(
        seeds=(1, 2),
        L_values=(0.2, 0.1),
        oracle=False,
        plots=True,
        out_dir=out_dir,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def strip_wall_ms(csv_text: str) -> str:
    # wall clock is the one legitimately nondeterministic column
    lines = csv_text.strip().splitlines()
    idx = lines[0].split(",").index("wall_ms")
    return "\n".join(",".join(c for k, c in enumerate(line.split(",")) if k != idx) for line in lines)


def test_run_produces_expected_artifacts(tmp_path):
    report = run(small_spec(tmp_path / "out"))
    assert report.csv_path.exists()
    assert not report.anomalies
    lines = report.csv_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 4
    for seed in (1, 2):
        for L in ("0.2", "0.1"):
            doc = json.loads((tmp_path / "out" / f"solutions_seed{seed}_L{L}.json").read_text())
            assert len(doc["records"]) == 6
            assert doc["field"]["seed"] == seed
            assert "orientation_convention" in doc
    for name in ("count_vs_L.svg", "lambda_over_L2.svg", "signs.svg"):
        assert (tmp_path / "out" / name).exists()


def test_run_deterministic_modulo_wall_clock(tmp_path):
    r1 = run(small_spec(tmp_path / "a"))
    r2 = run(small_spec(tmp_path / "b"))
    c1 = strip_wall_ms(r1.csv_path.read_text())
    c2 = strip_wall_ms(r2.csv_path.read_text())
    assert c1 == c2
    for seed in (1, 2):
        for L in ("0.2", "0.1"):
            name = f"solutions_seed{seed}_L{L}.json"
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_plots_regenerate_bit_identically(tmp_path):
    report = run(small_spec(tmp_path / "out"))
    first = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.svg")}
    plots_from_csv(report.csv_path, tmp_path / "out")
    second = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.svg")}
    assert first == second


def test_rows_contain_expected_pattern(tmp_path):
    report = run(small_spec(tmp_path / "out"))
    for row in report.rows:
        assert row["count"] == 6
        assert (row["c11"], row["c12"], row["c21"], row["c22"]) == (1, 2, 2, 1)
        assert row["signs_ok"] == 1
        assert row["oracle_ok"] == "na"
        assert 0 < row["min_lambda_over_L2"] <= row["max_lambda_over_L2"]


def test_exit_code_zero(tmp_path):
    code = main(["run", "--seeds", "1", "--L", "0.1", "--out", str(tmp_path / "ok"), "--no-plots"])
    assert code == 0


def test_exit_code_count_anomaly(tmp_path, capsys):
    # strangling the cutoff leaves no admissible solutions: exit code 2
    code = main(
        ["run", "--seeds", "1", "--L", "0.1", "--K", "1e-4", "--out", str(tmp_path / "bad"), "--no-plots"]
    )
    assert code == 2
    assert (tmp_path / "bad" / "diagnostics.txt").exists()


def test_oracle_flag_recorded(tmp_path):
    spec = small_spec(tmp_path / "out", seeds=(1,), L_values=(0.1,), oracle=True, oracle_starts=3000)
    report = run(spec)
    assert report.rows[0]["oracle_ok"] == "1"
    assert not report.anomalies


def test_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentSpec(seeds=(), out_dir=tmp_path)
    with pytest.raises(ValueError):
        ExperimentSpec(L_values=(0.1, 0.2), out_dir=tmp_path)


def test_lemma_suite_small(capsys):
    results = lemma_suite(n=40, seed=3, oracle_starts=250)
    assert all(results.values())
    out = capsys.readouterr().out
    assert out.count("PASS") == 5


def test_exit_code_error_cell(tmp_path, monkeypatch):
    # a cell whose signs the solver refuses (NearDegenerateError from the
    # signing batch) gets a nan row, one diagnostics line and exit code 5
    def refuse(field_values, cfg, records, step=1e-5):
        raise NearDegenerateError("sign margin 3 not above 10")

    monkeypatch.setattr(solver, "_signed_records", refuse)
    out = tmp_path / "err"
    code = main(["run", "--seeds", "198801500", "--L", "0.05", "--out", str(out)])
    assert code == 5
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["seed"] == "198801500" and row["count"] == "nan" and row["signs_ok"] == "nan"
    diag = (out / "diagnostics.txt").read_text().splitlines()
    assert len(diag) == 1
    assert diag[0].startswith("error at seed=198801500 L=0.05") and "NearDegenerateError" in diag[0]


def test_formerly_refused_cell_is_signed_count_anomaly(tmp_path):
    # the far (1,1) and (2,2) roots of this field sit inside the cutoff at
    # L = 0.05: eight solutions, all signed +1, so a count anomaly (exit 2)
    out = tmp_path / "eight"
    code = main(["run", "--seeds", "198801500", "--L", "0.05", "--out", str(out), "--no-plots"])
    assert code == 2
    doc = json.loads((out / "solutions_seed198801500_L0.05.json").read_text())
    assert len(doc["records"]) == 8 and {r["sign"] for r in doc["records"]} == {1}
    assert (out / "diagnostics.txt").read_text().startswith("count anomaly at seed=198801500 L=0.05")


def test_import_leaves_cli_unloaded():
    code = (
        "import sys, gluecount; assert 'gluecount.cli' not in sys.modules; "
        "from gluecount import run; assert 'gluecount.cli' in sys.modules and run is gluecount.cli.run"
    )
    src = str(Path(gluecount.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_degenerate_field_keeps_sweep_going(tmp_path, monkeypatch):
    make_background = cli.make_background

    def refuse_seed_2(seed, **kwargs):
        if seed == 2:
            raise DegenerateFieldError("no generic field")
        return make_background(seed, **kwargs)

    monkeypatch.setattr(cli, "make_background", refuse_seed_2)
    report = run(small_spec(tmp_path / "out", L_values=(0.1,)))
    assert [row["count"] for row in report.rows][0] == 6
    assert report.error_anomaly and not report.count_anomaly
    assert report.anomalies == ("error at seed=2 L=0.10000000000000001: DegenerateFieldError: no generic field",)
    assert report.csv_path.read_text().splitlines()[2].startswith("2,0.10000000000000001,1,nan,")
