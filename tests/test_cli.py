import csv
import json

import pytest

from dephrasure.cli import main


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# dephrasure")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


def test_regions_csv(tmp_path):
    out = tmp_path / "regions.csv"
    rc = main(["regions", "--p-range", "0:0.5:6", "--out", str(out)])
    assert rc == 0
    provenance, header, rows = _read_csv(out)
    assert header == ["p", "g", "j", "k"]
    assert len(rows) == 6
    assert float(rows[0][1]) == pytest.approx(0.5)
    # g(0.25) = 0.2 at the p = 0.25 row
    assert float(rows[2][0]) == pytest.approx(0.2)
    assert "seed=0" in provenance


def test_sweep_single_ci_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--quantity", "single_ci",
        "--p-range", "0.1:0.2:2", "--q-range", "0.1:0.3:3",
        "--out", str(out),
    ])
    assert rc == 0
    _, header, rows = _read_csv(out)
    assert header == ["p", "q", "value"]
    assert len(rows) == 6
    # p-major ordering
    assert [float(r[0]) for r in rows] == [0.1, 0.1, 0.1, 0.2, 0.2, 0.2]
    assert float(rows[0][2]) == pytest.approx(0.3779039657696469, abs=1e-9)


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    rc = main([
        "sweep", "--quantity", "repetition_rate(2)",
        "--p-range", "0.1:0.1:2", "--q-range", "0.2:0.3:2",
        "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["p", "q", "value"]
    assert payload["provenance"]["seed"] == 0
    assert len(payload["rows"]) == 4


def test_sweep_quantity_with_n_suffix(tmp_path):
    out = tmp_path / "gap.csv"
    rc = main([
        "sweep", "--quantity", "repetition_gap(3)",
        "--p-range", "0.1:0.1:2", "--q-range", "0.3:0.3:2",
        "--out", str(out),
    ])
    assert rc == 0
    _, header, rows = _read_csv(out)
    assert len(rows) == 4


def test_diagonal_csv(tmp_path):
    out = tmp_path / "diag.csv"
    rc = main([
        "diagonal", "--p-range", "0.1:0.12:3", "--diagonal-slope", "3",
        "--codes", "single_ci,rep2", "--out", str(out),
    ])
    assert rc == 0
    _, header, rows = _read_csv(out)
    assert header == ["p", "q", "single_ci", "rep2"]
    for row in rows:
        assert float(row[1]) == pytest.approx(3 * float(row[0]), abs=1e-12)


def test_verify_subcommand(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "thresholds", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True


def test_optimize_subcommand(tmp_path):
    out = tmp_path / "opt.json"
    rc = main([
        "optimize", "--p", "0.11", "--q", "0.33", "--n", "2",
        "--iterations", "40", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["value"] > 0.0
    assert len(payload["amplitudes_real"]) == 16


def test_bad_quantity_exit_code():
    assert main(["sweep", "--quantity", "nope"]) == 2


def test_bad_range_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--quantity", "single_ci", "--p-range", "0:2:5"])
    assert err.value.code == 2


def test_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "sweep", "--quantity", "private_lb",
        "--p-range", "0.08:0.12:3", "--q-range", "0.24:0.36:3",
    ]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    # provenance lines differ only by flag text (identical here)
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize(
    "extra",
    [
        ["--codes", "rep2,foo"],
        ["--codes", "rep2", "--diagonal-slope", "0"],
        ["--codes", "rep2", "--diagonal-slope", "-1"],
    ],
)
def test_diagonal_bad_arguments_fail_before_work(tmp_path, capsys, monkeypatch, extra):
    def no_work(*args, **kwargs):
        raise AssertionError("a column was computed before validation")

    monkeypatch.setattr("dephrasure.codes.repetition_ci_opt", no_work)
    out = tmp_path / "diag.csv"
    rc = main(["diagonal", "--p-range", "0.1:0.12:3", *extra, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not out.exists()
