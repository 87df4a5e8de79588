"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import pytest  # noqa: E402

import checker  # noqa: E402
import hostinfo  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Command  # noqa: E402

from dephrasure import cli  # noqa: E402


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.LAYER_METRICS


def test_self_time_from_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]; a second
    # call of a [11, 12] is a root of its own
    names = ["root", "a", "b", "c", "a"]
    starts = [0.0, 1.0, 5.0, 6.0, 11.0]
    ends = [10.0, 4.0, 9.0, 8.0, 12.0]
    parents = [-1, 0, 0, 2, -1]
    totals = tracer.span_totals(names, starts, ends, parents)
    assert totals["root"] == (1, 10.0, 3.0)
    assert totals["a"] == (2, 4.0, 4.0)
    assert totals["b"] == (1, 4.0, 2.0)
    assert totals["c"] == (1, 2.0, 2.0)


def _bindings():
    found = {}
    for name in tracer.PACKAGE_MODULES:
        mod = importlib.import_module(name)
        for key, value in vars(mod).items():
            if callable(value):
                found[(name, key)] = value
    found[("verify", "SUITES")] = dict(importlib.import_module("dephrasure.verify").SUITES)
    return found


def _run_cli(argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["dephrasure", *argv])
    assert cli.main(argv) == 0
    return Path(argv[-1]).read_bytes()


def test_wrappers_cover_every_binding_restore_them_and_keep_cli_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--quantity", "repetition_rate(2)", "--p-range", "0:0.5:3",
            "--q-range", "0.1:0.3:2", "--out", "out.csv"]
    before = _bindings()
    plain = _run_cli(argv, monkeypatch)

    t = tracer.Tracer()
    with t:
        entropy = importlib.import_module("dephrasure.qinfo").binary_entropy
        for mod in ("dephrasure.channel", "dephrasure.codes", "dephrasure.compci",
                    "dephrasure.private_info", "dephrasure"):
            assert importlib.import_module(mod).binary_entropy is entropy
        assert entropy is not before[("dephrasure.qinfo", "binary_entropy")]
        traced = _run_cli(argv, monkeypatch)

    assert traced == plain
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before if k != ("verify", "SUITES"))
    assert all(after[("verify", "SUITES")][s] is f
               for s, f in before[("verify", "SUITES")].items())
    totals = t.totals()
    assert totals["cli.main"][0] == 1
    assert totals["codes.repetition_ci_opt"][0] == 6
    assert totals["qinfo.binary_entropy"][0] > 0


def _single_ci_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--quantity", "single_ci", "--p-range", "0.1:0.2:2",
            "--q-range", "0.1:0.2:2", "--out", "single.csv"]
    return _run_cli(argv, monkeypatch).decode().splitlines()


SINGLE_CI = Command("single_ci", (), "csv", {"quantity": "single_ci"})


def test_checker_passes_real_output(tmp_path, monkeypatch):
    lines = _single_ci_csv(tmp_path, monkeypatch)
    verdict = checker.check_command(SINGLE_CI, 0, 0, None, "\n".join(lines).encode())
    assert verdict.error is None
    assert verdict.rows == verdict.rows_ok == 4


def test_checker_flags_planted_inf_row(tmp_path, monkeypatch):
    lines = _single_ci_csv(tmp_path, monkeypatch)
    p, q, _ = lines[3].split(",")
    lines[3] = f"{p},{q},inf"
    verdict = checker.check_command(SINGLE_CI, 0, 0, None, "\n".join(lines).encode())
    assert verdict.error == "nonfinite"
    assert verdict.rows_ok == 3
    assert not verdict.known_defect


def test_checker_flags_planted_route_mismatch(tmp_path, monkeypatch):
    lines = _single_ci_csv(tmp_path, monkeypatch)
    p, q, value = lines[2].split(",")
    lines[2] = f"{p},{q},{float(value) - 1e-6:.12g}"  # still inside the bounds
    verdict = checker.check_command(SINGLE_CI, 0, 0, None, "\n".join(lines).encode())
    assert verdict.error == "route_mismatch"
    assert verdict.rows_ok == 3


def test_checker_flags_planted_optimize_mismatch(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["optimize", "--p", "0.11", "--q", "0.33", "--n", "1", "--particles", "8",
            "--iterations", "5", "--out", "opt.json"]
    payload = json.loads(_run_cli(argv, monkeypatch))
    command = Command("optimize", (), "json", {"quantity": "optimize", "n": 1})
    good = checker.check_command(command, 0, 0, None, json.dumps(payload).encode())
    assert good.error is None
    payload["value"] += 1e-6
    payload["rate_per_letter"] = payload["value"]
    bad = checker.check_command(command, 0, 0, None, json.dumps(payload).encode())
    assert bad.error == "route_mismatch"


def test_every_search_point_has_a_baseline_rate():
    pa = workloads.CHI3_P
    for pb in workloads.PB_POINTS:
        keys = [checker.rate_key("chi3", 3, pa, 3 * pa),
                checker.rate_key("optimize", 2, pb, 3 * pb)]
        keys += [checker.rate_key("zdiag_rate", 2, p, 3 * q) for p in (pa, pb) for q in (pa, pb)]
        assert all(key in checker.BASELINE_RATES for key in keys)


DIAGONAL = Command("diagonal", (), "csv", {"quantity": "diagonal"})


@pytest.mark.parametrize("chi3, error", [
    ("0.0104194389362", None),  # the baseline
    ("0.0104", "below_baseline"),  # a worse code
    ("0.004", "below_baseline,below_repetition"),  # worse than rep3 (0.00498)
])
def test_checker_holds_chi3_to_its_baseline_and_to_rep3(chi3, error):
    data = b"# dephrasure 0.1.0 | x | seed=0\np,q,rep3,chi3\n" \
           b"0.11,0.33,0.00498110892968," + chi3.encode() + b"\n"
    verdict = checker.check_command(DIAGONAL, 0, 0, None, data)
    assert verdict.error == error
    assert verdict.baseline_rate == pytest.approx(0.0104194389362, abs=1e-13)


@pytest.mark.parametrize("row", ["[0, 0, 0, Infinity, -Infinity]", "[0, 0, 0, NaN, 0]"])
def test_checker_rejects_non_strict_json(row):
    text = '{"columns": ["p", "q", "a", "r", "c"], "rows": [%s]}' % row
    command = Command("antideg_json", (), "json", {"quantity": "antideg"})
    verdict = checker.check_command(command, 0, 0, None, text.encode())
    assert verdict.error == "nonstrict_json"
    assert verdict.known_defect


def test_checker_counts_antideg_inf_at_q0_as_known_defect():
    data = b"# dephrasure 0.1.0 | x | seed=0\np,q,antidegradable,residual,cp_min_eig\n" \
           b"0.1,0,0,inf,-inf\n0.1,0.5,1,1e-17,0\n"
    command = Command("antideg", (), "csv", {"quantity": "antideg"})
    verdict = checker.check_command(command, 0, 0, None, data)
    assert verdict.error == "nonfinite_q0"
    assert verdict.known_defect
    assert verdict.rows_ok == 1


def test_nominal_time_integrates_a_change_of_host_speed():
    sampler = hostinfo.SpeedSampler()
    nominal = hostinfo.NOMINAL_KERNEL_S
    # the kernel takes twice as long from t = 5 on
    sampler.samples = [(float(t), nominal * (1 if t < 5 else 2)) for t in range(11)]
    slow = 0.5 ** hostinfo.SENSITIVITY
    assert sampler.nominal_s(2.0, 7.0) == pytest.approx(2.5 + 2.5 * slow)
    # past the last sample, the last speed holds
    assert sampler.nominal_s(20.0, 21.0) == pytest.approx(slow)


def test_nominal_time_ignores_one_preempted_sample():
    sampler = hostinfo.SpeedSampler()
    nominal = hostinfo.NOMINAL_KERNEL_S
    sampler.samples = [(float(t), nominal * (500 if t == 2 else 1)) for t in range(11)]
    assert sampler.nominal_s(0.0, 10.0) == pytest.approx(10.0)
