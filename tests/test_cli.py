import argparse
import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dephrasure
from dephrasure import antideg, channel, cli, codes, compci, private_info, verify
from dephrasure.cli import main
from dephrasure.codes import CodeState, brute_force_ci, normalized_code


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


def test_verify_thresholds_takes_tol(tmp_path):
    # no repetition value above g(p) is at most -1
    out = tmp_path / "verify.json"
    assert main(["verify", "thresholds", "--tol", "-1", "--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["repetition_zero_above_g"]


@pytest.mark.parametrize(
    "tol", [["--tol", "nan"], ["--tol", "inf"], ["--tol=-inf"]], ids=["nan", "inf", "-inf"]
)
def test_verify_rejects_a_nan_tolerance(tmp_path, capsys, monkeypatch, tol):
    # NaN fails every comparison, so each check would read as failed; an
    # infinite tolerance would pass, or fail, every check
    def no_work(*args, **kwargs):
        raise AssertionError("a suite ran before validation")

    monkeypatch.setitem(verify.SUITES, "thresholds", no_work)
    out = tmp_path / "verify.json"
    assert main(["verify", "thresholds", *tol, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_verify_private_fails_when_the_closed_form_drifts(tmp_path, monkeypatch):
    out = tmp_path / "verify.json"
    assert main(["verify", "private", "--out", str(out)]) == 0
    entropies = private_info._plusminus_entropies

    def drifted(p, lam):
        kept, erased = entropies(p, lam)
        return kept + 1e-9, erased

    # the printed value is (1-q) kept - q erased; the Holevo route reads neither
    monkeypatch.setattr(private_info, "_plusminus_entropies", drifted)
    assert main(["verify", "private", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["passed"] is False


def test_optimize_subcommand(tmp_path):
    out = tmp_path / "opt.json"
    rc = main([
        "optimize", "--p", "0.11", "--q", "0.33", "--n", "2",
        "--iterations", "40", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["search"] == {"n_starts": 2, "max_iterations": 40, "seed": 0}
    assert payload["value"] > 0.0
    assert len(payload["amplitudes_real"]) == 16
    # the written code has the written value
    amps = np.array(payload["amplitudes_real"]) + 1j * np.array(payload["amplitudes_imag"])
    assert brute_force_ci(normalized_code(2, 4, amps), 0.11, 0.33) == pytest.approx(
        payload["value"], abs=1e-12
    )


def test_optimize_particles_spells_starts(tmp_path):
    payloads = []
    for flag in ("--starts", "--particles"):
        out = tmp_path / f"{flag[2:]}.json"
        assert main(["optimize", "--p", "0.11", "--q", "0.33", "--n", "1",
                     flag, "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        del payload["provenance"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert payloads[0]["search"]["n_starts"] == 3


@pytest.mark.parametrize("flags, message", [
    (("--starts", "-1"), "n_starts = -1 must be >= 0"),
    (("--iterations", "0"), "max_iterations = 0 must be >= 1"),
])
def test_optimize_bad_search_budget_is_a_one_line_error(tmp_path, capsys, flags, message):
    out = tmp_path / "opt.json"
    assert main(["optimize", "--p", "0.11", "--q", "0.33", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # a sweep that reads no seed, one that does, and a search
    ("sweep", "--quantity", "single_ci", "--p-range", "0.1:0.2:2", "--q-range", "0.1:0.2:2"),
    ("sweep", "--quantity", "zdiag_rate(2)", "--p-range", "0.1:0.2:2", "--q-range", "0.1:0.2:2"),
    ("optimize", "--p", "0.1", "--q", "0.3"),
])
def test_a_negative_seed_exits_2_at_parse_time(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([*argv, "--seed", "-1", "--out", str(out)])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: argument --seed: seed = -1 must be >= 0")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # every point antidegradable: no search runs, and n is still checked
    ("sweep", "--quantity", "zdiag_rate(0)", "--p-range", "0.4:0.5:2", "--q-range", "0.45:0.5:2"),
    # no point antidegradable: n is checked before any search starts
    ("sweep", "--quantity", "zdiag_rate(0)", "--p-range", "0.1:0.2:2", "--q-range", "0.1:0.2:2"),
    ("optimize", "--p", "0.1", "--q", "0.45", "--n", "-1"),
])
def test_search_with_n_below_one_is_a_one_line_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: n must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # n is spelled name(n) alone: --n on a sweep is no flag
    ("sweep", "--quantity", "zdiag_rate(1)", "--n", "3"),
    # only sweep reads a q-range
    ("diagonal", "--q-range", "0:0.5:3"),
    ("regions", "--q-range", "0:0.5:3"),
])
def test_flag_a_command_does_not_read_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as err:
        main([*argv, "--p-range", "0.1:0.2:2", "--out", str(out)])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_bad_quantity_exit_code():
    assert main(["sweep", "--quantity", "nope"]) == 2


def test_sweep_help_names_every_quantity_and_comp_witness_q(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--help"])
    assert err.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, quantity in cli._QUANTITIES.items():
        assert (name + "(n)" if quantity.takes_n else name) in text
    assert "comp_witness needs q > 0" in text
    # which the default q-range, from q = 0, breaks
    out = tmp_path / "witness.csv"
    argv = ["sweep", "--quantity", "comp_witness", "--p-range", "0.1:0.2:2", "--out", str(out)]
    assert main(argv) == 2
    assert main(argv + ["--q-range", "0.1:0.2:2"]) == 0


def test_bad_range_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--quantity", "single_ci", "--p-range", "0:2:5"])
    assert err.value.code == 2


@pytest.mark.parametrize("text", ["0:0.5:2.5", "a:0.5:3", "0:0.5:1e3", "0:0.5", "0:0.5:3:4"])
def test_a_range_that_does_not_convert_names_its_grammar(capsys, text):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--quantity", "single_ci", "--p-range", text])
    assert err.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith(f"argument --p-range: range {text!r} is not lo:hi:steps")


@pytest.mark.parametrize("argv", [
    ["diagonal", "--codes", "rep2\n", "--out", "out.csv"],
    ["sweep", "--quantity", "single_ci", "--out", "x\ny.csv"],
    ["sweep", "--quantity", "single_ci\n", "--out", "out.csv"],
    ["regions", "--p-range", "0:0.5:3\r", "--out", "out.csv"],
], ids=["codes", "out", "quantity", "p-range"])
def test_an_argument_holding_a_line_break_exits_2_before_work(tmp_path, capsys, monkeypatch,
                                                              argv):
    # the CSV provenance comment would break over two lines
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    bad = next(arg for arg in argv if arg.splitlines() != [arg])
    assert capsys.readouterr().err == f"error: argument {bad!r} holds a line break\n"
    assert list(tmp_path.iterdir()) == []


def test_deterministic_output(tmp_path, monkeypatch):
    args = [
        "sweep", "--quantity", "private_lb",
        "--p-range", "0.08:0.12:3", "--q-range", "0.24:0.36:3",
        "--out", "out.csv",
    ]
    # the same flags, --out included, in two directories
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        main(args)
    a, b = ((tmp_path / run / "out.csv").read_text() for run in ("a", "b"))
    assert a == b


@pytest.mark.parametrize(
    "extra",
    [
        ["--codes", "rep2,foo"],
        ["--codes", "rep2", "--diagonal-slope", "0"],
        ["--codes", "rep2", "--diagonal-slope", "-1"],
        ["--codes", "rep2", "--diagonal-slope", "inf"],
        ["--codes", ""],
        ["--codes", ","],
        ["--codes", "rep0"],
        ["--codes", "rep"],
        ["--codes", "theta"],
        ["--codes", "rep02"],
        ["--codes", "rep2,chi33"],
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


def test_diagonal_keeps_only_the_points_the_library_accepts(capsys):
    # q = 0.5000000000001666 at the second point lies above 1/2 by more
    # than the library's 1e-15, so the point is skipped, not an error
    argv = ["diagonal", "--codes", "single_ci", "--diagonal-slope", "3.000000000001",
            "--p-range", "0.1:0.16666666666666666:2"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "p,q,single_ci"
    assert [line.split(",")[0] for line in lines[2:]] == ["0.1"]


def test_diagonal_theta4_column(tmp_path):
    # the second point has q = 1.5 > 1/2 and is skipped: one theta4 search
    out = tmp_path / "diag.csv"
    rc = main([
        "diagonal", "--p-range", "0.11:0.5:2", "--codes", "rep4,theta4",
        "--out", str(out),
    ])
    assert rc == 0
    _, header, rows = _read_csv(out)
    assert header == ["p", "q", "rep4", "theta4"]
    assert len(rows) == 1
    rep4, theta4 = float(rows[0][2]), float(rows[0][3])
    assert rep4 < theta4 == pytest.approx(0.01253, abs=1e-5)


def test_diagonal_theta_above_the_library_limit_exits_as_sweep_does(tmp_path, capsys):
    out = tmp_path / "diag.csv"
    assert main(["sweep", "--quantity", "zdiag_rate(7)", "--p-range", "0.11:0.5:2",
                 "--q-range", "0.33:0.45:2", "--out", str(out)]) == 2
    sweep_err = capsys.readouterr().err
    assert main(["diagonal", "--p-range", "0.11:0.5:2", "--codes", "theta7",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == sweep_err and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# a registry spelling, or one near it, then a suffix that may be a
# decimal n, a leading zero, a non-ASCII digit or a stray character
@settings(max_examples=500)
@given(st.one_of(
    st.text(max_size=8),
    st.tuples(
        st.sampled_from(["", "rep", "theta", "chi3", "single_ci", "private_lb", "thet"]),
        st.text(alphabet="019\u0663x(\n", max_size=3),
    ).map("".join),
))
def test_codes_parse_to_a_registry_spelling_or_a_one_line_error(token):
    try:
        name, n = cli._parse_code(token)
    except ValueError as exc:
        message = str(exc)
        assert len(message.splitlines()) == 1
        assert all(q.code in message for q in cli._QUANTITIES.values() if q.code)
        return
    quantity = cli._QUANTITIES[name]
    assert quantity.takes_n == (n is not None)
    assert n is None or n >= 1
    assert quantity.code + ("" if n is None else str(n)) == token


@pytest.mark.parametrize("quantity", ["zdiag_rate(2)", "zdiag_rate(3)", "chi3_rate"])
def test_search_rows_lie_under_the_degradable_bounds(tmp_path, quantity):
    # the channel is erasure o dephasing and dephasing o erasure, both
    # degradable, so no code beats either factor's capacity; where q >=
    # k(p) it is antidegradable and no code is positive.  The 6x6 grid
    # holds q = 0, p = 1/2, q = 1/2 and antidegradable points
    from dephrasure.qinfo import binary_entropy

    out = tmp_path / "rows.csv"
    assert main(["sweep", "--quantity", quantity, "--p-range", "0:0.5:6",
                 "--q-range", "0:0.5:6", "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["p", "q", "value"] and len(rows) == 36
    grid = np.linspace(0.0, 0.5, 6)
    p, q = np.repeat(grid, 6), np.tile(grid, 6)
    rates = np.array([float(row[2]) for row in rows])
    upper = np.minimum(np.maximum(0.0, 1 - 2 * q), 1 - binary_entropy(p)) + 1e-12
    assert (rates <= upper).all()
    if quantity.startswith("zdiag_rate"):
        antidegradable = q >= channel.region_k(p)
        assert antidegradable.sum() == 17
        assert (rates[antidegradable] == 0.0).all()


@pytest.mark.parametrize("quantity, steps", [
    ("single_ci", 11), ("repetition_rate(2)", 11), ("zdiag_rate(2)", 9),
    ("zdiag_rate(3)", 7), ("chi3_rate", 7),
])
def test_printed_rates_are_monotone_under_degradation(tmp_path, quantity, steps):
    # for p <= p' <= 1/2 and q <= q' <= 1/2 the channel at (p', q') is the
    # one at (p, q) followed by more dephasing and more erasure, so by
    # data processing no code gains there: every printed rate is
    # non-increasing in p and in q.  A rise flags a search that missed a
    # basin; the searches' rounding noise has risen by at most 5.8e-15
    out = tmp_path / "rows.csv"
    grid = f"0:0.5:{steps}"
    assert main(["sweep", "--quantity", quantity, "--p-range", grid, "--q-range", grid,
                 "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["p", "q", "value"] and len(rows) == steps**2
    rates = np.array([float(row[2]) for row in rows]).reshape(steps, steps)  # p-major
    assert np.diff(rates, axis=0).max() <= 1e-12
    assert np.diff(rates, axis=1).max() <= 1e-12


def test_optimize_writes_the_schmidt_form(tmp_path, monkeypatch):
    # two codes that differ by a unitary on the reference are written alike
    rng = np.random.default_rng(47)
    code = normalized_code(2, 4, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    unitary = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    rotated = CodeState(2, 4, (unitary @ code.amplitudes.reshape(4, 4)).reshape(-1))
    value = brute_force_ci(code, 0.11, 0.33)
    written = []
    for found in (code, rotated):
        monkeypatch.setattr(codes, "optimize_code_ci", lambda *a, found=found, **k: (value, found))
        out = tmp_path / "opt.json"
        assert main(["optimize", "--p", "0.11", "--q", "0.33", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        written.append(np.array(payload["amplitudes_real"]) + 1j * np.array(payload["amplitudes_imag"]))
    assert np.abs(written[0] - written[1]).max() <= 1e-12
    assert brute_force_ci(normalized_code(2, 4, written[0]), 0.11, 0.33) == pytest.approx(
        value, abs=1e-12
    )


def test_optimize_chi3_writes_a_3_use_code_of_its_value(tmp_path):
    out = tmp_path / "opt.json"
    argv = ["optimize", "--p", "0.1149", "--q", "0.3447", "--n", "3",
            "--parametrization", "chi3", "--out", str(out)]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    amplitudes = np.array(payload["amplitudes_real"]) + 1j * np.array(payload["amplitudes_imag"])
    assert amplitudes.shape == (32,)  # n = 3 uses, reference dimension 4
    assert payload["rate_per_letter"] == payload["value"] / 3
    code = normalized_code(3, 4, amplitudes)
    assert brute_force_ci(code, 0.1149, 0.3447) == pytest.approx(payload["value"], abs=1e-12)


def test_provenance_records_the_flags_main_was_given(tmp_path, monkeypatch):
    monkeypatch.setattr("sys.argv", ["x", "--verbose", "x"])
    out = tmp_path / "regions.csv"
    argv = ["regions", "--p-range", "0:0.5:2", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text().splitlines()[0] == (
        "# dephrasure 0.1.0 | " + " ".join(argv) + " | seed=0"
    )

    code = normalized_code(2, 4, np.eye(16)[0])
    monkeypatch.setattr(codes, "optimize_code_ci", lambda *a, **k: (0.0, code))
    out = tmp_path / "opt.json"
    argv = ["optimize", "--p", "0.11", "--q", "0.33", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["provenance"]["flags"] == " ".join(argv)


def test_provenance_falls_back_to_the_process_arguments(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["dephrasure", "regions", "--p-range", "0:0.5:2"])
    assert main() == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "# dephrasure 0.1.0 | regions --p-range 0:0.5:2 | seed=0"


@pytest.mark.parametrize(
    "quantity,message",
    [
        # the first bad point in p-major order, p checked before q
        ("single_ci", "q = 0.75 outside [0, 0.5]"),
        ("private_lb", "q = 0.75 outside [0, 0.5]"),
        ("separation", "q = 0.75 outside [0, 0.5]"),
        ("repetition_gap(2)", "q = 0.75 outside [0, 0.5]"),
        # repetition codes and antideg accept q up to 1
        ("repetition_rate(3)", "p = 0.75 outside [0, 0.5]"),
        ("antideg", "p = 0.75 outside [0, 0.5]"),
        ("regions", "p = 0.75 outside [0, 0.5]"),
        ("comp_witness", "q = 0.0 outside (0, 1/2]"),
        ("repetition_rate(0)", "n must be >= 1"),
        # an (n) on a quantity that takes none
        ("single_ci(3)", "quantity 'single_ci' takes no (n)"),
        ("chi3_rate(5)", "quantity 'chi3_rate' takes no (n)"),
        ("regions(2)", "quantity 'regions' takes no (n)"),
        # n is ASCII decimal with no leading zero
        ("repetition_rate(\u0663)", "unknown quantity 'repetition_rate(\u0663)'"),
        ("repetition_rate(03)", "unknown quantity 'repetition_rate(03)'"),
    ],
)
def test_out_of_domain_sweep_point_is_a_one_line_error(tmp_path, capsys, quantity, message):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--quantity", *quantity.split(),
        "--p-range", "0:1:5", "--q-range", "0:1:5", "--out", str(out),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_comp_witness_checks_every_point_before_evaluating(tmp_path, capsys):
    # (0.001, 0.001) underflows, but p = 0.6 is out of the domain
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--quantity", "comp_witness", "--p-range", "0.001:0.6:3",
               "--q-range", "0.001:0.5:3", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: p = 0.6 outside [0, 0.5]\n"
    assert not out.exists()


def test_antideg_sweep_gives_subnormal_q_the_q0_row(tmp_path):
    # at q = 1e-310 the USD map's x = 1 - (1-q)(1-2p)/q overflows; there,
    # as at q = 0, x = 1 and the residual is the inconclusive mass 1 - 2p
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--quantity", "antideg", "--p-range", "0.1:0.2:2",
               "--q-range", "0:1e-310:2", "--out", str(out)])
    assert rc == 0
    rows = [row.split(",") for row in out.read_text().splitlines()[2:]]
    assert [row[:4] for row in rows] == [
        [p, q, "0", residual] for p, residual in (("0.1", "0.8"), ("0.2", "0.6"))
        for q in ("0", "1e-310")
    ]
    assert all(abs(float(row[4])) <= 1e-15 for row in rows)


def test_antideg_sweep_accepts_q_up_to_one(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--quantity", "antideg", "--p-range", "0:0.5:3",
               "--q-range", "0:1:5", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()[1:]))
    assert rows[0] == ["p", "q", "antidegradable", "residual", "cp_min_eig"]
    assert [float(row[1]) for row in rows[1:]] == [0.0, 0.25, 0.5, 0.75, 1.0] * 3
    # q >= 1/2 is antidegradable at every p
    assert [row[2] for row in rows[1:] if float(row[1]) >= 0.5] == ["1"] * 9


def test_build_parser_returns_one_parser():
    parser = cli.build_parser()
    assert isinstance(parser, argparse.ArgumentParser)
    assert cli.build_parser() is parser


def test_ranges_are_read_only():
    args = cli.build_parser().parse_args(["sweep", "--quantity", "single_ci"])
    for values in (args.p_range, args.q_range, cli._parse_range("0:1:3")):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.25
    assert args.p_range[0] == 0.0


def _run_main(argv, capsys):
    """(exit code, stdout, stderr, --out file text or None) of main(argv)."""
    out = pathlib.Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out is not None:
        out.unlink(missing_ok=True)
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    text = out.read_text() if out is not None and out.exists() else None
    return rc, captured.out, captured.err, text


def test_main_calls_on_one_parser_write_what_fresh_parsers_write(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "out")
    calls = [
        ["sweep", "--quantity", "single_ci", "--p-range", "0.1:0.2:3", "--q-range", "0.1:0.3:3",
         "--out", out],
        # the default ranges: the whole q-range, the whole p-range
        ["sweep", "--quantity", "private_lb", "--p-range", "0.1:0.2:2", "--format", "json",
         "--out", out],
        ["regions", "--out", out],
        ["diagonal", "--codes", "single_ci,rep2", "--out", out],
        ["sweep", "--quantity", "single_ci", "--p-range", "0:2:5", "--out", out],  # argparse error
        ["sweep", "--help"],
        ["sweep", "--quantity", "single_ci", "--p-range", "0.1:0.2:3", "--q-range", "0.1:0.3:3",
         "--out", out],
    ]
    shared = [_run_main(argv, capsys) for argv in calls]
    assert [result[0] for result in shared] == [0, 0, 0, 0, 2, 0, 0]
    assert shared[-1] == shared[0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [_run_main(argv, capsys) for argv in calls] == shared


# The reference writers below format cell by cell, as _emit once did.
# _EDGE_CELLS are cells that _emit must spell as they do: signed zeros,
# infinities, NaN, the smallest subnormal, a tiny and the largest normal,
# and values that %.12g rounds up at the 12th digit, some into a new
# power of ten (which moves %.12g between its fixed and exponent forms)
_EDGE_CELLS = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.9999999999995, -0.9999999999995, 9.9999999999995e-05,
    999999999999.5, 9999999999999.5, 1.23456789012500001, 0.000123456789012345,
]


def _per_cell_csv(provenance, header, rows):
    lines = [
        "# dephrasure %s | %s | seed=%s"
        % (provenance["version"], provenance["flags"], provenance["seed"]),
        ",".join(header),
    ]
    lines += [",".join("%.12g" % v for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _per_cell_json(provenance, header, rows):
    payload = {
        "provenance": provenance,
        "columns": header,
        "rows": [[float("%.12g" % v) for v in row] for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(
    rows=hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 50), st.integers(1, 6)),
        elements=st.one_of(st.sampled_from(_EDGE_CELLS), st.floats()),
    ),
    flags=st.text(max_size=12),
    seed=st.integers(0, 2**31),
)
def test_writer_spells_every_cell_as_the_per_cell_formulas(rows, flags, seed):
    # 0 rows: the empty table of a diagonal whose every p lies past q = 1/2
    header = [f"c{j}" for j in range(rows.shape[1])]
    provenance = {"version": dephrasure.__version__, "flags": flags, "seed": seed}
    for fmt, reference in (("csv", _per_cell_csv), ("json", _per_cell_json)):
        args = argparse.Namespace(format=fmt, out=None, flags=flags, seed=seed)
        with contextlib.redirect_stdout(io.StringIO()) as written:
            assert cli._emit(args, header, rows) == 0
        assert written.getvalue() == reference(provenance, header, rows), fmt


def _antideg_columns(p, q):
    report = antideg.verify_antidegradable(p, q)
    return [float(report.antidegradable), report.composition_residual,
            report.cp_min_eigenvalue]


def _witness_columns(p, q):
    witness = compci.positivity_witness(p, q)
    return [witness.ci_value, witness.epsilon]


# sweep quantity -> its value columns at one point, straight from the library
_LIBRARY = {
    "single_ci": lambda p, q: [channel.single_letter_ci(p, q)[0]],
    "private_lb": lambda p, q: [private_info.private_lower_bound(p, q)[0]],
    "separation": lambda p, q: [
        private_info.private_lower_bound(p, q)[0] - channel.single_letter_ci(p, q)[0]
    ],
    "repetition_gap(3)": lambda p, q: [
        codes.repetition_ci_opt(p, q, 3)[0] / 3 - channel.single_letter_ci(p, q)[0]
    ],
    **{
        f"repetition_rate({n})": lambda p, q, n=n: [codes.repetition_ci_opt(p, q, n)[0] / n]
        for n in range(1, 11)
    },
    **{
        f"zdiag_rate({n})": lambda p, q, n=n: [codes.optimize_zdiag(p, q, n, seed=0)[0] / n]
        for n in (3, 4)
    },
    "chi3_rate": lambda p, q: [codes.optimize_chi3(p, q, seed=0)[0] / 3],
    "antideg": _antideg_columns,
    "comp_witness": _witness_columns,
    "regions": lambda p, q: list(channel.region_curves(p)),
}
# --codes alias -> the sweep quantity whose column it prints
_ALIASES = {
    "single_ci": "single_ci",
    "private_lb": "private_lb",
    **{f"rep{n}": f"repetition_rate({n})" for n in range(1, 11)},
    "theta3": "zdiag_rate(3)",
    "theta4": "zdiag_rate(4)",
    "chi3": "chi3_rate",
}
# (p-range, q-range).  A search costs up to 1 s a point, so the searches
# sweep one point, the diagonal's, where theta4 beats theta3 and q = 4p
# is exact in binary
_GRID = ("0.0859375:0.25:2", "0.125:0.34375:2")
_SEARCH_GRID = ("0.0859375:0.0859375:2", "0.34375:0.34375:2")
_SEARCHES = ("zdiag_rate(3)", "zdiag_rate(4)", "chi3_rate")


def _searched_once(search):
    """``search`` with each distinct call made once; a call's points are
    keyed by their values and shape, since arrays are unhashable."""
    results = {}

    def cached(p, q, *args, **kwargs):
        key = tuple((np.shape(v), np.asarray(v, dtype=float).tobytes()) for v in (p, q))
        key += (args, tuple(sorted(kwargs.items())))
        if key not in results:
            results[key] = search(p, q, *args, **kwargs)
        return results[key]

    return cached


def test_every_quantity_and_code_alias_prints_the_library_value(tmp_path, monkeypatch):
    # the searches are deterministic per seed: each call is made once, the
    # CLI's over all its points and the library's at one point
    for search in ("optimize_zdiag", "optimize_chi3"):
        monkeypatch.setattr(codes, search, _searched_once(getattr(codes, search)))
    assert {spec.split("(")[0] for spec in _LIBRARY} == set(cli._QUANTITIES)
    # each alias names its sweep quantity, and every code spelling has one
    parsed = {alias: cli._parse_code(alias) for alias in _ALIASES}
    assert parsed == {alias: cli._parse_quantity(spec) for alias, spec in _ALIASES.items()}
    assert {name for name, _ in parsed.values()} == {
        name for name, quantity in cli._QUANTITIES.items() if quantity.code
    }

    out = tmp_path / "out.csv"
    sweeps = {}
    for spec, library in _LIBRARY.items():
        ranges = _SEARCH_GRID if spec in _SEARCHES else _GRID
        assert main(["sweep", "--quantity", spec, "--p-range", ranges[0],
                     "--q-range", ranges[1], "--out", str(out)]) == 0
        P, Q = (np.linspace(*map(float, r.split(":")[:2]), 2) for r in ranges)
        if spec == "regions":  # a function of p alone
            expected = [[p, *library(p, None)] for p in P]
        else:
            expected = [[p, q, *library(p, q)] for p in P for q in Q]
        rows = out.read_text().splitlines()[2:]
        assert rows == [",".join("%.12g" % v for v in row) for row in expected], spec
        sweeps[spec] = {row.rsplit(",", 1)[0]: row.rsplit(",", 1)[1] for row in rows}

    assert main(["diagonal", "--p-range", "0.0859375:0.5:2", "--diagonal-slope", "4",
                 "--codes", ",".join(_ALIASES), "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()[1:]
    assert header == ",".join(["p", "q", *_ALIASES])
    p, q, *values = row.split(",")
    assert (p, q) == ("0.0859375", "0.34375")
    for alias, value in zip(_ALIASES, values, strict=True):
        assert value == sweeps[_ALIASES[alias]][f"{p},{q}"], alias


def _imports_scipy(code):
    """Whether ``code``, run in a fresh interpreter, leaves scipy imported."""
    src = os.path.dirname(os.path.dirname(dephrasure.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; {code}; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip().splitlines()[-1] == "True"


def test_building_the_parser_does_not_import_scipy():
    assert not _imports_scipy("import dephrasure.cli as cli; cli.build_parser()")


def test_no_cli_search_imports_scipy(tmp_path):
    searches = [
        ["diagonal", "--codes", "chi3", "--p-range", "0.11:0.11:2"],  # one point, twice
        ["optimize", "--p", "0.11", "--q", "0.33", "--n", "2"],
    ]
    for i, argv in enumerate(searches):
        argv += ["--out", str(tmp_path / f"out{i}")]
        assert not _imports_scipy(f"import dephrasure.cli as cli; assert cli.main({argv!r}) == 0")
        assert (tmp_path / f"out{i}").stat().st_size > 0


def _loaded_after(code):
    """The dephrasure modules loaded, and whether numpy is, after ``code``
    runs in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(dephrasure.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    report = (
        "import json, sys; print(json.dumps([sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'dephrasure'), 'numpy' in sys.modules]))"
    )
    out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                         env=env, capture_output=True, text=True, check=True)
    modules, numpy_loaded = json.loads(out.stdout.strip().splitlines()[-1])
    return set(modules), numpy_loaded


def test_a_start_loads_only_the_modules_its_command_runs(tmp_path):
    start = "import dephrasure.cli as cli; cli.build_parser()"
    base = {"dephrasure", "dephrasure.cli", "dephrasure.verify"}
    assert _loaded_after(start) == (base, True)

    out = tmp_path / "regions.csv"
    regions = f"{start}; assert cli.main(['regions', '--p-range', '0:0.5:3', '--out', {str(out)!r}]) == 0"
    assert _loaded_after(regions) == (base | {"dephrasure.channel", "dephrasure.qinfo"}, True)
    assert out.stat().st_size > 0

    out = tmp_path / "antideg.json"
    suite = f"{start}; assert cli.main(['verify', 'antideg', '--out', {str(out)!r}]) == 0"
    loaded, _ = _loaded_after(suite)
    assert "dephrasure.antideg" in loaded
    assert not loaded & {f"dephrasure.{m}" for m in ("codes", "compci", "private_info", "pso")}
