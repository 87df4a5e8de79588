import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dephrasure
from dephrasure import antideg, channel, cli, codes, compci, private_info
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


def test_verify_private_fails_when_the_closed_form_drifts(tmp_path, monkeypatch):
    out = tmp_path / "verify.json"
    assert main(["verify", "private", "--out", str(out)]) == 0
    closed_form = private_info._plusminus_closed_form
    monkeypatch.setattr(private_info, "_plusminus_closed_form",
                        lambda lam, p, q: closed_form(lam, p, q) + 1e-9)
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


def test_bad_range_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--quantity", "single_ci", "--p-range", "0:2:5"])
    assert err.value.code == 2


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


def test_optimize_writes_the_schmidt_form(tmp_path, monkeypatch):
    # two codes that differ by a unitary on the reference are written alike
    rng = np.random.default_rng(47)
    code = normalized_code(2, 4, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    unitary = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    rotated = CodeState(2, 4, (unitary @ code.amplitudes.reshape(4, 4)).reshape(-1))
    value = brute_force_ci(code, 0.11, 0.33)
    written = []
    for found in (code, rotated):
        monkeypatch.setattr(cli, "optimize_code_ci", lambda *a, found=found, **k: (value, found))
        out = tmp_path / "opt.json"
        assert main(["optimize", "--p", "0.11", "--q", "0.33", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        written.append(np.array(payload["amplitudes_real"]) + 1j * np.array(payload["amplitudes_imag"]))
    assert np.abs(written[0] - written[1]).max() <= 1e-12
    assert brute_force_ci(normalized_code(2, 4, written[0]), 0.11, 0.33) == pytest.approx(
        value, abs=1e-12
    )


def test_provenance_records_the_flags_main_was_given(tmp_path, monkeypatch):
    monkeypatch.setattr("sys.argv", ["x", "--verbose", "x"])
    out = tmp_path / "regions.csv"
    argv = ["regions", "--p-range", "0:0.5:2", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text().splitlines()[0] == (
        "# dephrasure 0.1.0 | " + " ".join(argv) + " | seed=0"
    )

    code = normalized_code(2, 4, np.eye(16)[0])
    monkeypatch.setattr(cli, "optimize_code_ci", lambda *a, **k: (0.0, code))
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
    # at q = 1e-310 the USD map's x = 1 - (1-q)(1-2p)/q overflows
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--quantity", "antideg", "--p-range", "0.1:0.2:2",
               "--q-range", "0:1e-310:2", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()[2:]
    assert rows == [f"{p},{q},0,inf,-inf" for p in ("0.1", "0.2") for q in ("0", "1e-310")]


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
        for n in range(1, 10)
    },
    "zdiag_rate(4)": lambda p, q: [codes.optimize_zdiag(p, q, 4, seed=0)[0] / 4],
    "chi3_rate": lambda p, q: [codes.optimize_chi3(p, q, seed=0)[0] / 3],
    "antideg": _antideg_columns,
    "comp_witness": _witness_columns,
    "regions": lambda p, q: list(channel.region_curves(p)),
}
# --codes alias -> the sweep quantity whose column it prints
_ALIASES = {
    "single_ci": "single_ci",
    "private_lb": "private_lb",
    **{f"rep{n}": f"repetition_rate({n})" for n in range(1, 10)},
    "theta4": "zdiag_rate(4)",
    "chi3": "chi3_rate",
}
# (p-range, q-range).  A search costs up to 1 s a point, so the searches
# sweep one point, the diagonal's, where theta4 beats theta3 and q = 4p
# is exact in binary
_GRID = ("0.0859375:0.25:2", "0.125:0.34375:2")
_SEARCH_GRID = ("0.0859375:0.0859375:2", "0.34375:0.34375:2")
_SEARCHES = ("zdiag_rate(4)", "chi3_rate")


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
    assert set(cli._CODES) | {f"rep{n}" for n in range(1, 10)} == set(_ALIASES)

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
