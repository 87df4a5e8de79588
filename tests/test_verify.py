import json

import numpy as np
import pytest

from dephrasure import antideg, codes, verify
from dephrasure.cli import main


def _strict(constant):
    raise ValueError(f"verify JSON holds {constant}")


def test_oracle_worst_is_that_of_a_loop_of_one_code_calls():
    # the suite's draws, one code at a time through both one-code routes
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        vec = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
        code = codes.normalized_code(n, 2**n, vec)
        p, q = float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 0.5))
        worst = max(worst, abs(codes.multiletter_ci(code, p, q) - codes.brute_force_ci(code, p, q)))
    (check,) = verify.oracle_suite()["checks"]
    assert check["worst"] == worst
    assert check["passed"] == (worst <= 1e-9)


def test_a_nan_oracle_fails_and_writes_strict_json(tmp_path, monkeypatch):
    rows = codes._brute_force_rows
    monkeypatch.setattr(codes, "_brute_force_rows", lambda *args: rows(*args) * np.nan)
    out = tmp_path / "oracle.json"
    assert main(["verify", "oracle", "--out", str(out)]) == 1
    report = json.loads(out.read_text(), parse_constant=_strict)
    assert report["passed"] is False
    assert report["checks"] == [
        {"name": "multiletter_vs_brute_force", "passed": False, "worst": None}
    ]


@pytest.mark.parametrize("field", ["composition_residual", "cp_min_eigenvalue"])
def test_a_nan_antideg_residual_fails_its_check(field, monkeypatch):
    verify_antidegradable = antideg.verify_antidegradable

    def with_nan(*args, **kwargs):
        report = verify_antidegradable(*args, **kwargs)
        getattr(report, field)[3] = np.nan
        return report

    monkeypatch.setattr(antideg, "verify_antidegradable", with_nan)
    report = verify.antideg_suite()
    (check,) = [c for c in report["checks"] if c["name"] == field]
    assert check == {"name": field, "passed": False, "worst": None}
    assert report["passed"] is False
    json.loads(json.dumps(report), parse_constant=_strict)
