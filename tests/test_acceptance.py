"""End-to-end acceptance checks.

Each criterion is one test named after what it verifies, so a verbose
run yields exactly one pass/fail line per criterion.  Run with -s to
also see the measured margins.
"""

import pathlib

import numpy as np
import pytest

from dephrasure.channel import (
    bloch_state,
    coherent_info_z,
    region_g,
    region_k,
    single_letter_ci,
)
from dephrasure.codes import (
    _brute_force_rows,
    _ci_evaluator,
    normalized_code,
    optimize_chi3,
    optimize_code_ci,
    repetition_ci_opt,
)
from dephrasure.antideg import verify_antidegradable
from dephrasure.compci import positivity_witness
from dephrasure.private_info import private_lower_bound
from dephrasure.pso import PsoConfig, pso_minimize, rowwise
from dephrasure.qinfo import binary_entropy, coherent_information
from dephrasure.channel import dephrasure_kraus


def _report(label, passed, detail):
    print(f"criterion {label}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {label}: {detail}"


def test_criterion_01_single_letter_formula_on_grid():
    """Closed form 1 - 2q - (1-q)h(p) vs Kraus+purification, 50x50 grid."""
    worst = 0.0
    mixed = np.eye(2, dtype=complex) / 2
    for p in np.linspace(0.0, 0.5, 50):
        hp = binary_entropy(p)
        for q in np.linspace(0.0, 0.5, 50):
            closed = 1 - 2 * q - (1 - q) * hp
            direct = coherent_information(dephrasure_kraus(p, q), mixed)
            worst = max(worst, abs(closed - direct))
    _report("01 single-letter formula", worst < 1e-10, f"worst diff {worst:.3g}")


def test_criterion_02_zero_contour_matches_g():
    """Sign change of single_letter_ci along each p-column sits at g(p)."""
    dq = 5e-3
    q_grid = np.arange(0.0, 0.5 + dq / 2, dq)
    worst = 0.0
    for p in np.linspace(0.025, 0.475, 19):
        values = np.array([single_letter_ci(p, q)[0] for q in q_grid])
        positive = values > 0.0
        assert positive[0] and not positive[-1]
        flip = int(np.argmin(positive))  # first index where the value is 0
        boundary = q_grid[flip]
        worst = max(worst, abs(boundary - region_g(p)))
    _report("02 zero contour vs g(p)", worst <= dq, f"worst offset {worst:.3g}")


def test_criterion_03_superadditivity_n2_on_diagonal():
    """Two-letter repetition beats the single-letter value on q = 3p."""
    found = False
    best_gap = -np.inf
    for p in np.linspace(0.118, 0.1202, 12):
        q = 3 * p
        rep2, _ = repetition_ci_opt(p, q, 2)
        single, _ = single_letter_ci(p, q)
        gap = rep2 / 2 - single
        if gap > 0 and single < 1e-3:
            found = True
            best_gap = max(best_gap, gap)
    _report("03 superadditivity at n=2", found, f"best gap {best_gap:.3g}")


def test_criterion_04_threshold_coincidence_all_n():
    """sup over weights of repetition_ci flips sign at g(p) for n = 1..5."""
    dq = 1e-3
    ok = True
    margin = np.inf
    for n in range(1, 6):
        for p in (0.05, 0.15, 0.25):
            g = region_g(p)
            below, _ = repetition_ci_opt(p, g - dq, n)
            above, _ = repetition_ci_opt(p, min(g + dq, 0.5), n)
            ok = ok and below > 0.0 and above <= 1e-12
            margin = min(margin, below)
    _report("04 thresholds for n=1..5", ok, f"min positive margin {margin:.3g}")


def test_criterion_05_oracle_equivalence_100_codes():
    """Pattern-decomposition vs full-tensor coherent information: the
    codes grouped by n, one stacked call through each route per n, as
    ``verify oracle`` makes them."""
    rng = np.random.default_rng(12)
    drawn = {}
    for _ in range(100):
        n = int(rng.integers(1, 4))
        dim = 2**n * 2**n
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        code = normalized_code(n, 2**n, vec)
        p = float(rng.uniform(0.0, 0.5))
        q = float(rng.uniform(0.0, 0.5))
        drawn.setdefault(n, []).append((code, p, q))
    diffs = []
    for n, group in drawn.items():
        found, p, q = zip(*group)
        block = _ci_evaluator(n, 2**n, p, q)(
            np.array([code.amplitudes for code in found]), np.arange(len(found))
        )
        states = np.array([code.input_state() for code in found])
        diffs.append(np.abs(block - _brute_force_rows(n, states, p, q)))
    worst = np.max(np.concatenate(diffs))  # NaN propagates, and fails
    _report("05 oracle equivalence", worst < 1e-9, f"worst diff {worst:.3g}")


def test_criterion_06_antidegradability_grid():
    """Degrading map valid and coherent information zero on q >= k(p)."""
    worst_res = 0.0
    worst_cp = 0.0
    worst_ci = -np.inf
    ok = True
    for p in np.linspace(0.0, 0.5, 40):
        k = region_k(p)
        for q in np.linspace(max(k, 1e-9), 0.5, 40):
            report = verify_antidegradable(p, q)
            ok = ok and report.antidegradable
            worst_res = max(worst_res, report.composition_residual)
            worst_cp = min(worst_cp, report.cp_min_eigenvalue)
            worst_ci = max(worst_ci, single_letter_ci(p, q)[0])
    passed = (
        ok and worst_res < 1e-10 and worst_cp > -1e-10 and worst_ci <= 1e-9
    )
    _report(
        "06 antidegradability",
        passed,
        f"residual {worst_res:.3g}, cp {worst_cp:.3g}, ci {worst_ci:.3g}",
    )


def test_criterion_07_private_coherent_separation():
    """Private lower bound beats coherent information; zero near 0.12145."""
    ok = True
    for p in (0.09, 0.10, 0.11, 0.12):
        q = 3 * p
        ok = ok and private_lower_bound(p, q)[0] > single_letter_ci(p, q)[0]
    # locate the zero of the maximized private information on q = 3p
    lo, hi = 0.115, 0.128
    for _ in range(60):
        mid = (lo + hi) / 2
        if private_lower_bound(mid, 3 * mid)[0] > 1e-14:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    passed = ok and abs(root - 0.12145) < 5e-4
    _report("07 private separation", passed, f"diagonal zero at {root:.6f}")


def test_criterion_08_complementary_positivity_grid():
    """positivity_witness strictly positive on the 10x10 standard grid."""
    worst = np.inf
    for p in np.arange(0.05, 0.51, 0.05):
        for q in np.arange(0.05, 0.51, 0.05):
            worst = min(worst, positivity_witness(p, q).ci_value)
    _report("08 complementary positivity", worst > 0.0, f"min value {worst:.3g}")


def test_criterion_09_pso_sanity_and_code_recovery():
    """Sphere convergence, n=2 recovery, and chi3 >= repetition per letter."""
    sphere = pso_minimize(
        rowwise(lambda x: float(np.sum(x**2))),
        4,
        PsoConfig(bounds=((-5.0, 5.0),) * 4, seed=1),
    )
    ok = sphere.best_value < 1e-6

    value2, _ = optimize_code_ci(0.11, 0.33, 2)
    rep2, _ = repetition_ci_opt(0.11, 0.33, 2)
    ok = ok and value2 >= rep2 - 1e-6

    chi_ok = True
    for p in (0.110, 0.114):
        q = 3 * p
        chi_val, _ = optimize_chi3(p, q, seed=0)
        rep3, _ = repetition_ci_opt(p, q, 3)
        chi_ok = chi_ok and chi_val / 3 >= rep3 / 3
    passed = ok and chi_ok
    _report(
        "09 PSO sanity and recovery",
        passed,
        f"sphere {sphere.best_value:.3g}, n2 gap {value2 - rep2:.3g}",
    )


def test_criterion_10_exclusions_documented():
    """Full-resolution optimizer curves are documented as out of scope."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    passed = "ordering" in text and "curve" in text
    _report("10 documented exclusions", passed, "README states the ordering-only scope")
