"""Machine-checkable verification suites over the library's identities.

Each suite returns a dict with per-check pass/fail flags and worst
residuals; the CLI serializes it as JSON and maps failures to a nonzero
exit code.
"""

from __future__ import annotations

import numpy as np

from . import antideg, channel, codes, compci
from .qinfo import coherent_information


def _check(name, passed, worst):
    return {"name": name, "passed": bool(passed), "worst": float(worst)}


def oracle_suite(tol=1e-9):
    """Block-decomposition vs full-tensor coherent information, 100 codes."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        ref_dim = 2**n
        vec = rng.standard_normal(ref_dim * 2**n) + 1j * rng.standard_normal(
            ref_dim * 2**n
        )
        code = codes.normalized_code(n, ref_dim, vec)
        p = float(rng.uniform(0.0, 0.5))
        q = float(rng.uniform(0.0, 0.5))
        diff = abs(
            codes.multiletter_ci(code, p, q) - codes.brute_force_ci(code, p, q)
        )
        worst = max(worst, diff)
    checks = [_check("multiletter_vs_brute_force", worst <= tol, worst)]
    return {"suite": "oracle", "passed": all(c["passed"] for c in checks), "checks": checks}


def antideg_suite(tol=1e-10):
    """Composition identity and CP of the degrading maps on {q >= k(p)},
    on a 20 x 20 grid."""
    ps = np.linspace(0.0, 0.5, 20)
    lows = [max(channel.region_k(pi), 1e-6) for pi in ps]
    p, q = np.repeat(ps, 20), np.concatenate([np.linspace(lo, 0.5, 20) for lo in lows])
    report = antideg.verify_antidegradable(p, q, tol=tol)
    worst_res = max(0.0, float(report.composition_residual.max()))
    worst_cp = min(0.0, float(report.cp_min_eigenvalue.min()))
    ok = bool(report.antidegradable.all())
    worst_ci = float(np.max(channel.single_letter_ci(p, q)[0]))
    checks = [
        _check("composition_residual", worst_res <= tol, worst_res),
        _check("cp_min_eigenvalue", worst_cp >= -tol, worst_cp),
        _check("nonpositive_coherent_info", worst_ci <= 1e-9, worst_ci),
    ]
    return {
        "suite": "antideg",
        "passed": ok and all(c["passed"] for c in checks),
        "checks": checks,
    }


def thresholds_suite(tol=1e-12):
    """Sign structure of the repetition and maximally-mixed thresholds.

    Repetition codes must be positive just below g(p) and at most ``tol``
    just above it.
    """
    checks = []
    # (n, p, q) at q = g(p) -/+ 1e-3, one batched repetition scan for all
    points = [
        (n, p, q)
        for n in range(1, 6)
        for p in (0.05, 0.15, 0.25, 0.35)
        for q in (channel.region_g(p) - 1e-3, min(channel.region_g(p) + 1e-3, 0.5))
    ]
    n, p, q = np.transpose(points)
    values = codes.repetition_ci_opt(p, q, n.astype(int))[0]
    worst_below = float(values[0::2].min())
    worst_above = float(values[1::2].max())
    checks.append(_check("repetition_positive_below_g", worst_below > 0.0, worst_below))
    checks.append(_check("repetition_zero_above_g", worst_above <= tol, worst_above))

    # curvature of i_c at z = 0 flips sign exactly at q = j(p)
    worst_neg = -np.inf
    worst_pos = np.inf
    h = 1e-3
    for p in (0.1, 0.2, 0.3, 0.4):
        j = channel.region_j(p)
        for q, side in ((j - 1e-3, "below"), (j + 1e-3, "above")):
            second = (
                channel.coherent_info_z(p, q, h)
                - 2 * channel.coherent_info_z(p, q, 0.0)
                + channel.coherent_info_z(p, q, -h)
            ) / h**2
            if side == "below":
                worst_neg = max(worst_neg, second)
            else:
                worst_pos = min(worst_pos, second)
    checks.append(_check("curvature_negative_below_j", worst_neg < 0.0, worst_neg))
    checks.append(_check("curvature_positive_above_j", worst_pos > 0.0, worst_pos))
    return {
        "suite": "thresholds",
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def compci_suite(tol=1e-10):
    """Complementary-channel positivity witnesses on the standard grid."""
    worst = np.inf
    for p in np.arange(0.05, 0.51, 0.05):
        for q in np.arange(0.05, 0.51, 0.05):
            witness = compci.positivity_witness(p, q)
            worst = min(worst, witness.ci_value)
    checks = [_check("witness_positive_on_grid", worst > 0.0, worst)]

    # closed form vs direct Kraus-route coherent information
    rng = np.random.default_rng(11)
    worst_diff = 0.0
    for _ in range(25):
        p = float(rng.uniform(0.01, 0.5))
        q = float(rng.uniform(0.01, 0.5))
        m = float(rng.uniform(0.0, 1.0))
        rho = channel.bloch_state(m, 0.0, 0.0)
        direct = coherent_information(channel.complementary_kraus(p, q), rho)
        worst_diff = max(worst_diff, abs(direct - compci.comp_ci_x_state(p, q, m)))
    checks.append(_check("closed_form_vs_direct", worst_diff <= tol, worst_diff))
    return {
        "suite": "compci",
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


SUITES = {
    "oracle": oracle_suite,
    "antideg": antideg_suite,
    "thresholds": thresholds_suite,
    "compci": compci_suite,
}


def run_suite(name, **kwargs):
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return fn(**kwargs)
