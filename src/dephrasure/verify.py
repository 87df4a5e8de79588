"""Machine-checkable verification suites over the library's identities.

Each suite returns a dict with per-check pass/fail flags and worst
residuals; the CLI serializes it as JSON and maps failures to a nonzero
exit code.  Each suite reaches the library through the package, which
imports a module on the first use of one of its names, so that listing
the suites loads none of them.
"""

from __future__ import annotations

import numpy as np

import dephrasure


def _check(name, passed, worst):
    worst = float(worst)  # non-finite fails its comparison, and is written as null
    return {"name": name, "passed": bool(passed), "worst": worst if np.isfinite(worst) else None}


def _report(suite, checks):
    return {"suite": suite, "passed": all(c["passed"] for c in checks), "checks": checks}


def oracle_suite(tol=1e-9):
    """Block-decomposition vs full-tensor coherent information, 100 codes,
    grouped by n into one stacked call through each route, every row at
    its own point and with the bits of its one-code call."""
    rng = np.random.default_rng(7)
    drawn = {}
    for _ in range(100):
        n = int(rng.integers(1, 4))
        ref_dim = 2**n
        vec = rng.standard_normal(ref_dim * 2**n) + 1j * rng.standard_normal(
            ref_dim * 2**n
        )
        code = dephrasure.normalized_code(n, ref_dim, vec)
        p = float(rng.uniform(0.0, 0.5))
        q = float(rng.uniform(0.0, 0.5))
        drawn.setdefault(n, []).append((code, p, q))
    diffs = []
    for n, group in drawn.items():
        found, p, q = zip(*group)
        block = dephrasure.codes._ci_evaluator(n, 2**n, p, q)(
            np.array([code.amplitudes for code in found]), np.arange(len(found))
        )
        states = np.array([code.input_state() for code in found])
        diffs.append(np.abs(block - dephrasure.codes._brute_force_rows(n, states, p, q)))
    worst = np.max(np.concatenate(diffs))  # NaN propagates, and fails
    return _report("oracle", [_check("multiletter_vs_brute_force", worst <= tol, worst)])


def antideg_suite(tol=1e-10):
    """Composition identity and CP of the degrading maps on {q >= k(p)},
    on a 20 x 20 grid."""
    ps = np.linspace(0.0, 0.5, 20)
    lows = np.maximum(dephrasure.region_k(ps), 1e-6)
    p, q = np.repeat(ps, 20), np.linspace(lows, 0.5, 20, axis=-1).reshape(-1)
    report = dephrasure.verify_antidegradable(p, q, tol=tol)
    worst_res = np.max(report.composition_residual, initial=0.0)
    worst_cp = np.min(report.cp_min_eigenvalue, initial=0.0)
    worst_ci = float(np.max(dephrasure.single_letter_ci(p, q)[0]))
    return _report("antideg", [
        _check("composition_residual", worst_res <= tol, worst_res),
        _check("cp_min_eigenvalue", worst_cp >= -tol, worst_cp),
        _check("nonpositive_coherent_info", worst_ci <= 1e-9, worst_ci),
    ])


def thresholds_suite(tol=1e-12):
    """Sign structure of the repetition and maximally-mixed thresholds.

    Repetition codes must be positive just below g(p) and at most ``tol``
    just above it.
    """
    # q = g(p) -/+ 1e-3 (last axis) for four p and n = 1..5, one batched scan
    p = np.array([[0.05], [0.15], [0.25], [0.35]])
    g = dephrasure.region_g(p)
    q = np.concatenate([g - 1e-3, np.minimum(g + 1e-3, 0.5)], axis=1)
    values = dephrasure.repetition_ci_opt(p, q, np.arange(1, 6)[:, None, None])[0]
    worst_below, worst_above = float(values[..., 0].min()), float(values[..., 1].max())

    # curvature of i_c at z = 0 flips sign exactly at q = j(p): q = j(p) -/+ 1e-3
    p, h = np.array([[0.1], [0.2], [0.3], [0.4]]), 1e-3
    q = dephrasure.region_j(p) + np.array([-1e-3, 1e-3])
    plus, zero, minus = (dephrasure.coherent_info_z(p, q, z) for z in (h, 0.0, -h))
    second = (plus - 2 * zero + minus) / h**2
    worst_neg, worst_pos = float(second[:, 0].max()), float(second[:, 1].min())
    return _report("thresholds", [
        _check("repetition_positive_below_g", worst_below > 0.0, worst_below),
        _check("repetition_zero_above_g", worst_above <= tol, worst_above),
        _check("curvature_negative_below_j", worst_neg < 0.0, worst_neg),
        _check("curvature_positive_above_j", worst_pos > 0.0, worst_pos),
    ])


def compci_suite(tol=1e-10):
    """Complementary-channel positivity witnesses on the standard grid."""
    grid = np.arange(0.05, 0.51, 0.05)
    worst = float(dephrasure.positivity_witness(grid[:, None], grid).ci_value.min())
    checks = [_check("witness_positive_on_grid", worst > 0.0, worst)]

    # closed form vs the direct Kraus route, all points in one stacked call
    rng = np.random.default_rng(11)
    p, q, m = rng.uniform([0.01, 0.01, 0.0], [0.5, 0.5, 1.0], size=(25, 3)).T
    ops, kraus = dephrasure.channel._checked_ops(dephrasure.channel._complement_ops, p, q)
    states = np.array([dephrasure.bloch_state(mi, 0.0, 0.0) for mi in m])
    direct = dephrasure.qinfo._ci_rows(ops, states, *kraus)
    worst_diff = np.max(np.abs(direct - dephrasure.comp_ci_x_state(p, q, m)))
    checks.append(_check("closed_form_vs_direct", worst_diff <= tol, worst_diff))
    return _report("compci", checks)


def private_suite(tol=1e-10):
    """The +/- family's private lower bound against the Holevo route.

    On an 11 x 11 grid of [0, 1/2]^2, private_lower_bound's closed-form
    value must match ensemble_private_info of the +/- ensemble at the
    lambda* it returns.
    """
    grid = np.linspace(0.0, 0.5, 11)
    p, q = np.repeat(grid, 11), np.tile(grid, 11)
    value, lam = dephrasure.private_lower_bound(p, q)
    # every point's ensemble through the Holevo route in one stacked call
    ensembles = [dephrasure.plusminus_ensemble(li) for li in lam]
    probs = [prob for prob, _ in ensembles[0]]  # 1/2 and 1/2 at every lambda
    states = np.array([[rho for _, rho in members] for members in ensembles])
    worst = np.max(np.abs(value - dephrasure.private_info._private_info_rows(probs, states, p, q)))
    return _report("private", [_check("closed_form_vs_holevo", worst <= tol, worst)])


SUITES = {
    "oracle": oracle_suite,
    "antideg": antideg_suite,
    "thresholds": thresholds_suite,
    "compci": compci_suite,
    "private": private_suite,
}
