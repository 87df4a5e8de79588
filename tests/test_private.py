import numpy as np
import pytest
from scipy.optimize import brentq

from dephrasure.channel import region_g, single_letter_ci
from dephrasure.private_info import (
    _plusminus_entropies,
    ensemble_private_info,
    plusminus_ensemble,
    private_lower_bound,
)
from dephrasure.qinfo import binary_entropy


def _closed_form(lam, p, q):
    """The value private_lower_bound maximizes: (1-q) kept - q erased."""
    kept, erased = _plusminus_entropies(p, lam)
    return (1 - q) * kept - q * erased


def test_closed_form_matches_holevo_route():
    rng = np.random.default_rng(4)
    for _ in range(15):
        lam = float(rng.uniform(0, 1))
        p, q = rng.uniform(0.02, 0.5, 2)
        direct = ensemble_private_info(plusminus_ensemble(lam), p, q)
        assert _closed_form(lam, p, q) == pytest.approx(direct, abs=1e-10)


def test_endpoints_and_symmetry():
    p, q = 0.15, 0.2
    mixed_ci = 1 - 2 * q - (1 - q) * binary_entropy(p)
    # lam in {0, 1} reproduces the maximally mixed coherent information
    assert _closed_form(0.0, p, q) == pytest.approx(mixed_ci, abs=1e-12)
    assert _closed_form(1.0, p, q) == pytest.approx(mixed_ci, abs=1e-12)
    assert _closed_form(0.5, p, q) == pytest.approx(0.0, abs=1e-12)
    assert _closed_form(0.3, p, q) == pytest.approx(_closed_form(0.7, p, q), abs=1e-12)


def test_private_dominates_single_letter_on_diagonal():
    for p in (0.09, 0.10, 0.11, 0.12):
        q = 3 * p
        priv, lam = private_lower_bound(p, q)
        single, _ = single_letter_ci(p, q)
        assert priv > single
        assert 0.5 <= lam <= 1.0


def test_private_dominates_near_threshold():
    # just below g the coherent information is exponentially tiny while
    # the private information stays polynomially large
    p = 0.1
    q = region_g(p) - 0.01
    priv, _ = private_lower_bound(p, q)
    single, _ = single_letter_ci(p, q)
    assert 0.0 < single < 1e-6
    assert priv > 1e-3
    assert priv > 100 * single


def test_private_threshold_is_g_of_p():
    # the nontrivial maximizer appears exactly when q < g(p)
    p = 0.2
    g = region_g(p)
    above, lam_above = private_lower_bound(p, g + 1e-3)
    below, lam_below = private_lower_bound(p, g - 1e-3)
    assert above <= 1e-12
    assert below > 0.0


def test_private_zero_on_diagonal_near_012145():
    f = lambda p: private_lower_bound(p, 3 * p)[0] - 1e-300
    # bracket the sign change of the maximized value
    lo, hi = 0.115, 0.125
    assert private_lower_bound(lo, 3 * lo)[0] > 0
    assert private_lower_bound(hi, 3 * hi)[0] <= 1e-12
    root = brentq(lambda p: private_lower_bound(p, 3 * p)[0] - 1e-15, lo, hi,
                  xtol=1e-7)
    assert root == pytest.approx(0.12145, abs=5e-4)


def test_ensemble_private_info_validation():
    with pytest.raises(ValueError):
        ensemble_private_info([(0.6, np.eye(2) / 2)], 0.1, 0.1)  # probs != 1
    with pytest.raises(ValueError):
        ensemble_private_info(
            [(1.0, np.eye(3) / 3)], 0.1, 0.1
        )  # not a qubit ensemble


def _holevo_loop(members, p, q):
    """Reference: the Holevo route one member at a time, through
    apply_kraus of the channel and of its complement on single states."""
    from dephrasure.channel import complementary_kraus, dephrasure_kraus
    from dephrasure.qinfo import apply_kraus, von_neumann_entropy

    holevo = []
    for kraus in (dephrasure_kraus(p, q), complementary_kraus(p, q)):
        avg, mean = 0.0, 0.0
        for prob, rho in members:
            if prob != 0.0:
                avg = avg + prob * apply_kraus(kraus, rho)
                mean += prob * von_neumann_entropy(apply_kraus(kraus, rho))
        holevo.append(von_neumann_entropy(avg) - mean)
    return holevo[0] - holevo[1]


def test_stacked_holevo_rows_have_the_bits_of_the_one_member_loop():
    from dephrasure.private_info import _private_info_rows

    rng = np.random.default_rng(71)
    p, q, lam = rng.uniform(0.0, 0.5, (3, 9))
    p[0], q[1], lam[2] = 0.5, 0.0, 1.0
    states = np.array([[rho for _, rho in plusminus_ensemble(li)] for li in lam])
    for probs in ((0.5, 0.5), (0.0, 1.0), (0.25, 0.75)):
        values = _private_info_rows(probs, states, p, q)
        for row, value in enumerate(values):
            members = list(zip(probs, states[row]))
            assert value == _holevo_loop(members, p[row], q[row])
            assert value == ensemble_private_info(members, p[row], q[row])


def test_stacked_holevo_rows_raise_the_first_bad_rows_error():
    from dephrasure.private_info import _private_info_rows

    states = np.array([[rho for _, rho in plusminus_ensemble(li)] for li in (0.1, 0.2, 0.3)])
    states[2, 1] = np.diag([1.5, -0.5])
    p, q = np.array([0.1, 0.2, 0.3]), np.array([0.1, 1.0, 0.1])
    # row 2's second state is not positive; then row 1's p is out of range
    with pytest.raises(ValueError, match="negative eigenvalue"):
        _private_info_rows((0.5, 0.5), states, p, q)
    p[1] = 1.5
    with pytest.raises(ValueError, match="p = 1.5 outside"):
        _private_info_rows((0.5, 0.5), states, p, q)
