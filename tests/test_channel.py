import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dephrasure.channel import (
    bloch_state,
    coherent_info_state,
    coherent_info_xz,
    coherent_info_z,
    complementary_kraus,
    dephrasure_kraus,
    maximize_over_weights,
    region_curves,
    region_g,
    region_j,
    region_k,
    single_letter_ci,
    xz_grid_max,
)
from dephrasure.qinfo import (
    apply_kraus,
    binary_entropy,
    choi_of,
    coherent_information,
    von_neumann_entropy,
)


def test_dephrasure_action_on_maximally_mixed():
    out = apply_kraus(dephrasure_kraus(0.1, 0.2), np.eye(2) / 2)
    assert np.allclose(out, np.diag([0.4, 0.4, 0.2]), atol=1e-14)


def test_dephrasure_action_on_plus_state():
    plus = np.ones((2, 2), dtype=complex) / 2
    out = apply_kraus(dephrasure_kraus(0.1, 0.2), plus)
    # coherence shrinks by (1-2p)(1-q)
    assert out[0, 1] == pytest.approx(0.5 * 0.8 * 0.8, abs=1e-14)
    assert out[2, 2] == pytest.approx(0.2, abs=1e-14)


def test_complementary_block_structure():
    # the paper's block form q rho (+) (1-q)(rho_00 phi0 phi0^dag + rho_11 phi1 phi1^dag),
    # phi_j = sqrt(1-p)|0> +/- sqrt(p)|1>, written out apart from the Kraus stack
    p, q = 0.2, 0.3
    rho = bloch_state(0.3, 0.1, 0.2)
    out = apply_kraus(complementary_kraus(p, q), rho)
    phi0, phi1 = np.sqrt([1 - p, p]), np.sqrt([1 - p, p]) * [1, -1]
    expect = np.zeros((4, 4), dtype=complex)
    expect[:2, :2] = q * rho
    expect[2:, 2:] = (1 - q) * (
        rho[0, 0].real * np.outer(phi0, phi0) + rho[1, 1].real * np.outer(phi1, phi1)
    )
    assert np.allclose(out, expect, atol=1e-14)


def test_choi_trace_and_cp():
    for p, q in ((0.0, 0.0), (0.3, 0.2), (0.5, 0.5)):
        choi = choi_of(dephrasure_kraus(p, q))
        assert np.trace(choi).real == pytest.approx(2.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(choi)) > -1e-12


def test_region_values():
    assert region_g(0.25) == pytest.approx(0.2, abs=1e-14)
    assert region_k(0.25) == pytest.approx(1 / 3, abs=1e-14)
    num = 0.5 - 0.375 * np.log(3.0)
    den = 1.0 - 0.375 * np.log(3.0)
    assert region_j(0.25) == pytest.approx(num / den, abs=1e-12)
    assert region_j(0.25) == pytest.approx(0.14968935, abs=1e-7)
    g, j, k = region_curves(0.25)
    assert (g, j, k) == (region_g(0.25), region_j(0.25), region_k(0.25))


def test_region_ordering_and_endpoints():
    for p in np.linspace(0.01, 0.49, 25):
        g, j, k = region_curves(p)
        assert 0 < j < g < k < 0.5
    assert region_g(0.5) == 0.0
    assert region_k(0.5) == 0.0
    assert region_j(0.0) == pytest.approx(0.5, abs=1e-12)
    assert region_g(0.0) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.floats(0.0, 0.5), st.floats(0.0, 1e-300), st.floats(0.5 - 1e-12, 0.5)))
@example(5e-324)
@example(0.5 - 1e-12)
def test_region_curves_are_ordered_on_the_whole_range(p):
    g, j, k = region_curves(p)
    assert j <= g <= k


def test_region_j_takes_its_p0_limit_at_subnormal_p():
    # (1-p)/p overflows below p = 5.6e-309; the closed form is 1/2 there
    assert region_j(np.array([5e-324, 1e-310, 2e-308, 1e-300])).tolist() == [0.5] * 4


def test_region_j_near_half():
    # j(1/2 - d) ~ (8/3) d^2
    for d in (1e-3, 1e-5, 1e-7):
        assert region_j(0.5 - d) == pytest.approx(8 * d**2 / 3, rel=1e-2)


def test_coherent_info_z_closed_form_vs_kraus():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, q = rng.uniform(0.02, 0.5, 2)
        z = rng.uniform(-1, 1)
        direct = coherent_information(dephrasure_kraus(p, q), bloch_state(0, 0, z))
        assert coherent_info_z(p, q, z) == pytest.approx(direct, abs=1e-11)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.floats(-1.0, 1.0))
def test_coherent_info_z_is_even_in_z(p, q, z):
    # the X flip maps the Bloch vector z to -z and commutes with the channel
    assert abs(coherent_info_z(p, q, z) - coherent_info_z(p, q, -z)) <= 2e-15


def test_coherent_info_maximally_mixed_closed_form():
    for p in (0.05, 0.2, 0.4):
        for q in (0.1, 0.3, 0.5):
            expect = 1 - 2 * q - (1 - q) * binary_entropy(p)
            assert coherent_info_z(p, q, 0.0) == pytest.approx(expect, abs=1e-12)


def test_coherent_info_xz_reduces_to_z():
    for z in (-0.7, 0.0, 0.4):
        assert coherent_info_xz(0.15, 0.2, 0.0, z) == pytest.approx(
            coherent_info_z(0.15, 0.2, z), abs=1e-12
        )


def test_coherent_info_xz_vs_kraus():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p, q = rng.uniform(0.02, 0.5, 2)
        ang = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(0, 1)
        x, z = r * np.cos(ang), r * np.sin(ang)
        direct = coherent_information(
            dephrasure_kraus(p, q), bloch_state(x, 0, z)
        )
        assert coherent_info_xz(p, q, x, z) == pytest.approx(direct, abs=1e-11)


def test_coherent_info_state_oracle():
    # N^c through its own Kraus stack, against the environment state of
    # coherent_information, which it builds from the channel's operators
    rho = bloch_state(0.2, 0.3, -0.4)
    direct = von_neumann_entropy(
        apply_kraus(dephrasure_kraus(0.1, 0.2), rho)
    ) - von_neumann_entropy(apply_kraus(complementary_kraus(0.1, 0.2), rho))
    assert coherent_info_state(0.1, 0.2, rho) == pytest.approx(direct, abs=1e-12)


def test_single_letter_ci_below_j_is_maximally_mixed():
    # for q < j(p) the maximum sits at z = 0
    p, q = 0.1, 0.1
    value, z_star = single_letter_ci(p, q)
    expect = 1 - 2 * q - (1 - q) * binary_entropy(p)
    assert value == pytest.approx(expect, abs=1e-10)
    assert value == pytest.approx(0.3779039657696469, abs=1e-10)
    assert abs(z_star) < 1e-4


def test_single_letter_ci_above_j_prefers_polarized():
    p = 0.1
    q = 0.38  # between j(0.1) ~ 0.336 and g(0.1) ~ 0.390
    value, z_star = single_letter_ci(p, q)
    assert z_star > 0.1
    assert value > coherent_info_z(p, q, 0.0)
    assert value > 0.0


def test_single_letter_ci_zero_above_g():
    value, _ = single_letter_ci(0.1, 0.45)  # g(0.1) ~ 0.390
    assert value == pytest.approx(0.0, abs=1e-12)


def test_single_letter_matches_z_scan():
    for p, q in ((0.1, 0.2), (0.2, 0.25), (0.3, 0.1)):
        value, _ = single_letter_ci(p, q)
        zs = np.linspace(0, 1, 2001)
        scan = max(coherent_info_z(p, q, z) for z in zs)
        assert value >= scan - 1e-9


def test_xz_grid_max_never_beats_z_axis():
    # the z-axis family is optimal among xz-plane states
    for p, q in ((0.1, 0.2), (0.25, 0.3)):
        value, (x_star, z_star) = xz_grid_max(p, q, steps=41)
        best_z, _ = single_letter_ci(p, q)
        assert value <= best_z + 1e-9


def test_maximize_over_weights_quadratic():
    value, arg = maximize_over_weights(lambda t: -(t - 0.2) ** 2, 1e-3, 1e-12)
    assert arg == pytest.approx(0.2, abs=1e-6)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError):
        dephrasure_kraus(-0.1, 0.2)
    with pytest.raises(ValueError):
        dephrasure_kraus(0.1, 1.2)
    with pytest.raises(ValueError):
        bloch_state(1.0, 1.0, 1.0)
