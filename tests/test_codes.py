import numpy as np
import pytest

from dephrasure.channel import region_g, single_letter_ci
from dephrasure.codes import (
    CodeState,
    brute_force_ci,
    chi3_code,
    multiletter_ci,
    normalized_code,
    optimize_chi3,
    optimize_zdiag,
    pattern_decompose,
    repetition_ci,
    repetition_ci_opt,
    repetition_code_state,
    threshold_f,
    u_value,
    zdiag_code,
)


def _random_code(rng, n, ref_dim=None):
    ref_dim = ref_dim or 2**n
    vec = rng.standard_normal(ref_dim * 2**n) + 1j * rng.standard_normal(
        ref_dim * 2**n
    )
    return normalized_code(n, ref_dim, vec)


def test_code_state_validation():
    with pytest.raises(ValueError):
        CodeState(1, 2, np.array([1.0, 0, 0, 0.5], dtype=complex))  # not normalized
    code = repetition_code_state(2, 0.3)
    rho = code.input_state()
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert rho[0, 0].real == pytest.approx(0.3, abs=1e-12)
    assert rho[3, 3].real == pytest.approx(0.7, abs=1e-12)


def test_u_value_frozen():
    expect = np.sqrt(1 - 0.84 * (1 - 0.8**4))
    assert u_value(0.3, 0.1, 2) == pytest.approx(expect, abs=1e-14)


def test_repetition_n1_matches_single_letter_z():
    from dephrasure.channel import coherent_info_z

    for lam in (0.1, 0.3, 0.5):
        z = 1 - 2 * lam
        assert repetition_ci(0.2, 0.15, 1, lam) == pytest.approx(
            coherent_info_z(0.2, 0.15, z), abs=1e-12
        )


def test_repetition_closed_form_vs_oracles():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        for _ in range(5):
            lam = float(rng.uniform(0.05, 0.95))
            p, q = rng.uniform(0.02, 0.5, 2)
            code = repetition_code_state(n, lam)
            closed = repetition_ci(p, q, n, lam)
            assert multiletter_ci(code, p, q) == pytest.approx(closed, abs=1e-10)
            assert brute_force_ci(code, p, q) == pytest.approx(closed, abs=1e-10)


def test_repetition_ci_tiny_lambda_stable():
    # positive window at exponentially small lambda near the threshold
    p = 0.1
    q = region_g(p) - 1e-3
    value, lam = repetition_ci_opt(p, q, 1)
    assert value > 0.0
    assert 0 < lam < 1e-10


def test_repetition_threshold_each_n():
    for n in (1, 2, 3, 4, 5):
        for p in (0.1, 0.3):
            g = region_g(p)
            below, _ = repetition_ci_opt(p, g - 1e-3, n)
            above, _ = repetition_ci_opt(p, min(g + 1e-3, 0.5), n)
            assert below > 0.0
            assert above <= 1e-12


def test_threshold_f_limit():
    # f decreases to 1 - (1-2p)^(2n) as lambda -> 0
    p, n = 0.2, 2
    limit = 1 - 0.6 ** (2 * n)
    assert threshold_f(p, 1e-12, n) == pytest.approx(limit, rel=1e-1)
    assert threshold_f(p, 1e-3, n) > threshold_f(p, 1e-6, n) > limit


def test_multiletter_vs_brute_force_random_codes():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        code = _random_code(rng, n)
        p, q = rng.uniform(0.0, 0.5, 2)
        assert multiletter_ci(code, p, q) == pytest.approx(
            brute_force_ci(code, p, q), abs=1e-9
        )


def test_pattern_decompose_weights_and_blocks():
    code = repetition_code_state(2, 0.4)
    blocks = pattern_decompose(code, 0.1, 0.2)
    assert len(blocks) == 4
    total = sum(b.weight for b in blocks)
    assert total == pytest.approx(1.0, abs=1e-12)
    for b in blocks:
        assert np.trace(b.block).real == pytest.approx(1.0, abs=1e-10)
        erased = b.pattern.count("1")
        assert b.weight == pytest.approx(
            0.2**erased * 0.8 ** (2 - erased), abs=1e-12
        )


def test_zdiag_code_matches_repetition():
    lam = 0.3
    coeffs = np.zeros(4)
    coeffs[0] = np.sqrt(lam)
    coeffs[3] = np.sqrt(1 - lam)
    code = zdiag_code(coeffs)
    assert multiletter_ci(code, 0.1, 0.2) == pytest.approx(
        repetition_ci(0.1, 0.2, 2, lam), abs=1e-10
    )


def test_zdiag_fast_path_agrees_with_general():
    rng = np.random.default_rng(23)
    from dephrasure.codes import _zdiag_ci_fast

    for n in (2, 3, 1, 4):
        coeffs = np.abs(rng.standard_normal(2**n))
        coeffs /= np.linalg.norm(coeffs)
        p, q = rng.uniform(0.05, 0.5, 2)
        fast = _zdiag_ci_fast(coeffs, p, q, n)
        general = multiletter_ci(zdiag_code(coeffs), p, q)
        assert fast == pytest.approx(general, abs=1e-10)


def test_optimize_zdiag_beats_repetition():
    value, coeffs = optimize_zdiag(0.11, 0.33, 2, seed=0)
    rep, _ = repetition_ci_opt(0.11, 0.33, 2)
    assert value >= rep - 1e-9
    assert multiletter_ci(zdiag_code(coeffs), 0.11, 0.33) == pytest.approx(
        value, abs=1e-9
    )


def test_chi3_code_structure():
    code = chi3_code(1 / np.sqrt(2), 0.0, 0.5, 0.5)
    assert code.n_uses == 3
    assert code.ref_dim == 4
    rho = code.input_state()
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_optimize_chi3_beats_repetition_per_letter():
    p, q = 0.110, 0.330
    value, params = optimize_chi3(p, q, seed=0)
    rep3, _ = repetition_ci_opt(p, q, 3)
    assert value / 3 >= rep3 / 3 - 1e-9
    code = chi3_code(*params)
    assert multiletter_ci(code, p, q) == pytest.approx(value, abs=1e-8)


def test_superadditivity_on_diagonal():
    # n=2 weighted repetition beats the single-letter value near p ~ 0.119
    p = 0.119
    q = 3 * p
    rep2, _ = repetition_ci_opt(p, q, 2)
    single, _ = single_letter_ci(p, q)
    assert rep2 / 2 > single
    assert single < 1e-3


# (p, q) points of the batched-engine tests; q = 0 and q = 1 leave groups
# of patterns with zero weight, p = 1/2 dephases completely
ENGINE_POINTS = [(0.11, 0.33), (0.2, 0.0), (0.3, 1.0), (0.5, 0.25)]


@pytest.mark.parametrize("p, q", ENGINE_POINTS)
def test_batched_engine_matches_single_rows_and_oracle(p, q):
    from dephrasure.codes import _ci_evaluator

    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        for ref_dim in (1, 2, 2**n):
            amps = rng.standard_normal((5, ref_dim * 2**n)) + 1j * rng.standard_normal(
                (5, ref_dim * 2**n)
            )
            amps /= np.linalg.norm(amps, axis=1)[:, None]
            batch = _ci_evaluator(n, ref_dim, p, q)(amps)
            assert batch.shape == (5,)
            for row, value in zip(amps, batch):
                code = CodeState(n, ref_dim, row)
                assert value == pytest.approx(multiletter_ci(code, p, q), abs=1e-12)
                assert value == pytest.approx(brute_force_ci(code, p, q), abs=1e-9)


@pytest.mark.parametrize("p, q", ENGINE_POINTS)
def test_batched_engine_matches_repetition_closed_form(p, q):
    from dephrasure.codes import _ci_evaluator

    lams = np.array([0.0, 0.05, 0.3, 0.5, 0.9])
    for n in range(1, 7):
        amps = np.array([repetition_code_state(n, lam).amplitudes for lam in lams])
        batch = _ci_evaluator(n, 2, p, q)(amps)
        for lam, row, value in zip(lams, amps, batch):
            assert value == pytest.approx(repetition_ci(p, q, n, lam), abs=1e-10)
            single = multiletter_ci(CodeState(n, 2, row), p, q)
            assert value == pytest.approx(single, abs=1e-12)


def test_pattern_decompose_block_layout():
    # pattern '01' of a two-use code erases the second use: the block is
    # the reference (x) first-use state, first-use coherences dephased
    rng = np.random.default_rng(5)
    code = _random_code(rng, 2, ref_dim=2)
    p, q = 0.1, 0.2
    blocks = pattern_decompose(code, p, q)
    assert [b.pattern for b in blocks] == ["00", "01", "10", "11"]
    psi = code.amplitudes.reshape(2, 2, 2)
    mat = psi.reshape(4, 2)  # rows (ref, use 1), columns use 2
    expect = (mat @ mat.conj().T) * np.kron(np.ones((2, 2)), [[1, 0.8], [0.8, 1]])
    assert np.allclose(blocks[1].block, expect, atol=1e-15)
    mat = np.transpose(psi, (0, 2, 1)).reshape(4, 2)  # rows (ref, use 2)
    expect = (mat @ mat.conj().T) * np.kron(np.ones((2, 2)), [[1, 0.8], [0.8, 1]])
    assert np.allclose(blocks[2].block, expect, atol=1e-15)


def test_swarm_objectives_map_zero_rows_to_inf():
    from dephrasure.codes import _chi3_objective
    from dephrasure.pso import _full_objective

    rng = np.random.default_rng(9)
    p, q = 0.11, 0.33

    def chi3_row(x):
        return chi3_code(*(x[0::2] + 1j * x[1::2]))

    def full_row(x):
        return normalized_code(2, 4, x[:16] + 1j * x[16:])

    for objective, dim, code_of in (
        (_chi3_objective(p, q), 8, chi3_row),
        (_full_objective(p, q, 2), 32, full_row),
    ):
        x = rng.uniform(-1.0, 1.0, (4, dim))
        x[2] = 0.0
        values = objective(x)
        assert values[2] == np.inf
        for i in (0, 1, 3):
            assert values[i] == pytest.approx(
                -multiletter_ci(code_of(x[i]), p, q), abs=1e-12
            )
        assert np.all(objective(np.zeros((3, dim))) == np.inf)


# (p, q) corners and interior points of the gradient tests
GRADIENT_POINTS = [(p, q) for p in (0.0, 0.11, 0.5) for q in (0.0, 0.33, 1.0)]


def _central_differences(f, x, h=1e-6):
    steps = np.eye(len(x)) * h
    return np.array([(f(x + e) - f(x - e)) / (2 * h) for e in steps])


@pytest.mark.parametrize("p, q", GRADIENT_POINTS)
def test_block_gradient_matches_finite_differences(p, q):
    from dephrasure.codes import _chi3_objective, _chi3_polish_objective, _ci_gradient

    rng = np.random.default_rng(31)
    for n, ref_dim in ((1, 2), (2, 4), (3, 2)):
        size = ref_dim * 2**n
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        amps /= np.linalg.norm(amps)
        value_and_grad = _ci_gradient(n, ref_dim, p, q)
        value, grad = value_and_grad(amps)
        assert value == pytest.approx(
            multiletter_ci(CodeState(n, ref_dim, amps), p, q), abs=1e-12
        )
        # real parameters (Re a, Im a) against Re and Im of the gradient
        x = np.concatenate([amps.real, amps.imag])
        fd = _central_differences(
            lambda y: value_and_grad(y[:size] + 1j * y[size:])[0], x
        )
        assert np.abs(fd - np.concatenate([grad.real, grad.imag])).max() <= 1e-6

    # the chi_3 polish objective, through the normalization and the map
    polish = _chi3_polish_objective(p, q)
    x = rng.uniform(-1.0, 1.0, 8)
    value, grad = polish(x)
    assert value == pytest.approx(_chi3_objective(p, q)(x[None])[0], abs=1e-12)
    assert np.abs(_central_differences(lambda y: polish(y)[0], x) - grad).max() <= 1e-6


@pytest.mark.parametrize("p, q", GRADIENT_POINTS)
def test_zdiag_gradient_matches_finite_differences(p, q):
    from dephrasure.codes import _zdiag_evaluator

    rng = np.random.default_rng(37)
    for n in (1, 2, 3, 4):
        coeffs = rng.standard_normal(2**n)
        coeffs /= np.linalg.norm(coeffs)
        value_and_grad = _zdiag_evaluator(p, q, n)
        value, grad = value_and_grad(coeffs)
        assert value == pytest.approx(
            multiletter_ci(zdiag_code(np.abs(coeffs)), p, q), abs=1e-10
        )
        fd = _central_differences(lambda c: value_and_grad(c)[0], coeffs)
        assert np.abs(fd - grad).max() <= 1e-6


def test_theta_n_rates_rise_with_n_inside_the_bounds():
    # the paper's theta_n per-letter rates at (0.11, 0.33): about
    # 0.01100 < 0.01190 < 0.01253 for n = 2, 3, 4
    from dephrasure.qinfo import binary_entropy

    p, q = 0.11, 0.33
    upper = min(1 - 2 * q, 1 - binary_entropy(p))
    rates = []
    for n in (2, 3, 4):
        value, coeffs = optimize_zdiag(p, q, n, seed=0)
        rate = value / n
        assert repetition_ci_opt(p, q, n)[0] / n <= rate <= upper
        assert multiletter_ci(zdiag_code(coeffs), p, q) == pytest.approx(value, abs=1e-10)
        rates.append(rate)
    assert rates[0] < rates[1] < rates[2]
    assert rates == pytest.approx([0.01100, 0.01190, 0.01253], abs=1e-5)


def _reference_unitary(rng, dim):
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(mat)[0]


def test_schmidt_form_removes_reference_unitaries():
    from dephrasure.codes import schmidt_form

    rng = np.random.default_rng(43)
    for n, ref_dim in ((2, 4), (3, 4), (2, 2)):
        code = _random_code(rng, n, ref_dim)
        mat = code.amplitudes.reshape(ref_dim, 2**n)
        assert len(set(np.round(np.linalg.svd(mat, compute_uv=False), 6))) == ref_dim
        canonical = schmidt_form(code).amplitudes
        rotated = CodeState(
            n, ref_dim, (_reference_unitary(rng, ref_dim) @ mat).reshape(-1)
        )
        assert np.abs(schmidt_form(rotated).amplitudes - canonical).max() <= 1e-12
        assert multiletter_ci(CodeState(n, ref_dim, canonical), 0.11, 0.33) == (
            pytest.approx(multiletter_ci(code, 0.11, 0.33), abs=1e-12)
        )
