import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dephrasure.channel import region_g, single_letter_ci
from dephrasure.codes import (
    CodeState,
    brute_force_ci,
    chi3_code,
    multiletter_ci,
    normalized_code,
    optimize_chi3,
    optimize_code_ci,
    optimize_zdiag,
    pattern_decompose,
    repetition_ci,
    repetition_ci_opt,
    repetition_code_state,
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


@st.composite
def _zdiag_cases(draw):
    """(n, a nonnegative unit c, p, q) with n = 1..4 and (p, q) in [0, 1/2]^2."""
    n = draw(st.integers(1, 4))
    c = draw(hnp.arrays(float, 2**n, elements=st.floats(0.0, 1.0)).filter(
        lambda c: c.sum() > 1e-2
    ))
    return n, c / np.linalg.norm(c), draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_zdiag_cases())
def test_zdiag_fast_path_agrees_with_general(case):
    from dephrasure.codes import _zdiag_ci_fast

    n, coeffs, p, q = case
    fast = _zdiag_ci_fast(coeffs, p, q, n)
    assert fast == pytest.approx(multiletter_ci(zdiag_code(coeffs), p, q), abs=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_zdiag_cases(), st.data())
def test_zdiag_ci_is_invariant_under_xor_relabelling_and_use_permutations(case, data):
    # X^t on the inputs commutes with the channel, and the n uses are alike
    from dephrasure.codes import _zdiag_ci_fast

    n, coeffs, p, q = case
    s = np.arange(2**n)
    t = data.draw(st.integers(0, 2**n - 1))
    order = data.draw(st.permutations(range(n)))
    bits = (s[:, None] >> np.arange(n)) & 1
    permuted = (bits[:, order] << np.arange(n)).sum(axis=1)
    value = _zdiag_ci_fast(coeffs, p, q, n)
    assert abs(_zdiag_ci_fast(coeffs[s ^ t], p, q, n) - value) <= 1e-12
    assert abs(_zdiag_ci_fast(coeffs[permuted], p, q, n) - value) <= 1e-12


def test_zdiag_ci_fast_takes_exactly_one_point():
    from dephrasure.codes import _zdiag_ci_fast

    coeffs = np.array([0.6, 0.0, 0.0, 0.8])
    one = _zdiag_ci_fast(coeffs, 0.1, 0.3, 2)
    assert type(one) is float
    for p, q in (([0.1], 0.3), (0.1, np.array([0.3]))):
        assert np.float64(_zdiag_ci_fast(coeffs, p, q, 2)).tobytes() == np.float64(one).tobytes()
    # two points are refused as numpy refuses a size-2 array as one scalar,
    # not valued at the first
    size_1 = r"^can only convert an array of size 1 to a Python scalar$"
    for p, q in (([0.1, 0.2], 0.3), (0.1, [0.3, 0.35])):
        with pytest.raises(ValueError, match=size_1):
            _zdiag_ci_fast(coeffs, p, q, 2)


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


def test_stacked_engine_rows_have_the_bits_of_one_code_calls():
    # rows at mixed points, the q = 0 and q = 1 ones included, where whole
    # groups of patterns have weight 0 and are skipped row by row
    from dephrasure.codes import _ci_evaluator

    rng = np.random.default_rng(47)
    points = np.array(ENGINE_POINTS + [(0.07, 0.41), (0.0, 0.2)])
    for n in range(1, 7):
        ref_dim = 2**n if n <= 3 else 2
        size = ref_dim * 2**n
        amps = rng.standard_normal((12, size)) + 1j * rng.standard_normal((12, size))
        amps /= np.linalg.norm(amps, axis=1)[:, None]
        at = rng.permutation(np.arange(12) % len(points))
        values = _ci_evaluator(n, ref_dim, points[:, 0], points[:, 1])(amps, at)
        for row, i, value in zip(amps, at, values):
            assert value == multiletter_ci(CodeState(n, ref_dim, row), *points[i])


@pytest.mark.parametrize("rows_per_block", [None, 2])
def test_stacked_brute_force_rows_have_the_bits_of_one_code_calls(rows_per_block, monkeypatch):
    # None: the suite's blocks, every row at n <= 2 and one at n = 3
    from dephrasure import codes

    rng = np.random.default_rng(53)
    for n in (1, 2, 3):
        if rows_per_block:
            row_bytes = codes._brute_force_row_bytes(n)
            monkeypatch.setattr(codes, "_STACK_BYTES", 2 * row_bytes * rows_per_block)
        found = [_random_code(rng, n) for _ in range(5)]
        p, q = rng.uniform(0.0, 0.5, (2, 5))
        p[0], q[1], q[2] = 0.5, 0.0, 1.0
        values = codes._brute_force_rows(n, np.array([c.input_state() for c in found]), p, q)
        assert list(values) == [brute_force_ci(c, pi, qi) for c, pi, qi in zip(found, p, q)]


def _raised(call, *args):
    with pytest.raises(ValueError) as raised:
        call(*args)
    return str(raised.value)


def test_stacked_brute_force_rows_raise_the_first_bad_rows_one_code_error():
    # the one-code route of a row: its point's tensor-power KrausSet on
    # its state; a row that fails a check raises that call's error, and
    # an earlier row's error comes first whichever check it fails
    from dephrasure.channel import dephrasure_kraus
    from dephrasure.codes import _brute_force_rows
    from dephrasure.qinfo import coherent_information, tensor_kraus

    def one_code(p, q, rho):
        kraus = dephrasure_kraus(p, q)
        return coherent_information(tensor_kraus(kraus, kraus), rho)

    rng = np.random.default_rng(59)
    states = np.array([_random_code(rng, 2).input_state() for _ in range(4)])
    p, q = np.full(4, 0.1), np.full(4, 0.2)
    trace, nonhermitian, negative = states.copy(), states.copy(), states.copy()
    trace[2] *= 1.5
    nonhermitian[1, 0, 1] += 1e-3
    negative[2] = np.diag([0.7, 0.4, 0.0, -0.1])
    bad_p, bad_q = p.copy(), q.copy()
    bad_p[1], bad_q[2] = 1.5, -0.25
    for rows, row in (((trace, p, q), 2), ((nonhermitian, p, q), 1), ((negative, p, q), 2),
                      ((states, bad_p, q), 1), ((states, p, bad_q), 2),
                      ((trace, bad_p, q), 1), ((nonhermitian, p, bad_q), 1)):
        rho, pp, qq = rows
        expected = _raised(one_code, pp[row], qq[row], rho[row])
        assert _raised(_brute_force_rows, 2, rho, pp, qq) == expected


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


def _search_objectives(p, q):
    """(objective, parameter count, parameters -> code) of the chi_3 and
    the full n = 2 searches."""
    from dephrasure.codes import _chi3_map, _code_objective

    return [
        (_code_objective(3, 4, p, q, _chi3_map()), 8,
         lambda x: chi3_code(*(x[0::2] + 1j * x[1::2]))),
        (_code_objective(2, 4, p, q, np.eye(16)), 32,
         lambda x: normalized_code(2, 4, x[0::2] + 1j * x[1::2])),
    ]


def test_code_objective_maps_zero_to_inf():
    rng = np.random.default_rng(9)
    p, q = 0.11, 0.33
    for objective, dim, code_of in _search_objectives(p, q):
        xs = rng.uniform(-1.0, 1.0, (3, dim))
        values, grads = objective(xs)
        assert values.shape == (3,) and grads.shape == xs.shape
        for x, value in zip(xs, values):
            assert value == pytest.approx(-multiletter_ci(code_of(x), p, q), abs=1e-12)
        value, grad = objective(np.zeros((1, dim)))
        assert value[0] == np.inf
        assert np.array_equal(grad, np.zeros((1, dim)))
        # a zero row inside a stack leaves the other rows' bits as they are
        mixed = np.insert(xs, 1, 0.0, axis=0)
        mixed_values, mixed_grads = objective(mixed)
        assert mixed_values[1] == np.inf
        assert np.array_equal(mixed_grads[1], np.zeros(dim))
        assert np.array_equal(np.delete(mixed_values, 1), values)
        assert np.array_equal(np.delete(mixed_grads, 1, axis=0), grads)


# (p, q) corners and interior points of the gradient tests
GRADIENT_POINTS = [(p, q) for p in (0.0, 0.11, 0.5) for q in (0.0, 0.33, 1.0)]


def _central_differences(f, x, h=1e-6):
    """Central differences at x of f, which maps a stack of points to
    their values: every displaced point is one row of a stack."""
    steps = np.eye(len(x)) * h
    return (f(x + steps) - f(x - steps)) / (2 * h)


@pytest.mark.parametrize("p, q", GRADIENT_POINTS)
def test_block_gradient_matches_finite_differences(p, q):
    from dephrasure.codes import _ci_gradient

    rng = np.random.default_rng(31)
    for n, ref_dim in ((1, 2), (2, 4), (3, 2)):
        size = ref_dim * 2**n
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        amps /= np.linalg.norm(amps)
        value_and_grad = _ci_gradient(n, ref_dim, p, q)
        (value,), (grad,) = value_and_grad(amps[None])
        assert value == pytest.approx(
            multiletter_ci(CodeState(n, ref_dim, amps), p, q), abs=1e-12
        )
        # real parameters (Re a, Im a) against Re and Im of the gradient,
        # every displaced point a row of one stack
        x = np.concatenate([amps.real, amps.imag])
        fd = _central_differences(
            lambda ys: value_and_grad(ys[:, :size] + 1j * ys[:, size:])[0], x
        )
        assert np.abs(fd - np.concatenate([grad.real, grad.imag])).max() <= 1e-6

    # the search objectives, through the normalization and the linear map
    for objective, dim, code_of in _search_objectives(p, q):
        x = rng.uniform(-1.0, 1.0, dim)
        (value,), (grad,) = objective(x[None])
        assert value == pytest.approx(-multiletter_ci(code_of(x), p, q), abs=1e-12)
        fd = _central_differences(lambda ys: objective(ys)[0], x)
        assert np.abs(fd - grad).max() <= 1e-6


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


def _entropy_and_log2(rho):
    evals, vecs = np.linalg.eigh(rho)
    evals = np.maximum(evals, 0.0)
    logs = np.log2(np.where(evals > 0, evals, 1.0))
    return -float(evals @ logs), (vecs * logs) @ vecs.conj().T


def _full_block_ci(amps, n, ref_dim, p, q):
    """Coherent information of one code and its gradient from the full
    (ref_dim 2^m)-dim pattern blocks rho = (M M^dagger) o (1_ref (x) D),
    one pattern at a time: the reference for the environment-side route."""
    index = np.arange(amps.size).reshape([ref_dim] + [2] * n)
    value, grad = 0.0, np.zeros(amps.shape, dtype=complex)
    for bits in product((0, 1), repeat=n):
        erased = [j + 1 for j, b in enumerate(bits) if b]
        survivors = [j + 1 for j, b in enumerate(bits) if not b]
        weight = q ** len(erased) * (1 - q) ** len(survivors)
        if weight == 0.0:
            continue
        m = 2 ** len(survivors)
        gather = np.transpose(index, [0] + survivors + erased).reshape(ref_dim * m, -1)
        mat = amps[gather]
        dist = [[bin(x ^ y).count("1") for y in range(m)] for x in range(m)]
        dephasing = (1 - 2 * p) ** np.array(dist)
        mask = np.kron(np.ones((ref_dim, ref_dim)), dephasing)
        block = (mat @ mat.conj().T) * mask
        inputs = np.trace(block.reshape(ref_dim, m, ref_dim, m), axis1=0, axis2=2)
        block_entropy, block_log = _entropy_and_log2(block)
        input_entropy, input_log = _entropy_and_log2(inputs)
        value += weight * (input_entropy - block_entropy)
        part = (block_log * mask) @ mat - np.kron(
            np.eye(ref_dim), input_log * dephasing
        ) @ mat
        np.add.at(grad, gather, 2 * weight * part)
    return value, grad


@pytest.mark.parametrize("p, q", GRADIENT_POINTS)
def test_environment_side_entropies_match_full_blocks(p, q):
    # ref_dim = 1 takes every block entropy on the block side, ref_dim =
    # 2^n every one but the all-erased pattern's on the 2^n-dim
    # environment side, ref_dim = 2 only the no-erasure pattern's there.
    # At ref_dim = 2^n the reference's no-erasure block is 4^n-dim (4096
    # at n = 6), so that case stops at n = 4
    from dephrasure.codes import _ci_evaluator, _ci_gradient

    rng = np.random.default_rng(43)
    for n in range(1, 7):
        for ref_dim in sorted({1, 2, 2**n} if n <= 4 else {1, 2}):
            size = ref_dim * 2**n
            amps = rng.standard_normal((3, size)) + 1j * rng.standard_normal((3, size))
            amps /= np.linalg.norm(amps, axis=1)[:, None]
            values = _ci_evaluator(n, ref_dim, p, q)(amps)
            grad_values, grads = _ci_gradient(n, ref_dim, p, q)(amps)
            for row, batched, value, grad in zip(amps, values, grad_values, grads):
                ref_value, ref_grad = _full_block_ci(row, n, ref_dim, p, q)
                assert abs(batched - ref_value) <= 1e-12
                assert abs(value - ref_value) <= 1e-12
                assert np.abs(grad - ref_grad).max() <= 1e-12


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


@pytest.mark.parametrize("p, q", [(0.11, 0.33), (0.1149, 0.3447)])
def test_theta4_matches_the_full_tensor_oracle(p, q):
    value, coeffs = optimize_zdiag(p, q, 4, seed=0)
    assert abs(brute_force_ci(zdiag_code(coeffs), p, q) - value) <= 1e-12


def test_brute_force_rejects_n_above_its_limit():
    code = _random_code(np.random.default_rng(47), 5, ref_dim=1)
    with pytest.raises(ValueError, match="n <= 4"):
        brute_force_ci(code, 0.11, 0.33)


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


def test_optimize_code_ci_n2_recovers_repetition():
    value, code = optimize_code_ci(0.11, 0.33, 2)
    rep, _ = repetition_ci_opt(0.11, 0.33, 2)
    assert value >= rep - 1e-6
    assert code.n_uses == 2
    assert multiletter_ci(code, 0.11, 0.33) == pytest.approx(value, abs=1e-8)


def test_optimize_code_ci_full_keeps_its_warm_starts_values():
    # the search starts from the theta_2 code, but scores it with the
    # block engine, a few ulps below optimize_zdiag's own value
    p, q, seed = 0.1149, 0.3447, 1
    value, code = optimize_code_ci(p, q, 2, seed=seed, n_starts=2)
    assert value >= optimize_zdiag(p, q, 2, seed=seed, n_starts=8)[0]
    assert value >= repetition_ci_opt(p, q, 2)[0]
    assert multiletter_ci(code, p, q) == pytest.approx(value, abs=1e-12)


def test_optimize_code_ci_chi3_requires_n3():
    with pytest.raises(ValueError):
        optimize_code_ci(0.1, 0.3, 2, parametrization="chi3")


def test_optimize_code_ci_chi3_runs():
    value, code = optimize_code_ci(
        0.11, 0.33, 3, parametrization="chi3", seed=0, n_starts=2, max_iterations=80
    )
    assert code.n_uses == 3
    assert code.ref_dim == 4
    assert multiletter_ci(code, 0.11, 0.33) == pytest.approx(value, abs=1e-8)


def test_optimize_chi3_reaches_the_best_known_value():
    p, q = 0.10, 0.30
    value, coeffs = optimize_chi3(p, q)
    assert value >= 0.157137147313
    assert abs(brute_force_ci(chi3_code(*coeffs), p, q) - value) <= 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_full_three_use_search_reaches_chi3(seed):
    # the chi_3 codes are full 3-use codes of Schmidt rank 4, and the full
    # search starts from optimize_chi3's code at its seed
    p, q = 0.1149, 0.3447
    assert optimize_code_ci(p, q, 3, seed=seed)[0] >= optimize_chi3(p, q, seed=seed)[0] - 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_full_code_search_leaves_the_z_diagonal_family(n):
    # theta_2 reaches 0.0016471828395 here, 9.0e-9 below the best full
    # n = 2 code, whose Schmidt rank is 3; the full n = 3 codes contain
    # theta_3
    p, q = 0.1149, 0.3447
    floor = 0.0016471918155 - 1e-15 if n == 2 else optimize_zdiag(p, q, 3)[0]
    value, code = optimize_code_ci(p, q, n)
    assert value >= floor
    assert abs(brute_force_ci(code, p, q) - value) <= 1e-12


# (p, q, interior): two interior points and one on q = 3p near the
# thresholds, where every rate is about 1e-5
BOUND_POINTS = [(0.11, 0.33, True), (0.2, 0.1, True), (0.118, 0.354, False)]


@pytest.mark.parametrize("p, q, interior", BOUND_POINTS)
def test_search_rates_lie_between_repetition_and_the_degradable_bounds(p, q, interior):
    from dephrasure.qinfo import binary_entropy

    # the channel is erasure o dephasing and dephasing o erasure, both
    # degradable, so no code beats either factor's capacity
    upper = min(max(0.0, 1 - 2 * q), 1 - binary_entropy(p)) + 1e-12

    def repetition(n):
        return repetition_ci_opt(p, q, n)[0] / n - 1e-12

    # theta_n with the 8 starts of the full search's warm start: the
    # default 32 starts cost up to 1.5 s at n = 4
    for n in (2, 3, 4):
        assert repetition(n) <= optimize_zdiag(p, q, n, n_starts=8)[0] / n <= upper
    for n in (1, 2, 3):
        assert repetition(n) <= optimize_code_ci(p, q, n)[0] / n <= upper
    # the chi_3 family holds no repetition code: near the thresholds its
    # best is negative (-0.00143 per letter at (0.118, 0.354))
    chi3 = optimize_chi3(p, q)[0] / 3
    assert chi3 <= upper
    if interior:
        assert chi3 >= repetition(3)


def _zdiag_starts(p, q, n, seed=0, n_starts=32):
    """optimize_zdiag's starts: the repetition warm start, then the draws."""
    lam = repetition_ci_opt(p, q, n)[1]
    warm = np.zeros(2**n)
    warm[0], warm[-1] = np.sqrt(lam), np.sqrt(1 - lam)
    rng = np.random.default_rng(seed)
    return [warm] + [np.abs(rng.standard_normal(2**n)) for _ in range(n_starts)]


def _scipy_zdiag_reference(p, q, n):
    """The theta_n search before the lockstep L-BFGS: scipy's L-BFGS-B from
    each start in turn, on one-row calls of the evaluator."""
    from scipy.optimize import minimize

    from dephrasure.codes import _LBFGS_OPTIONS, _zdiag_evaluator

    evaluate = _zdiag_evaluator(p, q, n)

    def objective(w):
        norm = np.linalg.norm(w)
        coeffs = w / norm
        value, grad = evaluate(coeffs)
        return -value, (coeffs * (coeffs @ grad) - grad) / norm

    best = min(
        minimize(objective, start, jac=True, method="L-BFGS-B", options=_LBFGS_OPTIONS).fun
        for start in _zdiag_starts(p, q, n)
    )
    return max(repetition_ci_opt(p, q, n)[0], -best)


# below k(p), where theta_n is searched: on q = 3p near the thresholds,
# at the diagonal point where theta4 beats theta3, and off the diagonal
SEARCH_POINTS = [
    (0.11, 0.33), (0.1149, 0.3447), (0.118, 0.354),
    (0.0859375, 0.34375), (0.2, 0.1), (0.05, 0.2),
]


@pytest.mark.parametrize("p, q", SEARCH_POINTS)
def test_lockstep_search_reaches_the_scipy_reference(p, q):
    for n in (2, 3):
        assert optimize_zdiag(p, q, n)[0] >= _scipy_zdiag_reference(p, q, n) - 1e-12


def _full_starts(p, q, n, seed=0, n_starts=2):
    """The full search's repetition warm start, then seeded draws."""
    from dephrasure.codes import _embed_code, _uniform_starts

    rep = repetition_code_state(n, repetition_ci_opt(p, q, n)[1])
    return [_embed_code(rep, 2**n, n)] + _uniform_starts(seed, n_starts, 2 * 4**n)


@pytest.mark.parametrize("p, q, n", [(0.11, 0.33, 2), (0.1149, 0.3447, 3), (0.2, 0.1, 3)])
def test_lockstep_rows_do_not_depend_on_their_stack(p, q, n):
    from dephrasure.codes import (
        _chi3_map, _chi3_starts, _code_objective, _lockstep_lbfgs, _zdiag_objective,
    )

    searches = [
        (_zdiag_objective(p, q, n), _zdiag_starts(p, q, n)),
        (_code_objective(3, 4, p, q, _chi3_map()), _chi3_starts(0, 2)),
        (_code_objective(n, 2**n, p, q, np.eye(4**n)), _full_starts(p, q, n)),
    ]
    runs = []
    for objective, starts in searches:
        # one call on the stack, and each row alone in a one-row stack
        values, grads = objective(np.array(starts))
        for i, start in enumerate(starts):
            (value,), (grad,) = objective(start[None])
            assert value == values[i]
            assert np.array_equal(grad, grads[i])
        funs, points = _lockstep_lbfgs(objective, starts)
        for i, start in enumerate(starts):
            fun, point = _lockstep_lbfgs(objective, [start])
            assert fun[0] == funs[i]
            assert np.array_equal(point[0], points[i])
        runs.append((funs, points))
    # the searches return the first of the lowest, or the warm start's value
    (funs, points), (chi3_funs, chi3_points) = runs[:2]
    value, coeffs = optimize_zdiag(p, q, n)
    best = points[np.argmin(funs)]
    if value != repetition_ci_opt(p, q, n)[0]:
        assert value == -funs.min()
        assert np.array_equal(coeffs, np.abs(best) / np.linalg.norm(best))
    value, coeffs = optimize_chi3(p, q)
    best = chi3_points[np.argmin(chi3_funs)]
    best = best[0::2] + 1j * best[1::2]
    assert value == -chi3_funs.min()
    assert np.array_equal(coeffs, best / np.linalg.norm(best))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_zdiag_rows_equal_one_row_calls(n, monkeypatch):
    from dephrasure import codes

    rows = np.abs(np.random.default_rng(n).standard_normal((9, 2**n)))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    for p, q in ((0.11, 0.33), (0.2, 0.0)):
        evaluate = codes._zdiag_evaluator(p, q, n)
        values, grads = evaluate(rows)
        assert values.shape == (9,) and grads.shape == rows.shape
        for row, value, grad in zip(rows, values, grads):
            one_value, one_grad = evaluate(row)
            assert type(one_value) is float
            assert one_value == value
            assert np.array_equal(one_grad, grad)
        part_values, part_grads = evaluate(rows[2:5])
        assert np.array_equal(part_values, values[2:5])
        assert np.array_equal(part_grads, grads[2:5])
        # the objective hands the evaluator its rows in blocks: all nine
        # at once, and in blocks of two rows, as a large n takes them (a
        # row holds four arrays the size of its largest group's blocks)
        evaluator = codes._zdiag_evaluator
        objectives = []
        for stack_bytes, blocks in ((codes._STACK_BYTES, [9]),
                                    (2 * codes._zdiag_row_bytes(n), [2, 2, 2, 2, 1])):
            calls = []

            def recorded(*point):
                value_and_grad = evaluator(*point)

                def counted(rows, points=None):
                    calls.append(len(rows))
                    return value_and_grad(rows, points)

                return counted

            with monkeypatch.context() as patch:
                patch.setattr(codes, "_STACK_BYTES", stack_bytes)
                patch.setattr(codes, "_zdiag_evaluator", recorded)
                objectives.append(codes._zdiag_objective(p, q, n)(rows))
            assert calls == blocks
        (values, grads), (block_values, block_grads) = objectives
        assert np.array_equal(block_values, values)
        assert np.array_equal(block_grads, grads)


# points of the mixed stacks: searched points, q = 0 (one pattern keeps
# its weight), a q at which every pattern erasing two or more uses has
# weight 0, q = k(p), antidegradable points, p = 1/2 and q = 1/2
MIXED_POINTS = [
    (0.11, 0.33), (0.2, 0.0), (0.118, 1e-200), (0.3, 0.4 / 1.4), (0.2, 0.45),
    (0.5, 0.1), (0.05, 0.5), (0.0, 0.2), (0.5, 0.0),
]


def _mixed_orders():
    """Orders of MIXED_POINTS to stack: as listed, reversed, shuffled."""
    listed = np.arange(len(MIXED_POINTS))
    return [listed, listed[::-1], np.random.default_rng(59).permutation(listed)]


def test_stacked_evaluators_give_each_row_its_one_point_bits(monkeypatch):
    from dephrasure import codes

    rng = np.random.default_rng(61)
    # q = 1 keeps only the all-erased pattern; the searches stop at 1/2
    points = np.array(MIXED_POINTS + [(0.3, 1.0)])
    p, q = points.T
    for n in (1, 2, 3, 4):
        rows = np.abs(rng.standard_normal((3 * len(points), 2**n)))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        owner = rng.permutation(np.repeat(np.arange(len(points)), 3))
        values, grads = codes._zdiag_evaluator(p, q, n)(rows, owner)
        for row, at, value, grad in zip(rows, owner, values, grads):
            one_value, one_grad = codes._zdiag_evaluator(*points[at], n)(row)
            assert one_value == value
            assert np.array_equal(one_grad, grad)
        _assert_blocks_keep_the_bits(
            lambda owner: codes._zdiag_objective(p, q, n, owner), rows, owner, monkeypatch
        )
    for n, ref_dim in ((1, 2), (2, 4), (3, 4), (3, 8)):
        size = ref_dim * 2**n
        amps = rng.standard_normal((2 * len(points), size)) + 1j * rng.standard_normal(
            (2 * len(points), size)
        )
        amps /= np.linalg.norm(amps, axis=1)[:, None]
        owner = rng.permutation(np.repeat(np.arange(len(points)), 2))
        values, grads = codes._ci_gradient(n, ref_dim, p, q)(amps, owner)
        for row, at, value, grad in zip(amps, owner, values, grads):
            (one_value,), (one_grad,) = codes._ci_gradient(n, ref_dim, *points[at])(row[None])
            assert one_value == value
            assert np.array_equal(one_grad, grad)
        _assert_blocks_keep_the_bits(
            lambda owner: codes._code_objective(n, ref_dim, p, q, np.eye(size), owner),
            amps.view(float), owner, monkeypatch,
        )


def _assert_blocks_keep_the_bits(objective_of, rows, owner, monkeypatch):
    """The objective ``objective_of(owner)`` of mixed-point rows gives
    the same bits evaluated in blocks of one row as in one block."""
    from dephrasure import codes

    starts = np.arange(len(rows))
    values, grads = objective_of(owner)(rows, starts)
    with monkeypatch.context() as patch:
        patch.setattr(codes, "_STACK_BYTES", 1)
        block_values, block_grads = objective_of(owner)(rows, starts)
    assert np.array_equal(block_values, values)
    assert np.array_equal(block_grads, grads)


def _one_point_tables(n, p, q):
    """(weight, survivors' mask, survivors' Kraus roots) of each group
    erasing k = 0..n uses at one point, from its scalar p and q: q^k
    (1-q)^(n-k) as Python floats take it, (1-2p)^d as numpy takes it at
    the Hamming distances d, and sqrt(p^|s| (1-p)^(m-|s|)) as numpy takes
    it at the Hamming weights |s| of the m = n - k survivors."""
    tables = []
    for k in range(n + 1):
        idx = np.arange(2 ** (n - k))
        distance, flips = np.bitwise_count(idx[:, None] ^ idx), np.bitwise_count(idx)
        tables.append((q**k * (1 - q) ** (n - k), (1.0 - 2.0 * p) ** distance,
                       np.sqrt(p**flips * (1 - p) ** (n - k - flips))))
    return tables


def test_zdiag_tables_have_the_bits_of_one_point_builds():
    from dephrasure import codes

    # p = 0, subnormal and tiny p, and p = 1/2 (1 - 2p = 1, 1, 1 and 0);
    # q = 0, 1/2 and 1, a subnormal and a tiny q, whose weights underflow
    # past the first group or two, and q one ulp below 1, each in a stack
    # with searched points
    points = np.array([(0.0, 0.2), (5e-324, 0.3), (0.5, 0.1), (0.11, 0.0),
                       (0.2, 0.5), (0.11, 0.33), (1e-300, 1e-300), (0.3, 1.0),
                       (0.4, 5e-324), (0.25, 1 - 1e-16)])
    p, q = points.T
    rng = np.random.default_rng(71)
    for n in range(1, 7):
        # the tables do not depend on the plan's reference dimension
        for ref_dim in (1, 2, 8):
            tables = codes._point_tables(n, ref_dim, p, q)
            assert [group.erased for group, *_ in tables] == list(range(n + 1))
            for i, (pi, qi) in enumerate(points.tolist()):
                one_point = _one_point_tables(n, pi, qi)
                for (_, weights, masks, roots), (weight, mask, root) in zip(tables, one_point):
                    assert np.float64(weight).tobytes() == weights[i].tobytes()
                    for table, array in ((masks, mask), (roots, root)):
                        assert table[i].dtype == array.dtype and table[i].shape == array.shape
                        assert table[i].tobytes() == array.tobytes()
        # each row of a stack takes its own point's tables
        rows = np.abs(rng.standard_normal((12, 2**n)))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        owner = rng.permutation(np.arange(len(rows)) % len(points))
        values, grads = codes._zdiag_evaluator(p, q, n)(rows, owner)
        for row, at, value, grad in zip(rows, owner, values, grads):
            one_value, one_grad = codes._zdiag_evaluator(*points[at], n)(row)
            assert one_value == value
            assert np.array_equal(one_grad, grad)


def test_stacked_tables_raise_the_first_bad_points_error():
    from dephrasure import codes
    from dephrasure.channel import dephrasure_kraus

    # point 1 fails on q, point 2 on p: C order decides, then p before q
    p, q = np.array([0.1, 0.3, 1.5]), np.array([0.2, 1.5, 0.2])
    with pytest.raises(ValueError) as one_point:
        dephrasure_kraus(0.3, 1.5)
    for n, ref_dim in ((1, 1), (3, 8)):
        with pytest.raises(ValueError) as stacked:
            codes._point_tables(n, ref_dim, p, q)
        assert str(stacked.value) == str(one_point.value) == "q = 1.5 outside [0, 1.0]"
    q[1:] = 0.2, 2.0  # point 2 fails on both
    with pytest.raises(ValueError, match=r"^p = 1\.5 outside \[0, 1\.0\]$"):
        codes._point_tables(2, 1, p, q)


def test_repetition_ci_checks_lambda_with_each_points_p_q_and_n():
    # point 0 fails on lambda, point 1 on p: C order decides, as a loop
    # of one-point calls would
    with pytest.raises(ValueError, match=r"^lambda outside \[0, 1\]$"):
        repetition_ci([0.1, 0.7], 0.3, 2, [2.0, 0.5])
    with pytest.raises(ValueError, match=r"^p = 0\.7 outside \[0, 0\.5\]$"):
        repetition_ci([0.1, 0.7], 0.3, 2, [0.5, 2.0])
    lam = np.array([[0.1], [0.4]])
    values = repetition_ci([0.1, 0.3], 0.3, 2, lam)
    assert values.shape == (2, 2)
    assert values.tolist() == [[repetition_ci(p, 0.3, 2, w) for p in (0.1, 0.3)]
                               for w in (0.1, 0.4)]
    assert type(repetition_ci(0.1, 0.3, 2, 0.4)) is float


def test_zero_weight_groups_are_skipped_row_by_row(monkeypatch):
    from dephrasure import codes

    eigh, shapes = codes._hermitian_eigh, []

    def recorded(blocks, *args):
        shapes.append(blocks.shape)
        return eigh(blocks, *args)

    monkeypatch.setattr(codes, "_hermitian_eigh", recorded)
    rng = np.random.default_rng(67)
    # the groups of nonzero weight: q = 0 keeps the one erasing nothing; at
    # q = 1e-200 (1e-120) every group erasing two (three) or more uses has
    # weight 0; q = 1 keeps the all-erased group alone, whose 1 x 1 blocks
    # take no eigh
    kept = {0.0: [0], 1e-200: [0, 1], 1e-120: [0, 1, 2], 0.33: None, 1.0: []}
    for n in (1, 2, 3, 4):
        rows = np.abs(rng.standard_normal((2 * len(kept), 2**n)))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        owner = np.arange(len(rows)) % len(kept)
        q = np.array(list(kept))
        groups = [range(n) if ks is None else [k for k in ks if k < n] for ks in kept.values()]
        for i, qi in enumerate(q):
            shapes.clear()
            codes._zdiag_evaluator(0.2, qi, n)(rows)
            assert shapes == [
                (len(rows), math.comb(n, k), 2**k, 2 ** (n - k), 2 ** (n - k)) for k in groups[i]
            ]
        # in a stack, a group's blocks are those of the rows that weigh it
        shapes.clear()
        codes._zdiag_evaluator(np.full(len(q), 0.2), q, n)(rows, owner)
        weighing = [sum(2 for ks in groups if k in ks) for k in range(n)]
        assert shapes == [
            (count, math.comb(n, k), 2**k, 2 ** (n - k), 2 ** (n - k))
            for k, count in enumerate(weighing) if count
        ]


def _block_sizes(n, ref_dim, groups):
    """The sizes of the block sides and input parts of the groups erasing
    k uses, k in ``groups``: a side is 2^n-dim (the Gram side) where
    ref_dim > 2^k, else ref_dim 2^(n-k); an input part 2^(n-k)."""
    return {2**n if ref_dim > 2**k else ref_dim * 2 ** (n - k) for k in groups} | {
        2 ** (n - k) for k in groups
    }


def test_size_merged_engines_keep_each_rows_bits_where_groups_drop_out(monkeypatch):
    from dephrasure import codes

    eigh, shapes = codes._hermitian_eigh, []

    def recorded(stack, *args, **kwargs):
        shapes.append(stack.shape)
        return eigh(stack, *args, **kwargs)

    monkeypatch.setattr(codes, "_hermitian_eigh", recorded)
    rng = np.random.default_rng(79)
    # the weighted groups at each q, as in the theta_n test above: q = 1
    # keeps the all-erased group alone, whose 1 x 1 input parts take the
    # closed form inside _hermitian_eigh
    kept = {0.0: [0], 1e-200: [0, 1], 1e-120: [0, 1, 2], 0.33: None, 1.0: None}
    q = np.array(list(kept))
    for n, ref_dim in ((1, 2), (2, 4), (3, 4), (3, 8), (4, 2)):
        groups = [range(n + 1) if ks is None else [k for k in ks if k <= n] for ks in kept.values()]
        groups[-1] = [n]
        size = ref_dim * 2**n
        amps = rng.standard_normal((2 * len(q), size)) + 1j * rng.standard_normal(
            (2 * len(q), size)
        )
        amps /= np.linalg.norm(amps, axis=1)[:, None]
        owner = rng.permutation(np.arange(len(amps)) % len(q))
        p = np.full(len(q), 0.2)
        everyone = set().union(*groups)
        shapes.clear()
        values, grads = codes._ci_gradient(n, ref_dim, p, q)(amps, owner)
        assert len(shapes) == len(_block_sizes(n, ref_dim, everyone))
        assert {shape[-1] for shape in shapes} == _block_sizes(n, ref_dim, everyone)
        shapes.clear()
        evaluated = codes._ci_evaluator(n, ref_dim, p, q)(amps, owner)
        assert len(shapes) == len(_block_sizes(n, ref_dim, everyone))
        for row, at, value, grad, evaluated_value in zip(amps, owner, values, grads, evaluated):
            want = len(_block_sizes(n, ref_dim, groups[at]))
            shapes.clear()
            (one_value,), (one_grad,) = codes._ci_gradient(n, ref_dim, 0.2, q[at])(row[None])
            assert len(shapes) == want
            assert one_value == value
            assert np.array_equal(one_grad, grad)
            shapes.clear()
            assert multiletter_ci(CodeState(n, ref_dim, row), 0.2, q[at]) == evaluated_value
            assert len(shapes) == want


def test_ci_row_bytes_bounds_what_a_row_holds_with_every_group_staged():
    import tracemalloc

    from dephrasure import codes

    # a call stages every group's block sides and input parts before its
    # eigendecompositions; the objectives size their blocks of rows by
    # this bound
    rng = np.random.default_rng(83)
    rows = 16
    for n, ref_dim in ((2, 4), (3, 4), (3, 8), (4, 2)):
        size = ref_dim * 2**n
        amps = rng.standard_normal((rows, size)) + 1j * rng.standard_normal((rows, size))
        amps /= np.linalg.norm(amps, axis=1)[:, None]
        value_and_grad = codes._ci_gradient(n, ref_dim, 0.11, 0.33)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            value_and_grad(amps)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= rows * codes._ci_row_bytes(n, ref_dim)


def test_zdiag_evaluator_matches_the_general_block_engine():
    from dephrasure import codes

    # p = 0, p = 1/2, q = 0, a subnormal p and q = 1e-300 in one stack
    points = np.array([(0.0, 0.2), (0.5, 0.1), (0.11, 0.0), (5e-324, 0.3),
                       (0.3, 1e-300), (0.11, 0.33)])
    p, q = points.T
    rng = np.random.default_rng(73)
    for n in range(1, 7):
        rows = rng.standard_normal((len(points), 2**n))
        if n > 4:  # zdiag_code takes nonnegative coefficients
            rows = np.abs(rows)
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        owner = rng.permutation(len(points))
        values, grads = codes._zdiag_evaluator(p, q, n)(rows, owner)
        if n <= 4:  # sum_s c_s |s>|s> in reference dimension 2^n
            diagonal = np.arange(2**n) * (2**n + 1)
            amps = np.zeros((len(rows), 4**n), dtype=complex)
            amps[:, diagonal] = rows
            ref_values, ref_grads = codes._ci_gradient(n, 2**n, p, q)(amps, owner)
            assert np.abs(values - ref_values).max() <= 1e-13
            assert np.abs(grads - ref_grads[:, diagonal].real).max() <= 1e-12
        else:
            ref_values = [multiletter_ci(zdiag_code(row), *points[at])
                          for row, at in zip(rows, owner)]
            assert np.abs(values - ref_values).max() <= 1e-13


def test_theta_search_reaches_n_limit():
    from dephrasure.codes import N_LIMIT

    p, q = 0.11, 0.33
    value, coeffs = optimize_zdiag(p, q, N_LIMIT, n_starts=2)
    assert coeffs.shape == (2**N_LIMIT,)
    assert value == pytest.approx(multiletter_ci(zdiag_code(coeffs), p, q), abs=1e-12)
    assert value >= repetition_ci_opt(p, q, N_LIMIT)[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mixed_point_searches_equal_one_point_searches(n, monkeypatch):
    from dephrasure import codes

    p, q = np.array(MIXED_POINTS).T
    zdiag = [optimize_zdiag(*point, n, n_starts=4) for point in MIXED_POINTS]
    chi3 = [optimize_chi3(*point, n_starts=1) for point in MIXED_POINTS] if n == 3 else []
    # a point's starts may share a lockstep run with other points' or be
    # split across two: at the larger budget every point's starts run at
    # once, at the smaller a run holds seven rows of 2^n parameters and a
    # point has five starts (chi_3's 8 parameters are theta_3's 2^3)
    seven_rows = 7 * 8 * 2**n * (4 * codes._LBFGS_MEMORY + 16)
    for stack_bytes in (2**30, seven_rows):
        monkeypatch.setattr(codes, "_STACK_BYTES", stack_bytes)
        for order in _mixed_orders():
            values, coeffs = optimize_zdiag(p[order], q[order], n, n_starts=4)
            assert values.shape == (len(order),) and coeffs.shape == (len(order), 2**n)
            for i, value, coeff in zip(order, values, coeffs):
                assert value == zdiag[i][0]
                assert np.array_equal(coeff, zdiag[i][1])
            if chi3:
                values, coeffs = optimize_chi3(p[order], q[order], n_starts=1)
                assert values.shape == (len(order),) and coeffs.shape == (len(order), 4)
                for i, value, coeff in zip(order, values, coeffs):
                    assert value == chi3[i][0]
                    assert np.array_equal(coeff, chi3[i][1])
    # stacks of one point, and the points' shape kept
    for i in (0, 1, 4):
        values, coeffs = optimize_zdiag(p[i : i + 1], q[i : i + 1], n, n_starts=4)
        assert values.shape == (1,) and values[0] == zdiag[i][0]
        assert np.array_equal(coeffs[0], zdiag[i][1])
        assert type(zdiag[i][0]) is float and zdiag[i][1].shape == (2**n,)
    values, coeffs = optimize_zdiag(p[:6].reshape(2, 3), q[:6].reshape(2, 3), n, n_starts=4)
    assert values.shape == (2, 3) and coeffs.shape == (2, 3, 2**n)
    assert list(values.reshape(-1)) == [value for value, _ in zdiag[:6]]
    # Z-diagonal evaluations in blocks of one row, and runs of one row,
    # give the same searches
    if n == 2:
        monkeypatch.setattr(codes, "_STACK_BYTES", 1)
        values, coeffs = optimize_zdiag(p, q, n, n_starts=4)
        assert list(values) == [value for value, _ in zdiag]
        assert np.array_equal(coeffs, np.array([coeff for _, coeff in zdiag]))


@pytest.mark.parametrize("search, args", [("optimize_zdiag", (2,)), ("optimize_chi3", ())])
def test_searches_check_every_point_before_searching(monkeypatch, search, args):
    from dephrasure import codes

    def unused(*args, **kwargs):
        raise AssertionError("a search ran")

    def run(p, q):
        return getattr(codes, search)(p, q, *args)

    monkeypatch.setattr(codes, "_lockstep_lbfgs", unused)
    monkeypatch.setattr(codes, "repetition_ci_opt", unused)
    cases = [
        # the first bad point in C order is (0.6, 0.9): its p fails first
        (np.array([[0.11, 0.6], [0.7, 0.2]]), np.array([[0.33, 0.9], [0.1, 0.8]])),
        # (0.2, 0.8) comes before (0.7, 0.9): its q fails
        (np.array([0.11, 0.2, 0.7]), np.array([0.33, 0.8, 0.9])),
        (np.array([0.11, np.nan]), np.array([-0.1, 0.2])),
    ]
    for p, q in cases:
        ok = (0 <= p) & (p <= 0.5) & (0 <= q) & (q <= 0.5)
        bad = np.flatnonzero(~ok)[0]
        with pytest.raises(ValueError) as one_point:
            run(p.flat[bad], q.flat[bad])
        with pytest.raises(ValueError) as stacked:
            run(p, q)
        assert str(stacked.value) == str(one_point.value)


@pytest.mark.parametrize("p, q", [(0.5, 0.01), (0.2, 0.45), (0.15, 0.45), (0.0, 0.5)])
def test_theta_n_is_zero_without_a_search_where_antidegradable(monkeypatch, p, q):
    from dephrasure import codes
    from dephrasure.channel import region_k

    def unused(*args):
        raise AssertionError("the objective was built")

    monkeypatch.setattr(codes, "_zdiag_evaluator", unused)
    for point in ((p, q), (p, region_k(p))):  # the boundary q = k(p) too
        for n in (1, 2, 4):
            value, coeffs = optimize_zdiag(*point, n)
            assert type(value) is float and value == 0.0
            product_code = np.zeros(2**n)
            product_code[-1] = 1.0
            assert np.array_equal(coeffs, product_code)
            assert multiletter_ci(zdiag_code(coeffs), *point) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p, q", [(0.5, 0.01), (0.2, 0.45)])
def test_full_search_is_zero_without_a_search_where_antidegradable(monkeypatch, p, q):
    from dephrasure import codes
    from dephrasure.channel import region_k

    def unused(*args):
        raise AssertionError("an objective was built")

    for builder in ("_ci_gradient", "_zdiag_evaluator"):
        monkeypatch.setattr(codes, builder, unused)
    for point in ((p, q), (p, region_k(p))):  # the boundary q = k(p) too
        for n in (1, 2, 3):
            value, code = optimize_code_ci(*point, n)
            assert type(value) is float and value == 0.0
            # the lambda = 0 product code |1..1>|1..1>, at ref_dim 2^n
            product_code = np.zeros((2**n, 2**n))
            product_code[-1, -1] = 1.0
            assert (code.n_uses, code.ref_dim) == (n, 2**n)
            assert np.array_equal(code.amplitudes, product_code.reshape(-1))
            assert multiletter_ci(code, *point) == pytest.approx(0.0, abs=1e-12)


def test_full_search_runs_within_the_stack_budget(monkeypatch):
    from dephrasure import codes

    p, q, n = 0.1149, 0.3447, 3
    value, code = optimize_code_ci(p, q, n)
    lockstep, runs = codes._lockstep_lbfgs, []

    def recorded(objective, starts, *args):
        runs.append(np.shape(starts))
        return lockstep(objective, starts, *args)

    monkeypatch.setattr(codes, "_lockstep_lbfgs", recorded)
    # two rows of 128 parameters a run (five starts: three warm, two
    # drawn), and blocks of one row in each objective call
    monkeypatch.setattr(codes, "_STACK_BYTES", 2 * 8 * 128 * (4 * codes._LBFGS_MEMORY + 16))
    small_value, small_code = optimize_code_ci(p, q, n)
    assert [shape for shape in runs if shape[1] == 128] == [(2, 128), (2, 128), (1, 128)]
    assert small_value == value
    assert np.array_equal(small_code.amplitudes, code.amplitudes)


def _synchronous_two_loop(grad, pairs_s, pairs_y, rho):
    """codes._two_loop over every memory slot, filled or not."""
    from dephrasure.codes import _rowdot

    vec = grad.copy()
    alpha = np.zeros(rho.shape)
    for j in reversed(range(rho.shape[1])):
        alpha[:, j] = rho[:, j] * _rowdot(pairs_s[:, j], vec)
        vec -= alpha[:, j, None] * pairs_y[:, j]
    paired = rho[:, -1] > 0.0
    yy = _rowdot(pairs_y[:, -1], pairs_y[:, -1])
    vec *= np.where(
        paired,
        1.0 / np.where(paired, rho[:, -1] * yy, 1.0),
        1.0 / np.sqrt(_rowdot(grad, grad)),
    )[:, None]
    for j in range(rho.shape[1]):
        beta = rho[:, j] * _rowdot(pairs_y[:, j], vec)
        vec += (alpha[:, j] - beta)[:, None] * pairs_s[:, j]
    return vec


def _synchronous_lbfgs(objective, starts, max_iterations=200):
    """The iteration-synchronous lockstep L-BFGS, the reference of
    codes._lockstep_lbfgs: every live row's iteration ends before any
    row's next one starts, and each halving is one more objective call on
    the rows still backtracking."""
    from dephrasure.codes import (
        _ARMIJO, _LBFGS_MEMORY, _LBFGS_OPTIONS, _MAX_HALVINGS, _rowdot,
    )

    x = np.array(starts, dtype=float)
    f, grad = objective(x, np.arange(len(x)))
    out_f, out_x = f.copy(), x.copy()
    alive = np.flatnonzero(~(np.abs(grad).max(axis=-1) <= _LBFGS_OPTIONS["gtol"]))
    x, f, grad = x[alive], f[alive], grad[alive]
    pairs_s = np.zeros((len(alive), _LBFGS_MEMORY, x.shape[1]))
    pairs_y, rho = np.zeros_like(pairs_s), np.zeros((len(alive), _LBFGS_MEMORY))
    for _ in range(max_iterations):
        if not alive.size:
            break
        direction = -_synchronous_two_loop(grad, pairs_s, pairs_y, rho)
        slope = _rowdot(grad, direction)
        step = np.ones(len(x))
        new_x = x + direction
        new_f, new_grad = objective(new_x, alive)
        accepted = new_f <= f + _ARMIJO * step * slope
        for _ in range(_MAX_HALVINGS):
            retry = np.flatnonzero(~accepted)
            if not retry.size:
                break
            step[retry] /= 2.0
            new_x[retry] = x[retry] + step[retry, None] * direction[retry]
            new_f[retry], new_grad[retry] = objective(new_x[retry], alive[retry])
            accepted[retry] = new_f[retry] <= f[retry] + _ARMIJO * step[retry] * slope[retry]
        accepted &= slope < 0.0
        s, y = new_x - x, new_grad - grad
        sy = _rowdot(s, y)
        store = accepted & (sy > np.finfo(float).eps * -(step * slope))
        inverse = 1.0 / np.where(store, sy, 1.0)
        for pairs, newest in ((pairs_s, s), (pairs_y, y), (rho, inverse)):
            pairs[store] = np.concatenate([pairs[store, 1:], newest[store, None]], axis=1)
        scale = np.maximum(np.maximum(np.abs(f), np.abs(new_f)), 1.0)
        done = ~accepted | (f - new_f <= _LBFGS_OPTIONS["ftol"] * scale) | (
            np.abs(new_grad).max(axis=-1) <= _LBFGS_OPTIONS["gtol"]
        )
        x[accepted], f[accepted], grad[accepted] = (
            new_x[accepted], new_f[accepted], new_grad[accepted]
        )
        if done.any():
            out_f[alive[done]], out_x[alive[done]] = f[done], x[done]
            keep = ~done
            alive, x, f, grad = alive[keep], x[keep], f[keep], grad[keep]
            pairs_s, pairs_y, rho = pairs_s[keep], pairs_y[keep], rho[keep]
    out_f[alive], out_x[alive] = f, x
    return out_f, out_x


def _toy_objective(x, starts):
    """Rosenbrock rows; a start's index mod 5 picks its variant: 0 and 1
    the function itself, 2 its gradient negated (every step goes uphill,
    so the line search uses all its halvings and fails), 3 the function
    times 1e200 (the gradient's norm overflows, so the direction is 0 and
    the slope -0.0, not downhill), 4 a NaN gradient."""
    a, b = x[:, :-1], x[:, 1:]
    f = (100.0 * (b - a**2) ** 2 + (1.0 - a) ** 2).sum(axis=1)
    grad = np.zeros_like(x)
    grad[:, :-1] = -400.0 * a * (b - a**2) - 2.0 * (1.0 - a)
    grad[:, 1:] += 200.0 * (b - a**2)
    kind = np.asarray(starts) % 5
    grad[kind == 2] *= -1.0
    f[kind == 3] *= 1e200
    grad[kind == 3] *= 1e200
    grad[kind == 4] = np.nan
    return f, grad


def _toy_starts():
    """Twelve starts in [-2, 2]^4; start 1 is Rosenbrock's minimum, where
    the gradient is 0, so it stops before its first iteration."""
    starts = np.random.default_rng(71).uniform(-2.0, 2.0, (12, 4))
    starts[1] = 1.0
    return starts


def _lockstep_case(name):
    """(objective, starts) of one lockstep run: theta_n, chi_3 and the full
    search at one point, the mixed points' theta_3 and chi_3 stacks, whose
    objectives tell each row's point from its start index, or the toy."""
    from dephrasure.codes import _chi3_map, _chi3_starts, _code_objective, _zdiag_objective

    if name.startswith("theta"):
        n = int(name[-1])
        return _zdiag_objective(0.11, 0.33, n), _zdiag_starts(0.11, 0.33, n, n_starts=8)
    if name == "chi3":
        return _code_objective(3, 4, 0.1149, 0.3447, _chi3_map()), _chi3_starts(0, 2)
    if name.startswith("full"):
        n, (p, q) = int(name[-1]), SEARCH_POINTS[int(name[-1]) - 1]
        return _code_objective(n, 2**n, p, q, np.eye(4**n)), _full_starts(p, q, n)
    p, q = np.array(MIXED_POINTS).T
    owner = np.repeat(np.arange(len(p)), 3)
    if name == "mixed_theta3":
        starts = np.abs(np.random.default_rng(73).standard_normal((len(owner), 8)))
        return _zdiag_objective(p, q, 3, owner), starts
    if name == "mixed_chi3":
        starts = np.tile(_chi3_starts(0, 0)[1:], (len(p), 1))
        return _code_objective(3, 4, p, q, _chi3_map(), owner), starts
    return _toy_objective, _toy_starts()


LOCKSTEP_CASES = [
    "theta1", "theta2", "theta3", "theta4", "chi3", "full2", "full3",
    "mixed_theta3", "mixed_chi3", "toy",
]


def _recorded(objective):
    """``objective``, and the list of the start indices of its calls."""
    calls = []

    def recorded(x, starts):
        calls.append(np.array(starts))
        return objective(x, starts)

    return recorded, calls


@pytest.mark.parametrize("max_iterations", [1, 2, 200])
@pytest.mark.parametrize("name", LOCKSTEP_CASES)
def test_asynchronous_rows_end_where_the_synchronous_loop_ends(name, max_iterations):
    from dephrasure.codes import _lockstep_lbfgs

    objective, starts = _lockstep_case(name)
    # the toy's scaled rows overflow their gradient's norm on purpose
    with np.errstate(over="ignore" if name == "toy" else "warn"):
        funs, points = _lockstep_lbfgs(objective, starts, max_iterations)
        ref_funs, ref_points = _synchronous_lbfgs(objective, starts, max_iterations)
    assert np.array_equal(funs, ref_funs, equal_nan=True)
    assert np.array_equal(points, ref_points, equal_nan=True)


@pytest.mark.parametrize("name", ["theta2", "theta4", "chi3", "full2", "mixed_theta3", "toy"])
def test_every_call_holds_one_trial_point_of_each_live_row(name):
    from dephrasure.codes import _lockstep_lbfgs

    objective, starts = _lockstep_case(name)
    recorded, calls = _recorded(objective)
    ref_recorded, ref_calls = _recorded(objective)
    with np.errstate(over="ignore" if name == "toy" else "warn"):
        _lockstep_lbfgs(recorded, starts)
        _synchronous_lbfgs(ref_recorded, starts)
    assert all(len(np.unique(rows)) == len(rows) for rows in calls)
    # the first call holds every start; each later one a trial point of
    # every live row, so the row with the most trial points sets the count
    assert np.array_equal(calls[0], np.arange(len(starts)))
    trials = np.bincount(np.concatenate(calls), minlength=len(starts)) - 1
    assert len(calls) == 1 + trials.max()
    assert sum(map(len, calls)) == sum(map(len, ref_calls))
    assert len(calls) < len(ref_calls)
    if name == "toy":
        # start 1 stops at once, 2 and 4 fail their line search after
        # every halving, 3 has a zero direction that its unit step accepts
        assert list(trials[1:5]) == [0, 5, 1, 5]
        assert trials[0] > 5


def test_many_point_zdiag_search_holds_one_block_of_masks():
    import tracemalloc

    from dephrasure import codes

    # 64 points with distinct p, one start each, share one lockstep run;
    # each objective call holds their tables and one block of rows
    n, points = 5, 64
    p, q = np.linspace(0.05, 0.12, points), np.full(points, 0.2)
    starts = np.abs(np.random.default_rng(0).standard_normal((points, 1, 2**n)))
    tracemalloc.start()
    try:
        codes._search_points(
            lambda at, owner: codes._zdiag_objective(p[at], q[at], n, owner),
            starts, max_iterations=1,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * codes._STACK_BYTES


def test_chi3_still_searches_where_antidegradable():
    # the chi_3 family holds no product code: its best there is negative
    assert optimize_chi3(0.2, 0.45, n_starts=0, max_iterations=2)[0] < 0.0


def test_optimize_zdiag_checks_its_start_count():
    for p, q in ((0.11, 0.33), (0.5, 0.01)):
        with pytest.raises(ValueError, match="n_starts = -3"):
            optimize_zdiag(p, q, 2, n_starts=-3)
    # no draws: the warm start alone
    assert optimize_zdiag(0.11, 0.33, 2, n_starts=0)[0] >= repetition_ci_opt(0.11, 0.33, 2)[0]


def test_comp_ci_eps_stays_finite_at_subnormal_p():
    from dephrasure.compci import comp_ci_eps
    from dephrasure.qinfo import binary_entropy

    normal = comp_ci_eps(1e-300, 0.3, 0.25)
    assert normal == pytest.approx(-0.3245112, abs=1e-7)
    for p in (1e-310, 5e-324):
        assert comp_ci_eps(p, 0.3, 0.25) == pytest.approx(normal, abs=1e-15)
    ps = np.array([5e-324, 1e-310, 1e-300, 0.1, 0.3])
    assert np.array_equal(comp_ci_eps(ps, 0.3, 0.25), [comp_ci_eps(p, 0.3, 0.25) for p in ps])
    # normal p keeps the bits of the log1p form
    ln2 = np.log(2.0)
    for p, eps in ((0.1, 0.25), (0.3, 1e-20), (1e-300, 0.25)):
        d = eps * (1 - 2 * p)
        diff = (-p * np.log1p(d / p) / ln2 - d * np.log2(p + d)
                - (1 - p) * np.log1p(-d / (1 - p)) / ln2 + d * np.log2(1 - p - d))
        assert comp_ci_eps(p, 0.3, eps) == 0.3 * binary_entropy(eps) - 0.7 * diff
