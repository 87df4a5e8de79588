import numpy as np
import pytest

from dephrasure.qinfo import (
    KrausSet,
    apply_kraus,
    binary_entropy,
    check_density_matrix,
    choi_of,
    coherent_information,
    compose_kraus,
    is_completely_positive,
    partial_trace,
    purify,
    shannon_entropy,
    tensor_kraus,
    tensor_power_kraus,
    von_neumann_entropy,
)


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-13)
    assert binary_entropy(0.1) == pytest.approx(0.4689955935892812, abs=1e-13)
    # symmetry
    assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), abs=1e-14)


def test_binary_entropy_tiny_argument():
    # h(x) ~ x (log2(1/x) + 1/ln 2) for tiny x; must not underflow to 0
    x = 1e-200
    expect = x * (np.log2(1 / x) + 1 / np.log(2))
    assert binary_entropy(x) == pytest.approx(expect, rel=1e-12)


def test_binary_entropy_array_and_domain():
    arr = binary_entropy(np.array([0.0, 0.25, 0.5]))
    assert arr.shape == (3,)
    assert arr[1] == pytest.approx(0.8112781244591328, abs=1e-13)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_shannon_entropy_matches_binary():
    assert shannon_entropy([0.25, 0.75]) == pytest.approx(
        binary_entropy(0.25), abs=1e-14
    )
    assert shannon_entropy([0.5, 0.5, 0.0]) == pytest.approx(1.0, abs=1e-14)


def test_von_neumann_entropy_diagonal_and_unitary_invariance():
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert von_neumann_entropy(rho) == pytest.approx(
        binary_entropy(0.25), abs=1e-12
    )
    # basis rotation leaves the entropy alone
    th = 0.3
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert von_neumann_entropy(u @ rho @ u.T) == pytest.approx(
        binary_entropy(0.25), abs=1e-12
    )


def test_von_neumann_entropy_rejects_nonhermitian():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))


def test_check_density_matrix():
    check_density_matrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_kraus_completeness_enforced():
    with pytest.raises(ValueError):
        KrausSet(2, 2, (np.eye(2) * 0.5,))
    ident = KrausSet(2, 2, (np.eye(2, dtype=complex),))
    rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    assert np.allclose(ident(rho), rho)


def _phase_flip(p):
    return KrausSet(
        2,
        2,
        (
            np.sqrt(1 - p) * np.eye(2, dtype=complex),
            np.sqrt(p) * np.diag([1.0, -1.0]).astype(complex),
        ),
    )


def test_apply_kraus_phase_flip():
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = apply_kraus(_phase_flip(0.2), rho)
    assert out[0, 1] == pytest.approx(0.5 * 0.6, abs=1e-14)
    assert out[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_compose_and_tensor_kraus():
    a = _phase_flip(0.1)
    b = _phase_flip(0.2)
    rho = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    composed = compose_kraus(a, b)
    assert np.allclose(composed(rho), a(b(rho)), atol=1e-14)
    prod = tensor_kraus(a, b)
    joint = np.kron(rho, rho)
    assert np.allclose(prod(joint), np.kron(a(rho), b(rho)), atol=1e-13)
    cubed = tensor_power_kraus(a, 3)
    assert cubed.in_dim == 8 and cubed.out_dim == 8


def test_partial_trace_product_state():
    rho_a = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    rho_b = np.diag([0.2, 0.3, 0.5]).astype(complex)
    joint = np.kron(rho_a, rho_b)
    assert np.allclose(partial_trace(joint, (2, 3), (0,)), rho_a, atol=1e-14)
    assert np.allclose(partial_trace(joint, (2, 3), (1,)), rho_b, atol=1e-14)


def test_partial_trace_entangled_state():
    psi = np.array([1.0, 0, 0, 1.0], dtype=complex) / np.sqrt(2)
    joint = np.outer(psi, psi.conj())
    red = partial_trace(joint, (2, 2), (0,))
    assert np.allclose(red, np.eye(2) / 2, atol=1e-14)


def test_purify_diagonal_state():
    psi = purify(np.diag([0.3, 0.7]).astype(complex))
    expect = np.zeros(4)
    expect[0] = np.sqrt(0.3)
    expect[3] = np.sqrt(0.7)
    # global phase free; compare projectors
    assert np.allclose(
        np.outer(psi, psi.conj()), np.outer(expect, expect), atol=1e-12
    )
    # reference subsystem comes first
    red = partial_trace(np.outer(psi, psi.conj()), (2, 2), (1,))
    assert np.allclose(red, np.diag([0.3, 0.7]), atol=1e-12)


def test_choi_of_phase_flip():
    choi = choi_of(_phase_flip(0.2))
    evals = np.sort(np.linalg.eigvalsh(choi))
    assert np.allclose(evals, [0.0, 0.0, 0.4, 1.6], atol=1e-12)
    assert np.trace(choi).real == pytest.approx(2.0, abs=1e-12)
    assert is_completely_positive(choi)
    assert not is_completely_positive(np.diag([1.0, -0.1, 0.5, 0.6]))


def test_coherent_information_phase_flip():
    # phase flip: I_c(pi) = 1 - h(p)
    value = coherent_information(_phase_flip(0.1), np.eye(2) / 2)
    assert value == pytest.approx(1 - binary_entropy(0.1), abs=1e-11)


def _random_states(rng, count, dim):
    mats = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal(
        (count, dim, dim)
    )
    rhos = mats @ mats.conj().swapaxes(-1, -2)
    return rhos / np.trace(rhos, axis1=-2, axis2=-1).real[:, None, None]


def test_von_neumann_entropy_of_a_stack():
    rng = np.random.default_rng(3)
    rhos = _random_states(rng, 5, 8).reshape(5, 1, 8, 8)
    rhos[2, 0] = np.diag([0.5, 0.5, 0, 0, 0, 0, 0, 0])  # rank deficient
    stacked = von_neumann_entropy(rhos)
    assert stacked.shape == (5, 1)
    for rho, value in zip(rhos[:, 0], stacked[:, 0]):
        assert value == pytest.approx(von_neumann_entropy(rho), abs=1e-13)
    assert stacked[2, 0] == pytest.approx(1.0, abs=1e-14)


def test_von_neumann_entropy_validates_every_matrix_of_a_stack():
    rng = np.random.default_rng(4)
    rhos = _random_states(rng, 4, 4)
    nonhermitian = rhos.copy()
    nonhermitian[3, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        von_neumann_entropy(nonhermitian)
    negative = rhos.copy()
    negative[1] = np.diag([0.7, 0.4, 0.0, -0.1])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        von_neumann_entropy(negative)
    with pytest.raises(ValueError):
        von_neumann_entropy(np.ones((3, 2, 4)))


def test_hermitian_eigh_validates_as_von_neumann_entropy_does():
    from dephrasure.qinfo import _hermitian_eigh

    rng = np.random.default_rng(6)
    rhos = _random_states(rng, 3, 4)
    nonhermitian = rhos.copy()
    nonhermitian[2, 0, 1] += 1e-3
    negative = rhos.copy()
    negative[0] = np.diag([0.7, 0.4, 0.0, -0.1])
    for bad in (nonhermitian, negative, np.ones((3, 2, 4))):
        with pytest.raises(ValueError) as expected:
            von_neumann_entropy(bad)
        with pytest.raises(ValueError) as raised:
            _hermitian_eigh(bad)
        assert str(raised.value) == str(expected.value)

    evals, vecs = _hermitian_eigh(rhos)
    assert np.allclose((vecs * evals[..., None, :]) @ vecs.conj().swapaxes(-1, -2), rhos)
    assert np.allclose(shannon_entropy(evals), von_neumann_entropy(rhos), atol=1e-13)
    # the real part of a state is a real state, and stays real
    evals, vecs = _hermitian_eigh(rhos.real)
    assert vecs.dtype == np.float64
