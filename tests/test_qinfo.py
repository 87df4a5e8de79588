import warnings

import numpy as np
import pytest

from dephrasure.channel import complementary_kraus, dephrasure_kraus
from dephrasure.codes import CodeState, ErasurePatternBlock
from dephrasure.qinfo import (
    KrausSet,
    _check_points,
    _completeness,
    _state_checks,
    apply_kraus,
    binary_entropy,
    check_density_matrix,
    choi_of,
    coherent_information,
    compose_kraus,
    purify,
    shannon_entropy,
    tensor_kraus,
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


def _masked_binary_entropy(x):
    """binary_entropy as a boolean gather and scatter over the interior:
    the reference for the elementwise form."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("binary_entropy argument outside [0, 1]")
    out = np.zeros_like(arr)
    inner = (arr > 0.0) & (arr < 1.0)
    xi = arr[inner]
    out[inner] = -xi * np.log2(xi) - (1.0 - xi) * np.log1p(-xi) / np.log(2.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _same_outcome(x):
    try:
        expect = _masked_binary_entropy(x)
    except ValueError:
        with pytest.raises(ValueError):
            binary_entropy(x)
        return
    got = binary_entropy(x)
    assert type(got) is type(expect)
    if isinstance(expect, float):
        assert np.float64(got).tobytes() == np.float64(expect).tobytes()
    else:
        assert got.shape == expect.shape and got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()


def test_binary_entropy_is_bit_identical_to_the_masked_form():
    tiny = np.nextafter(0.0, 1.0)
    edges = [0.0, -0.0, 1.0, 0.5, 1e-300, tiny, 2.5e-310, 1.0 - 2.0**-53, 0.25, np.nan]
    rng = np.random.default_rng(13)
    block = rng.uniform(size=(40, 7))
    block[::3] = 10.0 ** -rng.uniform(0, 320, size=(14, 7))
    block.flat[::5] = 0.0
    block.flat[1::11] = 1.0
    cases = edges + [np.array(x) for x in edges] + [
        np.array(edges),
        block,
        block[:, :1],
        block[0],
        np.empty((0, 3)),
        [0.1, 0.9],
        # error cases: any point outside [0, 1], also next to a NaN
        -0.1,
        1.1,
        -tiny,
        np.nextafter(1.0, 2.0),
        np.inf,
        -np.inf,
        np.array([np.nan, -1.0]),
        np.where(np.arange(6) == 4, 1.5, block[0, :6]).reshape(2, 3),
    ]
    for x in cases:
        _same_outcome(x)


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
    cubed = tensor_kraus(tensor_kraus(a, a), a)
    assert cubed.in_dim == 8 and cubed.out_dim == 8


def test_purify_diagonal_state():
    psi = purify(np.diag([0.3, 0.7]).astype(complex))
    expect = np.zeros(4)
    expect[0] = np.sqrt(0.3)
    expect[3] = np.sqrt(0.7)
    # global phase free; compare projectors
    assert np.allclose(
        np.outer(psi, psi.conj()), np.outer(expect, expect), atol=1e-12
    )
    # reference subsystem comes first: rows index it, so tracing it out
    # leaves mat^T mat*
    mat = psi.reshape(2, 2)
    assert np.allclose(mat.T @ mat.conj(), np.diag([0.3, 0.7]), atol=1e-12)


def test_choi_of_phase_flip():
    choi = choi_of(_phase_flip(0.2))
    evals = np.sort(np.linalg.eigvalsh(choi))
    assert np.allclose(evals, [0.0, 0.0, 0.4, 1.6], atol=1e-12)
    assert np.trace(choi).real == pytest.approx(2.0, abs=1e-12)


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


def _random_kraus(rng, m, d_in, d_out):
    """m random complex operators d_in -> d_out, made trace preserving."""
    ops = rng.standard_normal((m, d_out, d_in)) + 1j * rng.standard_normal(
        (m, d_out, d_in)
    )
    evals, vecs = np.linalg.eigh(np.einsum("kji,kjl->il", ops.conj(), ops))
    inv_sqrt = (vecs / np.sqrt(evals)) @ vecs.conj().T
    return KrausSet(d_in, d_out, tuple(ops @ inv_sqrt))


def _tensor_power(kraus, n):
    """The n-fold tensor power as a chain of tensor_kraus products."""
    out = kraus
    for _ in range(n - 1):
        out = tensor_kraus(out, kraus)
    return out


def _joint_state_ci(kraus, rho):
    """Reference route: S(N(rho)) - S((id (x) N)(psi)) for a purification psi."""
    psi = purify(rho)
    eye = np.eye(rho.shape[0])
    v = np.column_stack([np.kron(eye, K) @ psi for K in kraus.operators])
    return von_neumann_entropy(apply_kraus(kraus, rho)) - von_neumann_entropy(
        v @ v.conj().T
    )


def test_coherent_information_matches_the_joint_state_route():
    rng = np.random.default_rng(29)
    channels = [
        _tensor_power(dephrasure_kraus(p, q), n)
        for n in (1, 2, 3)
        for p, q in ((0.11, 0.33), (0.3, 0.05), (0.0, 0.5))
    ]
    channels += [complementary_kraus(p, q) for p, q in ((0.11, 0.33), (0.4, 0.2))]
    # 7 operators: an environment larger than the joint output d * d_out = 6
    channels.append(_random_kraus(rng, 7, 2, 3))
    for kraus in channels:
        for rho in _random_states(rng, 3, kraus.in_dim):
            assert abs(
                coherent_information(kraus, rho) - _joint_state_ci(kraus, rho)
            ) <= 1e-12


def test_tensor_kraus_is_the_lexicographic_kron_list():
    rng = np.random.default_rng(31)
    a, b = _random_kraus(rng, 3, 2, 3), _random_kraus(rng, 5, 3, 2)
    prod = tensor_kraus(a, b)
    expect = [np.kron(A, B) for A in a.operators for B in b.operators]
    assert (prod.in_dim, prod.out_dim) == (6, 6)
    assert len(prod.operators) == len(expect)
    for got, want in zip(prod.operators, expect):
        assert np.array_equal(got, want)


def test_coherent_information_rejects_a_state_of_the_wrong_dimension():
    with pytest.raises(ValueError, match="state dim 4 != channel input dim 2"):
        coherent_information(dephrasure_kraus(0.1, 0.2), np.eye(4) / 4)


def test_kraus_set_is_one_read_only_complex_stack():
    ops = [np.sqrt(0.3) * np.eye(2), np.sqrt(0.7) * np.diag([1.0, -1.0])]
    for given in (tuple(ops), ops, np.array(ops)):
        kraus = KrausSet(2, 2, given)
        assert kraus.operators.shape == (2, 2, 2)
        assert kraus.operators.dtype == np.complex128
        assert np.array_equal(kraus.operators, np.array(ops))
        with pytest.raises(ValueError):
            kraus.operators[0, 0, 0] = 5
    # the stack is a copy: the caller's array stays writable and apart
    given = np.array(ops)
    kraus = KrausSet(2, 2, given)
    given[0, 0, 0] = 5
    assert kraus.operators[0, 0, 0] == np.sqrt(0.3)
    # (m, out, in) for a map between different dimensions
    assert dephrasure_kraus(0.1, 0.2).operators.shape == (4, 3, 2)
    assert complementary_kraus(0.1, 0.2).operators.shape == (3, 4, 2)


def test_kraus_set_rejects_no_operators_and_a_wrong_shape():
    with pytest.raises(ValueError, match="KrausSet needs at least one operator"):
        KrausSet(2, 2, ())
    with pytest.raises(ValueError, match="KrausSet needs at least one operator"):
        KrausSet(2, 2, [])
    # a ragged set reports the operator's shape, not numpy's stacking error
    with pytest.raises(ValueError, match=r"Kraus operator shape \(3, 2\) != \(2, 2\)"):
        KrausSet(2, 2, (np.eye(2), np.zeros((3, 2))))
    with pytest.raises(ValueError, match=r"Kraus operator shape \(2, 2\) != \(3, 2\)"):
        KrausSet(2, 3, [np.eye(2)])


def _apply_kraus_loop(kraus, rho):
    """Reference: the per-operator sum of K rho K^dagger."""
    out = np.zeros((kraus.out_dim, kraus.out_dim), dtype=complex)
    for K in kraus.operators:
        out += K @ rho @ K.conj().T
    return out


def test_apply_kraus_matches_the_per_operator_loop():
    rng = np.random.default_rng(37)
    channels = [
        dephrasure_kraus(0.11, 0.33),
        complementary_kraus(0.2, 0.4),
        _tensor_power(dephrasure_kraus(0.3, 0.1), 2),
        _random_kraus(rng, 7, 2, 3),
    ]
    for kraus in channels:
        for rho in _random_states(rng, 3, kraus.in_dim):
            diff = apply_kraus(kraus, rho) - _apply_kraus_loop(kraus, rho)
            assert np.max(np.abs(diff)) <= 1e-15
    with pytest.raises(ValueError, match="state dim 4 != channel input dim 2"):
        apply_kraus(dephrasure_kraus(0.1, 0.2), np.eye(4) / 4)


def test_compose_kraus_is_the_lexicographic_product_list():
    rng = np.random.default_rng(41)
    outer, inner = _random_kraus(rng, 3, 3, 2), _random_kraus(rng, 4, 2, 3)
    composed = compose_kraus(outer, inner)
    expect = [A @ B for A in outer.operators for B in inner.operators]
    assert (composed.in_dim, composed.out_dim) == (2, 2)
    assert np.array_equal(composed.operators, np.array(expect))


def test_check_density_matrix_and_purify_validate_through_hermitian_eigh():
    nonhermitian = np.array([[0.5, 0.2], [0.0, 0.5]], dtype=complex)
    negative = np.diag([1.5, -0.5]).astype(complex)
    for check in (check_density_matrix, purify):
        with pytest.raises(ValueError, match="not Hermitian"):
            check(nonhermitian)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            check(negative)
        with pytest.raises(ValueError, match="trace is 2"):
            check(np.eye(2))


def test_array_holding_records_compare_by_identity_and_hash():
    makers = [
        lambda: dephrasure_kraus(0.1, 0.2),
        lambda: CodeState(1, 2, np.eye(2).reshape(-1) / np.sqrt(2)),
        lambda: ErasurePatternBlock("0", 1.0, np.eye(4) / 4),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and len({a, b}) == 2


def test_stacked_rows_have_the_bits_of_coherent_information():
    # a row per channel and state; complementary channels included, as
    # the compci suite stacks them
    from dephrasure.channel import _channel_ops, _checked_ops, _complement_ops
    from dephrasure.qinfo import _ci_rows

    rng = np.random.default_rng(61)
    p, q = rng.uniform(0.0, 0.5, (2, 6))
    p[0], q[1] = 0.5, 0.0
    states = _random_states(rng, 6, 2)
    routes = ((_channel_ops, dephrasure_kraus), (_complement_ops, complementary_kraus))
    for ops_fn, kraus_fn in routes:
        ops, checks = _checked_ops(ops_fn, p, q)
        values = _ci_rows(ops, states, *checks)
        assert list(values) == [
            coherent_information(kraus_fn(pi, qi), rho) for pi, qi, rho in zip(p, q, states)
        ]


def test_stacked_rows_raise_the_first_bad_rows_one_row_error():
    # a broken Kraus stack raises KrausSet's error, a bad state
    # check_density_matrix's; the first bad row in order raises
    from dephrasure.channel import _checked_ops, _complement_ops
    from dephrasure.qinfo import _ci_rows

    rng = np.random.default_rng(67)
    p, q = np.full(3, 0.2), np.full(3, 0.3)
    ops, _ = _checked_ops(_complement_ops, p, q)
    states = _random_states(rng, 3, 2)
    broken = ops.copy()
    broken[1, 0] *= 1.1
    bad = states.copy()
    bad[2] = np.diag([1.5, -0.5])
    # row 1's stack is broken, row 2's state is bad
    for ops_, states_, one_row in (
        (broken, states, lambda: KrausSet(2, 4, broken[1])),
        (ops, bad, lambda: check_density_matrix(bad[2])),
        (broken, bad, lambda: KrausSet(2, 4, broken[1])),
    ):
        with pytest.raises(ValueError) as expected:
            one_row()
        _, checks = _checked_ops(lambda *_: ops_, p, q)
        with pytest.raises(ValueError) as raised:
            _ci_rows(ops_, states_, *checks)
        assert str(raised.value) == str(expected.value)


def test_a_nan_kraus_set_or_state_fails_its_check():
    with pytest.raises(ValueError, match="Kraus completeness violated by nan"):
        KrausSet(2, 2, [np.full((2, 2), np.nan)])
    with pytest.raises(ValueError, match="trace is nan, expected 1"):
        check_density_matrix(np.full((2, 2), np.nan))


def test_a_nan_state_has_no_entropy():
    for rho in (np.full((2, 2), np.nan), [[np.nan, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="asymmetry nan"):
            von_neumann_entropy(rho)
        with pytest.raises(ValueError, match="asymmetry nan"):
            von_neumann_entropy(np.stack([np.eye(2) / 2, rho]))


def test_an_infinite_entry_fails_its_check_without_a_warning():
    # inf - inf, inf / 2 and inf * 0 in the checks' own arithmetic would
    # warn before the check rejects the matrix; an infinite entry is taken
    # as NaN, which fails each check quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(asymmetry nan\)$"):
            von_neumann_entropy([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(asymmetry nan\)$"):
            von_neumann_entropy(np.stack([np.eye(2) / 2, [[1.0, -np.inf], [-np.inf, 0.0]]]))
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(asymmetry nan\)$"):
            check_density_matrix([[0.5, np.inf], [0.0, 0.5]])
        with pytest.raises(ValueError, match=r"^trace is nan, expected 1$"):
            check_density_matrix([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"^Kraus completeness violated by nan$"):
            KrausSet(2, 2, [[[np.inf, 0.0], [0.0, 1.0]]])


def test_finite_entries_near_the_float_maximum_fail_without_a_warning():
    # the symmetrization and the asymmetry halve each side first: 1e308 + 1e308
    # and 1e308 - (-1e308) would overflow, and warn, before the checks
    cases = (
        ([[0.5, 1e308], [1e308, 0.5]], r"^negative eigenvalue -1e\+308$"),
        ([[0.5, 1e308], [-1e308, 0.5]], r"^matrix is not Hermitian \(asymmetry inf\)$"),
        ([[0.5, 1e308j], [1e308j, 0.5]], r"^matrix is not Hermitian \(asymmetry inf\)$"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho, message in cases:
            with pytest.raises(ValueError, match=message):
                check_density_matrix(rho)
            with pytest.raises(ValueError, match=message):
                von_neumann_entropy(rho)


def test_a_stacked_check_names_the_infinite_row():
    # a finite row before it passes; the infinite row raises its own error
    ops = np.stack([np.eye(2)[None], np.array([[[np.inf, 0.0], [0.0, 1.0]]])])
    states = np.stack([np.eye(2) / 2, [[0.5, np.inf], [0.0, 0.5]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^Kraus completeness violated by nan$"):
            _check_points(_completeness(ops))
        assert _completeness(ops)[0].tolist() == [True, False]
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(asymmetry nan\)$"):
            _check_points(*_state_checks(states))
        assert [ok.tolist() for ok, _, _ in _state_checks(states)][1] == [True, False]


def _signed_zero_hermitian_stack(rng, count, d):
    """``count`` positive definite Hermitian d x d matrices whose entries
    include zero imaginary parts of both signs next to negative real parts:
    there ``conj(rho / 2)`` and ``conj(rho) / 2`` can differ in a zero's sign."""
    a = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    h = a @ a.conj().swapaxes(-1, -2)
    real, imag = h.real.copy(), h.imag.copy()
    i, j = np.triu_indices(d, 1)
    pick = rng.random((count, len(i))) < 0.5
    real[:, i, j] = np.where(pick, -np.abs(real[:, i, j]), real[:, i, j])
    imag[:, i, j] = np.where(pick, rng.choice([0.0, -0.0], size=pick.shape), imag[:, i, j])
    real[:, j, i], imag[:, j, i] = real[:, i, j], -imag[:, i, j]
    diagonal = np.arange(d)
    imag[:, diagonal, diagonal] = rng.choice([0.0, -0.0], size=(count, d))
    # positive definite after the edits: a diagonal above every row's sum
    real[:, diagonal, diagonal] = np.abs(real).sum(-1) + 1.0
    # set part by part: complex arithmetic would turn -0.0 into 0.0
    rho = np.empty((count, d, d), complex)
    rho.real, rho.imag = real, imag
    return rho


def test_halving_rho_once_keeps_the_symmetrized_bits(monkeypatch):
    from dephrasure.qinfo import _hermitian_eigh

    eigh, seen = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a) or eigh(a))
    rng = np.random.default_rng(29)
    for d in (2, 3, 4):
        for _ in range(100):
            rho = _signed_zero_hermitian_stack(rng, 5, d)
            zeros = rho.imag[rho.imag == 0]
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()
            # the form that divided rho and its adjoint separately
            expected = rho / 2 + rho.conj().swapaxes(-1, -2) / 2
            seen.clear()
            evals, vecs = _hermitian_eigh(rho)
            assert seen[0].tobytes() == expected.tobytes()
            ref_evals, ref_vecs = eigh(expected)
            assert evals.tobytes() == np.maximum(ref_evals, 0.0).tobytes()
            assert vecs.tobytes() == ref_vecs.tobytes()
            low = _state_checks(rho)[2][2]
            assert low.tobytes() == np.linalg.eigvalsh(expected)[..., 0].tobytes()
