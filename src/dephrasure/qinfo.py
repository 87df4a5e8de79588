"""Dense quantum-information primitives for small systems.

States are plain numpy arrays: density matrices are square complex
arrays, pure states are complex vectors.  Channels are represented by
:class:`KrausSet`.

All entropies are in bits (log base 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LN2 = np.log(2.0)

# Tolerances for state / channel validation.
HERMITICITY_TOL = 1e-8
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-8
KRAUS_TOL = 1e-12


def _as_square(mat):
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _check_points(*checks):
    """Raise the ValueError that a loop of one-point calls raises first.

    Each check is (ok, message, values): a mask over the points, and the
    error's message, formatted with the failing point's value.  The
    first point in C order that fails a check raises the message of the
    first check it fails.
    """
    ok = np.array([ok for ok, _, _ in checks])
    if not ok.all():
        i = np.flatnonzero(~ok.all(axis=0))[0]
        _, message, values = next(check for check in checks if not check[0].flat[i])
        raise ValueError(message.format(float(values.flat[i])))


def _state_checks(rho):
    """check_density_matrix's checks of each matrix of a stack (..., d, d),
    for _check_points: unit trace, Hermiticity, then positivity; a NaN
    fails them, and so does an infinite entry, taken as NaN."""
    rho = _nan_for_nonfinite(rho)
    tr = rho.trace(0, -2, -1).real
    # halved first: the difference and the sum overflow near the float maximum;
    # the adjoint of the half differs from half the adjoint at most in the
    # sign of a zero imaginary part, which neither |half - herm| nor
    # half + herm keeps
    half = rho / 2
    herm = half.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore"):  # twice a half asymmetry near it reads inf
        asym = 2 * np.abs(half - herm).reshape(rho.shape[:-2] + (-1,)).max(-1)
    low = np.linalg.eigvalsh(half + herm)[..., 0]
    return (
        (np.abs(tr - 1.0) <= max(TRACE_TOL, 1e-12 * rho.shape[-1]), "trace is {}, expected 1", tr),
        (asym <= HERMITICITY_TOL, "matrix is not Hermitian (asymmetry {:.3g})", asym),
        (low >= EIGENVALUE_FLOOR, "negative eigenvalue {:.3g}", low),
    )


def _nan_for_nonfinite(a):
    """``a`` with every entry that is not finite set to NaN, which fails
    each check quietly; inf - inf or inf * 0 would warn first."""
    finite = np.isfinite(a)
    return a if finite.all() else np.where(finite, a, np.nan)


def check_density_matrix(rho):
    """Validate unit trace, then Hermiticity and positivity.

    Returns the validated matrix (as a complex array).  Raises
    ``ValueError`` on violation.
    """
    rho = _as_square(rho)
    _check_points(*_state_checks(rho))
    return rho


def shannon_entropy(probs):
    """Shannon entropy in bits of a nonnegative weight vector.

    A stack of vectors (..., d) gives an array of one entropy per vector;
    nonpositive entries contribute nothing.
    """
    probs = np.asarray(probs, dtype=float)
    out = _spectral_logs(probs)[1]
    return float(out) if probs.ndim == 1 else out


def _spectral_logs(evals):
    """(log2 of each eigenvalue, 0 on the kernel, and the entropy -sum
    evals log2 evals of each spectrum): one log2 serves a spectrum's
    entropy and its log-matrix."""
    logs = np.log2(np.where(evals > 0, evals, 1.0))
    return logs, -(evals * logs).sum(axis=-1)


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2(1-x), elementwise, endpoints 0.

    Uses log1p for the (1-x) term so that h stays accurate for
    arguments as small as ~1e-300 (needed when scanning exponentially
    small code weights near the coherent-information threshold).
    """
    arr = np.asarray(x, dtype=float)
    # fmin/fmax skip NaN, so NaN passes the range check and maps to 0
    if (
        np.fmin.reduce(arr, axis=None, initial=0.0) < 0.0
        or np.fmax.reduce(arr, axis=None, initial=1.0) > 1.0
    ):
        raise ValueError("binary_entropy argument outside [0, 1]")
    inner = (arr > 0.0) & (arr < 1.0)
    safe = np.where(inner, arr, 0.5)
    out = np.where(
        inner, -safe * np.log2(safe) - (1.0 - safe) * np.log1p(-safe) / LN2, 0.0
    )
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _hermitian_eigh(rho, vectors=True):
    """Validated eigendecomposition of a stack (..., d, d) of Hermitian matrices.

    Raises ``ValueError`` unless every matrix is square, Hermitian to
    HERMITICITY_TOL and has no eigenvalue below EIGENVALUE_FLOOR.
    Returns the eigenvalues clamped at zero and, with ``vectors``, the
    eigenvectors.  Real input stays real.
    """
    rho = np.asarray(rho)
    rho = rho.astype(np.result_type(rho, float), copy=False)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {rho.shape}")
    # an entry that is not finite fails here, before its halving or inf - inf
    # can warn; halved first, as in _state_checks, and doubled as a Python
    # float, which overflows to inf quietly
    if np.isfinite(rho).all():
        half = rho / 2
        herm = half.conj().swapaxes(-1, -2)
        asym = 2.0 * float(np.abs(half - herm).max())
    else:
        asym = np.nan
    # written so that NaN fails each test
    if not asym <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3g})")
    if vectors:
        evals, vecs = np.linalg.eigh(half + herm)
    else:
        evals = np.linalg.eigvalsh(half + herm)
    if not evals.min() >= EIGENVALUE_FLOOR:
        raise ValueError(f"negative eigenvalue {evals.min():.3g}")
    evals = np.maximum(evals, 0.0)
    return (evals, vecs) if vectors else evals


def von_neumann_entropy(rho):
    """S(rho) = -tr(rho log2 rho) via Hermitian eigendecomposition.

    ``rho`` may also be a stack (..., d, d) of matrices, evaluated with
    one stacked eigendecomposition; the result is then an array of one
    entropy per matrix, and every matrix is validated.  Eigenvalues in
    [-1e-8, 0) are clamped to zero; anything below -1e-8 is rejected as
    an invalid state.
    """
    return shannon_entropy(
        _hermitian_eigh(np.asarray(rho, dtype=complex), vectors=False)
    )


@dataclass(frozen=True, eq=False)
class KrausSet:
    """A completely positive trace-preserving map in Kraus form.

    ``operators``, given as any sequence of (out_dim, in_dim) matrices,
    is stored as one read-only complex (m, out_dim, in_dim) stack, so the
    completeness checked here cannot be broken afterwards.
    """

    in_dim: int
    out_dim: int
    operators: np.ndarray

    def __post_init__(self):
        # shapes first: stacking ragged operators would raise numpy's error
        shapes = [np.shape(K) for K in self.operators]
        if not shapes:
            raise ValueError("KrausSet needs at least one operator")
        for shape in shapes:
            if shape != (self.out_dim, self.in_dim):
                raise ValueError(
                    f"Kraus operator shape {shape} != "
                    f"({self.out_dim}, {self.in_dim})"
                )
        ops = np.array(self.operators, dtype=complex)
        _check_points(_completeness(ops))
        ops.flags.writeable = False
        object.__setattr__(self, "operators", ops)

    def __call__(self, rho):
        return apply_kraus(self, rho)


def _completeness(ops):
    """KrausSet's check of each Kraus stack (..., m, out, in), for
    _check_points: sum_k K_k^dagger K_k, one product of the operators
    stacked by rows, is the identity; a NaN fails it, and so does an
    infinite entry, taken as NaN."""
    *lead, m, _, in_dim = ops.shape
    rows = _nan_for_nonfinite(ops).reshape(*lead, -1, in_dim)
    defect = np.abs(rows.conj().swapaxes(-1, -2) @ rows - np.eye(in_dim)).reshape(*lead, -1).max(-1)
    tol = max(KRAUS_TOL, 1e-13 * in_dim * m)
    return defect <= tol, "Kraus completeness violated by {:.3g}", defect


def _kraus_action(ops, rho):
    """(K_k rho stacked, N(rho)) for Kraus stacks ``ops`` (..., m, out, in)
    and square states ``rho`` (..., in, in), leading axes broadcast; N(rho)
    is one product of the K_k rho and the K_k^dagger placed side by side."""
    if rho.shape[-1] != ops.shape[-1]:
        raise ValueError(
            f"state dim {rho.shape[-1]} != channel input dim {ops.shape[-1]}"
        )
    kr = ops @ rho[..., None, :, :]
    side = (ops.shape[-2], -1)
    out = kr.swapaxes(-3, -2).reshape(kr.shape[:-3] + side) @ (
        ops.swapaxes(-3, -2).reshape(ops.shape[:-3] + side).conj().swapaxes(-1, -2)
    )
    return kr, out


def apply_kraus(kraus, rho):
    """Channel action sum_k K_k rho K_k^dagger."""
    return _kraus_action(kraus.operators, _as_square(rho))[1]


def compose_kraus(outer, inner):
    """Kraus form of outer @ inner (inner acts first): outer_i @ inner_j in
    (i, j)-lexicographic order, one broadcast matmul."""
    if inner.out_dim != outer.in_dim:
        raise ValueError("dimension mismatch in channel composition")
    ops = (outer.operators[:, None] @ inner.operators[None]).reshape(
        -1, outer.out_dim, inner.in_dim
    )
    return KrausSet(inner.in_dim, outer.out_dim, ops)


def tensor_kraus(a, b):
    """Kraus form of the tensor product channel a (x) b.

    Operator (i, j) is kron(a_i, b_j), in (i, j)-lexicographic order;
    the whole stack is one broadcast product.
    """
    return KrausSet(a.in_dim * b.in_dim, a.out_dim * b.out_dim,
                    _tensor_ops(a.operators, b.operators))


def _tensor_ops(A, B):
    """tensor_kraus's operators of Kraus stacks A and B (..., m, out, in),
    leading axes broadcast."""
    out_a, in_a = A.shape[-2:]
    ops = A[..., :, None, :, None, :, None] * B[..., None, :, None, :, None, :]
    return ops.reshape(*ops.shape[:-6], -1, out_a * B.shape[-2], in_a * B.shape[-1])


def purify(rho):
    """A purification of ``rho`` with the reference system first.

    Returns a vector of length dim**2 such that tracing out the
    reference (subsystem 0) recovers ``rho``.  Built from the
    eigendecomposition: |psi> = sum_i sqrt(l_i) |i>_ref (x) |v_i>.
    """
    evals, vecs = _hermitian_eigh(check_density_matrix(rho))
    return (np.sqrt(evals)[:, None] * vecs.T).reshape(-1)


def choi_of(kraus):
    """Choi matrix (id (x) K) on the unnormalized maximally entangled state.

    Ordering is input (x) output, trace equals in_dim, and the partial
    trace over the output block gives the identity for trace-preserving
    maps.  Taken from the read-only operator stack with unit weights.
    """
    return _choi_of_terms(np.ones(len(kraus.operators)), kraus.operators)


def _choi_of_terms(weights, ops):
    """Choi matrix of rho -> sum_i w_i K_i rho K_i^dag, in choi_of's ordering.

    ``ops`` is an (..., m, out_dim, in_dim) stack with (..., m) weights, which
    may be negative, so maps that are not completely positive are
    representable; leading axes give one Choi matrix per map, summed in order.
    """
    *lead, out_dim, in_dim = ops.shape
    v = ops.swapaxes(-1, -2).reshape(*lead, in_dim * out_dim)  # K_i.T flattened
    terms = v[..., :, None] * v.conj()[..., None, :]
    terms *= weights[..., None, None]  # in place: one (..., m, d, d) temporary
    return np.sum(terms, axis=-3)


def coherent_information(kraus, rho):
    """I_c(rho, N) = S(N(rho)) - S(N^c(rho)): _ci_rows on one channel and state."""
    return _ci_rows(kraus.operators, _as_square(rho))


def _ci_rows(ops, rho, *checks):
    """I_c of row i's channel, Kraus stack ops[i], on its state rho[i], for
    stacks ops (..., m, out, in) and rho (..., in, in); no leading axes
    give one float.

    The environment state N^c(rho)[k, l] = tr(K_k rho K_l^dagger) has
    the nonzero spectrum of (id (x) N)(psi) for any purification psi of
    rho, so its dimension is the number of Kraus operators rather than
    the reference's times the output's.  Both states come from the
    stacked products K_k rho of apply_kraus, with one matmul each.  Rows
    are checked with ``checks``, then as states (_check_points); every
    step is stacked, so each row has the bits of its one-row call.
    """
    _check_points(*checks, *_state_checks(rho))
    kr, out = _kraus_action(ops, rho)
    rows = (ops.shape[-3], -1)
    env = kr.reshape(kr.shape[:-3] + rows) @ (
        ops.reshape(ops.shape[:-3] + rows).conj().swapaxes(-1, -2)
    )
    return von_neumann_entropy(out) - von_neumann_entropy(env)
