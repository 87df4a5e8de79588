"""Dense quantum-information primitives for small systems.

States are plain numpy arrays: density matrices are square complex
arrays, pure states are complex vectors.  Channels are represented by
:class:`KrausSet`.  Everything here is a pure function over immutable
inputs, so all of it is safe to call from parallel sweep workers.

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


def check_density_matrix(rho, *, trace_tol=TRACE_TOL):
    """Validate Hermiticity, unit trace and positivity of ``rho``.

    Returns the validated matrix (as a complex array).  Raises
    ``ValueError`` on violation.
    """
    rho = _as_square(rho)
    asym = np.max(np.abs(rho - rho.conj().T))
    if asym > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3g})")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > max(trace_tol, 1e-12 * rho.shape[0]):
        raise ValueError(f"trace is {tr}, expected 1")
    evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if evals.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"negative eigenvalue {evals.min():.3g}")
    return rho


def shannon_entropy(probs):
    """Shannon entropy in bits of a nonnegative weight vector.

    A stack of vectors (..., d) gives an array of one entropy per vector;
    nonpositive entries contribute nothing.
    """
    probs = np.asarray(probs, dtype=float)
    out = -(probs * np.log2(np.where(probs > 0, probs, 1.0))).sum(axis=-1)
    return float(out) if probs.ndim == 1 else out


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2(1-x), elementwise, endpoints 0.

    Uses log1p for the (1-x) term so that h stays accurate for
    arguments as small as ~1e-300 (needed when scanning exponentially
    small code weights near the coherent-information threshold).
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("binary_entropy argument outside [0, 1]")
    out = np.zeros_like(arr)
    inner = (arr > 0.0) & (arr < 1.0)
    xi = arr[inner]
    out[inner] = -xi * np.log2(xi) - (1.0 - xi) * np.log1p(-xi) / LN2
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
    herm = rho.conj().swapaxes(-1, -2)
    asym = np.abs(rho - herm).max()
    if asym > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3g})")
    if vectors:
        evals, vecs = np.linalg.eigh((rho + herm) / 2)
    else:
        evals = np.linalg.eigvalsh((rho + herm) / 2)
    if evals.min() < EIGENVALUE_FLOOR:
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


@dataclass(frozen=True)
class KrausSet:
    """A completely positive trace-preserving map in Kraus form."""

    in_dim: int
    out_dim: int
    operators: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(K, dtype=complex) for K in self.operators)
        if not ops:
            raise ValueError("KrausSet needs at least one operator")
        for K in ops:
            if K.shape != (self.out_dim, self.in_dim):
                raise ValueError(
                    f"Kraus operator shape {K.shape} != "
                    f"({self.out_dim}, {self.in_dim})"
                )
        acc = sum(K.conj().T @ K for K in ops)
        defect = np.max(np.abs(acc - np.eye(self.in_dim)))
        if defect > max(KRAUS_TOL, 1e-13 * self.in_dim * len(ops)):
            raise ValueError(f"Kraus completeness violated by {defect:.3g}")
        object.__setattr__(self, "operators", ops)

    def __call__(self, rho):
        return apply_kraus(self, rho)


def apply_kraus(kraus, rho):
    """Channel action sum_k K_k rho K_k^dagger."""
    rho = _as_square(rho)
    if rho.shape[0] != kraus.in_dim:
        raise ValueError(
            f"state dim {rho.shape[0]} != channel input dim {kraus.in_dim}"
        )
    out = np.zeros((kraus.out_dim, kraus.out_dim), dtype=complex)
    for K in kraus.operators:
        out += K @ rho @ K.conj().T
    return out


def compose_kraus(outer, inner):
    """Kraus form of the composition outer @ inner (inner acts first)."""
    if inner.out_dim != outer.in_dim:
        raise ValueError("dimension mismatch in channel composition")
    ops = [A @ B for A in outer.operators for B in inner.operators]
    return KrausSet(inner.in_dim, outer.out_dim, tuple(ops))


def tensor_kraus(a, b):
    """Kraus form of the tensor product channel a (x) b."""
    ops = [np.kron(A, B) for A in a.operators for B in b.operators]
    return KrausSet(a.in_dim * b.in_dim, a.out_dim * b.out_dim, tuple(ops))


def tensor_power_kraus(kraus, n):
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    out = kraus
    for _ in range(n - 1):
        out = tensor_kraus(out, kraus)
    return out


def partial_trace(rho, dims, keep):
    """Reduced state on the subsystems listed in ``keep``.

    ``dims`` lists the subsystem dimensions; their product must equal
    the dimension of ``rho``.  Subsystem order is preserved.
    """
    rho = _as_square(rho)
    dims = [int(d) for d in dims]
    n = len(dims)
    if int(np.prod(dims)) != rho.shape[0]:
        raise ValueError(f"product of dims {dims} != state dim {rho.shape[0]}")
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    t = rho.reshape(dims + dims)
    m = n
    for i in [j for j in range(n - 1, -1, -1) if j not in keep]:
        t = np.trace(t, axis1=i, axis2=i + m)
        m -= 1
    d_keep = int(np.prod([dims[k] for k in keep]))
    return t.reshape(d_keep, d_keep)


def purify(rho):
    """A purification of ``rho`` with the reference system first.

    Returns a vector of length dim**2 such that tracing out the
    reference (subsystem 0) recovers ``rho``.  Built from the
    eigendecomposition: |psi> = sum_i sqrt(l_i) |i>_ref (x) |v_i>.
    """
    rho = check_density_matrix(rho)
    evals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    evals = np.clip(evals, 0.0, None)
    psi = (np.sqrt(evals)[:, None] * vecs.T).reshape(-1)
    return psi


def choi_of(kraus):
    """Choi matrix (id (x) K) on the unnormalized maximally entangled state.

    Ordering is input (x) output, trace equals in_dim, and the partial
    trace over the output block gives the identity for trace-preserving
    maps.
    """
    d = kraus.in_dim * kraus.out_dim
    choi = np.zeros((d, d), dtype=complex)
    for K in kraus.operators:
        w = K.T.reshape(-1)
        choi += np.outer(w, w.conj())
    return choi


def is_completely_positive(choi, tol=1e-10):
    """CP test: the (Hermitian) Choi matrix has min eigenvalue >= -tol."""
    choi = _as_square(choi)
    if np.max(np.abs(choi - choi.conj().T)) > HERMITICITY_TOL:
        raise ValueError("Choi matrix is not Hermitian")
    return bool(np.linalg.eigvalsh(choi).min() >= -tol)


def coherent_information(kraus, rho):
    """I_c(rho, N) = S(N(rho)) - S((id (x) N)(psi)) for a purification psi.

    The second term is the output entropy of the complementary channel,
    rephrased through the purification, so no explicit environment
    representation is needed.
    """
    rho = check_density_matrix(rho)
    psi = purify(rho)
    d = rho.shape[0]
    eye = np.eye(d)
    cols = [np.kron(eye, K) @ psi for K in kraus.operators]
    v = np.column_stack(cols)
    joint = v @ v.conj().T
    return von_neumann_entropy(apply_kraus(kraus, rho)) - von_neumann_entropy(joint)
