"""n-use codes for the dephrasure channel and their coherent information.

The n-use output is decomposed into orthogonal blocks keyed by the
binary erasure pattern: distinct patterns give orthogonal outputs, so
the joint entropy splits into a weighted sum of small block entropies
plus a classical term that cancels between the two sums of the coherent
information and is therefore omitted analytically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.optimize import minimize

from .channel import _check_prob, dephrasure_kraus, maximize_over_weights
from .qinfo import (
    _hermitian_eigh,
    binary_entropy,
    shannon_entropy,
    tensor_power_kraus,
    von_neumann_entropy,
)

DEFAULT_N_LIMIT = 6
BRUTE_FORCE_N_LIMIT = 3


@dataclass(frozen=True)
class CodeState:
    """Pure bipartite reference (x) input state for n channel uses."""

    n_uses: int
    ref_dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_uses < 1 or self.ref_dim < 1:
            raise ValueError("n_uses and ref_dim must be positive")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        expected = self.ref_dim * 2**self.n_uses
        if amps.size != expected:
            raise ValueError(
                f"amplitude vector length {amps.size} != "
                f"ref_dim * 2^n = {expected}"
            )
        norm = np.linalg.norm(amps)
        if norm == 0.0:
            raise ValueError("amplitude vector is zero")
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} is not 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def input_state(self):
        """Reduced state of the n input qubits (reference traced out)."""
        mat = self.amplitudes.reshape(self.ref_dim, 2**self.n_uses)
        return mat.conj().T @ mat


def normalized_code(n_uses, ref_dim, amplitudes):
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise ValueError("amplitude vector is zero")
    return CodeState(n_uses, ref_dim, amps / norm)


def schmidt_form(code):
    """The same code with its reference rotated into the Schmidt basis.

    Coherent information is invariant under unitaries on the reference,
    so a searched code is fixed only up to one; this form is not.  With
    U S V^dagger the SVD of the (ref_dim, 2^n) amplitude matrix, row i
    becomes s_i v_i^dagger (Schmidt coefficients descending, rows past
    the rank zero), rotated so that its largest-magnitude entry is real
    and positive.  Rows are unique when the coefficients are distinct.
    """
    mat = code.amplitudes.reshape(code.ref_dim, 2**code.n_uses)
    _, coeffs, vh = np.linalg.svd(mat, full_matrices=False)
    rows = np.zeros_like(mat)
    rows[: len(coeffs)] = coeffs[:, None] * vh
    lead = rows[np.arange(len(rows)), np.abs(rows).argmax(axis=1)]
    rows *= np.exp(-1j * np.angle(lead))[:, None]
    return normalized_code(code.n_uses, code.ref_dim, rows)


@dataclass(frozen=True)
class ErasurePatternBlock:
    """One branch of the n-use output for a fixed erasure pattern."""

    pattern: str  # '1' marks an erased position
    weight: float
    block: np.ndarray  # state on ref_dim * 2^(n - |pattern|)


def u_value(lam, p, n):
    """u = sqrt(1 - 4 lam (1-lam) (1 - (1-2p)^(2n)))."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda = {lam} outside [0, 1]")
    p = _check_prob(p, "p", hi=0.5)
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(np.sqrt(max(0.0, 1.0 - 4 * lam * (1 - lam) * _c_value(p, n))))


def _c_value(p, n):
    """c = 1 - (1-2p)^(2n), computed without cancellation for small p."""
    if p >= 0.5:
        return 1.0
    return -np.expm1(2 * n * np.log1p(-2 * p))


def _rep_small_eig(lam, p, n):
    """(1-u)/2 = 2 lam (1-lam) c / (1+u), stable for tiny lam."""
    c = _c_value(p, n)
    w = 4 * lam * (1 - lam) * c
    u = np.sqrt(np.clip(1.0 - w, 0.0, None))
    return w / (2 * (1 + u))


def repetition_ci(p, q, n, lam):
    """Closed-form coherent information of the weighted n-repetition code.

    ((1-q)^n - q^n) h(lambda) - (1-q)^n h((1-u)/2); the second term is
    the entropy of the dephased two-dimensional purification block.
    """
    p = _check_prob(p, "p", hi=0.5)
    q = _check_prob(q, "q")
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0) or np.any(lam > 1):
        raise ValueError("lambda outside [0, 1]")
    s = _rep_small_eig(lam, p, n)
    out = ((1 - q) ** n - q**n) * binary_entropy(lam) - (
        1 - q
    ) ** n * binary_entropy(s)
    return float(out) if np.ndim(out) == 0 else out


def repetition_ci_opt(p, q, n):
    """Maximize repetition_ci over lambda in [0, 1/2].

    Returns (value, lambda_star).  The scan grid mixes a linear 1e-4
    grid with log-spaced points down to 1e-300: close to the g(p)
    threshold the positive window lives at exponentially small lambda.
    """
    value, lam = maximize_over_weights(
        lambda lam: repetition_ci(p, q, n, lam), 1e-4, 1e-12
    )
    return value, lam


def threshold_f(p, lam, n):
    """The ratio h((1-u)/2) / h(lambda) governing the repetition threshold.

    Monotonically decreasing to 1 - (1-2p)^(2n) as lambda -> 0.
    """
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError("threshold_f requires lambda in (0, 1)")
    p = _check_prob(p, "p", hi=0.5)
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(binary_entropy(_rep_small_eig(lam, p, n)) / binary_entropy(lam))


def repetition_code_state(n, lam):
    """CodeState form sqrt(lam)|0..0>|0..0> + sqrt(1-lam)|1..1>|1..1>."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda outside [0, 1]")
    amps = np.zeros(2 ** (n + 1), dtype=complex)
    amps[0] = np.sqrt(lam)
    amps[-1] = np.sqrt(1 - lam)
    return CodeState(n, 2, amps)


def zdiag_code(schmidt):
    """Z-diagonal code sum_s c_s |s>|s> from 2^n Schmidt coefficients."""
    coeffs = np.asarray(schmidt, dtype=float).reshape(-1)
    if np.any(coeffs < 0):
        raise ValueError("Schmidt coefficients must be nonnegative")
    n = int(np.log2(coeffs.size))
    if 2**n != coeffs.size:
        raise ValueError("Schmidt vector length must be a power of 2")
    dim = coeffs.size
    amps = np.zeros(dim * dim, dtype=complex)
    amps[np.arange(dim) * dim + np.arange(dim)] = coeffs
    return normalized_code(n, dim, amps)


def chi3_code(c1, d1, c2, d2):
    """The 5-qubit non-diagonal 3-use code.

    |0000>|psi1> + |1111>|psi1> + |0101>|psi2> + |1010>|X psi2> with
    psi_i = c_i|0> + d_i|1>; the three right-most qubits are the channel
    inputs, the two left-most qubits the reference (dimension 4).
    """
    coeffs = np.array([c1, d1, c2, d2], dtype=complex)
    return normalized_code(3, 4, coeffs @ _chi3_map())


@functools.cache
def _chi3_map():
    """The linear map (c1, d1, c2, d2) -> chi_3 amplitudes, a 4 x 32 array."""
    out = np.zeros((4, 32))
    # the four leading qubits index pairs of amplitudes; the fifth qubit
    # carries psi1 = (c1, d1), psi2 = (c2, d2) or X psi2 = (d2, c2)
    for lead, (row0, row1) in ((0b0000, (0, 1)), (0b1111, (0, 1)),
                               (0b0101, (2, 3)), (0b1010, (3, 2))):
        out[row0, 2 * lead] = out[row1, 2 * lead + 1] = 1.0
    out.setflags(write=False)
    return out


def _dephasing_mask(p, m):
    """(1-2p)^HammingDistance scaling matrix for m dephased qubits."""
    if m == 0:
        return np.ones((1, 1))
    idx = np.arange(2**m)
    dist = np.bitwise_count(idx[:, None] ^ idx[None, :])
    return (1.0 - 2.0 * p) ** dist


@dataclass(frozen=True)
class _PatternGroup:
    """The erasure patterns of one plan that erase ``erased`` uses."""

    erased: int
    patterns: tuple  # pattern strings, '1' marks an erased position
    # indices into the amplitude vector: gather[c] is pattern c's
    # (ref_dim * 2^(n - erased), 2^erased) matrix, rows ordered
    # (reference, survivors), columns the erased qubits
    gather: np.ndarray


@functools.lru_cache(maxsize=64)
def _block_plan(n, ref_dim):
    """The erasure-pattern structure of (n, ref_dim) codes, by erased count.

    Depends on neither p nor q, so one plan serves every evaluation of
    codes of this shape.
    """
    flat = np.arange(ref_dim * 2**n).reshape([ref_dim] + [2] * n)
    by_erased = {}
    for bits in product((0, 1), repeat=n):
        erased = [j + 1 for j, b in enumerate(bits) if b]
        survivors = [j + 1 for j, b in enumerate(bits) if not b]
        gather = np.transpose(flat, [0] + survivors + erased).reshape(
            ref_dim * 2 ** len(survivors), 2 ** len(erased)
        )
        by_erased.setdefault(len(erased), []).append(
            ("".join(map(str, bits)), gather)
        )
    plan = []
    for k, members in sorted(by_erased.items()):
        gather = np.stack([g for _, g in members])
        gather.setflags(write=False)
        plan.append(_PatternGroup(k, tuple(pat for pat, _ in members), gather))
    return tuple(plan)


def _weighted_groups(n, ref_dim, p, q):
    """(group, classical weight, dephasing mask) for every plan group.

    The weight of a pattern erasing k uses is q^k (1-q)^(n-k); the mask
    scales each block entry by (1-2p)^(Hamming distance of survivors)
    and leaves the reference untouched.
    """
    p = _check_prob(p, "p")
    q = _check_prob(q, "q")
    return [
        (
            group,
            q**group.erased * (1 - q) ** (n - group.erased),
            np.kron(
                np.ones((ref_dim, ref_dim)), _dephasing_mask(p, n - group.erased)
            ),
        )
        for group in _block_plan(n, ref_dim)
    ]


def _group_blocks(mats, mask):
    """The dephased blocks rho = (M M^dagger) o mask of gathered matrices.

    ``mats`` is ``amps[..., group.gather]``, (..., patterns, d, e); the
    result is (..., patterns, d, d).
    """
    return (mats @ mats.conj().swapaxes(-1, -2)) * mask


def _reference_traced(blocks, ref_dim):
    """The input parts tr_ref(rho) of a stack (..., d, d) of blocks."""
    m = blocks.shape[-1] // ref_dim
    return np.trace(
        blocks.reshape(*blocks.shape[:-2], ref_dim, m, ref_dim, m),
        axis1=-4,
        axis2=-2,
    )


def _log2_matrix(evals, vecs):
    """log2 of Hermitian matrices from their eigendecomposition.

    Taken as 0 on the kernel.  The gradients below multiply it into the
    columns of M for rho = (M M^dagger) o K, and range(M) lies in
    range(rho): for p <= 1/2 the dephasing keeps its identity Kraus
    term with weight (1-p)^m > 0.
    """
    logs = np.log2(np.where(evals > 0, evals, 1.0))
    return (vecs * logs[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def pattern_decompose(code, p, q):
    """All 2^n erasure-pattern blocks of the n-use channel output.

    For pattern s the erased input qubits are traced out, dephasing acts
    on every survivor, and the classical weight is q^|s| (1-q)^(n-|s|).
    The reference stays untouched.  Blocks come in lexicographic
    pattern order.
    """
    blocks = []
    for group, weight, mask in _weighted_groups(code.n_uses, code.ref_dim, p, q):
        stack = _group_blocks(code.amplitudes[group.gather], mask)
        blocks += [
            ErasurePatternBlock(pattern, weight, block)
            for pattern, block in zip(group.patterns, stack)
        ]
    return sorted(blocks, key=lambda blk: blk.pattern)


# cap on the size of one stack of the largest (no-erasure) blocks: the
# stacked work is one LAPACK call per matrix, so larger stacks gain no
# speed, while their temporaries raise the process's peak memory
_STACK_BYTES = 1 << 17


def _nonzero_groups(n, ref_dim, p, q):
    """The (group, weight, mask) terms of ``_weighted_groups`` with weight > 0."""
    return [term for term in _weighted_groups(n, ref_dim, p, q) if term[1] != 0.0]


def _ci_evaluator(n, ref_dim, p, q):
    """Batched coherent information of (n, ref_dim) codes at fixed (p, q).

    Returns ``evaluate(amps)`` mapping unit-norm amplitude rows (B,
    ref_dim 2^n) to B values.  Per group of patterns it makes one stacked
    matmul and two stacked entropy calls, for the blocks and for their
    reference-traced input parts, over as many rows as fit in
    _STACK_BYTES; zero-weight groups are skipped.
    """
    terms = _nonzero_groups(n, ref_dim, p, q)
    # a no-erasure block is (ref_dim 2^n)^2 complex entries of 16 bytes
    rows = max(1, _STACK_BYTES // (16 * (ref_dim * 2**n) ** 2))

    def evaluate(amps):
        total = np.zeros(len(amps))
        for start in range(0, len(amps), rows):
            chunk = amps[start : start + rows]
            for group, weight, mask in terms:
                blocks = _group_blocks(chunk[..., group.gather], mask)
                inputs = _reference_traced(blocks, ref_dim)
                total[start : start + rows] += weight * np.sum(
                    von_neumann_entropy(inputs) - von_neumann_entropy(blocks),
                    axis=-1,
                )
        return total

    return evaluate


def _ci_gradient(n, ref_dim, p, q):
    """Coherent information of one (n, ref_dim) code and its exact gradient.

    Returns ``value_and_grad(amps)`` for a unit-norm amplitude vector a;
    the gradient is df/d(Re a) + i df/d(Im a), taken from the same
    eigendecompositions as the value.  For a block rho = (M M^dagger) o K
    with input part rho_in = tr_ref(rho) and K = 1_ref (x) D,

        grad_M [S(rho_in) - S(rho)]
            = 2 ((log2 rho) o K) M - 2 (I_ref (x) ((log2 rho_in) o D)) M,

    the 1/ln 2 terms of dS = -tr[(log2 rho + 1/ln 2) d rho] cancelling
    because tr rho = tr rho_in.  Each pattern's term is scattered back
    into the amplitude vector through its gather indices.
    """
    terms = _nonzero_groups(n, ref_dim, p, q)

    def value_and_grad(amps):
        value, grad = 0.0, np.zeros(amps.shape, dtype=complex)
        for group, weight, mask in terms:
            mats = amps[group.gather]
            blocks = _group_blocks(mats, mask)
            inputs = _reference_traced(blocks, ref_dim)
            evals, vecs = _hermitian_eigh(blocks)
            in_evals, in_vecs = _hermitian_eigh(inputs)
            value += weight * float(
                np.sum(shannon_entropy(in_evals) - shannon_entropy(evals))
            )
            m = inputs.shape[-1]
            log_in = _log2_matrix(in_evals, in_vecs) * mask[:m, :m]
            split = mats.reshape(len(mats), ref_dim, m, -1)
            part = (_log2_matrix(evals, vecs) * mask) @ mats - (
                log_in[:, None] @ split
            ).reshape(mats.shape)
            np.add.at(grad, group.gather, 2.0 * weight * part)
        return value, grad

    return value_and_grad


def multiletter_ci(code, p, q, n_limit=DEFAULT_N_LIMIT):
    """Coherent information of an arbitrary code via block decomposition.

    Sum over erasure patterns of weight * [S(block without reference) -
    S(block with reference)]; the classical pattern-entropy terms cancel
    between the two sums and are omitted.
    """
    if code.n_uses > n_limit:
        raise ValueError(f"n = {code.n_uses} exceeds the limit {n_limit}")
    evaluate = _ci_evaluator(code.n_uses, code.ref_dim, p, q)
    return float(evaluate(code.amplitudes[None])[0])


def _code_objective(n, ref_dim, p, q, amplitudes):
    """Swarm objective: rows of real parameters -> minus coherent information.

    ``amplitudes`` maps an (m, dim) parameter array to m amplitude rows
    of (n, ref_dim) codes, which are normalized before evaluation; a row
    whose amplitudes are all zero is an infeasible sentinel and maps to
    inf.
    """
    evaluate = _ci_evaluator(n, ref_dim, p, q)

    def objective(x):
        amps = amplitudes(np.asarray(x, dtype=float))
        norms = np.linalg.norm(amps, axis=-1)
        out = np.full(len(amps), np.inf)
        ok = norms != 0.0
        if ok.any():
            out[ok] = -evaluate(amps[ok] / norms[ok, None])
        return out

    return objective


def _chi3_objective(p, q):
    """Swarm objective over the 8 real parameters (Re, Im of c1, d1, c2, d2)."""
    return _code_objective(
        3, 4, p, q, lambda x: (x[:, 0::2] + 1j * x[:, 1::2]) @ _chi3_map()
    )


def _chi3_polish_objective(p, q):
    """Minus the chi_3 coherent information of one 8-parameter row, with
    its exact gradient through the fixed map ``_chi3_map()``."""
    value_and_grad = _ci_gradient(3, 4, p, q)
    chi3 = _chi3_map()

    def objective(x):
        raw = (x[0::2] + 1j * x[1::2]) @ chi3
        norm = np.linalg.norm(raw)
        if norm == 0.0:
            return np.inf, np.zeros(8)
        amps = raw / norm
        value, grad = value_and_grad(amps)
        # through the normalization, then the linear map
        grad = chi3 @ ((grad - amps * np.vdot(amps, grad).real) / norm)
        out = np.empty(8)
        out[0::2], out[1::2] = grad.real, grad.imag
        return -value, -out

    return objective


def brute_force_ci(code, p, q):
    """Independent oracle: explicit n-fold Kraus map on the 3^n output.

    Computes S(N(rho)) - S((id (x) N)(psi)) with the full tensor-product
    Kraus set; exponential in n, so n <= 3 only.
    """
    n = code.n_uses
    if n > BRUTE_FORCE_N_LIMIT:
        raise ValueError(f"brute force supports n <= {BRUTE_FORCE_N_LIMIT}")
    kraus = tensor_power_kraus(dephrasure_kraus(p, q), n)
    rho = code.input_state()
    out = sum(K @ rho @ K.conj().T for K in kraus.operators)
    eye = np.eye(code.ref_dim)
    cols = [np.kron(eye, K) @ code.amplitudes for K in kraus.operators]
    v = np.column_stack(cols)
    joint = v @ v.conj().T
    return von_neumann_entropy(out) - von_neumann_entropy(joint)


def _zdiag_evaluator(p, q, n):
    """Coherent information of Z-diagonal n-use codes at fixed (p, q).

    For code sum_s c_s |s>|s> every pattern block is supported on the
    orthonormal set {|s>_ref (x) |s_surv>}, so its matrix in that basis
    is B_s = (c c^T) o K_s with K_s[s, s'] = [s_erased == s'_erased]
    (1-2p)^d(s_surv, s'_surv), and the eigenproblem is only
    2^n-dimensional.  The masks of all nonzero-weight patterns are built
    here, once; ``value_and_grad(coeffs)`` then makes one stacked eigh
    call and one matmul for the reference-traced diagonals
    g_s = G_s c^2, and returns the value with its exact gradient

        dS(B_s)/dc = -2 ((log2 B_s) o K_s) c,
        dH(g_s)/dc_i = -2 c_i sum_t G_s[t, i] log2 g_s[t],

    whose 1/ln 2 terms cancel between the two entropies.
    """
    dim = 2**n
    erased = np.arange(dim)  # erased-position bit masks, in pattern order
    k = np.bitwise_count(erased)
    weights = q**k * (1 - q) ** (n - k)
    keep = weights != 0.0
    erased, weights = erased[keep, None, None], weights[keep]
    idx = np.arange(dim)
    diff = idx[:, None] ^ idx[None, :]
    surv = (dim - 1) ^ erased
    masks = ((diff & erased) == 0) * (1.0 - 2.0 * p) ** np.bitwise_count(diff & surv)
    # grouping[s, t, i] = [i & surv_s == t]: reference traced out, the
    # diagonal state is grouped by the surviving bits
    grouping = ((idx[None, None, :] & surv) == idx[None, :, None]).astype(float)
    grouping = grouping.reshape(-1, dim)

    def value_and_grad(coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        evals, vecs = _hermitian_eigh(np.outer(coeffs, coeffs) * masks)
        grouped = (grouping @ coeffs**2).reshape(len(weights), dim)
        value = float(weights @ (shannon_entropy(grouped) - shannon_entropy(evals)))
        log_grouped = np.log2(np.where(grouped > 0, grouped, 1.0))
        grad = 2.0 * (
            weights @ ((_log2_matrix(evals, vecs) * masks) @ coeffs)
            - coeffs * ((weights[:, None] * log_grouped).reshape(-1) @ grouping)
        )
        return value, grad

    return value_and_grad


def _zdiag_ci_fast(coeffs, p, q, n):
    """Coherent information of a Z-diagonal code on its 2^n-dim support."""
    return _zdiag_evaluator(p, q, n)(coeffs)[0]


# local polish of every code search; L-BFGS-B's ftol is relative to
# max(|f|, 1), so absolute for the sub-bit values near the thresholds
_LBFGS_OPTIONS = {"maxiter": 200, "ftol": 1e-15, "gtol": 1e-10}


def optimize_zdiag(p, q, n, seed=0, n_starts=32, n_limit=DEFAULT_N_LIMIT):
    """Optimize the Schmidt coefficients of the Z-diagonal n-use code.

    Multi-start L-BFGS-B with the exact gradient over w, the code
    being c = w / |w|, warm started from the optimal weighted repetition
    code.  The value is invariant under sign flips of any c_s, so w
    needs no sign constraint and |c| is returned.  Deterministic per
    seed.  Returns (value, coefficients) with coefficients in
    lexicographic pattern order.
    """
    p = _check_prob(p, "p", hi=0.5)
    q = _check_prob(q, "q", hi=0.5)
    if n > n_limit:
        raise ValueError(f"n = {n} exceeds the limit {n_limit}")
    dim = 2**n
    evaluate = _zdiag_evaluator(p, q, n)

    def objective(w):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return np.inf, np.zeros(dim)
        coeffs = w / norm
        value, grad = evaluate(coeffs)
        # minus the gradient, projected onto the sphere's tangent at c
        return -value, (coeffs * (coeffs @ grad) - grad) / norm

    rep_val, rep_lam = repetition_ci_opt(p, q, n)
    warm = np.zeros(dim)
    warm[0], warm[-1] = np.sqrt(rep_lam), np.sqrt(1 - rep_lam)
    rng = np.random.default_rng(seed)
    starts = [warm] + [np.abs(rng.standard_normal(dim)) for _ in range(n_starts)]

    best_val, best_coeffs = -np.inf, warm
    for start in starts:
        res = minimize(
            objective, start, jac=True, method="L-BFGS-B", options=_LBFGS_OPTIONS
        )
        val = -res.fun
        if val > best_val:
            coeffs = np.abs(res.x) / np.linalg.norm(res.x)
            best_val, best_coeffs = val, coeffs
    if rep_val > best_val:  # warm-start value is always feasible
        best_val = rep_val
        best_coeffs = warm
    return best_val, best_coeffs


def optimize_chi3(p, q, seed=0, config=None):
    """Optimize the chi_3 code coefficients with particle swarm search.

    Returns (value, (c1, d1, c2, d2)) for the normalized best code.
    """
    from .pso import PsoConfig, pso_minimize

    p = _check_prob(p, "p", hi=0.5)
    q = _check_prob(q, "q", hi=0.5)

    objective = _chi3_objective(p, q)
    if config is None:
        config = PsoConfig(
            bounds=((-1.0, 1.0),) * 8, seed=seed, max_iterations=200
        )
    # structured warm starts: the GHZ-flavored psi2 = 0 code, plus a
    # family with small psi1 ~ |+> weight — near the threshold the
    # optimum retreats into that narrow corner of the parameter box,
    # mirroring the small-lambda behavior of the repetition codes
    warms = [np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]) / np.sqrt(2)]
    for eps in (0.3, 0.1, 0.03):
        warms.append(np.array([eps, 0.0, eps, 0.0, 1.0, 0.0, 0.0, 0.0]))
    result = pso_minimize(objective, 8, config, warm_starts=warms)

    # deterministic local polish from the swarm best and each warm start
    polish = _chi3_polish_objective(p, q)
    best_val, best_x = result.best_value, result.best_position
    for start in [result.best_position] + warms:
        res = minimize(
            polish, start, jac=True, method="L-BFGS-B", options=_LBFGS_OPTIONS
        )
        if res.fun < best_val:
            best_val, best_x = res.fun, res.x
    vec = best_x[0::2] + 1j * best_x[1::2]
    vec = vec / np.linalg.norm(vec)
    return -best_val, tuple(vec)
