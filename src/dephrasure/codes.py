"""n-use codes for the dephrasure channel and their coherent information.

The n-use output is decomposed into orthogonal blocks keyed by the
binary erasure pattern: distinct patterns give orthogonal outputs, so
the joint entropy splits into a weighted sum of small block entropies
plus a classical term that cancels between the two sums of the coherent
information and is therefore omitted analytically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .channel import (
    _broadcast,
    _channel_ops,
    _check_prob,
    _checked_ops,
    _factored_scan,
    _in_prob,
    _libm_pow,
    _points,
    _shaped,
    _small_eigenvalue,
    maximize_over_weights,
    region_k,
)
from .qinfo import (
    _check_points,
    _ci_rows,
    _completeness,
    _hermitian_eigh,
    _tensor_ops,
    binary_entropy,
    von_neumann_entropy,
)

N_LIMIT = 6
BRUTE_FORCE_N_LIMIT = 4


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class ErasurePatternBlock:
    """One branch of the n-use output for a fixed erasure pattern."""

    pattern: str  # '1' marks an erased position
    weight: float
    block: np.ndarray  # state on ref_dim * 2^(n - |pattern|)


def _c_value(p, n):
    """c = 1 - (1-2p)^(2n), computed without cancellation for small p."""
    below = p < 0.5
    return np.where(below, -np.expm1(2 * n * np.log1p(-2 * np.where(below, p, 0.0))), 1.0)


def _repetition_terms(p, q, n):
    """(shape, c, (1-q)^n, q^n) at broadcast p, q and n, each point checked
    in C order for p in [0, 1/2], q in [0, 1] and n >= 1, in turn; the
    powers are libm's, as Python floats take them."""
    p, q, n = _broadcast(p, q, n)
    _check_points(_in_prob("p", p, 0.5), _in_prob("q", q, 1.0),
                  (n >= 1, "n must be >= 1", n))
    p, q = np.minimum(p, 0.5), np.minimum(q, 1.0)
    kept, erased = (np.asarray(_libm_pow(v, n), dtype=float) for v in (1 - q, q))
    return p.shape, _c_value(p, n), kept, erased


def repetition_ci(p, q, n, lam):
    """Closed-form coherent information of the weighted n-repetition code.

    ((1-q)^n - q^n) h(lambda) - (1-q)^n h((1-u)/2); the second term is
    the entropy of the dephased two-dimensional purification block.
    """
    _, c, kept, erased = _repetition_terms(p, q, n)
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0) or np.any(lam > 1):
        raise ValueError("lambda outside [0, 1]")
    code, block = _repetition_entropies(c, lam)
    out = (kept - erased) * code - kept * block
    return float(out) if np.ndim(out) == 0 else out


def _repetition_entropies(c, lam):
    """h(lam) and the entropy h((1-u)/2) of the dephased purification
    block, u = sqrt(1 - 4 lam (1-lam) c), its small eigenvalue (1-u)/2
    taken stably for tiny lam; c = _c_value(p, n)."""
    return binary_entropy(lam), binary_entropy(_small_eigenvalue(4 * lam * (1 - lam) * c))


def repetition_ci_opt(p, q, n):
    """Maximize repetition_ci over lambda in [0, 1/2].

    Returns (value, lambda_star).  The scan grid mixes a linear 1e-4
    grid with log-spaced points down to 1e-300: close to the g(p)
    threshold the positive window lives at exponentially small lambda.
    p, q and n broadcast: arrays give arrays of the broadcast shape from
    one batched scan, scalars give Python floats.  Each point is checked
    as repetition_ci checks it, in C order.
    """
    shape, *terms = _repetition_terms(p, q, n)
    c, kept, erased = (np.reshape(term, (-1, 1)) for term in terms)
    value_fn, scan = _factored_scan(_repetition_entropies, c, kept - erased, kept)
    value, lam = maximize_over_weights(value_fn, 1e-4, 1e-12, scan)
    return _shaped(shape, value, lam)


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


@functools.cache
def _qubit_tables(m):
    """Read-only (Hamming distances, Hamming weights, m less the weights,
    signs (-1)^(x.s)) of the 2^m basis states of m qubits."""
    idx = np.arange(2**m)
    flips = np.bitwise_count(idx)
    tables = (np.bitwise_count(idx[:, None] ^ idx), flips, m - flips,
              1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx) & 1))
    for table in tables:
        table.setflags(write=False)
    return tables


@dataclass(frozen=True, eq=False)
class _PatternGroup:
    """The erasure patterns of one plan that erase ``erased`` uses."""

    erased: int
    patterns: tuple  # pattern strings, '1' marks an erased position
    # indices into the amplitude vector: gather[c] is pattern c's
    # (ref_dim * 2^(n - erased), 2^erased) matrix, rows ordered
    # (reference, survivors), columns the erased qubits
    gather: np.ndarray
    gram: bool  # N^dagger N (2^n-dim) is smaller than the block N N^dagger


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
        plan.append(_PatternGroup(k, tuple(pat for pat, _ in members), gather, ref_dim > 2**k))
    return tuple(plan)


def _dephasing_factors(p, m):
    """F[x, s] = sqrt(w_s) (-1)^(s.x) for m dephased qubits.

    w_s = p^|s| (1-p)^(m-|s|) is the weight of the Kraus operator Z^s,
    which multiplies basis state x by (-1)^(s.x); sum_s F[x, s] F[y, s]
    is the dephasing mask entry (1-2p)^(Hamming distance of x and y).
    """
    _, flips, kept, signs = _qubit_tables(m)
    return signs * np.sqrt(p**flips * (1 - p) ** kept)


def _spectral_logs(evals):
    """(log2 of each eigenvalue, 0 on the kernel, and the entropy -sum
    evals log2 evals of each spectrum): one log2 serves a spectrum's
    entropy and its ``_log2_matrix``."""
    logs = np.log2(np.where(evals > 0, evals, 1.0))
    return logs, -(evals * logs).sum(axis=-1)


def _log2_matrix(logs, vecs):
    """log2 of Hermitian matrices from their eigenvectors and the logs of
    their eigenvalues (``_spectral_logs``).

    Taken as 0 on the kernel, which no gradient below sees.  The block
    gradients multiply it into N from the side of N's own kernel:
    N log2(N^dagger N) and log2(N N^dagger) N, with ker(N^dagger N) =
    ker N and ker(N N^dagger) = ker N^dagger.  The Z-diagonal gradient
    multiplies (log2 B) o D into a column c_e, i.e. log2 B into the
    vectors Z^t c_e of which its block B = (c_e c_e^T) o D is a
    positively weighted sum, so they lie in range(B).
    """
    return (vecs * logs[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def pattern_decompose(code, p, q):
    """All 2^n erasure-pattern blocks of the n-use channel output.

    For pattern s the erased input qubits are traced out, dephasing acts
    on every survivor, and the classical weight is q^|s| (1-q)^(n-|s|).
    The reference stays untouched.  Blocks come in lexicographic
    pattern order.
    """
    ref_dim = code.ref_dim
    blocks = []
    for group, weights, dephasing, _ in _point_tables(code.n_uses, ref_dim, p, q):
        mats = code.amplitudes[group.gather]
        stack = (mats @ mats.conj().swapaxes(-1, -2)) * np.kron(
            np.ones((ref_dim, ref_dim)), dephasing[0]
        )
        blocks += [
            ErasurePatternBlock(pattern, float(weights[0]), block)
            for pattern, block in zip(group.patterns, stack)
        ]
    return sorted(blocks, key=lambda blk: blk.pattern)


def _point_tables(n, ref_dim, p, q):
    """(group, weights, D, F) of every plan group, on a leading axis of the
    points p and q (one point or 1-d arrays), each point's from its own p
    and q, checked as dephrasure_kraus checks them, as for it alone.

    The weight of a pattern erasing k uses is q^k (1-q)^(n-k), 0 where
    it underflows or q is 0 or 1, and the evaluators skip the group
    there.  D, the survivors' dephasing mask, scales their coherences by
    (1-2p)^(Hamming distance), so a block is (M M^dagger) o (1_ref (x) D)
    for its gathered matrix M; F = _dephasing_factors(p, m).
    """
    points = [(_check_prob(pi, "p"), _check_prob(qi, "q"))
              for pi, qi in zip(np.ravel(p).tolist(), np.ravel(q).tolist())]
    return [
        (
            group,
            np.array([qi**group.erased * (1 - qi) ** (n - group.erased) for _, qi in points]),
            np.array([(1.0 - 2.0 * pi) ** _qubit_tables(n - group.erased)[0] for pi, _ in points]),
            np.array([_dephasing_factors(pi, n - group.erased) for pi, _ in points]),
        )
        for group in _block_plan(n, ref_dim)
    ]


def _group_rows(tables, amps, points):
    """(rows, weights, group, M, D, F) of each group's rows of nonzero
    weight, row i at point ``points[i]`` (every row at the first point
    without ``points``), M their gathered matrices: each row sees the
    groups of its one-point call."""
    if points is None:  # every row at the first point: nothing to gather
        rows = np.arange(len(amps))
        for group, weights, dephasing, factors in tables:
            if weights[0] != 0.0:
                mats = np.take(amps, group.gather, axis=1)
                yield rows, weights[0], group, mats, dephasing[:1], factors[:1]
        return
    for group, weights, dephasing, factors in tables:
        weight = weights[points]
        rows = np.flatnonzero(weight != 0.0)
        if rows.size:
            at = points[rows]  # gathered in C order, whatever B is
            mats = np.take(amps[rows], group.gather, axis=1)
            yield rows, weight[rows], group, mats, dephasing[at], factors[at]


def _block_factor(mats, factors, ref_dim):
    """N = [sqrt(w_s) (1_ref (x) Z^s) M]_s, so that the block is N N^dagger.

    ``mats`` is a stack (B, patterns, ref_dim 2^m, 2^e) of gathered
    matrices M and ``factors`` (B or 1, 2^m, 2^m) each row's F; N is
    (B, patterns, ref_dim 2^m, 2^m 2^e) with columns ordered (s, erased),
    i.e. N[(r, x), (s, j)] = F[x, s] M[(r, x), j].
    """
    *lead, rows, cols = mats.shape
    surv = factors.shape[-1]
    split = mats.reshape(*lead, ref_dim, surv, 1, cols) * factors[:, None, None, :, :, None]
    return split.reshape(*lead, rows, surv * cols)


def _input_parts(mats, dephasing, ref_dim):
    """tr_ref of the blocks, (sum_r M_r M_r^dagger) o D, straight from M,
    with D (B or 1, 2^m, 2^m) each row's mask."""
    *lead, _, cols = mats.shape
    surv = dephasing.shape[-1]
    rows = mats.reshape(*lead, ref_dim, surv, cols).swapaxes(-3, -2)
    rows = rows.reshape(*lead, surv, ref_dim * cols)
    return (rows @ rows.conj().swapaxes(-1, -2)) * dephasing[:, None]


def _block_side(factor, gram):
    """N^dagger N if ``gram``, else the block N N^dagger: one spectrum."""
    adjoint = factor.conj().swapaxes(-1, -2)
    return adjoint @ factor if gram else factor @ adjoint


def _ci_evaluator(n, ref_dim, p, q):
    """Batched coherent information of (n, ref_dim) codes.

    p and q are one point or 1-d arrays of points.  Returns
    ``evaluate(amps, points=None)`` mapping unit-norm amplitude rows (B,
    ref_dim 2^n), row i at point ``points[i]``, to B values, as
    ``_ci_gradient`` does.  Each pattern block is rho = N N^dagger
    with N = [sqrt(w_s) (1_ref (x) Z^s) M]_s over the dephasing Kraus
    operators of its m survivors, and S(rho) = S(N^dagger N): that Gram
    matrix is the state of the pattern's 2^n-dim environment (the erased
    inputs and one dephasing environment per survivor).  A group whose
    blocks (ref_dim 2^m) are larger than 2^n takes its entropy there;
    the input parts tr_ref(rho) come straight from M.  Per group of
    patterns this is one stacked entropy call for each of the two, over
    its rows, so each row has the bits of its one-row call.
    """
    tables = _point_tables(n, ref_dim, p, q)

    def evaluate(amps, points=None):
        total = np.zeros(len(amps))
        for rows, weight, group, mats, dephasing, factors in _group_rows(tables, amps, points):
            side = _block_side(_block_factor(mats, factors, ref_dim), group.gram)
            total[rows] += weight * np.sum(
                von_neumann_entropy(_input_parts(mats, dephasing, ref_dim))
                - von_neumann_entropy(side),
                axis=-1,
            )
        return total

    return evaluate


def _ci_gradient(n, ref_dim, p, q):
    """Coherent information of (n, ref_dim) codes and its exact gradient.

    p and q are one point or 1-d arrays of points.  Returns
    ``value_and_grad(amps, points=None)`` for a stack (B, ref_dim 2^n) of
    unit-norm amplitude rows a, row i at point ``points[i]`` (at the
    first point without ``points``): B values and the (B,
    ref_dim 2^n) gradients df/d(Re a) + i df/d(Im a), taken from the
    same eigendecompositions as the values, on the same side of each
    block as ``_ci_evaluator``.  With rho = N N^dagger, rho_in = tr_ref(rho) and
    N[(r, x), (s, j)] = F[x, s] M[(r, x), j] (F real),

        grad_N [-S(rho)] = 2 N log2(N^dagger N) = 2 log2(N N^dagger) N,
        grad_M [-S(rho)][(r, x), j] = sum_s F[x, s] grad_N[(r, x), (s, j)],
        grad_M S(rho_in) = -2 (I_ref (x) ((log2 rho_in) o D)) M,

    the 1/ln 2 terms of dS = -tr[(log2 rho + 1/ln 2) d rho] cancelling
    because tr rho = tr rho_in.  Each pattern's term is scattered back
    into its row through the gather indices.  A row sees the groups, in
    order, and the arithmetic of a one-point evaluator (_group_rows).
    Every step is a stacked matmul or eigh over the leading axes,
    elementwise, or a sum within one row, so each row has the bits of
    its one-row stack.  The points' tables are built here, once: 1.4 KB
    a point at n = 3.
    """
    tables = _point_tables(n, ref_dim, p, q)

    def value_and_grad(amps, points=None):
        value, grad = np.zeros(len(amps)), np.zeros(amps.shape, dtype=complex)
        for rows, weight, group, mats, dephasing, factors in _group_rows(tables, amps, points):
            factor = _block_factor(mats, factors, ref_dim)
            evals, vecs = _hermitian_eigh(_block_side(factor, group.gram))
            in_evals, in_vecs = _hermitian_eigh(_input_parts(mats, dephasing, ref_dim))
            (logs, entropy), (in_logs, in_entropy) = map(_spectral_logs, (evals, in_evals))
            value[rows] += weight * np.sum(in_entropy - entropy, axis=-1)
            log_side = _log2_matrix(logs, vecs)
            d_factor = factor @ log_side if group.gram else log_side @ factor
            surv = factors.shape[-1]
            d_mats = np.sum(
                d_factor.reshape(*mats.shape[:2], ref_dim, surv, surv, -1)
                * factors[:, None, None, :, :, None],
                axis=-2,
            )
            log_in = _log2_matrix(in_logs, in_vecs) * dephasing[:, None]
            part = d_mats - log_in[:, :, None] @ mats.reshape(d_mats.shape)
            np.add.at(grad, (rows[:, None, None, None], group.gather[None]),
                      np.reshape(2.0 * weight, (-1, 1, 1, 1)) * part.reshape(mats.shape))
        return value, grad

    return value_and_grad


def multiletter_ci(code, p, q):
    """Coherent information of an arbitrary code via block decomposition.

    Sum over erasure patterns of weight * [S(block without reference) -
    S(block with reference)]; the classical pattern-entropy terms cancel
    between the two sums and are omitted.  Codes of up to N_LIMIT uses.
    """
    if code.n_uses > N_LIMIT:
        raise ValueError(f"n = {code.n_uses} exceeds the limit {N_LIMIT}")
    evaluate = _ci_evaluator(code.n_uses, code.ref_dim, p, q)
    return float(evaluate(code.amplitudes[None])[0])


def _complex(x):
    """The complex vector whose (Re, Im) pairs are the real vector x;
    its inverse is ``z.view(float)``."""
    return np.ascontiguousarray(x, dtype=float).view(complex)


def brute_force_ci(code, p, q):
    """Independent oracle: the explicit n-fold Kraus set on the full tensor product.

    ``qinfo.coherent_information`` of the 4^n tensor-power Kraus
    operators on the code's input state, with no erasure-pattern
    grouping: S of the 3^n-dim output less S of the 4^n-dim environment
    state.  Exponential in n, so n <= BRUTE_FORCE_N_LIMIT only:
    ``_brute_force_rows`` on one code.
    """
    return _brute_force_rows(code.n_uses, code.input_state(), p, q)


def _brute_force_rows(n, states, p, q):
    """``brute_force_ci`` of n-use codes with input states (R, 2^n, 2^n),
    row i at (p[i], q[i]), or of one code without the row axis: each
    row's tensor power of its own point's Kraus stack, by tensor_kraus's
    products, with KrausSet's checks of the stack and of the power
    (_check_points).  Rows run in blocks of half of _STACK_BYTES: at
    n = 3 a row's own 2 ms of products and eigh dwarf a block's set-up,
    and one row, 1.1 MB, stays the peak.
    """
    if n > BRUTE_FORCE_N_LIMIT:
        raise ValueError(f"brute force supports n <= {BRUTE_FORCE_N_LIMIT}")
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    block = max(1, _STACK_BYTES // (2 * _brute_force_row_bytes(n)))
    if states.ndim > 2 and len(states) > block:
        return np.concatenate([
            _brute_force_rows(n, states[at], p[at], q[at])
            for at in (slice(i, i + block) for i in range(0, len(states), block))
        ])
    single, checks = _checked_ops(_channel_ops, p, q)
    ops = functools.reduce(_tensor_ops, [single] * n)
    if n > 1:  # the first power is the stack, checked once
        checks.append(_completeness(ops))
    return _ci_rows(ops, states, *checks)


# bytes a code search holds at once in each of two places: a lockstep run
# takes as many rows, any point's, as fit with their L-BFGS state
# (_search_points), and an objective call takes its rows in blocks that
# fit with their evaluator's temporaries (_on_sphere), one row at least,
# so that n = 6, 0.5 MB a row in a Z-diagonal call, keeps its memory
_STACK_BYTES = 4 * 2**20


def _brute_force_row_bytes(n):
    """Peak bytes of a ``_brute_force_rows`` row: five arrays of 4^n 3^n x 2^n."""
    return 5 * 16 * 24**n


def _zdiag_row_bytes(n):
    """Bytes a row holds in a Z-diagonal evaluation: four arrays (the
    blocks, their eigenvectors, their log2 and its masked copy) the size
    of its largest group's blocks, C(n, k) patterns of 2^k blocks 2^(n-k)
    by 2^(n-k)."""
    return 4 * 8 * max(math.comb(n, k) * 2**k * 4 ** (n - k) for k in range(n + 1))


def _ci_row_bytes(n, ref_dim):
    """Bytes a row holds in a ``_ci_gradient`` call: about six complex
    arrays the size of its largest group's N factors, C(n, m) patterns
    of ref_dim 2^m by 2^n."""
    return 6 * 16 * max(math.comb(n, m) * ref_dim * 2 ** (m + n) for m in range(n + 1))


def _zdiag_evaluator(p, q, n):
    """Coherent information of Z-diagonal n-use codes at fixed points (p, q).

    Code sum_s c_s |s>|s> is the (n, 1) code c with its reference
    dimension 2^n left implicit: the reference of |s> is s itself.  The
    evaluator runs on the plan, tables and row gathering of
    ``_ci_gradient`` (``_block_plan(n, 1)``, ``_point_tables(n, 1, p, q)``,
    ``_group_rows``), so a group of zero weight is skipped row by row.  A
    pattern's gathered matrix M (2^(n-k) survivors by 2^k erased bits)
    has columns c_e, and its block is supported on the orthonormal sets
    {|s>_ref (x) |s_surv>} of each erased value e, where it is B_e =
    (c_e c_e^T) o D, D the survivors' dephasing mask: its eigenproblems
    are 2^(n-k)-dimensional, and 1 x 1, B_e = c_e^2, when k = n.  With
    the reference traced out the state is diagonal, g = the row sums of
    M o M.  ``value_and_grad(coeffs, points=None)`` takes a stack (B,
    2^n) of coefficient rows, row i at point ``points[i]`` (at the first
    point without ``points``), and returns the B values with their exact
    (B, 2^n) gradients, scattered back through the gather indices,

        dS(B_e)/dc_e = -2 ((log2 B_e) o D) c_e,
        dH(g)/dM[x, e] = -2 M[x, e] log2 g[x],

    whose 1/ln 2 terms cancel between the two entropies; one row (2^n,)
    gives a float and one gradient.  As in ``_ci_gradient``, every step
    is stacked over the rows, so each row has the bits of its one-row
    call.  ``_on_sphere`` bounds a call's rows.
    """
    tables = _point_tables(n, 1, p, q)

    def value_and_grad(coeffs, points=None):
        coeffs = np.asarray(coeffs, dtype=float)
        rows = coeffs.reshape(-1, 2**n)
        value, grad = np.zeros(len(rows)), np.zeros(rows.shape)
        for at, weight, group, mats, dephasing, _ in _group_rows(tables, rows, points):
            cols = mats.swapaxes(-1, -2)  # (B, patterns, 2^k, 2^(n-k)): the c_e
            if group.erased == n:  # 1 x 1 blocks, D = 1
                evals = cols**2
                logs, entropy = _spectral_logs(evals)
                spectral = logs * cols
            else:
                mask = dephasing[:, None, None]
                evals, vecs = _hermitian_eigh(cols[..., :, None] * cols[..., None, :] * mask)
                logs, entropy = _spectral_logs(evals)
                spectral = ((_log2_matrix(logs, vecs) * mask) @ cols[..., None])[..., 0]
            log_grouped, classical = _spectral_logs((mats**2).sum(axis=-1))
            value[at] += weight * (classical - entropy.sum(axis=-1)).sum(axis=-1)
            part = spectral.swapaxes(-1, -2) - mats * log_grouped[..., None]
            np.add.at(grad, (at[:, None, None, None], group.gather),
                      np.reshape(2.0 * weight, (-1, 1, 1, 1)) * part)
        if coeffs.ndim == 1:
            return float(value[0]), grad[0]
        return value, grad

    return value_and_grad


# no search calls it: it stays only because perfbench/tracer.py wraps it by name
def _zdiag_ci_fast(coeffs, p, q, n):
    """Coherent information of a Z-diagonal code on its 2^n-dim support."""
    return _zdiag_evaluator(p, q, n)(coeffs)[0]


def _rowdot(a, b):
    """Dot products of matching rows, each row summed on its own."""
    return (a * b).sum(axis=-1)


def _on_sphere(evaluate, row_bytes, owner=None):
    """Minus ``evaluate`` (unit rows and their points to values and
    gradients) at c = w / |w| for a stack (B, d) of real rows w, with the
    gradient in w: projected onto the sphere's tangent at c.  A zero row
    is an infeasible sentinel and maps to (inf, 0).  The objective also
    takes the rows' start indices, and ``owner[i]`` is start i's point;
    without ``owner`` every row is at ``evaluate``'s first point.
    ``evaluate`` takes the rows in blocks of as many as fit in
    _STACK_BYTES at ``row_bytes`` a row, one at least.
    """
    block = max(1, _STACK_BYTES // row_bytes)

    def objective(w, starts=None):
        norm = np.sqrt(_rowdot(w, w))[:, None]
        feasible = norm > 0.0
        norm = np.where(feasible, norm, 1.0)
        coeffs = w / norm
        points = np.zeros(len(w), dtype=int) if owner is None else owner[starts]
        value, grad = np.empty(len(w)), np.empty(w.shape)
        for first in range(0, len(w), block):
            at = slice(first, first + block)
            value[at], grad[at] = evaluate(coeffs[at], points[at])
        tangent = (coeffs * _rowdot(coeffs, grad)[:, None] - grad) / norm
        return np.where(feasible[:, 0], -value, np.inf), tangent

    return objective


def _zdiag_objective(p, q, n, owner=None):
    """Minus the coherent information of Z-diagonal codes c = w / |w|,
    with its gradient in w, for a stack (B, 2^n) of rows w and their
    start indices; ``owner`` maps starts to points, as in ``_on_sphere``."""
    return _on_sphere(_zdiag_evaluator(p, q, n), _zdiag_row_bytes(n), owner)


def _code_objective(n, ref_dim, p, q, linear, owner=None):
    """Minus the coherent information of a stack (B, d) of parameter rows,
    with its exact gradient, given the rows' start indices; ``owner``
    maps starts to points, as in ``_on_sphere``.

    The real parameters x are the (Re, Im) pairs of a complex vector
    z = _complex(x); the fixed real ``linear`` map sends z to the
    amplitudes z @ linear of an (n, ref_dim) code, which ``_on_sphere``
    normalizes, in their (Re, Im) view, before evaluation.
    """
    value_and_grad = _ci_gradient(n, ref_dim, p, q)

    def evaluate(amps, points):
        value, grad = value_and_grad(_complex(amps), points)
        return value, grad.view(float)

    on_sphere = _on_sphere(evaluate, _ci_row_bytes(n, ref_dim), owner)

    def objective(x, starts=None):
        # each row its own (1, d) @ linear matmul, so no row sees the stack
        raw = (_complex(x)[:, None] @ linear)[:, 0]
        value, grad = on_sphere(raw.view(float), starts)
        return value, (_complex(grad)[:, None] @ linear.T)[:, 0].view(float)

    return objective


# stop rules of every code search, named as scipy's L-BFGS-B options:
# maxiter is the default iteration budget; ftol is relative to
# max(|f|, 1), so absolute for the sub-bit values near the thresholds
_LBFGS_OPTIONS = {"maxiter": 200, "ftol": 1e-15, "gtol": 1e-10}
# the lockstep L-BFGS: curvature pairs kept (scipy's maxcor), the Armijo
# constant and the step halvings before a row stops
_LBFGS_MEMORY = 10
_ARMIJO = 1e-4
_MAX_HALVINGS = 4


def _two_loop(grad, pairs_s, pairs_y, rho):
    """The L-BFGS step H grad of every row (Nocedal & Wright, alg. 7.4).

    Pairs are stored oldest first, so a row's filled slots are its last
    ones, and the loops start at the first slot any row has filled.  An
    unused slot has rho = 0 and s = y = 0, so it leaves a row's vector as
    it is, up to the sign of a zero.  H0 is (s.y / y.y) I from the newest
    pair, or 1 / |grad| without one: a first step of unit length.
    """
    vec = grad.copy()
    used = np.flatnonzero(rho.any(axis=0))
    slots = range(used[0] if used.size else rho.shape[1], rho.shape[1])
    alpha = np.zeros(rho.shape)
    for j in reversed(slots):
        alpha[:, j] = rho[:, j] * _rowdot(pairs_s[:, j], vec)
        vec -= alpha[:, j, None] * pairs_y[:, j]
    paired = rho[:, -1] > 0.0
    yy = _rowdot(pairs_y[:, -1], pairs_y[:, -1])
    vec *= np.where(
        paired,
        1.0 / np.where(paired, rho[:, -1] * yy, 1.0),
        1.0 / np.sqrt(_rowdot(grad, grad)),
    )[:, None]
    for j in slots:
        beta = rho[:, j] * _rowdot(pairs_y[:, j], vec)
        vec += (alpha[:, j] - beta)[:, None] * pairs_s[:, j]
    return vec


def _lockstep_lbfgs(objective, starts, max_iterations=_LBFGS_OPTIONS["maxiter"]):
    """L-BFGS from every start at once; the final (f, x) of each start.

    ``objective(x, starts)`` maps a stack (B, d) of points, and the
    indices into ``starts`` of the starts they came from, to their B
    values and (B, d) gradients, each row on its own; an objective of
    one point may ignore the indices.  Every row takes, per
    iteration, the two-loop direction over its last _LBFGS_MEMORY
    curvature pairs (a pair with s.y <= eps |s.grad| is skipped, as
    L-BFGS-B skips it) and an Armijo backtracking step from 1, halved
    at most _MAX_HALVINGS times.  A row stops, keeping its last point,
    when its line search fails or its direction is not downhill; it
    also stops after ``max_iterations`` iterations or on _LBFGS_OPTIONS's
    rules: a step lowering f by at most ``ftol`` max(|f|, |f_new|, 1), or
    a gradient of max-norm at most ``gtol``.

    The rows advance asynchronously: each objective call after the
    first evaluates one trial point x + step direction of every live
    row, the unit step of its iteration or its next halving.  A row
    whose line search ends there finishes its iteration and takes its
    next direction before the next call; the others halve their step.
    So a run makes 1 + (the most trial points of any row) calls.
    Stopped rows leave the stack.  Each step is elementwise, a sum
    within a row or one objective call on the rows, so a row's result
    does not depend on the others: it meets the trial points it would
    meet alone, in the same order.
    """
    x = np.array(starts, dtype=float)
    f, grad = objective(x, np.arange(len(x)))
    out_f, out_x = f.copy(), x.copy()
    flat = np.abs(grad).max(axis=-1) <= _LBFGS_OPTIONS["gtol"]
    alive = np.flatnonzero(~flat & (max_iterations >= 1))
    x, f, grad = x[alive], f[alive], grad[alive]
    pairs_s = np.zeros((len(alive), _LBFGS_MEMORY, x.shape[1]))
    pairs_y, rho = np.zeros_like(pairs_s), np.zeros((len(alive), _LBFGS_MEMORY))
    iterations = np.zeros(len(alive), dtype=int)
    direction = -_two_loop(grad, pairs_s, pairs_y, rho)
    slope, step = _rowdot(grad, direction), np.ones(len(alive))
    while alive.size:
        trial = x + step[:, None] * direction
        new_f, new_grad = objective(trial, alive)
        accepted = new_f <= f + _ARMIJO * step * slope
        ended = accepted | (step == 0.5**_MAX_HALVINGS)
        step[~ended] /= 2.0  # the rows still backtracking
        # the rows whose line search ended finish their iteration
        at = np.flatnonzero(ended)
        moved = accepted[at] & (slope[at] < 0.0)
        s, y = trial[at] - x[at], new_grad[at] - grad[at]
        sy = _rowdot(s, y)
        store = moved & (sy > np.finfo(float).eps * -(step[at] * slope[at]))
        inverse = 1.0 / np.where(store, sy, 1.0)
        for pairs, newest in ((pairs_s, s), (pairs_y, y), (rho, inverse)):
            # the stored rows drop their oldest slot
            pairs[at[store]] = np.concatenate([pairs[at[store], 1:], newest[store, None]], axis=1)
        old_f, new_f, new_grad = f[at], new_f[at], new_grad[at]
        scale = np.maximum(np.maximum(np.abs(old_f), np.abs(new_f)), 1.0)
        iterations[at] += 1
        done = ~moved | (old_f - new_f <= _LBFGS_OPTIONS["ftol"] * scale) | (
            np.abs(new_grad).max(axis=-1) <= _LBFGS_OPTIONS["gtol"]
        ) | (iterations[at] == max_iterations)
        moves, stops = at[moved], at[done]
        x[moves], f[moves], grad[moves] = trial[moves], new_f[moved], new_grad[moved]
        if stops.size:
            out_f[alive[stops]], out_x[alive[stops]] = f[stops], x[stops]
            keep = np.ones(len(alive), dtype=bool)
            keep[stops] = False
            alive, x, f, grad, pairs_s, pairs_y, rho = (
                part[keep] for part in (alive, x, f, grad, pairs_s, pairs_y, rho)
            )
            iterations, direction, slope, step, ended = (
                part[keep] for part in (iterations, direction, slope, step, ended)
            )
        if ended.any():  # the next iteration's unit step
            fresh = slice(None) if ended.all() else ended
            direction[fresh] = -_two_loop(grad[fresh], pairs_s[fresh], pairs_y[fresh], rho[fresh])
            slope[fresh], step[fresh] = _rowdot(grad[fresh], direction[fresh]), 1.0
    return out_f, out_x


# no search calls it: it stays only because perfbench/tracer.py wraps it by name
def minimize(*args, **kwargs):
    """scipy.optimize.minimize, with scipy imported on the first call."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def _check_budget(n_starts, max_iterations):
    if n_starts < 0:
        raise ValueError(f"n_starts = {n_starts} must be >= 0")
    if max_iterations < 1:
        raise ValueError(f"max_iterations = {max_iterations} must be >= 1")


def _uniform_starts(seed, n_starts, dim):
    """``n_starts`` seeded draws, uniform in (-1, 1)^dim."""
    return list(np.random.default_rng(seed).uniform(-1.0, 1.0, (n_starts, dim)))


def _search_points(objective_of, starts, max_iterations=_LBFGS_OPTIONS["maxiter"]):
    """(objective value, parameters) of each point's first lowest start.

    ``starts`` (P, S, d) holds each point's S starts.  Their P S rows, in
    order, run in lockstep runs of as many rows as fit in _STACK_BYTES
    with their L-BFGS state (the curvature pairs, twice while they shift,
    and about 16 vectors of d), one row at least, so a point's starts may
    span two runs.  ``objective_of(points, owner)`` builds the objective
    of the 1-d array ``points`` of point indices, owner[i] being the
    index into ``points`` of the run's start i.  Rows do not depend on
    their stack, so each point gets the bits of its one-point run.
    """
    n_points, per_point, dim = starts.shape
    rows, owner = starts.reshape(-1, dim), np.repeat(np.arange(n_points), per_point)
    funs, xs = np.empty(len(rows)), np.empty(rows.shape)
    size = max(1, _STACK_BYTES // (8 * dim * (4 * _LBFGS_MEMORY + 16)))
    for first in range(0, len(rows), size):
        run = slice(first, first + size)
        points = np.arange(owner[run][0], owner[run][-1] + 1)
        funs[run], xs[run] = _lockstep_lbfgs(
            objective_of(points, owner[run] - points[0]), rows[run], max_iterations
        )
    funs, xs = funs.reshape(n_points, per_point), xs.reshape(starts.shape)
    best = np.argmin(funs, axis=1)  # the first on a tie
    return funs[np.arange(n_points), best], xs[np.arange(n_points), best]


def _unit_rows(rows):
    """Each row over its own norm, taken as for that row alone."""
    return np.array([row / np.linalg.norm(row) for row in rows]).reshape(rows.shape)


def _search_result(shape, values, coeffs):
    """Per-point values and coefficient rows in the points' shape: a
    Python float and one coefficient vector for a single point."""
    if shape == ():
        return float(values[0]), coeffs[0]
    return values.reshape(shape), coeffs.reshape(shape + coeffs.shape[1:])


def optimize_zdiag(p, q, n, seed=0, n_starts=32):
    """Optimize the Schmidt coefficients of the Z-diagonal n-use code.

    L-BFGS with the exact gradient over w, the code being c = w / |w|,
    from the optimal weighted repetition code and ``n_starts`` seeded
    draws |N(0, 1)| per coefficient, all advancing in lockstep on one
    stacked evaluation (``_lockstep_lbfgs``); the first start with the
    lowest value wins, and the repetition code's own value if that is
    higher.  The value is invariant under sign flips of any c_s, so w
    needs no sign constraint and |c| is returned.  Where q >= k(p) the
    channel is antidegradable, so no code has positive coherent
    information and the product code |1..1>|1..1> (lambda = 0) attains
    the optimum: (0.0, that code) is returned without a search.
    Deterministic per seed.  Returns (value, coefficients) with
    coefficients in lexicographic pattern order.  1 <= n <= N_LIMIT.

    p and q broadcast.  Every point is checked, in C order, p before q,
    before any search; the points searched take their warm starts from
    one batched ``repetition_ci_opt`` call and stack all their starts
    into lockstep runs (``_search_points``), and each gets the bits of
    its one-point search.  Scalars give a float and a (2^n,) array,
    arrays a value array of the broadcast shape and a coefficient stack
    (..., 2^n).
    """
    shape, p, q = _points(p, q, 0.5)
    p, q = p[:, 0], q[:, 0]
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > N_LIMIT:
        raise ValueError(f"n = {n} exceeds the limit {N_LIMIT}")
    _check_budget(n_starts, _LBFGS_OPTIONS["maxiter"])
    values, coeffs = np.zeros(len(p)), np.zeros((len(p), 2**n))
    coeffs[:, -1] = 1.0  # the lambda = 0 product code
    live = np.flatnonzero(q < region_k(p))
    if live.size:
        rep = repetition_ci_opt(p[live], q[live], n)
        values[live], coeffs[live] = _zdiag_search(p[live], q[live], n, seed, n_starts, rep)
    return _search_result(shape, values, coeffs)


def _zdiag_search(p, q, n, seed, n_starts, rep):
    """optimize_zdiag's search at 1-d arrays of checked points below k(p),
    given ``rep``, repetition_ci_opt's (values, lambdas) there: (values,
    coefficient rows)."""
    dim = 2**n
    rep_val, rep_lam = (np.asarray(part, dtype=float) for part in rep)
    warm = np.zeros((len(p), dim))
    warm[:, 0], warm[:, -1] = np.sqrt(rep_lam), np.sqrt(1 - rep_lam)
    draws = np.abs(np.random.default_rng(seed).standard_normal((n_starts, dim)))
    starts = np.concatenate([warm[:, None], np.broadcast_to(draws, (len(p), n_starts, dim))], 1)
    funs, ws = _search_points(
        lambda points, owner: _zdiag_objective(p[points], q[points], n, owner), starts,
    )
    warm_wins = rep_val > -funs  # the warm start's own value is always feasible
    coeffs = np.where(warm_wins[:, None], warm, _unit_rows(np.abs(ws)))
    return np.where(warm_wins, rep_val, -funs), coeffs


def _chi3_starts(seed, n_starts):
    """optimize_chi3's starts: four structured warm starts, then
    ``n_starts`` seeded draws uniform in (-1, 1)^8."""
    # the GHZ-flavored psi2 = 0 code, plus a family with small psi1 ~ |+>
    # weight: near the threshold the optimum retreats into that narrow
    # corner of the parameter space, mirroring the small-lambda behavior
    # of the repetition codes
    starts = [np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]) / np.sqrt(2)]
    for eps in (0.3, 0.1, 0.03):
        starts.append(np.array([eps, 0.0, eps, 0.0, 1.0, 0.0, 0.0, 0.0]))
    return starts + _uniform_starts(seed, n_starts, 8)


def optimize_chi3(p, q, seed=0, n_starts=2, max_iterations=_LBFGS_OPTIONS["maxiter"]):
    """Optimize the chi_3 code coefficients by lockstep L-BFGS.

    The 8 real parameters are the (Re, Im) pairs of (c1, d1, c2, d2).
    All starts (``_chi3_starts``) advance together for at most
    ``max_iterations`` iterations; the first with the lowest value wins.
    The family holds no product code, so unlike ``optimize_zdiag`` it
    searches at antidegradable points too.  Returns (value, (c1, d1,
    c2, d2)) for the normalized best code.

    p and q broadcast as in ``optimize_zdiag``: every point is checked
    first, all points' starts are stacked into lockstep runs, and each
    point gets the bits of its one-point search.  Arrays give a value
    array of the broadcast shape and a complex coefficient stack
    (..., 4).
    """
    shape, p, q = _points(p, q, 0.5)
    _check_budget(n_starts, max_iterations)
    p, q = p[:, 0], q[:, 0]
    funs, xs = _search_points(
        lambda points, owner: _code_objective(3, 4, p[points], q[points], _chi3_map(), owner),
        np.tile(_chi3_starts(seed, n_starts), (len(p), 1, 1)),
        max_iterations,
    )
    value, coeffs = _search_result(shape, -funs, _unit_rows(_complex(xs)))
    return (value, tuple(coeffs)) if shape == () else (value, coeffs)


def optimize_code_ci(
    p, q, n, parametrization="full", seed=0, n_starts=2,
    max_iterations=_LBFGS_OPTIONS["maxiter"],
):
    """Maximize the n-use coherent information over code states.

    ``full`` optimizes all real and imaginary amplitude components of a
    rank-2^n code (reference dimension 2^n, 1 <= n <= 3); ``chi3`` optimizes
    the 4-coefficient non-diagonal 3-use family (``optimize_chi3``).
    Either runs the lockstep L-BFGS from its warm starts and then
    ``n_starts`` seeded draws uniform in (-1, 1)^dim, each for at most
    ``max_iterations`` iterations.  Returns (value, CodeState).  ``full``
    never returns less than its warm starts, the optimal repetition code
    (valued by ``repetition_ci_opt``), the optimized Z-diagonal code
    (valued by ``optimize_zdiag``) and, at n = 3, the chi_3 code
    ``optimize_chi3`` finds with the same seed and budget; when one of
    them wins, it is returned embedded in reference dimension 2^n.
    Where q >= k(p) the channel is antidegradable and ``full`` returns
    optimize_zdiag's (0.0, lambda = 0 product code), embedded so,
    without a search.  p and q are one point.
    """
    _check_budget(n_starts, max_iterations)
    if parametrization == "chi3":
        if n != 3:
            raise ValueError("the chi3 parametrization is a 3-use family")
        value, coeffs = optimize_chi3(p, q, seed, n_starts, max_iterations)
        return value, chi3_code(*coeffs)

    if parametrization != "full":
        raise ValueError(f"unknown parametrization {parametrization!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 3:
        raise ValueError("full parametrization supports n <= 3")

    p, q = _check_prob(p, "p", hi=0.5), _check_prob(q, "q", hi=0.5)
    ref_dim = 2**n
    amp_len = ref_dim * 2**n
    if q >= region_k(p):  # antidegradable: the lambda = 0 product code
        return 0.0, normalized_code(n, ref_dim, np.eye(amp_len)[-1])
    # good feasible points matter: every pure product input is a local
    # extremum with zero coherent information
    rep_val, rep_lam = repetition_ci_opt(p, q, n)
    (zval,), (zcoeffs,) = _zdiag_search(
        np.array([p]), np.array([q]), n, seed, 8, ([rep_val], [rep_lam])
    )
    # each warm start keeps the value of its own route, which the block
    # engine can read a few ulps lower
    warm = [
        (rep_val, _embed_code(repetition_code_state(n, rep_lam), ref_dim, n)),
        (float(zval), np.diag(zcoeffs).astype(complex).reshape(-1).view(float)),
    ]
    if n == 3:  # the chi_3 family lies in the full 3-use codes
        chi_val, chi_coeffs = optimize_chi3(p, q, seed, n_starts, max_iterations)
        warm.append((chi_val, _embed_code(chi3_code(*chi_coeffs), ref_dim, n)))

    starts = [x for _, x in warm] + _uniform_starts(seed, n_starts, 2 * amp_len)
    (fun,), (x,) = _search_points(
        lambda points, owner: _code_objective(n, ref_dim, p, q, np.eye(amp_len), owner),
        np.array(starts)[None], max_iterations,
    )
    # on a tie the searched code is kept
    value, code = max([(float(-fun), x)] + warm, key=lambda c: c[0])
    return value, normalized_code(n, ref_dim, _complex(code))


def _embed_code(code, ref_dim, n):
    """Real (Re, Im)-pair parameters embedding a code of a smaller
    reference dimension into ref_dim 2^n."""
    amps = np.zeros((ref_dim, 2**n), dtype=complex)
    amps[: code.ref_dim] = code.amplitudes.reshape(code.ref_dim, 2**n)
    return amps.view(float).reshape(-1)
