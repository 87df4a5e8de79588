"""The dephrasure channel family and its single-letter coherent information.

The channel acts on a qubit as dephasing with probability p followed by
erasure with probability q; the output lives on a qutrit whose third
basis vector is the erasure flag.  The complementary channel is a
4-dimensional block map: a q-weighted copy of the input alongside a
(1-q)-weighted diagonal-measurement residue.
"""

from __future__ import annotations

import math

import numpy as np

from .qinfo import KrausSet, _check_points, _completeness, binary_entropy, coherent_information

# Erasure flag: third basis vector of the qutrit output.
KET_E = np.array([0.0, 0.0, 1.0], dtype=complex)

_EMBED = np.array([[1, 0], [0, 1], [0, 0]], dtype=complex)  # qubit -> qutrit


def _broadcast(*values):
    """The values as float arrays broadcast against each other."""
    return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))


def _in_prob(name, values, hi):
    """The domain check of every point of ``values``, for _check_points:
    [0, hi] up to 1e-15, past which callers clamp at hi."""
    return (0.0 <= values) & (values <= hi + 1e-15), f"{name} = {{}} outside [0, {hi}]", values


# libm's pow elementwise (object arrays out), as Python's float ** takes it:
# numpy's array power (SVML on AVX-512) differs in the last bit at times
_libm_pow = np.frompyfunc(math.pow, 2, 1)


# the embedding, the embedding after a phase flip Z and the erasures of |0>
# and |1>: times _channel_ops' coefficients, the channel's Kraus operators
_CHANNEL_TABLE = np.array(
    [_EMBED, _EMBED * [1, -1], np.outer(KET_E, [1, 0]), np.outer(KET_E, [0, 1])]
)


def _channel_ops(p, q):
    """(..., 4, 3, 2) Kraus stacks of the channel at points p and q of one shape."""
    coef = np.sqrt(np.stack([(1 - q) * (1 - p), (1 - q) * p, q, q], -1))
    return coef[..., None, None] * _CHANNEL_TABLE


def _checked_ops(ops_fn, p, q):
    """The Kraus stacks ops_fn(p, q) at points p and q, float arrays of
    one shape, and, for _check_points, the checks that the KrausSet of
    each point makes: p and q in [0, 1], then completeness."""
    pq = np.array([p, q])
    ops = ops_fn(*np.minimum(np.maximum(pq, 0.0), 1.0))
    return ops, [_in_prob(name, v, 1.0) for name, v in zip("pq", pq)] + [_completeness(ops)]


def dephrasure_kraus(p, q):
    """Kraus operators (2 -> 3) of the dephrasure channel."""
    _, p, q = _points(p, q, 1.0, 1.0)
    return KrausSet(2, 3, _channel_ops(p.item(), q.item()))


def _complement_ops(p, q):
    """(..., 3, 4, 2) complementary-channel Kraus stacks at points p and q of
    one shape: the q-weighted copy, then the environment states phi^0, phi^1."""
    ops = np.zeros(np.shape(p) + (3, 4, 2), dtype=complex)
    ops[..., 0, 0, 0] = ops[..., 0, 1, 1] = np.sqrt(q)
    keep = np.sqrt(1 - q)
    ops[..., 1, 2, 0] = ops[..., 2, 2, 1] = keep * np.sqrt(1 - p)
    ops[..., 1, 3, 0] = keep * np.sqrt(p)
    ops[..., 2, 3, 1] = -(keep * np.sqrt(p))
    return ops


def complementary_kraus(p, q):
    """Kraus operators (2 -> 4) of the complementary channel.

    The 4-dimensional output is block diagonal: indices (0, 1) carry the
    q-weighted copy of the input, indices (2, 3) the (1-q)-weighted
    environment states of the dephasing part.  This ordering is part of
    the module contract (the antidegrading maps rely on it).
    """
    _, p, q = _points(p, q, 1.0, 1.0)
    return KrausSet(2, 4, _complement_ops(p.item(), q.item()))


def region_g(p):
    """Threshold curve of the single-letter coherent information."""
    shape, p, _ = _points(p, 0.0)
    t = (1 - 2 * p) ** 2
    return _shaped(shape, t / (1 + t))[0]


def region_j(p):
    """Boundary below which the maximally mixed state is optimal.

    The closed form is 0/0 at both endpoints; we use the limits 1/2 at
    p = 0 (and subnormal p, where (1-p)/p may overflow) and the quadratic
    series 8/3 (1/2 - p)^2 near p = 1/2.
    """
    shape, p, _ = _points(p, 0.0)
    delta = 0.5 - p
    low, series = p < np.finfo(float).tiny, delta < 1e-5
    safe = np.where(low | series, 0.25, p)
    t = 2 * safe * (1 - safe) * np.log((1 - safe) / safe)
    j = np.where(series, 8.0 / 3.0 * delta * delta, (1 - 2 * safe - t) / (2 - 4 * safe - t))
    return _shaped(shape, np.where(low, 0.5, j))[0]


def region_k(p):
    """Boundary of the constructively antidegradable region."""
    shape, p, _ = _points(p, 0.0)
    return _shaped(shape, (1 - 2 * p) / (2 * (1 - p)))[0]


def region_curves(p):
    """The boundary ordinates (g(p), j(p), k(p)).

    Each curve broadcasts over p in [0, 1/2], checked as in _points:
    arrays give arrays of p's shape, scalars Python floats.
    """
    return region_g(p), region_j(p), region_k(p)


def _small_eigenvalue(w):
    """The small eigenvalue (1 - k)/2, k = sqrt(1 - w), of a 2x2 state
    whose determinant is w/4, computed as w / (2(1 + k)) to avoid
    cancellation for small w.  Elementwise; 1 - w is clipped at 0."""
    return w / (2 * (1 + np.sqrt(np.maximum(1.0 - w, 0.0))))


def _phi_entropy(p, z):
    """Entropy of the 2x2 environment block with diagonal (1-p, p) and
    off-diagonal z sqrt(p(1-p)), numerically stable for |z| near 1.

    The block's determinant is p(1-p)(1-z^2), a quarter of w below.
    """
    return binary_entropy(_small_eigenvalue(4 * p * (1 - p) * (1 - z) * (1 + z)))


def coherent_info_z(p, q, z):
    """Coherent information of the Z-diagonal Bloch state (0, 0, z); p, q
    and z broadcast, and are checked in that order."""
    p, q, z = _broadcast(p, q, z)
    _check_points(_in_prob("p", p, 1.0), _in_prob("q", q, 1.0),
                  ((-1.0 <= z) & (z <= 1.0), "z = {} outside [-1, 1]", z))
    p, q = np.minimum(p, 1.0), np.minimum(q, 1.0)
    value = (1 - 2 * q) * binary_entropy((1 - z) / 2) - (1 - q) * _phi_entropy(p, z)
    return _shaped(p.shape, value)[0]


def coherent_info_xz(p, q, x, z):
    """Coherent information of the Bloch state (x, 0, z) in closed form.

    Equals (1-q) S(Z_p(rho)) - q S(rho) - (1-q) S(Phi_{p,z}); dephasing
    shrinks the x component of the Bloch vector by (1-2p).  Broadcasts
    as coherent_info_z does, the Bloch norm checked after p and q.
    """
    p, q, x, z = _broadcast(p, q, x, z)
    r2 = x * x + z * z
    _check_points(_in_prob("p", p, 1.0), _in_prob("q", q, 1.0),
                  (~(r2 > 1.0 + 1e-12), "Bloch norm {} exceeds 1", np.sqrt(r2)))
    p, q = np.minimum(p, 1.0), np.minimum(q, 1.0)
    r = np.sqrt(np.minimum(r2, 1.0))
    rp = np.sqrt(np.minimum((1 - 2 * p) ** 2 * x * x + z * z, 1.0))
    value = (
        (1 - q) * binary_entropy((1 - rp) / 2)
        - q * binary_entropy((1 - r) / 2)
        - (1 - q) * _phi_entropy(p, z)
    )
    return _shaped(p.shape, value)[0]


def bloch_state(x, y, z):
    """Qubit density matrix with the given Bloch vector."""
    if x * x + y * y + z * z > 1.0 + 1e-12:
        raise ValueError("Bloch vector outside the unit ball")
    return 0.5 * np.array(
        [[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=complex
    )


def coherent_info_state(p, q, rho):
    """Direct route S(N(rho)) - S(N^c(rho)) through the Kraus operators."""
    return coherent_information(dephrasure_kraus(p, q), rho)


def _lambda_grid(step):
    """Scan grid for code weights: linear plus log-spaced tail.

    Near the threshold the optimal weight is exponentially small, so a
    linear grid alone would miss the positive sliver entirely.
    """
    lin = np.arange(0.0, 0.5 + step / 2, step)
    logs = np.power(10.0, -np.arange(4.25, 300.0, 0.25))
    return np.unique(np.concatenate([lin, logs]))


# bytes of one (points, lambda block) array of the weight scan, which holds
# two such arrays, allocated once per call and reused by every block.  No
# block may allocate one: an array this size allocated per block is a fresh
# mapping past glibc's mmap threshold, paid in page faults.  On a 15x15 grid
# (145 weights a block at 256 KB) the three factored scans took 32 ms in
# 64 KB blocks, 25 in 128 KB and 22 in 256 KB when each block allocated
_SCAN_BYTES = 1 << 18


def _golden_lockstep(value_fn, a, b, tol):
    """Golden-section maximization of value_fn on [a, b], every point at once.

    a and b are (P, 1) brackets.  A point freezes once its own bracket is
    at most tol wide, so it takes the iterations, and gives the bits, of
    a golden section run on it alone.  Returns (x, value_fn(x)).
    """
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = value_fn(c), value_fn(d)
    active = np.abs(b - a) > tol
    while active.any():
        # the maximum lies in [a, d] where fc >= fd, else in [c, b]
        in_left = fc >= fd
        left, right = active & in_left, active & ~in_left
        a = np.where(right, c, a)
        b = np.where(left, d, b)
        probe = np.where(left, b - inv_phi * (b - a), a + inv_phi * (b - a))
        f_probe = value_fn(probe)
        c, d, fc, fd = (
            np.where(left, probe, np.where(right, d, c)),
            np.where(left, c, np.where(right, probe, d)),
            np.where(left, f_probe, np.where(right, fd, fc)),
            np.where(left, fc, np.where(right, f_probe, fd)),
        )
        active = np.abs(b - a) > tol
    x = (a + b) / 2
    return x, value_fn(x)


def _factored_scan(terms, key, a, b):
    """(value_fn, scan_fn) for maximize_over_weights of a A - b B, (A, B) =
    terms(key, lam), at (P, 1) columns key, a, b; scan_fn takes a term that
    reads key once per distinct key, and one that does not once a block,
    and writes the block into its work pair (a fresh pair if None)."""
    keys, at = np.unique(key.reshape(-1), return_inverse=True)

    def value(lam):
        A, B = terms(key, lam)
        out = a * A
        out -= b * B  # in place: one (P, k) temporary fewer
        return out

    def scan(lam, work=None):
        if work is None:
            work = np.empty((2, key.size, len(lam)))
        for out, coef, term in zip(work, (a, b), terms(keys[:, None], lam)):
            if np.ndim(term) == 2:
                # mode="clip" writes straight into out; "raise" buffers it
                np.take(term, at, axis=0, out=out, mode="clip")
                np.multiply(coef, out, out=out)
            else:
                np.multiply(coef, term, out=out)
        return np.subtract(work[0], work[1], out=work[0])

    return value, scan


def maximize_over_weights(value_fn, step, tol, scan_fn=None):
    """Maximize value_fn over lambda in [0, 1/2] for many points at once.

    value_fn(lam) holds the points' parameters as (P, 1) columns and maps
    (P, 1) weights to (P, 1) values; scan_fn(lam, work) gives value_fn's
    (P, k) values at a (k,) block of weights, written into ``work``, a pair
    of C-contiguous (P, k) float arrays (None on the first call, which
    sizes the blocks); value_fn(lam) is the scan if scan_fn is None.  The
    scan over the linear-plus-log grid runs in blocks of at most
    _SCAN_BYTES per (P, k) array.  The work pair and the running maximum
    are allocated once per call and updated in place, so no block
    allocates a (P, k) array.  Each point keeps its first maximum (as
    np.argmax over the whole row); a golden section of value_fn in
    lockstep then refines between the maximum's grid neighbours.  Returns
    (values, lambdas) of shape (P,); a value_fn over one point with no
    point axis, (k,) -> (k,), gives 0-d arrays.
    """
    scan_fn = scan_fn or (lambda lam, work: value_fn(lam))
    grid = _lambda_grid(step)
    # the first column gives the points' shape, which sizes the blocks
    first = np.asarray(scan_fn(grid[:1], None))
    shape = first.shape[:-1]
    best_val = first.reshape(-1).copy()
    size = best_val.size
    best_idx = np.zeros(size, dtype=int)
    idx, better = np.empty(size, dtype=int), np.empty(size, dtype=bool)
    rows = np.arange(size)
    cols = max(1, _SCAN_BYTES // (8 * max(1, size)))
    pair = [np.empty(size * min(cols, len(grid) - 1)) for _ in range(2)]
    for start in range(1, len(grid), cols):
        k = min(cols, len(grid) - start)
        work = [w[: size * k].reshape(size, k) for w in pair]
        vals = np.reshape(scan_fn(grid[start : start + k], work), (size, k))
        if k == 1:
            # one weight a block on large batches: a row-wise argmax costs far more
            top, at = vals[:, 0], start
        else:
            np.argmax(vals, axis=1, out=idx)
            top = vals[rows, idx]
            at = np.add(idx, start, out=idx)
        np.greater(top, best_val, out=better)
        np.copyto(best_val, top, where=better)
        np.copyto(best_idx, at, where=better)
    lo = grid[np.maximum(best_idx - 1, 0)].reshape(shape + (1,))
    hi = grid[np.minimum(best_idx + 1, len(grid) - 1)].reshape(shape + (1,))
    lam, val = _golden_lockstep(value_fn, lo, hi, tol)
    lam, val = lam[..., 0], val[..., 0]
    best_val, best_idx = best_val.reshape(shape), best_idx.reshape(shape)
    on_grid = best_val > val
    return np.where(on_grid, best_val, val), np.where(on_grid, grid[best_idx], lam)


def _points(p, q, q_hi=0.5, p_hi=0.5):
    """Broadcast p and q and check that every point lies in [0, p_hi] x [0, q_hi].

    Points are checked in C order, p before q, so the first bad point
    raises the error a loop of one-point calls would.  Returns the
    broadcast shape and the clamped p and q as (P, 1) columns.
    """
    p, q = _broadcast(p, q)
    _check_points(_in_prob("p", p, p_hi), _in_prob("q", q, q_hi))
    return p.shape, np.minimum(p, p_hi).reshape(-1, 1), np.minimum(q, q_hi).reshape(-1, 1)


def _shaped(shape, *values):
    """Per-point results in the points' shape; Python floats for one point."""
    values = tuple(np.reshape(v, shape) for v in values)
    return tuple(v.item() for v in values) if shape == () else values


def single_letter_ci(p, q):
    """Maximal coherent information over Z-diagonal inputs.

    Returns (value, z_star) with z_star >= 0 by the z <-> -z symmetry.
    The value may be negative.  The scan runs over the weight
    lambda = (1-z)/2 in [0, 1/2] so that the exponentially thin positive
    window just below the g(p) threshold is resolved.  p and q broadcast:
    array arguments give arrays of the broadcast shape from one batched
    scan, scalars give Python floats.
    """
    shape, p, q = _points(p, q)

    def terms(p, lam):
        # 1 - z^2 = 4 lam (1 - lam) for z = 1 - 2 lam
        small = _small_eigenvalue(16 * p * (1 - p) * lam * (1 - lam))
        return binary_entropy(lam), binary_entropy(small)

    value, scan = _factored_scan(terms, p, 1 - 2 * q, 1 - q)
    val, lam = maximize_over_weights(value, 1e-3, 1e-10, scan)
    return _shaped(shape, val, 1 - 2 * lam)


def xz_grid_max(p, q, steps=201):
    """Grid maximum of the coherent information over the (x, z) quarter disk.

    Reported without any optimality claim; outside the Z-diagonal region
    the true maximizer's form is not characterized.  The grid holds
    ``steps`` values of x in [0, 1] and, for each, ``steps`` values of z
    in [0, sqrt(1 - x^2)]; the first maximum in that order is returned.
    """
    p, q = np.asarray(p, dtype=float).item(), np.asarray(q, dtype=float).item()
    x = np.linspace(0.0, 1.0, steps)[:, None]
    z = np.linspace(0.0, 1.0, steps) * np.sqrt(np.maximum(0.0, 1.0 - x * x))
    values = coherent_info_xz(p, q, x, z)
    i = np.unravel_index(np.argmax(values), values.shape)
    return values[i].item(), (x[i[0], 0].item(), z[i].item())
