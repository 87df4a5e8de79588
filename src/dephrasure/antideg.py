"""Constructive antidegradability witnesses for the dephrasure channel.

For q >= 1/2 a trivial degrading map recovers the channel from its
complement; for k(p) <= q < 1/2 the recovery runs an unambiguous state
discrimination (USD) measurement on the environment block.  Each map
is held as a weights array c and an operator stack K, the map
rho -> sum_i c_i K_i rho K_i^dag, so that the x < 0 regime (where the
construction stops being completely positive) is still representable;
verification compares Choi matrices taken from the stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _broadcast, _channel_ops, _complement_ops, _points, _shaped, region_k
from .qinfo import KrausSet, _choi_of_terms

# _U[i, j] is |i><j| from the complement's 4-dim output to the channel's
# qutrit output; input block 0 = (0, 1) holds the copy, block 1 = (2, 3)
# the environment states, and output 2 is the erasure flag
_U = np.eye(12, dtype=complex).reshape(3, 4, 3, 4)
_0 = np.zeros((3, 4), dtype=complex)
# the six terms of the USD map (index 0) and the trivial map (index 1), as
# tables for the coefficients (1, sqrt(p), sqrt(1 - p)) whose weighted sum
# is a term's operator; _map_stack gives the terms' weights
_MAP_TABLES = np.array([
    # usd: block 0 kept (1-x) or erased (x); block 1 measured by the POVM
    # effects v_i v_i^dag / (2(1-p)), v_i = (sqrt(p), +-sqrt(1-p)), outcome
    # i preparing |i><i|, and its inconclusive outcome erased
    [[_U[0, 0] + _U[1, 1], _U[2, 0], _U[2, 1], _0, _0, _U[2, 2]],
     [_0, _0, _0, _U[0, 2], _U[1, 2], _0],
     [_0, _0, _0, _U[0, 3], -_U[1, 3], _0]],
    # trivial: block 0 dephased (weights (1-p)(1-x), p(1-x)) or erased (x),
    # block 1 erased
    [[_U[0, 0] + _U[1, 1], _U[0, 0] - _U[1, 1], _U[2, 0], _U[2, 1], _U[2, 2], _U[2, 3]],
     [_0] * 6, [_0] * 6],
])

# points per block of verify_antidegradable: a point's 6 map and 18 composed
# terms take 24 KB as outer products, so a block's temporaries stay under 4 MB
# (unblocked, a 201x201 sweep's would take about 1 GB)
_BLOCK_POINTS = 64


class NotAntidegradableHere(ValueError):
    """The constructive maps do not cover this parameter point."""


@dataclass(frozen=True)
class DegradingMapReport:
    p: float
    q: float
    map_kind: str  # 'trivial' or 'usd'
    x_param: float
    composition_residual: float
    cp_min_eigenvalue: float
    antidegradable: bool


def _map_stack(p, q):
    """(x, weights, ops) of the degrading map at broadcast p and q.

    The trivial map serves q >= 1/2, where it is CP, and the USD map
    q < 1/2, CP exactly when its erasure parameter x is >= 0; weights
    (..., 6) and ops (..., 6, 3, 4) give rho -> sum_i w_i K_i rho K_i^dag.
    """
    p, q = _broadcast(p, q)
    trivial = q >= 0.5
    # where q = 0 or a subnormal q leaves the USD map's x not finite, x = 1,
    # its value at p = 1/2 (at q = 0 the copy that x erases is empty)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        usd = 1.0 - (1.0 - q) * (1.0 - 2.0 * p) / q
        x = np.where(trivial, (2.0 * q - 1.0) / q, np.where(np.isfinite(usd), usd, 1.0))
    one, povm = np.ones_like(x), 1.0 / (2 * (1 - p))
    weights = np.where(
        trivial[..., None],
        np.stack([(1.0 - p) * (1.0 - x), p * (1.0 - x), x, x, one, one], -1),
        np.stack([1.0 - x, x, x, povm, povm, (1 - 2 * p) / (1 - p)], -1),
    )
    coef = np.stack([one, np.sqrt(p), np.sqrt(1 - p)], -1)[..., None, None, None]
    ops = np.sum(coef * _MAP_TABLES[trivial.astype(int)], axis=-4)
    return x, weights, ops


def antidegrading_map(p, q):
    """Degrading map (4 -> 3) recovering the channel from its complement.

    Returned as an explicit KrausSet; uses the trivial construction for
    q >= 1/2 and the USD construction for k(p) <= q < 1/2.  Below k(p)
    neither construction is completely positive and
    NotAntidegradableHere is raised; at q = 0 that leaves p = 1/2, where
    complete dephasing is recovered by the USD map with x = 1.
    """
    _, p, q = _points(p, q, 1.0)
    p, q = p.item(), q.item()
    if q < region_k(p) - 1e-15:
        raise NotAntidegradableHere(
            f"(p, q) = ({p}, {q}) is below the constructive boundary k(p)"
        )
    _, weights, ops = _map_stack(p, q)
    keep = weights > 0.0
    return KrausSet(4, 3, np.sqrt(weights[keep])[:, None, None] * ops[keep])


def _verify_block(p, q):
    """Rows (x, composition residual, CP min eigenvalue) at the points
    p, q of two 1-d arrays.

    The map, complement and channel stacks hold real values, so every
    Choi matrix and the composition are built in float64 from their real
    parts, which give the complex build's bits.  The map's Choi is cast
    to complex for eigvalsh alone: LAPACK's real symmetric solver rounds
    its eigenvalues differently from the Hermitian one, and moved 21 of
    the 225 noise-level CP eigenvalues of a 15x15 grid of [0, 1/2]^2, by
    up to 6e-17.
    """
    x, weights, ops = _map_stack(p, q)
    ops = ops.real
    cp_min = np.linalg.eigvalsh(_choi_of_terms(weights, ops).astype(complex)).min(axis=-1)
    comp = _complement_ops(p, q).real  # term (i, j): weights_i, ops_i @ comp_j
    terms = weights.shape[1] * comp.shape[1]
    composed = (ops[:, :, None] @ comp[:, None]).reshape(len(p), terms, 3, 2)
    choi_comp = _choi_of_terms(np.repeat(weights, comp.shape[1], axis=1), composed)
    target = _choi_of_terms(np.ones((len(p), 4)), _channel_ops(p, q).real)
    residual = np.abs(choi_comp - target).max(axis=(-2, -1))
    return np.stack([x, residual, cp_min])


def verify_antidegradable(p, q, tol=1e-10):
    """Build the degrading map and check it numerically.

    Compares the Choi matrix of (map o complementary channel) against
    the channel's Choi matrix (basis independent), and checks complete
    positivity through the map's own Choi spectrum.  Below k(p) the USD
    construction is still evaluated with its forced x < 0, so the report
    shows exactly how complete positivity fails; ``antidegradable``
    False then only means "not witnessed by these constructions".  At
    q = 0, or a subnormal q where x is not finite, x = 1 gives residual
    1 - 2p (the inconclusive mass) and CP eigenvalue ~0: only p = 1/2 passes.

    p in [0, 1/2] and q in [0, 1] broadcast, checked in C order, p before
    q, as a loop of one-point calls would.  Scalars give a report of
    Python floats, a str and a bool; arrays give one whose fields are
    arrays of the broadcast shape, bit-identical to one-point calls and
    taken in blocks of _BLOCK_POINTS, each with one stacked eigvalsh.
    """
    shape, p, q = _points(p, q, 1.0)
    p, q = p[:, 0], q[:, 0]
    x, residual, cp_min = np.concatenate([  # one empty block for no points
        _verify_block(p[i : i + _BLOCK_POINTS], q[i : i + _BLOCK_POINTS])
        for i in range(0, len(p) or 1, _BLOCK_POINTS)
    ], axis=1)
    kind = np.where(q >= 0.5, "trivial", "usd")
    fields = (p, q, kind, x, residual, cp_min, (residual <= tol) & (cp_min >= -tol))
    return DegradingMapReport(*_shaped(shape, *fields))
