"""Positivity of the complementary channel's coherent information.

For every p, q in (0, 1/2] there is an X-polarized input state whose
coherent information through the complementary channel is strictly
positive; this module evaluates the closed form and constructs an
explicit witness from the small-epsilon bound.  Every function
broadcasts: arrays give arrays of the broadcast shape, bit-identical to
one-point calls, and scalars give Python floats.  All points are checked
before any is evaluated, as in channel._points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _broadcast, _in_prob, _libm_pow, _shaped
from .qinfo import LN2, _check_points, binary_entropy


class UnderflowAtParams(ArithmeticError):
    """The witness amplitude underflowed to zero before turning positive."""


@dataclass(frozen=True)
class WitnessResult:  # floats for one point, broadcast-shape arrays for many
    p: float
    q: float
    m: float  # Bloch-x amplitude of the witness state
    epsilon: float  # (1 - m) / 2
    ci_value: float


def _binary_entropy_diff(p, delta):
    """h(p + delta) - h(p) without subtracting O(1) entropies.

    Needed because the witness lives at delta values far below the
    rounding error of h(p) itself.  It is 0 at delta = 0, h(|delta|) at
    p = 0 or 1 and -h(p) where p + delta >= 1; elsewhere the closed form
    is taken on operands that keep it finite.  Where delta / p overflows
    (subnormal p), log1p(delta / p) is taken as log(p + delta) - log(p).
    """
    zero, end, top = delta == 0.0, (p == 0.0) | (p == 1.0), p + delta >= 1.0
    closed = ~(zero | end | top)
    p_c, d_c = np.where(closed, p, 0.25), np.where(closed, delta, 0.25)
    with np.errstate(over="ignore"):
        ratio = d_c / p_c
    over = np.isinf(ratio)
    p_o, d_o = np.where(over, p_c, 1.0), np.where(over, d_c, 0.0)
    log_ratio = np.where(
        over, np.log(p_o + d_o) - np.log(p_o), np.log1p(np.where(over, 0.0, ratio))
    )
    value = (
        -p_c * log_ratio / LN2
        - d_c * np.log2(p_c + d_c)
        - (1 - p_c) * np.log1p(-d_c / (1 - p_c)) / LN2
        + d_c * np.log2(1 - p_c - d_c)
    )
    value = np.where(top, -binary_entropy(p), value)
    value = np.where(end, binary_entropy(np.abs(np.where(end, delta, 0.0))), value)
    return np.where(zero, 0.0, value)


def comp_ci_eps(p, q, eps):
    """Same quantity parametrized by eps = (1 - m)/2 directly.

    Use this form when eps is below ~1e-16: the Bloch amplitude
    m = 1 - 2 eps then rounds to exactly 1 and the information would be
    lost in the round trip.
    """
    p, q, eps = _broadcast(p, q, eps)
    _check_points(_in_prob("p", p, 1.0), _in_prob("q", q, 1.0),
                  ((0.0 <= eps) & (eps <= 0.5), "eps = {} outside [0, 1/2]", eps))
    p, q = np.minimum(p, 1.0), np.minimum(q, 1.0)
    value = q * binary_entropy(eps) - (1 - q) * _binary_entropy_diff(p, eps * (1 - 2 * p))
    return _shaped(p.shape, value)[0]


def comp_ci_x_state(p, q, m):
    """Coherent information of (1 + m X)/2 through the complementary channel.

    Closed form q h(eps) + (1-q)[h(p) - h(p + eps - 2 eps p)] with
    eps = (1-m)/2; dephasing shrinks the X polarization by (1-2p) while
    the environment sees the diagonal measurement statistics.  The
    entropy difference is evaluated in cancellation-free form so the
    value stays meaningful at exponentially small eps.
    """
    p, q, m = _broadcast(p, q, m)
    _check_points(((0.0 <= m) & (m <= 1.0), "m = {} outside [0, 1]", m),
                  _in_prob("p", p, 1.0), _in_prob("q", q, 1.0))
    return comp_ci_eps(p, q, (1.0 - m) / 2.0)


def _witness_points(p, q, p_zero):
    """p and q broadcast and clamped at 1/2; each point must have p in
    [0, 1/2], q in (0, 1/2] and p != 0 (the error ``p_zero``), in turn."""
    p, q = _broadcast(p, q)
    _check_points(_in_prob("p", p, 0.5),
                  ((0.0 < q) & _in_prob("q", q, 0.5)[0], "q = {} outside (0, 1/2]", q),
                  (p != 0.0, p_zero, p))
    p, q = np.minimum(p, 0.5), np.minimum(q, 0.5)
    # a subnormal q or p overflows a ratio to inf (and, at p = 1/2, the
    # exponent to NaN) without a warning, as one point's floats did
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = (1.0 - q) / q * (1.0 - 2.0 * p) * np.log2((1.0 - p) / p)
    return p, q, np.asarray(_libm_pow(2.0, -exponent), dtype=float)


def epsilon_bound(p, q):
    """Explicit small-epsilon bound guaranteeing a positive witness.

    2^(-((1-q)/q)(1-2p) log2((1-p)/p)); with base-2 logarithms
    throughout, -log2(eps) then dominates the slope term exactly as in
    the positivity condition h(eps)/eps > ((1-q)/q)(1-2p) log2((1-p)/p).
    """
    p, _, bound = _witness_points(p, q, "p = 0 admits no finite bound")
    return _shaped(np.shape(p), bound)[0]


def positivity_witness(p, q):
    """An X-polarized state with strictly positive complementary CI.

    Starts from half the explicit epsilon bound and halves, at most 64
    times, on a nonpositive evaluation (possible only through
    underflow); raises UnderflowAtParams if epsilon reaches zero.  The
    points halve in lockstep, each only while its own value is
    nonpositive, so each gives the bits of a one-point call; the error
    names the first point in C order that found no positive value.
    """
    p, q, bound = _witness_points(p, q, "p = 0 is outside the witness region")
    shape, p, q, half = np.shape(p), np.ravel(p), np.ravel(q), np.ravel(bound) / 2.0
    eps = np.where(half < 0.5, half, 0.5)  # min(0.5, half), also 1/2 for NaN
    value = comp_ci_eps(p, q, eps)
    for _ in range(63):
        # at epsilon 0 the value is 0 and stays so: such points have failed
        todo = np.flatnonzero(~(value > 0.0) & (eps > 0.0))
        if not todo.size:
            break
        eps[todo] /= 2.0
        value[todo] = comp_ci_eps(p[todo], q[todo], eps[todo])
    failed = np.flatnonzero(~(value > 0.0))
    if failed.size:
        i = failed[0]
        raise UnderflowAtParams(f"no positive witness found at (p, q) = ({p[i]}, {q[i]})")
    return WitnessResult(*_shaped(shape, p, q, 1.0 - 2.0 * eps, eps, value))
