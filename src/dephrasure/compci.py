"""Positivity of the complementary channel's coherent information.

For every p, q in (0, 1/2] there is an X-polarized input state whose
coherent information through the complementary channel is strictly
positive; this module evaluates the closed form and constructs an
explicit witness from the small-epsilon bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _check_prob
from .qinfo import binary_entropy


class UnderflowAtParams(ArithmeticError):
    """The witness amplitude underflowed to zero before turning positive."""


@dataclass(frozen=True)
class WitnessResult:
    p: float
    q: float
    m: float  # Bloch-x amplitude of the witness state
    epsilon: float  # (1 - m) / 2
    ci_value: float


_LN2 = np.log(2.0)


def _binary_entropy_diff(p, delta):
    """h(p + delta) - h(p) without subtracting O(1) entropies.

    Needed because the witness lives at delta values far below the
    rounding error of h(p) itself.
    """
    if delta == 0.0:
        return 0.0
    if p == 0.0:
        return binary_entropy(delta)
    if p + delta >= 1.0:
        return -binary_entropy(p)
    return (
        -p * np.log1p(delta / p) / _LN2
        - delta * np.log2(p + delta)
        - (1 - p) * np.log1p(-delta / (1 - p)) / _LN2
        + delta * np.log2(1 - p - delta)
    )


def comp_ci_eps(p, q, eps):
    """Same quantity parametrized by eps = (1 - m)/2 directly.

    Use this form when eps is below ~1e-16: the Bloch amplitude
    m = 1 - 2 eps then rounds to exactly 1 and the information would be
    lost in the round trip.
    """
    p = _check_prob(p, "p")
    q = _check_prob(q, "q")
    eps = float(eps)
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"eps = {eps} outside [0, 1/2]")
    return q * binary_entropy(eps) - (1 - q) * _binary_entropy_diff(
        p, eps * (1 - 2 * p)
    )


def comp_ci_x_state(p, q, m):
    """Coherent information of (1 + m X)/2 through the complementary channel.

    Closed form q h(eps) + (1-q)[h(p) - h(p + eps - 2 eps p)] with
    eps = (1-m)/2; dephasing shrinks the X polarization by (1-2p) while
    the environment sees the diagonal measurement statistics.  The
    entropy difference is evaluated in cancellation-free form so the
    value stays meaningful at exponentially small eps.
    """
    m = float(m)
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"m = {m} outside [0, 1]")
    return comp_ci_eps(p, q, (1.0 - m) / 2.0)


def epsilon_bound(p, q):
    """Explicit small-epsilon bound guaranteeing a positive witness.

    2^(-((1-q)/q)(1-2p) log2((1-p)/p)); with base-2 logarithms
    throughout, -log2(eps) then dominates the slope term exactly as in
    the positivity condition h(eps)/eps > ((1-q)/q)(1-2p) log2((1-p)/p).
    """
    p = _check_prob(p, "p", hi=0.5)
    q = float(q)
    if not 0.0 < q <= 0.5 + 1e-15:
        raise ValueError(f"q = {q} outside (0, 1/2]")
    if p == 0.0:
        raise ValueError("p = 0 admits no finite bound")
    exponent = (1.0 - q) / q * (1.0 - 2.0 * p) * np.log2((1.0 - p) / p)
    return float(2.0 ** (-exponent))


def positivity_witness(p, q):
    """An X-polarized state with strictly positive complementary CI.

    Starts from half the explicit epsilon bound and halves, at most 64
    times, on a nonpositive evaluation (possible only through
    underflow); raises UnderflowAtParams if epsilon reaches zero.
    """
    p = _check_prob(p, "p", hi=0.5)
    q = float(q)
    if not 0.0 < q <= 0.5 + 1e-15:
        raise ValueError(f"q = {q} outside (0, 1/2]")
    if p == 0.0:
        raise ValueError("p = 0 is outside the witness region")
    eps = min(0.5, epsilon_bound(p, q) / 2.0)
    for _ in range(64):
        if eps == 0.0:
            break
        value = comp_ci_eps(p, q, eps)
        if value > 0.0:
            return WitnessResult(p, q, 1.0 - 2.0 * eps, eps, value)
        eps /= 2.0
    raise UnderflowAtParams(f"no positive witness found at (p, q) = ({p}, {q})")
