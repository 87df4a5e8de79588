"""Ensemble private information of the dephrasure channel.

The private information of an input ensemble is the difference of the
Holevo quantities seen by the receiver and by the environment.  The
plus/minus-basis two-member family is the canonical private code for
this channel, with a closed form that the Holevo route checks.
"""

from __future__ import annotations

import numpy as np

from .channel import (
    _channel_ops,
    _checked_ops,
    _complement_ops,
    _factored_scan,
    _points,
    _shaped,
    maximize_over_weights,
)
from .qinfo import (_check_points, _kraus_action, _state_checks, binary_entropy,
                    check_density_matrix, von_neumann_entropy)

_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


def _check_ensemble(members):
    cleaned = []
    total = 0.0
    for prob, rho in members:
        prob = float(prob)
        if prob < -1e-15:
            raise ValueError(f"negative ensemble probability {prob}")
        cleaned.append((max(prob, 0.0), check_density_matrix(rho)))
        total += prob
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"ensemble probabilities sum to {total}")
    dims = {rho.shape[0] for _, rho in cleaned}
    if len(dims) != 1:
        raise ValueError("ensemble members have mixed dimensions")
    return cleaned


def ensemble_private_info(members, p, q):
    """I(X;B) - I(X;E) for a qubit ensemble, in Holevo form.

    Each mutual information is S(average output) minus the average
    output entropy; the classical register never gets materialized as a
    matrix.  p and q are one point.
    """
    members = _check_ensemble(members)
    if members[0][1].shape[0] != 2:
        raise ValueError("dephrasure private information needs a qubit ensemble")
    p, q = np.asarray(p, dtype=float).item(), np.asarray(q, dtype=float).item()
    probs, states = zip(*members)
    return float(_private_info_rows(probs, np.array(states)[None], [p], [q])[0])


def _private_info_rows(probs, states, p, q):
    """ensemble_private_info of ensembles with probabilities ``probs`` (m,)
    and qubit states (R, m, 2, 2), row i at (p[i], q[i]), each row checked
    and computed as its one-row call (_check_points), so with its bits."""
    p, q = (np.reshape(np.asarray(v, dtype=float), (-1,)) for v in (p, q))
    ops, checks = _checked_ops(_channel_ops, p, q)
    # a row's states member by member, then its channel, as its one-row call
    state_checks = _state_checks(states)
    _check_points(*[(ok[:, k], text, v[:, k])
                    for k in range(len(probs)) for ok, text, v in state_checks], *checks)
    holevo = []
    for kraus in (ops, _checked_ops(_complement_ops, p, q)[0]):  # N, then N^c
        outs = _kraus_action(kraus[:, None], states)[1]
        avg, mean = np.zeros(outs[:, 0].shape, dtype=complex), 0.0
        for k, prob in enumerate(probs):
            if prob != 0.0:
                avg += prob * outs[:, k]
                mean += prob * von_neumann_entropy(outs[:, k])
        holevo.append(von_neumann_entropy(avg) - mean)
    return holevo[0] - holevo[1]


def plusminus_ensemble(lam):
    """The two-member +/- basis ensemble with weights (lam, 1-lam)."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda = {lam} outside [0, 1]")
    plus = np.outer(_PLUS, _PLUS.conj())
    minus = np.outer(_MINUS, _MINUS.conj())
    rho1 = lam * plus + (1 - lam) * minus
    rho2 = (1 - lam) * plus + lam * minus
    return [(0.5, rho1), (0.5, rho2)]


def _plusminus_entropies(p, lam):
    """The Holevo terms 1 - h(mix) of a kept use and 1 - h(lam) of an erased one."""
    mix = p + (1 - lam) * (1 - 2 * p)
    return 1 - binary_entropy(mix), 1 - binary_entropy(lam)


def private_lower_bound(p, q):
    """Maximize the +/- family private information over the weight.

    Returns (value, lambda_star) with lambda_star in [1/2, 1] by the
    lam <-> 1-lam symmetry.  Uses the closed form (1-q) kept - q erased
    of _plusminus_entropies, which matches the Holevo-form evaluation of
    plusminus_ensemble to within 1e-10.  p and q broadcast as in
    single_letter_ci: arrays give arrays from one batched scan, scalars
    give Python floats.
    """
    shape, p, q = _points(p, q)
    # scan mu = 1 - lam over [0, 1/2]
    value, scan = _factored_scan(lambda r, m: _plusminus_entropies(r, 1.0 - m), p, 1 - q, q)
    value, mu = maximize_over_weights(value, 1e-3, 1e-10, scan)
    return _shaped(shape, value, 1.0 - mu)
