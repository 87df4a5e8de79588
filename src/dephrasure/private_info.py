"""Ensemble private information of the dephrasure channel.

The private information of an input ensemble is the difference of the
Holevo quantities seen by the receiver and by the environment.  The
plus/minus-basis two-member family is the canonical private code for
this channel, with a closed form that the Holevo route checks.
"""

from __future__ import annotations

import numpy as np

from .channel import (
    _factored_scan,
    _points,
    _shaped,
    complementary_apply,
    dephrasure_kraus,
    maximize_over_weights,
)
from .qinfo import apply_kraus, binary_entropy, check_density_matrix, von_neumann_entropy

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
    matrix.
    """
    members = _check_ensemble(members)
    if members[0][1].shape[0] != 2:
        raise ValueError("dephrasure private information needs a qubit ensemble")
    kraus = dephrasure_kraus(p, q)

    avg_b = np.zeros((3, 3), dtype=complex)
    avg_e = np.zeros((4, 4), dtype=complex)
    mean_s_b = 0.0
    mean_s_e = 0.0
    for prob, rho in members:
        if prob == 0.0:
            continue
        out_b = apply_kraus(kraus, rho)
        out_e = complementary_apply(p, q, rho)
        avg_b += prob * out_b
        avg_e += prob * out_e
        mean_s_b += prob * von_neumann_entropy(out_b)
        mean_s_e += prob * von_neumann_entropy(out_e)
    holevo_b = von_neumann_entropy(avg_b) - mean_s_b
    holevo_e = von_neumann_entropy(avg_e) - mean_s_e
    return holevo_b - holevo_e


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


def _plusminus_closed_form(lam, p, q):
    kept, erased = _plusminus_entropies(p, lam)
    return (1 - q) * kept - q * erased


def private_lower_bound(p, q):
    """Maximize the +/- family private information over the weight.

    Returns (value, lambda_star) with lambda_star in [1/2, 1] by the
    lam <-> 1-lam symmetry.  Uses the closed form, which matches the
    Holevo-form evaluation of plusminus_ensemble to within 1e-10.  p and
    q broadcast as in single_letter_ci: arrays give arrays from one
    batched scan, scalars give Python floats.
    """
    shape, p, q = _points(p, q, 0.5)
    # scan mu = 1 - lam over [0, 1/2]
    _, scan = _factored_scan(lambda r, m: _plusminus_entropies(r, 1.0 - m), p, 1 - q, q)
    value, mu = maximize_over_weights(
        lambda m: _plusminus_closed_form(1.0 - m, p, q), 1e-3, 1e-10, scan
    )
    return _shaped(shape, value, 1.0 - mu)
