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

from .channel import (
    _EMBED,
    KET_E,
    _Z,
    _check_prob,
    complementary_kraus,
    dephrasure_kraus,
    region_k,
)
from .qinfo import KrausSet, _choi_of_terms, choi_of

_OUT = [np.eye(3, dtype=complex)[:, i] for i in range(3)]


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


def usd_povm(p):
    """Unambiguous discrimination POVM for the environment state pair.

    Returns (Pi_0, Pi_1, Pi_e): outcome x certifies the state phi_p^x,
    and the inconclusive effect Pi_e carries the minimal failure
    probability |<phi^0|phi^1>| = 1 - 2p.
    """
    p = _check_prob(p, "p", hi=0.5)
    root = np.sqrt(p * (1 - p))
    pi0 = np.array([[p, root], [root, 1 - p]], dtype=complex) / (2 * (1 - p))
    pi1 = np.array([[p, -root], [-root, 1 - p]], dtype=complex) / (2 * (1 - p))
    pie = np.array([[(1 - 2 * p) / (1 - p), 0], [0, 0]], dtype=complex)
    return pi0, pi1, pie


def _block_selector(block):
    """2x4 isometry picking input indices (0, 1) or (2, 3)."""
    sel = np.zeros((2, 4), dtype=complex)
    sel[0, 2 * block] = 1.0
    sel[1, 2 * block + 1] = 1.0
    return sel


def _erasure_terms(x, block, dephase=0.0):
    """Weighted terms of [dephasing then] erasure-x on one input block."""
    sel = _block_selector(block)
    terms = []
    for w, core in ((1.0 - dephase, np.eye(2)), (dephase, _Z)):
        if w == 0.0:
            continue
        terms.append((w * (1.0 - x), _EMBED @ core @ sel))
    for b in range(2):
        terms.append((x, np.outer(KET_E, np.eye(2)[b]) @ sel))
    return terms


def _usd_map_terms(p, q):
    """USD-based degrading map; CP exactly when its x parameter is >= 0."""
    x = 1.0 - (1.0 - q) * (1.0 - 2.0 * p) / q
    terms = _erasure_terms(x, 0)
    sel = _block_selector(1)
    v0 = np.array([np.sqrt(p), np.sqrt(1 - p)], dtype=complex)
    v1 = np.array([np.sqrt(p), -np.sqrt(1 - p)], dtype=complex)
    # rank-one POVM effects Pi_i = v_i v_i^dag / (2(1-p)); measuring
    # outcome i prepares |i><i| on the channel output
    terms.append((1.0 / (2 * (1 - p)), np.outer(_OUT[0], v0.conj()) @ sel))
    terms.append((1.0 / (2 * (1 - p)), np.outer(_OUT[1], v1.conj()) @ sel))
    terms.append(
        ((1 - 2 * p) / (1 - p), np.outer(KET_E, np.eye(2)[0]) @ sel)
    )
    return x, terms


def _trivial_map_terms(p, q):
    """Trivial degrading map; CP exactly for q >= 1/2."""
    x = (2.0 * q - 1.0) / q
    terms = _erasure_terms(x, 0, dephase=p)
    sel = _block_selector(1)
    for b in range(2):
        terms.append((1.0, np.outer(KET_E, np.eye(2)[b]) @ sel))
    return x, terms


def _map_terms(p, q):
    """(kind, x, weights, ops): the map's weights and its (m, 3, 4) stack."""
    if q >= 0.5:
        kind, (x, terms) = "trivial", _trivial_map_terms(p, q)
    else:
        kind, (x, terms) = "usd", _usd_map_terms(p, q)
    weights, ops = zip(*terms)
    return kind, x, np.array(weights), np.array(ops)


def antidegrading_map(p, q):
    """Degrading map (4 -> 3) recovering the channel from its complement.

    Returned as an explicit KrausSet; uses the trivial construction for
    q >= 1/2 and the USD construction for k(p) <= q < 1/2.  Below k(p)
    neither construction is completely positive and
    NotAntidegradableHere is raised.
    """
    p = _check_prob(p, "p", hi=0.5)
    q = _check_prob(q, "q")
    if q <= 0.0:
        raise NotAntidegradableHere("q = 0 has no degrading construction")
    if q < region_k(p) - 1e-15:
        raise NotAntidegradableHere(
            f"(p, q) = ({p}, {q}) is below the constructive boundary k(p)"
        )
    _, _, weights, ops = _map_terms(p, q)
    keep = weights > 0.0
    return KrausSet(4, 3, np.sqrt(weights[keep])[:, None, None] * ops[keep])


def verify_antidegradable(p, q, tol=1e-10):
    """Build the degrading map and check it numerically.

    Compares the Choi matrix of (map o complementary channel) against
    the channel's Choi matrix (basis independent), and checks complete
    positivity through the map's own Choi spectrum.  Below k(p) the USD
    construction is still evaluated with its forced x < 0, so the report
    shows exactly how complete positivity fails; ``antidegradable``
    False then only means "not witnessed by these constructions".
    """
    p = _check_prob(p, "p", hi=0.5)
    q = _check_prob(q, "q")
    if q <= 0.0:
        return DegradingMapReport(p, q, "usd", -np.inf, np.inf, -np.inf, False)
    kind, x, weights, ops = _map_terms(p, q)

    a_choi = _choi_of_terms(weights, ops)
    cp_min = float(np.linalg.eigvalsh(a_choi).min())

    comp = complementary_kraus(p, q).operators  # term (i, j): weights_i, ops_i @ comp_j
    composed = (ops[:, None] @ comp[None]).reshape(-1, 3, 2)
    choi_comp = _choi_of_terms(np.repeat(weights, len(comp)), composed)
    target = choi_of(dephrasure_kraus(p, q))
    residual = float(np.max(np.abs(choi_comp - target)))

    return DegradingMapReport(
        p=p,
        q=q,
        map_kind=kind,
        x_param=x,
        composition_residual=residual,
        cp_min_eigenvalue=cp_min,
        antidegradable=bool(residual <= tol and cp_min >= -tol),
    )
