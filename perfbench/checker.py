"""Strict checks of every CLI output the benchmark produces.

Outputs are parsed strictly (no ``inf``, ``nan`` or JSON ``Infinity``),
every row is held to bounds that hold for this channel, and a seeded
sample of rows is recomputed through an independent route:

* ``single_ci``: the Kraus route ``coherent_info_state`` at z*;
* ``private_lb``: the Holevo form of ``plusminus_ensemble(lambda*)``;
* ``repetition_rate(n)`` and the diagonal's ``rep<n>``: ``multiletter_ci``
  of ``repetition_code_state(n, lambda*)``;
* ``comp_witness``: the Kraus route through the complementary channel;
* ``optimize``: the returned code re-evaluated by ``brute_force_ci``.

Every search must end at or above the repetition rate at the same
(p, q, n); a chi3 search only where its recorded baseline does, since
the chi3 family does not contain the repetition codes.  Every search
must also end at or above its baseline rate in ``search_rates.json``
(``record_search_rates.py``), so that a faster search that finds worse
codes fails.

The rate bounds are min(max(0, 1-2q), 1-h(p)) everywhere and 0 for
q >= k(p), where the channel is antidegradable.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOL = 1e-9
RESIDUAL_TOL = 1e-10
SAMPLE_ROWS = 6
SEARCHES = ("diagonal", "zdiag_rate", "optimize")
RATES_FILE = Path(__file__).resolve().parent / "search_rates.json"
# {rate_key: per-letter rate} of every search code_search can run
BASELINE_RATES = json.loads(RATES_FILE.read_text()) if RATES_FILE.exists() else {}

# Failures of the program at the parent commit that the benchmark counts
# rather than hides (the ROADMAP's defect list): (command tag, error).
KNOWN_DEFECTS = {
    ("antideg", "nonfinite_q0"),  # antideg writes +-inf at q = 0
    ("antideg_json", "nonstrict_json"),  # ... which JSON spells Infinity
    ("comp_witness", "exit_2"),  # q = 0 is the sweep's first point
    ("comp_witness_corner", "UnderflowAtParams"),  # uncaught at small (p, q)
}


class CheckError(ValueError):
    """An output that does not parse or does not have the expected shape."""


class NonStrictJson(CheckError):
    """JSON holding Infinity, -Infinity or NaN."""


@dataclass
class Verdict:
    tag: str
    error: str | None = None  # None when the operation succeeded
    rows: int = 0  # data rows written
    rows_ok: int = 0  # rows passing every check
    rate: float | None = None  # mean per-letter rate of a search command
    baseline_rate: float | None = None  # ... and its recorded baseline
    detail: list = field(default_factory=list)

    @property
    def known_defect(self):
        return (self.tag, self.error) in KNOWN_DEFECTS


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def k_curve(p):
    return (1.0 - 2.0 * p) / (2.0 * (1.0 - p))


def rate_bound(p, q):
    """Upper bound on any n-letter coherent information per use."""
    bound = min(max(0.0, 1.0 - 2.0 * q), 1.0 - h2(p))
    return 0.0 if q >= k_curve(p) else bound


def rate_key(name, n, p, q):
    return f"{name}({n}) p={p:.6f} q={q:.6f}"


def _reject_constant(name):
    raise NonStrictJson(f"non-strict JSON constant {name}")


def parse_json(data):
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def parse_csv(data):
    """(header, rows) of a CLI CSV; values stay floats, inf included."""
    lines = data.decode("ascii").splitlines()
    if len(lines) < 2 or not lines[0].startswith("# dephrasure "):
        raise CheckError("missing provenance line or header")
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        row = [float(x) for x in line.split(",")]
        if len(row) != len(header):
            raise CheckError(f"row {line!r} does not match header {header}")
        rows.append(row)
    return header, rows


# -- independent routes ----------------------------------------------------

def _single_ci_route(p, q):
    from dephrasure import channel

    _, z = channel.single_letter_ci(p, q)
    return channel.coherent_info_state(p, q, channel.bloch_state(0.0, 0.0, z))


def _private_lb_route(p, q):
    from dephrasure import private_info

    _, lam = private_info.private_lower_bound(p, q)
    ensemble = private_info.plusminus_ensemble(lam)
    return private_info.ensemble_private_info(ensemble, p, q)


def _repetition_route(p, q, n):
    from dephrasure import codes

    _, lam = codes.repetition_ci_opt(p, q, n)
    return codes.multiletter_ci(codes.repetition_code_state(n, lam), p, q) / n


def _repetition_rate(p, q, n):
    from dephrasure import codes

    return codes.repetition_ci_opt(p, q, n)[0] / n


def _witness_route(p, q, eps):
    from dephrasure import channel, qinfo

    rho = channel.bloch_state(1.0 - 2.0 * eps, 0.0, 0.0)
    return qinfo.coherent_information(channel.complementary_kraus(p, q), rho)


# -- row checks: each returns the list of reasons the row fails --------------

def _rate_row(p, q, value, n=None, search=False):
    reasons = []
    if value < -TOL:
        reasons.append("below_zero")
    if value > rate_bound(p, q) + TOL:
        reasons.append("above_bound")
    if search and value < _repetition_rate(p, q, n) - TOL:
        reasons.append("below_repetition")
    return reasons


def _row_reasons(quantity, n, row, sampled):
    if not all(math.isfinite(v) for v in row):
        return ["nonfinite_q0" if quantity != "regions" and row[1] == 0.0 else "nonfinite"]
    if quantity == "regions":
        _, g, j, k = row
        ok = 0.0 <= g <= k + TOL and 0.0 <= j <= 0.5 + TOL and k <= 0.5 + TOL
        return [] if ok else ["region_order"]
    p, q, *vals = row
    if quantity in ("single_ci", "repetition_rate", "zdiag_rate"):
        reasons = _rate_row(p, q, vals[0], n, search=quantity == "zdiag_rate")
        if sampled and quantity == "single_ci":
            route = _single_ci_route(p, q)
        elif sampled and quantity == "repetition_rate":
            route = _repetition_route(p, q, n)
        else:
            return reasons
        return reasons + (["route_mismatch"] if abs(route - vals[0]) > TOL else [])
    if quantity == "private_lb":
        reasons = []
        if not -TOL <= vals[0] <= min(1.0 - q, 1.0 - h2(p)) + TOL:
            reasons.append("out_of_bounds")
        if sampled and abs(_private_lb_route(p, q) - vals[0]) > TOL:
            reasons.append("route_mismatch")
        return reasons
    if quantity == "antideg":
        flag, residual, _ = vals
        if q > 0.0 and q >= k_curve(p) and not (flag == 1.0 and residual <= RESIDUAL_TOL):
            return ["not_antidegradable"]
        return []
    if quantity == "comp_witness":
        ci_value, eps = vals
        if not (ci_value > 0.0 and 0.0 < eps <= 0.5):
            return ["witness_invalid"]
        if sampled and eps >= 1e-6 and abs(_witness_route(p, q, eps) - ci_value) > TOL:
            return ["route_mismatch"]
        return []
    if quantity == "diagonal":
        rep3, chi3 = vals
        reasons = _rate_row(p, q, rep3)
        if chi3 > rate_bound(p, q) + TOL:
            reasons.append("above_bound")
        # the chi3 family does not contain the repetition codes (at
        # p = 0.1174 the chi3 search ends below rep3, and below zero), so
        # chi3 is held to rep3 only where its baseline meets it
        base = BASELINE_RATES.get(rate_key("chi3", 3, p, q))
        if base is not None and base >= rep3 and chi3 < rep3 - TOL:
            reasons.append("below_repetition")
        if abs(_repetition_route(p, q, 3) - rep3) > TOL:
            reasons.append("route_mismatch")
        return reasons
    raise CheckError(f"no checks for quantity {quantity!r}")


def _check_table(verdict, quantity, n, rows, rng):
    sampled = set(rng.sample(range(len(rows)), min(SAMPLE_ROWS, len(rows))))
    reasons = set()
    for i, row in enumerate(rows):
        bad = _row_reasons(quantity, n, row, i in sampled)
        reasons.update(bad)
        verdict.rows_ok += not bad
    verdict.rows = len(rows)
    return reasons


def _check_optimize(verdict, payload):
    from dephrasure import codes

    p, q, n = payload["p"], payload["q"], payload["n"]
    amps = np.array(payload["amplitudes_real"]) + 1j * np.array(payload["amplitudes_imag"])
    code = codes.normalized_code(n, 2**n, amps)
    verdict.rows = 1
    reasons = set(_rate_row(p, q, payload["rate_per_letter"], n, search=True))
    if abs(codes.brute_force_ci(code, p, q) - payload["value"]) > TOL:
        reasons.add("route_mismatch")
    if abs(payload["value"] / n - payload["rate_per_letter"]) > 1e-15:
        reasons.add("rate_inconsistent")
    verdict.rows_ok = int(not reasons)
    return reasons


def _check_verify(verdict, payload):
    verdict.rows = len(payload["checks"])
    bad = {c["name"] for c in payload["checks"] if not c["passed"]}
    verdict.rows_ok = verdict.rows - len(bad)
    return {"verify_failed"} if bad or not payload["passed"] else set()


def search_rates(quantity, n, data):
    """[(rate_key, per-letter rate)] of a search command's output."""
    if quantity == "optimize":
        payload = parse_json(data)
        return [(rate_key("optimize", n, payload["p"], payload["q"]), payload["rate_per_letter"])]
    _, rows = parse_csv(data)
    name, n = ("chi3", 3) if quantity == "diagonal" else (quantity, n)
    return [(rate_key(name, n, row[0], row[1]), row[-1]) for row in rows]


def _check_baseline(verdict, quantity, n, data):
    found = search_rates(quantity, n, data)
    verdict.rate = float(np.mean([r for _, r in found]))
    base = [BASELINE_RATES.get(key) for key, _ in found]
    if None in base:  # a point outside code_search's; run.py flags it there
        return set()
    verdict.baseline_rate = float(np.mean(base))
    return {"below_baseline"} if any(r < b - TOL for (_, r), b in zip(found, base)) else set()


def check_command(command, seed, rc, exc_name, data):
    """Verdict on one CLI run: its exit, its output bytes and their values."""
    verdict = Verdict(command.tag)
    if exc_name is not None:
        verdict.error = exc_name
        return verdict
    if rc != 0:
        verdict.error = f"exit_{rc}"
        return verdict
    if data is None:
        verdict.error = "no_output"
        return verdict
    quantity, n = command.meta["quantity"], command.meta.get("n")
    rng = random.Random(f"{seed}:{command.tag}")
    try:
        if command.ext == "json":
            payload = parse_json(data)
            if quantity == "optimize":
                reasons = _check_optimize(verdict, payload)
            elif quantity == "verify":
                reasons = _check_verify(verdict, payload)
            else:
                reasons = _check_table(verdict, quantity, n, payload["rows"], rng)
        else:
            _, rows = parse_csv(data)
            reasons = _check_table(verdict, quantity, n, rows, rng)
        if quantity in SEARCHES:
            reasons |= _check_baseline(verdict, quantity, n, data)
    except NonStrictJson as exc:
        verdict.error = "nonstrict_json"
        verdict.detail.append(str(exc))
        return verdict
    except (ValueError, KeyError, TypeError) as exc:
        verdict.error = "malformed"
        verdict.detail.append(f"{type(exc).__name__}: {exc}")
        return verdict
    if reasons:
        verdict.error = ",".join(sorted(reasons))
    return verdict
