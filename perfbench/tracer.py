"""Layer tracing from outside the program.

``Tracer.install()`` replaces every module binding of each wrapped
function in the ``dephrasure`` package (and the registry dicts that hold
them, such as ``verify.SUITES``) with a wrapper that records a span:
name, start, end, parent span and operation id.  Spans stay in memory
until ``save``; per-layer numbers, self time included, are derived from
them in ``layer_metrics``.  ``uninstall()`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter

import numpy as np

# (module, attribute, span name).  ``install`` wraps the attribute's
# object wherever the package binds it: found by identity in every
# module's namespace and in the dicts those namespaces hold
TARGETS = [
    ("dephrasure.cli", "main", "cli.main"),
    ("dephrasure.channel", "maximize_over_weights", "channel.maximize_over_weights"),
    ("dephrasure.channel", "single_letter_ci", "channel.single_letter_ci"),
    ("dephrasure.qinfo", "binary_entropy", "qinfo.binary_entropy"),
    ("dephrasure.qinfo", "von_neumann_entropy", "qinfo.von_neumann_entropy"),
    ("dephrasure.codes", "multiletter_ci", "codes.multiletter_ci"),
    ("dephrasure.codes", "pattern_decompose", "codes.pattern_decompose"),
    ("dephrasure.codes", "_zdiag_ci_fast", "codes._zdiag_ci_fast"),
    ("dephrasure.codes", "brute_force_ci", "codes.brute_force_ci"),
    ("dephrasure.codes", "repetition_ci_opt", "codes.repetition_ci_opt"),
    ("dephrasure.codes", "optimize_zdiag", "codes.optimize_zdiag"),
    ("dephrasure.codes", "optimize_chi3", "codes.optimize_chi3"),
    ("dephrasure.codes", "minimize", "codes.powell"),
    ("dephrasure.pso", "pso_minimize", "pso.pso_minimize"),
    ("dephrasure.antideg", "verify_antidegradable", "antideg.verify_antidegradable"),
    ("dephrasure.private_info", "private_lower_bound", "private_info.private_lower_bound"),
    ("dephrasure.compci", "positivity_witness", "compci.positivity_witness"),
    ("dephrasure.verify", "oracle_suite", "verify.oracle"),
    ("dephrasure.verify", "antideg_suite", "verify.antideg"),
    ("dephrasure.verify", "thresholds_suite", "verify.thresholds"),
    ("dephrasure.verify", "compci_suite", "verify.compci"),
]

# scipy's minimize is shared with scipy itself: only the codes binding
# is ours to wrap
_SINGLE_BINDING = {"codes.powell"}

PACKAGE_MODULES = [
    "dephrasure",
    "dephrasure.antideg",
    "dephrasure.channel",
    "dephrasure.cli",
    "dephrasure.codes",
    "dephrasure.compci",
    "dephrasure.private_info",
    "dephrasure.pso",
    "dephrasure.qinfo",
    "dephrasure.verify",
]

# per-layer metrics reported by a traced run: name -> (unit, better)
LAYER_METRICS = {
    "cli.main.self_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "channel.maximize_over_weights.calls": ("count", "lower"),
    "channel.maximize_over_weights.s": ("s", "lower"),
    "channel.weight_evals": ("count", "lower"),
    "channel.single_letter_ci.calls": ("count", "lower"),
    "channel.single_letter_ci.s": ("s", "lower"),
    "qinfo.binary_entropy.calls": ("count", "lower"),
    "qinfo.binary_entropy.elements": ("count", "lower"),
    "qinfo.binary_entropy.s": ("s", "lower"),
    "qinfo.von_neumann_entropy.calls": ("count", "lower"),
    "qinfo.von_neumann_entropy.s": ("s", "lower"),
    "codes.multiletter_ci.calls": ("count", "lower"),
    "codes.multiletter_ci.s": ("s", "lower"),
    "codes.pattern_decompose.calls": ("count", "lower"),
    "codes.pattern_decompose.s": ("s", "lower"),
    "codes.blocks": ("count", "lower"),
    "codes._zdiag_ci_fast.calls": ("count", "lower"),
    "codes._zdiag_ci_fast.s": ("s", "lower"),
    "codes.brute_force_ci.calls": ("count", "lower"),
    "codes.brute_force_ci.s": ("s", "lower"),
    "codes.repetition_ci_opt.calls": ("count", "lower"),
    "codes.repetition_ci_opt.s": ("s", "lower"),
    "codes.powell.calls": ("count", "lower"),
    "codes.powell.nfev": ("count", "lower"),
    "codes.powell.s": ("s", "lower"),
    "codes.powell.win_frac": ("ratio", "higher"),
    "pso.pso_minimize.calls": ("count", "lower"),
    "pso.pso_minimize.s": ("s", "lower"),
    "pso.pso_minimize.evaluations": ("count", "lower"),
    "pso.pso_minimize.iterations": ("count", "lower"),
    "pso.stalled_frac": ("ratio", "higher"),
    "pso.evals_per_s": ("1/s", "higher"),
    "antideg.verify_antidegradable.calls": ("count", "lower"),
    "antideg.verify_antidegradable.s": ("s", "lower"),
    "private_info.private_lower_bound.calls": ("count", "lower"),
    "private_info.private_lower_bound.s": ("s", "lower"),
    "compci.positivity_witness.calls": ("count", "lower"),
    "compci.positivity_witness.s": ("s", "lower"),
    "compci.positivity_witness.failed": ("count", "lower"),
    "verify.oracle.s": ("s", "lower"),
    "verify.antideg.s": ("s", "lower"),
    "verify.thresholds.s": ("s", "lower"),
    "verify.compci.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def span_totals(names, starts, ends, parents):
    """Per-name call count, inclusive time and self time from spans.

    A span's self time is its duration minus the durations of its direct
    children; children never outlive their parent, so this is the part
    of the interval no child covers.
    """
    starts = np.asarray(starts, dtype=float)
    dur = np.asarray(ends, dtype=float) - starts
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    child = np.bincount(
        parents[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    self_time = dur - child
    totals = {}
    for name, d, s in zip(names, dur, self_time):
        calls, inc, own = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, inc + float(d), own + float(s))
    return totals


class _Frame:
    """Powell starts made inside one optimize_zdiag/optimize_chi3 call."""

    def __init__(self):
        self.incumbent = math.inf  # best objective before any Powell start
        self.funs = []


class Tracer:
    def __init__(self):
        self.op_id = -1
        self.counters = Counter()
        self._names = []
        self._name_ids = {}
        self._span_name = []
        self._starts = []
        self._ends = []
        self._parents = []
        self._ops = []
        self._stack = []
        self._frames = []
        self._patched = []  # (namespace, key, original)

    # -- spans ---------------------------------------------------------
    def _enter(self, nid):
        idx = len(self._starts)
        self._span_name.append(nid)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ops.append(self.op_id)
        self._ends.append(math.nan)
        self._stack.append(idx)
        self._starts.append(time.perf_counter())
        return idx

    def _exit(self, idx):
        self._ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        nid = self._name_ids.setdefault(name, len(self._names))
        if nid == len(self._names):
            self._names.append(name)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if after is not None:
                    after(args, kwargs, None)
                raise
            finally:
                self._exit(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- counters hooked onto single layers ------------------------------
    def _before_qinfo_binary_entropy(self, args):
        self.counters["qinfo.binary_entropy.elements"] += int(np.size(args[0]))
        return args

    def _before_channel_maximize_over_weights(self, args):
        value_fn = args[0]

        def counted(lam):
            self.counters["channel.weight_evals"] += int(np.size(lam))
            return value_fn(lam)

        return (counted,) + tuple(args[1:])

    def _after_codes_pattern_decompose(self, args, kwargs, result):
        if result is not None:
            self.counters["codes.blocks"] += len(result)

    def _after_codes_powell(self, args, kwargs, result):
        if result is not None:
            self.counters["codes.powell.nfev"] += int(result.nfev)
            if self._frames:
                self._frames[-1].funs.append(float(result.fun))

    def _after_pso_pso_minimize(self, args, kwargs, result):
        if result is None:
            return
        config = args[2] if len(args) > 2 else kwargs["config"]
        self.counters["pso.pso_minimize.evaluations"] += result.evaluations
        self.counters["pso.pso_minimize.iterations"] += result.iterations_run
        if result.iterations_run < config.max_iterations:
            self.counters["pso.stalled"] += 1
        if self._frames:
            self._frames[-1].incumbent = float(result.best_value)

    def _after_compci_positivity_witness(self, args, kwargs, result):
        if result is None:
            self.counters["compci.positivity_witness.failed"] += 1

    def _before_codes_optimize_zdiag(self, args):
        self._frames.append(_Frame())
        return args

    _before_codes_optimize_chi3 = _before_codes_optimize_zdiag

    def _after_codes_optimize_zdiag(self, args, kwargs, result):
        """Replay the optimizer's strict-improvement rule on its starts.

        A start wins if its objective beat the incumbent when it ran and
        the returned value is still that objective (optimize_zdiag falls
        back to the repetition warm start otherwise).
        """
        frame = self._frames.pop()
        best, winner = frame.incumbent, None
        for i, fun in enumerate(frame.funs):
            if fun < best:
                best, winner = fun, i
        if result is not None and winner is not None and -result[0] == best:
            self.counters["codes.powell.wins"] += 1

    _after_codes_optimize_chi3 = _after_codes_optimize_zdiag

    # -- install / uninstall ---------------------------------------------
    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for mod_name, attr, name in TARGETS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(name, original)
            if name in _SINGLE_BINDING:
                spaces = [vars(importlib.import_module(mod_name))]
            else:
                spaces = [vars(m) for m in modules] + [
                    v for m in modules for k, v in vars(m).items()
                    if isinstance(v, dict) and k != "__builtins__"
                ]
            for space in spaces:
                for key, value in list(space.items()):
                    if value is original:
                        space[key] = wrapper
                        self._patched.append((space, key, original))

    def uninstall(self):
        for space, key, original in reversed(self._patched):
            space[key] = original
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------
    def totals(self):
        ended = [i for i, e in enumerate(self._ends) if not math.isnan(e)]
        return span_totals(
            [self._names[self._span_name[i]] for i in ended],
            [self._starts[i] for i in ended],
            [self._ends[i] for i in ended],
            [self._parents[i] for i in ended],
        )

    def layer_metrics(self, passes, overhead_s):
        """Per-pass values of every entry in LAYER_METRICS."""
        totals = self.totals()
        out = {}
        for metric in LAYER_METRICS:
            layer, _, field = metric.rpartition(".")
            if field in ("calls", "s", "self_s") and layer in totals:
                calls, inc, own = totals[layer]
                out[metric] = {"calls": calls, "s": inc, "self_s": own}[field]
            else:
                out[metric] = self.counters.get(metric, 0)
        c = self.counters
        powell_calls = totals.get("codes.powell", (0, 0.0, 0.0))[0]
        pso_calls, pso_s, _ = totals.get("pso.pso_minimize", (0, 0.0, 0.0))
        ratios = {
            "codes.powell.win_frac": c["codes.powell.wins"] / powell_calls
            if powell_calls else 0.0,
            "pso.stalled_frac": c["pso.stalled"] / pso_calls if pso_calls else 0.0,
            "pso.evals_per_s": c["pso.pso_minimize.evaluations"] / pso_s
            if pso_s else 0.0,
        }
        for metric in out:
            if metric not in ratios:
                out[metric] /= passes
        out.update(ratios)
        out["trace.overhead_s"] = overhead_s
        return out

    def save(self, path):
        """Write every span as parallel arrays (names are indices into
        ``names``; ``parent`` is -1 for a root span)."""
        np.savez_compressed(
            path,
            names=np.array(self._names),
            name=np.array(self._span_name, dtype=np.int32),
            start=np.array(self._starts),
            end=np.array(self._ends),
            parent=np.array(self._parents, dtype=np.int64),
            op=np.array(self._ops, dtype=np.int64),
        )
