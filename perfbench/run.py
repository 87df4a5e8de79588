"""Benchmark of the dephrasure CLI: sweeps, code searches, oracle checks.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from a checkout of the repository: the program is imported from
``src/`` next to this directory.  Each workload is a closed loop with one
caller: its block of operations (see ``workloads.py``) runs back to back
in one process, BLAS pinned to one thread, until ``--seconds`` have
passed at the end of a block (at least one block).  Times are
drift-corrected to a nominal host speed (``hostinfo.SpeedSampler``).
Every output is checked (``checker.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics
(``tracer.py``) with ``--trace 1``.  ``--workload all`` runs every
workload, each in a fresh process, and prints every metric by name.
Outputs, spans and a record of each run go to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostinfo

hostinfo.pin_blas_threads()  # before anything imports numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = Path(".perfbench_runs")  # relative to ROOT: paths enter CLI provenance
SETUP_REPS = 5
SETUP_CODE = "import dephrasure.cli as cli; cli.build_parser()"
# a frozen stand-in for the program's heavy imports; its start-up time
# measures the host's current speed at starting an interpreter
SETUP_REF_CODE = "import numpy, scipy.optimize"
# SETUP_REF_CODE's start-up time on the unloaded host of NOMINAL_KERNEL_S
NOMINAL_SETUP_REF_S = 0.5

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def _start_s(code, env):
    """Wall time of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms
    if proc.wait() != 0:
        raise RuntimeError(f"{code!r} exited with code {proc.returncode}")
    return time.perf_counter() - t0


def measure_setup():
    """Set-up time at nominal host speed, and the raw wall times.

    Each start of the CLI is timed between two starts of SETUP_REF_CODE,
    and scaled by NOMINAL_SETUP_REF_S over their mean; the median over
    SETUP_REPS starts is reported.  The reference does the same kind of
    work (exec, file reads, imports), so it tracks the host's drift more
    closely than the speed kernel does.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    refs = [_start_s(SETUP_REF_CODE, env)]
    walls = []
    for _ in range(SETUP_REPS):
        walls.append(_start_s(SETUP_CODE, env))
        refs.append(_start_s(SETUP_REF_CODE, env))
    scaled = [NOMINAL_SETUP_REF_S * w * 2 / (a + b) for w, a, b in zip(walls, refs, refs[1:])]
    return statistics.median(scaled), {"walls": walls, "refs": refs}


class Runner:
    """Runs one workload's block of operations and keeps what they did."""

    def __init__(self, workload, sampler):
        self.workload = workload
        self.sampler = sampler
        self.out_dir = RUNS / workload.name
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def run_command(self, command, tracer):
        from dephrasure import cli

        out = self.out_dir / f"{command.tag}.{command.ext}"
        out.unlink(missing_ok=True)
        argv = [*command.argv, "--out", str(out)]
        saved, sys.argv = sys.argv, ["dephrasure", *argv]  # the CLI records its flags
        rc, exc_name = None, None
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught error is a counted failure
            exc_name = type(exc).__name__
        end = time.perf_counter()
        sys.argv = saved
        data = out.read_bytes() if out.exists() else None
        if tracer is not None and data is not None:
            tracer.counters["cli.bytes_out"] += len(data)
        sha = hashlib.sha256(data).hexdigest() if data is not None else None
        return {"tag": command.tag, "start": t0, "end": end, "wall": end - t0,
                "key": (rc, exc_name, sha), "data": data}

    def run_check(self, check):
        from workloads import ORACLE_TOL, run_oracle_check

        t0 = time.perf_counter()
        try:
            diff = run_oracle_check(check)
            error = None if diff <= ORACLE_TOL else "oracle_mismatch"
        except Exception as exc:  # an uncaught error is a counted failure
            error = type(exc).__name__
        end = time.perf_counter()
        return {"start": t0, "end": end, "wall": end - t0, "error": error}

    def run_pass(self, tracer=None):
        """One block; the host's speed is sampled between operations, and
        the sampling time is left out of every timing."""
        self.sampler.sample()
        commands, checks = [], []
        for i, command in enumerate(self.workload.commands):
            self._next_op(tracer, i)
            commands.append(self.run_command(command, tracer))
        for i, check in enumerate(self.workload.checks, len(commands)):
            self._next_op(tracer, i)
            checks.append(self.run_check(check))
        self.sampler.sample()
        ops = commands + checks
        return {"start": ops[0]["start"], "end": ops[-1]["end"],
                "wall": sum(op["wall"] for op in ops), "commands": commands, "checks": checks}

    def _next_op(self, tracer, op_id):
        if tracer is not None:
            tracer.op_id = op_id
        self.sampler.sample(force=False)


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def evaluate(workload, seed, passes, traced=()):
    """Check every output; count operations and failures by class.

    The first pass's outputs are checked in full; every later pass, and
    every traced pass, must reproduce them byte for byte.
    """
    from checker import check_command

    first = passes[0]
    verdicts = {}
    for command, res in zip(workload.commands, first["commands"]):
        rc, exc_name, _ = res["key"]
        verdicts[command.tag] = check_command(command, seed, rc, exc_name, res["data"])
    failures, unexpected = {}, []
    attempted = 0
    for label, group in (("untraced", passes), ("traced", traced)):
        for pas in group:
            for res, first_res in zip(pas["commands"], first["commands"]):
                attempted += 1
                verdict = verdicts[res["tag"]]
                error, known = verdict.error, verdict.known_defect
                if res["key"] != first_res["key"]:
                    error = "trace_changed_output" if label == "traced" else "nondeterministic"
                    known = False
                if error is not None:
                    failures[error] = failures.get(error, 0) + 1
                    if not known:
                        unexpected.append(f"{res['tag']}: {error}")
            for chk in pas["checks"]:
                attempted += 1
                if chk["error"] is not None:
                    failures[chk["error"]] = failures.get(chk["error"], 0) + 1
                    unexpected.append(f"oracle check: {chk['error']}")
    return verdicts, failures, attempted, unexpected


def named_metrics(workload, verdicts, passes, attempted, failures, setup_s, peak_mb):
    """The named end-to-end metrics: (value, unit, samples).

    Block times are drift-corrected: each operation's wall time is
    integrated against the host's speed relative to nominal while it ran
    (``SpeedSampler.nominal_s``).
    """
    corrected = [p["nominal"] for p in passes]
    out = {
        "setup_s": (setup_s, "s", SETUP_REPS),
        "pass_s": (_median(corrected), "s", len(passes)),
        "pass_wall_s": (_median([p["wall"] for p in passes]), "s", len(passes)),
        "ops_failed_frac": (sum(failures.values()) / attempted, "ratio", attempted),
        "peak_rss_mb": (peak_mb, "MB", 1),
    }
    if workload.name == "sweep_grid":
        points = sum(v.rows_ok for v in verdicts.values())
        out["sweep_points_per_s"] = (_median([points / c for c in corrected]),
                                     "points/s", len(passes))
    elif workload.name == "code_search":
        out["search_s"] = out["pass_s"]
        searches = [v for v in verdicts.values() if v.rate is not None]
        out["search_rate_bits"] = (_mean([v.rate for v in searches]), "bits/use", len(searches))
        bases = [v.baseline_rate for v in searches]
        if searches and None not in bases:
            out["search_rate_baseline_bits"] = (_mean(bases), "bits/use", len(bases))
    elif workload.name == "verify_oracle":
        verify = [sum(c["nominal"] for c in p["commands"]) for p in passes]
        rates = [sum(c["error"] is None for c in p["checks"])
                 / sum(c["nominal"] for c in p["checks"]) for p in passes]
        out["verify_s"] = (_median(verify), "s", len(passes))
        out["oracle_checks_per_s"] = (_median(rates), "checks/s", len(passes))
    return out


def run_workload(name, seed, seconds, trace):
    from checker import TOL
    from hostinfo import SpeedSampler, environment
    from tracer import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    setup_s, setup_raw = measure_setup()
    sampler = SpeedSampler()
    import dephrasure.cli  # noqa: F401  (import cost stays out of the loop)

    env = environment()
    host_ref = sampler.reference_s()
    workload = WORKLOADS[name](seed)
    runner = Runner(workload, sampler)
    passes, traced = [], []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    with sampler:
        while not passes or time.perf_counter() - start < seconds:
            passes.append(runner.run_pass())
            if tracer is not None:
                with tracer:
                    traced.append(runner.run_pass(tracer))
    for pas in passes + traced:
        for op in pas["commands"] + pas["checks"]:
            op["nominal"] = sampler.nominal_s(op["start"], op["end"])
        pas["nominal"] = sum(op["nominal"] for op in pas["commands"] + pas["checks"])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts, failures, attempted, unexpected = evaluate(workload, seed, passes, traced)
    named = named_metrics(workload, verdicts, passes, attempted, failures, setup_s, peak_mb)
    if name == "code_search":
        # each search is held to its baseline by the checker; so is the mean
        base = named.get("search_rate_baseline_bits")
        if base is None or named["search_rate_bits"][0] < base[0] - TOL:
            unexpected.append("search_rate_bits: below its recorded baseline, or none recorded")
    if tracer is not None:
        overhead = _median([p["nominal"] for p in traced]) - named["pass_s"][0]
        layers = tracer.layer_metrics(len(traced), overhead)
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in layers.items()}
        tracer.save(runner.out_dir / f"spans-seed{seed}.npz")
    else:
        metrics = {k: {"value": named[k][0], "unit": unit} for k, unit in END_TO_END.items()}

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": workload.why,
        "environment": env, "host_ref_s": host_ref, "setup_starts": setup_raw,
        "pass_walls": [p["wall"] for p in passes],
        "traced_pass_walls": [p["wall"] for p in traced],
        "pass_nominal": [p["nominal"] for p in passes],
        "traced_pass_nominal": [p["nominal"] for p in traced],
        "command_walls": {c.tag: [p["commands"][i]["wall"] for p in passes]
                          for i, c in enumerate(workload.commands)},
        "command_nominal": {c.tag: [p["commands"][i]["nominal"] for p in passes]
                            for i, c in enumerate(workload.commands)},
        "pass_spans": [(p["start"] - start, p["end"] - start) for p in passes],
        "speed_samples": [(t - start, k) for t, k in sampler.samples],
        "outputs_sha256": {c["tag"]: c["key"][2] for c in passes[0]["commands"]},
        "verdicts": {t: {"error": v.error, "rows": v.rows, "rows_ok": v.rows_ok,
                         "rate": v.rate, "detail": v.detail} for t, v in verdicts.items()},
        "failures_by_class": failures,
        "unexpected_failures": unexpected,
        "named_metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in named.items()},
        "metrics": metrics,
    }
    (runner.out_dir / f"record-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    print(f"{name}: seed={seed} passes={len(passes)} traced_passes={len(traced)} "
          f"host_ref_s={host_ref:.6f} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} nproc={env['nproc']}")
    for key, (value, unit, samples) in named.items():
        print(f"  {key} = {value:.6g} {unit} (n={samples})")
    failed = sum(failures.values())
    print(f"  failures by class (of {attempted} operations): {failures or 'none'}")
    for line in unexpected[:20]:
        print(f"  UNEXPECTED {line}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own fresh process, then one summary."""
    from workloads import WORKLOADS

    results, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        ok = ok and results[name]["correct"]
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv=None):
    from_checkout = (SRC / "dephrasure" / "__init__.py").is_file()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "sweep_grid", "code_search", "verify_oracle"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)  # BENCHMARK.json's run_seconds
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not from_checkout:
        print(f"error: no program source at {SRC / 'dephrasure'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
