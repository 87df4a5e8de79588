"""Command-line front end emitting sweep data as CSV or JSON.

Subcommands: sweep, diagonal, verify, optimize, regions.  All output is
deterministic given the flag set and seed; CSV rows are ordered p-major
and formatted with %.12g, and every file starts with a provenance
comment recording the version, the full flag set and the seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import __version__, antideg, channel, codes, compci, private_info, verify
from .pso import PsoConfig, optimize_code_ci

_FMT = "%.12g"


def _fmt(value):
    return _FMT % value


def _parse_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range {text!r} is not lo:hi:steps")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 2:
        raise argparse.ArgumentTypeError("range needs at least 2 steps")
    if not (0.0 <= lo <= hi <= 1.0):
        raise argparse.ArgumentTypeError(f"range {text!r} outside [0, 1]")
    return np.linspace(lo, hi, steps)

_QUANTITY_RE = re.compile(r"^([a-z_0-9]+?)(?:\((\d+)\))?$")

_QUANTITIES = {
    "single_ci",
    "repetition_gap",
    "repetition_rate",
    "zdiag_rate",
    "chi3_rate",
    "private_lb",
    "separation",
    "regions",
    "antideg",
    "comp_witness",
}


def _parse_quantity(text, default_n):
    match = _QUANTITY_RE.match(text)
    if not match or match.group(1) not in _QUANTITIES:
        raise argparse.ArgumentTypeError(f"unknown quantity {text!r}")
    name = match.group(1)
    n = int(match.group(2)) if match.group(2) else default_n
    return name, n


def _provenance(args, seed):
    flags = " ".join(sys.argv[1:]) if sys.argv[1:] else args.command
    return {"version": __version__, "flags": flags, "seed": seed}


def _emit(path, fmt, header, rows, provenance):
    if fmt == "json":
        payload = {
            "provenance": provenance,
            "columns": header,
            "rows": [[float(_fmt(v)) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            "# dephrasure %s | %s | seed=%s"
            % (provenance["version"], provenance["flags"], provenance["seed"]),
            ",".join(header),
        ]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _point_value(name, n, p, q, seed):
    if name == "single_ci":
        return [channel.single_letter_ci(p, q)[0]]
    if name == "repetition_rate":
        return [codes.repetition_ci_opt(p, q, n)[0] / n]
    if name == "repetition_gap":
        rate = codes.repetition_ci_opt(p, q, n)[0] / n
        return [rate - channel.single_letter_ci(p, q)[0]]
    if name == "zdiag_rate":
        return [codes.optimize_zdiag(p, q, n, seed=seed)[0] / n]
    if name == "chi3_rate":
        return [codes.optimize_chi3(p, q, seed=seed)[0] / 3]
    if name == "private_lb":
        return [private_info.private_lower_bound(p, q)[0]]
    if name == "separation":
        return [
            private_info.private_lower_bound(p, q)[0]
            - channel.single_letter_ci(p, q)[0]
        ]
    if name == "antideg":
        report = antideg.verify_antidegradable(p, q)
        return [
            1.0 if report.antidegradable else 0.0,
            report.composition_residual,
            report.cp_min_eigenvalue,
        ]
    if name == "comp_witness":
        witness = compci.positivity_witness(p, q)
        return [witness.ci_value, witness.epsilon]
    raise ValueError(name)


_EXTRA_COLUMNS = {
    "antideg": ["antidegradable", "residual", "cp_min_eig"],
    "comp_witness": ["ci_value", "epsilon"],
}


def cmd_sweep(args):
    name, n = _parse_quantity(args.quantity, args.n)
    p_grid = args.p_range
    q_grid = args.q_range
    rows = []
    if name == "regions":
        header = ["p", "g", "j", "k"]
        for p in p_grid:
            rows.append([p, *channel.region_curves(p)])
    else:
        header = ["p", "q"] + _EXTRA_COLUMNS.get(name, ["value"])
        for p in p_grid:
            for q in q_grid:
                rows.append([p, q, *_point_value(name, n, p, q, args.seed)])
    _emit(args.out, args.format, header, rows, _provenance(args, args.seed))
    return 0


def cmd_regions(args):
    header = ["p", "g", "j", "k"]
    rows = [[p, *channel.region_curves(p)] for p in args.p_range]
    _emit(args.out, args.format, header, rows, _provenance(args, args.seed))
    return 0


_CODE_RE = re.compile(r"^rep([1-9])$")


def _diagonal_columns(names, seed):
    """One per-letter rate function (p, q) -> value per ``--codes`` name.

    Raises ValueError on an unknown name, before any column is computed.
    """
    named = {
        "single_ci": lambda p, q: channel.single_letter_ci(p, q)[0],
        "private_lb": lambda p, q: private_info.private_lower_bound(p, q)[0],
        "theta4": lambda p, q: codes.optimize_zdiag(p, q, 4, seed=seed)[0] / 4,
        "chi3": lambda p, q: codes.optimize_chi3(p, q, seed=seed)[0] / 3,
    }
    columns = []
    for name in names:
        rep = _CODE_RE.match(name)
        if rep:
            n = int(rep.group(1))
            columns.append(lambda p, q, n=n: codes.repetition_ci_opt(p, q, n)[0] / n)
        elif name in named:
            columns.append(named[name])
        else:
            raise ValueError(
                f"unknown code {name!r} (expected rep1..rep9, "
                + ", ".join(named) + ")"
            )
    return columns


def cmd_diagonal(args):
    slope = args.diagonal_slope
    if not slope > 0:
        raise ValueError(f"--diagonal-slope must be positive, got {slope}")
    names = [c.strip() for c in args.codes.split(",") if c.strip()]
    columns = _diagonal_columns(names, args.seed)
    header = ["p", "q"] + names
    rows = []
    for p in args.p_range:
        q = slope * p
        if q > 0.5 + 1e-12:
            continue
        rows.append([p, q] + [column(p, q) for column in columns])
    _emit(args.out, args.format, header, rows, _provenance(args, args.seed))
    return 0


def cmd_verify(args):
    kwargs = {}
    if args.tol is not None and args.suite in ("antideg", "oracle", "compci"):
        kwargs["tol"] = args.tol
    report = verify.run_suite(args.suite, **kwargs)
    text = json.dumps(report, indent=2) + "\n"
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
    return 0 if report["passed"] else 1


def cmd_optimize(args):
    config = PsoConfig(
        n_particles=args.particles,
        max_iterations=args.iterations,
        bounds=((-1.0, 1.0),) * (8 if args.parametrization == "chi3" else
                                 2 * 4**args.n),
        seed=args.seed,
    )
    value, code = optimize_code_ci(
        args.p, args.q, args.n, parametrization=args.parametrization,
        config=config,
    )
    code = codes.schmidt_form(code)
    payload = {
        "provenance": _provenance(args, args.seed),
        "p": args.p,
        "q": args.q,
        "n": args.n,
        "parametrization": args.parametrization,
        "pso": {
            "n_particles": config.n_particles,
            "c_inertia": config.c_inertia,
            "c_self": config.c_self,
            "c_social": config.c_social,
            "max_iterations": config.max_iterations,
            "seed": config.seed,
        },
        "value": value,
        "rate_per_letter": value / args.n,
        "amplitudes_real": [float(x) for x in code.amplitudes.real],
        "amplitudes_imag": [float(x) for x in code.amplitudes.imag],
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dephrasure",
        description="Dephrasure-channel coherent/private information sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p-range", type=_parse_range, default=_parse_range("0:0.5:201"))
        sp.add_argument("--q-range", type=_parse_range, default=_parse_range("0:0.5:201"))
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sweep = sub.add_parser("sweep", help="grid sweep of one quantity")
    common(sweep)
    sweep.add_argument("--quantity", required=True)
    sweep.add_argument("--n", type=int, default=2)
    sweep.set_defaults(func=cmd_sweep)

    diag = sub.add_parser("diagonal", help="per-letter rates along q = slope*p")
    common(diag)
    diag.add_argument("--diagonal-slope", type=float, default=3.0)
    diag.add_argument("--codes", default="single_ci,rep1,rep2,rep3,rep4,rep5")
    diag.set_defaults(func=cmd_diagonal)

    regions = sub.add_parser("regions", help="the boundary curves g, j, k")
    common(regions)
    regions.set_defaults(func=cmd_regions)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=sorted(verify.SUITES))
    ver.add_argument("--tol", type=float, default=None)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    opt = sub.add_parser("optimize", help="particle-swarm code optimization")
    opt.add_argument("--p", type=float, required=True)
    opt.add_argument("--q", type=float, required=True)
    opt.add_argument("--n", type=int, default=2)
    opt.add_argument("--parametrization", choices=("full", "chi3"), default="full")
    opt.add_argument("--particles", type=int, default=64)
    opt.add_argument("--iterations", type=int, default=150)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--out", default=None)
    opt.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
