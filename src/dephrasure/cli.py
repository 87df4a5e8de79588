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
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, antideg, channel, codes, compci, private_info, verify
from .codes import optimize_code_ci

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


class _Quantity(NamedTuple):
    columns: list  # the value columns
    takes_n: bool  # whether the quantity takes an (n) suffix
    values: Callable  # (P, Q, n, seed) -> the values at the points (P, Q)


def _repetition_gap(P, Q, n, seed):
    # single-letter first: its checks (p, then q <= 1/2, point by point)
    # raise the error that a loop over the points raised
    single = channel.single_letter_ci(P, Q)[0]
    return codes.repetition_ci_opt(P, Q, n)[0] / n - single


def _antideg(P, Q, n, seed):
    report = antideg.verify_antidegradable(P, Q)
    return np.column_stack([report.antidegradable, report.composition_residual,
                            report.cp_min_eigenvalue])


def _comp_witness(P, Q, n, seed):
    witness = compci.positivity_witness(P, Q)
    return np.column_stack([witness.ci_value, witness.epsilon])


# Every sweep quantity.  The evaluators look library functions up through
# their modules at call time, so patching a module attribute reaches them;
# each makes one library call over all its points (the code searches too:
# they stack every point's starts into lockstep L-BFGS runs).
_QUANTITIES = {
    "single_ci": _Quantity(
        ["value"], False, lambda P, Q, *_: channel.single_letter_ci(P, Q)[0]
    ),
    "repetition_gap": _Quantity(["value"], True, _repetition_gap),
    "repetition_rate": _Quantity(
        ["value"], True, lambda P, Q, n, _: codes.repetition_ci_opt(P, Q, n)[0] / n
    ),
    "zdiag_rate": _Quantity(
        ["value"], True, lambda P, Q, n, seed: codes.optimize_zdiag(P, Q, n, seed=seed)[0] / n
    ),
    "chi3_rate": _Quantity(
        ["value"], False, lambda P, Q, n, seed: codes.optimize_chi3(P, Q, seed=seed)[0] / 3
    ),
    "private_lb": _Quantity(
        ["value"], False, lambda P, Q, *_: private_info.private_lower_bound(P, Q)[0]
    ),
    "separation": _Quantity(["value"], False, lambda P, Q, *_: (
        private_info.private_lower_bound(P, Q)[0] - channel.single_letter_ci(P, Q)[0]
    )),
    # a function of p alone, swept with Q None and no q column
    "regions": _Quantity(
        ["g", "j", "k"], False, lambda P, *_: np.column_stack(channel.region_curves(P))
    ),
    "antideg": _Quantity(["antidegradable", "residual", "cp_min_eig"], False, _antideg),
    "comp_witness": _Quantity(["ci_value", "epsilon"], False, _comp_witness),
}


def _parse_quantity(text):
    """(name, n) of a quantity spelled ``name`` or ``name(n)``; a bare
    name that takes n means n = 2."""
    match = _QUANTITY_RE.match(text)
    if not match or match.group(1) not in _QUANTITIES:
        raise argparse.ArgumentTypeError(f"unknown quantity {text!r}")
    name, n = match.groups()
    if not _QUANTITIES[name].takes_n:
        if n is not None:
            raise argparse.ArgumentTypeError(f"quantity {name!r} takes no (n)")
        return name, None
    return name, 2 if n is None else int(n)


def _write(path, text):
    """Write ``text`` to ``path``, or to stdout for None or "-"."""
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _provenance(args):
    return {"version": __version__, "flags": args.flags, "seed": args.seed}


def _emit(args, header, rows):
    provenance = _provenance(args)
    if args.format == "json":
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
    _write(args.out, text)
    return 0


def _table(columns, P, Q, seed):
    """p-major rows (p, q, values...) of the (quantity, n) ``columns``;
    rows (p, values...) if Q is None."""
    table = [P] if Q is None else [P, Q]
    for name, n in columns:
        quantity = _QUANTITIES[name]
        values = quantity.values(P, Q, n, seed)
        table.append(np.reshape(values, (len(P), len(quantity.columns))))
    return np.column_stack(table)


def cmd_sweep(args):
    name, n = _parse_quantity(args.quantity)
    columns = _QUANTITIES[name].columns
    if name == "regions":
        P, Q, header = args.p_range, None, ["p", *columns]
    else:
        P = np.repeat(args.p_range, len(args.q_range))
        Q = np.tile(args.q_range, len(args.p_range))
        header = ["p", "q", *columns]
    return _emit(args, header, _table([(name, n)], P, Q, args.seed))


# --codes name -> the sweep quantity, with its n, of the per-letter rate
_CODES = {
    "single_ci": ("single_ci", None),
    "private_lb": ("private_lb", None),
    **{f"rep{n}": ("repetition_rate", n) for n in range(1, 10)},
    "theta4": ("zdiag_rate", 4),
    "chi3": ("chi3_rate", 3),
}


def cmd_diagonal(args):
    slope = args.diagonal_slope
    if not slope > 0:
        raise ValueError(f"--diagonal-slope must be positive, got {slope}")
    names = [c.strip() for c in args.codes.split(",") if c.strip()]
    for name in names:
        if name not in _CODES:
            others = [code for code in _CODES if not code.startswith("rep")]
            raise ValueError(
                f"unknown code {name!r} (expected rep1..rep9, {', '.join(others)})"
            )
    P = args.p_range[slope * args.p_range <= 0.5 + 1e-12]
    columns = [_CODES[name] for name in names]
    return _emit(args, ["p", "q", *names], _table(columns, P, slope * P, args.seed))


def cmd_verify(args):
    kwargs = {} if args.tol is None else {"tol": args.tol}
    report = verify.run_suite(args.suite, **kwargs)
    _write(args.out, json.dumps(report, indent=2) + "\n")
    return 0 if report["passed"] else 1


def cmd_optimize(args):
    value, code = optimize_code_ci(
        args.p, args.q, args.n, parametrization=args.parametrization,
        seed=args.seed, n_starts=args.n_starts, max_iterations=args.iterations,
    )
    code = codes.schmidt_form(code)
    payload = {
        "provenance": _provenance(args),
        "p": args.p,
        "q": args.q,
        "n": args.n,
        "parametrization": args.parametrization,
        "search": {
            "n_starts": args.n_starts,
            "max_iterations": args.iterations,
            "seed": args.seed,
        },
        "value": value,
        "rate_per_letter": value / args.n,
        "amplitudes_real": [float(x) for x in code.amplitudes.real],
        "amplitudes_imag": [float(x) for x in code.amplitudes.imag],
    }
    _write(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dephrasure",
        description="Dephrasure-channel coherent/private information sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p-range", type=_parse_range, default=_parse_range("0:0.5:201"))
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sweep = sub.add_parser("sweep", help="grid sweep of one quantity")
    common(sweep)
    sweep.add_argument("--q-range", type=_parse_range, default=_parse_range("0:0.5:201"))
    sweep.add_argument("--quantity", required=True, help="name or name(n); n defaults to 2")
    sweep.set_defaults(func=cmd_sweep)

    diag = sub.add_parser("diagonal", help="per-letter rates along q = slope*p")
    common(diag)
    diag.add_argument("--diagonal-slope", type=float, default=3.0)
    diag.add_argument("--codes", default="single_ci,rep1,rep2,rep3,rep4,rep5")
    diag.set_defaults(func=cmd_diagonal)

    regions = sub.add_parser("regions", help="the boundary curves g, j, k")
    common(regions)
    regions.set_defaults(func=cmd_sweep, quantity="regions")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=sorted(verify.SUITES))
    ver.add_argument("--tol", type=float, default=None)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    opt = sub.add_parser("optimize", help="lockstep L-BFGS code search at a point")
    opt.add_argument("--p", type=float, required=True)
    opt.add_argument("--q", type=float, required=True)
    opt.add_argument("--n", type=int, default=2)
    opt.add_argument("--parametrization", choices=("full", "chi3"), default="full")
    opt.add_argument("--starts", "--particles", dest="n_starts", type=int, default=2,
                     help="seeded random starts after the warm starts")
    opt.add_argument("--iterations", type=int, default=200,
                     help="L-BFGS iterations per start")
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--out", default=None)
    opt.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # the provenance records the flags this call was given
    args.flags = " ".join(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
