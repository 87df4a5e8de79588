"""Command-line front end emitting sweep data as CSV or JSON.

Subcommands: sweep, diagonal, verify, optimize, regions.  All output is
deterministic given the flag set and seed; CSV rows are ordered p-major
and formatted with %.12g, and every file starts with a provenance
comment recording the version, the full flag set and the seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

# the package imports a library module on the first use of one of its
# names, so building the parser, or a command, loads only what it uses
import dephrasure

_FMT = "%.12g"


def _parse_range(text):
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range {text!r} is not lo:hi:steps") from None
    if steps < 2:
        raise argparse.ArgumentTypeError("range needs at least 2 steps")
    if not (0.0 <= lo <= hi <= 1.0):
        raise argparse.ArgumentTypeError(f"range {text!r} outside [0, 1]")
    # read-only: the parser's default ranges are shared by every main call
    values = np.linspace(lo, hi, steps)
    values.flags.writeable = False
    return values


def _parse_seed(text):
    # numpy's generators take no negative seed
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed = {seed} must be >= 0")
    return seed


_QUANTITY_RE = re.compile(r"([a-z_0-9]+?)(?:\((0|[1-9][0-9]*)\))?")


class _Quantity(NamedTuple):
    columns: list  # the value columns
    takes_n: bool  # whether the quantity takes an (n) suffix
    values: Callable  # (P, Q, n, seed) -> the values at the points (P, Q)
    code: str | None = None  # a per-letter rate's diagonal --codes spelling


def _single_ci(P, Q, n, seed):
    return dephrasure.single_letter_ci(P, Q)[0]


def _repetition_gap(P, Q, n, seed):
    # single-letter first: its checks (p, then q <= 1/2, point by point)
    # raise the error that a loop over the points raised
    single = dephrasure.single_letter_ci(P, Q)[0]
    return dephrasure.repetition_ci_opt(P, Q, n)[0] / n - single


def _repetition_rate(P, Q, n, seed):
    return dephrasure.repetition_ci_opt(P, Q, n)[0] / n


def _zdiag_rate(P, Q, n, seed):
    return dephrasure.optimize_zdiag(P, Q, n, seed=seed)[0] / n


def _chi3_rate(P, Q, n, seed):
    return dephrasure.optimize_chi3(P, Q, seed=seed)[0] / 3


def _private_lb(P, Q, n, seed):
    return dephrasure.private_lower_bound(P, Q)[0]


def _separation(P, Q, n, seed):
    return dephrasure.private_lower_bound(P, Q)[0] - dephrasure.single_letter_ci(P, Q)[0]


def _regions(P, Q, n, seed):
    return np.column_stack(dephrasure.region_curves(P))


def _antideg(P, Q, n, seed):
    report = dephrasure.verify_antidegradable(P, Q)
    return np.column_stack([report.antidegradable, report.composition_residual,
                            report.cp_min_eigenvalue])


def _comp_witness(P, Q, n, seed):
    witness = dephrasure.positivity_witness(P, Q)
    return np.column_stack([witness.ci_value, witness.epsilon])


# Every sweep quantity.  The evaluators look library functions up through
# the package at call time, which reads each from its module, so patching
# a module attribute reaches them; each makes one library call over all
# its points (the code searches too: they stack every point's starts into
# lockstep L-BFGS runs).
_QUANTITIES = {
    "single_ci": _Quantity(["value"], False, _single_ci, "single_ci"),
    "repetition_gap": _Quantity(["value"], True, _repetition_gap),
    "repetition_rate": _Quantity(["value"], True, _repetition_rate, "rep"),
    "zdiag_rate": _Quantity(["value"], True, _zdiag_rate, "theta"),
    "chi3_rate": _Quantity(["value"], False, _chi3_rate, "chi3"),
    "private_lb": _Quantity(["value"], False, _private_lb, "private_lb"),
    "separation": _Quantity(["value"], False, _separation),
    # a function of p alone, swept with Q None and no q column
    "regions": _Quantity(["g", "j", "k"], False, _regions),
    "antideg": _Quantity(["antidegradable", "residual", "cp_min_eig"], False, _antideg),
    "comp_witness": _Quantity(["ci_value", "epsilon"], False, _comp_witness),
}


def _parse_quantity(text):
    """(name, n) of a quantity spelled ``name`` or ``name(n)``; a bare
    name that takes n means n = 2."""
    match = _QUANTITY_RE.fullmatch(text)
    if not match or match.group(1) not in _QUANTITIES:
        raise ValueError(f"unknown quantity {text!r}")
    name, n = match.groups()
    if not _QUANTITIES[name].takes_n:
        if n is not None:
            raise ValueError(f"quantity {name!r} takes no (n)")
        return name, None
    return name, 2 if n is None else int(n)


def _parse_code(text):
    """(name, n) of the --codes name ``text``: a quantity's code spelling,
    followed, for a quantity that takes n, by n >= 1 in decimal."""
    for name, quantity in _QUANTITIES.items():
        if quantity.code and text.startswith(quantity.code):
            n = text[len(quantity.code):]
            if not quantity.takes_n and not n:
                return name, None
            if quantity.takes_n and re.fullmatch("[1-9][0-9]*", n):
                return name, int(n)
    spellings = [q.code + "<n>" * q.takes_n for q in _QUANTITIES.values() if q.code]
    raise ValueError(f"unknown code {text!r} (expected {', '.join(spellings)})")


def _write(path, text):
    """Write ``text`` to ``path``, or to stdout for None or "-"."""
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _provenance(args):
    return {"version": dephrasure.__version__, "flags": args.flags, "seed": args.seed}


def _emit(args, header, rows):
    """Write the table ``rows`` under ``header`` in one pass over its rows:
    one %.12g template a row, and for JSON one C-encoder call over every
    row, laid out as json.dumps(payload, indent=2) lays it out."""
    provenance = _provenance(args)
    template = ",".join([_FMT] * rows.shape[1])
    lines = [template % tuple(row) for row in rows.tolist()]
    if args.format == "json":
        skeleton = json.dumps({"provenance": provenance, "columns": header, "rows": []},
                              indent=2)
        head, _, tail = skeleton.rpartition("[]")
        body = "[]"
        if lines:
            # indent=2 puts each row at 4 spaces and each cell on a line
            # at 6; the compact encoder gives [[a,<cell>b],<cell>[c,...]],
            # so only the row boundaries need re-indenting
            cell, row = ",\n      ", "\n    ],\n    [\n      "
            cells = json.dumps([list(map(float, line.split(","))) for line in lines],
                               separators=(cell, ":"))
            body = "[\n    [\n      " + cells[2:-2].replace("]" + cell + "[", row) + "\n    ]\n  ]"
        text = head + body + tail + "\n"
    else:
        comment = "# dephrasure %s | %s | seed=%s" % (
            provenance["version"], provenance["flags"], provenance["seed"])
        text = "\n".join([comment, ",".join(header), *lines]) + "\n"
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


def cmd_diagonal(args):
    slope = args.diagonal_slope
    if not 0 < slope < np.inf:
        raise ValueError(f"--diagonal-slope must be positive and finite, got {slope}")
    names = [c.strip() for c in args.codes.split(",") if c.strip()]
    if not names:
        raise ValueError(f"--codes {args.codes!r} names no code")
    columns = [_parse_code(name) for name in names]
    # the points whose q the library accepts
    P = args.p_range[dephrasure.channel._in_prob("q", slope * args.p_range, 0.5)[0]]
    return _emit(args, ["p", "q", *names], _table(columns, P, slope * P, args.seed))


def cmd_verify(args):
    if args.tol is not None and not np.isfinite(args.tol):
        raise ValueError(f"--tol must be finite, got {args.tol}")
    kwargs = {} if args.tol is None else {"tol": args.tol}
    report = dephrasure.verify.SUITES[args.suite](**kwargs)
    _write(args.out, json.dumps(report, indent=2) + "\n")
    return 0 if report["passed"] else 1


def cmd_optimize(args):
    value, code = dephrasure.optimize_code_ci(
        args.p, args.q, args.n, parametrization=args.parametrization,
        seed=args.seed, n_starts=args.n_starts, max_iterations=args.iterations,
    )
    code = dephrasure.schmidt_form(code)
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


@functools.cache
def build_parser():
    """The CLI's parser, built once per process: it holds only static
    configuration, and each command looks the library up when it runs."""
    parser = argparse.ArgumentParser(
        prog="dephrasure",
        description="Dephrasure-channel coherent/private information sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p-range", type=_parse_range, default=_parse_range("0:0.5:201"))
        sp.add_argument("--seed", type=_parse_seed, default=0)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sweep = sub.add_parser("sweep", help="grid sweep of one quantity")
    common(sweep)
    sweep.add_argument("--q-range", type=_parse_range, default=_parse_range("0:0.5:201"))
    names = ", ".join(name + "(n)" * quantity.takes_n for name, quantity in _QUANTITIES.items())
    sweep.add_argument("--quantity", required=True, help=(
        f"one of {names}; n defaults to 2.  comp_witness needs q > 0: a q-range "
        "holding q = 0, as the default one does, exits 2"
    ))
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
    ver.add_argument("suite", choices=sorted(dephrasure.verify.SUITES))
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
    opt.add_argument("--seed", type=_parse_seed, default=0)
    opt.add_argument("--out", default=None)
    opt.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # the CSV provenance writes every argument on its one comment line
    for arg in argv:
        if arg.splitlines() not in ([], [arg]):
            print(f"error: argument {arg!r} holds a line break", file=sys.stderr)
            return 2
    args = build_parser().parse_args(argv)
    # the provenance records the flags this call was given
    args.flags = " ".join(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
