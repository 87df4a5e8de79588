"""Record the baseline rate of every search that code_search can run.

    python3 perfbench/record_search_rates.py

Run from a checkout, at the commit whose search results are the
baseline.  Each search command of ``code_search``, for every point in
``PB_POINTS``, runs through the CLI under each seed in SEEDS; the lowest
per-letter rate of each (search, n, p, q) is written to
``search_rates.json``, and the checker holds every later run to it.  The
largest difference between seeds is printed: the rates are meant to be a
function of the point.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import hostinfo

hostinfo.pin_blas_threads()  # before anything imports numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (0, 1)


def main():
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from checker import RATES_FILE, search_rates
    from dephrasure import cli
    from workloads import PB_POINTS, code_search

    out_dir = Path(".perfbench_runs/search_rates")
    out_dir.mkdir(parents=True, exist_ok=True)
    found = {}  # rate_key -> rates over seeds
    for seed in SEEDS:
        seen = set()
        for pb in PB_POINTS:
            for command in code_search(seed, pb).commands:
                if command.argv in seen:  # the chi3 point is the same for every pb
                    continue
                seen.add(command.argv)
                out = out_dir / f"{command.tag}.{command.ext}"
                argv = [*command.argv, "--out", str(out)]
                sys.argv = ["dephrasure", *argv]  # the CLI records its flags
                if cli.main(argv) != 0:
                    raise RuntimeError(f"{command.argv} failed")
                meta = command.meta
                for key, rate in search_rates(meta["quantity"], meta.get("n"), out.read_bytes()):
                    found.setdefault(key, []).append(rate)
                    print(f"seed {seed} {key} {rate!r}", flush=True)
    spread = max(max(r) - min(r) for r in found.values())
    print(f"{len(found)} searches; largest difference between seeds {spread:.3g}")
    RATES_FILE.write_text(json.dumps({k: min(r) for k, r in sorted(found.items())}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
