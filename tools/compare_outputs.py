"""Compare the outputs of a committed command list between a revision and
the working tree.

Usage: python3 tools/compare_outputs.py REV

REV is checked out with ``git worktree`` into a temporary directory,
which is removed afterwards.  Each command of tools/compare_commands.txt
runs from the root of both trees with PYTHONPATH=src and the same
relative --out path.  The provenance line of a CSV and the provenance
value of a JSON file are left out of the comparison.  For each command the
report reads one of:

- identical;
- a different exit code, or the first differing line of stderr (paths
  inside either tree read as ``<tree>``);
- for a table (CSV, or JSON with "columns" and "rows"): per changed
  column, the number of changed cells, the largest |delta| with the
  row's (p, q), and how many cells went down;
- for other JSON: each differing key with both values;
- for other text: each differing line, parent first;
- "bytes differ, values equal" when the text outside the provenance
  differs but none of the above does: a change of layout or of number
  spelling alone (``1`` for ``1.0``).

A command that fails alike in both trees reads identical, with its exit
code.  Exit code 0 when every command is identical, else 1.  This is a local
tool: outputs that a change moves on purpose would fail it as a gate.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = Path(__file__).resolve().parent / "compare_commands.txt"
OUT_DIR = ".compare_outputs"
MAX_LINES = 8  # differing lines or keys shown per command
PROVENANCE_KEY = re.compile(r'"provenance"\s*:\s*')


def read_commands():
    lines = (line.strip() for line in COMMANDS.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def run(tree, command):
    """(exit code, stdout, stderr, --out file text or None) of one command
    run from the root of ``tree``."""
    argv = shlex.split(command)
    if argv[0] == "python":
        argv[0] = sys.executable
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    path = Path(tree) / out if out else None
    text = path.read_text() if path and path.exists() else None
    stderr = proc.stderr.replace(str(Path(tree).resolve()), "<tree>").replace(str(tree), "<tree>")
    return proc.returncode, proc.stdout, stderr, text


def strip_provenance(text):
    """(data, text) of ``text`` without its provenance.  For a JSON object,
    data is the parsed object without the key and text is ``text`` with the
    key's value cut out (the first "provenance" key, which leads every CLI
    payload); otherwise data is the lines without the CSV comment line, and
    text is ``text`` without that line."""
    try:
        data = json.loads(text)
    except ValueError:
        def kept(lines):
            return [line for line in lines if not line.startswith("# dephrasure ")]
        return kept(text.splitlines()), "\n".join(kept(text.split("\n")))
    if isinstance(data, dict) and "provenance" in data:
        del data["provenance"]
        start = PROVENANCE_KEY.search(text).end()
        end = json.JSONDecoder().raw_decode(text, start)[1]
        text = text[:start] + text[end:]
    return data, text


def as_table(data):
    """(header, rows of floats) of a CSV line list or a JSON table, or None."""
    if isinstance(data, dict) and set(data) == {"columns", "rows"}:
        return data["columns"], data["rows"]
    if isinstance(data, list) and data and all(isinstance(line, str) for line in data):
        rows = list(csv.reader(io.StringIO("\n".join(data))))
        try:
            return rows[0], [[float(v) for v in row] for row in rows[1:]]
        except ValueError:
            return None
    return None


def flatten(data, key=""):
    """{key path: leaf value} of nested JSON data."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return {key: data}
    flat = {}
    for k, v in items:
        path = (f"{key}.{k}" if key else k) if isinstance(k, str) else f"{key}[{k}]"
        flat.update(flatten(v, path))
    return flat


def table_diff(old, new):
    """Report lines of two tables, one per changed column."""
    (head_a, rows_a), (head_b, rows_b) = old, new
    if head_a != head_b or len(rows_a) != len(rows_b):
        return [f"table shape: {head_a} x {len(rows_a)} rows -> {head_b} x {len(rows_b)} rows"]
    where = [c for c in ("p", "q") if c in head_a]
    lines = []
    for j, name in enumerate(head_a):
        # repr tells -0.0 from 0.0 and takes two NaN as equal
        changed = [(abs(y[j] - x[j]), x, y) for x, y in zip(rows_a, rows_b) if repr(x[j]) != repr(y[j])]
        if not changed:
            continue
        down = sum(y[j] < x[j] for _, x, y in changed)
        delta, a, b = max(changed, key=lambda item: item[0])
        at = ", ".join(f"{c} = {a[head_a.index(c)]:.12g}" for c in where)
        lines.append(f"{name}: {len(changed)} cells changed, max |delta| {delta:.3g} "
                     f"({a[j]!r} -> {b[j]!r}) at {at or 'row'}, {down} down")
    return lines


def value_diff(data_a, data_b):
    """Report lines for two outputs' data, as strip_provenance gives it."""
    if data_a == data_b:
        return []
    tables = as_table(data_a), as_table(data_b)
    if all(tables):
        return table_diff(*tables)
    if isinstance(data_a, list) and isinstance(data_b, list) and all(
        isinstance(x, str) for x in data_a + data_b
    ):
        flat_a, flat_b = dict(enumerate(data_a)), dict(enumerate(data_b))
        label = "line {}"
    else:
        flat_a, flat_b = flatten(data_a), flatten(data_b)
        label = "{}"
    keys = [k for k in {**flat_a, **flat_b} if flat_a.get(k, "<missing>") != flat_b.get(k, "<missing>")]
    lines = []
    for k in keys[:MAX_LINES]:
        name = label.format(k + 1 if isinstance(k, int) else k)
        lines.append(f"{name}: {flat_a.get(k, '<missing>')!r} -> {flat_b.get(k, '<missing>')!r}")
    if len(keys) > MAX_LINES:
        lines.append(f"... {len(keys) - MAX_LINES} more")
    return lines


def compare(old, new):
    """Report lines for two (exit code, stdout, stderr, file) results; none
    when they are identical."""
    code_a, stdout_a, err_a, file_a = old
    code_b, stdout_b, err_b, file_b = new
    lines = []
    if code_a != code_b:
        lines.append(f"exit code {code_a} -> {code_b}")
    if err_a != err_b:
        pairs = zip(err_a.splitlines() + [""], err_b.splitlines() + [""])
        a, b = next((a, b) for a, b in pairs if a != b)
        lines.append(f"stderr: {a!r} -> {b!r}")
    (data_a, text_a), (data_b, text_b) = (strip_provenance(t) for t in (stdout_a, stdout_b))
    if file_a is not None or file_b is not None:
        if data_a != data_b:
            lines.append("stdout differs")
        elif text_a != text_b:
            lines.append("stdout: bytes differ, values equal")
        (data_a, text_a), (data_b, text_b) = (strip_provenance(t or "") for t in (file_a, file_b))
    # a table whose cells parse to the same floats has no value diff
    diff = value_diff(data_a, data_b)
    if not diff and text_a != text_b:
        diff = ["bytes differ, values equal"]
    return lines + diff


def run_all(tree, commands):
    out = Path(tree) / OUT_DIR
    if out.exists():
        raise SystemExit(f"{out} exists; move it out of the way first")
    out.mkdir()
    try:
        return [run(tree, command) for command in commands]
    finally:
        shutil.rmtree(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the revision to compare the working tree against")
    args = parser.parse_args(argv)
    commands = read_commands()
    base = tempfile.mkdtemp(prefix="compare_outputs_")
    tree = os.path.join(base, "rev")
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach", tree, args.rev],
                   check=True)
    try:
        old = run_all(tree, commands)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", tree], check=True)
        shutil.rmtree(base, ignore_errors=True)
    new = run_all(ROOT, commands)
    differing = 0
    for command, a, b in zip(commands, old, new):
        lines = compare(a, b)
        differing += bool(lines)
        # an identical failure hides what the command would print
        failed = f" (exit {a[0]} on both)" if not lines and a[0] else ""
        print(f"{'DIFFERS' if lines else 'identical'}{failed}: {command}")
        for line in lines:
            print(f"    {line}")
    print(f"{len(commands) - differing} of {len(commands)} identical against {args.rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
