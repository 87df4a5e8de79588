"""tools/compare_commands.txt stays well formed: tools/compare_outputs.py
runs every command of it, and CI every command after its CI-block marker,
so a malformed line fails here before either runs it."""

import pathlib
import shlex

COMMANDS = pathlib.Path(__file__).resolve().parent.parent / "tools" / "compare_commands.txt"
MARKER = "# CI block"  # the line CI's sed looks for: the whole line, as is


def _commands(lines):
    stripped = (line.strip() for line in lines)
    return [line for line in stripped if line and not line.startswith("#")]


def test_every_command_splits_and_starts_with_python():
    for command in _commands(COMMANDS.read_text().splitlines()):
        assert shlex.split(command)[0] == "python", command


def test_every_out_path_lies_under_compare_outputs_once():
    outs = []
    for command in _commands(COMMANDS.read_text().splitlines()):
        argv = shlex.split(command)
        # the tool reads a file only after a separate --out
        assert not any(arg.startswith("--out=") for arg in argv), command
        for i in (i for i, arg in enumerate(argv) if arg == "--out"):
            parts = pathlib.PurePosixPath(argv[i + 1]).parts
            assert parts[0] == ".compare_outputs" and len(parts) > 1 and ".." not in parts, command
            outs.append(argv[i + 1])
    assert len(outs) == len(set(outs)), sorted(o for o in outs if outs.count(o) > 1)


def test_the_ci_block_marker_appears_once_above_warnings_as_errors_commands():
    lines = COMMANDS.read_text().splitlines()
    assert lines.count(MARKER) == 1
    block = _commands(lines[lines.index(MARKER) + 1:])
    assert block
    for command in block:
        assert shlex.split(command)[:5] == ["python", "-X", "dev", "-W", "error"], command
