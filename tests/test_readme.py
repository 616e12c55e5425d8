"""The README's library quick start runs, and prints what its comments say;
every command of its CLI block exits 0."""

import io
import json
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dlogcrt import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> list[str]:
    """The lines of the first python block under "## Library quick start"."""
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)].splitlines()


def expected_output(lines: list[str]) -> list[str]:
    """For each print, the comment on its line, or else the comment on the
    line after it."""
    expected = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        code, _, comment = line.partition("#")
        if not comment:
            code, _, comment = lines[i + 1].partition("#")
            assert not code.strip(), f"no comment after {line!r}"
        expected.append(comment.strip())
    return expected


def test_quick_start_prints_its_comments():
    lines = quick_start_block()
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile("\n".join(lines), str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed == expected_output(lines)
    assert len(printed) == 4


def cli_block() -> list[str]:
    """The commands of the first sh block under "## CLI", with each
    backslash continuation joined to its line."""
    text = README.read_text()
    section = text[text.index("## CLI") :]
    start = section.index("```sh\n") + len("```sh\n")
    block = section[start : section.index("```", start)]
    return block.replace("\\\n", " ").splitlines()


@pytest.mark.parametrize("line", cli_block(), ids=lambda line: line.split()[1])
def test_cli_block_runs(line, tmp_path, monkeypatch, capsys):
    # files named by --out and --csv land in tmp_path
    monkeypatch.chdir(tmp_path)
    program, *argv = shlex.split(line, comments=True)
    assert program == "dlogcrt"
    assert cli.main(argv) == 0, line
    out = capsys.readouterr().out
    if argv[0] == "solve":
        assert json.loads(out) == json.loads(line.partition("#")[2])


def test_cli_block_covers_every_subcommand():
    assert sorted(line.split()[1] for line in cli_block()) == sorted(
        ["gen", "quotient", "reduce", "solve", "verify", "recover-p2", "explain", "experiment"]
    )
