"""The README's library quick start runs, and prints what its comments say."""

import io
from contextlib import redirect_stdout
from pathlib import Path

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
