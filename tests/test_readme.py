"""The README's library quick start runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start(capsys):
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # Each print line's comment starts with the exact output, then an
    # optional parenthesized note.
    expected = [line.split("#", 1)[1].strip().split(" (", 1)[0]
                for line in block.splitlines() if line.startswith("print(")]
    assert expected and printed == expected
