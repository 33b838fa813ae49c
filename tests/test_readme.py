"""The README's library example runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(title: str) -> str:
    """The first python code block under the README heading `## title`."""
    section = README.read_text().split(f"\n## {title}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_prints_its_comments(capsys):
    block = readme_block("Library example")
    expected = [line.split("  # ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    assert len(expected) == 3
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
