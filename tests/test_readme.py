"""The README's Library example runs, and each value it shows in a
comment is the repr of its line: the text before ": ", with "..."
standing for any text and double quotes for single ones."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_lines() -> list[tuple[str, str]]:
    """(code, comment) of each line of the Library example's code block."""
    block = README.read_text(encoding="utf-8").split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    return [(code.strip(), comment.strip()) for code, _, comment in (line.partition("#") for line in block.splitlines())]


def test_readme_library_example_shows_its_values():
    namespace, shown = {}, []
    for code, comment in library_lines():
        if not code:
            continue
        try:
            compiled = compile(code, "README.md", "eval")
        except SyntaxError:  # a statement
            exec(code, namespace)
            continue
        value = repr(eval(compiled, namespace)).replace("'", '"')
        want = comment.split(": ", 1)[0]
        assert re.fullmatch(re.escape(want).replace(re.escape("..."), ".*"), value), (code, value)
        shown.append(want)
    assert shown == [
        "(4, BookCertificate(base=(0, 1), pages=...))",
        "1",
        "Neither()",
        '"forced"',
        "ConstructionParams(n=300, epsilon=Fraction(1, 200), seed=7, delta=Fraction(33, 800))",
        "300",
    ]
