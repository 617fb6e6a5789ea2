"""The README's Python blocks run as written and state what they return.

The blocks run in order in one namespace. An expression statement with a
trailing comment is evaluated and its value checked against the comment, so
the tour cannot drift from the code.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _states(comment: str, value) -> bool:
    """Whether value is what a tour comment says: a repr, a repr cut short
    with '...', or alternative enum member names joined by ' or '."""
    if comment.endswith("..."):
        return repr(value).startswith(comment[:-3])
    if " or " in comment:
        return value.name in comment.split(" or ")
    return repr(value) == comment


def test_readme_tour_runs_and_states_its_values():
    namespace: dict = {}
    checked = []
    for source in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        lines = source.splitlines()
        for node in ast.parse(source).body:
            _, hash_, comment = lines[node.end_lineno - 1].partition("#")
            if isinstance(node, ast.Expr) and hash_:
                value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
                checked.append((comment.strip(), value))
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    comments = [c for c, _ in checked]
    assert comments == [
        "True", "False", "0.0333...", "False", "True", "CERTIFIED_INDEPENDENT or NOT_CERTIFIED"
    ]
    for comment, value in checked:
        assert _states(comment, value), f"README states {comment!r}, the code gives {value!r}"
