"""Every function, class and method defined in the package is referenced
somewhere in the package besides its own definition."""

import ast
import pathlib
import re

import crum

SRC = pathlib.Path(crum.__file__).parent

# names kept with no caller inside the package, one reason each
ALLOWED = {
    "pow": "part of the jet arithmetic that the benchmark tracer wraps by name",
    "BranchedSqrt": "the continuation route of the tests' level-on-level difference-chain "
                    "oracle, which the benchmark tracer wraps by name",
}


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name


def test_every_definition_has_a_caller():
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    text = "\n".join(sources.values())
    defined = {}
    for src in sources.values():
        for name in _definitions(ast.parse(src)):
            defined[name] = defined.get(name, 0) + 1
    unused = sorted(
        name for name, count in defined.items()
        if name not in crum.__all__ and name not in ALLOWED
        and len(re.findall(rf"\b{re.escape(name)}\b", text)) <= count)
    assert not unused, "defined but never referenced: " + ", ".join(unused)
