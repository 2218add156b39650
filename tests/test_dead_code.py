"""Every function, class, method and module-level name defined in the
package is referenced somewhere in the package besides its own definition."""

import ast
import collections
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
    names = [node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in tree.body:    # module-level assignments
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    for name in names:
        if not (name.startswith("__") and name.endswith("__")):
            yield name


def test_every_definition_has_a_caller():
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    words = collections.Counter(re.findall(r"\w+", "\n".join(sources.values())))
    defined = collections.Counter(
        name for src in sources.values() for name in _definitions(ast.parse(src)))
    unused = sorted(
        name for name, count in defined.items()
        if name not in crum.__all__ and name not in ALLOWED and words[name] <= count)
    assert not unused, "defined but never referenced: " + ", ".join(unused)
