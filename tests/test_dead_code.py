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


def _private_defaulted(tree):
    """(name, defaulted parameters, positional parameters in the order a call
    fills them) of each private function of a module that has defaults; a
    method's call fills them from the parameter after self."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or not node.name.startswith("_") \
                or node.name.endswith("__"):
            continue
        a = node.args
        positional = [p.arg for p in a.posonlyargs + a.args]
        defaulted = positional[len(positional) - len(a.defaults):] + [
            p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        if defaulted:
            yield node.name, defaulted, positional[1:] if id(node) in methods else positional


def _trees_and_calls():
    """The parsed modules of the package and {callee name: its calls}."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    calls = collections.defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls[getattr(node.func, "attr", getattr(node.func, "id", None))].append(node)
    return trees, calls


def _passed(calls, defaulted, positional):
    """The defaulted names of `defaulted` that some call sets, by position
    (`positional` in the order a call fills them) or by keyword."""
    passed = set()
    for call in calls:
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
                kw.arg is None for kw in call.keywords):
            passed.update(defaulted)    # *args or **kwargs may set any of them
            continue
        passed.update(positional[:len(call.args)])
        passed.update(kw.arg for kw in call.keywords)
    return passed


def test_every_defaulted_parameter_of_a_private_function_is_set_by_a_caller():
    trees, calls = _trees_and_calls()
    unset = []
    for tree in trees:
        for name, defaulted, positional in _private_defaulted(tree):
            passed = _passed(calls[name], defaulted, positional)
            unset += [f"{name}({p})" for p in defaulted if p not in passed]
    assert not unset, "defaulted parameters that no call in the package sets: " + ", ".join(unset)


# dataclass fields with a plain default that no call in the package sets, one reason each
UNSET_FIELDS = {
    "LimitScaling.w1": "the c -> infinity model, which tests swap out to feed a NaN",
}


def _dataclass_defaults(cls):
    """(fields in the order a call fills them, fields with a plain default:
    one that is not a `field(...)` call) of a dataclass."""
    if not any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
        return [], []
    annotated = [node for node in cls.body
                 if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    plain = [node.target.id for node in annotated if node.value is not None and not (
        isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == "field")]
    return [node.target.id for node in annotated], plain


def test_every_defaulted_dataclass_field_is_set_by_a_caller():
    # a class is called by its name, or inside its own body by `cls` or `type(self)`
    trees, calls = _trees_and_calls()
    unset = []
    for cls in (node for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)):
        fields, plain = _dataclass_defaults(cls)
        own = [node for node in ast.walk(cls) if isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "cls" or isinstance(node.func, ast.Call)
            and getattr(node.func.func, "id", None) == "type")]
        passed = _passed(calls[cls.name] + own, plain, fields)
        unset += [f"{cls.name}.{f}" for f in plain
                  if f not in passed and f"{cls.name}.{f}" not in UNSET_FIELDS]
    assert not unset, ("dataclass fields with a default that no call in the package sets: "
                       + ", ".join(unset))
