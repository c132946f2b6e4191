"""Layout: every name the library defines is reached by the library itself,
a command, a script or the benchmark, not by the tests alone, and every
parameter of a library function is read by it.

Test-only oracles belong in ``tests/reference.py``.  The scan reads
``src/flipforge/*.py`` (all but ``__init__.py``, which defines only the
version), ``scripts/*.py`` and ``perfbench/*.py`` with ``ast``, so a name
in a docstring or a comment does not count as a use.  A top-level def or
class is reached by a loaded name, an attribute or an import alias; a
method only by an attribute, as a bare name of the same spelling is some
other variable.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "flipforge").glob("*.py") if p.name != "__init__.py")
CALLERS = LIBRARY + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.Module, module: str) -> list[tuple[str, str, bool, ast.AST]]:
    """Each top-level def or class, and each public method of a top-level
    class, as (label, name, is a method, its definition node)."""
    out = []
    for node in tree.body:
        if isinstance(node, DEFS):
            out.append((f"{module}.{node.name}", node.name, False, node))
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, DEFS[:2]) and not item.name.startswith("_"):
                    out.append((f"{module}.{node.name}.{item.name}", item.name, True, item))
    return out


def uses(tree: ast.AST) -> tuple[Counter, Counter]:
    """How often each loaded name or import alias, and each attribute,
    occurs in tree."""
    names: Counter = Counter()
    attrs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
    return names, attrs


def test_every_library_name_is_reached():
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in CALLERS]
    names, attrs = Counter(), Counter()
    for tree in trees:
        tree_names, tree_attrs = uses(tree)
        names += tree_names
        attrs += tree_attrs
    unreached = []
    for path, tree in zip(LIBRARY, trees):
        for label, name, method, node in definitions(tree, path.stem):
            own_names, own_attrs = uses(node)  # a definition does not reach itself
            if attrs[name] == own_attrs[name] and (method or names[name] == own_names[name]):
                unreached.append(label)
    assert not unreached, f"reached only by tests (move them to tests/reference.py): {unreached}"


def test_every_parameter_is_read():
    """Each parameter of each def in the library is loaded in the def's body
    (a nested def's load counts); a lambda is exempt, as the suite registry's
    adapters share one signature whatever their audit reads."""
    unread = []
    for path in sorted((ROOT / "src" / "flipforge").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, DEFS[:2]):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
                loaded, _ = uses(ast.Module(body=node.body, type_ignores=[]))
                unread += [f"{path.stem}.{node.name}: {p.arg}" for p in params if not loaded[p.arg]]
    assert not unread, f"parameters never read: {unread}"


def test_sphere_sign_keys_live_in_jsonio():
    """Only jsonio knows the text form "N:k"/"S:k" of a sphere's face signs;
    every other module holds them as the pair (north signs, south signs)."""
    holders = []
    for path in sorted((ROOT / "src" / "flipforge").glob("*.py")):
        if path.name != "jsonio.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            holders += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                        if isinstance(node, ast.Constant) and node.value in ("N", "S", "NS")]
    assert not holders, f"hemisphere keys outside jsonio: {holders}"


def test_only_jsonio_validates():
    """A shape is checked once, where it is read: in the library only jsonio
    calls ``validate``, and every other module trusts the shapes it is given."""
    calls = {}
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        calls[path.stem] = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                            and "validate" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert calls.pop("jsonio"), "jsonio validates the shapes it reads"
    callers = {module: lines for module, lines in calls.items() if lines}
    assert not callers, f"validate called outside jsonio: {callers}"


def test_flips_imports_only_from_triangulation():
    """flips is the flip kernel alone: the family's table lives in graphs and
    the readings of a flip in signing."""
    tree = ast.parse((ROOT / "src" / "flipforge" / "flips.py").read_text(encoding="utf-8"))
    sources = set()  # the package modules flips reads; `from . import x` counts as x
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("flipforge")):
            sources.update([node.module] if node.module else (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            sources.update(alias.name for alias in node.names if alias.name.startswith("flipforge"))
    assert sources == {"triangulation"}


def test_jsonio_imports_nothing_from_graphs():
    """The graph builders return the printed graph, so no file format reads a graph type."""
    tree = ast.parse((ROOT / "src" / "flipforge" / "jsonio.py").read_text(encoding="utf-8"))
    assert "graphs" not in {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}


def test_package_root_reexports_nothing():
    """Every name is imported from its module: the package root imports
    nothing and defines only ``__version__``."""
    tree = ast.parse((ROOT / "src" / "flipforge" / "__init__.py").read_text(encoding="utf-8"))
    body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    extra = [ast.unparse(node) for node in body
             if not (isinstance(node, ast.Assign)
                     and [ast.unparse(target) for target in node.targets] == ["__version__"])]
    assert not extra, f"the package root holds more than its version: {extra}"


def test_flips_builds_shapes_and_quads_in_one_place_each():
    """A flip row numbers its results by chord code: ``ShapeTable.shape`` is
    the one call site that builds a ``Triangulation`` in flips, and
    ``flip_between`` the one that builds a ``FlipQuad``."""
    tree = ast.parse((ROOT / "src" / "flipforge" / "flips.py").read_text(encoding="utf-8"))

    def builds(node: ast.AST) -> list[str]:
        return [call.func.id for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name) and call.func.id in ("Triangulation", "FlipQuad")]

    sites = [(name, node.name) for node in ast.walk(tree) if isinstance(node, DEFS[:2])
             for name in builds(node)]
    assert sorted(sites) == [("FlipQuad", "flip_between"), ("Triangulation", "shape")]
    assert len(builds(tree)) == len(sites)  # none at module or class level


def test_self_calling_nested_defs_are_dropped():
    """A nested def that calls itself holds itself through its closure: a
    reference cycle that keeps it, and all it reaches, alive until a
    collection.  Its enclosing def must ``del`` its name, as
    ``all_triangulations`` does with ``rec``."""

    def own(node: ast.AST):
        """The nodes of a def's body, not descending into nested defs and classes."""
        stack = list(node.body)
        while stack:
            child = stack.pop()
            yield child
            if not isinstance(child, DEFS):
                stack.extend(ast.iter_child_nodes(child))

    kept, checked = [], 0
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for outer in ast.walk(tree):
            if not isinstance(outer, DEFS[:2]):
                continue
            dropped = {target.id for node in own(outer) if isinstance(node, ast.Delete)
                       for target in node.targets if isinstance(target, ast.Name)}
            for inner in own(outer):
                if isinstance(inner, DEFS[:2]) and any(
                        isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == inner.name for call in ast.walk(inner)):
                    checked += 1
                    if inner.name not in dropped:
                        kept.append(f"{path.stem}.{outer.name}.{inner.name}")
    assert checked > 0  # the scan does see a self-calling nested def
    assert not kept, f"self-calling nested defs never deleted: {kept}"
