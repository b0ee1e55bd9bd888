"""Every imported name is used somewhere in its module, no function imports
from a module its file already imports at module level, every private
module-level function of the package is named somewhere in its module, no
package module imports another module's private name, every name the
package exports is bound by it and exported once, and every public
module-level function, class or constant of the package is read by some
package module or named in README.md.

No linter is a dependency of the project, so this walks the syntax tree of
every module under src/ and tests/ with the standard library's ast.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """(line, name) for each name an import binds that the module never
    reads.  from __future__ imports and names listed in __all__ count as
    used."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    src = ("from __future__ import annotations\n"
           "import os.path\n"
           "from a import b, c as d\n"
           "__all__ = ['b']\n"
           "os.path.join()\n")
    assert unused_imports(src) == [(3, "d")]


def import_sources(node) -> list:
    """The modules an import statement reads, relative dots kept; none for
    any other node."""
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return []


def repeated_function_imports(source: str) -> list:
    """(line, module) for each import inside a function from a module that
    the file already imports at module level, where the name belongs."""
    tree = ast.parse(source)
    top = {m for node in tree.body for m in import_sources(node)}
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                found.update((node.lineno, m) for m in import_sources(node)
                             if m in top)
    return sorted(found)


def test_repeated_function_imports_are_found():
    src = ("import os\n"
           "from .a import b\n"
           "def f():\n"
           "    from .a import c\n"
           "    from .d import e\n"
           "    import os.path\n"
           "    def g():\n"
           "        from .a import h\n"
           "        import os\n"
           "    return b, c, e, g, h, os\n")
    assert repeated_function_imports(src) == [(4, ".a"), (8, ".a"), (9, "os")]


def test_no_function_imports_from_a_module_its_file_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {module}"
             for top in ("src", "tests")
             for path in sorted((ROOT / top).rglob("*.py"))
             for line, module in repeated_function_imports(
                 path.read_text("utf-8"))]
    assert found == []


def unnamed_private_functions(source: str) -> list:
    """(line, name) for each undecorated module-level function whose name
    starts with a single underscore and that the module never names again.
    A decorated one counts as used: its decorator registers it."""
    tree = ast.parse(source)
    defined = {node.name: node.lineno for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")
               and not node.decorator_list}
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in defined.items()
                  if name not in named)


def test_unnamed_private_functions_are_found():
    src = ("def _dead():\n    pass\n"
           "def _used():\n    return _helper()\n"
           "def _helper():\n    pass\n"
           "@register\ndef _check():\n    pass\n"
           "def __getattr__(name):\n    pass\n"
           "class C:\n    def _method(self):\n        pass\n"
           "def public():\n    return _used\n")
    assert unnamed_private_functions(src) == [(1, "_dead")]


def test_no_private_package_function_is_dead():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src" / "braidhopf").glob("*.py"))
             for line, name in unnamed_private_functions(
                 path.read_text("utf-8"))]
    assert found == []


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in ("src", "tests")
             for path in sorted((ROOT / top).rglob("*.py"))
             for line, name in unused_imports(path.read_text("utf-8"))]
    assert found == []


def private_imports(source: str) -> list:
    """(line, name) for each name with a single leading underscore that an
    import takes from another module, at any depth of the module."""
    tree = ast.parse(source)
    return sorted((node.lineno, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names
                  if alias.name.startswith("_")
                  and not alias.name.startswith("__"))


def test_private_imports_are_found():
    src = ("from __future__ import annotations\n"
           "from .a import b, _c\n"
           "from .d import (e,\n"
           "                _f as g)\n"
           "from . import __version__\n"
           "def h():\n"
           "    from .i import _j\n")
    assert private_imports(src) == [(2, "_c"), (3, "_f"), (7, "_j")]


def test_no_package_module_imports_a_private_name():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src" / "braidhopf").glob("*.py"))
             for line, name in private_imports(path.read_text("utf-8"))]
    assert found == []


def export_faults(source: str) -> list:
    """'name: reason' for each entry of the module's __all__ that no
    module-level import, definition or assignment binds, and for each
    entry listed more than once."""
    tree = ast.parse(source)
    bound, listed = set(), []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                    if target.id == "__all__":
                        listed = ast.literal_eval(node.value)
    faults, seen = [], set()
    for name in listed:
        if name not in bound:
            faults.append(f"{name}: not bound")
        elif name in seen:
            faults.append(f"{name}: listed twice")
        seen.add(name)
    return faults


def test_export_faults_are_found():
    src = ("from a import b\n"
           "def f():\n    pass\n"
           "C = 1\n"
           "__all__ = ['b', 'f', 'C', 'gone', 'b']\n")
    assert export_faults(src) == ["gone: not bound", "b: listed twice"]


def test_every_export_is_bound_and_listed_once():
    init = ROOT / "src" / "braidhopf" / "__init__.py"
    assert export_faults(init.read_text("utf-8")) == []


def module_level_names(tree) -> list:
    """The functions, classes and plain names that the module-level
    statements of tree define or assign, in order."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, ast.Assign):
            found.extend(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            found.append(node.target.id)
    return found


def class_members(tree) -> list:
    """(class, name) for each method or property defined in the body of a
    module-level class of tree, in order."""
    return [(cls.name, node.name) for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def attributes(tree) -> set:
    """The attribute names tree looks up."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def unreached_public_names(sources: dict, readme: str,
                           readers: dict = None) -> list:
    """'module: name' for each public module-level function, class or
    assigned name of the modules sources (module name -> source) that no
    module reads and readme does not name, then 'module: Class.name' for
    each public method or property that neither a module of sources nor
    one of readers (module name -> source) looks up as an attribute and
    that readme does not name in backticks.  A read is a name loaded or an
    attribute looked up in code; an import alone, such as a re-export, or
    an assignment is not one."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set().union(*map(attributes, trees.values()))
    looked_up = read.union(*(attributes(ast.parse(src))
                             for src in (readers or {}).values()))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
    quoted = " ".join(re.findall(r"`([^`]*)`", readme))
    return [f"{mod}: {name}" for mod, tree in trees.items()
            for name in module_level_names(tree)
            if not name.startswith("_") and name not in read
            and not re.search(rf"\b{name}\b", readme)] + [
        f"{mod}: {cls}.{name}" for mod, tree in trees.items()
        for cls, name in class_members(tree)
        if not name.startswith("_") and name not in looked_up
        and not re.search(rf"\b{name}\b", quoted)]


def test_unreached_public_names_are_found():
    sources = {"a": ("def used():\n    pass\n"
                     "def documented():\n    pass\n"
                     "def dead():\n    return used\n"
                     "class Dead:\n    pass\n"
                     "def _private():\n    pass\n"
                     "LIMIT = 3\n"
                     "UNREAD: int = 4\n"
                     "OVERWRITTEN = 5\n"
                     "OVERWRITTEN = LIMIT\n"
                     "_HIDDEN = 6\n"),
               "b": ("from .a import Dead, dead, used, UNREAD\n"
                     "__all__ = ['dead', 'UNREAD']\n"
                     "def by_attribute():\n    pass\n"
                     "x = sys.modules[__name__].by_attribute\n"
                     "class Value:\n"
                     "    def read(self):\n        pass\n"
                     "    @property\n"
                     "    def size(self):\n        pass\n"
                     "    def unread(self):\n        return self.read()\n"
                     "    def shown(self):\n        pass\n"
                     "    def mentioned(self):\n        pass\n"
                     "    def __eq__(self, other):\n        pass\n")}
    readers = {"bench": ("def probe(v):\n    return v.size\n"
                         "probe(dead)\n")}
    readme = ("Call `documented()`, not `dead_end`; `x` is internal.\n"
              "Use `Value.shown`; mentioned is not code.\n")
    assert unreached_public_names(sources, readme, readers) == [
        "a: dead", "a: Dead", "a: UNREAD", "a: OVERWRITTEN", "a: OVERWRITTEN",
        "b: Value.unread", "b: Value.mentioned"]
    # size is read only from the readers, which read no module-level name
    assert "b: Value.size" in unreached_public_names(sources, readme)


def test_every_public_name_is_read_or_documented():
    sources = {path.stem: path.read_text("utf-8") for path in sorted(
        (ROOT / "src" / "braidhopf").glob("*.py"))}
    readers = {path.stem: path.read_text("utf-8") for path in sorted(
        (ROOT / "perfbench").glob("*.py"))}
    readme = (ROOT / "README.md").read_text("utf-8")
    assert unreached_public_names(sources, readme, readers) == []
