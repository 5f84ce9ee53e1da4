"""Code with no caller gets deleted: a scan of src/privtext for functions
nothing else in the package names, and for constants nothing reads.

Every private function or method, and every module-level function that
privtext/__init__.py does not export, must be named by a Name or an
Attribute node somewhere in src/ outside its own body; a docstring or a
comment that mentions it does not count, and neither do the tests. Public
methods are exempt (those of exported classes are API), and so are dunder
methods, which Python calls by protocol.

Every private module-level constant (a name with one leading underscore
bound by an assignment at module level) must be read, by a Name or an
Attribute node in a load context, somewhere in src/; binding it again is
not a read.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privtext"


def parse_package() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def exported(init: ast.Module) -> set:
    return {alias.asname or alias.name for node in ast.walk(init)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def checked_functions(modules: dict, public: set):
    """(file, name, first line, last line) of every function the rule covers."""
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") or node.name not in public:
                    yield name, node.name, node.lineno, node.end_lineno
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and item.name.startswith("_") and not item.name.endswith("__")):
                        yield name, item.name, item.lineno, item.end_lineno


def references(modules: dict) -> dict:
    """name -> [(file, line)] of every Name and Attribute node in the package."""
    found = {}
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.setdefault(node.id, []).append((name, node.lineno))
            elif isinstance(node, ast.Attribute):
                found.setdefault(node.attr, []).append((name, node.lineno))
    return found


def uncalled(modules: dict) -> list:
    refs = references(modules)
    public = exported(modules["__init__.py"])
    return [f"{file}:{first} {func}"
            for file, func, first, last in checked_functions(modules, public)
            if not any(f != file or not first <= line <= last for f, line in refs.get(func, []))]


def checked_constants(modules: dict):
    """(file, name, line) of every private module-level constant."""
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if (isinstance(leaf, ast.Name) and leaf.id.startswith("_")
                                and not leaf.id.startswith("__")):
                            yield name, leaf.id, node.lineno


def unread(modules: dict) -> list:
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return [f"{file}:{line} {const}"
            for file, const, line in checked_constants(modules) if const not in read]


def test_every_private_function_has_a_caller_in_the_package():
    assert uncalled(parse_package()) == []


def test_every_private_constant_is_read_in_the_package():
    assert unread(parse_package()) == []


def test_the_scan_flags_a_function_named_only_in_a_docstring():
    modules = {
        "__init__.py": ast.parse("from .m import api\n"),
        "m.py": ast.parse(
            "def api():\n    return _used()\n\n"
            "def _used():\n    return 1\n\n"
            "def _dead(n):\n    '''_dead is named here only.'''\n    return _dead(n - 1)\n\n"
            "def helper():\n    pass\n\n"
            "class Store:\n"
            "    def query(self):\n        return self._walk()\n\n"
            "    def _walk(self):\n        pass\n\n"
            "    def _unused(self):\n        pass\n\n"
            "    def __len__(self):\n        return 0\n"),
    }
    assert uncalled(modules) == ["m.py:7 _dead", "m.py:11 helper", "m.py:21 _unused"]


def test_the_scan_flags_a_constant_nothing_reads():
    modules = {
        "__init__.py": ast.parse("from .m import api\n"),
        "m.py": ast.parse(
            "_USED = 1\n_BY_ATTRIBUTE: int = 2\n_REBOUND = 3\n_DOC = 4\n"
            "__all__ = ['api']\nPUBLIC = 5\n\n"
            "def api():\n    '''_DOC is named here only.'''\n"
            "    global _REBOUND\n    _REBOUND = _USED\n    return PUBLIC\n"),
        "n.py": ast.parse("from . import m\n\ndef f():\n    return m._BY_ATTRIBUTE\n"),
    }
    assert unread(modules) == ["m.py:3 _REBOUND", "m.py:4 _DOC"]
