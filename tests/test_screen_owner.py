"""The float32 screen has one owner: a scan of src/privtext for a module
other than embeddings.py that names the screen's layout or its rounding.

EmbeddingStore builds the screen (_screen, a _Screen), rounds every point
onto it (_screen_points, _round_scaled) and answers every question asked of
it there: the decode, the sigma default's walk and the density KDE (_log_kde,
which scores on it with _gemm_log_kde). Its bounds rest on float32's unit
roundoff and least subnormal (_U32, _ETA32). Anywhere else in the package, a
Name or an Attribute node that names one of these, or an import of one by
name, is flagged: a module that needs the screen asks the store.
"""
import ast

from test_dead_code import parse_package

OWNER = "embeddings.py"
SCREEN = {"_screen", "_screen_points", "_Screen", "_round_scaled", "_gemm_log_kde", "_U32",
          "_ETA32"}


def named(node):
    """The name a Name, Attribute or imported alias node gives, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def outside_the_owner(modules: dict) -> list:
    """file:line name of every node outside OWNER that names the screen."""
    return sorted(f"{name}:{node.lineno} {named(node)}" for name, tree in modules.items()
                  if name != OWNER for node in ast.walk(tree) if named(node) in SCREEN)


def test_only_embeddings_names_the_screen():
    assert outside_the_owner(parse_package()) == []


def test_the_scan_catches_an_import_and_an_attribute():
    modules = {
        OWNER: ast.parse("_U32 = 2.0**-24\n\nclass Store:\n"
                         "    def _screen(self):\n        return _U32\n"),
        "a.py": ast.parse("from .embeddings import _U32 as unit\n"),
        "b.py": ast.parse("def f(store):\n    return store._screen.aug\n"),
        # a query of the store, and a docstring that names the screen
        "c.py": ast.parse("def g(store):\n    '''_screen is named here only.'''\n"
                          "    return store._log_kde([[0.0]], 1.0)\n"),
    }
    assert outside_the_owner(modules) == ["a.py:1 _U32", "b.py:2 _screen"]
