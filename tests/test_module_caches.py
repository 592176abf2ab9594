"""No module of the package binds an empty dict, list or set at module level.

That is the shape of a hand-built cache: state that outlives a call,
filled and evicted by hand.  Memos belong on the object whose lifetime
they share, or in functools.lru_cache with a stated size.  Like the
unused-import check, this walks the syntax trees with the standard library.
"""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qsu2"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_empty_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set") and not node.args and not node.keywords)


def module_caches(source: str) -> list:
    """(line, name) of each module-level binding of an empty dict, list or set."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if _is_empty_container(node.value):
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return found


def test_finds_a_module_cache():
    source = ("_A = {}\n_B: dict = {}\n_C = []\n_D = set()\n_E = dict()\n"
              "KEYS = {'a': 1}\nLETTERS = ['a']\n"
              "def f():\n    memo = {}\n    return memo\n"
              "class K:\n    kept = {}\n")
    assert module_caches(source) == [(1, "_A"), (2, "_B"), (3, "_C"), (4, "_D"), (5, "_E")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_binds_no_empty_container(path):
    assert module_caches(path.read_text()) == []
