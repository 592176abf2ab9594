"""No module of the package binds an empty dict, list or set at module level.

That is the shape of a hand-built cache: state that outlives a call,
filled and evicted by hand.  Memos belong on the object whose lifetime
they share, or in functools.lru_cache with a stated size, and a kept
memo is one that a run reads again.  Like the unused-import check, the
first rule walks the syntax trees with the standard library; the second
counts the cache hits of one `all` run.
"""
import ast
import importlib
import pathlib

import pytest

from qsu2 import cli

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


def test_every_kept_memo_is_reused_by_a_run(monkeypatch):
    # the rule behind the check above: a memo that outlives a call earns its
    # place when a run reads it again, so `all` at lmax 24 hits each
    # functools.lru_cache of the package at least once
    modules = [importlib.import_module("qsu2." + p.stem) for p in MODULES if p.stem != "__init__"]
    memos = {"%s.%s" % (m.__name__, name): fn for m in modules for name, fn in vars(m).items()
             if hasattr(fn, "cache_info") and fn.__module__ == m.__name__}
    assert sorted(memos) == ["qsu2.algebra._grid_chunks", "qsu2.algebra.generator_tables",
                             "qsu2.cli.generator_table"]
    for fn in memos.values():
        fn.cache_clear()
    seen = {}
    clear = cli.generator_table.cache_clear

    def read_then_clear():  # main clears this one as the run ends
        seen["qsu2.cli.generator_table"] = cli.generator_table.cache_info()
        clear()

    monkeypatch.setattr(cli.generator_table, "cache_clear", read_then_clear)
    assert cli.main(["all", "--lmax", "24"]) == 0
    hits = {name: seen.get(name, fn.cache_info()).hits for name, fn in memos.items()}
    assert min(hits.values()) >= 1, hits
