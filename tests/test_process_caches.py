"""No function of the library keeps a cache for the life of the process.

A ``functools.lru_cache`` or ``functools.cache`` decorator keeps every
result it has returned until the process ends: a store that no solve
frees.  What a solve needs again lives with the object that needs it (a
grid's ``cached_property``, a solver's attributes) or with the call that
shares it.  The allowlist names the exceptions, one reason each.
"""

import ast
from pathlib import Path

_LIBRARY = Path(__file__).resolve().parents[1] / "src" / "hk"
_CACHES = {"lru_cache", "cache"}

ALLOWED = {}


def _functools_names(tree):
    """Local names bound to functools' caches, and names bound to functools."""
    caches, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            caches.update(alias.asname or alias.name for alias in node.names
                          if alias.name in _CACHES)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "functools")
    return caches, modules


def _is_cache(decorator, caches, modules):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Name):
        return decorator.id in caches
    return (isinstance(decorator, ast.Attribute)
            and decorator.attr in _CACHES
            and isinstance(decorator.value, ast.Name)
            and decorator.value.id in modules)


def cached_functions(source):
    """Names of the functions in ``source`` that a functools cache wraps."""
    tree = ast.parse(source)
    caches, modules = _functools_names(tree)
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(_is_cache(d, caches, modules)
                    for d in node.decorator_list)]


def test_detector_finds_every_spelling():
    source = """
import functools
import functools as ft
from functools import cache, cached_property, lru_cache as memo

@functools.lru_cache(maxsize=None)
def a(): pass

@ft.cache
def b(): pass

@memo
def c(): pass

@cache
def d(): pass

class Grid:
    @cached_property
    def e(self): pass
"""
    assert cached_functions(source) == ["a", "b", "c", "d"]


def test_library_keeps_no_process_lifetime_cache():
    found = {f"{path.name}:{name}"
             for path in sorted(_LIBRARY.glob("*.py"))
             for name in cached_functions(path.read_text())}
    assert found <= set(ALLOWED), sorted(found - set(ALLOWED))
