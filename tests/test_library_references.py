"""Every public function, class and method of the library has a library caller.

A public module-level definition in ``src/hk``, or a public method of one
of its classes, that nothing in ``src/hk`` names outside its own body is
code kept alive by tests alone.  So is a public attribute, a dataclass
field or an attribute a method sets on ``self``, that nothing in ``src/hk``
reads outside the methods that set it (``self.x.setflags(...)`` in the
method that stores ``self.x`` does not count).  The allowlist names the
exceptions, one reason each; a method goes by ``Class.method`` and an
attribute by ``Class.attribute``.
"""

import ast
from pathlib import Path

_LIBRARY = Path(__file__).resolve().parents[1] / "src" / "hk"

ALLOWED = {
    "two_scale_compose_S": "the paper's unfolding operator S_eps",
    "reconstruct_u1": "the displacement corrector u1, kept for an elastic "
                      "two-scale check of the displacement",
    "load_field": "reader of the field dump format that dump_field writes",
    "solve_scalar_cell": "the one-loading form of solve_scalar_cells; "
                         "perfbench/spans.py traces it by name",
    "solve_elastic_cell_U": "the one-pair unit-strain form of "
                            "solve_elastic_cells; "
                            "perfbench/spans.py traces it by name",
    "solve_electrostriction_cell": "the one-source electrostriction form of "
                                   "solve_elastic_cells; "
                                   "perfbench/spans.py traces it by name",
    "UnfoldedField.norm_lp": "the L^p norm of an unfolded field, the norm of "
                             "the paper's unfolding operator S_eps",
}


def _names(node):
    """Identifiers that ``node`` reads: names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _visit(body, owner, own, public, referenced):
    """Collect the public definitions of ``body`` and the names it reads.

    ``owner`` prefixes a method's name with its class; ``own`` holds the
    names of the enclosing definitions, which their own bodies do not
    count as references to.
    """
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            if not stmt.name.startswith("_"):
                public.append(owner + stmt.name)
            inner = own | {stmt.name}
            if isinstance(stmt, ast.ClassDef):
                for node in stmt.decorator_list + stmt.bases + stmt.keywords:
                    referenced.update(set(_names(node)) - inner)
                _visit(stmt.body, owner + stmt.name + ".", inner, public,
                       referenced)
            else:
                referenced.update(set(_names(stmt)) - inner)
        else:
            referenced.update(set(_names(stmt)) - own)


def _self_stores(function):
    """Names of the attributes that ``function`` stores on ``self``."""
    return {node.attr for node in ast.walk(function)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def _attributes(cls):
    """Attributes of class ``cls``: dataclass fields and ``self.`` stores."""
    if any("dataclass" in set(_names(node)) for node in cls.decorator_list):
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                yield stmt.target.id
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            yield from _self_stores(stmt)


def _reads(node, stored=frozenset()):
    """Attribute names that ``node`` loads, less ``stored`` ones.

    A function adds the attributes it stores on ``self`` to ``stored``
    for its own body, so a method's loads of what it stores do not count.
    """
    if isinstance(node, ast.FunctionDef):
        stored = stored | _self_stores(node)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
            and node.attr not in stored:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, stored)


def _unreferenced():
    public, referenced, attributes, read = [], set(), set(), set()
    for path in sorted(_LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        _visit(tree.body, "", set(), public, referenced)
        read.update(_reads(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                attributes.update(f"{node.name}.{name}"
                                  for name in _attributes(node)
                                  if not name.startswith("_"))
    return sorted({name for name in public
                   if name.rpartition(".")[2] not in referenced}
                  | {name for name in attributes
                     if name.rpartition(".")[2] not in read})


def test_every_public_definition_has_a_library_reference():
    # an allowlisted symbol that gains a library caller leaves the list
    assert _unreferenced() == sorted(ALLOWED)
