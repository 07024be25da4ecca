"""Every public function, class and method of the library has a library caller.

A public module-level definition in ``src/hk``, or a public method of one
of its classes, that nothing in ``src/hk`` names outside its own body is
code kept alive by tests alone.  So is a public attribute, a dataclass
field or an attribute a method sets on ``self``, that nothing in ``src/hk``
reads outside the methods that set it (``self.x.setflags(...)`` in the
method that stores ``self.x`` does not count).  The allowlist names the
exceptions, one reason each; a method goes by ``Class.method`` and an
attribute by ``Class.attribute``.

A defaulted parameter of a function that ``src/hk`` calls by name, which
no such call passes by keyword or by position, is an option that only
tests set.  A call of a class is a call of its ``__init__``, the one a
dataclass derives from its fields included.  Calls match by bare name,
as references do.  ``ALLOWED_DEFAULTS`` names the exceptions, one reason
each, as ``module.function(parameter)``.

A module-level constant, a name in upper case that a module's top level
assigns, which nothing in ``src/hk`` reads, is a setting that no code
takes.  Reads match by bare name, a load of the name or of an attribute
of that name.
"""

import ast
from pathlib import Path

_LIBRARY = Path(__file__).resolve().parents[1] / "src" / "hk"

ALLOWED = {
    "solve_scalar_cell": "the one-loading form of solve_scalar_cells; "
                         "perfbench/spans.py traces it by name",
    "solve_elastic_cell_U": "the one-pair unit-strain form of "
                            "solve_elastic_cells; "
                            "perfbench/spans.py traces it by name",
    "solve_electrostriction_cell": "the one-source electrostriction form of "
                                   "solve_elastic_cells; "
                                   "perfbench/spans.py traces it by name",
}

ALLOWED_DEFAULTS = {
    "cli.main(argv)": "the console entry point parses sys.argv; tests pass "
                      "the arguments",
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


def _is_dataclass(cls):
    return any("dataclass" in set(_names(node)) for node in cls.decorator_list)


def _attributes(cls):
    """Attributes of class ``cls``: dataclass fields and ``self.`` stores."""
    if _is_dataclass(cls):
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


def _defaulted(function, skip):
    """(name, position) of the defaulted parameters of ``function``.

    The position counts a call's positional arguments, which fill the
    parameters after the first ``skip`` (a method's ``self``); a
    keyword-only parameter has none.
    """
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _field_defaults(cls):
    """(name, position) of the defaulted fields of dataclass ``cls``."""
    fields = [stmt for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)]
    for index, stmt in enumerate(fields):
        value = stmt.value
        if value is None or (isinstance(value, ast.Call)
                             and "field" in set(_names(value.func))
                             and not {"default", "default_factory"}
                             & {k.arg for k in value.keywords}):
            continue
        yield stmt.target.id, index


def _callables(node, key, cls=None):
    """(name a call uses, key, defaulted parameters) of each definition.

    A class is called by its name: its ``__init__`` and a dataclass's
    fields answer to it.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            if _is_dataclass(child):
                yield (child.name, f"{key}{child.name}",
                       list(_field_defaults(child)))
            yield from _callables(child, f"{key}{child.name}.", child)
        elif isinstance(child, ast.FunctionDef):
            method = cls is not None and "staticmethod" not in {
                name for d in child.decorator_list for name in _names(d)}
            name = cls.name if method and child.name == "__init__" \
                else child.name
            yield (name, f"{key}{child.name}",
                   list(_defaulted(child, int(method))))
            yield from _callables(child, f"{key}{child.name}.")
        else:
            yield from _callables(child, key, cls)


def _calls(tree):
    """(called name, positional count, keywords) of each call in ``tree``.

    A call that unpacks ``*args`` or ``**kwargs`` passes every parameter:
    its keywords are None.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else \
                getattr(node.func, "attr", None)
            keywords = {k.arg for k in node.keywords}
            if None in keywords or any(isinstance(a, ast.Starred)
                                       for a in node.args):
                keywords = None
            yield name, len(node.args), keywords


def _unpassed_defaults(library=_LIBRARY):
    callables, calls = [], {}
    for path in sorted(library.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        callables.extend(_callables(tree, f"{path.stem}."))
        for name, count, keywords in _calls(tree):
            calls.setdefault(name, []).append((count, keywords))
    return sorted(
        f"{key}({param})" for name, key, params in callables
        if name in calls for param, position in params
        if not any(keywords is None or param in keywords
                   or (position is not None and count > position)
                   for count, keywords in calls[name]))


def test_every_defaulted_parameter_is_passed_by_a_library_call():
    # an allowlisted parameter that a library call comes to pass leaves
    # the list
    assert _unpassed_defaults() == sorted(ALLOWED_DEFAULTS)


def test_unpassed_default_rule_reads_positions_keywords_and_classes(
        tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n"
        "    def __init__(self, a, b=1):\n        pass\n"
        "    def m(self, a=1, b=2):\n        pass\n"
        "@dataclass\n"
        "class D:\n"
        "    a: int\n    e: int = field(repr=False)\n    b: int = 1\n"
        "    c: list = field(default_factory=list)\n"
        "def g(x=1):\n    pass\n"
        "def use(o, kw):\n"
        "    f(0, 1, d=4)\n    K(0)\n    o.m(0)\n    D(0, c=[])\n"
        "    g(**kw)\n")
    assert _unpassed_defaults(tmp_path) == [
        "mod.D(b)", "mod.K.__init__(b)", "mod.K.m(b)", "mod.f(c)"]


def _constants(tree):
    """Upper-case names that the top level of a module assigns."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) \
                        and node.id.lstrip("_").isupper():
                    yield node.id


def _unread_constants(library=_LIBRARY):
    constants, read = [], set()
    for path in sorted(library.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        constants.extend(f"{path.stem}.{name}" for name in _constants(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(name for name in constants
                  if name.partition(".")[2] not in read)


def test_every_module_constant_is_read_by_the_library():
    assert _unread_constants() == []


def test_unread_constant_rule_reads_names_and_attributes(tmp_path):
    (tmp_path / "mod.py").write_text(
        "A = 1\n_B = 2\nC, D = 3, 4\nE: int = 5\nlower = 6\nF = 7\n"
        "__all__ = []\n"
        "def use(o):\n    return A + o.C + lower\n"
        "def g(o, F=None):\n    F = 8\n    return o(F=1)\n")
    (tmp_path / "other.py").write_text("from mod import _B\n_B.x = 1\n")
    assert _unread_constants(tmp_path) == ["mod.D", "mod.E", "mod.F"]
