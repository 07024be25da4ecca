"""Every public function and class of the library has a library caller.

A public module-level definition in ``src/hk`` that nothing in ``src/hk``
names outside its own body is code kept alive by tests alone.  The
allowlist names the exceptions, one reason each.
"""

import ast
from pathlib import Path

_LIBRARY = Path(__file__).resolve().parents[1] / "src" / "hk"

ALLOWED = {
    "coarse_average_M": "the paper's averaging operator M_eps",
    "two_scale_compose_S": "the paper's unfolding operator S_eps",
    "reconstruct_u1": "the displacement corrector u1, kept for an elastic "
                      "two-scale check of the displacement",
    "load_field": "reader of the field dump format that dump_field writes",
    "gradient": "field calculus on ScalarField",
    "sym_gradient": "field calculus on VectorField",
    "cell_average": "field calculus: the unit-cell mean",
    "solve_scalar_cell": "the one-loading form of solve_scalar_cells; "
                         "perfbench/spans.py traces it by name",
    "solve_elastic_cell_U": "the one-pair form of solve_elastic_cells_U; "
                            "perfbench/spans.py traces it by name",
}


def _names(node):
    """Identifiers that ``node`` reads: names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _unreferenced():
    public, referenced = [], set()
    for path in sorted(_LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    public.append(stmt.name)
                # a definition's own body does not count as its caller
                referenced.update(n for n in _names(stmt) if n != stmt.name)
            else:
                referenced.update(_names(stmt))
    return sorted(set(public) - referenced)


def test_every_public_definition_has_a_library_reference():
    # an allowlisted symbol that gains a library caller leaves the list
    assert _unreferenced() == sorted(ALLOWED)
