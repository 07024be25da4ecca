"""Spans recorded around hk's layer calls, and the per-layer metrics they give.

The benchmark instruments hk from outside: ``instrument`` replaces the
functions and methods listed in ``TARGETS`` with wrappers that record one
span per call (name, start, end, parent span, attributes).  Spans stay in
memory; the child process hands them to the parent when the run ends.

A function imported by name into another module is a separate binding, so
each replacement is made in every loaded ``hk`` module that holds the same
object (``cli`` and ``effective`` import layer functions that way).  Methods
are replaced on their class.  Calls are assumed to come from one thread
(the benchmark runs hk with ``--threads 1``).
"""

import functools
import importlib
import sys
import time


class Tracer:
    """In-memory span recorder; ``spans[i]["parent"]`` indexes ``spans``."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``attrs(args, result)`` optionally returns a dict of counts stored
        on the span after the call returns.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._open[-1] if self._open else None,
                    "attrs": {}}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span["attrs"] = attrs(args, result)
            return result
        return traced


def _rows(args, result):
    return {"rows": len(args[1])}


def _batch(args, result):
    return {"rows": len(args[1]), "iterations": int(result.iterations.sum())}


def _iterations(args, result):
    return {"iterations": int(result.iterations)}


def _fine_electrostatic(args, result):
    return {"eps": float(args[1]),
            "iterations": int(result.iterations["electrostatic"])}


def _fine_elasticity(args, result):
    return {"eps": float(args[2])}


def _factor(args, result):
    return {"nnz": int(result.nnz)}


# (span name, module, attribute path, attrs) -- several targets may share a
# span name when they are one layer operation.
TARGETS = (
    ("effective.eval_batch", "hk.effective", "EffectiveLaw.eval_batch", _rows),
    ("effective.jacobian_batch", "hk.effective",
     "EffectiveLaw.jacobian_batch", _rows),
    ("effective.solutions_for", "hk.effective", "EffectiveLaw.solutions_for",
     _rows),
    ("effective.solve_loadings", "hk.effective",
     "EffectiveLaw._solve_loadings", _rows),
    ("cell_problems.batch_solve", "hk.cell_problems",
     "BatchScalarCellSolver.solve", _batch),
    ("cell_problems.solve_scalar_cell", "hk.cell_problems",
     "solve_scalar_cell", _iterations),
    ("cell_problems.elastic", "hk.cell_problems", "solve_elastic_cell_U",
     _iterations),
    ("cell_problems.elastic", "hk.cell_problems",
     "solve_electrostriction_cell", _iterations),
    ("homogenized.macro_newton", "hk.homogenized",
     "solve_homogenized_electrostatic", _iterations),
    ("homogenized.reconstruct_phi1", "hk.homogenized", "reconstruct_phi1",
     None),
    ("fine_scale.electrostatic", "hk.fine_scale", "solve_fine_electrostatic",
     _fine_electrostatic),
    ("fine_scale.elasticity", "hk.fine_scale", "solve_fine_elasticity",
     _fine_elasticity),
    ("fem.splu", "scipy.sparse.linalg", "splu", _factor),
    ("fem.assemble", "hk._fem", "assemble_diffusion", None),
    ("fem.assemble", "hk._fem", "assemble_elasticity", None),
    ("fem.assemble", "hk._fem", "assemble_elasticity_constant", None),
    ("fem.scatter", "hk._fem", "scatter", None),
    ("constitutive.flux_local", "hk.constitutive", "OperatorSpec.flux_local",
     None),
    ("constitutive.jacobian_local", "hk.constitutive",
     "OperatorSpec.jacobian_local", None),
    ("corrector.error_norms", "hk.corrector", "corrector_error_explicit",
     None),
    ("corrector.error_norms", "hk.corrector", "corrector_error_dalmaso", None),
    ("corrector.maxwell_check", "hk.corrector", "maxwell_two_scale_check",
     None),
    ("corrector.pairing", "hk.corrector", "two_scale_pairing", None),
    ("corrector.pairing", "hk.corrector", "pairing_limit", None),
    ("corrector.pairing", "hk.corrector", "functional_pairing", None),
)


def instrument(tracer, targets=TARGETS):
    """Wrap every target; returns a function that restores the originals."""
    undo = []
    for name, module_name, path, attrs in targets:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(name, original, attrs))
            continue
        original = getattr(module, path)
        wrapped = tracer.wrap(name, original, attrs)
        holders = [module] + [mod for key, mod in sorted(sys.modules.items())
                              if key == "hk" or key.startswith("hk.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapped)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def duration(span):
    return span["end"] - span["start"]


def children(spans):
    """Direct children of each span, by index."""
    kids = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span["parent"] is not None:
            kids[span["parent"]].append(idx)
    return kids


def self_time(spans, idx, kids=None):
    """Duration of span ``idx`` minus the time its child spans cover."""
    kids = children(spans) if kids is None else kids
    covered = 0.0
    reach = spans[idx]["start"]
    for start, end in sorted((spans[k]["start"], spans[k]["end"])
                             for k in kids[idx]):
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return duration(spans[idx]) - covered


def has_ancestor(spans, idx, test):
    parent = spans[idx]["parent"]
    while parent is not None:
        if test(spans[parent]["name"]):
            return True
        parent = spans[parent]["parent"]
    return False


def outermost(spans, test):
    """Indices of spans matching ``test`` with no matching ancestor."""
    return [i for i, s in enumerate(spans)
            if test(s["name"]) and not has_ancestor(spans, i, test)]


def total_time(spans, name):
    """Inclusive time of span ``name``, not counting it twice when nested."""
    return sum(duration(spans[i])
               for i in outermost(spans, lambda n: n == name))


def attr_sum(spans, name, key):
    return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)


def _in_modules(*prefixes):
    return lambda name: name.split(".")[0] in prefixes


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

LAYER_UNITS = {
    "effective.eval_batch.s": "s",
    "effective.jacobian_batch.s": "s",
    "effective.solutions_for.s": "s",
    "effective.queries": "count",
    "effective.hit_ratio": "fraction",
    "cell_problems.batch_solve.s": "s",
    "cell_problems.loadings": "count",
    "cell_problems.newton_iters": "count",
    "cell_problems.loadings_per_s": "1/s",
    "cell_problems.stragglers": "count",
    "cell_problems.elastic.s": "s",
    "cell_problems.elastic.cg_iters": "count",
    "homogenized.macro_newton.s": "s",
    "homogenized.macro_newton.self_s": "s",
    "homogenized.macro_iterations": "count",
    "homogenized.reconstruct_phi1.s": "s",
    "fine_scale.electrostatic.s": "s",
    "fine_scale.elasticity.s": "s",
    "fine_scale.finest_rung.s": "s",
    "fine_scale.newton_iters": "count",
    "fem.splu.calls": "count",
    "fem.splu.s": "s",
    "fem.splu.fill_nnz": "count",
    "fem.assemble.s": "s",
    "fem.scatter.s": "s",
    "constitutive.flux_local.s": "s",
    "constitutive.jacobian_local.s": "s",
    "corrector.error_norms.s": "s",
    "corrector.maxwell_check.s": "s",
    "corrector.pairing.s": "s",
    "share.effective_cell": "fraction",
    "share.fine_scale": "fraction",
    "share.batch_solve": "fraction",
    "trace.overhead_s": "s",
}


def layer_metrics(spans, run_s):
    """Per-layer metrics of one traced run whose timed part took ``run_s``.

    ``trace.overhead_s`` needs an untraced run as well; the caller adds it.
    """
    kids = children(spans)
    out = {}
    for name in ("effective.eval_batch", "effective.jacobian_batch",
                 "effective.solutions_for", "cell_problems.batch_solve",
                 "cell_problems.elastic", "homogenized.macro_newton",
                 "homogenized.reconstruct_phi1", "fine_scale.electrostatic",
                 "fine_scale.elasticity", "fem.splu", "fem.assemble",
                 "fem.scatter", "constitutive.flux_local",
                 "constitutive.jacobian_local", "corrector.error_norms",
                 "corrector.maxwell_check", "corrector.pairing"):
        out[name + ".s"] = total_time(spans, name)

    queries = (attr_sum(spans, "effective.eval_batch", "rows")
               + attr_sum(spans, "effective.solutions_for", "rows"))
    solved = attr_sum(spans, "effective.solve_loadings", "rows")
    out["effective.queries"] = queries
    out["effective.hit_ratio"] = 1.0 - solved / queries if queries else 0.0

    batch_s = out["cell_problems.batch_solve.s"]
    loadings = attr_sum(spans, "cell_problems.batch_solve", "rows")
    out["cell_problems.loadings"] = loadings
    out["cell_problems.newton_iters"] = attr_sum(
        spans, "cell_problems.batch_solve", "iterations")
    out["cell_problems.loadings_per_s"] = loadings / batch_s if batch_s else 0.0
    out["cell_problems.stragglers"] = sum(
        1 for i, s in enumerate(spans)
        if s["name"] == "cell_problems.solve_scalar_cell"
        and has_ancestor(spans, i,
                         lambda n: n == "cell_problems.batch_solve"))
    out["cell_problems.elastic.cg_iters"] = attr_sum(
        spans, "cell_problems.elastic", "iterations")

    out["homogenized.macro_newton.self_s"] = sum(
        self_time(spans, i, kids) for i, s in enumerate(spans)
        if s["name"] == "homogenized.macro_newton")
    out["homogenized.macro_iterations"] = attr_sum(
        spans, "homogenized.macro_newton", "iterations")

    fine = [s for s in spans if s["name"] in ("fine_scale.electrostatic",
                                              "fine_scale.elasticity")]
    finest = min((s["attrs"]["eps"] for s in fine), default=None)
    out["fine_scale.finest_rung.s"] = sum(
        duration(s) for s in fine if s["attrs"]["eps"] == finest)
    out["fine_scale.newton_iters"] = attr_sum(
        spans, "fine_scale.electrostatic", "iterations")

    out["fem.splu.calls"] = sum(1 for s in spans if s["name"] == "fem.splu")
    out["fem.splu.fill_nnz"] = attr_sum(spans, "fem.splu", "nnz")

    cell_layers = _in_modules("effective", "cell_problems")
    out["share.effective_cell"] = sum(
        duration(spans[i]) for i in outermost(spans, cell_layers)) / run_s
    out["share.fine_scale"] = sum(
        duration(spans[i])
        for i in outermost(spans, _in_modules("fine_scale"))) / run_s
    out["share.batch_solve"] = batch_s / run_s
    return out
