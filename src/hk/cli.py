"""Configuration, experiment orchestration, and reporting.

Usage: ``hk <subcommand> --config <path-or-preset> [--out DIR]`` with
subcommands ``cell``, ``effective``, ``fine``, ``homogenized``,
``corrector-study``, and ``verify``.  Configs are JSON documents with a
versioned ``schema`` field; validation errors are reported with a
JSON-pointer path and exit code 3, as are command-line usage errors;
solver non-convergence exits with code 2, and a failed ``verify`` check
with exit code 4.  Outputs are bitwise deterministic for a fixed config
and seed.
"""

import argparse
import copy
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import _fem
# solve_scalar_cell is re-exported for perfbench/spans.py (see hk.effective)
from .cell_problems import (BatchScalarCellSolver,  # noqa: F401
                            solve_scalar_cell, solve_scalar_cells)
from .constitutive import ElasticTensorField, Geometry, OperatorSpec
from .core_fields import (CellGrid, DomainGrid, ScalarField, VectorField,
                          dump_field)
from .corrector import run_corrector_study, study_source
from .effective import (EffectiveLaw, assemble_elastic_tensors,
                        check_a_hom_properties)
from .errors import ConfigError, NonConvergence, SingularSystem
from .fine_scale import (check_resolved, solve_fine_elasticity,
                         solve_fine_electrostatic)
from .homogenized import (MACRO_TOL, solve_homogenized_elasticity,
                          solve_homogenized_electrostatic)

SCHEMA_VERSION = 1

# Largest grids a config may ask for, so that memory stays bounded for
# every config that validates.  The rungs run one after another, so a
# run's peak is its largest rung's.  The fine solves run on an N x N grid,
# N = cell_n / eps per rung; above N = 64 they solve by multigrid PCG,
# and a rung's peak is its solves': one N = 512 laminate elastic solve
# peaks near 0.36 GiB of RSS, and the preset studies at 430 MiB
# (checkerboard-p2, to N = 512), 157-164 MiB (laminate-p2 and -p3, to
# N = 256) and 111 MiB (variable-exponent, to N = 128), one BLAS thread,
# one process per run, two runs each.  The post-processing streams over
# blocks of element rows within _fem.WORK_BUDGET_BYTES.  The cell layer
# keeps a few cell potentials, cell_n^2 doubles each, per quadrature point
# of the sample grid, which refines the solve grid; CELL_TABLE_COPIES
# bounds how many are alive at once (solutions, warm starts and their
# two-column derivatives).
MAX_GRID = {"cell_n": 64, "solve_n": 128, "sample_n": 256}
MAX_FINE_N = 512
MAX_CELL_TABLE_BYTES = 2 ** 30
CELL_TABLE_COPIES = 6

_BASE_PRESET = {
    "schema": SCHEMA_VERSION,
    "seed": 0,
    "operator": {"family": "linear", "p": 2.0, "alpha": 1.0,
                 "sigma": [1.0, 4.0]},
    "geometry": {"kind": "laminate", "fraction": 0.5},
    "elasticity": {"B": {"matrix": [1.0, 1.0], "inclusion": [3.0, 2.0]},
                   "C": {"matrix": [0.5, 0.5], "inclusion": [1.5, 1.0]}},
    "grids": {"cell_n": 8, "solve_n": 32, "sample_n": 64},
    "ladder": [0.25, 0.125, 0.0625, 0.03125],
    "tolerances": {"cell": _fem.CELL_TOL, "macro": MACRO_TOL},
    "sources": {"f": "bump", "g": [0.0, -1.0]},
}


def _preset(**overrides):
    """The base preset with whole top-level entries replaced."""
    return {**copy.deepcopy(_BASE_PRESET), **overrides}


PRESETS = {
    "laminate-p2": _preset(),
    "laminate-p3": _preset(
        operator={"family": "power-law", "p": 3.0, "alpha": 1.0,
                  "delta": 0.0, "sigma": [1.0, 4.0]}),
    "checkerboard-p2": _preset(
        geometry={"kind": "checkerboard"},
        grids={"cell_n": 16, "solve_n": 32, "sample_n": 64}),
    "variable-exponent": _preset(
        operator={"family": "variable-exponent", "p": 2.0, "alpha": 1.0,
                  "sigma": [1.0, 1.0], "exponent": [3.0, 2.0]},
        geometry={"kind": "square", "size": 0.5},
        ladder=[0.25, 0.125, 0.0625]),
}


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def _require(cfg, key, pointer, types=None):
    if key not in cfg:
        raise ConfigError(f"missing required field {key!r}", f"{pointer}/{key}")
    val = cfg[key]
    if types is not None and not isinstance(val, types):
        raise ConfigError(f"field {key!r} has wrong type", f"{pointer}/{key}")
    return val


def _object(value, pointer):
    if not isinstance(value, dict):
        raise ConfigError("must be a JSON object", pointer)
    return value


def _number(value, pointer):
    """A finite JSON number as float; booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ConfigError("must be a finite number", pointer)
    return float(value)


def _positive(value, pointer):
    value = _number(value, pointer)
    if value <= 0:
        raise ConfigError("must be a positive number", pointer)
    return value


def _integer(value, pointer):
    value = _number(value, pointer)
    if value != int(value):
        raise ConfigError("must be an integer", pointer)
    return int(value)


def _pair(value, pointer, message):
    """A list of two numbers, as floats."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(message, pointer)
    return [_number(v, f"{pointer}/{k}") for k, v in enumerate(value)]


def _check_matrix(value, pointer):
    """A 2x2 matrix written [[a, b], [c, d]] or [a, b, c, d]."""
    flat = value if isinstance(value, list) else []
    if all(isinstance(row, list) and len(row) == 2 for row in flat):
        flat = [v for row in flat for v in row]
    if len(flat) != 4:
        raise ConfigError("matrix must be [[a, b], [c, d]] or [a, b, c, d]",
                          pointer)
    for v in flat:
        _number(v, pointer)


def validate_config(cfg, subcommand=None):
    """Validate a raw config dict; returns it with defaults filled in.

    Raises ConfigError with a JSON-pointer path on the first violation.
    Every number is read through ``_number``.  The value rules of the
    models (alpha and exponent ranges, positive sigma, a laminate
    fraction in (0, 1), ...) are their constructors', which run on the
    result; a ValueError from one becomes a ConfigError at its block.
    ``subcommand`` adds that pipeline's own rules (``corrector-study``
    needs at least two rungs to compare; ``fine`` and ``corrector-study``
    need fine grids that resolve the geometry).
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object", "")
    schema = cfg.get("schema")
    if isinstance(schema, bool) or schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema (expected {SCHEMA_VERSION})",
                          "/schema")
    out = {"schema": SCHEMA_VERSION,
           "seed": _integer(cfg.get("seed", 0), "/seed")}
    if out["seed"] < 0:     # numpy's generators take no negative seed
        raise ConfigError("must be a nonnegative integer", "/seed")

    op = _require(cfg, "operator", "", dict)
    family = _require(op, "family", "/operator", str)
    if family not in ("linear", "power-law", "variable-exponent"):
        raise ConfigError(f"unknown family {family!r}", "/operator/family")
    p = _positive(_require(op, "p", "/operator"), "/operator/p")
    operator = {
        "family": family, "p": p,
        "alpha": _number(op.get("alpha", min(1.0, p - 1.0)),
                         "/operator/alpha"),
        "delta": _number(op.get("delta", 0.0), "/operator/delta"),
        "sigma": _pair(op.get("sigma", [1.0, 1.0]), "/operator/sigma",
                       "sigma must be a [matrix, inclusion] pair"),
    }
    if family == "variable-exponent":
        operator["exponent"] = _pair(
            _require(op, "exponent", "/operator"), "/operator/exponent",
            "exponent must be a [matrix, inclusion] pair")
    if family == "linear" and "matrix" in op:
        _check_matrix(op["matrix"], "/operator/matrix")
        operator["matrix"] = op["matrix"]
    out["operator"] = operator

    geom = _object(cfg.get("geometry", {"kind": "uniform"}), "/geometry")
    kind = geom.get("kind", "uniform")
    if kind not in ("uniform", "laminate", "square", "checkerboard", "disc"):
        raise ConfigError(f"unknown geometry kind {kind!r}", "/geometry/kind")
    out["geometry"] = {
        "kind": kind,
        "fraction": _number(geom.get("fraction", 0.5), "/geometry/fraction"),
        "size": _number(geom.get("size", 0.5), "/geometry/size")}

    elast = cfg.get("elasticity")
    if elast is not None:
        _object(elast, "/elasticity")
        for name in ("B", "C"):
            block = _require(elast, name, "/elasticity", dict)
            for phase in ("matrix", "inclusion"):
                lam, mu = _pair(_require(block, phase, f"/elasticity/{name}"),
                                f"/elasticity/{name}/{phase}",
                                "expected a [lam, mu] pair")
                # B c : c = 2 mu |c|^2 + lam (tr c)^2 on symmetric c
                if name == "B" and not (mu > 0 and lam + mu > 0):
                    raise ConfigError("B must have mu > 0 and lam + mu > 0",
                                      f"/elasticity/B/{phase}")
    out["elasticity"] = elast

    grids = _object(cfg.get("grids", {}), "/grids")
    out["grids"] = {
        key: _integer(grids.get(key, default), f"/grids/{key}")
        for key, default in (("cell_n", 8), ("solve_n", 32), ("sample_n", 64))}
    for key, val in out["grids"].items():
        if val < 2:
            raise ConfigError("grid sizes must be >= 2", f"/grids/{key}")
        if key in MAX_GRID and val > MAX_GRID[key]:
            raise ConfigError(f"must be at most {MAX_GRID[key]}",
                              f"/grids/{key}")
    cell_n = out["grids"]["cell_n"]
    if cell_n < 4 or cell_n & (cell_n - 1):
        raise ConfigError("must be a power of two >= 4", "/grids/cell_n")
    # an old config may still name the fine grids' resolution, as cell_n
    if "fine_m" in grids and grids["fine_m"] != cell_n:
        raise ConfigError("fine_m was retired; the fine grids run at cell_n "
                          "elements per period", "/grids/fine_m")
    if out["grids"]["sample_n"] % out["grids"]["solve_n"] != 0:
        raise ConfigError("sample_n must be a multiple of solve_n",
                          "/grids/sample_n")
    table_bytes = (CELL_TABLE_COPIES * 8 * cell_n ** 2
                   * 4 * out["grids"]["sample_n"] ** 2)
    if table_bytes > MAX_CELL_TABLE_BYTES:
        raise ConfigError(
            f"cell_n and sample_n need about {table_bytes / 2**30:.1f} GiB "
            f"of cell tables (at most {MAX_CELL_TABLE_BYTES / 2**30:g} GiB: "
            f"{CELL_TABLE_COPIES} x 8 bytes x cell_n^2 x 4 sample_n^2)",
            "/grids")

    ladder = cfg.get("ladder", [0.25, 0.125, 0.0625, 0.03125])
    if not isinstance(ladder, list) or not ladder:
        raise ConfigError("ladder must be a non-empty list", "/ladder")
    ladder = [_number(e, f"/ladder/{idx}") for idx, e in enumerate(ladder)]
    if any(e2 >= e1 for e1, e2 in zip(ladder, ladder[1:])):
        raise ConfigError("ladder must be strictly decreasing", "/ladder")
    for idx, eps in enumerate(ladder):
        if eps <= 0 or abs(1.0 / eps - round(1.0 / eps)) > 1e-12:
            raise ConfigError("1/eps must be a positive integer",
                              f"/ladder/{idx}")
        if cell_n / eps > MAX_FINE_N:
            raise ConfigError(f"fine grid cell_n / eps must be at most "
                              f"{MAX_FINE_N} per side", f"/ladder/{idx}")
    for eps in ladder:
        # eps-cells must be unions of sample-grid elements
        half_cells = out["grids"]["sample_n"] * eps / 2
        if abs(half_cells - round(half_cells)) > 1e-9:
            raise ConfigError(f"sample_n does not align with the eps={eps:g} "
                              f"cells (sample_n * eps / 2 must be an "
                              f"integer)", "/grids/sample_n")
    if subcommand == "corrector-study" and len(ladder) < 2:
        raise ConfigError("corrector-study needs at least 2 rungs", "/ladder")
    out["ladder"] = ladder

    tols = _object(cfg.get("tolerances", {}), "/tolerances")
    out["tolerances"] = {
        "cell": _positive(tols.get("cell", _fem.CELL_TOL), "/tolerances/cell"),
        "macro": _positive(tols.get("macro", MACRO_TOL), "/tolerances/macro"),
    }
    # an old config that asks for the other average must not run this one
    if cfg.get("chom_variant", "C-applied") != "C-applied":
        raise ConfigError("the as-written electrostriction average was "
                          "retired; C_hom is always C-applied",
                          "/chom_variant")

    sources = _object(cfg.get("sources", {}), "/sources")
    f_src = sources.get("f", "constant:1.0")
    if isinstance(f_src, str) and f_src.startswith("constant:"):
        try:
            _number(float(f_src.split(":", 1)[1]), "/sources/f")
        except ValueError:
            raise ConfigError("f must be 'bump', 'constant:<v>', or a number",
                              "/sources/f") from None
    elif f_src != "bump":
        _number(f_src, "/sources/f")
    out["sources"] = {"f": f_src,
                      "g": _pair(sources.get("g", [0.0, -1.0]), "/sources/g",
                                 "g must be a 2-vector")}

    for pointer, build in (("/geometry", build_geometry),
                           ("/operator", build_spec),
                           ("/elasticity", build_tensors)):
        try:
            build(out)
        except ValueError as exc:
            raise ConfigError(str(exc), pointer) from None
    if subcommand in ("fine", "corrector-study"):
        # every rung's fine grid has cell_n elements per period
        try:
            check_resolved(build_geometry(out), cell_n)
        except ValueError as exc:
            raise ConfigError(str(exc), "/geometry") from None
    return out


# ---------------------------------------------------------------------------
# Config -> model objects
# ---------------------------------------------------------------------------

def build_geometry(cfg):
    g = cfg["geometry"]
    return Geometry(kind=g["kind"], fraction=g["fraction"], size=g["size"])


def build_spec(cfg):
    op = cfg["operator"]
    geometry = build_geometry(cfg)
    kwargs = dict(family=op["family"], p=op["p"], alpha=op["alpha"],
                  delta=op["delta"], geometry=geometry,
                  sigma=tuple(op["sigma"]))
    if op["family"] == "variable-exponent":
        kwargs["exponent"] = tuple(op["exponent"])
    if op["family"] == "linear" and "matrix" in op:
        mat = np.array(op["matrix"], dtype=float)
        kwargs["matrices"] = (mat, mat)
    return OperatorSpec(**kwargs)


def build_tensors(cfg):
    if cfg["elasticity"] is None:
        return None, None
    geometry = build_geometry(cfg)
    blocks = cfg["elasticity"]
    tb = ElasticTensorField.from_lame(tuple(blocks["B"]["matrix"]),
                                      tuple(blocks["B"]["inclusion"]),
                                      geometry)
    tc = ElasticTensorField.from_lame(tuple(blocks["C"]["matrix"]),
                                      tuple(blocks["C"]["inclusion"]),
                                      geometry)
    return tb, tc


def build_source_f(cfg):
    f_src = cfg["sources"]["f"]
    if f_src == "bump":
        return study_source
    if isinstance(f_src, str) and f_src.startswith("constant:"):
        return float(f_src.split(":", 1)[1])
    return float(f_src)


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def provenance_block(cfg):
    return {"config_hash": config_hash(cfg), "grids": cfg["grids"],
            "tolerances": cfg["tolerances"], "seed": cfg["seed"]}


# ---------------------------------------------------------------------------
# Report writing
# ---------------------------------------------------------------------------

def write_json(payload, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_corrector_csv(report, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("epsilon,E_exp,E_avg,E_dm,E_nocorr\n")
        for i, eps in enumerate(report.ladder):
            row = [eps, report.errors["E_exp"][i], report.errors["E_avg"][i],
                   report.errors["E_dm"][i], report.errors["E_nocorr"][i]]
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _tensor_nested(arr):
    return np.asarray(arr).tolist()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_cell(cfg, out_dir, _unused=1):
    spec = build_spec(cfg)
    grid = CellGrid(cfg["grids"]["cell_n"])
    tol = cfg["tolerances"]["cell"]
    summary = {"provenance": provenance_block(cfg), "scalar": {},
               "elastic": {}, "electrostriction": {}}
    # one solver: e_1, e_2 as one batch (nonlinear laws) and their flux
    # identities
    solver = BatchScalarCellSolver(spec, grid, tol)
    sols = solve_scalar_cells(spec, np.eye(2), grid, tol, solver)
    unit_etas = np.stack([sol.values for sol in sols])
    _, idents = solver.attached_residuals(np.eye(2), unit_etas)
    for k, sol in enumerate(sols):
        name = f"cell_potential_e{k + 1}"
        dump_field(ScalarField(grid, sol.values), name,
                   str(out_dir / f"{name}.field"))
        summary["scalar"][f"e{k + 1}"] = {
            "residual": sol.residual, "iterations": sol.iterations,
            "flux_identity": float(idents[k]),
        }
    tensor_b, tensor_c = build_tensors(cfg)
    if tensor_b is not None:
        b_eff, c_eff = assemble_elastic_tensors(tensor_b, tensor_c,
                                                unit_etas, grid)
        for (i, j), sol in b_eff.solutions.items():
            name = f"cell_displacement_{i + 1}{j + 1}"
            dump_field(VectorField(grid, sol.values), name,
                       str(out_dir / f"{name}.field"))
            summary["elastic"][f"{i + 1}{j + 1}"] = {
                "residual": sol.residual, "iterations": sol.iterations}
        for (i, j), chi in c_eff.solutions.items():
            summary["electrostriction"][f"{i + 1}{j + 1}"] = {
                "residual": chi.residual, "iterations": chi.iterations}
    write_json(summary, out_dir / "cell_report.json")
    return 0


def cmd_effective(cfg, out_dir, _unused=1):
    spec = build_spec(cfg)
    grid = CellGrid(cfg["grids"]["cell_n"])
    law = EffectiveLaw(spec, grid, cfg["tolerances"]["cell"])
    report = {"provenance": provenance_block(cfg)}
    # one solve of the unit loadings serves a_hom and C_hom
    a_unit, unit_etas = law.solve(np.eye(2))
    report["a_hom_unit_loadings"] = _tensor_nested(a_unit)
    if spec.is_linear:
        report["b_hom"] = _tensor_nested(a_unit.T)
    props = check_a_hom_properties(law, seed=cfg["seed"])
    report["a_hom_properties"] = {
        "theta": props.theta, "pairs": props.pairs,
        "min_monotonicity": props.min_monotonicity,
        "max_continuity": props.max_continuity,
        "violation": props.violation,
    }
    tensor_b, tensor_c = build_tensors(cfg)
    if tensor_b is not None:
        b_eff, c_eff = assemble_elastic_tensors(tensor_b, tensor_c,
                                                unit_etas, grid)
        report["B_hom"] = _tensor_nested(b_eff.tensor)
        report["C_hom"] = _tensor_nested(c_eff.pair_matrices)
    write_json(report, out_dir / "effective.json")
    return 0


def cmd_fine(cfg, out_dir, _unused=1):
    spec = build_spec(cfg)
    tensor_b, tensor_c = build_tensors(cfg)
    f = build_source_f(cfg)
    g = np.array(cfg["sources"]["g"])
    summary = {"provenance": provenance_block(cfg), "rungs": []}
    for eps in cfg["ladder"]:
        domain = DomainGrid(int(round(cfg["grids"]["cell_n"] / eps)))
        fine = solve_fine_electrostatic(spec, eps, f, domain,
                                        cfg["tolerances"]["cell"])
        entry = {"eps": eps, "grid_n": domain.n,
                 "residuals": fine.residuals,
                 "iterations": fine.iterations, "energy": fine.energy}
        tag = f"{int(round(1 / eps))}"
        dump_field(fine.potential, f"potential_eps_1_{tag}",
                   str(out_dir / f"fine_potential_eps_1_{tag}.field"))
        if tensor_b is not None:
            u, resid = solve_fine_elasticity(tensor_b, tensor_c, eps, g,
                                             fine.potential, domain)
            entry["elastic_residual"] = resid
            dump_field(u, f"displacement_eps_1_{tag}",
                       str(out_dir / f"fine_displacement_eps_1_{tag}.field"))
        summary["rungs"].append(entry)
    write_json(summary, out_dir / "fine_report.json")
    return 0


def cmd_homogenized(cfg, out_dir, _unused=1):
    spec = build_spec(cfg)
    grid = CellGrid(cfg["grids"]["cell_n"])
    law = EffectiveLaw(spec, grid, cfg["tolerances"]["cell"])
    domain = DomainGrid(cfg["grids"]["solve_n"])
    f = build_source_f(cfg)
    macro = solve_homogenized_electrostatic(law, f, domain,
                                            cfg["tolerances"]["macro"])
    report = {"provenance": provenance_block(cfg),
              "iterations": macro.iterations,
              "residual": macro.residual,
              "residual_history": macro.residual_history,
              "law": law.provenance()}
    dump_field(macro.potential, "effective_potential",
               str(out_dir / "effective_potential.field"))
    tensor_b, tensor_c = build_tensors(cfg)
    if tensor_b is not None:
        b_eff, c_eff = assemble_elastic_tensors(
            tensor_b, tensor_c, law.solutions_for(np.eye(2)), grid)
        u0, resid = solve_homogenized_elasticity(
            b_eff, c_eff, np.array(cfg["sources"]["g"]), macro.potential,
            domain)
        report["elastic_residual"] = resid
        dump_field(u0, "effective_displacement",
                   str(out_dir / "effective_displacement.field"))
    write_json(report, out_dir / "homogenized_report.json")
    return 0


def cmd_corrector_study(cfg, out_dir, _unused=1):
    spec = build_spec(cfg)
    tensor_b, tensor_c = build_tensors(cfg)
    report = run_corrector_study(
        spec, cfg["ladder"], **cfg["grids"], f=build_source_f(cfg),
        tensor_b=tensor_b, tensor_c=tensor_c,
        g_src=np.array(cfg["sources"]["g"]),
        cell_tol=cfg["tolerances"]["cell"],
        macro_tol=cfg["tolerances"]["macro"])
    write_corrector_csv(report, out_dir / "corrector_study.csv")
    payload = report.to_dict()
    payload["provenance"].update(provenance_block(cfg))
    write_json(payload, out_dir / "corrector_report.json")
    return 0


def cmd_verify(cfg, out_dir, _unused=1):
    spec = build_spec(cfg)
    grid = CellGrid(cfg["grids"]["cell_n"])
    checks = {}
    ok = True

    law = EffectiveLaw(spec, grid, cfg["tolerances"]["cell"])
    props = check_a_hom_properties(law, seed=cfg["seed"])
    checks["a_hom_properties"] = {
        "theta": props.theta, "min_monotonicity": props.min_monotonicity,
        "max_continuity": props.max_continuity, "violation": props.violation}
    ok &= not props.violation

    unit_etas = law.solutions_for(np.eye(2))
    _, defects = law.batch.attached_residuals(np.eye(2), unit_etas)
    idents = {f"e{k + 1}": float(defects[k]) for k in range(2)}
    checks["flux_identities"] = idents
    ok &= all(v <= 1e-9 for v in idents.values())

    tensor_b, tensor_c = build_tensors(cfg)
    if tensor_b is not None:
        t = assemble_elastic_tensors(tensor_b, tensor_c, unit_etas,
                                     grid)[0].tensor
        # relative to the largest entry, so that round-off on stiff
        # moduli does not read as a defect
        major = float(np.abs(t - np.transpose(t, (2, 3, 0, 1))).max()
                      / np.abs(t).max())
        mat = t.reshape(4, 4)
        sym_basis = np.array([[1, 0, 0, 0], [0, 0, 0, 1],
                              [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0]])
        gram = sym_basis @ mat @ sym_basis.T
        eigmin = float(np.linalg.eigvalsh(0.5 * (gram + gram.T)).min())
        checks["B_hom"] = {"major_symmetry_defect": major,
                           "min_eigenvalue_on_symmetric": eigmin}
        ok &= major <= 1e-10 and eigmin > 0
    checks["pass"] = bool(ok)
    payload = {"provenance": provenance_block(cfg), "checks": checks}
    write_json(payload, out_dir / "verify.json")
    return 0 if ok else 4


# Each command takes a third positional argument that it ignores:
# perfbench/child.py calls ``COMMANDS[name](cfg, out, 1)``.  It goes when
# perfbench stops calling hk by name (ROADMAP item 6).
COMMANDS = {
    "cell": cmd_cell,
    "effective": cmd_effective,
    "fine": cmd_fine,
    "homogenized": cmd_homogenized,
    "corrector-study": cmd_corrector_study,
    "verify": cmd_verify,
}


def load_config(path_or_preset):
    if path_or_preset in PRESETS and not os.path.exists(path_or_preset):
        return json.loads(json.dumps(PRESETS[path_or_preset]))
    try:
        with open(path_or_preset) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(
            f"config {path_or_preset!r} is neither a file nor a preset "
            f"({', '.join(sorted(PRESETS))})", "")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", "")


def run(subcommand, config_path, out_dir="out"):
    """Execute one subcommand pipeline; returns the process exit code."""
    try:
        cfg = validate_config(load_config(config_path), subcommand)
    except ConfigError as exc:
        print(f"config error at {exc.pointer or '/'}: {exc}", file=sys.stderr)
        return 3
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[subcommand](cfg, out)
    except (NonConvergence, SingularSystem) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hk",
        description="Periodic homogenization experiments for coupled "
                    "electrostatic/elastic composites.")
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True,
                        help="path to a JSON config, or a preset name: "
                             + ", ".join(sorted(PRESETS)))
    parser.add_argument("--out", default="out", help="output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of solver
        # non-convergence; usage errors share the config-error code
        if exc.code == 2:
            raise SystemExit(3) from None
        raise
    return run(args.subcommand, args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
