import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from hk.cell_problems import solve_scalar_cell
from hk.cli import (PRESETS, build_geometry, build_source_f, build_spec,
                    build_tensors,
                    config_hash, load_config, main, run, validate_config)
from hk.core_fields import CellGrid
from hk.corrector import EpsPartition, check_study_grids
from hk.errors import ConfigError
from hk.fine_scale import periods_per_side

from oracles import load_field, spy_batch_solves


def small_config(tmp_path, **overrides):
    cfg = json.loads(json.dumps(PRESETS["laminate-p2"]))
    cfg["grids"] = {"cell_n": 8, "solve_n": 16, "sample_n": 32}
    cfg["ladder"] = [0.25, 0.125]
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_validate_missing_p_pointer():
    cfg = json.loads(json.dumps(PRESETS["laminate-p2"]))
    del cfg["operator"]["p"]
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert info.value.pointer == "/operator/p"


def test_validate_bad_schema():
    with pytest.raises(ConfigError) as info:
        validate_config({"schema": 99})
    assert info.value.pointer == "/schema"


def test_validate_empty_ladder_pointer():
    cfg = json.loads(json.dumps(PRESETS["laminate-p2"]))
    cfg["ladder"] = []
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert info.value.pointer == "/ladder"


def test_validate_incommensurate_ladder_entry():
    cfg = json.loads(json.dumps(PRESETS["laminate-p2"]))
    cfg["ladder"] = [0.25, 0.2, 0.15]
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert info.value.pointer == "/ladder/2"


def test_missing_config_exits_3(tmp_path, capsys):
    assert run("verify", str(tmp_path / "nope.json"), str(tmp_path)) == 3
    assert "config" in capsys.readouterr().err


def test_config_directory_exits_3(tmp_path, capsys):
    assert run("verify", str(tmp_path), str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "cannot read config" in err and "Traceback" not in err


def test_config_not_utf8_exits_3(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"schema": 1, "note": "\u00e9"}'.encode("latin-1"))
    assert run("verify", str(path), str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "cannot read config" in err and "Traceback" not in err


def test_out_is_an_existing_file_exits_3(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert run("verify", "laminate-p2", str(out)) == 3
    err = capsys.readouterr().err
    assert "--out" in err and "Traceback" not in err
    assert out.read_text() == ""


def test_schema_error_exit_code(tmp_path, capsys):
    path, cfg = small_config(tmp_path)
    broken = json.loads(path.read_text())
    del broken["operator"]["p"]
    path.write_text(json.dumps(broken))
    assert run("verify", str(path), str(tmp_path / "out")) == 3
    assert "/operator/p" in capsys.readouterr().err


def test_verify_identity_config_passes(tmp_path):
    path, _ = small_config(
        tmp_path,
        operator={"family": "linear", "p": 2.0, "alpha": 1.0,
                  "sigma": [1.0, 1.0]},
        geometry={"kind": "uniform"})
    out = tmp_path / "out"
    assert run("verify", str(path), str(out)) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["checks"]["pass"] is True


def test_verify_checks_only_what_can_fail_on_every_preset(tmp_path):
    # the laws and B that validate are monotone and elliptic by
    # construction, so verify audits neither; it checks a_hom's sampled
    # monotonicity, the flux identities and B_hom's symmetry and spectrum
    for name in PRESETS:
        assert run("verify", name, str(tmp_path / name)) == 0, name
        checks = json.loads(
            (tmp_path / name / "verify.json").read_text())["checks"]
        assert set(checks) == {"a_hom_properties", "flux_identities",
                               "B_hom", "pass"}, name
        assert set(checks["a_hom_properties"]) == {
            "theta", "min_monotonicity", "max_continuity", "violation"}
        assert set(checks["flux_identities"]) == {"e1", "e2"}
        assert set(checks["B_hom"]) == {"major_symmetry_defect",
                                        "min_eigenvalue_on_symmetric"}
        assert checks["pass"] is True


def test_verify_passes_on_stiff_elastic_moduli(tmp_path):
    # B_hom's major-symmetry defect is relative to its largest entry: at
    # moduli near 1e6 its round-off, 2e-10 in absolute terms, is no defect
    path, _ = small_config(
        tmp_path, geometry={"kind": "checkerboard"},
        elasticity={"B": {"matrix": [1.3e6, 0.7e6],
                          "inclusion": [3.1e6, 2.3e6]},
                    "C": {"matrix": [0.5, 0.5], "inclusion": [1.5, 1.0]}})
    out = tmp_path / "out"
    assert run("verify", str(path), str(out)) == 0
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert checks["B_hom"]["major_symmetry_defect"] <= 1e-12


def test_effective_report_contents(tmp_path):
    path, _ = small_config(tmp_path)
    out = tmp_path / "out"
    assert run("effective", str(path), str(out)) == 0
    payload = json.loads((out / "effective.json").read_text())
    bhom = np.array(payload["b_hom"])
    assert abs(bhom[0, 0] - 1.6) < 1e-3 * 1.6
    assert abs(bhom[1, 1] - 2.5) < 1e-3 * 2.5
    assert np.array(payload["C_hom"]).shape == (2, 2, 2, 2)
    assert "C_hom_default_variant" not in payload
    assert "chom_variant" not in payload["provenance"]
    assert payload["provenance"]["config_hash"]


def test_effective_report_of_a_constant_linear_law(tmp_path):
    # uniform geometry: a constant law, whose b_hom is its matrix
    path, _ = small_config(tmp_path, geometry={"kind": "uniform"})
    out = tmp_path / "out"
    assert run("effective", str(path), str(out)) == 0
    payload = json.loads((out / "effective.json").read_text())
    assert payload["b_hom"] == [[1.0, 0.0], [0.0, 1.0]]
    assert payload["a_hom_unit_loadings"] == payload["b_hom"]
    # a uniform p = 3 law takes the general path, whose cell solves end
    # at eta = 0: a_hom(e_k) = sigma e_k
    path, cfg = small_config(
        tmp_path, operator={"family": "power-law", "p": 3.0, "alpha": 1.0,
                            "sigma": [2.0, 2.0]},
        geometry={"kind": "uniform"})
    assert run("effective", str(path), str(tmp_path / "p3")) == 0
    payload = json.loads((tmp_path / "p3" / "effective.json").read_text())
    sigma = cfg["operator"]["sigma"][0]
    a_unit = np.array(payload["a_hom_unit_loadings"])
    assert np.abs(a_unit - sigma * np.eye(2)).max() <= 1e-14 * sigma
    assert run("homogenized", str(path), str(tmp_path / "p3-macro")) == 0
    report = json.loads(
        (tmp_path / "p3-macro" / "homogenized_report.json").read_text())
    assert report["law"]["mode"] == "general"


def test_corrector_study_csv_rows(tmp_path):
    path, cfg = small_config(tmp_path)
    out = tmp_path / "out"
    assert run("corrector-study", str(path), str(out)) == 0
    lines = (out / "corrector_study.csv").read_text().strip().splitlines()
    assert lines[0] == "epsilon,E_exp,E_avg,E_dm,E_nocorr"
    assert len(lines) == 1 + len(cfg["ladder"])
    report = json.loads((out / "corrector_report.json").read_text())
    assert len(report["errors"]["E_exp"]) == len(cfg["ladder"])


def test_outputs_bitwise_reproducible(tmp_path):
    path, _ = small_config(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run("corrector-study", str(path), str(out1)) == 0
    assert run("corrector-study", str(path), str(out2)) == 0
    assert (out1 / "corrector_study.csv").read_bytes() \
        == (out2 / "corrector_study.csv").read_bytes()
    assert (out1 / "corrector_report.json").read_bytes() \
        == (out2 / "corrector_report.json").read_bytes()


def test_linear_study_reports_attached_cell_residuals(tmp_path):
    # the linear law's corrector solutions get the same weak-form
    # residual check as the batched ones, not a row of zeros
    path, _ = small_config(tmp_path, elasticity=None,
                           grids={"cell_n": 8, "solve_n": 8, "sample_n": 16},
                           ladder=[0.5, 0.25, 0.125])
    out = tmp_path / "out"
    assert run("corrector-study", str(path), str(out)) == 0
    report = json.loads((out / "corrector_report.json").read_text())
    assert 0.0 < report["cell_residual_max"] <= 1e-9
    assert report["identity_residual_max"] <= 1e-9


def test_cell_and_homogenized_commands(tmp_path):
    path, _ = small_config(tmp_path)
    out = tmp_path / "out"
    assert run("cell", str(path), str(out)) == 0
    report = json.loads((out / "cell_report.json").read_text())
    assert report["scalar"]["e1"]["flux_identity"] <= 1e-9
    assert (out / "cell_potential_e1.field").exists()
    assert run("homogenized", str(path), str(out)) == 0
    assert (out / "effective_potential.field").exists()


def test_homogenized_elastic_load_reads_the_recovered_gradient(tmp_path):
    # hk homogenized dumps the study's u0: the elastic load reads the
    # recovered gradient of phi0, as run_corrector_study's does, and not
    # phi0's raw Q1 gradient
    from hk.core_fields import DomainGrid
    from hk.effective import EffectiveLaw, assemble_elastic_tensors
    from hk.homogenized import (macroscopic_gradient_field,
                                solve_homogenized_elasticity,
                                solve_homogenized_electrostatic)
    out = tmp_path / "out"
    assert run("homogenized", "laminate-p2", str(out)) == 0
    cfg = validate_config(load_config("laminate-p2"), "homogenized")
    grid = CellGrid(cfg["grids"]["cell_n"])
    domain = DomainGrid(cfg["grids"]["solve_n"])
    law = EffectiveLaw(build_spec(cfg), grid, cfg["tolerances"]["cell"])
    macro = solve_homogenized_electrostatic(law, build_source_f(cfg), domain,
                                            cfg["tolerances"]["macro"])
    tensor_b, tensor_c = build_tensors(cfg)
    b_eff, c_eff = assemble_elastic_tensors(
        tensor_b, tensor_c, law.solutions_for(np.eye(2)), grid)
    g = np.array(cfg["sources"]["g"])
    recovered, _ = solve_homogenized_elasticity(
        b_eff, c_eff, g, macro.potential, domain,
        gradient_field=macroscopic_gradient_field(macro.potential))
    dumped = load_field(out / "effective_displacement.field", domain)
    assert np.array_equal(dumped.values, recovered.values)
    raw, _ = solve_homogenized_elasticity(b_eff, c_eff, g, macro.potential,
                                          domain)
    assert not np.array_equal(dumped.values, raw.values)


def test_fine_command_dumps_fields(tmp_path):
    path, cfg = small_config(tmp_path)
    out = tmp_path / "out"
    assert run("fine", str(path), str(out)) == 0
    for eps in cfg["ladder"]:
        tag = int(round(1 / eps))
        assert (out / f"fine_potential_eps_1_{tag}.field").exists()
        assert (out / f"fine_displacement_eps_1_{tag}.field").exists()


def test_failed_verify_check_exits_4(tmp_path):
    # a loose cell tolerance leaves the flux identity e1 near 8e-8, above
    # the 1e-9 check; a failed check is not a solver failure (exit 2)
    cfg = json.loads(json.dumps(PRESETS["laminate-p3"]))
    cfg["elasticity"] = None
    cfg["grids"] = {"cell_n": 8, "solve_n": 8, "sample_n": 16}
    cfg["ladder"] = [0.5, 0.25, 0.125]
    cfg["tolerances"]["cell"] = 1e-4
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run("verify", str(path), str(out)) == 4
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert checks["pass"] is False
    assert checks["flux_identities"]["e1"] > 1e-9


def test_verify_fails_on_a_decreasing_effective_law(tmp_path, monkeypatch):
    from hk.effective import EffectiveLaw
    eval_batch = EffectiveLaw.eval_batch
    monkeypatch.setattr(EffectiveLaw, "eval_batch",
                        lambda self, loadings: -eval_batch(self, loadings))
    path, _ = small_config(tmp_path)
    out = tmp_path / "out"
    assert run("verify", str(path), str(out)) == 4
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert checks["pass"] is False
    assert checks["a_hom_properties"]["violation"] is True
    assert checks["a_hom_properties"]["min_monotonicity"] < 0.0


def test_verify_fails_on_an_asymmetric_b_hom(tmp_path, monkeypatch):
    import hk.cli
    assemble = hk.cli.assemble_elastic_tensors

    def skewed(*args):
        b_hom, c_hom = assemble(*args)
        b_hom.tensor[0, 0, 1, 1] *= 1.0 + 1e-8
        return b_hom, c_hom

    monkeypatch.setattr(hk.cli, "assemble_elastic_tensors", skewed)
    path, _ = small_config(tmp_path)
    out = tmp_path / "out"
    assert run("verify", str(path), str(out)) == 4
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert checks["pass"] is False
    assert checks["B_hom"]["major_symmetry_defect"] > 1e-10
    assert checks["B_hom"]["min_eigenvalue_on_symmetric"] > 0.0


def test_nonconvergence_exit_code(tmp_path, capsys):
    path, _ = small_config(tmp_path, tolerances={"cell": 1e-30,
                                                 "macro": 1e-9})
    cfg = json.loads(path.read_text())
    cfg["operator"] = {"family": "power-law", "p": 3.0, "alpha": 1.0,
                       "sigma": [1.0, 4.0]}
    path.write_text(json.dumps(cfg))
    assert run("cell", str(path), str(tmp_path / "out")) == 2
    assert "solver failure" in capsys.readouterr().err


def test_pcg_cap_exits_2_naming_the_grid(tmp_path, capsys, monkeypatch):
    # an N = 128 fine solve runs multigrid PCG; at its cap it fails with a
    # message, and nothing factors the fine system instead
    from hk import _fem
    path, _ = small_config(tmp_path, ladder=[0.0625])
    monkeypatch.setattr(_fem, "PCG_MAX_ITER", 1)
    assert run("fine", str(path), str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and "N=128" in err
    assert "Traceback" not in err


def test_all_reports_carry_provenance(tmp_path):
    path, _ = small_config(tmp_path)
    out = tmp_path / "out"
    for sub, fname in (("effective", "effective.json"),
                       ("homogenized", "homogenized_report.json"),
                       ("fine", "fine_report.json"),
                       ("cell", "cell_report.json")):
        assert run(sub, str(path), str(out)) == 0
        payload = json.loads((out / fname).read_text())
        assert payload["provenance"]["config_hash"]
        assert payload["provenance"]["grids"]
        assert payload["provenance"]["tolerances"]


def test_validate_grid_power_of_two(tmp_path):
    cfg = json.loads(json.dumps(PRESETS["laminate-p2"]))
    cfg["grids"]["cell_n"] = 12
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert info.value.pointer == "/grids/cell_n"


@pytest.mark.parametrize("overrides, pointer", [
    ({"grids": {"cell_n": 2 ** 20, "solve_n": 16, "sample_n": 32}},
     "/grids/cell_n"),
    # cell_n / eps = 1024 at the last rung; the cell tables (805 MB) pass
    ({"grids": {"cell_n": 16, "solve_n": 16, "sample_n": 128},
      "ladder": [0.25, 0.125, 0.0625, 0.03125, 0.015625]}, "/ladder/4"),
    ({"grids": {"cell_n": 64, "solve_n": 16, "sample_n": 64}}, "/grids"),
])
def test_oversized_grid_exits_3_before_building_grids(tmp_path, capsys,
                                                      monkeypatch, overrides,
                                                      pointer):
    from hk.core_fields import CellGrid, DomainGrid

    def refuse(self, *args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(CellGrid, "__init__", refuse)
    monkeypatch.setattr(DomainGrid, "__init__", refuse)
    path, _ = small_config(tmp_path, **overrides)
    assert run("corrector-study", str(path), str(tmp_path / "out")) == 3
    assert capsys.readouterr().err.startswith(f"config error at {pointer}:")


def test_preset_loading_by_name():
    cfg = load_config("laminate-p3")
    assert cfg["operator"]["family"] == "power-law"
    with pytest.raises(ConfigError):
        load_config("not-a-preset")


@pytest.mark.parametrize("name, digest", [
    ("laminate-p2", "ec6946ac77dfef31"),
    ("laminate-p3", "4aa37adc44873e07"),
    ("checkerboard-p2", "dfb2bdea3ba29ffc"),
    ("variable-exponent", "f91747e53efab5ca"),
])
def test_preset_config_hash_pinned(name, digest):
    # reports carry config hashes; building the presets from a shared base
    # must not change a single byte of any preset
    assert config_hash(load_config(name)) == digest


def test_main_entry_point(tmp_path):
    path, _ = small_config(
        tmp_path,
        operator={"family": "linear", "p": 2.0, "alpha": 1.0,
                  "sigma": [1.0, 1.0]},
        geometry={"kind": "uniform"})
    code = main(["verify", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 0


@pytest.mark.parametrize("argv, env", [
    (["--threads", "0"], None),
    (["--threads", "-3"], None),
    (["--threads", "2"], "2"),
    (["--nope"], None),
])
def test_usage_errors_exit_3(monkeypatch, capsys, argv, env):
    # 2 is the code of solver non-convergence, so usage errors share the
    # config-error code; nothing runs.  --threads is retired: it is an
    # unknown flag, never silently ignored, and the HK_THREADS variable
    # it once fell back to does not bring it back
    if env is not None:
        monkeypatch.setenv("HK_THREADS", env)
    monkeypatch.setattr("hk.cli.run", lambda *args: pytest.fail("ran"))
    with pytest.raises(SystemExit) as info:
        main(["verify", "--config", "laminate-p2"] + argv)
    assert info.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: hk")
    assert "Traceback" not in err


def test_effective_solves_unit_loadings_once(tmp_path, monkeypatch):
    # a_hom at e_1, e_2 and C_hom share one two-row solve
    from hk.cell_problems import BatchScalarCellSolver
    from hk.effective import assemble_elastic_tensors
    built = []
    init = BatchScalarCellSolver.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BatchScalarCellSolver, "__init__", counting_init)
    calls = spy_batch_solves(monkeypatch)
    path, cfg = small_config(tmp_path, operator=PRESETS["laminate-p3"][
        "operator"])
    out = tmp_path / "out"
    assert run("effective", str(path), str(out)) == 0
    # the law's solver: the unit loadings, then the audit's two batches
    assert built == [1]
    assert [len(c.loadings) for c in calls] == [2, 100, 100]
    payload = json.loads((out / "effective.json").read_text())
    monkeypatch.undo()
    cfg = validate_config(cfg)
    spec = build_spec(cfg)
    tensor_b, tensor_c = build_tensors(cfg)
    grid = CellGrid(8)
    unit_etas = [solve_scalar_cell(spec, e, grid,
                                   cfg["tolerances"]["cell"]).values
                 for e in np.eye(2)]
    ref = assemble_elastic_tensors(tensor_b, tensor_c, unit_etas, grid)[1]
    assert np.abs(np.array(payload["C_hom"])
                  - ref.pair_matrices).max() <= 1e-12


def test_effective_factors_each_cell_stiffness_once(tmp_path, monkeypatch):
    # the benchmark's effective-p3-n16 run: one factorization of the B
    # stiffness serves the unit strains and the electrostriction sources;
    # the p = 3 law factors nothing
    from hk import _fem
    calls = []
    splu = _fem._splu

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(_fem, "_splu", counted)
    cfg = load_config("laminate-p3")
    cfg["grids"]["cell_n"] = 16
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run("effective", str(path), str(tmp_path / "out")) == 0
    assert calls == [(510, 510)]


def _workload_config(name):
    """The subcommand and seed-0 config of a perfbench workload."""
    import importlib.util
    from pathlib import Path
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name]
    return workload.subcommand, workload.config(PRESETS, 0)


@pytest.mark.parametrize("name, band, superlu", [
    ("study-p3", 23, []),
    ("study-p2-coupled", 8, [63, 126]),
    ("effective-p3-n16", 0, [510]),
])
def test_workload_dirichlet_solves_factor_by_band(tmp_path, monkeypatch,
                                                  name, band, superlu):
    # every direct Dirichlet solve of the benchmark's workloads (the fine
    # Newton and elastic steps, the macro steps, the V-cycles' coarsest
    # grids) is a banded Cholesky factorization; SuperLU factors only the
    # periodic pinned cell blocks, of n^2 d - d dofs
    from test_fine_scale import _factorizations
    command, cfg = _workload_config(name)
    banded, general = _factorizations(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run(command, str(path), str(tmp_path / "out")) == 0
    assert len(banded) == band
    assert general == superlu


def test_effective_cold_batches_solve_by_continuation(tmp_path,
                                                      monkeypatch):
    # the benchmark's effective-p3-n16 run: the audit's two cold batches of
    # 100 start most rows from an anchor row's tangent predictor (743
    # batched Newton row-steps when every row starts from eta = 0)
    calls = spy_batch_solves(monkeypatch)
    cfg = load_config("laminate-p3")
    cfg["grids"]["cell_n"] = 16
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run("effective", str(path), str(tmp_path / "out")) == 0
    assert len(calls) == 3
    assert sum(c.row_steps for c in calls) <= 560


def test_effective_cold_batches_interpolate_on_the_circle(tmp_path,
                                                          monkeypatch):
    # the p = 3 laminate is homogeneous: the audit's batches anchor at
    # evenly spaced angles and start the other rows from the Hermite
    # interpolant on the circle (350 row-steps; 521 from the nearest
    # anchor's first-order predictor)
    calls = spy_batch_solves(monkeypatch)
    command, cfg = _workload_config("effective-p3-n16")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run(command, str(path), str(tmp_path / "out")) == 0
    assert len(calls) == 3
    assert sum(c.row_steps for c in calls) <= 400


def test_study_p3_warm_starts_interpolate_on_the_circle(tmp_path,
                                                        monkeypatch):
    # the benchmark's study-p3 run: the cold batches, the macro Newton's
    # trials and the corrector reconstruction all start from the circle
    # interpolant (1,420 row-steps; 3,158 from first-order predictors)
    calls = spy_batch_solves(monkeypatch)
    command, cfg = _workload_config("study-p3")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run(command, str(path), str(tmp_path / "out")) == 0
    assert sum(c.row_steps for c in calls) <= 1600


def test_python_m_hk_runs_the_cli():
    # ``python -m hk`` runs from a checkout, with src on the path
    import os
    import subprocess
    import sys
    from pathlib import Path
    import hk
    src = str(Path(hk.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-m", "hk", "--help"],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: hk ")
    assert "--threads" not in done.stdout


def _reports_on_blas_threads(tmp_path, command, path, report):
    """``report`` of ``hk command`` run on one and on two BLAS threads."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    import hk
    src = str(Path(hk.__file__).resolve().parent.parent)
    reports = []
    for blas in ("1", "2"):
        out = tmp_path / f"blas-{blas}"
        done = subprocess.run(
            [sys.executable, "-m", "hk", command, "--config", str(path),
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=blas),
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        reports.append(json.loads((out / report).read_text()))
    return reports


def test_study_report_does_not_depend_on_blas_threads(tmp_path):
    # a linear laminate with elasticity whose finest rung is N = 128: its
    # residual vectors are long enough for BLAS to split a dot product
    # over threads, which moved their norms' last bits
    path, _ = small_config(tmp_path, grids={"cell_n": 16, "solve_n": 16,
                                            "sample_n": 32})
    one, two = _reports_on_blas_threads(tmp_path, "corrector-study", path,
                                        "corrector_report.json")
    assert len(one["fine_residuals"]) == 2 and one["elasticity_gaps"]
    assert one["fine_residuals"] == two["fine_residuals"]
    assert one["macro_history"] == two["macro_history"]
    # the linear law's attached check and the two-scale stress pairing
    # are sparse products and numpy sums
    assert one["maxwell_gaps"] == two["maxwell_gaps"]
    assert one["cell_residual_max"] == two["cell_residual_max"]
    assert one["identity_residual_max"] == two["identity_residual_max"]


def test_macro_start_does_not_depend_on_blas_threads(tmp_path):
    # a homogeneous p = 3 law, uniform so its cell solves end at eta = 0
    # with no Newton step, at solve_n 128: the start's rescale takes inner products over
    # 16,129 interior nodes, long enough for BLAS to split a dot product
    # over threads, which moved the start and every Newton residual after
    path, _ = small_config(
        tmp_path, operator=PRESETS["laminate-p3"]["operator"],
        geometry={"kind": "uniform"}, elasticity=None,
        grids={"cell_n": 4, "solve_n": 128, "sample_n": 128})
    one, two = _reports_on_blas_threads(tmp_path, "homogenized", path,
                                        "homogenized_report.json")
    assert len(one["residual_history"]) > 2
    assert one["residual_history"] == two["residual_history"]


def test_effective_report_does_not_depend_on_blas_threads(tmp_path):
    # a laminate p = 3 audit at cell_n 16: its batches solve by
    # continuation from the circle predictor, whose sums are elementwise
    path, _ = small_config(tmp_path, operator=PRESETS["laminate-p3"][
        "operator"], grids={"cell_n": 16, "solve_n": 16, "sample_n": 32})
    _reports_on_blas_threads(tmp_path, "effective", path, "effective.json")
    one, two = (tmp_path / f"blas-{blas}" / "effective.json"
                for blas in ("1", "2"))
    assert one.read_bytes() == two.read_bytes()


def test_homogeneous_study_does_not_depend_on_blas_threads(tmp_path):
    # a small laminate p = 3 study: the cold batches, the macro Newton's
    # trials and the corrector reconstruction start from the circle
    # predictor
    path, _ = small_config(tmp_path, operator=PRESETS["laminate-p3"][
        "operator"], elasticity=None, grids={"cell_n": 8, "solve_n": 8,
                                             "sample_n": 16})
    one, two = _reports_on_blas_threads(tmp_path, "corrector-study", path,
                                        "corrector_report.json")
    assert len(one["macro_history"]) > 2
    assert one["macro_history"] == two["macro_history"]
    assert one["errors"] == two["errors"]


def test_variable_exponent_study_does_not_depend_on_blas_threads(tmp_path):
    # a small variable-exponent study: the cold batches (the 81-row E_dm
    # batch included), the macro Newton's trials and the corrector
    # reconstruction start from the first-order predictor, whose batched
    # products W[pair] @ step run in every one of them
    variable = PRESETS["variable-exponent"]
    path, _ = small_config(
        tmp_path, operator=variable["operator"],
        geometry=variable["geometry"], elasticity=None,
        grids={"cell_n": 8, "solve_n": 8, "sample_n": 16})
    one, two = _reports_on_blas_threads(tmp_path, "corrector-study", path,
                                        "corrector_report.json")
    assert len(one["macro_history"]) > 2
    assert one["macro_history"] == two["macro_history"]
    assert one["errors"] == two["errors"]


@pytest.mark.parametrize("value", ["as-written", "other", None, 1])
def test_retired_chom_variant_exits_3(tmp_path, capsys, value):
    # an old config that asks for another electrostriction average fails
    # rather than running this one; the one average may still be named
    path, _ = small_config(tmp_path, chom_variant=value)
    assert run("effective", str(path), str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error at /chom_variant:")
    assert "retired" in err
    with pytest.raises(ConfigError) as info:
        validate_config(json.loads(path.read_text()))
    assert info.value.pointer == "/chom_variant"
    path, _ = small_config(tmp_path, chom_variant="C-applied")
    assert "chom_variant" not in validate_config(json.loads(path.read_text()))


def test_retired_fine_m_equal_to_cell_n_runs_the_same_study(tmp_path):
    # an old config that names the fine grids' resolution, at cell_n,
    # validates to the same grids and writes the same report
    path, cfg = small_config(tmp_path, elasticity=None)
    old_cfg = json.loads(json.dumps(cfg))
    old_cfg["grids"]["fine_m"] = cfg["grids"]["cell_n"]
    old_path = tmp_path / "old.json"
    old_path.write_text(json.dumps(old_cfg))
    assert validate_config(old_cfg) == validate_config(cfg)
    for config, name in ((path, "new"), (old_path, "old")):
        assert run("corrector-study", str(config), str(tmp_path / name)) == 0
    new, old = (json.loads((tmp_path / name / "corrector_report.json")
                           .read_text()) for name in ("new", "old"))
    assert old["errors"] == new["errors"]
    assert old["provenance"] == new["provenance"]
    assert new["provenance"]["cell_n"] == 8
    assert "fine_m" not in new["provenance"]
    assert set(new["provenance"]["grids"]) == {"cell_n", "solve_n",
                                               "sample_n"}


@pytest.mark.parametrize("value", [16, 4, "x", None])
def test_retired_fine_m_other_than_cell_n_exits_3(tmp_path, capsys, value):
    path, cfg = small_config(tmp_path)
    cfg["grids"]["fine_m"] = value
    path.write_text(json.dumps(cfg))
    assert run("corrector-study", str(path), str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error at /grids/fine_m:")
    assert "cell_n" in err and "Traceback" not in err


def test_fine_grids_run_at_cell_n_per_period(tmp_path):
    path, _ = small_config(tmp_path, elasticity=None,
                           grids={"cell_n": 4, "solve_n": 16, "sample_n": 32})
    out = tmp_path / "out"
    assert run("fine", str(path), str(out)) == 0
    rungs = json.loads((out / "fine_report.json").read_text())["rungs"]
    assert [rung["grid_n"] for rung in rungs] == [16, 32]


def test_elasticity_b_must_be_elliptic_and_c_need_not_be():
    cfg = load_config("laminate-p2")
    cfg["elasticity"]["B"]["inclusion"] = [-3.0, 1.0]
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert info.value.pointer == "/elasticity/B/inclusion"
    cfg = load_config("laminate-p2")
    cfg["elasticity"]["C"] = {"matrix": [-3.0, 1.0], "inclusion": [0.0, 0.0]}
    validate_config(cfg)


@pytest.mark.parametrize("subcommand", ["cell", "verify", "homogenized",
                                        "corrector-study"])
def test_one_cell_solver_per_run(tmp_path, monkeypatch, subcommand):
    # a_hom, C_hom and the flux identities all take the unit-loading cell
    # solutions from the run's one batched solver: the effective law's,
    # or in ``cell`` the one that also checks the flux identities
    import hk.cell_problems
    import hk.cli
    import hk.effective
    from hk.cell_problems import BatchScalarCellSolver, solve_scalar_cells
    built, single = [], []
    init = BatchScalarCellSolver.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_solve(*args, **kwargs):
        # a call without the run's solver would build one of its own
        if len(args) < 5 and kwargs.get("solver") is None:
            single.append(args[1])
        return solve_scalar_cells(*args, **kwargs)

    monkeypatch.setattr(BatchScalarCellSolver, "__init__", counting_init)
    for module in (hk.cell_problems, hk.effective, hk.cli):
        monkeypatch.setattr(module, "solve_scalar_cells", counting_solve)
    overrides = {"operator": PRESETS["laminate-p3"]["operator"]}
    if subcommand == "corrector-study":
        # the benchmark's study-p3 grids and ladder, elasticity kept
        overrides.update(grids={"cell_n": 8, "solve_n": 8, "sample_n": 16},
                         ladder=[0.5, 0.25, 0.125])
    path, cfg = small_config(tmp_path, **overrides)
    assert cfg["grids"]["cell_n"] == 8 and cfg["elasticity"] is not None
    assert run(subcommand, str(path), str(tmp_path / "out")) == 0
    assert built == [1]
    assert single == []


def test_study_sample_grid_misaligned_exits_3(tmp_path, capsys):
    cfg = json.loads(json.dumps(PRESETS["laminate-p3"]))
    cfg["grids"] = {"cell_n": 8, "solve_n": 8, "sample_n": 16}
    cfg["ladder"] = [0.25, 0.125, 0.0625]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run("corrector-study", str(path), str(tmp_path / "out")) == 3
    assert "/grids/sample_n" in capsys.readouterr().err
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert info.value.pointer == "/grids/sample_n"


@pytest.mark.parametrize("geometry", [{"kind": "laminate", "fraction": 0.3},
                                      {"kind": "square", "size": 0.3}])
def test_unresolved_geometry_is_rejected_where_fine_grids_are_built(geometry):
    # at the preset's cell_n 8
    cfg = json.loads(json.dumps(PRESETS["laminate-p2"]))
    cfg["geometry"] = geometry
    for subcommand in ("fine", "corrector-study"):
        with pytest.raises(ConfigError) as info:
            validate_config(cfg, subcommand)
        assert info.value.pointer == "/geometry"
    # the subcommands that build no fine grid take it, and a disc is exempt
    for subcommand in (None, "cell", "effective", "homogenized", "verify"):
        validate_config(cfg, subcommand)
    cfg["geometry"] = {"kind": "disc", "size": 0.3}
    validate_config(cfg, "fine")


# the presets' geometries, two whose interfaces fall between the nodes of
# the fine grids, and the disc, which no grid resolves and none need to
_GEOMETRIES = [json.loads(g) for g in sorted(
    {json.dumps(cfg["geometry"], sort_keys=True) for cfg in PRESETS.values()}
    | {json.dumps(g, sort_keys=True) for g in (
        {"kind": "laminate", "fraction": 0.3},
        {"kind": "square", "size": 0.3},
        {"kind": "disc", "size": 0.3})})]


def test_validated_fine_grids_pass_the_solves_checks():
    # every config that validates for the subcommands that build fine grids
    # passes each check the solves make before they solve: the fine grid
    # against the period, the cell grid and the geometry, the eps-cells and
    # the study's grids.  1/eps runs over 1..128 and cell_n over 4..64, up to
    # N = 512 (cell tables of at most 201 MB); no grid is built
    accepted = rejected = 0
    for geometry in _GEOMETRIES:
        for cell_n in (4, 8, 16, 32, 64):
            for k in range(1, 512 // cell_n + 1):
                for subcommand, ladder in (("fine", [1.0 / k]),
                                           ("corrector-study",
                                            [1.0, 1.0 / k])):
                    if len(ladder) == 2 and k == 1:
                        continue
                    cfg = json.loads(json.dumps(PRESETS["laminate-p2"]))
                    cfg.update(geometry=geometry, ladder=ladder, grids={
                        "cell_n": cell_n, "solve_n": 2, "sample_n": 2 * k})
                    try:
                        out = validate_config(cfg, subcommand)
                    except ConfigError:
                        rejected += 1
                        continue
                    accepted += 1
                    grids = out["grids"]
                    if subcommand == "corrector-study":
                        check_study_grids(out["ladder"], cell_n,
                                          grids["solve_n"], grids["sample_n"])
                    for eps in out["ladder"]:
                        # the fine grid as the solves build it
                        fine = SimpleNamespace(n=int(round(cell_n / eps)))
                        # each period is resolved by the cell grid, as
                        # the pairing of g_pair reads it
                        assert periods_per_side(
                            fine, eps, build_geometry(out)) == cell_n
                        EpsPartition(eps)
    # the two unresolved geometries fail at every cell_n, the others pass
    assert (accepted, rejected) == (4 * 491, 2 * 491)


def test_study_where_n_times_eps_rounds_off_exits_0(tmp_path):
    # 196 * (1/49) is 3.9999999999999996 in floating point: the fine grids
    # take the integer test of N * eps, and the pairing reads g_pair at
    # their cell points with no test of its own
    path, _ = small_config(
        tmp_path, elasticity=None, ladder=[1 / 49, 1 / 98],
        grids={"cell_n": 4, "solve_n": 4, "sample_n": 196})
    assert run("corrector-study", str(path), str(tmp_path / "out")) == 0


def test_study_one_rung_ladder_exits_3(tmp_path, capsys):
    path, _ = small_config(tmp_path, ladder=[0.25])
    assert run("corrector-study", str(path), str(tmp_path / "out")) == 3
    assert "/ladder" in capsys.readouterr().err
    # one rung is enough for the per-rung fine solves
    assert run("fine", str(path), str(tmp_path / "fine")) == 0


def test_operator_structure_is_ignored():
    # the declared structure constants are gone; an old config that still
    # carries them validates to the same config, as any unknown key does
    cfg = load_config("laminate-p3")
    old = json.loads(json.dumps(cfg))
    old["operator"]["structure"] = {"monotonicity": [1], "continuity": -2.0}
    assert validate_config(old) == validate_config(cfg)


def _set_leaf(cfg, pointer, value):
    *parents, key = pointer.strip("/").split("/")
    node = cfg
    for part in parents:
        node = node[int(part) if isinstance(node, list) else part]
    node[int(key) if isinstance(node, list) else key] = value


@pytest.mark.parametrize("preset, pointer, value, subcommand", [
    ("laminate-p2", "/operator/matrix", "abc", "verify"),
    ("laminate-p2", "/operator/matrix", [1, 2, 3], "verify"),
    ("laminate-p2", "/operator/sigma", ["a", 1], "verify"),
    ("laminate-p3", "/operator/sigma", [-1, 1], "verify"),
    ("laminate-p3", "/operator/alpha", "z", "verify"),
    ("laminate-p3", "/operator/delta", "z", "verify"),
    ("laminate-p2", "/geometry/fraction", 0.3, "fine"),
    ("laminate-p2", "/geometry", [1], "verify"),
    ("laminate-p2", "/geometry/fraction", 1.5, "verify"),
    ("laminate-p2", "/geometry/fraction", "a", "verify"),
    ("laminate-p2", "/elasticity/B/matrix", ["a", 1], "verify"),
    ("laminate-p2", "/grids/cell_n", "x", "verify"),
    ("laminate-p2", "/seed", "x", "verify"),
    ("laminate-p2", "/ladder", ["a"], "verify"),
    ("laminate-p2", "/sources/f", [1], "fine"),
    ("laminate-p2", "/sources/f", "constant:nan", "fine"),
    ("laminate-p2", "/sources/f", "constant:x", "fine"),
    # interfaces off the pitch 1/cell_n of the fine grids
    ("laminate-p3", "/geometry/fraction", 0.3, "corrector-study"),
    ("variable-exponent", "/geometry/size", 0.3, "fine"),
    ("variable-exponent", "/geometry/size", 0.3, "corrector-study"),
    # numpy's generators take no negative seed
    ("laminate-p2", "/seed", -1, "effective"),
    ("laminate-p2", "/seed", -1, "verify"),
    # laws outside the monotone class: a negative delta, a linear law
    # built from a nonpositive sigma
    ("laminate-p3", "/operator/delta", -1, "effective"),
    ("laminate-p2", "/operator/sigma", [0, 4], "effective"),
    ("laminate-p2", "/operator/sigma", [-1, 4], "effective"),
    # a linear law whose matrix is not coercive
    ("laminate-p2", "/operator/matrix", [[-1, 0], [0, -1]], "effective"),
    ("laminate-p2", "/operator/matrix", [[1, 0], [0, 0]], "effective"),
    # a B that is not elliptic on symmetric strains
    ("laminate-p2", "/elasticity/B/matrix", [1, -1], "effective"),
    ("laminate-p2", "/elasticity/B/matrix", [-3, 1], "effective"),
    ("laminate-p2", "/elasticity/B/matrix", [1, 0], "homogenized"),
])
def test_malformed_field_exits_3(tmp_path, capsys, preset, pointer, value,
                                 subcommand):
    cfg = load_config(preset)
    _set_leaf(cfg, pointer, value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run(subcommand, str(path), str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error at /")
    assert "Traceback" not in err
    # the field, an entry of it, or the block whose model constructor
    # rejected it
    reported = err.split(":")[0].removeprefix("config error at ") + "/"
    assert reported.startswith(pointer + "/") \
        or (pointer + "/").startswith(reported)


def _leaf_pointers(node, pointer=""):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [pointer]
    return [leaf for key, child in items
            for leaf in _leaf_pointers(child, f"{pointer}/{key}")]


_MUTANT_LEAVES = sorted({(name, leaf) for name, cfg in PRESETS.items()
                         for leaf in _leaf_pointers(cfg)})

# a string, boolean, null, list, object, zero, a negative number or a
# non-integer in place of the leaf
_REPLACEMENTS = st.one_of(
    st.text(max_size=8), st.booleans(), st.none(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.just(0), st.just(0.0),
    st.integers(-10**6, -1), st.floats(-1e6, -1e-6),
    st.floats(0.01, 100.0).filter(lambda v: v != int(v)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from(_MUTANT_LEAVES), _REPLACEMENTS)
def test_validate_config_mutated_leaf_property(leaf, value):
    # validation either names the field or returns a config whose models
    # build; no grid is built and nothing is solved
    name, pointer = leaf
    cfg = load_config(name)
    _set_leaf(cfg, pointer, value)
    try:
        out = validate_config(cfg)
    except ConfigError as exc:
        assert exc.pointer == "" or exc.pointer.startswith("/")
        return
    build_spec(out)
    build_tensors(out)
    build_source_f(out)
