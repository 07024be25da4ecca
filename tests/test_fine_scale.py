import numpy as np
import pytest

from hk import _fem
from hk.constitutive import ElasticTensorField, Geometry, OperatorSpec
from hk.core_fields import DomainGrid, ScalarField
from hk.fine_scale import (maxwell_stress, periods_per_side,
                           solve_fine_elasticity, solve_fine_electrostatic)

from oracles import (boundary_mask, manufactured_elasticity,
                     manufactured_laplace, node_coords)

LAMINATE = Geometry(kind="laminate", fraction=0.5)
UNIFORM = Geometry("uniform")


def identity_spec():
    return OperatorSpec(family="linear", geometry=UNIFORM, sigma=(1.0, 1.0))


def l2_error_nodal(dom, values, exact_fn):
    pts = node_coords(dom)
    err = values - exact_fn(pts[:, 0], pts[:, 1])
    return _fem.lp_norm_qp(dom.h, _fem.qp_values(err, dom.conn), 2.0)


def test_zero_source_zero_solution():
    dom = DomainGrid(16)
    sol = solve_fine_electrostatic(identity_spec(), 0.25, 0.0, dom)
    assert np.abs(sol.potential.values).max() < 1e-14


def test_manufactured_laplace_second_order():
    phi, f = manufactured_laplace()
    errs = []
    for n in (16, 32, 64):
        dom = DomainGrid(n)
        sol = solve_fine_electrostatic(identity_spec(), 0.25, f, dom)
        errs.append(l2_error_nodal(dom, sol.potential.values,
                                   lambda x, y: phi(x, y)))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert 1.8 <= rate1 <= 2.2
    assert 1.8 <= rate2 <= 2.2


def test_constant_coefficients_eps_independent():
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=UNIFORM, sigma=(2.0, 2.0))
    dom = DomainGrid(32)
    sols = [solve_fine_electrostatic(spec, eps, 1.0, dom)
            for eps in (0.5, 0.25, 0.125)]
    for s in sols[1:]:
        assert np.abs(s.potential.values
                      - sols[0].potential.values).max() < 1e-12


def test_nonlinear_laminate_converges():
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    dom = DomainGrid(64)
    sol = solve_fine_electrostatic(spec, 0.25, 1.0, dom)
    assert sol.residuals["electrostatic"] <= 1e-10
    assert sol.residuals["electrostatic_max_nodal"] <= 1e-9


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_picard_steps_match_newton_solve(p, monkeypatch):
    # MAX_NEWTON=0: frozen-coefficient steps only; the plain step
    # contracts for p <= 2, the relaxed step with weight 1/(p-1) above
    spec = OperatorSpec(family="power-law", p=p, alpha=min(1.0, p - 1.0),
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    dom = DomainGrid(32)
    newton = solve_fine_electrostatic(spec, 0.25, 1.0, dom)
    monkeypatch.setattr(_fem, "MAX_NEWTON", 0)
    picard = solve_fine_electrostatic(spec, 0.25, 1.0, dom)
    assert picard.iterations["electrostatic"] \
        > newton.iterations["electrostatic"]
    assert picard.residuals["electrostatic"] <= 1e-10
    assert np.abs(picard.potential.values
                  - newton.potential.values).max() < 1e-9


def test_weak_interface_balance_small_after_convergence():
    spec = OperatorSpec(family="linear", geometry=LAMINATE, sigma=(1.0, 4.0))
    dom = DomainGrid(64)
    sol = solve_fine_electrostatic(spec, 0.25, 1.0, dom)
    # the largest interior nodal residual is the discrete flux balance
    # across the phase interfaces
    assert sol.residuals["electrostatic_max_nodal"] <= 1e-8


def test_energy_bound_uniform_across_ladder():
    spec = OperatorSpec(family="linear", geometry=LAMINATE, sigma=(1.0, 4.0))
    ratios = []
    for eps in (0.25, 0.125, 0.0625, 0.03125):
        dom = DomainGrid(int(8 / eps))
        sol = solve_fine_electrostatic(spec, eps, 1.0, dom)
        ratios.append(sol.energy["ratio"])
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() < 1.05
    assert np.all(np.diff(ratios) < 0.05 * ratios[0])  # no growth


def test_periods_per_side_rejects_aliasing():
    with pytest.raises(ValueError, match="incommensurate"):
        periods_per_side(DomainGrid(30), 1.0 / 7.0)
    with pytest.raises(ValueError, match="aliasing"):
        periods_per_side(DomainGrid(24), 0.25, Geometry("square", size=0.3))
    # a disc is never grid-aligned, and is read at its quadrature points
    assert periods_per_side(DomainGrid(24), 0.25,
                            Geometry("disc", size=0.3)) == 6


def test_maxwell_stress_affine():
    dom = DomainGrid(8)
    pts = node_coords(dom)
    phi = ScalarField(dom, pts[:, 0] + 2.0 * pts[:, 1])
    sigma = maxwell_stress(phi)
    assert np.abs(sigma - np.array([[1.0, 2.0], [2.0, 4.0]])).max() < 1e-12


def test_maxwell_stress_trace_and_rank():
    dom = DomainGrid(16)
    rng = np.random.default_rng(11)
    phi = ScalarField(dom, rng.standard_normal(dom.n_nodes))
    sigma = maxwell_stress(phi)
    grad = _fem.qp_gradient(phi.values, dom.conn, dom.h)
    trace = sigma[..., 0, 0] + sigma[..., 1, 1]
    norms = np.einsum("eqd,eqd->eq", grad, grad)
    assert np.abs(trace - norms).max() < 1e-14 * max(1, norms.max())
    det = (sigma[..., 0, 0] * sigma[..., 1, 1]
           - sigma[..., 0, 1] * sigma[..., 1, 0])
    assert np.abs(det).max() < 1e-12 * max(1.0, norms.max() ** 2)
    assert np.abs(sigma - np.swapaxes(sigma, -1, -2)).max() == 0.0


# -- elasticity ---------------------------------------------------------------

def uniform_b(lam=1.0, mu=1.0):
    return ElasticTensorField.from_lame((lam, mu), geometry=UNIFORM)


def test_elasticity_zero_loads():
    dom = DomainGrid(16)
    phi = ScalarField(dom, np.zeros(dom.n_nodes))
    u, resid = solve_fine_elasticity(uniform_b(), uniform_b(), 0.25,
                                     np.zeros(2), phi, dom)
    assert np.abs(u.values).max() < 1e-14


def test_elasticity_manufactured_second_order():
    lam, mu = 1.0, 1.0
    u_exact, g = manufactured_elasticity(lam, mu)
    zero_c = ElasticTensorField.from_lame((0.0, 0.0), geometry=UNIFORM)
    errs = []
    for n in (16, 32, 64):
        dom = DomainGrid(n)
        phi = ScalarField(dom, np.zeros(dom.n_nodes))
        u, _ = solve_fine_elasticity(uniform_b(lam, mu), zero_c, 0.25,
                                     lambda x, y: g(x, y), phi, dom)
        pts = node_coords(dom)
        err = u.values - u_exact(pts[:, 0], pts[:, 1])
        e_qp = _fem.qp_values(err, dom.conn)
        errs.append(_fem.lp_norm_qp(dom.h, e_qp, 2.0))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert 1.8 <= rate1 <= 2.2
    assert 1.8 <= rate2 <= 2.2


def test_elasticity_linear_in_load():
    dom = DomainGrid(16)
    rng = np.random.default_rng(12)
    # the Maxwell stress is quadratic in the potential: sqrt(2) phi
    # doubles it
    phi = rng.standard_normal(dom.n_nodes)
    b = ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0), LAMINATE)
    c = ElasticTensorField.from_lame((0.5, 0.5), (1.5, 1.0), LAMINATE)
    u1, _ = solve_fine_elasticity(b, c, 0.25, np.zeros(2),
                                  ScalarField(dom, phi), dom)
    u2, _ = solve_fine_elasticity(b, c, 0.25, np.zeros(2),
                                  ScalarField(dom, np.sqrt(2.0) * phi), dom)
    assert np.abs(u2.values - 2.0 * u1.values).max() < 1e-12


def _two_phase_system(n, eps, elastic, geometry, contrast):
    """Fine-scale block, a smooth load and the dofs per node.

    The inclusion's sigma is ``contrast`` times the matrix's 1; its Lame
    pair is (0.75, 0.5) times ``contrast`` against the matrix's (1, 1).
    """
    dom = DomainGrid(n)
    points = _fem.cell_points(dom, eps)
    pts = node_coords(dom)
    load = np.sin(np.pi * pts[:, 0]) * np.cos(2.0 * pts[:, 1])
    if elastic:
        b = ElasticTensorField.from_lame(
            (1.0, 1.0), (0.75 * contrast, 0.5 * contrast), geometry)
        lam, mu = b.lame_at(points)
        block = _fem.assemble_elasticity(dom, lam, mu)
        rhs = np.stack([load, 1.0 - load], axis=-1).ravel()
        return block, rhs, 2
    spec = OperatorSpec(family="linear", geometry=geometry,
                        sigma=(1.0, contrast))
    block = _fem.assemble_diffusion(dom,
                                    spec.local_coefficients(points)["bmat"])
    return block, load, 1


def _laminate_dirichlet_system(n, eps, elastic):
    """The laminate's block at contrast 4, a smooth load, the dofs per node."""
    return _two_phase_system(n, eps, elastic, LAMINATE, 4.0)


def _coarsest_dofs(d):
    """The free dofs of the V-cycle's coarsest grid, N = MG_COARSEST_N."""
    return d * (_fem.MG_COARSEST_N - 1) ** 2


def _factor_solve(block, rhs, n, d):
    """Solution over all dofs by one SuperLU factorization of the block."""
    free = _fem.free_dofs(DomainGrid(n), d)
    x = np.zeros(rhs.size)
    x[free] = _fem._splu(block)(rhs[free])
    return x


def test_band_of_largest_direct_elastic_system(monkeypatch):
    # the N = 64 elastic laminate block (7,938 dofs) is the V-cycle's
    # coarsest grid, the largest system an even grid factors: its
    # half-bandwidth is 2 (N + 1) - 1, so its band holds 130 x 7,938
    # doubles, 8.3 MB (SuperLU's L + U in minimum degree order on A + A^T
    # held about 0.88M entries)
    block, _, _ = _laminate_dirichlet_system(64, 0.125, True)
    assert block.shape[0] == _coarsest_dofs(2)
    bands = []
    cholesky = _fem._band_cholesky

    def kept(band):
        bands.append(band)
        return cholesky(band)

    monkeypatch.setattr(_fem, "_band_cholesky", kept)
    _fem.solve_dirichlet(block, np.ones(2 * 65 ** 2), DomainGrid(64), 2)
    (band,) = bands
    assert band.shape == (7938, 130)
    assert band.nbytes <= 8.3e6


def _factorizations(monkeypatch):
    """The sizes of the band and the SuperLU factorizations from now on."""
    band, superlu = [], []
    cholesky, splu = _fem._band_cholesky, _fem._splu

    def banded(matrix):
        band.append(matrix.shape[0])
        return cholesky(matrix)

    def general(matrix):
        superlu.append(matrix.shape[0])
        return splu(matrix)

    monkeypatch.setattr(_fem, "_band_cholesky", banded)
    monkeypatch.setattr(_fem, "_splu", general)
    return band, superlu


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("kind", ["scalar", "elastic", "p3-jacobian"])
def test_band_cholesky_matches_superlu(kind, n, monkeypatch):
    # every direct Dirichlet solve of the workloads is factored by the
    # band, in the block's own row order
    eps = 0.25 if n == 16 else 0.125
    if kind == "p3-jacobian":
        block, rhs, d = _p3_jacobian_system(n, eps)
    else:
        block, rhs, d = _laminate_dirichlet_system(n, eps, kind == "elastic")
    ref = _factor_solve(block, rhs, n, d)
    band, superlu = _factorizations(monkeypatch)
    x = _fem.solve_dirichlet(block, rhs, DomainGrid(n), dofs_per_node=d)
    assert band == [block.shape[0]] and superlu == []
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_nonsymmetric_block_takes_superlu(monkeypatch):
    # the band reads only the lower triangle, so an asymmetric block would
    # be solved as another, symmetric one
    dom = DomainGrid(32)
    spec = OperatorSpec(family="linear", geometry=LAMINATE,
                        matrices=(((1.0, 0.5), (-0.5, 1.0)),
                                  ((4.0, 1.0), (-1.0, 4.0))))
    loc = spec.local_coefficients(_fem.cell_points(dom, 0.125))
    block = _fem.assemble_diffusion(dom, loc["bmat"])
    pts = node_coords(dom)
    load = np.sin(np.pi * pts[:, 0]) * np.cos(2.0 * pts[:, 1])
    assert np.abs(block - block.T).max() > 0.1
    band, superlu = _factorizations(monkeypatch)
    x = _fem.solve_dirichlet(block, load, dom)
    assert band == [] and superlu == [block.shape[0]]
    free = _fem.free_dofs(dom)
    ref = np.linalg.solve(block.toarray(), load[free])
    assert np.abs(x[free] - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.all(x[boundary_mask(dom)] == 0.0)


def test_indefinite_block_raises_singular_system():
    from hk.errors import SingularSystem
    block, rhs, d = _laminate_dirichlet_system(16, 0.25, False)
    with pytest.raises(SingularSystem, match="dpbtrf"):
        _fem.solve_dirichlet(-block, rhs, DomainGrid(16), dofs_per_node=d)


def test_band_stops_at_its_thread_safe_width():
    # elastic blocks at N = 66 (half-bandwidth 133) and 68 (137): wider
    # bands factor with other bits on two BLAS threads, so they take SuperLU
    narrow, _, _ = _laminate_dirichlet_system(66, 0.125, True)
    wide, _, _ = _laminate_dirichlet_system(68, 0.125, True)
    assert _fem.BAND_MAX_KD == 133
    assert _fem._lower_band(narrow).shape == (narrow.shape[0], 134)
    assert _fem._lower_band(wide) is None


def test_band_solve_does_not_depend_on_blas_threads(tmp_path):
    # the N = 64 elastic block has the widest band that the workloads'
    # direct Dirichlet solves factor (half-bandwidth 129); wider bands (193
    # and up) came out of dpbtrf with other bits on two BLAS threads
    import os
    import subprocess
    import sys
    from pathlib import Path
    here = Path(__file__).resolve().parent
    src = str(here.parent / "src")
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from hk import _fem\n"
        "from hk.core_fields import DomainGrid\n"
        "from test_fine_scale import _laminate_dirichlet_system\n"
        "block, rhs, d = _laminate_dirichlet_system(64, 0.125, True)\n"
        "x = _fem.solve_dirichlet(block, rhs, DomainGrid(64), d)\n"
        "np.save(sys.argv[1], x)\n")
    solutions = []
    for blas in ("1", "2"):
        out = tmp_path / f"blas-{blas}.npy"
        done = subprocess.run(
            [sys.executable, "-c", script, str(out)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                     PYTHONPATH=os.pathsep.join([src, str(here)])),
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        solutions.append(np.load(out))
    assert np.abs(solutions[0]).max() > 0.0
    assert np.array_equal(solutions[0], solutions[1])


def test_elastic_assembly_memory_at_n128():
    # the N = 128 laminate elastic block (32,258 dofs, 6.7 MiB): summing
    # COO triplets of its element entries and converting them to CSR
    # peaked at 46.1 MiB; stencil sums straight into the block stay under
    # 25 MiB, the first build of its cached pattern included
    import tracemalloc
    dom = DomainGrid(128)
    b = ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0), LAMINATE)
    lam, mu = b.lame_at(_fem.cell_points(dom, 0.0625))
    tracemalloc.start()
    try:
        block = _fem.assemble_elasticity(dom, lam, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.shape == (2 * 127 ** 2,) * 2
    assert peak <= 25 * 2 ** 20


def _p3_jacobian_system(n, eps):
    """A fine Newton Jacobian block of the p = 3 laminate, a load and 1 dof.

    The Jacobian is taken at the Newton start for f = 1, the
    frozen-coefficient solve, whose gradient vanishes near the centre;
    ``_fem.DELTA_JAC`` keeps it definite there.
    """
    dom = DomainGrid(n)
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    loc = spec.local_coefficients(_fem.cell_points(dom, eps))
    load = _fem.load_vector(dom, np.ones((dom.n_elems, 4)))
    start = _fem.assemble_diffusion(dom, loc["sigma"])
    phi = _factor_solve(start, load, n, 1)
    jac = spec.jacobian_local(loc, _fem.qp_gradient(phi, dom.conn, dom.h),
                              delta_floor=_fem.DELTA_JAC)
    return _fem.assemble_diffusion(dom, jac), load, 1


def _factor_sizes(monkeypatch):
    """The sizes of the factorizations ``_fem`` makes from now on."""
    sizes = []
    factor = _fem.factor

    def recorded(reduced, *args, **kwargs):
        sizes.append(reduced.shape[0])
        return factor(reduced, *args, **kwargs)

    monkeypatch.setattr(_fem, "factor", recorded)
    return sizes


@pytest.mark.parametrize("kind", ["scalar", "elastic", "p3-jacobian"])
def test_multigrid_pcg_matches_direct_solve(kind, monkeypatch):
    # N = 128 is above the coarsest grid; with the iteration cap at 30,
    # a PCG that needed more would raise NonConvergence
    if kind == "p3-jacobian":
        block, rhs, d = _p3_jacobian_system(128, 0.0625)
    else:
        block, rhs, d = _laminate_dirichlet_system(128, 0.0625,
                                                   kind == "elastic")
    direct = _factor_solve(block, rhs, 128, d)
    assert block.shape[0] > _coarsest_dofs(d)
    monkeypatch.setattr(_fem, "PCG_MAX_ITER", 30)
    sizes = _factor_sizes(monkeypatch)
    x = _fem.solve_dirichlet(block, rhs, DomainGrid(128), dofs_per_node=d)
    assert sizes and max(sizes) <= _coarsest_dofs(d)
    assert np.abs(x - direct).max() <= 1e-9 * np.abs(direct).max()


def test_fine_elasticity_factors_nothing_above_the_cut(monkeypatch):
    dom = DomainGrid(128)
    b = ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0), LAMINATE)
    c = ElasticTensorField.from_lame((0.5, 0.5), (1.5, 1.0), LAMINATE)
    pts = node_coords(dom)
    # gradient (cos(pi x1), sin(x2))
    phi = ScalarField(dom, np.sin(np.pi * pts[:, 0]) / np.pi
                      - np.cos(pts[:, 1]))
    sizes = _factor_sizes(monkeypatch)
    solve_fine_elasticity(b, c, 0.0625, np.array([0.0, -1.0]), phi, dom)
    assert sizes and max(sizes) <= _coarsest_dofs(2)


@pytest.mark.parametrize("kind", ["scalar", "elastic"])
def test_pcg_iteration_cap_raises_nonconvergence(kind, monkeypatch):
    # at the cap the solve fails with the grid, the count and the relative
    # residual; no factorization of the fine block is made
    from hk.errors import NonConvergence
    block, rhs, d = _laminate_dirichlet_system(128, 0.0625,
                                               kind == "elastic")
    monkeypatch.setattr(_fem, "PCG_MAX_ITER", 1)
    sizes = _factor_sizes(monkeypatch)
    with pytest.raises(NonConvergence, match=f"N=128 .*dofs per node {d}"
                       r".* after 1 iterations") as info:
        _fem.solve_dirichlet(block, rhs, DomainGrid(128), dofs_per_node=d)
    assert info.value.iterations == 1
    assert 1e-10 < info.value.residual < 1.0
    assert sizes == [_coarsest_dofs(d)]


def _pcg_iterations(monkeypatch):
    """The PCG iterations of each multigrid solve from now on.

    PCG applies the V-cycle once before its first iteration and once after
    each iteration that does not stop it, so a solve's cycles count its
    iterations.
    """
    counts = []
    v_cycle = _fem._v_cycle

    def counted_cycle(*args):
        cycle = v_cycle(*args)
        counts.append(0)

        def counting(res):
            counts[-1] += 1
            return cycle(res)

        return counting

    monkeypatch.setattr(_fem, "_v_cycle", counted_cycle)
    return counts


@pytest.mark.parametrize("contrast", [4.0, 1e2, 1e4, 1e6])
@pytest.mark.parametrize("kind", ["laminate", "square", "checkerboard"])
@pytest.mark.parametrize("elastic", [False, True], ids=["scalar", "elastic"])
def test_multigrid_converges_at_every_contrast(elastic, kind, contrast,
                                               monkeypatch):
    # the coarsest grid, N = 64, has 4 elements per period at eps 1/16, so
    # it carries the contrast; with it at 16, the elastic laminate at 1e4
    # reached the 100-iteration cap
    block, rhs, d = _two_phase_system(128, 0.0625, elastic, Geometry(kind),
                                      contrast)
    counts = _pcg_iterations(monkeypatch)
    sizes = _factor_sizes(monkeypatch)
    x = _fem.solve_dirichlet(block, rhs, DomainGrid(128), dofs_per_node=d)
    assert len(counts) == 1 and counts[0] <= 25
    assert sizes == [_coarsest_dofs(d)]
    assert np.isfinite(x).all()


def test_multigrid_converges_on_the_n512_elastic_laminate(monkeypatch):
    # eps 1/32, contrast 1e4: 2 elements per period on the coarsest grid;
    # with it at 16, PCG reached the cap and SuperLU factored the whole
    # system (55.6 s and 2.49 GiB)
    block, rhs, d = _two_phase_system(512, 1.0 / 32, True, LAMINATE, 1e4)
    counts = _pcg_iterations(monkeypatch)
    sizes = _factor_sizes(monkeypatch)
    _fem.solve_dirichlet(block, rhs, DomainGrid(512), dofs_per_node=d)
    assert len(counts) == 1 and counts[0] <= 25
    assert sizes == [_coarsest_dofs(d)]


def test_elasticity_from_potential_matches_whole_grid_load(monkeypatch):
    # the electric load, summed over blocks of 5 element rows (the last
    # of 4), against the whole grid's Maxwell stress at once
    dom, eps = DomainGrid(64), 0.125
    b = ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0), LAMINATE)
    c = ElasticTensorField.from_lame((0.5, 0.5), (1.5, 1.0), LAMINATE)
    g = np.array([0.0, -1.0])
    pts = node_coords(dom)
    x1, x2 = pts[:, 0], pts[:, 1]
    phi = ScalarField(dom, np.sin(np.pi * x1) * np.sin(np.pi * x2)
                      * (1.0 + 0.1 * np.cos(2.0 * np.pi * x1 / eps)))
    monkeypatch.setattr(_fem, "WORK_BUDGET_BYTES",
                        5 * 64 * _fem.ROW_BYTES_PER_ELEMENT)
    u, _ = solve_fine_elasticity(b, c, eps, g, phi, dom)
    points = _fem.cell_points(dom, eps)
    stress = _fem.isotropic_stress(*c.lame_at(points), maxwell_stress(phi))
    rhs = (_fem.load_vector(dom, np.broadcast_to(g, (dom.n_elems, 4, 2)))
           - _fem.divergence_residual(dom, stress)).ravel()
    ref = _fem.solve_dirichlet(
        _fem.assemble_elasticity(dom, *b.lame_at(points)), rhs, dom,
        dofs_per_node=2)
    scale = np.abs(ref).max()
    assert np.abs(u.values.ravel() - ref).max() <= 1e-12 * scale


def _track_multigrid(monkeypatch):
    """Weak references to every V-cycle and every transfer built from now on.

    Returns (cycles, transfers): lists that fill as ``_fem._v_cycle`` and
    ``_fem._prolongation`` are called; each transfer entry holds the
    prolongation's and the restriction's references.
    """
    import weakref
    cycles, transfers = [], []
    v_cycle, prolongation = _fem._v_cycle, _fem._prolongation

    def tracked_cycle(*args):
        cycle = v_cycle(*args)
        cycles.append(weakref.ref(cycle))
        return cycle

    def tracked_prolongation(*args):
        pair = prolongation(*args)
        transfers.append(tuple(weakref.ref(m) for m in pair))
        return pair

    monkeypatch.setattr(_fem, "_v_cycle", tracked_cycle)
    monkeypatch.setattr(_fem, "_prolongation", tracked_prolongation)
    return cycles, transfers


def _without_gc(fn):
    """``fn()`` with the cyclic collector off: only reference counts free."""
    import gc
    enabled = gc.isenabled()
    gc.disable()
    try:
        return fn()
    finally:
        if enabled:
            gc.enable()


def test_v_cycle_is_freed_when_the_solve_returns(monkeypatch):
    # the cycle holds its levels and coarsest factor but not itself, and
    # no cache holds the transfers, so reference counting frees the
    # hierarchy, the prolongations and the restrictions with no cyclic
    # collection
    cycles, transfers = _track_multigrid(monkeypatch)
    dom = DomainGrid(128)
    block = _fem.assemble_diffusion(dom, np.ones((dom.n_elems, 4)))
    rhs = _fem.load_vector(dom, np.ones((dom.n_elems, 4)))

    def solve():
        x = _fem.solve_dirichlet(block, rhs, dom)
        assert len(cycles) == 1 and cycles[0]() is None
        # 128 -> 64
        assert len(transfers) == 1
        assert all(ref() is None for pair in transfers for ref in pair)
        return x

    x = _without_gc(solve)
    assert np.isfinite(x).all() and np.abs(x).max() > 0.0


def test_fine_newton_transfers_are_freed_when_the_solve_returns(monkeypatch):
    # a p = 3 fine solve at N = 128 takes several PCG solves; they share
    # one set of transfers, built once, which goes when the call returns
    cycles, transfers = _track_multigrid(monkeypatch)
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))

    def solve():
        sol = solve_fine_electrostatic(spec, 1.0 / 16, 1.0, DomainGrid(128))
        assert len(cycles) >= 3
        assert all(ref() is None for ref in cycles)
        assert len(transfers) == 1
        assert all(ref() is None for pair in transfers for ref in pair)
        return sol

    sol = _without_gc(solve)
    assert sol.iterations["electrostatic"] >= 2
    assert sol.residuals["electrostatic"] <= 1e-8
