"""Engine state, kernel bodies and launch records."""

import numpy as np
import pytest

from repro.core.engine import Engine
from repro.core.lattice import D2Q9
from repro.core.stepper import NonUniformStepper
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec, build_multigrid
from repro.grid.geometry import wall_refinement


def make_engine(bc=None, base=(16, 16), omega0=1.2):
    regions = wall_refinement(base, 2, [3.0])
    spec = RefinementSpec(base_shape=base, refine_regions=regions,
                          bc=bc or DomainBC())
    mg = build_multigrid(spec, D2Q9)
    eng = Engine(mg, "bgk", omega0=omega0)
    eng.initialize()
    return eng


class TestInitialize:
    def test_rest_equilibrium(self):
        eng = make_engine()
        lat = eng.lat
        for buf in eng.levels:
            assert np.allclose(buf.f[:, :buf.n_owned], lat.w[:, None])

    def test_velocity_vector_init(self):
        eng = make_engine()
        eng.initialize(u=np.array([0.02, 0.0]))
        for lv in range(2):
            _, u = eng.macroscopics(lv)
            assert np.allclose(u[0], 0.02, atol=1e-12)
            assert np.allclose(u[1], 0.0, atol=1e-12)

    def test_callable_init_uses_coarse_units(self):
        eng = make_engine()
        seen = {}

        def u_field(centers):
            seen[id(centers)] = centers
            return 0.01 * np.ones((2, centers.shape[0]))

        eng.initialize(u=u_field)
        # both levels were sampled; fine-level centres must lie within the
        # coarse-unit domain box
        all_centers = np.concatenate(list(seen.values()))
        assert all_centers.max() <= 16.0
        assert all_centers.min() >= 0.0

    def test_total_mass_volume_weighted(self):
        eng = make_engine()
        expected = sum((0.25 ** lv.level if False else (0.5 ** lv.level) ** 2) * lv.n_owned
                       for lv in eng.mgrid.levels)
        assert eng.total_mass() == pytest.approx(expected)

    def test_total_momentum_zero_at_rest(self):
        eng = make_engine()
        assert np.allclose(eng.total_momentum(), 0.0, atol=1e-12)


class TestOmegaPerLevel:
    def test_eq9_applied(self):
        eng = make_engine(omega0=1.5)
        from repro.core.units import omega_at_level
        assert eng.omega[0] == pytest.approx(1.5)
        assert eng.omega[1] == pytest.approx(omega_at_level(1.5, 1))


class TestKernelRecords:
    def test_collide_record(self):
        eng = make_engine()
        eng.op_collide(0)
        rec = eng.rt.records[-1]
        assert rec.name == "C" and rec.level == 0
        assert rec.n_cells == eng.levels[0].n_owned
        assert rec.bytes_read == 9 * 8 * rec.n_cells

    def test_fused_collide_accumulate_record(self):
        eng = make_engine()
        eng.op_collide(1, fuse_accumulate=True)
        rec = eng.rt.records[-1]
        assert rec.name == "CA"
        assert rec.atomic_bytes > 0

    def test_stream_fusion_names(self):
        eng = make_engine()
        eng.op_collide(0)
        eng.op_collide(1, fuse_accumulate=True)
        eng.op_stream(1, fuse_explosion=True)
        assert eng.rt.records[-1].name == "SE"
        eng.op_stream(0, fuse_coalescence=True)
        assert eng.rt.records[-1].name == "SO"
        eng.op_stream(1, fuse_explosion=True, fuse_coalescence=True)
        assert eng.rt.records[-1].name == "SE"  # finest has no coalescence

    def test_case_record_traffic_is_two_passes(self):
        eng = make_engine()
        eng.op_collide(0)
        eng.op_fused_case(1)
        rec = eng.rt.records[-1]
        n = eng.levels[1].n_owned
        assert rec.name == "CASE"
        # one read + one write of the f field, plus interface extras
        assert rec.bytes_read >= 9 * 8 * n
        assert rec.bytes_read < 1.5 * 9 * 8 * n
        assert rec.bytes_written - rec.atomic_bytes == 9 * 8 * n

    def test_separate_interface_kernels(self):
        eng = make_engine()
        eng.op_collide(0)
        eng.op_collide(1)
        eng.op_accumulate(1)
        assert eng.rt.records[-1].name == "A"
        eng.op_stream(1)
        eng.op_explode(1)
        assert eng.rt.records[-1].name == "E"
        eng.op_stream(0)
        eng.op_coalesce(0)
        assert eng.rt.records[-1].name == "O"

    def test_accumulate_level0_rejected(self):
        eng = make_engine()
        with pytest.raises(ValueError):
            eng.op_accumulate(0)


class TestStreamingSemantics:
    def test_explosion_is_homogeneous_copy(self):
        # after one coarse collide, fine explosion entries equal the coarse
        # post-collision value of the parent cell, verbatim (Eq. 10)
        eng = make_engine()
        eng.initialize(u=np.array([0.01, 0.005]))
        eng.op_collide(0)
        eng.op_collide(1)
        eng.op_stream(1, fuse_explosion=True)
        fine = eng.levels[1]
        coarse = eng.levels[0]
        got = fine.f[fine.exp_q, fine.exp_cell]
        expected = coarse.fstar[fine.exp_q, fine.exp_rows]
        assert np.array_equal(got, expected)

    def test_coalescence_is_scaled_average(self):
        eng = make_engine()
        eng.initialize(u=np.array([0.01, 0.0]))
        # run the full two-substep fine cycle so the accumulator holds 2x4 samples
        stepper = NonUniformStepper(eng)
        eng.op_collide(0)
        eng.op_collide(1, fuse_accumulate=True)
        eng.op_stream(1, fuse_explosion=True)
        eng.op_collide(1, fuse_accumulate=True)
        eng.op_stream(1, fuse_explosion=True)
        coarse = eng.levels[0]
        acc = coarse.ghost_acc.copy()
        eng.op_stream(0, fuse_coalescence=True)
        got = coarse.f[coarse.coal_q, coarse.coal_cell]
        expected = acc[coarse.coal_q, coarse.coal_src] / 8.0  # 2 * 2^2
        assert np.allclose(got, expected, atol=1e-15)

    def test_ghost_reset_after_coalescence(self):
        eng = make_engine()
        eng.op_collide(0)
        eng.op_collide(1, fuse_accumulate=True)
        assert np.abs(eng.levels[0].ghost_acc).max() > 0
        eng.op_stream(0, fuse_coalescence=True)
        assert (eng.levels[0].ghost_acc == 0).all()

    def test_accumulate_gather_equals_scatter(self):
        eng1 = make_engine()
        eng2 = make_engine()
        for eng, gather in ((eng1, False), (eng2, True)):
            eng.initialize(u=np.array([0.02, -0.01]))
            eng.op_collide(1)
            eng.op_accumulate(1, gather=gather)
        assert np.allclose(eng1.levels[0].ghost_acc, eng2.levels[0].ghost_acc)

    def test_explosion_copy_mirrors_coarse(self):
        eng = make_engine()
        eng.initialize(u=np.array([0.01, 0.02]))
        eng.op_collide(0)
        eng.op_explosion_copy(1)
        fine = eng.levels[1]
        coarse = eng.levels[0]
        assert np.array_equal(fine.fstar[:, fine.fg_rows],
                              coarse.fstar[:, fine.fg_coarse_rows])

    def test_stream_from_ghost_equals_direct(self):
        # 4a explosion path (via ghost copies) gives identical pull values
        eng_a = make_engine()
        eng_b = make_engine()
        for eng in (eng_a, eng_b):
            eng.initialize(u=np.array([0.015, 0.0]))
            eng.op_collide(0)
            eng.op_collide(1)
        eng_a.op_explosion_copy(1)
        eng_a.op_stream(1, fuse_explosion=True, exp_from_ghost=True)
        eng_b.op_stream(1, fuse_explosion=True, exp_from_ghost=False)
        a, b = eng_a.levels[1], eng_b.levels[1]
        assert np.array_equal(a.f[:, :a.n_owned], b.f[:, :b.n_owned])


class TestBoundaryPhysics:
    def test_moving_lid_injects_x_momentum(self):
        bc = DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})
        eng = make_engine(bc=bc)
        stepper = NonUniformStepper(eng)
        stepper.step()
        mom = eng.total_momentum()
        assert mom[0] > 0.0
        assert abs(mom[1]) < abs(mom[0]) * 0.2

    def test_resting_walls_keep_rest_state(self):
        eng = make_engine()
        stepper = NonUniformStepper(eng)
        f0 = [b.f[:, :b.n_owned].copy() for b in eng.levels]
        stepper.run(3)
        for buf, ref in zip(eng.levels, f0):
            assert np.allclose(buf.f[:, :buf.n_owned], ref, atol=1e-14)

    def test_outflow_sets_weights(self):
        bc = DomainBC({"x+": FaceBC("outflow")})
        eng = make_engine(bc=bc)
        eng.initialize(u=np.array([0.03, 0.0]))
        eng.op_collide(1)
        eng.op_stream(1)
        fine = eng.levels[1]
        got = fine.f[fine.out_q, fine.out_cell]
        assert np.allclose(got, eng.lat.w[fine.out_q])


class TestResolvedMaps:
    """The q-blocked bodies against per-q loops over the row-form maps."""

    @pytest.fixture
    def engine3d(self):
        # 10^3 D3Q19 with a 2-level wall refinement: the fine level's
        # gather and the coarse accumulate both split into several
        # q-blocks, the last one partial.
        from repro.bench.workloads import lid_cavity
        from repro.core.lattice import get_lattice
        wl = lid_cavity(base=(10, 10, 10), num_levels=2, lattice="D3Q19")
        eng = Engine(build_multigrid(wl.spec, get_lattice("D3Q19")), "bgk")
        rng = np.random.default_rng(3)
        for buf in eng.levels:
            buf.fstar[:] = rng.random(buf.fstar.shape)
        return eng

    def test_stream_gather_matches_per_q_loop(self, engine3d):
        for lv, buf in enumerate(engine3d.levels):
            n, rows = buf.n_owned, buf.pull_rows
            ref = np.stack([buf.fstar[q, rows[q]] for q in range(engine3d.lat.q)])
            engine3d._stream_bulk(lv)
            patched = np.zeros(buf.f.size, dtype=bool)
            for dst in (buf.bb_dst, buf.mov_dst, buf.out_dst, buf.sl_dst):
                patched[dst] = True
            bulk = ~patched.reshape(buf.f.shape)[:, :n]
            assert np.array_equal(buf.f[:, :n][bulk], ref[bulk])

    def test_accumulate_matches_per_q_bincount(self, engine3d):
        coarse, fine = engine3d.levels
        assert coarse.acc_k > 1 and engine3d.lat.q % coarse.acc_k
        ng = coarse.ghost_acc.shape[1]
        ref = coarse.ghost_acc.copy()
        for q in range(engine3d.lat.q):
            ref[q] += np.bincount(coarse.acc_ghost_rows,
                                  weights=fine.fstar[q, coarse.acc_fine_rows],
                                  minlength=ng)
        engine3d._accumulate_values(0, mode="scatter")
        assert np.array_equal(coarse.ghost_acc, ref)
