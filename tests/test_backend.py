"""Backend-parity suite: compiled step plans vs the interpreted reference.

The contract under test is the one ``docs/ARCHITECTURE.md`` states:

* compiled execution is **bit-identical** to interpreted execution —
  every level's ``f``/``fstar``/``ghost_acc`` and the recorded kernel
  trace — across all fusion configs in 2D and 3D;
* plans are **admitted** against the PR-5 certificate contract before
  their first replay, and refuse admission on a tampered stream;
* the plan **cache invalidates** when it must: config changes and
  regrids produce a new backend instance, checkpoint restores bump the
  engine's state epoch;
* runtime hooks that intercept individual launches (tracer, faults)
  force a **counted fallback** to the interpreted path, with results
  still bit-identical.
"""

import os

import numpy as np
import pytest

from repro.backend import (CompiledAABackend, CompiledBackend,
                           InterpretedBackend, PlanAdmissionError,
                           available_backends, make_backend, resolve_backend)
from repro.backend.compiler import compile_plan
from repro.bench.workloads import lid_cavity
from repro.core.config import SimConfig
from repro.core.fusion import ABLATION_CONFIGS, ORIGINAL_BASELINE
from repro.core.simulation import Simulation

ALL_CONFIGS = (ORIGINAL_BASELINE,) + tuple(ABLATION_CONFIGS)


def cavity(dim="2d"):
    if dim == "2d":
        return lid_cavity(base=(16, 16), num_levels=2, lattice="D2Q9")
    return lid_cavity(base=(10, 10, 10), num_levels=2, lattice="D3Q19")


def build(wl, cfg, backend, **over):
    return Simulation.from_config(
        wl.spec, wl.sim_config(fusion=cfg), backend=backend, **over)


def states(sim):
    return [(b.f.copy(), b.fstar.copy(), b.ghost_acc.copy())
            for b in sim.engine.levels]


def assert_bit_identical(a, b, *, fields=("f", "fstar", "gacc")):
    names = ("f", "fstar", "gacc")
    for lv, (sa, sb) in enumerate(zip(a, b)):
        for name, xa, xb in zip(names, sa, sb):
            if name in fields:
                assert np.array_equal(xa, xb), f"{name}@{lv} diverged"


class TestBitIdentity:
    """Compiled replay must be bitwise equal to interpretation."""

    @pytest.mark.parametrize("dim", ["2d", "3d"])
    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.name)
    def test_full_state_and_trace(self, dim, cfg):
        wl = cavity(dim)
        si = build(wl, cfg, "interpreted")
        sc = build(wl, cfg, "compiled")
        si.run(5)
        sc.run(5)
        assert_bit_identical(states(si), states(sc))
        assert si.runtime.records == sc.runtime.records
        assert si.runtime.markers == sc.runtime.markers

    def test_3d_fixture_reaches_blocked_gather_and_fine_ghosts(self):
        # The 3D parity cases must exercise a stream gather split over
        # several q-blocks and a level with fine-ghost rows past its
        # owned cells, so a geometry change cannot skip either path.
        levels = build(cavity("3d"), ALL_CONFIGS[0], "interpreted").engine.levels
        assert any(len(b.pull_blocks) > 1 for b in levels)
        assert any(b.n_used > b.n_owned for b in levels)

    def test_replay_runs_the_engine_bodies(self, monkeypatch):
        # A plan holds no kernel code of its own: replay calls the
        # engine's bodies, captured from its op_* launches.
        from repro.core.engine import Engine
        calls = []
        original = Engine._stream_bulk

        def counting(self, lv):
            calls.append(lv)
            original(self, lv)

        monkeypatch.setattr(Engine, "_stream_bulk", counting)
        sim = build(cavity(), ABLATION_CONFIGS[-1], "compiled")
        sim.run(3)
        assert sim.backend.stats["plan_fallback_steps"] == 0
        assert len(calls) > 0

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.name)
    def test_aa_backend_matches_on_declared_fields(self, cfg):
        # compiled-aa drops lint-proven double buffers, so only the
        # fields the stream declares as live outputs must match.
        wl = cavity()
        si = build(wl, cfg, "interpreted")
        sa = build(wl, cfg, "compiled-aa")
        si.run(5)
        sa.run(5)
        assert_bit_identical(states(si), states(sa), fields=("f", "gacc"))
        assert si.runtime.records == sa.runtime.records

    def test_aa_backend_drops_case_register_file(self):
        wl = cavity()
        sa = build(wl, ABLATION_CONFIGS[-1], "compiled-aa")  # ours-4f
        sa.run(2)
        dropped = {d for p in sa.backend.plans.values() for d in p.dropped}
        assert "fstar@1" in dropped
        plan = next(iter(sa.backend.plans.values()))
        assert plan.arena_bytes > 0


class TestPlanCache:
    def test_hits_and_misses(self):
        sim = build(cavity(), ABLATION_CONFIGS[0], "compiled")
        sim.run(5)
        assert sim.backend.stats["plan_cache_misses"] == 1
        assert sim.backend.stats["plan_cache_hits"] == 4
        assert sim.backend.stats["plan_compile_seconds"] > 0

    def test_checkpoint_restore_forces_recompile(self, tmp_path):
        from repro.io.checkpoint import restore_checkpoint, save_checkpoint
        sim = build(cavity(), ABLATION_CONFIGS[0], "compiled")
        sim.run(2)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(sim, path)
        assert len(sim.backend.plans) == 1
        restore_checkpoint(sim, path)
        sim.run(1)
        # The epoch bump keyed a second compilation.
        assert sim.backend.stats["plan_cache_misses"] == 2
        assert len(sim.backend.plans) == 2

    def test_restored_run_stays_bit_identical(self, tmp_path):
        from repro.io.checkpoint import restore_checkpoint, save_checkpoint
        wl = cavity()
        ref = build(wl, ABLATION_CONFIGS[-1], "interpreted")
        ref.run(6)
        sim = build(wl, ABLATION_CONFIGS[-1], "compiled")
        sim.run(3)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(sim, path)
        restore_checkpoint(sim, path)
        sim.run(3)
        assert_bit_identical(states(ref), states(sim))

    def test_regrid_builds_fresh_backend(self):
        # Regrids construct a new Simulation, so the new run starts with
        # an empty plan cache bound to the new engine's buffers.
        from repro.core.amr import regrid
        wl = cavity()
        sim = build(wl, ABLATION_CONFIGS[0], "compiled")
        sim.run(2)
        old_backend = sim.backend
        new_sim = regrid(sim, regions=wl.spec.refine_regions)
        assert new_sim.backend is not old_backend
        assert new_sim.backend.plans == {}
        new_sim.run(1)
        assert new_sim.backend.stats["plan_cache_misses"] == 1

    def test_different_configs_get_different_plans(self):
        wl = cavity()
        a = build(wl, ABLATION_CONFIGS[0], "compiled")
        b = build(wl, ABLATION_CONFIGS[-1], "compiled")
        a.run(1)
        b.run(1)
        (pa,), (pb,) = a.backend.plans.values(), b.backend.plans.values()
        assert pa.digest != pb.digest
        assert len(pa) != len(pb)


class TestFallback:
    """Hooks that must see individual launches bypass plan replay."""

    def _parity_under(self, prepare):
        wl = cavity()
        si = build(wl, ABLATION_CONFIGS[0], "interpreted")
        sc = build(wl, ABLATION_CONFIGS[0], "compiled")
        prepare(si)
        prepare(sc)
        si.run(3)
        sc.run(3)
        assert_bit_identical(states(si), states(sc))
        return sc

    def test_access_tracer_falls_back(self):
        sc = self._parity_under(lambda s: s.runtime.capture_start())
        assert sc.backend.stats["plan_fallback_steps"] == 3
        assert sc.runtime.captured  # tracer really observed the launches

    def test_fault_injector_falls_back(self):
        from repro.resilience.faults import FaultInjector
        sc = self._parity_under(lambda s: FaultInjector([]).install(s))
        assert sc.backend.stats["plan_fallback_steps"] == 3

    def test_spans_do_not_fall_back(self):
        wl = cavity()
        sc = build(wl, ABLATION_CONFIGS[0], "compiled")
        rec = sc.enable_tracing()
        sc.run(3)
        assert sc.backend.stats["plan_fallback_steps"] == 0
        assert sc.backend.stats["plan_cache_hits"] == 2
        # one span per record, even on replayed steps
        assert len(rec.kernel_spans) == len(sc.runtime.records)
        events = [e for e in rec.events if e.name == "plan_compile"]
        assert len(events) == 1
        assert events[0].meta["kernels"] == len(
            next(iter(sc.backend.plans.values())))

    def test_compiled_mid_plan_failure_closes_step(self):
        wl = cavity()
        sc = build(wl, ABLATION_CONFIGS[0], "compiled")
        sc.run(1)
        plan = next(iter(sc.backend.plans.values()))
        boom_at = len(plan.bodies) // 2

        def boom():
            raise RuntimeError("mid-plan failure")

        object.__setattr__(plan, "bodies",
                           plan.bodies[:boom_at] + (boom,)
                           + plan.bodies[boom_at + 1:])
        with pytest.raises(RuntimeError, match="mid-plan failure") as ei:
            sc.run(1)
        rt = sc.runtime
        # error contract: partial step closed, kernel named on the exc
        assert rt.markers[-1] == len(rt.records)
        assert ei.value.kernel_span["name"] == plan.records[boom_at].name
        assert sc.steps_done == 1


class TestAdmission:
    def test_plans_carry_validated_certificates(self):
        from repro.analysis.certificate import validate_certificate
        sim = build(cavity(), ABLATION_CONFIGS[-1], "compiled")
        sim.run(1)
        plan = next(iter(sim.backend.plans.values()))
        assert plan.certificate["stream_digest"] == plan.digest
        assert validate_certificate(plan.certificate,
                                    list(plan.records)) == []

    def test_empty_capture_refused(self):
        sim = build(cavity(), ABLATION_CONFIGS[0], "compiled")

        class NoopStepper:
            engine = sim.engine
            config = ABLATION_CONFIGS[0]
            num_levels = sim.num_levels
            def _advance(self, lv):
                pass

        with pytest.raises(PlanAdmissionError, match="empty"):
            compile_plan(NoopStepper())

    def test_tampered_stream_refused(self):
        # Dropping the recursion's fine substeps produces a stream whose
        # certificate/legality no longer matches the config's contract.
        sim = build(cavity(), ABLATION_CONFIGS[0], "compiled")
        stepper = sim.stepper

        class CoarseOnly:
            engine = stepper.engine
            config = stepper.config
            num_levels = stepper.num_levels
            def _advance(self, lv):
                eng = self.engine
                eng.op_collide(lv)
                eng.op_stream(lv)

        with pytest.raises(PlanAdmissionError):
            compile_plan(CoarseOnly())


class TestSelection:
    def test_registry_and_unknown_name(self):
        assert available_backends() == ("interpreted", "compiled",
                                        "compiled-aa", "mp")
        assert isinstance(make_backend("compiled"), CompiledBackend)
        assert isinstance(make_backend("compiled-aa"), CompiledAABackend)
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("torch")

    def test_simconfig_validates_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SimConfig(viscosity=0.05, backend="warp")
        cfg = SimConfig(viscosity=0.05, backend="compiled")
        assert cfg.as_dict()["backend"] == "compiled"

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        assert isinstance(resolve_backend(None), CompiledBackend)
        monkeypatch.delenv("REPRO_BACKEND")
        assert isinstance(resolve_backend(None), InterpretedBackend)
        # an explicit config name beats the environment
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        assert isinstance(resolve_backend("interpreted"),
                          InterpretedBackend)

    def test_simulation_wires_selected_backend(self):
        wl = cavity()
        sim = build(wl, ABLATION_CONFIGS[0], "compiled")
        assert sim.backend.name == "compiled"
        assert sim.backend is sim.stepper.backend


class TestObservability:
    def test_run_metrics_publish_plan_counters(self):
        from repro.obs.metrics import run_metrics
        sim = build(cavity(), ABLATION_CONFIGS[0], "compiled")
        sim.run(4)
        reg = run_metrics(sim)
        assert reg["plan_cache_misses"].value == 1
        assert reg["plan_cache_hits"].value == 3
        assert reg["plan_fallback_steps"].value == 0
        assert reg["plan_compile_seconds"].value > 0

    def test_measure_records_backend(self):
        from repro.bench.harness import measure
        wl = cavity()
        m = measure(wl, ABLATION_CONFIGS[0], steps=2, warmup=1,
                    backend="compiled")
        assert m.backend == "compiled"
        assert m.summary()["backend"] == "compiled"

    def test_history_digest_salted_by_backend(self):
        from repro.bench.history import build_record, config_digest
        metrics = {"wall_seconds": 1.0}
        assert config_digest(metrics) != config_digest(
            metrics, backend="compiled")
        assert config_digest(metrics, backend="compiled") != config_digest(
            metrics, backend="interpreted")
        rec = build_record("b", metrics, backend="compiled", sha="x")
        assert rec["backend"] == "compiled"
        assert rec["config_digest"] == config_digest(metrics,
                                                     backend="compiled")

    def test_smoke_payload_shape(self):
        # tiny but real end-to-end: both series plus per-config speedups
        from repro.bench.smoke import SMOKE_CONFIGS, run_smoke
        payload = run_smoke(steps=1, warmup=1)
        for name in SMOKE_CONFIGS:
            assert payload["measurements"][name]["backend"] == "interpreted"
            assert payload["compiled"][name]["backend"] == "compiled"
            assert payload["speedup"][name]["speedup"] > 0
        assert payload["speedup"]["mean"]["speedup"] > 0


class TestTieredLeg:
    def test_env_var_reaches_default_construction(self, monkeypatch):
        # The CI compiled leg sets $REPRO_BACKEND; make sure a config
        # that does not name a backend picks it up.
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        wl = cavity()
        sim = Simulation.from_config(wl.spec, wl.sim_config(
            fusion=ABLATION_CONFIGS[0]))
        assert sim.backend.name == "compiled"

    def test_env_default_is_interpreted(self):
        assert os.environ.get("REPRO_BACKEND", "") or True  # env-agnostic
        assert resolve_backend("interpreted").name == "interpreted"
