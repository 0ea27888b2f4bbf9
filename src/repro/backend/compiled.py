"""Compiled backends: cache a step plan per step shape, then replay.

The first execution of each unique step shape — fusion config, per-level
relaxation rates, body force, engine state epoch — compiles a
:class:`~repro.backend.plan.StepPlan` (capture records and bodies,
admit, and for AA swap in arena slabs; see
:mod:`repro.backend.compiler`) and caches it.  Every later step of the
same shape replays the cached plan with zero Python re-dispatch of the
launch path.

Runtime hooks that must observe or intercept *individual launches*
(tracer, fault injector) make replay meaningless, so steps running
under them fall back to the interpreted reference path —
counted, never silent.  Span recorders keep working through the plan's
timed replay, and checkpoint restores bump the engine's state epoch so
stale plans are never replayed against restored state.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any

from .compiler import compile_plan
from .interpreted import InterpretedBackend
from .plan import StepPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stepper import NonUniformStepper

__all__ = ["CompiledBackend", "CompiledAABackend"]

PlanKey = tuple[Any, ...]


class CompiledBackend:
    """Compile-once / replay-many execution of the coarse step."""

    name = "compiled"
    #: AA-pattern buffer dropping is the :class:`CompiledAABackend` opt-in.
    drop_proven = False

    def __init__(self) -> None:
        self.plans: dict[PlanKey, StepPlan] = {}
        self._fallback = InterpretedBackend()
        #: Counters surfaced through ``repro.obs.metrics.run_metrics``.
        self.stats: dict[str, float] = {
            "plan_cache_hits": 0,
            "plan_cache_misses": 0,
            "plan_fallback_steps": 0,
            "plan_compile_seconds": 0.0,
        }

    def _plan_key(self, stepper: "NonUniformStepper") -> PlanKey:
        """Everything a cached plan's bindings depend on.

        ``SimConfig`` changes and regrids build a new ``Simulation`` (and
        with it a fresh backend instance), so those invalidate by
        construction; checkpoint restores mutate buffers in place and are
        keyed via the engine's ``state_epoch``.
        """
        engine = stepper.engine
        force_key = tuple(
            None if fv is None else tuple(float(c) for c in fv)
            for fv in engine.force)
        return (stepper.config, tuple(engine.omega), force_key,
                engine.state_epoch)

    def _obtain_plan(self, stepper: "NonUniformStepper") -> StepPlan:
        key = self._plan_key(stepper)
        plan = self.plans.get(key)
        if plan is not None:
            self.stats["plan_cache_hits"] += 1
            return plan
        t0 = perf_counter()
        plan = compile_plan(stepper, drop_proven=self.drop_proven)
        dt = perf_counter() - t0
        self.stats["plan_cache_misses"] += 1
        self.stats["plan_compile_seconds"] += dt
        self.plans[key] = plan
        spans = stepper.engine.rt.spans
        on_event = getattr(spans, "on_event", None)
        if on_event is not None:
            on_event("plan_compile", label=plan.label, kernels=len(plan),
                     digest=plan.digest, seconds=dt,
                     arena_bytes=plan.arena_bytes,
                     dropped=list(plan.dropped))
        return plan

    def step(self, stepper: "NonUniformStepper") -> None:
        """Advance one coarse step by plan replay (or counted fallback)."""
        if stepper.engine.rt.intercepts_launches:
            self.stats["plan_fallback_steps"] += 1
            self._fallback.step(stepper)
            return
        plan = self._obtain_plan(stepper)
        rt = stepper.engine.rt
        try:
            plan.execute(rt)
            rt.step_marker()
        except BaseException:
            rt.abort_step()
            raise
        stepper.steps_done += 1


class CompiledAABackend(CompiledBackend):
    """Compiled plans with AA-pattern in-place streaming (paper §VI-B).

    Population double buffers the lint pass proves droppable — the fused
    CASE path never reads ``fstar`` outside its own substep — are
    swapped for arena slabs of the same size, which the engine then uses
    in their place; the memory in use equals :class:`CompiledBackend`'s.
    Field values the stream declares as outputs stay bit-identical to
    the interpreted path, and only those are part of the contract.
    """

    name = "compiled-aa"
    drop_proven = True
