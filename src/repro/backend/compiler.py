"""Step-plan compiler: capture, admit, and (AA only) swap in arena slabs.

Compilation of one coarse step runs in three stages:

1. **Capture** — the kernel stream is recorded in the runtime's
   plan-only mode (:meth:`~repro.neon.runtime.Runtime.capture_plan`),
   record-for-record identical to an executing step's trace, each
   record with the unexecuted body the engine's ``op_*`` launched.
2. **Admission** — the captured stream must pass the PR-5 contract
   before any body runs: the lint pass reports zero errors, the fusion
   config is proven a legal contraction of the modified baseline (on
   the *live* engine's geometry, not a canned workload), and the
   assembled step-plan certificate validates against the stream (digest
   + hazard order).  Failure raises
   :class:`~repro.backend.base.PlanAdmissionError` — an inadmissible
   plan is never executed.
3. **AA swap** (``drop_proven`` only) — every ``fstar`` double buffer
   the lint pass proves droppable is replaced by a slab of the
   ``gpu/memory.py`` buffer arena (:func:`arena_assign`, re-checked with
   :func:`arena_check`).

There is no second copy of any kernel here: the index maps the bodies
need were resolved once when the engine was built
(:class:`~repro.core.engine.LevelBuffers`), and the bodies read the
level buffers when they run, so a plan replays the very closures the
interpreted path executes — bit-identical by construction, which the
backend-parity suite asserts across all fusion configs in 2D and 3D.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..analysis.certificate import build_certificate, validate_certificate
from ..analysis.lint import lint_stream
from ..analysis.static import AccessModel, LegalityProof, check_contraction
from ..gpu.memory import (BufferLifetime, arena_assign, arena_check,
                          arena_peak_bytes)
from ..neon.runtime import KernelRecord
from .base import PlanAdmissionError
from .plan import StepPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stepper import NonUniformStepper

__all__ = ["admit_stream", "compile_plan", "prove_plan_legality"]


def prove_plan_legality(stepper: "NonUniformStepper",
                        records: list[KernelRecord],
                        model: AccessModel) -> LegalityProof:
    """Prove the captured stream is a legal contraction, on the live grid.

    Unlike :func:`repro.analysis.static.prove_fusion_legality` (which
    proves configs on a canonical workload), this runs the contraction
    check against a modified-baseline stream captured from the *same*
    engine — the plan is admitted for the geometry it will actually
    replay on.  The original Fig. 4a layout is a different algorithm,
    not a contraction, and keeps its ``"baseline"`` verdict.
    """
    from ..core.fusion import MODIFIED_BASELINE
    from ..core.stepper import NonUniformStepper

    cfg = stepper.config
    if cfg.original_layout:
        return LegalityProof(config=cfg.name, baseline=cfg.name,
                             verdict="baseline", pairs_checked=0,
                             primitives=0, counterexamples=())
    baseline = NonUniformStepper(stepper.engine, MODIFIED_BASELINE)
    base_records, _ = stepper.engine.rt.capture_plan(
        lambda: baseline._advance(0))
    pairs, prims, cex = check_contraction(
        base_records, model.access_map(base_records), records,
        model.decompose)
    return LegalityProof(
        config=cfg.name, baseline=MODIFIED_BASELINE.name,
        verdict="legal" if not cex else "illegal", pairs_checked=pairs,
        primitives=prims, counterexamples=tuple(cex))


def admit_stream(stepper: "NonUniformStepper", *, workload: str = ""):
    """Capture one step's declaration stream and run plan admission.

    The shared front half of every plan-replaying backend: the stream is
    captured in plan-only mode, linted, proven a legal contraction on
    the live geometry and tied to a validated certificate.  Returns
    ``(records, bodies, certificate, lint_report)``; raises
    :class:`~repro.backend.base.PlanAdmissionError` when any part of the
    PR-5 contract fails — an inadmissible stream is never executed, in
    this process or any worker process replaying shards of it.
    """
    engine = stepper.engine
    rt = engine.rt
    records, bodies = rt.capture_plan(lambda: stepper._advance(0))
    if not records:
        raise PlanAdmissionError(["captured step stream is empty"])
    problems = [f"kernel {r.name!r} (record #{i}, level {r.level}) "
                f"declares work but has no body"
                for i, (r, b) in enumerate(zip(records, bodies)) if b is None]
    model = AccessModel(engine)
    lint = lint_stream(records, model)
    problems.extend(str(f) for f in lint.errors)
    proof = prove_plan_legality(stepper, records, model)
    if proof.verdict == "illegal":
        problems.extend(str(c) for c in proof.counterexamples[:3])
    label = workload or f"live-{engine.mgrid.d}d-{stepper.num_levels}lvl"
    cert = build_certificate(stepper.config.name, label, records, model,
                             proof, lint, steps=1)
    problems.extend(validate_certificate(cert, records))
    if problems:
        raise PlanAdmissionError(problems)
    return records, bodies, cert, lint


def compile_plan(stepper: "NonUniformStepper", *, drop_proven: bool = False,
                 workload: str = "") -> StepPlan:
    """Compile one coarse step of ``stepper`` into a :class:`StepPlan`.

    ``drop_proven`` enables AA-pattern in-place streaming: population
    double buffers the lint pass proves droppable (allocated but never
    accessed by any kernel of the stream — the CASE register file) are
    replaced by arena slabs, which the engine then uses in their place.
    """
    engine = stepper.engine
    records, bodies, cert, lint = admit_stream(stepper, workload=workload)
    label = workload or f"live-{engine.mgrid.d}d-{stepper.num_levels}lvl"

    dropped: tuple[str, ...] = ()
    if drop_proven:
        # ``fghost`` rows live in the tail of the fstar allocation; only
        # a whole-buffer fstar drop replaces physical storage.
        dropped = tuple(f.field for f in lint.opportunities
                        if f.check == "droppable-buffer"
                        and f.field.startswith("fstar@"))
    lifetimes, arena_bytes = _swap_in_slabs(engine, dropped, len(records))
    return StepPlan(records, bodies, digest=cert["stream_digest"],
                    certificate=cert, arena=lifetimes,
                    arena_bytes=arena_bytes, dropped=dropped,
                    label=f"{stepper.config.name}/{label}")


def _swap_in_slabs(engine, dropped: tuple[str, ...],
                   n_records: int) -> tuple[list[BufferLifetime], int]:
    """Back each dropped ``fstar`` with an arena slab instead of its own buffer.

    A dropped buffer is the CASE register file, live for the whole step.
    Its contents carry over, so the swap changes storage, not state.
    """
    reqs = [BufferLifetime(name=f"plan:{field}",
                           nbytes=engine.levels[int(field.partition("@")[2])]
                           .fstar.nbytes, first=0, last=n_records - 1)
            for field in dropped]
    lifetimes = arena_assign(reqs)
    problems = arena_check(lifetimes)
    if problems:
        raise PlanAdmissionError([f"plan arena: {p}" for p in problems])
    slab_nbytes: dict[int, int] = {}
    for lt in lifetimes:
        slab_nbytes[lt.slab] = max(slab_nbytes.get(lt.slab, 0), lt.nbytes)
    slabs = {s: np.empty(-(-nb // engine.itemsize), dtype=engine.dtype)
             for s, nb in slab_nbytes.items()}
    for lt in lifetimes:
        buf = engine.levels[int(lt.name.partition("@")[2])]
        store = slabs[lt.slab][:buf.fstar.size].reshape(buf.fstar.shape)
        store[:] = buf.fstar
        buf.fstar = store
    return lifetimes, arena_peak_bytes(lifetimes)
