"""Pluggable compute backends: how one coarse step actually executes.

The Algorithm-1 stepper (:mod:`repro.core.stepper`) describes *what* a
coarse step does; a backend decides *how* it runs:

* :class:`~repro.backend.interpreted.InterpretedBackend` — the reference
  path: every ``op_*`` re-dispatches through :meth:`Runtime.launch
  <repro.neon.runtime.Runtime.launch>` each step (immediate NumPy
  execution, full tracing, all runtime hooks).
* :class:`~repro.backend.compiled.CompiledBackend` — compile-once step
  plans: the first execution of each unique step shape captures the
  kernel stream in plan-only mode together with each launch's body
  (the engine's own ``op_*`` closure, over index maps the engine
  resolved at build), admits it, and replays those bodies on later
  steps with zero Python re-dispatch of the launch path.  Bit-identical
  to the interpreted path, since it runs the same kernel code.
* :class:`~repro.backend.compiled.CompiledAABackend` — the compiled
  plan plus AA-pattern in-place streaming: population double buffers
  the static linter proves droppable are swapped for buffer-arena slabs
  (paper §VI-B).  Memory equals ``compiled``; the saving is the
  linter's modelled arena figure.
* :class:`~repro.backend.mp.MultiprocessBackend` — process-parallel
  replay of the same admitted plans: level buffers live in shared
  memory, a spawn-based worker pool replays the captured engine bodies
  as cost-model-balanced kernel shards wave-by-wave, escaping the GIL
  entirely.  Bit-identical to the interpreted path; worker death
  surfaces as a recoverable :class:`~repro.backend.mp.MpWorkerError`.

Select a backend with ``SimConfig(backend="compiled")`` or the
``$REPRO_BACKEND`` environment variable; the default is interpreted.
The seam is duck-typed (``step(stepper)`` + a ``name``), sized so a
torch or genuinely device-compiled backend can slot in later without
touching the stepper.
"""

from .base import (Backend, PlanAdmissionError, available_backends,
                   make_backend, resolve_backend)
from .compiled import CompiledAABackend, CompiledBackend
from .interpreted import InterpretedBackend
from .mp import MpWorkerError, MultiprocessBackend
from .plan import StepPlan

__all__ = [
    "Backend", "PlanAdmissionError", "available_backends", "make_backend",
    "resolve_backend", "InterpretedBackend", "CompiledBackend",
    "CompiledAABackend", "MultiprocessBackend", "MpWorkerError", "StepPlan",
]
