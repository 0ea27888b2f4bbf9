"""The interpreted reference backend: re-dispatched immediate execution.

This is the package's original hot path, extracted verbatim from
``NonUniformStepper.step``: every coarse step re-drives the Algorithm-1
recursion, and every ``op_*`` goes through
:meth:`~repro.neon.runtime.Runtime.launch` — constructing its record,
consulting the tracer/fault hooks and executing its body.  Slowest,
most observable, and the correctness reference every other backend is
gated against bit-for-bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stepper import NonUniformStepper

__all__ = ["InterpretedBackend"]


class InterpretedBackend:
    """Reference execution: one ``Runtime.launch`` per kernel per step."""

    name = "interpreted"

    def step(self, stepper: "NonUniformStepper") -> None:
        """Advance the coarsest level by one time step.

        If a kernel body raises mid-step, the partial step is closed
        (:meth:`~repro.neon.runtime.Runtime.abort_step`) before the
        exception propagates, so span trees stay balanced and the trace
        remains exportable/valid.
        """
        rt = stepper.engine.rt
        try:
            stepper._advance(0)
            rt.step_marker()
        except BaseException:
            rt.abort_step()
            raise
        stepper.steps_done += 1
