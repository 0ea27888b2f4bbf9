"""Compiled step plans: a captured kernel stream replayed without dispatch.

A :class:`StepPlan` is the product of one plan compilation
(:mod:`repro.backend.compiler`): the captured
:class:`~repro.neon.runtime.KernelRecord` stream of one coarse step,
the body each of those launches handed the runtime (the engine's own
kernel closures, over index maps resolved at engine build), the stream
digest that ties the plan to its admission certificate, and the arena
model behind any AA-swapped buffers.  :meth:`StepPlan.execute` is the
entire replay hot path: call the closures in order, append the
prebuilt records — no ``Runtime.launch``, no record construction, no
per-launch Python re-dispatch.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..neon.runtime import KernelRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gpu.memory import BufferLifetime
    from ..neon.runtime import Runtime

__all__ = ["StepPlan"]


class StepPlan:
    """One compiled coarse step: prebuilt records plus captured bodies.

    The record tuple is shared across every replay (records are frozen
    dataclasses; appending the same instances each step is what makes
    the trace of a compiled run bit-identical to the interpreted one).
    """

    def __init__(self, records: Sequence[KernelRecord],
                 bodies: Sequence[Callable[[], None]],
                 *, digest: str, certificate: dict[str, Any],
                 arena: Sequence["BufferLifetime"] = (),
                 arena_bytes: int = 0,
                 dropped: Sequence[str] = (),
                 label: str = "") -> None:
        if len(records) != len(bodies):
            raise ValueError("one body per record is the plan invariant")
        self.records: tuple[KernelRecord, ...] = tuple(records)
        self.bodies: tuple[Callable[[], None], ...] = tuple(bodies)
        #: SHA-256 stream digest (also in the admission certificate).
        self.digest = digest
        #: Admission certificate the plan validated against (PR-5 schema).
        self.certificate = certificate
        #: Arena lifetimes of the AA-swapped buffers.
        self.arena: tuple["BufferLifetime", ...] = tuple(arena)
        #: Arena capacity the AA slabs occupy, in bytes.
        self.arena_bytes = int(arena_bytes)
        #: Fields whose double buffer was physically dropped (AA mode).
        self.dropped: tuple[str, ...] = tuple(dropped)
        #: Human label for spans/diagnostics (config + workload shape).
        self.label = label
        self.replays = 0

    def __len__(self) -> int:
        return len(self.records)

    def execute(self, rt: "Runtime") -> None:
        """Replay the plan once: run every body, append every record.

        Mirrors the runtime's serial error contract: on a mid-plan
        failure the records of the bodies that *did* run are kept, the
        exception gains a ``kernel_span`` attribute naming the failed
        kernel, and the caller is expected to close the partial step
        with :meth:`~repro.neon.runtime.Runtime.abort_step`.

        With a span recorder installed the replay times each body and
        reports it through ``on_launch`` exactly like immediate
        execution does, so Perfetto timelines and the roofline work
        unchanged over compiled runs.
        """
        records = rt.records
        spans = rt.spans
        done = 0
        try:
            if spans is None:
                for body in self.bodies:
                    body()
                    done += 1
            else:
                base = len(records)
                for i, body in enumerate(self.bodies):
                    t0 = perf_counter()
                    body()
                    done += 1
                    records.append(self.records[i])
                    spans.on_launch(base + i, self.records[i], t0,
                                    perf_counter() - t0)
        except BaseException as exc:
            if spans is None:
                records.extend(self.records[:done])
            rec = self.records[done]
            setattr(exc, "kernel_span",
                    {"index": len(records), "name": rec.name,
                     "level": rec.level, "n_cells": rec.n_cells,
                     "start": 0.0, "dur_us": 0.0})
            raise
        if spans is None:
            records.extend(self.records)
        self.replays += 1
