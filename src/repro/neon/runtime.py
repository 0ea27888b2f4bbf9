"""Mini-Neon: the programming-model substrate (paper Section V-C).

Neon composes GPU applications from *kernels* that declare which fields
they read and write; the runtime extracts the data-dependency graph,
schedules kernels, and places synchronisations only where needed.  We
reproduce the parts of that model the paper relies on:

* :class:`FieldRef` — identity of a data container (a field at a level);
* :class:`KernelRecord` — one executed kernel with its declared
  reads/writes and its memory-traffic footprint;
* :class:`Runtime` — executes kernel bodies immediately (host = the
  "device") while recording every launch for the profiler, the
  dependency-graph analysis (Fig. 2) and the GPU cost model.

The *functional* result of a program never depends on the recording; the
records are a faithful trace from which launch counts, bytes moved and
synchronisation depth are derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

__all__ = ["FieldRef", "KernelRecord", "Runtime"]

#: A kernel body: a no-argument closure over the engine's buffers (or
#: ``None`` for declaration-only launches).
KernelBody = Callable[[], None]


@dataclass(frozen=True)
class FieldRef:
    """Identity of a field instance on one grid level."""

    name: str
    level: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}@{self.level}"


@dataclass(frozen=True)
class KernelRecord:
    """Trace entry for one kernel launch.

    ``bytes_read``/``bytes_written`` count the *payload* DRAM traffic the
    equivalent CUDA kernel would generate; ``atomic_bytes`` is the subset
    of the writes performed with atomic adds (the Accumulate scatter).
    ``n_cells`` is the number of lattice cells the kernel touches (its
    thread count, up to block-granularity rounding).
    """

    name: str
    level: int
    n_cells: int
    bytes_read: int
    bytes_written: int
    reads: tuple[FieldRef, ...]
    writes: tuple[FieldRef, ...]
    atomic_bytes: int = 0
    tag: str = ""

    @property
    def bytes_total(self) -> int:
        """Declared DRAM traffic of the launch (reads + writes)."""
        return self.bytes_read + self.bytes_written


class Runtime:
    """Immediate-mode executor with full launch tracing.

    ``launch`` runs ``fn`` (if given) and appends a :class:`KernelRecord`.
    ``step_marker`` tags coarse-timestep boundaries so benchmarks can cut
    the trace per step.
    """

    def __init__(self) -> None:
        self.records: list[KernelRecord] = []
        self.markers: list[int] = []
        #: Active :class:`~repro.analysis.capture.AccessTracer`, or ``None``.
        self.tracer: Any = None
        #: Observed accesses per record index (populated in capture mode).
        self.captured: dict[int, list[Any]] = {}
        #: Active span recorder (see :mod:`repro.obs.spans`), or ``None``.
        #: Duck-typed so the runtime never imports the observability layer:
        #: ``on_launch(index, record, start, duration)`` after every launch,
        #: ``on_step(step_index, start_record, end_record)`` at each coarse-
        #: step marker, ``on_reset()`` on :meth:`reset`.  Spans are opt-in
        #: and, when absent, the hot path pays a single ``None`` test.
        self.spans: Any = None
        #: Active fault injector (see :mod:`repro.resilience.faults`), or
        #: ``None``.  Duck-typed like the span recorder so the runtime
        #: never imports the resilience layer: ``wrap_body(name, level,
        #: fn)`` may substitute a kernel body at launch, ``on_step(step)``
        #: fires after each coarse-step marker with the absolute
        #: completed-step count.  When absent the hot path pays a single
        #: ``None`` test.
        self.faults: Any = None
        #: Coarse steps completed before the current trace began (synced by
        #: checkpoint restore / post-warmup :meth:`reset`); per-step metrics
        #: subtract it so a restored run is not skewed by untraced history.
        self.steps_base = 0
        #: Plan-only mode (see :meth:`plan_start`): record launches without
        #: ever running kernel bodies — the declaration stream the static
        #: analyzer (:mod:`repro.analysis.static`) reasons about.
        self.plan_only = False
        #: Bodies of the launches :meth:`capture_plan` is recording, one
        #: per record, or ``None`` outside a capture.
        self._plan_bodies: list[KernelBody | None] | None = None

    def launch(self, name: str, level: int, *, n_cells: int,
               bytes_read: int, bytes_written: int,
               reads: tuple[FieldRef, ...] = (), writes: tuple[FieldRef, ...] = (),
               atomic_bytes: int = 0, tag: str = "",
               fn: KernelBody | None = None) -> None:
        """Record one kernel launch and run (or skip) its body.

        Appends a :class:`KernelRecord` built from the *declared*
        access sets and byte counts, then runs ``fn`` through whichever
        hooks are installed: plan-only mode records without executing,
        a fault hook may wrap the body and a tracer shadows its
        accesses.

        If the body raises, no record is appended and the exception
        gains a ``kernel_span`` attribute naming the failed kernel —
        the error contract compiled replay and the mp backend share,
        and the mark :class:`~repro.resilience.runner.ResilientRunner`
        recovers on.
        """
        rec = KernelRecord(
            name=name, level=level, n_cells=int(n_cells),
            bytes_read=int(bytes_read), bytes_written=int(bytes_written),
            reads=tuple(reads), writes=tuple(writes),
            atomic_bytes=int(atomic_bytes), tag=tag)
        if self.plan_only:
            # Declaration-only capture: the record is the whole launch.
            # Bodies, tracers and fault hooks are all bypassed — nothing
            # observes or mutates simulation state, which is the
            # property the static analyzer's "no execution" contract
            # needs.  A capture keeps the unexecuted body for replay.
            self.records.append(rec)
            if self._plan_bodies is not None:
                self._plan_bodies.append(fn)
            return
        if self.faults is not None:
            # The injector sees every launch and may wrap the body (to
            # raise a simulated kernel/OOM failure when it runs); the
            # record itself is never altered.
            fn = self.faults.wrap_body(name, level, fn)
        spans = self.spans
        t0 = perf_counter() if spans is not None else 0.0
        try:
            if self.tracer is not None:
                self.tracer.begin_launch()
                try:
                    if fn is not None:
                        fn()
                finally:
                    self.captured[len(self.records)] = self.tracer.end_launch()
            elif fn is not None:
                fn()
        except BaseException as exc:
            setattr(exc, "kernel_span",
                    {"index": len(self.records), "name": name,
                     "level": level, "n_cells": rec.n_cells,
                     "start": t0, "dur_us": 0.0})
            raise
        self.records.append(rec)
        if spans is not None:
            spans.on_launch(len(self.records) - 1, rec, t0, perf_counter() - t0)

    @property
    def intercepts_launches(self) -> bool:
        """True when a hook must see every launch.

        Plan-only mode, a tracer or a fault injector make plan replay
        meaningless; replaying backends fall back to per-launch dispatch
        while this holds.
        """
        return (self.plan_only or self.tracer is not None
                or self.faults is not None)

    def step_marker(self) -> None:
        """Mark the end of one coarse time step in the trace."""
        start = self.markers[-1] if self.markers else 0
        self.markers.append(len(self.records))
        if self.spans is not None:
            self.spans.on_step(len(self.markers) - 1, start, len(self.records))
        if self.faults is not None:
            # Field-corruption faults fire on step completion, before the
            # driver's callbacks (so an armed watchdog sees the damage at
            # the step it was injected).
            self.faults.on_step(self.steps_base + len(self.markers))

    def reset(self, steps_base: int | None = None) -> None:
        """Clear the trace; ``steps_base`` rebases per-step accounting.

        Pass the driver's current coarse-step count when resetting after
        a warmup or a checkpoint restore, so metrics over the new trace
        do not attribute zero-kernel steps to the untraced history.
        """
        self.records.clear()
        self.markers.clear()
        self.captured.clear()
        if steps_base is not None:
            self.steps_base = int(steps_base)
        if self.spans is not None:
            self.spans.on_reset()

    def abort_step(self) -> None:
        """Close the current (partial) coarse step after a mid-step failure.

        Whatever executed since the last marker is closed off with a
        step marker, so span trees stay balanced and per-step trace
        queries never leak a partial step into the next one.  The failed
        kernel itself never appended a record.  Idempotent.
        """
        start = self.markers[-1] if self.markers else 0
        if len(self.records) > start:
            self.step_marker()

    # -- fault hooks ---------------------------------------------------------
    def faults_install(self, injector: Any) -> None:
        """Install (or, with ``None``, remove) a fault injector."""
        self.faults = injector

    # -- span hooks ----------------------------------------------------------
    def spans_install(self, recorder: Any) -> None:
        """Install (or, with ``None``, remove) a span recorder.

        The recorder receives wall-clock start/duration for every launch
        from now on; it observes timing only and cannot perturb declared
        reads/writes, traffic accounting or the functional result.
        """
        self.spans = recorder

    # -- plan-only (declaration) capture -------------------------------------
    def plan_start(self) -> None:
        """Record declarations only: from now on no kernel body executes.

        The resulting trace is the *static kernel stream* — identical
        record-for-record to what an executing run would append (launch
        declarations are computed from grid geometry before any body
        runs), but produced without touching a single population value.
        :mod:`repro.analysis.static` builds its proofs over such streams.
        """
        self.plan_only = True

    def plan_stop(self) -> None:
        """Leave plan-only mode; subsequent launches execute normally."""
        self.plan_only = False

    def capture_plan(self, drive: Callable[[], None]
                     ) -> tuple[list[KernelRecord], list[KernelBody | None]]:
        """Capture the launches ``drive`` would make, without running them.

        Runs ``drive`` under plan-only mode and returns the records it
        appended together with each launch's unexecuted body, leaving
        the runtime's trace exactly as it was: the captured declarations
        are removed again, so profiling and per-step accounting never
        see the phantom launches.  This is the capture primitive behind
        compiled step plans (:mod:`repro.backend.compiler`), which
        replay exactly these bodies.
        """
        base = len(self.records)
        bodies: list[KernelBody | None] = []
        self._plan_bodies = bodies
        self.plan_start()
        try:
            drive()
        finally:
            self.plan_stop()
            self._plan_bodies = None
        captured = self.records[base:]
        del self.records[base:]
        return captured, bodies

    # -- access capture ------------------------------------------------------
    def capture_start(self) -> None:
        """Shadow-record every kernel body's actual buffer accesses.

        While active, each ``launch`` runs its body under an
        :class:`~repro.analysis.capture.AccessTracer`; the observed
        accesses land in :attr:`captured`, keyed by record index.  The
        functional result of the program is unaffected.
        """
        if self.tracer is None:
            from ..analysis.capture import AccessTracer
            self.tracer = AccessTracer()

    def capture_stop(self) -> dict[int, list[Any]]:
        """Stop capturing; return (and keep) the accesses observed so far."""
        self.tracer = None
        return dict(self.captured)

    # -- trace queries -------------------------------------------------------
    def last_step(self) -> list[KernelRecord]:
        """Records of the most recent complete coarse step."""
        if not self.markers:
            return list(self.records)
        start = self.markers[-2] if len(self.markers) >= 2 else 0
        return self.records[start:self.markers[-1]]

    def launches(self) -> int:
        """Total kernel launches recorded since the last reset."""
        return len(self.records)

    def total_bytes(self) -> int:
        """Total declared DRAM traffic over all recorded launches."""
        return sum(r.bytes_total for r in self.records)

    def summary_by_name(self) -> dict[str, dict[str, int]]:
        """Aggregate launches / cells / bytes per kernel name."""
        out: dict[str, dict[str, int]] = {}
        for r in self.records:
            agg = out.setdefault(r.name, {"launches": 0, "cells": 0, "bytes": 0})
            agg["launches"] += 1
            agg["cells"] += r.n_cells
            agg["bytes"] += r.bytes_total
        return out
