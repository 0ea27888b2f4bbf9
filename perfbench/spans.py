"""In-memory span recorder and the wrappers that feed it.

A traced benchmark run records one span per call into each layer of the
program.  The spans come from this file alone: :func:`install` replaces
public callables of ``repro`` (class attributes and the module-level names
the callers bind) with timing wrappers, and :func:`uninstall` puts the
originals back.  No program file knows it is being traced.

A span is ``[name, start, end, parent, job, thread, attrs]``: ``start`` and
``end`` are ``time.perf_counter`` seconds, ``parent`` is the index of the
enclosing span on the same thread (``-1`` at the top), ``job`` the job id the
span belongs to (a serve job id, a cavity set-up index, or ``""``), and
``attrs`` a small dict (kernel name, declared bytes, ...).
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import threading
from time import perf_counter

__all__ = ["SpanRecorder", "install", "uninstall"]

NAME, START, END, PARENT, JOB, THREAD, ATTRS = range(7)


class SpanRecorder:
    """Spans of every thread, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def job(self) -> str:
        """The job id spans opened on this thread are attributed to."""
        return getattr(self._local, "job", "")

    @job.setter
    def job(self, value: str) -> None:
        self._local.job = value

    def begin(self, name: str, job: str | None = None, **attrs) -> int:
        stack = self._stack()
        span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                self.job if job is None else job, threading.get_ident(), attrs]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def end(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        if attrs:
            span[ATTRS].update(attrs)
        self._stack().pop()

    def add(self, name: str, start: float, end: float, job: str = "",
            **attrs) -> None:
        """Record a span timed by the caller (no parent, off the stack)."""
        with self._lock:
            self.spans.append([name, start, end, -1, job,
                               threading.get_ident(), attrs])

    def dump(self, path: str) -> None:
        """Write every span as one gzipped JSON line."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=str) + "\n")


def _job_of_dir(path: str) -> str:
    """``<root>/jobs/<job_id>[/ckpt]`` -> ``<job_id>``."""
    parts = os.path.normpath(str(path)).split(os.sep)
    if "jobs" in parts:
        i = len(parts) - 1 - parts[::-1].index("jobs")
        if i + 1 < len(parts):
            return parts[i + 1]
    return ""


def _timed(rec: SpanRecorder, name: str, orig, job=None, after=None):
    """Wrap ``orig`` in a span; ``job(args)`` names it, ``after`` adds attrs."""

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name, job(args, kwargs) if job is not None else None)
        result = None
        try:
            result = orig(*args, **kwargs)
            return result
        finally:
            rec.end(idx, **(after(args, kwargs, result) if after is not None
                            and result is not None else {}))

    return wrapper


def _population_bytes(engine) -> int:
    return sum(b.f.nbytes + b.fstar.nbytes + b.ghost_acc.nbytes
               for b in engine.levels)


def install(rec: SpanRecorder) -> list[tuple[object, str, object]]:
    """Wrap the layer boundaries; return the undo list for :func:`uninstall`."""
    from repro.backend import (CompiledAABackend, CompiledBackend,
                               InterpretedBackend, MultiprocessBackend)
    from repro.core import collision as collision_mod
    from repro.core import simulation as simulation_mod
    from repro.core.engine import Engine
    from repro.io.checkpoint import CheckpointStore
    from repro.neon.runtime import Runtime
    from repro.resilience.runner import ResilientRunner
    from repro.serve import server as server_mod
    from repro.serve.server import JobServer

    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, new) -> None:
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                     else getattr(owner, attr)))
        setattr(owner, attr, new)

    # repro.grid: the grid compiler, at the name Simulation binds.
    patch(simulation_mod, "build_multigrid",
          _timed(rec, "grid.build", simulation_mod.build_multigrid))

    # repro.core: engine construction and (re-)initialisation.
    orig_engine_init = Engine.__init__

    @functools.wraps(orig_engine_init)
    def engine_init(self, *args, **kwargs):
        idx = rec.begin("engine.init")
        try:
            orig_engine_init(self, *args, **kwargs)
        finally:
            rec.end(idx, population_bytes=_population_bytes(self)
                    if hasattr(self, "levels") else 0)

    patch(Engine, "__init__", engine_init)
    patch(Engine, "initialize", _timed(rec, "engine.initialize", Engine.initialize))

    # repro.core collision: every model that defines its own collide.
    def collide_bytes(args, kwargs, out):
        f = args[1]
        return {"bytes": 2 * f.shape[0] * f.dtype.itemsize * f.shape[1]}

    for cls in collision_mod.CollisionModel.__subclasses__():
        if "collide" in cls.__dict__:
            patch(cls, "collide",
                  _timed(rec, "collide", cls.__dict__["collide"],
                         after=collide_bytes))

    # repro.neon: the launch path, and the kernel body it receives.
    orig_launch = Runtime.launch

    @functools.wraps(orig_launch)
    def launch(self, name, level, *, fn=None, **kw):
        if fn is not None:
            body = fn

            def fn():
                idx = rec.begin("body", kernel=name)
                try:
                    body()
                finally:
                    rec.end(idx)

        idx = rec.begin("launch", kernel=name, level=level,
                        bytes=int(kw.get("bytes_read", 0))
                        + int(kw.get("bytes_written", 0)))
        try:
            orig_launch(self, name, level, fn=fn, **kw)
        finally:
            rec.end(idx)

    patch(Runtime, "launch", launch)

    # repro.backend: one span per coarse step, whichever backend runs it.
    for cls in (InterpretedBackend, CompiledBackend, CompiledAABackend,
                MultiprocessBackend):
        if "step" in cls.__dict__:
            patch(cls, "step", _timed(rec, "backend.step", cls.__dict__["step"]))

    # repro.io: checkpoint generations (the store's directory names the job).
    def store_job(args, kwargs):
        return _job_of_dir(args[0].directory)

    def saved_bytes(args, kwargs, path):
        return {"bytes": os.path.getsize(path)}

    patch(CheckpointStore, "save",
          _timed(rec, "checkpoint.save", CheckpointStore.save, job=store_job,
                 after=saved_bytes))
    for attr in ("restore", "restore_latest"):
        patch(CheckpointStore, attr,
              _timed(rec, "checkpoint.restore", CheckpointStore.__dict__[attr],
                     job=store_job))

    # repro.resilience: runner construction is the job's set-up on its
    # worker thread, so it also tags the thread with the job id.
    orig_runner_init = ResilientRunner.__init__

    @functools.wraps(orig_runner_init)
    def runner_init(self, spec, config=None, **kwargs):
        store = kwargs.get("store")
        rec.job = _job_of_dir(getattr(store, "directory", "") or "")
        idx = rec.begin("runner.init")
        try:
            orig_runner_init(self, spec, config, **kwargs)
        finally:
            rec.end(idx)

    def run_report(args, kwargs, result):
        report = result.report
        return {"retries": report.retries, "rollbacks": len(report.failures)}

    patch(ResilientRunner, "__init__", runner_init)
    patch(ResilientRunner, "run",
          _timed(rec, "runner.run", ResilientRunner.run, after=run_report))

    # repro.serve: the pricing oracle and the job-state writers, at the
    # names the server binds.
    patch(JobServer, "predict",
          _timed(rec, "serve.predict", JobServer.predict,
                 job=lambda a, k: a[1].job_id))
    for attr in ("write_job_state", "write_job_payload"):
        patch(server_mod, attr,
              _timed(rec, "serve.persist", getattr(server_mod, attr),
                     job=lambda a, k: _job_of_dir(a[0])))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    """Restore every callable :func:`install` replaced."""
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)
