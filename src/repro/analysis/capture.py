"""Capture of the primitives a kernel body actually runs, and their accesses.

The engine's kernel bodies are built from six primitive helpers
(Collision, Accumulate, Streaming, Explosion, the original baseline's
Explosion copy, Coalescence).  Each helper reports *which* primitive it
ran, and in which mode, to the active :class:`AccessTracer` — nothing
more.  What a primitive touches is written down once, in
:class:`~repro.analysis.static.AccessModel`; at the end of a launch the
tracer expands the primitives the body executed through that model, so
:attr:`~repro.neon.runtime.Runtime.captured` still maps each record
index to its list of :class:`Access` records.

Declarations (the ``reads=``/``writes=`` tuples and byte counts handed to
:meth:`~repro.neon.runtime.Runtime.launch`) never feed into the capture:
what a body *runs* is diffed against what its record *names* by the
composition check (:func:`~repro.analysis.static.composition_findings`)
and, through the expanded accesses, by :mod:`repro.analysis.verify`.

Row coordinates are the engine's compact row space: rows ``0..n_owned-1``
are the owned cells of a level, rows ``n_owned..n_used-1`` the fine-ghost
region of the original baseline, named as the logical ``fghost`` field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from ..neon.runtime import FieldRef, KernelRecord

__all__ = ["Access", "AccessTracer", "Primitive",
           "READ", "WRITE", "ATOMIC", "META"]

#: Access kinds.  ``META`` is structural-metadata traffic (neighbour
#: tables, bitmasks): it contributes to the read-byte total but names no
#: field, so it is exempt from declaration matching and race checks.
READ = "read"
WRITE = "write"
ATOMIC = "atomic"
META = "meta"


@dataclass(frozen=True)
class Access:
    """One access: a field, a half-open row interval, a payload.

    ``nbytes`` models the DRAM traffic of the access under the same
    accounting the declarations use (register-resident re-reads inside a
    fused kernel carry 0 bytes); ``lo``/``hi`` bound the rows indexed.
    ``entries`` (when not ``None``) is the exact set of touched entry
    ids ``q * n_rows + row`` — the interval is then only an envelope,
    and two exact accesses conflict only if the sets intersect (see
    :func:`repro.neon.graph._access_overlap`).
    """

    field: FieldRef | None
    kind: str
    lo: int
    hi: int
    nbytes: int
    entries: frozenset[int] | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f"{self.field}[{self.lo}:{self.hi}]" if self.field else "meta"
        exact = f" ({len(self.entries)} exact)" if self.entries is not None else ""
        return f"{self.kind} {where}{exact} ({self.nbytes} B)"


class Primitive(NamedTuple):
    """One primitive operation at a level: what a body ran, or a record names.

    ``name`` is a modified-baseline kernel (``C``, ``A``, ``S``, ``E``,
    ``O``).  ``mode`` selects its variant: Accumulate ``"fused"``,
    ``"scatter"`` or ``"gather"``; Explosion ``"ghost"`` (reads the fine
    ghost layer) or ``"copy"`` (the original baseline's coarse-to-ghost
    copy).  ``subsumed`` marks an Explosion or Coalescence fused into
    Streaming, whose ``f`` writes the bulk pull already paid for.
    """

    name: str
    level: int
    mode: str = ""
    subsumed: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tags = [t for t in (self.mode, "subsumed" if self.subsumed else "") if t]
        return f"{self.name}{self.level}" + (f"({','.join(tags)})" if tags else "")


class AccessTracer:
    """Collects the primitives of the kernel body in flight.

    The runtime brackets every traced launch with :meth:`begin_launch` /
    :meth:`end_launch`; engine helpers call :meth:`ran` once each while a
    launch is active (calls outside a launch are dropped).  A successful
    launch's primitives are kept in :attr:`executed` under its record
    index and returned expanded into accesses; a failed launch keeps
    nothing.
    """

    def __init__(self) -> None:
        self._current: list[Primitive] | None = None
        self._engine: Any = None
        self._model: Any = None
        #: Primitives each successful launch ran, by record index.
        self.executed: dict[int, list[Primitive]] = {}

    def begin_launch(self) -> None:
        if self._current is not None:
            raise RuntimeError("nested kernel launches cannot be traced")
        self._current = []

    def ran(self, engine: Any, name: str, level: int, mode: str = "",
            subsumed: bool = False) -> None:
        """Note that ``engine`` just ran one primitive."""
        if self._current is None:
            return
        if engine is not self._engine:
            from .static import AccessModel
            self._engine, self._model = engine, AccessModel(engine)
        self._current.append(Primitive(name, level, mode, subsumed))

    def end_launch(self, index: int | None = None,
                   record: KernelRecord | None = None) -> list[Access]:
        """Close the launch; with its record, keep it and return its accesses.

        Without ``record`` (the body failed) the primitives are dropped.
        """
        if self._current is None:
            raise RuntimeError("end_launch() without begin_launch()")
        prims, self._current = self._current, None
        if index is None or record is None:
            return []
        self.executed[index] = prims
        return self._model.expand(record, prims) if prims else []
