"""Declaration-only (static) kernel-stream analysis.

PR 1's verifier needs the kernel bodies to *run* (shadow-execution
capture); the compiled-backend roadmap needs the same guarantees proved
**before** anything executes.  This module reasons about a kernel stream
from two inputs only:

* the :class:`~repro.neon.runtime.KernelRecord` declarations (fields,
  byte totals, atomics) a plan-only run records
  (:meth:`~repro.neon.runtime.Runtime.plan_start` — no body executes),
* the grid geometry already compiled into the engine's per-level index
  arrays (row counts, scatter/gather maps) — data, not execution.

From these it infers **symbolic access sets** — field x level x
half-open row interval x read/write/atomic, with exact entry sets for
the small scatter/gather patches — and proves:

* **declaration consistency**: the symbolic sets reproduce each record's
  declared field sets and byte totals exactly (the dynamic verifier's
  checks, statically);
* **fusion legality**: a fused stream is a valid *contraction* of the
  modified-baseline stream — every conflicting access pair of the
  baseline keeps its happens-before order, either inside one fused
  kernel (body order) or across kernels (a path in the fused declared
  DAG).  Violations produce a structured :class:`Counterexample` naming
  the conflicting pair;
* **dynamic containment**: statically inferred access sets are a
  superset of anything shadow-execution capture observes (the
  cross-check mode of ``python -m repro analysis --static``).

The symbolic access sets also feed the lint pass
(:mod:`repro.analysis.lint`) and the step-plan certificates
(:mod:`repro.analysis.certificate`) the future compiled backend consumes
as its admission contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from ..core.fusion import MODIFIED_BASELINE, FusionConfig
from ..neon.graph import build_dependency_graph, iter_conflict_pairs
from ..neon.runtime import FieldRef, KernelRecord, Runtime
from .capture import ATOMIC, META, READ, WRITE
from .verify import Finding, verify_record

if TYPE_CHECKING:
    from ..core.engine import Engine, LevelBuffers

__all__ = [
    "StaticAccess", "AccessModel", "plan_stream",
    "verify_static", "superset_findings",
    "Counterexample", "LegalityProof", "check_contraction",
    "prove_fusion_legality", "swap_declaration", "seeded_illegal_proof",
]


@dataclass(frozen=True)
class StaticAccess:
    """One symbolic access: a field, a row interval, an optional exact set.

    Attribute-compatible with :class:`~repro.analysis.capture.Access`
    (``field``/``kind``/``lo``/``hi``/``nbytes``) so the dynamic
    verifier and the graph conflict tests consume either.  ``entries``
    (when not ``None``) is the exact set of touched entry ids
    ``q * n_rows + row`` — the bounding interval is then only an
    envelope, and two exact accesses conflict only if the sets
    intersect (see :func:`repro.neon.graph._access_overlap`).
    """

    field: FieldRef | None
    kind: str
    lo: int
    hi: int
    nbytes: int
    entries: frozenset[int] | None = None

    def covers(self, lo: int, hi: int) -> bool:
        """True when ``[lo, hi)`` lies inside this access's interval."""
        return self.lo <= lo and hi <= self.hi

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f"{self.field}[{self.lo}:{self.hi}]" if self.field else "meta"
        exact = f" ({len(self.entries)} exact)" if self.entries is not None else ""
        return f"{self.kind} {where}{exact} ({self.nbytes} B)"


def _span(rows: np.ndarray) -> tuple[int, int]:
    if rows.size == 0:
        return (0, 0)
    return (int(rows.min()), int(rows.max()) + 1)


class AccessModel:
    """Symbolic per-kernel access sets from engine geometry alone.

    Mirrors, index array by index array, what the shadow tracer in
    :mod:`repro.core.engine` records when the body actually runs — but
    reads only the engine's pre-resolved index maps, never a population
    value.  The ``--static`` cross-check gate asserts the mirror stays a
    superset of dynamic capture on every configuration.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.q: int = engine.lat.q
        self.itemsize: int = engine.itemsize

    # -- geometry helpers ----------------------------------------------------
    def _buf(self, lv: int) -> "LevelBuffers":
        return self.engine.levels[lv]

    def has_accumulate(self, lv: int) -> bool:
        """True when level ``lv`` scatters into a parent ghost layer."""
        return lv > 0 and self._buf(lv - 1).acc_m > 0

    def has_explosion(self, lv: int) -> bool:
        return self._buf(lv).exp_q.size > 0

    def field_nbytes(self, ref: FieldRef) -> int:
        """Allocated bytes of the buffer backing ``ref``.

        ``fghost`` rows live in the tail of the ``fstar`` allocation
        (rows ``n_owned..n_used``); they are reported separately so the
        arena model can see both regions, but share one allocation.
        """
        buf = self._buf(ref.level)
        if ref.name in ("f", "fstar"):
            return self.q * buf.n_used * self.itemsize
        if ref.name == "fghost":
            return self.q * (buf.n_used - buf.n_owned) * self.itemsize
        if ref.name == "gacc":
            return int(buf.ghost_acc.size) * self.itemsize
        raise KeyError(f"unknown field {ref}")

    def known_fields(self) -> list[FieldRef]:
        """Every allocatable field of the compiled stack, all levels."""
        out: list[FieldRef] = []
        for lv, buf in enumerate(self.engine.levels):
            out.append(FieldRef("f", lv))
            out.append(FieldRef("fstar", lv))
            if buf.ghost_acc.size:
                out.append(FieldRef("gacc", lv))
            if buf.n_used > buf.n_owned:
                out.append(FieldRef("fghost", lv))
        return out

    # -- per-kernel-family access builders -----------------------------------
    def _collide(self, lv: int) -> list[StaticAccess]:
        buf = self._buf(lv)
        nb = self.q * self.itemsize * buf.n_owned
        return [StaticAccess(FieldRef("f", lv), READ, 0, buf.n_owned, nb),
                StaticAccess(FieldRef("fstar", lv), WRITE, 0, buf.n_owned, nb)]

    def _accumulate(self, lv: int, mode: str) -> list[StaticAccess]:
        """Accumulate of fine level ``lv`` into its parent's ghosts."""
        parent = self._buf(lv - 1)
        m = parent.acc_m
        if m == 0:
            return []
        Q, i = self.q, self.itemsize
        ng = parent.ghost_acc.shape[1]
        flo, fhi = _span(parent.acc_fine_rows)
        glo, ghi = _span(parent.acc_ghost_rows)
        out = [StaticAccess(FieldRef("fstar", lv), READ, flo, fhi,
                            0 if mode == "fused" else Q * i * m)]
        if mode == "gather":
            out.append(StaticAccess(FieldRef("gacc", lv - 1), READ, 0, ng, Q * i * ng))
            out.append(StaticAccess(FieldRef("gacc", lv - 1), WRITE, 0, ng, Q * i * ng))
        else:
            if mode == "scatter":
                out.append(StaticAccess(FieldRef("gacc", lv - 1), READ, 0, ng,
                                        Q * i * ng))
            out.append(StaticAccess(FieldRef("gacc", lv - 1), ATOMIC, glo, ghi,
                                    Q * i * m))
        return out

    def _stream_reads(self, lv: int) -> list[StaticAccess]:
        """The bulk ``fstar`` gather, split owned/fine-ghost like the tracer."""
        buf = self._buf(lv)
        Q, i, n = self.q, self.itemsize, buf.n_owned
        flat = buf.pull_rows.ravel()
        nvals = flat.size
        extra = [a for a in buf.patch_rows if a.size]
        all_rows = np.concatenate([flat] + extra) if extra else flat
        ghost = all_rows >= n
        n_ghost_vals = int((flat >= n).sum())
        per_val = (Q * i * n) / nvals if nvals else 0.0
        out: list[StaticAccess] = []
        owned_rows, ghost_rows = all_rows[~ghost], all_rows[ghost]
        if owned_rows.size:
            lo, hi = _span(owned_rows)
            out.append(StaticAccess(FieldRef("fstar", lv), READ, lo, hi,
                                    round(per_val * (nvals - n_ghost_vals))))
        if ghost_rows.size:
            lo, hi = _span(ghost_rows)
            out.append(StaticAccess(FieldRef("fghost", lv), READ, lo, hi,
                                    round(per_val * n_ghost_vals)))
        return out

    def _explode(self, lv: int, from_ghost: bool, subsumed: bool) -> list[StaticAccess]:
        buf = self._buf(lv)
        m = buf.exp_q.size
        if m == 0:
            return []
        i = self.itemsize
        out: list[StaticAccess] = []
        if from_ghost:
            lo, hi = _span(buf.exp_ghost_rows)
            out.append(StaticAccess(FieldRef("fghost", lv), READ, lo, hi, i * m))
        else:
            lo, hi = _span(buf.exp_rows)
            out.append(StaticAccess(FieldRef("fstar", lv - 1), READ, lo, hi, i * m))
        lo, hi = _span(buf.exp_cell)
        out.append(StaticAccess(FieldRef("f", lv), WRITE, lo, hi,
                                0 if subsumed else i * m,
                                entries=frozenset(buf.exp_dst.tolist())))
        return out

    def _coalesce(self, lv: int, subsumed: bool) -> list[StaticAccess]:
        buf = self._buf(lv)
        i = self.itemsize
        ng = buf.ghost_acc.shape[1]
        out: list[StaticAccess] = []
        if buf.coal_dst.size:
            m = buf.coal_dst.size
            lo, hi = _span(buf.coal_src)
            out.append(StaticAccess(FieldRef("gacc", lv), READ, lo, hi, i * m,
                                    entries=frozenset(buf.coal_acc.tolist())))
            lo, hi = _span(buf.coal_cell)
            out.append(StaticAccess(FieldRef("f", lv), WRITE, lo, hi,
                                    0 if subsumed else i * m,
                                    entries=frozenset(buf.coal_dst.tolist())))
        if ng:
            out.append(StaticAccess(FieldRef("gacc", lv), WRITE, 0, ng,
                                    i * int(buf.ghost_acc.size)))
        return out

    def _explosion_copy(self, lv: int) -> list[StaticAccess]:
        buf = self._buf(lv)
        nfg = buf.fg_rows.size
        if nfg == 0:
            return []
        nb = self.q * self.itemsize * nfg
        rlo, rhi = _span(buf.fg_coarse_rows)
        wlo, whi = _span(buf.fg_rows)
        return [StaticAccess(FieldRef("fstar", lv - 1), READ, rlo, rhi, nb),
                StaticAccess(FieldRef("fghost", lv), WRITE, wlo, whi, nb)]

    # -- dispatch ------------------------------------------------------------
    def accesses(self, record: KernelRecord) -> list[StaticAccess]:
        """Symbolic access set of one launch, in body order."""
        lv = record.level
        buf = self._buf(lv)
        name = record.name
        Q, i, n = self.q, self.itemsize, buf.n_owned
        if name == "C":
            return self._collide(lv)
        if name == "CA":
            return self._collide(lv) + self._accumulate(lv, "fused")
        if name == "A":
            mode = "scatter" if record.atomic_bytes else "gather"
            return self._accumulate(lv, mode)
        if name == "E":
            if any(r.name == "fghost" for r in record.writes):
                return self._explosion_copy(lv)
            from_ghost = any(r.name == "fghost" for r in record.reads)
            return self._explode(lv, from_ghost, subsumed=False)
        if name == "O":
            return self._coalesce(lv, subsumed=False)
        if name in ("S", "SE", "SO", "SEO"):
            out = self._stream_reads(lv)
            out.append(StaticAccess(FieldRef("f", lv), WRITE, 0, n, Q * i * n))
            if buf.meta_bytes:
                out.append(StaticAccess(None, META, 0, 0, buf.meta_bytes))
            if "E" in name:
                # fused Streaming+Explosion only exists in the optimized
                # layout, where Explosion reads the coarse fstar directly
                out.extend(self._explode(lv, from_ghost=False, subsumed=True))
            if "O" in name:
                out.extend(self._coalesce(lv, subsumed=True))
            return out
        if name == "CASE":
            # the post-collision intermediate is register-resident: every
            # fstar@lv access of the C/A/S parts disappears, exactly as
            # the tracer's suppress() hides them dynamically
            me = FieldRef("fstar", lv)
            out = [a for a in self._collide(lv) if a.field != me]
            if self.has_accumulate(lv):
                out.extend(a for a in self._accumulate(lv, "fused")
                           if a.field != me)
            out.extend(a for a in self._stream_reads(lv) if a.field != me)
            out.append(StaticAccess(FieldRef("f", lv), WRITE, 0, n, Q * i * n))
            if buf.meta_bytes:
                out.append(StaticAccess(None, META, 0, 0, buf.meta_bytes))
            if lv > 0 and self.has_explosion(lv):
                out.extend(self._explode(lv, from_ghost=False, subsumed=True))
            return out
        raise KeyError(f"no static access model for kernel {name!r}")

    def access_map(self, records: Sequence[KernelRecord],
                   ) -> dict[int, list[StaticAccess]]:
        """``record index -> symbolic accesses`` for a whole stream."""
        return {i: self.accesses(r) for i, r in enumerate(records)}

    # -- primitive decomposition ---------------------------------------------
    def decompose(self, record: KernelRecord) -> list[tuple[str, int]]:
        """Primitive operations a (possibly fused) kernel executes, in order.

        Primitives are the modified baseline's kernels — ``C``, ``A``,
        ``S``, ``E``, ``O`` at a level.  ``CASE`` is resolved against
        the geometry (its name does not encode whether the level has an
        Accumulate or Explosion part).
        """
        lv = record.level
        fixed = {"C": ("C",), "A": ("A",), "S": ("S",), "E": ("E",), "O": ("O",),
                 "CA": ("C", "A"), "SE": ("S", "E"), "SO": ("S", "O"),
                 "SEO": ("S", "E", "O")}
        if record.name in fixed:
            return [(p, lv) for p in fixed[record.name]]
        if record.name == "CASE":
            prims = ["C"]
            if self.has_accumulate(lv):
                prims.append("A")
            prims.append("S")
            if lv > 0 and self.has_explosion(lv):
                prims.append("E")
            return [(p, lv) for p in prims]
        raise KeyError(f"cannot decompose kernel {record.name!r}")


def plan_stream(fusion: FusionConfig, wl_kwargs: Mapping[str, Any],
                steps: int = 2) -> tuple[list[KernelRecord], AccessModel]:
    """Record the declaration stream of a workload without executing bodies.

    Builds the simulation (grid compilation + buffer allocation are
    setup, not kernel execution), switches the runtime to plan-only mode
    and drives the Algorithm-1 stepper: every ``op_*`` records its
    declaration and skips its body.  The resulting stream is
    record-for-record identical to an executing run's trace — asserted
    by the ``--static`` cross-check gate.
    """
    from ..bench.workloads import lid_cavity
    from ..core.simulation import Simulation

    wl = lid_cavity(**wl_kwargs)
    rt = Runtime()
    sim = Simulation.from_config(wl.spec, wl.sim_config(fusion=fusion),
                                 runtime=rt)
    rt.plan_start()
    sim.run(steps)
    rt.plan_stop()
    return list(rt.records), AccessModel(sim.engine)


# -- static declaration verification -----------------------------------------

def verify_static(records: Sequence[KernelRecord],
                  model: AccessModel) -> list[Finding]:
    """The dynamic verifier's checks, over symbolic access sets.

    For every record, the statically inferred accesses must reproduce
    the declared field sets and the exact byte/atomic totals.  A kernel
    whose declaration was hand-edited (or has drifted from the engine's
    geometry) is caught here without running anything.
    """
    out: list[Finding] = []
    for i, r in enumerate(records):
        try:
            accesses = model.accesses(r)
        except KeyError as exc:
            out.append(Finding(check="unmodeled-kernel", index=i,
                               kernel=f"{r.name}{r.level}", field="",
                               detail=str(exc)))
            continue
        out.extend(verify_record(i, r, accesses))
    return out


# -- dynamic-containment cross-check -----------------------------------------

def superset_findings(records: Sequence[KernelRecord],
                      captured: Mapping[int, Sequence[Any]],
                      static_map: Mapping[int, Sequence[StaticAccess]],
                      ) -> list[str]:
    """Check static access sets contain everything dynamic capture saw.

    For each observed access there must be static accesses of the same
    field and kind whose merged intervals cover the observed interval.
    Violations mean the static model under-approximates real behaviour —
    any proof built on it would be unsound — so this gates in CI.
    """
    problems: list[str] = []
    for idx, accesses in captured.items():
        statics = static_map.get(idx, ())
        label = f"#{idx} {records[idx].name}{records[idx].level}"
        for a in accesses:
            if a.kind == META or a.field is None or a.hi <= a.lo:
                continue
            spans = sorted((s.lo, s.hi) for s in statics
                           if s.field == a.field and s.kind == a.kind
                           and s.hi > s.lo)
            # merge and check [a.lo, a.hi) is covered
            pos = a.lo
            for lo, hi in spans:
                if lo > pos:
                    break
                pos = max(pos, hi)
            if pos < a.hi or a.lo < (spans[0][0] if spans else a.hi):
                problems.append(
                    f"{label}: observed {a.kind} {a.field}[{a.lo}:{a.hi}) "
                    f"not covered by static access set "
                    f"{[(lo, hi) for lo, hi in spans]}")
    return problems


# -- fusion-legality contraction proof ----------------------------------------

@dataclass(frozen=True)
class Counterexample:
    """Why a fused stream is *not* a contraction of its baseline.

    Names the conflicting baseline access pair whose happens-before
    order the fused stream fails to reproduce, plus the fused kernels
    it mapped into.
    """

    reason: str                    # "unordered" | "reordered" | "structure"
    field: str
    hazard: str
    base_i: int
    base_j: int
    kernel_i: str
    kernel_j: str
    interval_i: tuple[int, int]
    interval_j: tuple[int, int]
    fused_i: int
    fused_j: int
    fused_kernel_i: str
    fused_kernel_j: str
    detail: str

    def __str__(self) -> str:
        return (f"{self.reason}: baseline {self.kernel_i}#{self.base_i} "
                f"{self.hazard.upper()} {self.field}{list(self.interval_i)} -> "
                f"{self.kernel_j}#{self.base_j} {self.field}{list(self.interval_j)}"
                f" lost in fused stream ({self.fused_kernel_i}#{self.fused_i} vs "
                f"{self.fused_kernel_j}#{self.fused_j}): {self.detail}")


@dataclass(frozen=True)
class LegalityProof:
    """Outcome of one contraction check."""

    config: str
    baseline: str
    verdict: str                   # "legal" | "illegal" | "baseline"
    pairs_checked: int
    primitives: int
    counterexamples: tuple[Counterexample, ...]

    @property
    def legal(self) -> bool:
        return self.verdict in ("legal", "baseline")


def _label(records: Sequence[KernelRecord], i: int) -> str:
    return f"{records[i].name}{records[i].level}"


def _witness(base_map: Mapping[int, Sequence[StaticAccess]], i: int, j: int,
             dep: str, ref: FieldRef) -> tuple[tuple[int, int], tuple[int, int]]:
    """Representative conflicting intervals of one baseline pair."""
    from ..neon.graph import _access_overlap
    i_side = [a for a in base_map.get(i, ()) if a.field == ref
              and (a.kind in (WRITE, ATOMIC)) == (dep != "war")]
    j_side = [a for a in base_map.get(j, ()) if a.field == ref
              and (a.kind in (WRITE, ATOMIC)) == (dep != "raw")]
    for a in i_side:
        for b in j_side:
            if a.kind == ATOMIC and b.kind == ATOMIC:
                continue
            if _access_overlap(a, b):
                return (a.lo, a.hi), (b.lo, b.hi)
    return (0, 0), (0, 0)


def check_contraction(base_records: Sequence[KernelRecord],
                      base_map: Mapping[int, Sequence[StaticAccess]],
                      fused_records: Sequence[KernelRecord],
                      decompose: Callable[[KernelRecord], list[tuple[str, int]]],
                      max_counterexamples: int = 10,
                      ) -> tuple[int, int, list[Counterexample]]:
    """Core proof: the fused stream contracts the baseline stream.

    Returns ``(pairs_checked, primitives_mapped, counterexamples)``.
    The mapping aligns the ``k``-th occurrence of each primitive
    ``(name, level)`` in the baseline with the ``k``-th occurrence in
    the fused stream's decomposition — substeps are never reordered by
    fusion, and any genuinely reordered conflicting pair fails the
    happens-before check below anyway.
    """
    cex: list[Counterexample] = []

    # -- align primitives -----------------------------------------------------
    seen: dict[tuple[str, int], int] = {}
    base_key: list[tuple[str, int, int]] = []
    for r in base_records:
        prims = decompose(r)
        if len(prims) != 1:
            cex.append(Counterexample(
                reason="structure", field="", hazard="", base_i=0, base_j=0,
                kernel_i=f"{r.name}{r.level}", kernel_j="", interval_i=(0, 0),
                interval_j=(0, 0), fused_i=-1, fused_j=-1, fused_kernel_i="",
                fused_kernel_j="",
                detail="baseline stream contains a fused kernel"))
            return 0, 0, cex
        name, lv = prims[0]
        k = seen.get((name, lv), 0)
        seen[(name, lv)] = k + 1
        base_key.append((name, lv, k))

    seen.clear()
    fused_pos: dict[tuple[str, int, int], tuple[int, int]] = {}
    for fi, r in enumerate(fused_records):
        for pos, (name, lv) in enumerate(decompose(r)):
            k = seen.get((name, lv), 0)
            seen[(name, lv)] = k + 1
            fused_pos[(name, lv, k)] = (fi, pos)

    missing = [key for key in base_key if key not in fused_pos]
    extra = len(fused_pos) - (len(base_key) - len(missing))
    if missing or extra:
        detail = []
        if missing:
            name, lv, k = missing[0]
            detail.append(f"baseline primitive {name}{lv} (occurrence {k + 1}) "
                          f"has no image in the fused stream")
        if extra:
            detail.append(f"fused stream has {extra} primitive(s) the baseline "
                          f"does not execute")
        cex.append(Counterexample(
            reason="structure", field="", hazard="", base_i=0, base_j=0,
            kernel_i="", kernel_j="", interval_i=(0, 0), interval_j=(0, 0),
            fused_i=-1, fused_j=-1, fused_kernel_i="", fused_kernel_j="",
            detail="; ".join(detail)))
        return 0, len(fused_pos), cex

    # -- happens-before on every conflicting pair -----------------------------
    import networkx as nx
    g = build_dependency_graph(list(fused_records), reduce=False)
    descendants: dict[int, set[int]] = {}
    pairs = 0
    for i, j, dep, ref in iter_conflict_pairs(base_records, base_map):
        pairs += 1
        fi, pi = fused_pos[base_key[i]]
        fj, pj = fused_pos[base_key[j]]
        if fi == fj:
            if pi < pj:
                continue
            reason, detail = "reordered", (
                "both map into one fused kernel but the body order is reversed")
        else:
            if fi not in descendants:
                descendants[fi] = set(nx.descendants(g, fi))
            if fj in descendants[fi]:
                continue
            reason, detail = "unordered", (
                "no dependency path orders the fused kernels; the scheduler "
                "may run them concurrently or reversed")
        iv_i, iv_j = _witness(base_map, i, j, dep, ref)
        cex.append(Counterexample(
            reason=reason, field=str(ref), hazard=dep, base_i=i, base_j=j,
            kernel_i=_label(base_records, i), kernel_j=_label(base_records, j),
            interval_i=iv_i, interval_j=iv_j, fused_i=fi, fused_j=fj,
            fused_kernel_i=_label(fused_records, fi),
            fused_kernel_j=_label(fused_records, fj), detail=detail))
        if len(cex) >= max_counterexamples:
            break
    return pairs, len(fused_pos), cex


def prove_fusion_legality(fusion: FusionConfig, wl_kwargs: Mapping[str, Any],
                          steps: int = 2,
                          tamper: Callable[[list[KernelRecord]],
                                           list[KernelRecord]] | None = None,
                          ) -> LegalityProof:
    """Prove a fusion configuration is a legal contraction of Fig. 4b.

    ``tamper`` (tests, the CLI's seeded negative control) may rewrite
    the fused stream's declarations before the proof runs; the baseline
    side and the geometry model are never tampered, so a declaration
    lie surfaces as a lost happens-before pair.

    The original Fig. 4a layout is a different *algorithm* (gather
    Accumulate, fine-ghost Explosion copies), not a contraction of 4b:
    it gets the verdict ``"baseline"`` and an empty proof.
    """
    if fusion.original_layout:
        return LegalityProof(config=fusion.name, baseline=fusion.name,
                             verdict="baseline", pairs_checked=0,
                             primitives=0, counterexamples=())
    base_records, base_model = plan_stream(MODIFIED_BASELINE, wl_kwargs, steps)
    fused_records, fused_model = plan_stream(fusion, wl_kwargs, steps)
    if tamper is not None:
        fused_records = tamper(fused_records)
    base_map = base_model.access_map(base_records)
    pairs, prims, cex = check_contraction(base_records, base_map,
                                          fused_records, fused_model.decompose)
    return LegalityProof(
        config=fusion.name, baseline=MODIFIED_BASELINE.name,
        verdict="legal" if not cex else "illegal", pairs_checked=pairs,
        primitives=prims, counterexamples=tuple(cex))


# -- seeded negative control ---------------------------------------------------

def swap_declaration(records: list[KernelRecord],
                     name: str = "E") -> list[KernelRecord]:
    """Swap the read/write declarations of the first ``name`` kernel.

    The classic declaration bug: a kernel that *writes* a field but
    declares it as an input (and vice versa).  The scheduler then drops
    the dependency edges that ordered the kernel against its true
    consumers — which the contraction proof must detect.
    """
    from dataclasses import replace
    out = list(records)
    for i, r in enumerate(out):
        if r.name == name:
            out[i] = replace(r, reads=r.writes, writes=r.reads)
            return out
    raise ValueError(f"stream has no {name!r} kernel to tamper with")


def seeded_illegal_proof(wl_kwargs: Mapping[str, Any],
                         steps: int = 2) -> LegalityProof:
    """Negative control: a swapped declaration must be rejected.

    Runs the contraction proof for Streaming+Coalescence fusion with the
    first standalone Explosion kernel's reads/writes swapped.  The
    tampered E loses its RAW edge into the next substep's Collision
    (both now only *read* the shared field), so the conflicting pair
    ``E writes f`` -> ``C reads f`` becomes unordered — the proof must
    return ``"illegal"`` with a counterexample naming that pair.
    """
    from ..core.fusion import FUSE_SO
    return prove_fusion_legality(FUSE_SO, wl_kwargs, steps,
                                 tamper=swap_declaration)
