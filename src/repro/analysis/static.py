"""Declaration-only (static) kernel-stream analysis.

This module reasons about a kernel stream from two inputs only:

* the :class:`~repro.neon.runtime.KernelRecord` declarations (fields,
  byte totals, atomics) a plan-only run records
  (:meth:`~repro.neon.runtime.Runtime.plan_start` — no body executes),
* the grid geometry already compiled into the engine's per-level index
  arrays (row counts, scatter/gather maps) — data, not execution.

:class:`AccessModel` is the one place a kernel's access set is written
down: each record decomposes into primitives (``C``, ``A``, ``S``,
``E``, ``O`` at a level), and each primitive expands into symbolic
accesses — field x level x half-open row interval x read/write/atomic,
with exact entry sets for the small scatter/gather patches.  From these
the module proves:

* **declaration consistency**: the symbolic sets reproduce each record's
  declared field sets and byte totals exactly;
* **fusion legality**: a fused stream is a valid *contraction* of the
  modified-baseline stream — every conflicting access pair of the
  baseline keeps its happens-before order, either inside one fused
  kernel (body order) or across kernels (a path in the fused declared
  DAG).  Violations produce a structured :class:`Counterexample` naming
  the conflicting pair;
* **composition**: the primitives each executed launch actually ran
  (noted by the engine under access capture) are exactly the
  decomposition of its record (the cross-check mode of
  ``python -m repro analysis --static``).

The symbolic access sets also feed the lint pass
(:mod:`repro.analysis.lint`) and the step-plan certificates
(:mod:`repro.analysis.certificate`) the compiled backends consume as
their admission contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from ..core.fusion import MODIFIED_BASELINE, FusionConfig
from ..neon.graph import build_dependency_graph, iter_conflict_pairs
from ..neon.runtime import FieldRef, KernelRecord, Runtime
from .capture import ATOMIC, META, READ, WRITE, Access, Primitive
from .verify import Finding, verify_record

if TYPE_CHECKING:
    from ..core.engine import Engine, LevelBuffers

__all__ = [
    "AccessModel", "plan_stream", "verify_static", "composition_findings",
    "Counterexample", "LegalityProof", "check_contraction",
    "prove_fusion_legality", "swap_declaration", "seeded_illegal_proof",
]


def _span(rows: np.ndarray) -> tuple[int, int]:
    """Half-open interval bounding the rows an index array touches."""
    if rows.size == 0:
        return (0, 0)
    return (int(rows.min()), int(rows.max()) + 1)


class AccessModel:
    """Symbolic per-kernel access sets from engine geometry alone.

    Owns the only primitive -> access builders (:meth:`primitive_accesses`)
    and the only record -> primitive decomposition (:meth:`decompose`).
    It reads the engine's pre-resolved index maps, never a population
    value, so the same expansion serves plan-only streams and the
    primitives an executing body reports under access capture.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.q: int = engine.lat.q
        self.itemsize: int = engine.itemsize
        self._cache: dict[Primitive, tuple[Access, ...]] = {}

    # -- geometry helpers ----------------------------------------------------
    def _buf(self, lv: int) -> "LevelBuffers":
        return self.engine.levels[lv]

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

    # -- per-primitive access builders ---------------------------------------
    def _collide(self, p: Primitive) -> list[Access]:
        buf, lv = self._buf(p.level), p.level
        nb = self.q * self.itemsize * buf.n_owned
        return [Access(FieldRef("f", lv), READ, 0, buf.n_owned, nb),
                Access(FieldRef("fstar", lv), WRITE, 0, buf.n_owned, nb)]

    def _accumulate(self, p: Primitive) -> list[Access]:
        """Accumulate of fine level ``p.level`` into its parent's ghosts.

        ``"fused"`` reads its sources from registers (0 bytes),
        ``"scatter"`` is the standalone fine-initiated atomic scatter,
        ``"gather"`` the original baseline's coarse-initiated gather.
        """
        lv, mode = p.level, p.mode
        parent = self._buf(lv - 1)
        m = parent.acc_m
        if m == 0:
            return []
        Q, i = self.q, self.itemsize
        ng = parent.ghost_acc.shape[1]
        flo, fhi = _span(parent.acc_fine_rows)
        glo, ghi = _span(parent.acc_ghost_rows)
        gacc = FieldRef("gacc", lv - 1)
        out = [Access(FieldRef("fstar", lv), READ, flo, fhi,
                      0 if mode == "fused" else Q * i * m)]
        if mode == "gather":
            out.append(Access(gacc, READ, 0, ng, Q * i * ng))
            out.append(Access(gacc, WRITE, 0, ng, Q * i * ng))
        else:
            if mode == "scatter":
                out.append(Access(gacc, READ, 0, ng, Q * i * ng))
            out.append(Access(gacc, ATOMIC, glo, ghi, Q * i * m))
        return out

    def _stream(self, p: Primitive) -> list[Access]:
        """Bulk gather + boundary patches, with the fine-ghost rows split off.

        Rows ``>= n_owned`` are the original baseline's fine-ghost layers,
        named as the ``fghost`` field.  The read bytes are apportioned by
        value count; the boundary-patch sources extend the intervals but
        carry no bytes — each destination entry is read exactly once,
        from either the bulk pull or its patch.
        """
        lv = p.level
        buf = self._buf(lv)
        Q, i, n = self.q, self.itemsize, buf.n_owned
        flat = buf.pull_rows.ravel()
        nvals = flat.size
        extra = [a for a in buf.patch_rows if a.size]
        all_rows = np.concatenate([flat] + extra) if extra else flat
        ghost = all_rows >= n
        n_ghost_vals = int((flat >= n).sum())
        per_val = (Q * i * n) / nvals if nvals else 0.0
        out: list[Access] = []
        owned_rows, ghost_rows = all_rows[~ghost], all_rows[ghost]
        if owned_rows.size:
            lo, hi = _span(owned_rows)
            out.append(Access(FieldRef("fstar", lv), READ, lo, hi,
                              round(per_val * (nvals - n_ghost_vals))))
        if ghost_rows.size:
            lo, hi = _span(ghost_rows)
            out.append(Access(FieldRef("fghost", lv), READ, lo, hi,
                              round(per_val * n_ghost_vals)))
        out.append(Access(FieldRef("f", lv), WRITE, 0, n, Q * i * n))
        if buf.meta_bytes:
            out.append(Access(None, META, 0, 0, buf.meta_bytes))
        return out

    def _explode(self, p: Primitive) -> list[Access]:
        lv = p.level
        buf = self._buf(lv)
        if p.mode == "copy":  # original baseline: coarse fstar -> fine ghosts
            nb = self.q * self.itemsize * buf.fg_rows.size
            rlo, rhi = _span(buf.fg_coarse_rows)
            wlo, whi = _span(buf.fg_rows)
            return [Access(FieldRef("fstar", lv - 1), READ, rlo, rhi, nb),
                    Access(FieldRef("fghost", lv), WRITE, wlo, whi, nb)]
        m = buf.exp_q.size
        i = self.itemsize
        if p.mode == "ghost":
            lo, hi = _span(buf.exp_ghost_rows)
            src = Access(FieldRef("fghost", lv), READ, lo, hi, i * m)
        else:
            lo, hi = _span(buf.exp_rows)
            src = Access(FieldRef("fstar", lv - 1), READ, lo, hi, i * m)
        lo, hi = _span(buf.exp_cell)
        # fused into streaming, the write lands on entries the bulk pull
        # already paid for — no extra traffic
        return [src, Access(FieldRef("f", lv), WRITE, lo, hi,
                            0 if p.subsumed else i * m,
                            entries=frozenset(buf.exp_dst.tolist()))]

    def _coalesce(self, p: Primitive) -> list[Access]:
        lv = p.level
        buf = self._buf(lv)
        i = self.itemsize
        ng = buf.ghost_acc.shape[1]
        out: list[Access] = []
        if buf.coal_dst.size:
            m = buf.coal_dst.size
            lo, hi = _span(buf.coal_src)
            out.append(Access(FieldRef("gacc", lv), READ, lo, hi, i * m,
                              entries=frozenset(buf.coal_acc.tolist())))
            lo, hi = _span(buf.coal_cell)
            out.append(Access(FieldRef("f", lv), WRITE, lo, hi,
                              0 if p.subsumed else i * m,
                              entries=frozenset(buf.coal_dst.tolist())))
        if ng:
            out.append(Access(FieldRef("gacc", lv), WRITE, 0, ng,
                              i * int(buf.ghost_acc.size)))
        return out

    def primitive_accesses(self, p: Primitive) -> tuple[Access, ...]:
        """Accesses of one primitive, in body order (cached per primitive)."""
        out = self._cache.get(p)
        if out is None:
            build = {"C": self._collide, "A": self._accumulate, "S": self._stream,
                     "E": self._explode, "O": self._coalesce}.get(p.name)
            if build is None:
                raise KeyError(f"no access model for primitive {p}")
            out = self._cache[p] = tuple(build(p))
        return out

    # -- records -------------------------------------------------------------
    def decompose(self, record: KernelRecord) -> list[Primitive]:
        """Primitives a (possibly fused) kernel executes, in body order.

        ``CASE`` is resolved against the geometry (its name does not
        encode whether the level has an Accumulate or Explosion part);
        the mode of a standalone ``A`` or ``E`` is read off its
        declaration (atomic bytes; ``fghost`` reads or writes).
        """
        lv, name = record.level, record.name
        if name in ("C", "CA", "S", "SE", "SO", "SEO", "O"):
            # one primitive per letter: A fused into Collision, E and O
            # subsumed by Streaming when they share its launch (fused
            # Streaming+Explosion exists only in the optimized layout,
            # where Explosion reads the coarse fstar directly)
            return [Primitive(c, lv, "fused" if c == "A" else "",
                              len(name) > 1 and c in "EO") for c in name]
        if name == "A":
            return [Primitive("A", lv, "scatter" if record.atomic_bytes
                              else "gather")]
        if name == "E":
            if any(r.name == "fghost" for r in record.writes):
                return [Primitive("E", lv, "copy")]
            ghost = any(r.name == "fghost" for r in record.reads)
            return [Primitive("E", lv, "ghost" if ghost else "")]
        if name == "CASE":
            prims = [Primitive("C", lv)]
            if lv > 0 and self._buf(lv - 1).acc_m:
                prims.append(Primitive("A", lv, "fused"))
            prims.append(Primitive("S", lv))
            if lv > 0 and self._buf(lv).exp_q.size:
                prims.append(Primitive("E", lv, subsumed=True))
            return prims
        raise KeyError(f"cannot decompose kernel {name!r}")

    def expand(self, record: KernelRecord,
               prims: Sequence[Primitive]) -> list[Access]:
        """Accesses of ``prims`` run as the body of ``record``.

        The one register-resident rule: inside ``CASE`` the
        post-collision intermediate ``fstar`` of its own level lives in
        registers, so every access to it is invisible to DRAM and to the
        declarations.
        """
        out = [a for p in prims for a in self.primitive_accesses(p)]
        if record.name == "CASE":
            me = FieldRef("fstar", record.level)
            out = [a for a in out if a.field != me]
        return out

    def accesses(self, record: KernelRecord) -> list[Access]:
        """Symbolic access set of one launch, in body order."""
        return self.expand(record, self.decompose(record))

    def access_map(self, records: Sequence[KernelRecord],
                   ) -> dict[int, list[Access]]:
        """``record index -> symbolic accesses`` for a whole stream."""
        return {i: self.accesses(r) for i, r in enumerate(records)}


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


# -- composition check ---------------------------------------------------------

def composition_findings(records: Sequence[KernelRecord],
                         executed: Mapping[int, Sequence[Primitive]],
                         model: AccessModel) -> list[str]:
    """Check every executed launch ran exactly what its record names.

    ``executed`` is :attr:`~repro.analysis.capture.AccessTracer.executed`
    (record index -> primitives the body noted, in order).  Each must
    equal ``model.decompose(records[i])``.  A body running a primitive
    its declaration omits — say an undeclared cross-level read, which
    would race under the wave scheduler — or skipping one it names
    makes every proof over the declared stream unsound, so this gates
    in CI.  Records with no executed entry are left to the verifier's
    ``uncaptured`` check.
    """
    problems: list[str] = []
    for i, r in enumerate(records):
        ran = executed.get(i)
        if ran is None:
            continue
        try:
            named = model.decompose(r)
        except KeyError as exc:
            problems.append(f"#{i} {r.name}{r.level}: {exc}")
            continue
        if list(ran) != named:
            problems.append(
                f"#{i} {r.name}{r.level}: body ran "
                f"[{', '.join(map(str, ran))}] but the record names "
                f"[{', '.join(map(str, named))}]")
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


def _witness(base_map: Mapping[int, Sequence[Access]], i: int, j: int,
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
                      base_map: Mapping[int, Sequence[Access]],
                      fused_records: Sequence[KernelRecord],
                      decompose: Callable[[KernelRecord], list[Primitive]],
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
        name, lv = prims[0][:2]
        k = seen.get((name, lv), 0)
        seen[(name, lv)] = k + 1
        base_key.append((name, lv, k))

    seen.clear()
    fused_pos: dict[tuple[str, int, int], tuple[int, int]] = {}
    for fi, r in enumerate(fused_records):
        for pos, (name, lv, *_) in enumerate(decompose(r)):
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
