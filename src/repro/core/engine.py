"""Execution engine: state buffers and the kernel bodies of every variant.

The engine owns, per level, the two population buffers (``f`` holds the
post-streaming state at the start of a substep, ``fstar`` the
post-collision state) and the ghost-layer accumulator, plus every
streaming map, resolved once at build into *flat* indices over those
contiguous ``(Q, n)`` buffers.  Rows ``0..n_owned-1`` are the owned cells,
followed by the fine-ghost rows the original baseline needs.  Each
``op_*`` method is one GPU kernel: it emits one launch record with the
DRAM traffic the equivalent CUDA kernel would generate — this is what the
cost model consumes — and hands the runtime its body.  These bodies are
the only implementation of each kernel: interpreted runs execute them per
launch, compiled step plans and mp workers replay the same closures.
Each body is a sequence of primitive helpers (``_collide_into_fstar``,
``_accumulate_values``, ...); under access capture every helper notes
which primitive it ran, and the access model turns those notes into
field accesses.

Fused kernels execute the same arithmetic as their unfused sequence (the
intermediate lives in the ``fstar`` buffer, playing the role of the GPU's
registers), so every fusion variant is bitwise-identical in results and
differs only in its launch/traffic trace — mirroring how kernel fusion
works on the device, where it eliminates intermediate DRAM round-trips
but not arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid.multigrid import CompiledLevel, MultiGrid
from ..neon.runtime import FieldRef, Runtime
from .collision import CollisionModel, equilibrium, macroscopics, make_collision
from .units import omega_at_level

__all__ = ["Engine", "LevelBuffers"]

#: Values per block of the q-blocked stream gather and accumulate
#: ``bincount``: large enough to amortise the per-call overhead, small
#: enough that each gathered temporary stays in cache.
GATHER_BLOCK = 32768


def _q_rows(Q: int, per_q: int) -> int:
    """Populations per q-block for a map with ``per_q`` entries per q."""
    return max(1, min(Q, GATHER_BLOCK // max(per_q, 1)))


@dataclass
class LevelBuffers:
    """Per-level state and its pre-resolved index maps.

    The maps the kernel bodies replay are *flat*: indices into the
    ``reshape(-1)`` of a contiguous ``(Q, n)`` buffer, each replacing the
    ``(q, row)`` map it is derived from.  The row forms the access model
    (:class:`~repro.analysis.static.AccessModel`) and tests read are
    derived on demand by the properties below.  Maps only the original
    baseline uses (``exp_ghost_rows``, ``fg_rows``, ``fg_coarse_rows``)
    stay in row form.
    """

    f: np.ndarray                 # (Q, n_used) post-streaming populations
    fstar: np.ndarray             # (Q, n_used) post-collision populations
    ghost_acc: np.ndarray         # (Q, n_ghost) Accumulate sums
    n_owned: int
    n_used: int
    pull: np.ndarray              # (Q, n_owned) flat same-level gather into fstar
    pull_blocks: tuple[slice, ...]  # q-blocks of the stream gather
    bb_dst: np.ndarray; bb_src: np.ndarray
    mov_dst: np.ndarray; mov_src: np.ndarray; mov_term: np.ndarray
    out_dst: np.ndarray; out_val: np.ndarray
    sl_dst: np.ndarray; sl_src: np.ndarray
    sb_q: np.ndarray; sb_cell: np.ndarray; sb_opp: np.ndarray; sb_e: np.ndarray
    #: Explosion writes ``exp_dst`` of f from ``exp_src`` of the coarser
    #: fstar; Coalescence writes ``coal_dst`` of f from ``coal_acc`` of
    #: ghost_acc.  ``*_cells`` count the distinct cells each writes.
    exp_q: np.ndarray; exp_dst: np.ndarray; exp_src: np.ndarray
    exp_ghost_rows: np.ndarray; exp_cells: int
    coal_dst: np.ndarray; coal_acc: np.ndarray; coal_cells: int
    #: q-blocked accumulate maps: ``acc_k`` populations of bins into
    #: ``ghost_acc`` and sources in the FINER level's ``fstar``, q-major.
    acc_bins: np.ndarray; acc_src: np.ndarray
    fg_rows: np.ndarray           # this level's fine-ghost rows (4a)
    fg_coarse_rows: np.ndarray    # rows in the coarser level's buffers
    meta_bytes: int               # per-pass structural metadata traffic
    positions: np.ndarray         # (n_owned, d) level-resolution coordinates
    #: True when streaming pulls from the fine-ghost region (rows >=
    #: n_owned; original baseline only) — the S kernel then reads the
    #: logical ``fghost`` field in addition to ``fstar``.
    pulls_fghost: bool = False
    acc_k: int = 1
    exp_stride: int = 0           # n_used of the coarser level

    # -- row forms, derived on demand ------------------------------------------
    @property
    def pull_rows(self) -> np.ndarray:
        return self.pull - (np.arange(self.pull.shape[0]) * self.n_used)[:, None]

    @property
    def patch_rows(self) -> list[np.ndarray]:
        """Source rows of the bounce-back, moving-wall and free-slip patches."""
        return [a % self.n_used for a in (self.bb_src, self.mov_src, self.sl_src)]

    @property
    def out_q(self) -> np.ndarray:
        return self.out_dst // self.n_used

    @property
    def out_cell(self) -> np.ndarray:
        return self.out_dst % self.n_used

    @property
    def exp_cell(self) -> np.ndarray:
        return self.exp_dst % self.n_used

    @property
    def exp_rows(self) -> np.ndarray:
        return self.exp_src % max(self.exp_stride, 1)

    @property
    def coal_q(self) -> np.ndarray:
        return self.coal_dst // self.n_used

    @property
    def coal_cell(self) -> np.ndarray:
        return self.coal_dst % self.n_used

    @property
    def coal_src(self) -> np.ndarray:
        return self.coal_acc % max(self.ghost_acc.shape[1], 1)

    @property
    def acc_m(self) -> int:
        """Fine cells the Accumulate scatter reads (per population)."""
        return self.acc_bins.size // self.acc_k

    @property
    def acc_ghost_rows(self) -> np.ndarray:
        return self.acc_bins[:self.acc_m]

    @property
    def acc_fine_rows(self) -> np.ndarray:
        return self.acc_src[:self.acc_m]


class Engine:
    """Functional executor for one compiled multigrid."""

    def __init__(self, mgrid: MultiGrid, collision: CollisionModel | str = "bgk",
                 omega0: float = 1.0, runtime: Runtime | None = None,
                 force=None, dtype=np.float64) -> None:
        self.mgrid = mgrid
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("dtype must be float32 or float64")
        #: bytes per stored population value (paper: fp32 halves traffic [9])
        self.itemsize = self.dtype.itemsize
        self.lat = mgrid.lattice
        self.collision = (make_collision(collision, self.lat)
                          if isinstance(collision, str) else collision)
        if self.collision.lattice is not self.lat:
            raise ValueError("collision model built for a different lattice")
        self.rt = runtime if runtime is not None else Runtime()
        self.omega = [omega_at_level(omega0, lv) for lv in range(mgrid.num_levels)]
        # Body-force density in coarse lattice units; on level L the
        # acceleration scales with dt_L^2/dx_L = 2^-L under acoustic scaling.
        if force is None:
            self.force = [None] * mgrid.num_levels
        else:
            f0 = np.asarray(force, dtype=np.float64)
            if f0.shape != (mgrid.d,):
                raise ValueError(f"force must have shape ({mgrid.d},)")
            self.force = [f0 * 0.5 ** lv for lv in range(mgrid.num_levels)]
        #: 1 / (2 * 2^d): the Coalescence average over 2^d children x 2 substeps.
        self.inv_navg = 1.0 / (2.0 * 2 ** mgrid.d)
        #: Bumped whenever engine state is mutated outside the step path
        #: (checkpoint restore); compiled step plans key their cache on it
        #: so a stale plan is never replayed against replaced buffers.
        self.state_epoch = 0
        self.levels = [self._build_level(cl) for cl in mgrid.levels]
        self._link_levels()

    # -- setup ----------------------------------------------------------------
    def _build_level(self, cl: CompiledLevel) -> LevelBuffers:
        lat = self.lat
        Q = lat.q
        row_of_slot = np.full(cl.n_alloc, -1, dtype=np.int64)
        row_of_slot[cl.owned_slots] = np.arange(cl.n_owned)
        n_fg = cl.fine_ghost_slots.size
        row_of_slot[cl.fine_ghost_slots] = cl.n_owned + np.arange(n_fg)
        n_used = cl.n_owned + n_fg
        ng = cl.n_ghost

        pull = row_of_slot[cl.pull_src]
        if (pull < 0).any():
            raise AssertionError("interior pull references an unallocated row")
        sl_src_rows = row_of_slot[cl.sl_src] if cl.sl_src.size else cl.sl_src
        pulls_fghost = bool((pull >= cl.n_owned).any()
                            or (sl_src_rows >= cl.n_owned).any())
        # q-offset form, in place: the flat map replaces the row map
        pull += (np.arange(Q, dtype=np.int64) * n_used)[:, None]
        k = _q_rows(Q, cl.n_owned)
        grid_meta = sum(cl.grid.metadata_bytes().values())
        return LevelBuffers(
            f=np.zeros((Q, n_used), dtype=self.dtype),
            fstar=np.zeros((Q, n_used), dtype=self.dtype),
            ghost_acc=np.zeros((Q, ng), dtype=self.dtype),
            n_owned=cl.n_owned, n_used=n_used, pull=pull,
            pull_blocks=tuple(slice(q0, q0 + k) for q0 in range(0, Q, k)),
            bb_dst=cl.bb_q * n_used + cl.bb_cell,
            bb_src=lat.opp[cl.bb_q] * n_used + cl.bb_cell,
            mov_dst=cl.mov_q * n_used + cl.mov_cell,
            mov_src=lat.opp[cl.mov_q] * n_used + cl.mov_cell,
            mov_term=cl.mov_term,
            out_dst=cl.out_q * n_used + cl.out_cell, out_val=cl.out_val,
            sl_dst=cl.sl_q * n_used + cl.sl_cell,
            sl_src=cl.sl_src_q * n_used + sl_src_rows,
            sb_q=cl.sb_q, sb_cell=cl.sb_cell, sb_opp=lat.opp[cl.sb_q],
            sb_e=lat.ef[lat.opp[cl.sb_q]],
            exp_q=cl.exp_q, exp_dst=cl.exp_q * n_used + cl.exp_cell,
            exp_src=np.empty(0, dtype=np.int64),
            exp_ghost_rows=row_of_slot[cl.exp_ghost_src] if cl.exp_ghost_src.size
            else cl.exp_ghost_src,
            exp_cells=cl.n_interface_fine,
            coal_dst=cl.coal_q * n_used + cl.coal_cell,
            coal_acc=cl.coal_q * ng + cl.coal_src,
            coal_cells=cl.n_interface_coarse,
            acc_bins=cl.acc_ghost_rows, acc_src=np.empty(0, dtype=np.int64),
            fg_rows=row_of_slot[cl.fg_slots] if cl.fg_slots.size else cl.fg_slots,
            fg_coarse_rows=np.empty(0, dtype=np.int64),
            meta_bytes=grid_meta,
            positions=cl.grid.cell_positions()[cl.owned_slots],
            pulls_fghost=pulls_fghost,
        )

    def _link_levels(self) -> None:
        """Resolve cross-level maps (needs all levels built)."""
        owned = []
        for cl in self.mgrid.levels:
            rows = np.full(cl.n_alloc, -1, dtype=np.int64)
            rows[cl.owned_slots] = np.arange(cl.n_owned)
            owned.append(rows)
        for lv, (cl, buf) in enumerate(zip(self.mgrid.levels, self.levels)):
            if cl.exp_src.size:
                exp_rows = owned[lv - 1][cl.exp_src]
                if (exp_rows < 0).any():
                    raise AssertionError("explosion source is not an owned coarse cell")
                buf.exp_stride = self.levels[lv - 1].n_used
                buf.exp_src = cl.exp_q * buf.exp_stride + exp_rows
            if cl.fg_coarse_src.size:
                buf.fg_coarse_rows = owned[lv - 1][cl.fg_coarse_src]
            if cl.acc_fine_slots.size:
                fine_rows = owned[lv + 1][cl.acc_fine_slots]
                if (fine_rows < 0).any():
                    raise AssertionError("accumulate source is not an owned fine cell")
                buf.acc_k = k = _q_rows(self.lat.q, fine_rows.size)
                qs = np.arange(k, dtype=np.int64)[:, None]
                buf.acc_bins = (qs * cl.n_ghost + buf.acc_bins).reshape(-1)
                buf.acc_src = (qs * self.levels[lv + 1].n_used + fine_rows).reshape(-1)

    def initialize(self, rho: float | np.ndarray = 1.0, u=None) -> None:
        """Set every level to the local equilibrium of (rho, u).

        ``u`` may be ``None`` (fluid at rest), a length-``d`` vector, or a
        callable mapping cell-centre positions (in coarse units, ``(N, d)``)
        to velocities ``(d, N)``.
        """
        d = self.mgrid.d
        for lv, buf in enumerate(self.levels):
            n = buf.n_owned
            rr = np.full(n, rho, dtype=np.float64) if np.isscalar(rho) else rho
            if u is None:
                uu = np.zeros((d, n))
            elif callable(u):
                centers = (buf.positions + 0.5) * 2.0 ** (-lv)
                uu = np.asarray(u(centers), dtype=np.float64)
            else:
                uu = np.broadcast_to(np.asarray(u, dtype=np.float64)[:, None], (d, n)).copy()
            feq = equilibrium(self.lat, rr, uu)
            buf.f[:, :n] = feq
            buf.fstar[:, :n] = feq
            buf.ghost_acc[:] = 0.0

    # -- kernel bodies ---------------------------------------------------------
    def _collide_into_fstar(self, lv: int) -> None:
        buf = self.levels[lv]
        n = buf.n_owned
        if self.rt.tracer is not None:
            self.rt.tracer.ran(self, "C", lv)
        self.collision.collide(buf.f[:, :n], self.omega[lv],
                               out=buf.fstar[:, :n], force=self.force[lv])

    def _accumulate_values(self, lv: int, mode: str = "fused") -> None:
        """Add the finer level's fresh post-collision values into our ghosts.

        ``mode`` selects the traffic attribution of the equivalent GPU
        kernel: ``"fused"`` (Collision+Accumulate — the source values sit
        in registers, the scatter is atomic), ``"scatter"`` (standalone
        fine-initiated atomic scatter) or ``"gather"`` (the original
        baseline's coarse-initiated gather, launched over ghost cells).
        The arithmetic is identical in all three.
        """
        buf = self.levels[lv]
        fine = self.levels[lv + 1]
        m = buf.acc_m
        if m == 0:
            return
        if self.rt.tracer is not None:
            self.rt.tracer.ran(self, "A", lv + 1, mode)
        ng = buf.ghost_acc.shape[1]
        # One bincount per q-block: every bin still sums its contributions
        # in map order, so the result is bitwise the per-q accumulation.
        gacc = buf.ghost_acc.reshape(-1)
        src = fine.fstar.reshape(-1)
        Q, k, nu = self.lat.q, buf.acc_k, fine.n_used
        for q0 in range(0, Q, k):
            nq = min(k, Q - q0)
            gacc[q0 * ng:(q0 + nq) * ng] += np.bincount(
                buf.acc_bins[:nq * m], weights=src[q0 * nu:][buf.acc_src[:nq * m]],
                minlength=nq * ng)

    def _stream_bulk(self, lv: int) -> None:
        buf = self.levels[lv]
        n = buf.n_owned
        if self.rt.tracer is not None:
            self.rt.tracer.ran(self, "S", lv)
        f, src = buf.f, buf.fstar.reshape(-1)
        for qs in buf.pull_blocks:
            f[qs, :n] = src[buf.pull[qs]]
        # boundary patches (part of the same kernel on the GPU), in this
        # order: the patch sets may overlap and the last write wins
        dst = f.reshape(-1)
        if buf.bb_dst.size:
            dst[buf.bb_dst] = src[buf.bb_src]
        if buf.mov_dst.size:
            dst[buf.mov_dst] = src[buf.mov_src] + buf.mov_term
        if buf.out_dst.size:
            dst[buf.out_dst] = buf.out_val
        if buf.sl_dst.size:  # specular reflection off a free-slip plane
            dst[buf.sl_dst] = src[buf.sl_src]

    def _explode_values(self, lv: int, from_ghost: bool,
                        subsumed: bool = False) -> None:
        buf = self.levels[lv]
        if buf.exp_q.size == 0:
            return
        if self.rt.tracer is not None:
            self.rt.tracer.ran(self, "E", lv, "ghost" if from_ghost else "",
                               subsumed)
        if from_ghost:
            vals = buf.fstar[buf.exp_q, buf.exp_ghost_rows]
        else:
            vals = self.levels[lv - 1].fstar.reshape(-1)[buf.exp_src]
        buf.f.reshape(-1)[buf.exp_dst] = vals

    def _coalesce_values(self, lv: int, subsumed: bool = False) -> None:
        buf = self.levels[lv]
        if self.rt.tracer is not None:
            self.rt.tracer.ran(self, "O", lv, subsumed=subsumed)
        if buf.coal_dst.size:
            buf.f.reshape(-1)[buf.coal_dst] = (
                buf.ghost_acc.reshape(-1)[buf.coal_acc] * self.inv_navg)
        buf.ghost_acc[:] = 0.0

    def _explosion_copy_values(self, lv: int) -> None:
        """Original baseline: mirror coarse post-collision state into fine ghosts."""
        buf = self.levels[lv]
        if buf.fg_rows.size == 0:
            return
        coarse = self.levels[lv - 1]
        if self.rt.tracer is not None:
            self.rt.tracer.ran(self, "E", lv, "copy")
        buf.fstar[:, buf.fg_rows] = coarse.fstar[:, buf.fg_coarse_rows]

    # -- public ops: one launch record each -------------------------------------
    def op_collide(self, lv: int, fuse_accumulate: bool = False) -> None:
        buf = self.levels[lv]
        Q, n = self.lat.q, buf.n_owned
        reads = (FieldRef("f", lv),)
        writes: tuple[FieldRef, ...] = (FieldRef("fstar", lv),)
        atomic = 0
        name = "C"
        m = 0
        if fuse_accumulate and lv > 0:
            m = self.levels[lv - 1].acc_m
        def body() -> None:
            self._collide_into_fstar(lv)
            if fuse_accumulate and lv > 0:
                self._accumulate_values(lv - 1, mode="fused")
        if fuse_accumulate and lv > 0 and m:
            name = "CA"
            writes = writes + (FieldRef("gacc", lv - 1),)
            atomic = Q * self.itemsize * m
        self.rt.launch(name, lv, n_cells=n,
                       bytes_read=Q * self.itemsize * n,
                       bytes_written=Q * self.itemsize * n + atomic,
                       atomic_bytes=atomic, reads=reads, writes=writes, fn=body)

    def op_accumulate(self, lv: int, gather: bool = False) -> None:
        """Separate Accumulate kernel: fine level ``lv`` into parent ghosts.

        ``gather=True`` models the original baseline's coarse-initiated
        gather (launched over ghost cells, no atomics); ``False`` the
        modified baseline's fine-initiated atomic scatter.
        """
        if lv == 0:
            raise ValueError("level 0 has no parent to accumulate into")
        parent = self.levels[lv - 1]
        m = parent.acc_m
        if m == 0:
            return
        Q = self.lat.q
        ng = parent.ghost_acc.shape[1]
        self.rt.launch(
            "A", lv,
            n_cells=(ng if gather else m),
            bytes_read=Q * self.itemsize * m + Q * self.itemsize * ng,
            bytes_written=Q * self.itemsize * (ng if gather else m),
            atomic_bytes=0 if gather else Q * self.itemsize * m,
            reads=(FieldRef("fstar", lv), FieldRef("gacc", lv - 1)),
            writes=(FieldRef("gacc", lv - 1),),
            fn=lambda: self._accumulate_values(
                lv - 1, mode="gather" if gather else "scatter"))

    def op_explosion_copy(self, lv: int) -> None:
        """Original baseline's Explosion: coarse f* copied into fine ghost layers."""
        buf = self.levels[lv]
        nfg = buf.fg_rows.size
        if nfg == 0:
            return
        Q = self.lat.q
        self.rt.launch(
            "E", lv, n_cells=nfg,
            bytes_read=Q * self.itemsize * nfg, bytes_written=Q * self.itemsize * nfg,
            reads=(FieldRef("fstar", lv - 1),), writes=(FieldRef("fghost", lv),),
            fn=lambda: self._explosion_copy_values(lv))

    def op_stream(self, lv: int, *, fuse_explosion: bool = False,
                  fuse_coalescence: bool = False, exp_from_ghost: bool = False) -> None:
        """Streaming kernel, optionally fused with Explosion and/or Coalescence."""
        buf = self.levels[lv]
        Q, n = self.lat.q, buf.n_owned
        name = "S"
        reads = [FieldRef("fstar", lv)]
        if buf.pulls_fghost:
            # original baseline: the pull gathers from the fine-ghost
            # layers the Explosion copy just filled
            reads.append(FieldRef("fghost", lv))
        writes = [FieldRef("f", lv)]
        br = Q * self.itemsize * n + buf.meta_bytes
        bw = Q * self.itemsize * n
        do_exp = fuse_explosion and buf.exp_q.size > 0
        do_coal = fuse_coalescence and buf.coal_dst.size > 0
        if do_exp:
            name = name + "E"
            reads.append(FieldRef("fghost", lv) if exp_from_ghost
                         else FieldRef("fstar", lv - 1))
            br += self.itemsize * buf.exp_q.size
        if do_coal:
            name = ("SEO" if do_exp else "SO")
            reads.append(FieldRef("gacc", lv))
            writes.append(FieldRef("gacc", lv))
            br += self.itemsize * buf.coal_dst.size
            bw += self.itemsize * buf.ghost_acc.size  # reset
        def body() -> None:
            self._stream_bulk(lv)
            if do_exp:
                self._explode_values(lv, exp_from_ghost, subsumed=True)
            if do_coal:
                self._coalesce_values(lv, subsumed=True)
        self.rt.launch(name, lv, n_cells=n, bytes_read=br, bytes_written=bw,
                       reads=tuple(reads), writes=tuple(writes), fn=body)

    def op_explode(self, lv: int, exp_from_ghost: bool = False) -> None:
        """Separate Explosion kernel writing the cross-level pulls of ``f``."""
        buf = self.levels[lv]
        m = buf.exp_q.size
        if m == 0:
            return
        self.rt.launch(
            "E", lv, n_cells=buf.exp_cells,
            bytes_read=self.itemsize * m, bytes_written=self.itemsize * m,
            reads=(FieldRef("fghost", lv) if exp_from_ghost else FieldRef("fstar", lv - 1),),
            writes=(FieldRef("f", lv),),
            fn=lambda: self._explode_values(lv, exp_from_ghost))

    def op_coalesce(self, lv: int) -> None:
        """Separate Coalescence kernel: averaged ghost reads plus the reset."""
        buf = self.levels[lv]
        m = buf.coal_dst.size
        if m == 0:
            return
        self.rt.launch(
            "O", lv, n_cells=buf.coal_cells,
            bytes_read=self.itemsize * m,
            bytes_written=self.itemsize * m + self.itemsize * buf.ghost_acc.size,
            reads=(FieldRef("gacc", lv),),
            writes=(FieldRef("f", lv), FieldRef("gacc", lv)),
            fn=lambda: self._coalesce_values(lv))

    def op_fused_case(self, lv: int) -> None:
        """The fully fused finest-level kernel (Fig. 4f).

        Collision + Accumulate + Streaming + Explosion in one launch; the
        post-collision intermediate stays in registers (our ``fstar``
        buffer stands in for them and is excluded from the traffic).
        """
        buf = self.levels[lv]
        Q, n = self.lat.q, buf.n_owned
        reads = [FieldRef("f", lv)]
        writes = [FieldRef("f", lv)]
        atomic = 0
        if lv > 0:
            m = self.levels[lv - 1].acc_m
            if m:
                atomic = Q * self.itemsize * m
                writes.append(FieldRef("gacc", lv - 1))
            if buf.exp_q.size:
                reads.append(FieldRef("fstar", lv - 1))
        def body() -> None:
            self._collide_into_fstar(lv)
            if lv > 0:
                self._accumulate_values(lv - 1, mode="fused")
            self._stream_bulk(lv)
            self._explode_values(lv, from_ghost=False, subsumed=True)
        self.rt.launch("CASE", lv, n_cells=n,
                       bytes_read=Q * self.itemsize * n + self.itemsize * buf.exp_q.size + buf.meta_bytes,
                       bytes_written=Q * self.itemsize * n + atomic,
                       atomic_bytes=atomic,
                       reads=tuple(reads), writes=tuple(writes), fn=body)

    # -- fault injection ---------------------------------------------------------
    def corrupt_cell(self, lv: int, cell: int, q: int = 0,
                     value: float = float("nan")) -> float:
        """Overwrite one owned population entry of ``f``; return the old value.

        The write hook of the resilience fault injector (and of tests):
        only the engine knows the buffer/row layout, so the corruption
        lands exactly where :meth:`health_scan` and the watchdog will
        report it.  Functionally this models a device-side soft error —
        a single flipped population value that floods the grid within a
        few steps unless a watchdog catches it.
        """
        buf = self.levels[lv]
        if not 0 <= cell < buf.n_owned:
            raise ValueError(f"cell {cell} outside the {buf.n_owned} owned "
                             f"rows of level {lv}")
        if not 0 <= q < self.lat.q:
            raise ValueError(f"population index {q} outside Q={self.lat.q}")
        old = float(buf.f[q, cell])
        buf.f[q, cell] = value
        return old

    # -- health ------------------------------------------------------------------
    def health_scan(self):
        """Yield a per-level numerical-health snapshot (owned cells only).

        Each item carries the rows whose ``f``/``fstar`` populations are
        non-finite (with one offending value per row, for diagnostics),
        plus density and velocity magnitude.  Consumed by the
        observability watchdog (:mod:`repro.obs.watchdog`); kept on the
        engine because only it knows the buffer/row layout.
        """
        for lv, buf in enumerate(self.levels):
            n = buf.n_owned
            scan: dict = {}
            healthy = True
            for fname in ("f", "fstar"):
                arr = getattr(buf, fname)[:, :n]
                finite = np.isfinite(arr)
                bad = np.nonzero(~finite.all(axis=0))[0]
                scan[f"nonfinite_{fname}"] = bad
                if bad.size:
                    healthy = False
                    first_q = np.argmax(~finite[:, bad], axis=0)
                    scan[f"{fname}_values"] = arr[first_q, bad]
                else:
                    scan[f"{fname}_values"] = arr[:0, 0]
            if healthy:
                rho, u = self.macroscopics(lv)
                scan["rho"] = rho
                scan["umag"] = np.sqrt((u * u).sum(axis=0))
            else:  # moments of non-finite populations are meaningless
                scan["rho"] = np.empty(0)
                scan["umag"] = np.empty(0)
            yield scan

    # -- observables -------------------------------------------------------------
    def macroscopics(self, lv: int) -> tuple[np.ndarray, np.ndarray]:
        """Density and velocity of the owned cells of one level.

        With a body force the velocity carries the Guo half-force shift,
        matching the collision operator's definition.
        """
        buf = self.levels[lv]
        f = buf.f[:, :buf.n_owned]
        if self.force[lv] is None:
            return macroscopics(self.lat, f)
        return self.collision._moments(f, self.force[lv])

    def total_mass(self) -> float:
        """Volume-weighted total mass in coarse-lattice units."""
        total = 0.0
        for lv, buf in enumerate(self.levels):
            vol = (0.5 ** lv) ** self.mgrid.d
            total += vol * float(buf.f[:, :buf.n_owned].sum())
        return total

    def total_momentum(self) -> np.ndarray:
        """Volume-weighted total momentum vector in coarse-lattice units."""
        mom = np.zeros(self.mgrid.d)
        for lv, buf in enumerate(self.levels):
            vol = (0.5 ** lv) ** self.mgrid.d
            mom += vol * (self.lat.ef.T @ buf.f[:, :buf.n_owned]).sum(axis=1)
        return mom
