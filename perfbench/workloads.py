"""The benchmark's workloads: what each runs, times and checks.

Every function here runs inside one child process (see ``child.py``), on the
program's default path: ``SimConfig`` backend and threading are left unset
and the parent clears ``REPRO_BACKEND``, ``REPRO_THREADED`` and
``REPRO_MP_WORKERS`` from the child's environment.

* ``cavity3d-20-L3`` is kernel-bound: ten launches of ~0.25M cells each per
  coarse step, where memory passes dominate and dispatch is negligible.
* ``cavity2d-16-L2`` is dispatch-bound: four launches of a few hundred cells,
  where per-call Python and NumPy overhead dominates.
* ``serve-flood`` runs the same kernels at tiny size inside the job server,
  beside checkpoint and job-state writes, under a closed loop of one client
  per tenant.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import random
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass
from time import perf_counter

import numpy as np

FUSION = "ours-4f"
REFERENCE_FUSION = "baseline-4b"
#: Share of the lid speed the seeded initial velocity perturbation reaches.
PERTURBATION = 0.01
#: The gate fails when any level's velocity magnitude reaches this many
#: lid speeds.
UMAX_LID_FACTOR = 2.0
#: Normwise relative tolerance of the ours-4f vs baseline-4b gate.
GATE_RTOL = 1e-12
#: At least this many timed samples, even past the deadline.
MIN_SAMPLES = 5


@dataclass(frozen=True)
class Cavity:
    base: tuple[int, ...]
    levels: int
    lattice: str
    setups: int
    gate_step: int


CAVITIES = {
    "cavity3d-20-L3": Cavity((20, 20, 20), 3, "D3Q19", setups=3, gate_step=3),
    "cavity2d-16-L2": Cavity((16, 16), 2, "D2Q9", setups=25, gate_step=200),
}
TINY_CAVITIES = {
    "cavity3d-20-L3": Cavity((8, 8, 8), 2, "D3Q19", setups=2, gate_step=2),
    "cavity2d-16-L2": Cavity((8, 8), 2, "D2Q9", setups=2, gate_step=20),
}


@dataclass(frozen=True)
class Flood:
    jobs: int
    tenants: int
    workers: int
    setups: int
    sample: int


SERVE = {"serve-flood": Flood(jobs=960, tenants=4, workers=2, setups=15, sample=10)}
TINY_SERVE = {"serve-flood": Flood(jobs=8, tenants=4, workers=2, setups=2, sample=4)}

WORKLOADS = tuple(CAVITIES) + tuple(SERVE)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str, n: int) -> dict:
    return {"value": float(value), "unit": unit, "n": int(n)}


def median_ms(seconds: list[float]) -> dict:
    return metric(1e3 * statistics.median(seconds), "ms", len(seconds))


# -- cavities ---------------------------------------------------------------


def perturbation(seed: int, base: tuple[int, ...], lid_speed: float):
    """A smooth seeded velocity field bounded by 1% of the lid speed.

    Returned as the callable ``Simulation.initialize(rho, u=...)`` takes:
    cell centres ``(N, d)`` in coarse units to velocities ``(d, N)``.
    """
    rng = np.random.default_rng(seed)
    d = len(base)
    modes = 4
    k = rng.integers(1, 4, size=(modes, d))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(modes, d))
    amp = rng.uniform(-1.0, 1.0, size=(modes, d))
    amp *= PERTURBATION * lid_speed / np.abs(amp).sum(axis=0)
    extent = np.asarray(base, dtype=np.float64)

    def u(x: np.ndarray) -> np.ndarray:
        arg = 2.0 * np.pi * (x / extent) @ k.T
        return np.stack([(amp[:, c] * np.sin(arg + phase[:, c])).sum(axis=1)
                         for c in range(d)])

    return u


def build_cavity(cav: Cavity, seed: int, fusion: str):
    """A seeded lid cavity on the default execution path; ``(sim, workload)``."""
    from repro.bench.workloads import lid_cavity
    from repro.core.simulation import Simulation

    wl = lid_cavity(base=cav.base, num_levels=cav.levels, lattice=cav.lattice)
    sim = Simulation.from_config(wl.spec, wl.sim_config(fusion=fusion))
    sim.initialize(1.0, u=perturbation(seed, cav.base, wl.char_velocity))
    return sim, wl


def macroscopic_state(sim) -> dict[str, np.ndarray]:
    out = {}
    for lv in range(sim.num_levels):
        rho, u = sim.macroscopics(lv)
        out[f"rho{lv}"] = rho
        out[f"u{lv}"] = u
    return out


def state_mismatch(ours: dict, ref: dict) -> float:
    """Largest normwise relative difference over every level's rho and u."""
    if set(ours) != set(ref):
        return float("inf")
    worst = 0.0
    for key, b in ref.items():
        a = ours[key]
        if a.shape != b.shape:
            return float("inf")
        scale = float(np.abs(b).max()) if b.size else 0.0
        diff = float(np.abs(a - b).max()) if b.size else 0.0
        worst = max(worst, diff / scale if scale > 0 else diff)
    return worst


def health_errors(sim, lid_speed: float) -> list[str]:
    """The in-run gate: finite populations and a bounded velocity."""
    errors = []
    if not sim.is_stable():
        errors.append("non-finite populations")
    else:
        umax = sim.max_velocity()
        if not umax < UMAX_LID_FACTOR * lid_speed:
            errors.append(f"max |u| {umax:.4g} >= {UMAX_LID_FACTOR} x lid "
                          f"speed {lid_speed:.4g}")
    return errors


def step_model(sim) -> dict:
    """Cost-model figures of the last coarse step's kernel trace (exact)."""
    from repro.bench.harness import default_concurrency
    from repro.gpu.costmodel import cost_trace, predicted_mlups
    from repro.gpu.device import A100_40GB

    records = sim.runtime.last_step()
    cost = cost_trace(records, A100_40GB,
                      concurrent=default_concurrency(sim.stepper.config))
    return {"mlups": predicted_mlups(sim.mgrid.active_per_level(), 1, cost),
            "bytes_per_step": cost.bytes_total,
            "kernels_per_step": cost.kernels,
            "us_per_step": cost.total_us}


def run_cavity(name: str, seed: int, seconds: float, tiny: bool,
               gate_path: str, rec=None) -> dict:
    """Set up several times, then time coarse steps for ``seconds``.

    The kept simulation's state at ``gate_step`` is written to
    ``gate_path`` for the baseline-4b comparison (``reference_cavity``).
    """
    from repro.core.simulation import mlups

    cav = (TINY_CAVITIES if tiny else CAVITIES)[name]
    setup_s: list[float] = []
    sim = wl = None
    for i in range(cav.setups):
        if sim is not None:
            sim.close()
            sim = None
            gc.collect()
        if rec is not None:
            rec.job = f"setup-{i}"
        t0 = perf_counter()
        sim, wl = build_cavity(cav, seed, FUSION)
        sim.step()
        setup_s.append(perf_counter() - t0)
    if rec is not None:
        rec.job = ""

    errors: list[str] = []
    step_s: list[float] = []
    raised = 0
    t_start = perf_counter()
    deadline = t_start + seconds
    while True:
        sim.runtime.reset(steps_base=sim.steps_done)
        t0 = perf_counter()
        try:
            sim.step()
        except Exception as exc:  # a failed step is a counted failure
            raised += 1
            errors.append(f"step {sim.steps_done + 1} raised "
                          f"{type(exc).__name__}: {exc}")
            break
        step_s.append(perf_counter() - t0)
        if sim.steps_done == cav.gate_step:
            with open(gate_path, "wb") as fh:  # np.savez(path) appends .npz
                np.savez(fh, **macroscopic_state(sim))
        if (perf_counter() >= deadline and sim.steps_done >= cav.gate_step
                and len(step_s) >= MIN_SAMPLES):
            break
    t_end = perf_counter()

    health = health_errors(sim, wl.char_velocity) if not raised else []
    errors += health
    active = sim.mgrid.active_per_level()
    model = step_model(sim) if not raised else dict.fromkeys(
        ("mlups", "bytes_per_step", "kernels_per_step", "us_per_step"), 0.0)
    n = len(step_s)
    # Every coarse step does the same work, so the rates use the median step
    # time: one step slowed by the host does not move them.
    step = statistics.median(step_s)
    metrics = {
        "wall_mlups": metric(mlups(active, 1, step), "MLUPS", n),
        "step_ms_p50": median_ms(step_s),
        "model_mlups": metric(model["mlups"], "MLUPS", 1),
        "setup_s": metric(statistics.median(setup_s), "s", len(setup_s)),
        "peak_rss_mb": metric(peak_rss_mb(), "MB", 1),
        # On a cavity the unit of work a caller waits for is one coarse step.
        "job_latency_ms_p50": median_ms(step_s),
        "jobs_per_s": metric(1.0 / step, "1/s", n),
    }
    out = {"attempted": n + raised + 2, "failed": raised + len(health),
           "errors": errors, "metrics": metrics, "window": [t_start, t_end],
           "step_s": step_s, "model": model}
    sim.close()
    return out


def reference_cavity(name: str, seed: int, tiny: bool, gate_path: str) -> dict:
    """Run the same seeded inputs under baseline-4b and compare at the gate."""
    cav = (TINY_CAVITIES if tiny else CAVITIES)[name]
    try:
        with np.load(gate_path) as npz:
            ours = {k: npz[k] for k in npz.files}
    except OSError as exc:
        return {"attempted": 1, "failed": 1,
                "errors": [f"no gate state from the measured run: {exc}"]}
    sim, _ = build_cavity(cav, seed, REFERENCE_FUSION)
    with sim:
        sim.run(cav.gate_step)
        worst = state_mismatch(ours, macroscopic_state(sim))
    ok = worst <= GATE_RTOL
    return {"attempted": 1, "failed": 0 if ok else 1, "mismatch": worst,
            "errors": [] if ok else [
                f"{FUSION} vs {REFERENCE_FUSION} at step {cav.gate_step}: "
                f"relative difference {worst:.3g} > {GATE_RTOL:g}"]}


# -- serve flood --------------------------------------------------------------


def warmup_spec():
    """The fixed job each server set-up completes before it counts as ready."""
    from repro.serve.cli import build_flood
    return dataclasses.replace(build_flood(jobs=1, tenants=1, seed=0)[0],
                               job_id="setup")


async def _server_setup(root: str, workers: int) -> float:
    from repro.serve import JobServer

    t0 = perf_counter()
    server = JobServer(root, workers=workers)
    await server.start()
    try:
        result = await server.result(await server.submit(warmup_spec()))
    finally:
        await server.stop()
    if result.state != "done":
        raise RuntimeError(f"set-up job ended {result.state}: {result.error}")
    return perf_counter() - t0


async def _closed_loop(flood: list, cfg: Flood, root: str, seconds: float,
                       rec) -> dict:
    """One client per tenant; each submits its next job when the last returns."""
    from repro.serve import AdmissionError, JobServer

    server = JobServer(root, workers=cfg.workers)
    await server.start()
    jobs: list[dict] = []
    rejects = 0
    t_start = perf_counter()
    deadline = t_start + seconds

    async def client(k: int) -> None:
        nonlocal rejects
        mine = list(range(k, len(flood), cfg.tenants))
        n = 0
        while perf_counter() < deadline:
            index = mine[n % len(mine)]
            spec = flood[index]
            if n >= len(mine):  # the flood cycles: same spec, fresh id
                spec = dataclasses.replace(
                    spec, job_id=f"{spec.job_id}-p{n // len(mine)}")
            n += 1
            t0 = perf_counter()
            try:
                job_id = await server.submit(spec)
            except AdmissionError:
                rejects += 1
                continue
            result = await server.result(job_id)
            t1 = perf_counter()
            jobs.append({"job_id": job_id, "index": index, "submit": t0,
                         "done": t1, "result": result})
            if rec is not None:
                rec.add("job", t0, t1, job=job_id)

    try:
        await asyncio.gather(*(client(k) for k in range(cfg.tenants)))
    finally:
        await server.stop()
    return {"jobs": jobs, "rejects": rejects, "window": [t_start, perf_counter()]}


def run_serve(name: str, seed: int, seconds: float, tiny: bool,
              gate_path: str, rec=None) -> dict:
    """Time a closed-loop flood through a fresh ``JobServer``."""
    import json

    from repro.serve import predict_cost
    from repro.serve.cli import build_flood

    cfg = (TINY_SERVE if tiny else SERVE)[name]
    flood = build_flood(jobs=cfg.jobs, tenants=cfg.tenants, seed=seed)
    setup_s = []
    for _ in range(cfg.setups):
        root = tempfile.mkdtemp(prefix="serve-setup-")
        try:
            setup_s.append(asyncio.run(_server_setup(root, cfg.workers)))
        finally:
            shutil.rmtree(root, ignore_errors=True)
    root = tempfile.mkdtemp(prefix="serve-flood-")
    try:
        loop = asyncio.run(_closed_loop(flood, cfg, root, seconds, rec))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    jobs = loop["jobs"]
    done = [j for j in jobs if j["result"].state == "done"]
    errors = [f"job {j['job_id']} ended {j['result'].state}: "
              f"{j['result'].error}" for j in jobs if j not in done]
    if loop["rejects"]:
        errors.append(f"{loop['rejects']} submissions refused admission")
    t_start = loop["window"][0]
    wall = max((j["done"] for j in jobs), default=t_start) - t_start
    updates = cost_us = 0.0
    for j in done:
        c = predict_cost(flood[j["index"]].spec, flood[j["index"]].config,
                         flood[j["index"]].steps)
        updates += c.updates_per_step * c.steps
        cost_us += c.total_us
    latency = [j["done"] - j["submit"] for j in done]
    step_s = [j["result"].run.seconds / j["result"].run.steps
              for j in done if j["result"].run is not None]

    # The seeded sample whose digests the reference run recomputes serially.
    indices = sorted({j["index"] for j in done})
    sample = random.Random(seed).sample(indices, min(cfg.sample, len(indices)))
    first = {}
    for j in done:
        first.setdefault(j["index"], j["result"].state_digest)
    with open(gate_path, "w") as fh:
        json.dump([{"index": i, "digest": first[i]} for i in sample], fh)

    metrics = {
        "wall_mlups": metric(updates / wall / 1e6 if wall > 0 else 0.0,
                             "MLUPS", len(done)),
        "step_ms_p50": median_ms(step_s),
        "model_mlups": metric(updates / cost_us if cost_us else 0.0,
                              "MLUPS", len(done)),
        "setup_s": metric(statistics.median(setup_s), "s", len(setup_s)),
        "peak_rss_mb": metric(peak_rss_mb(), "MB", 1),
        "job_latency_ms_p50": median_ms(latency),
        "jobs_per_s": metric(len(done) / wall if wall > 0 else 0.0, "1/s",
                             len(done)),
    }
    return {"attempted": len(jobs) + loop["rejects"],
            "failed": len(jobs) - len(done) + loop["rejects"],
            "errors": errors, "metrics": metrics, "window": loop["window"],
            "jobs": [{k: v for k, v in j.items() if k != "result"}
                     for j in jobs],
            "rejects": loop["rejects"],
            "restarts": sum(j["result"].restarts for j in jobs),
            "workers": cfg.workers}


def reference_serve(name: str, seed: int, tiny: bool, gate_path: str) -> dict:
    """Rerun the sampled jobs serially, outside the server; compare digests."""
    import json

    from repro.core.simulation import Simulation
    from repro.serve import state_digest
    from repro.serve.cli import build_flood

    cfg = (TINY_SERVE if tiny else SERVE)[name]
    try:
        with open(gate_path) as fh:
            sample = json.load(fh)
    except (OSError, ValueError) as exc:
        return {"attempted": 1, "failed": 1,
                "errors": [f"no digest sample from the measured run: {exc}"]}
    flood = build_flood(jobs=cfg.jobs, tenants=cfg.tenants, seed=seed)
    errors = []
    if len(sample) < cfg.sample:
        errors.append(f"only {len(sample)} distinct jobs completed; the "
                      f"digest gate needs {cfg.sample}")
    for item in sample:
        spec = flood[item["index"]]
        with Simulation.from_config(spec.spec, spec.config) as sim:
            sim.run(spec.steps)
            digest = state_digest(sim)
        if digest != item["digest"]:
            errors.append(f"job {spec.job_id}: server digest differs from "
                          f"the serial run")
    return {"attempted": max(len(sample), 1), "failed": len(errors),
            "errors": errors}


def run(name: str, seed: int, seconds: float, tiny: bool, gate_path: str,
        rec=None) -> dict:
    fn = run_cavity if name in CAVITIES else run_serve
    return fn(name, seed, seconds, tiny, gate_path, rec)


def reference(name: str, seed: int, tiny: bool, gate_path: str) -> dict:
    fn = reference_cavity if name in CAVITIES else reference_serve
    return fn(name, seed, tiny, gate_path)
