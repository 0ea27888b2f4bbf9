"""Per-layer metrics derived from a traced run's spans.

Self times follow one rule: a span's self time is its duration minus the
part its child spans cover.  On the launch path that gives

* ``collide`` — the collision operator (a child of a kernel body);
* kernel-family self time — the body of a launch minus its collisions;
* dispatch — a ``Runtime.launch`` span minus the body it ran;
* stepper overhead — a ``backend.step`` span minus its launches;

and the four add up to the traced step time, which ``obs.accounting``
checks against the step times the driver loop measured itself.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import ATTRS, END, JOB, NAME, PARENT, START

FAMILIES = ("C", "CA", "SE", "SO", "SEO", "CASE")

#: name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "host.copy_gbs": "GB/s", "host.triad_gbs": "GB/s", "host.cores": "count",
    "host.llc_mb": "MB", "host.stream_array_mb": "MB",
    "grid.build_s": "s", "engine.init_s": "s", "engine.population_bytes": "B",
    "collision.ms_per_step": "ms", "collision.calls_per_step": "count",
    "collision.gbs": "GB/s", "collision.host_bw_frac": "ratio",
    **{f"kernel.{f}.{m}": u for f in FAMILIES
       for m, u in (("ms_per_step", "ms"), ("gbs", "GB/s"),
                    ("host_bw_frac", "ratio"))},
    "runtime.launches_per_step": "count", "runtime.dispatch_us_per_launch": "us",
    "backend.step_ms": "ms", "stepper.overhead_ms": "ms",
    "model.bytes_per_step": "B", "model.kernels_per_step": "count",
    "model.us_per_step": "us",
    "checkpoint.saves": "count", "checkpoint.save_ms_p50": "ms",
    "checkpoint.bytes_per_save": "B", "checkpoint.restores": "count",
    "runner.segments": "count", "runner.segment_ms_p50": "ms",
    "runner.retries": "count", "runner.rollbacks": "count",
    "serve.oracle_ms": "ms", "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p90": "ms", "serve.service_ms_p50": "ms",
    "serve.persist_ms_per_job": "ms", "serve.job_setup_ms_p50": "ms",
    "serve.worker_busy_frac": "ratio", "serve.admission_rejects": "count",
    "serve.worker_restarts": "count",
    "obs.tracing_overhead": "ratio", "obs.untraced_op_ms": "ms",
    "obs.accounting": "ratio",
}


def _dur(span) -> float:
    return span[END] - span[START]


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def _p90(values) -> float:
    if len(values) > 1:
        return statistics.quantiles(values, n=10)[8]
    return values[0] if values else 0.0


def _per_group(spans, names, keep) -> list[float]:
    """Summed duration of ``names`` spans per job, over the jobs ``keep`` admits."""
    groups: dict[str, float] = defaultdict(float)
    for s in spans:
        if s[NAME] in names and s[JOB] and keep(s[JOB]):
            groups[s[JOB]] += _dur(s)
    return list(groups.values())


def kernel_layers(spans: list, window: tuple[float, float],
                  copy_gbs: float) -> dict:
    """Collision, kernel-family, dispatch and stepper figures per coarse step."""
    lo, hi = window
    inside = [i for i, s in enumerate(spans) if lo <= s[START] <= hi]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in inside:
        by_name[spans[i][NAME]].append(i)
    steps = len(by_name["backend.step"])
    out: dict[str, float] = {}

    def per_step(value: float) -> float:
        return value / steps if steps else 0.0

    child_time: dict[int, float] = defaultdict(float)
    for name in ("collide", "body", "launch"):
        for i in by_name[name]:
            parent = spans[i][PARENT]
            if parent >= 0:
                child_time[parent] += _dur(spans[i])

    def gbs(nbytes: float, seconds: float) -> float:
        return nbytes / seconds / 1e9 if seconds > 0 else 0.0

    collide_s = sum(_dur(spans[i]) for i in by_name["collide"])
    collide_b = sum(spans[i][ATTRS].get("bytes", 0) for i in by_name["collide"])
    out["collision.ms_per_step"] = per_step(1e3 * collide_s)
    out["collision.calls_per_step"] = per_step(len(by_name["collide"]))
    out["collision.gbs"] = gbs(collide_b, collide_s)

    # A launch's declared bytes belong to its body (the launch is its parent).
    launch_bytes = {i: spans[i][ATTRS].get("bytes", 0) for i in by_name["launch"]}
    fam_self: dict[str, float] = defaultdict(float)
    fam_incl: dict[str, float] = defaultdict(float)
    fam_bytes: dict[str, float] = defaultdict(float)
    for i in by_name["body"]:
        fam = spans[i][ATTRS].get("kernel", "?")
        fam_self[fam] += _dur(spans[i]) - child_time[i]
        fam_incl[fam] += _dur(spans[i])
        fam_bytes[fam] += launch_bytes.get(spans[i][PARENT], 0)
    for fam in FAMILIES:
        out[f"kernel.{fam}.ms_per_step"] = per_step(1e3 * fam_self[fam])
        out[f"kernel.{fam}.gbs"] = gbs(fam_bytes[fam], fam_incl[fam])

    launches = by_name["launch"]
    launch_s = sum(_dur(spans[i]) for i in launches)
    dispatch_s = launch_s - sum(child_time[i] for i in launches)
    step_s = sum(_dur(spans[i]) for i in by_name["backend.step"])
    out["runtime.launches_per_step"] = per_step(len(launches))
    out["runtime.dispatch_us_per_launch"] = (1e6 * dispatch_s / len(launches)
                                             if launches else 0.0)
    out["backend.step_ms"] = 1e3 * _median(
        [_dur(spans[i]) for i in by_name["backend.step"]])
    out["stepper.overhead_ms"] = per_step(1e3 * (step_s - launch_s))
    for name in [k for k in out if k.endswith(".gbs")]:
        out[name.replace(".gbs", ".host_bw_frac")] = (
            out[name] / copy_gbs if copy_gbs > 0 else 0.0)
    # The parts the rule above splits a step into, summed (seconds).
    out["_parts_s"] = sum(fam_self.values()) + collide_s + dispatch_s \
        + (step_s - launch_s)
    out["_steps"] = steps
    return out


def setup_layers(spans: list, keep) -> dict:
    """Grid compile and engine set-up per set-up (cavity) or per job (serve)."""
    engines = [s[ATTRS].get("population_bytes", 0) for s in spans
               if s[NAME] == "engine.init" and s[JOB] and keep(s[JOB])]
    return {
        "grid.build_s": _median(_per_group(spans, {"grid.build"}, keep)),
        "engine.init_s": _median(_per_group(
            spans, {"engine.init", "engine.initialize"}, keep)),
        "engine.population_bytes": _median(engines),
    }


def serve_layers(spans: list, result: dict) -> dict:
    """Checkpoint, runner and job-server figures over the timed jobs."""
    jobs = {j["job_id"]: j for j in result["jobs"]}
    n = len(jobs) or 1
    mine = [s for s in spans if s[JOB] in jobs]
    by_name: dict[str, list] = defaultdict(list)
    for s in mine:
        by_name[s[NAME]].append(s)

    runs: dict[str, list] = defaultdict(list)
    for s in by_name["runner.run"]:
        runs[s[JOB]].append(s)
    queue_wait, service, busy = [], [], 0.0
    latency = 0.0
    init_start = {s[JOB]: s[START] for s in by_name["runner.init"]}
    for job_id, j in jobs.items():
        segs = runs.get(job_id)
        if not segs:
            continue
        first = min(s[START] for s in segs)
        last = max(s[END] for s in segs)
        queue_wait.append(first - j["submit"])
        service.append(last - first)
        latency += j["done"] - j["submit"]
        busy += last - init_start.get(job_id, first)
    lo, hi = result["window"]
    wall = max((j["done"] for j in jobs.values()), default=lo) - lo
    saves = by_name["checkpoint.save"]
    return {
        "checkpoint.saves": len(saves) / n,
        "checkpoint.save_ms_p50": 1e3 * _median([_dur(s) for s in saves]),
        "checkpoint.bytes_per_save": (sum(s[ATTRS].get("bytes", 0) for s in saves)
                                      / len(saves) if saves else 0.0),
        "checkpoint.restores": float(len(by_name["checkpoint.restore"])),
        "runner.segments": len(by_name["runner.run"]) / n,
        "runner.segment_ms_p50": 1e3 * _median(
            [_dur(s) for s in by_name["runner.run"]]),
        "runner.retries": float(sum(s[ATTRS].get("retries", 0)
                                    for s in by_name["runner.run"])),
        "runner.rollbacks": float(sum(s[ATTRS].get("rollbacks", 0)
                                      for s in by_name["runner.run"])),
        "serve.oracle_ms": 1e3 * _median([_dur(s) for s in by_name["serve.predict"]]),
        "serve.queue_wait_ms_p50": 1e3 * _median(queue_wait),
        "serve.queue_wait_ms_p90": 1e3 * _p90(queue_wait),
        "serve.service_ms_p50": 1e3 * _median(service),
        "serve.persist_ms_per_job": 1e3 * sum(_dur(s) for s in by_name["serve.persist"]) / n,
        "serve.job_setup_ms_p50": 1e3 * _median([_dur(s) for s in by_name["runner.init"]]),
        "serve.worker_busy_frac": busy / (result["workers"] * wall) if wall > 0 else 0.0,
        "serve.admission_rejects": float(result["rejects"]),
        "serve.worker_restarts": float(result["restarts"]),
        "obs.accounting": (sum(queue_wait) + sum(service)) / latency
        if latency > 0 else 0.0,
    }


def derive(spans: list, result: dict, model: dict | None, serve: bool,
           copy_gbs: float) -> dict:
    """Every per-layer metric a workload child can compute from its own run.

    Figures a workload does not exercise read 0 (no checkpoints on a cavity,
    no cost-model trace replay on the flood).  The parent adds ``host.*`` and
    ``obs.tracing_overhead``, which need the other children.
    """
    window = tuple(result["window"])
    out = {name: 0.0 for name in UNITS}
    kern = kernel_layers(spans, window, copy_gbs)
    parts_s, steps = kern.pop("_parts_s"), kern.pop("_steps")
    out.update(kern)
    if serve:
        jobs = {j["job_id"] for j in result["jobs"]}
        out.update(setup_layers(spans, jobs.__contains__))
        out.update(serve_layers(spans, result))
    else:
        out.update(setup_layers(spans, lambda job: job.startswith("setup-")))
        if model is not None:
            out["model.bytes_per_step"] = float(model["bytes_per_step"])
            out["model.kernels_per_step"] = float(model["kernels_per_step"])
            out["model.us_per_step"] = float(model["us_per_step"])
        timed = sum(result["step_s"][-steps:]) if steps else 0.0
        out["obs.accounting"] = parts_s / timed if timed > 0 else 0.0
    return out
