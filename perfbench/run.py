"""The repository benchmark: one workload per call, measured and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload runs in its own child process on the program's default path
(``REPRO_BACKEND``, ``REPRO_THREADED`` and ``REPRO_MP_WORKERS`` are cleared
from its environment).  A second child reruns the workload's seeded inputs
on a reference path and checks the measured run's result against it.  With
``--trace 1`` the untraced run is followed by a traced one, and a third
child measures the host's STREAM bandwidth first.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Every failed step, check, job, admission or digest comparison counts in
``failed``; any failure makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

from layers import UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cavity3d-20-L3", "cavity2d-16-L2", "serve-flood")
END_TO_END = {
    "wall_mlups": "MLUPS", "step_ms_p50": "ms", "model_mlups": "MLUPS",
    "setup_s": "s", "peak_rss_mb": "MB", "job_latency_ms_p50": "ms",
    "jobs_per_s": "1/s",
}
#: Every child must end within this many seconds of the benchmark's start.
BUDGET_S = 170.0
#: Untraced operation whose traced/untraced ratio is the tracing overhead.
OVERHEAD_OP = {"cavity3d-20-L3": "step_ms_p50", "cavity2d-16-L2": "step_ms_p50",
               "serve-flood": "job_latency_ms_p50"}


class ChildFailed(RuntimeError):
    pass


def child(mode: str, out: str, env: dict, deadline: float, *args: str) -> dict:
    """Run one child to completion (or kill it at the deadline); its JSON."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, "--out", out,
           *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"{mode}: no time left")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode}: killed after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode}: exit code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def run_workload(name: str, args, env: dict, tmp: str, deadline: float,
                 host: dict | None) -> dict:
    common = ["--workload", name, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    gate = os.path.join(tmp, f"{name}.gate")
    # A traced call splits its measuring time between the untraced run (the
    # base of the tracing overhead) and the traced one.
    seconds = str(args.seconds / 2 if args.trace else args.seconds)
    errors: list[str] = []
    attempted = failed = 0
    result: dict = {}
    traced: dict = {}
    try:
        result = child("workload", os.path.join(tmp, f"{name}.json"), env,
                       deadline, *common, "--seconds", seconds,
                       "--trace", "0", "--gate", gate)
        if args.trace:
            spans = os.path.join(ROOT, ".perfbench_out",
                                 f"spans-{name}-seed{args.seed}.jsonl.gz")
            traced = child("workload", os.path.join(tmp, f"{name}.traced.json"),
                           env, deadline, *common, "--seconds", seconds,
                           "--trace", "1", "--gate", gate + ".traced",
                           "--copy-gbs", str(host["copy_gbs"]), "--spans", spans)
        ref = child("reference", os.path.join(tmp, f"{name}.ref.json"), env,
                    deadline, *common, "--gate", gate)
    except ChildFailed as exc:
        errors.append(str(exc))
        attempted += 1
        failed += 1
        ref = {}
    for part in (result, traced, ref):
        attempted += part.get("attempted", 0)
        failed += part.get("failed", 0)
        errors += part.get("errors", [])

    if args.trace:
        values = {**traced.get("layers", {}),
                  **{f"host.{k}": host[k] for k in
                     ("copy_gbs", "triad_gbs", "cores", "llc_mb", "stream_array_mb")}}
        if traced:  # the untraced run came first, so it is there too
            op = OVERHEAD_OP[name]
            base = result["metrics"][op]["value"]
            values["obs.untraced_op_ms"] = base
            values["obs.tracing_overhead"] = traced["metrics"][op]["value"] / base
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in UNITS.items() if k in values}
    else:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in result.get("metrics", {}).items()}
    missing = [k for k in (UNITS if args.trace else END_TO_END) if k not in metrics]
    if missing and not errors:
        errors.append(f"metrics missing: {', '.join(missing)}")
        failed += 1
    return {"correct": failed == 0 and not errors, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics, "errors": errors,
            "counts": {k: v.get("n", 1)
                       for k, v in (traced if args.trace else result)
                       .get("metrics", {}).items()}}


def print_table(name: str, res: dict, host: dict | None) -> None:
    print(f"# {name}: attempted {res['attempted']}, failed {res['failed']} "
          f"(error_ratio {res['failed'] / res['attempted']:.4g})")
    if host is not None:
        print(f"#   host: {host['cores']} cores, numpy {host['numpy']}, "
              f"LLC {host['llc_mb']:.0f} MB, STREAM arrays "
              f"{host['stream_array_mb']:.0f} MB each")
    for key, m in res["metrics"].items():
        n = res["counts"].get(key)
        count = f"  (n={n})" if n is not None else ""
        print(f"  {key:34s} {m['value']:14.6g} {m['unit']}{count}")
    for err in res["errors"]:
        print(f"  FAILED: {err}")


def main(argv: list[str] | None = None) -> int:
    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs and a small STREAM array (self-tests)")
    args = p.parse_args(argv)

    tmp = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_BACKEND", "REPRO_THREADED", "REPRO_MP_WORKERS")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = tmp
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = start + BUDGET_S * len(names)
    results = {}
    host = None
    try:
        if args.trace:
            try:
                host = child("hostbw", os.path.join(tmp, "host.json"), env,
                             deadline, *(["--tiny"] if args.tiny else []))
            except ChildFailed as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 1
        for name in names:
            results[name] = run_workload(name, args, env, tmp, deadline, host)
            print_table(name, results[name], host)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if len(names) == 1:
        res = results[names[0]]
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
