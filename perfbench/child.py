"""One benchmark child process: a workload run, its reference check, or the
host bandwidth ceiling.  ``run.py`` starts these; each writes one JSON
object to ``--out``.

    python3 perfbench/child.py workload  --workload W --seed S --seconds T \\
        --trace 0|1 --gate PATH --out PATH [--copy-gbs X] [--spans PATH] [--tiny]
    python3 perfbench/child.py reference --workload W --seed S --gate PATH \\
        --out PATH [--tiny]
    python3 perfbench/child.py hostbw --out PATH [--tiny]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro
    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        raise SystemExit(f"repro imported from {where}, not from this checkout")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/child.py")
    p.add_argument("mode", choices=("workload", "reference", "hostbw"))
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--gate")
    p.add_argument("--out", required=True)
    p.add_argument("--copy-gbs", type=float, default=0.0)
    p.add_argument("--spans")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    if args.mode == "hostbw":
        import hostbw
        out = hostbw.measure(8 << 20 if args.tiny else None)
    else:
        _import_program()
        import workloads
        if args.mode == "reference":
            out = workloads.reference(args.workload, args.seed, args.tiny,
                                      args.gate)
        else:
            out = run_workload(args, workloads)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


def run_workload(args, workloads) -> dict:
    if not args.trace:
        return workloads.run(args.workload, args.seed, args.seconds,
                             args.tiny, args.gate)
    import layers
    import spans

    rec = spans.SpanRecorder()
    undo = spans.install(rec)
    try:
        out = workloads.run(args.workload, args.seed, args.seconds, args.tiny,
                            args.gate, rec)
    finally:
        spans.uninstall(undo)
    out["layers"] = layers.derive(rec.spans, out, out.get("model"),
                                  args.workload not in workloads.CAVITIES,
                                  args.copy_gbs)
    if args.spans:
        rec.dump(args.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
