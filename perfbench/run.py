#!/usr/bin/env python3
"""The repository benchmark: CATS end to end, and split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload sim-steady --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/spec.py`` says why each exists): ``sim-steady``
(deterministic simulation) and ``kv-tcp`` (a real TCP deployment in a
child process).  ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` runs the traced split by layer and reports
the per-layer metrics.  Every run checks its outputs (linearizable history,
unique put values, ring formed, no dropped frames, every operation
accounted for) outside the timed window.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is the full record: environment, workload reason, the
layer-to-metric map, details and every gate.  The record, with the traced
run's spans, is also written under ``.perfbench-out/``.  The exit code is 0
only when every gate passed.  ``--smoke`` shrinks every workload for the
self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    return parser.parse_args(argv)


def execute(args: argparse.Namespace) -> dict:
    """Run one workload; returns the full record."""
    from perfbench import kv, sim, spec
    from perfbench.common import GATE_NAMES, environment

    if args.workload not in spec.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(spec.WORKLOADS)}")
    env = environment(args.seed)
    if args.workload == "kv-tcp":
        runner = kv.trace if args.trace else kv.measure
        result = runner(args.seed, args.seconds, smoke=args.smoke)
    else:
        runner = sim.trace if args.trace else sim.measure
        result = runner(args.seed, args.seconds, smoke=args.smoke)

    gates = result.pop("gates")
    missing = [name for name in GATE_NAMES if name not in gates.results]
    if missing:
        raise RuntimeError(f"gates not evaluated: {missing}")
    if args.trace:
        table = spec.PER_LAYER
        values = dict.fromkeys(table, 0)
        values.update(result.pop("layers"))
    else:
        table = {name: (unit,) for name, (unit, *_rest) in spec.END_TO_END.items()}
        values = result.pop("metrics")
    unknown = sorted(set(values) - set(table))
    absent = sorted(set(table) - set(values))
    if unknown or absent:
        raise RuntimeError(f"metric set mismatch: unknown {unknown}, absent {absent}")
    spans = result.pop("spans", None)
    return {
        "workload": args.workload,
        "why": spec.WORKLOADS[args.workload],
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "seconds": args.seconds,
        "env": env,
        "layer_map": spec.LAYER_MAP,
        "metric_meaning": spec.END_TO_END_MEANING,
        "gates": gates.results,
        "correct": gates.passed,
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": {name: {"value": values[name], "unit": table[name][0]} for name in table},
        "detail": result,
        "spans": spans,
    }


def write_record(record: dict, args: argparse.Namespace) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    kind = "trace" if args.trace else "run"
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-{kind}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, default=str)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    # The WGL checker recurses once per operation of a key; the Zipf-hot
    # key of kv-tcp's saturate phase sees thousands.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))
    record = execute(args)
    path = write_record(record, args)
    record.pop("spans")
    record["record_path"] = os.path.relpath(path, ROOT)
    print(json.dumps(record, default=str))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    if not record["correct"]:
        failed = [name for name, gate in record["gates"].items() if gate["status"] == "fail"]
        print(f"perfbench: correctness gates failed: {failed}", file=sys.stderr)
        return 1
    return 0


#: String hashing is salted per process unless PYTHONHASHSEED is set, and
#: the salt changes the layout of every dict and set the program builds.
#: Back to back, that moved kv-tcp's median get latency by +-20% between
#: processes of one seed (+-8% with the salt fixed), so every process the
#: benchmark measures runs with this one value (``kv.py`` passes it on).
HASH_SEED = "0"

if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
