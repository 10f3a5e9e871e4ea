"""Shared measurement helpers: percentiles, histories, gates, environment."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from statistics import median
from time import process_time

from repro.consistency import History, check_history

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Minimum samples beyond a reported percentile (choosing-metrics guide).
TAIL_SAMPLES = 10


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supports(count: int, pct: float) -> bool:
    """Whether ``count`` samples leave TAIL_SAMPLES beyond ``pct``."""
    return count * (100.0 - pct) / 100.0 >= TAIL_SAMPLES


def latency_block(samples_s, pct: float) -> dict:
    """Median and ``pct`` percentile in ms, with the sample count."""
    return {
        "count": len(samples_s),
        "p50_ms": percentile(samples_s, 50) * 1e3,
        f"p{pct:g}_ms": percentile(samples_s, pct) * 1e3,
        "tail_supported": supports(len(samples_s), pct),
    }


#: Parts of a window over which ``parted_block`` takes its medians.
TAIL_PARTS = 4


def parted_block(samples, start: float, end: float, pct: float, parts: int = TAIL_PARTS) -> dict:
    """Like ``latency_block`` over ``(time, seconds)`` samples, but the
    median and the ``pct`` percentile are each the median over ``parts``
    equal parts of ``[start, end)`` of that part's value.

    A shared 2-vCPU host has slow spells: a stall of 10-25 ms a few times
    in ten seconds delays every request in flight, and for seconds at a
    time every thread wake-up costs more (a lone request's median moved
    from 0.55 to 0.95 ms between 2.5-s slices of one run).  Over a whole
    window such spells set a p99, and shift a median, by however many of
    them the run happened to meet; the median part is the typical one.
    The whole-window values are kept beside them.
    """
    span = (end - start) / parts
    split = [[] for _ in range(parts)]
    for at, value in samples:
        index = int((at - start) / span)
        if 0 <= index < parts:
            split[index].append(value)
    block = latency_block([value for _, value in samples], pct)
    for key in ("p50", f"p{pct:g}"):
        block[f"{key}_whole_ms"] = block[f"{key}_ms"]
    if all(split):
        block["p50_ms"] = median(percentile(part, 50) for part in split) * 1e3
        block[f"p{pct:g}_ms"] = median(percentile(part, pct) for part in split) * 1e3
    block["tail_supported"] = all(supports(len(part), pct) for part in split)
    block["part_counts"] = [len(part) for part in split]
    return block


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CpuTimeHistory(History):
    """A consistency history that also stamps the process's CPU time per op.

    The simulator records invocations and responses in virtual time; the
    CPU stamps give the latency a user of the (single-threaded) simulator
    waits for on a CPU of its own.
    """

    def __init__(self) -> None:
        super().__init__()
        self.cpu_invoked: dict[int, float] = {}
        self.cpu_answered: dict[int, float] = {}

    def invoke(self, op_id, process, kind, key, value=None, time=0.0) -> None:
        self.cpu_invoked[op_id] = process_time()
        super().invoke(op_id, process, kind, key, value=value, time=time)

    def respond(self, op_id, time, result=None) -> None:
        self.cpu_answered[op_id] = process_time()
        super().respond(op_id, time, result=result)


@dataclass
class Gates:
    """Correctness gates of one run: each is passed, failed or n/a."""

    results: dict[str, dict] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: object = None) -> None:
        self.results[name] = {"status": "pass" if ok else "fail", "detail": detail}

    def not_applicable(self, name: str, why: str) -> None:
        self.results[name] = {"status": "n/a", "detail": why}

    @property
    def passed(self) -> bool:
        return all(r["status"] != "fail" for r in self.results.values())


#: Every gate a run evaluates, in report order (the self-test pins this).
GATE_NAMES = (
    "ring_formed",
    "unique_put_values",
    "linearizable",
    "no_dropped_frames",
    "every_op_accounted",
    "tail_samples",
    "generator_kept_up",
)


def history_gates(gates: Gates, history: History) -> None:
    """The two history gates: unique put values, then linearizability."""
    values = [op.value for op in history.operations if op.kind == "put"]
    gates.check(
        "unique_put_values",
        len(values) == len(set(values)),
        {"puts": len(values), "distinct": len(set(values))},
    )
    result = check_history(history)
    gates.check(
        "linearizable",
        result.linearizable,
        {"ops": len(history), "key": result.key, "reason": result.reason},
    )


def unique_value(seed: int, index: int, size: int) -> str:
    """A put value no other put of the run writes, padded to ``size``."""
    stamp = f"{seed}:{index}:"
    return stamp + "x" * max(0, size - len(stamp))


def environment(seed: int) -> dict:
    """The ``env`` block every result records."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": _commit(),
        "src_digest": _src_digest(),
        "seed": seed,
        "loadavg_at_start": list(os.getloadavg()),
    }


def _commit() -> str:
    """HEAD of the checkout when it is itself a git repository, else ``unknown``."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def _src_digest() -> str:
    """blake2b over the program sources: identifies the code without git."""
    digest = hashlib.blake2b(digest_size=12)
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
