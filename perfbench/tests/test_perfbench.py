"""Self-test of the benchmark at smoke size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

It checks that every end-to-end and per-layer metric is emitted with its
unit, that every correctness gate is evaluated, that ``BENCHMARK.json``
states what ``perfbench/spec.py`` measures, and that a planted
non-linearizable history fails the run.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run, spec  # noqa: E402
from perfbench.common import GATE_NAMES, Gates, history_gates  # noqa: E402
from repro.consistency import NOT_FOUND, History  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: ``--seconds`` per workload at smoke size: about the smallest that still
#: gives every part of the put tail 200 samples and of the get tail 1000.
SMOKE_SECONDS = {"sim-steady": "16", "kv-tcp": "20"}


def smoke(workload: str, trace: int) -> tuple[int, dict, dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", SMOKE_SECONDS[workload], "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    assert len(lines) >= 2, done.stderr
    return done.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_states_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert declared == spec.benchmark_json(declared["run_seconds"])
    assert 2 <= len(declared["workloads"]) <= 8
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_and_gate(workload, trace):
    code, record, result = smoke(workload, trace)
    assert code == 0, record["gates"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(result["metrics"]) == set(table)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == table[name][0]
        assert isinstance(metric["value"], (int, float))
    assert set(record["gates"]) == set(GATE_NAMES)
    assert all(g["status"] in ("pass", "n/a") for g in record["gates"].values())
    for key in ("cpus", "python", "commit", "seed", "loadavg_at_start"):
        assert key in record["env"]
    assert record["why"] == spec.WORKLOADS[workload] and record["layer_map"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload.startswith("sim"):
        values = {name: m["value"] for name, m in result["metrics"].items()}
        # Self times plus the unattributed residual cover the traced window.
        assert sum(record["detail"]["attribution"].values()) == pytest.approx(
            values["trace.window_s"], rel=1e-6
        )
        assert all(v == 0 for name, v in values.items() if name.startswith("network."))
        assert values["core.dispatch.triggers"] > 0 and values["simulation.events"] > 0
    else:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert values["network.codec.encodes"] > 0 and values["network.aio.sent"] > 0
        assert values["network.aio.light.sent"] + values["network.aio.saturate.sent"] == values["network.aio.sent"]
        assert all(v == 0 for name, v in values.items() if name.startswith("simulation."))


def test_planted_non_linearizable_history_is_rejected():
    history = History()
    history.invoke(1, "a", "put", 7, value="v1", time=0.0)
    history.respond(1, 1.0, result=True)
    history.invoke(2, "b", "get", 7, time=2.0)
    history.respond(2, 3.0, result=NOT_FOUND)  # the acknowledged put is lost
    gates = Gates()
    history_gates(gates, history)
    assert gates.results["linearizable"]["status"] == "fail"
    assert gates.results["unique_put_values"]["status"] == "pass"
    assert not gates.passed


def test_duplicate_put_values_are_rejected():
    history = History()
    for op_id in (1, 2):
        history.invoke(op_id, "a", "put", 7, value="same", time=float(op_id))
        history.respond(op_id, op_id + 0.5, result=True)
    gates = Gates()
    history_gates(gates, history)
    assert gates.results["unique_put_values"]["status"] == "fail"


def test_a_failed_gate_fails_the_command(monkeypatch, capsys):
    """A get answered with a value nobody wrote makes the run exit non-zero."""
    from perfbench import common, sim

    class PlantedHistory(common.CpuTimeHistory):
        planted = False

        def respond(self, op_id, time, result=None):
            if not self.planted and isinstance(result, str):
                PlantedHistory.planted = True
                result = "never-written"
            super().respond(op_id, time, result=result)

    monkeypatch.setattr(sim, "CpuTimeHistory", PlantedHistory)
    code = run.main(["--workload", "sim-steady", "--seed", "3", "--seconds", "16", "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert PlantedHistory.planted
    assert code != 0
    assert json.loads(lines[-1])["correct"] is False
    assert json.loads(lines[-2])["gates"]["linearizable"]["status"] == "fail"


def test_a_response_matching_no_request_is_counted():
    """kv-tcp's op accounting sees repeated and unknown responses."""
    from perfbench.kv import Collector
    from repro.cats import PutResponse

    collector = Collector()
    collector.pending[5] = {"kind": "put", "due": 0.0, "invoked": 0.0, "phase": "light"}
    collector.history.invoke(5, "client", "put", 1, value="v", time=0.0)
    for op_id in (5, 5, 6):
        collector.complete(PutResponse(op_id=op_id, key=1, ok=True))
    assert len(collector.done) == 1 and collector.stray == 2
