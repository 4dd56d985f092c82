"""Self-checks of the benchmark itself (slow: about a minute).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
They are not part of the tier-1 suite, whose ``testpaths`` is ``tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def spawn(workload, mode="full", seed=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--mode", mode]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_runs_repeat_exactly(workload):
    first = spawn(workload)
    second = spawn(workload)
    assert first["sim"] == second["sim"]
    assert first["sim"]["events"] > 0 and first["sim"]["issued"] > 0


def test_traced_runs_repeat_and_do_not_perturb():
    plain = spawn("social-bare")
    traced = [spawn("social-bare", "traced") for _ in range(2)]
    for rep in traced:
        assert rep["sim"] == plain["sim"]
    assert traced[0]["counts"] == traced[1]["counts"]
    counts = {name: row["calls"] for name, row in traced[0]["spans"].items()}
    assert counts == {name: row["calls"]
                      for name, row in traced[1]["spans"].items()}
    layers = traced[0]["layers"]
    assert layers["sim.engine.events_per_request"] \
        == plain["sim"]["events"] / plain["sim"]["issued"]
    assert set(run.PER_LAYER) == (set(layers) | set(run.UNTRACED_LAYER)
                                  | {"obs.exporters.otlp_peak_alloc_mb",
                                     "trace_overhead"})

