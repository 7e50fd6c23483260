"""Smoke test of the benchmark: every workload at the tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run names every metric of BENCHMARK.json with its unit,
that two runs with one seed repeat every count and every ``*_digits``
value exactly, and that Picard takes the same number of steps from two
different seeds.  Correctness gates are set for the full size and are not
checked here.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# per-layer metrics that are counts of work, not times
EXACT_UNITS = ("count", "B")


@functools.cache
def run(workload: str, seed: int, trace: int, repeat: int = 0) -> dict:
    """The JSON result of one tiny run; repeat only separates cache entries."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact_metrics(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in EXACT_UNITS or name.endswith("_digits")
            or name == "extremizer.contraction_rate"}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_named_with_its_unit(workload, trace, kind):
    result = run(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_same_seed_repeats_counts_and_digits(workload, trace):
    first = exact_metrics(run(workload, 1, trace))
    assert first
    assert exact_metrics(run(workload, 1, trace, repeat=1)) == first


def test_picard_steps_do_not_depend_on_the_seed():
    steps = [run("picard", seed, 1)["metrics"]["extremizer.picard_steps"]["value"]
             for seed in (1, 2)]
    assert steps[0] > 0
    assert steps[0] == steps[1]
