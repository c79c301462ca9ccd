"""Self-test of the benchmark.

Usage (from the repository root): python3 perfbench/selftest.py

A short run of every workload, untraced and traced, asserts that:
  * every end-to-end metric of BENCHMARK.json is present with its unit, and
    every per-layer metric in the traced run;
  * no item failed, and the negative controls ran (the result says correct);
  * the traced run repeated its exact counts, and a second traced run of
    search-enumerate with the same seed reports the same counts;
  * each workload exercises the layers it was chosen for;
  * the same seed gives the same input hash and another seed a different one.
Takes about three minutes; exits 1 at the first failed assertion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import TRACE_ROUNDS, load_spec  # noqa: E402

SEED = 7


def run(workload: str, trace: int, seed: int = SEED) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-800:]}"
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line)["env"] for line in lines if line.startswith('{"env"'))
    return json.loads(lines[-1]), env


def check_result(result: dict, expected: list[dict], what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys {sorted(result)}"
    assert result["correct"] is True, f"{what}: not correct"
    assert result["failed"] == 0 and result["attempted"] >= 1, f"{what}: {result['failed']} of {result['attempted']} failed"
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, f"{what}: metric names differ"
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{what}: {m['name']} unit {got['unit']!r}"
        assert isinstance(got["value"], (int, float)), f"{what}: {m['name']} value {got['value']!r}"


def main() -> int:
    spec = load_spec()
    layer = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        result, env = run(name, 0)
        check_result(result, spec["end_to_end"], f"{name} untraced")
        assert env["negative_controls"] > 0, f"{name}: no negative control ran"
        same = workloads.inputs_sha256(name, SEED, TRACE_ROUNDS[name])
        assert env["inputs_sha256"] == same, f"{name}: input hash differs between processes"
        assert workloads.inputs_sha256(name, SEED + 1, TRACE_ROUNDS[name]) != same, f"{name}: seed does not change inputs"
        result, _ = run(name, 1)
        check_result(result, spec["per_layer"], f"{name} traced")
        layer[name] = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"ok {name}", flush=True)

    again, _ = run("search-enumerate", 1)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count" and m["name"] != "trace.items"]
    for m in counts:
        assert again["metrics"][m]["value"] == layer["search-enumerate"][m], f"count {m} does not repeat"

    assert layer["born-batch"]["boxes.box_from_state.calls"] > 0
    assert layer["born-batch"]["decompose.certify_quantumness.calls"] == 0
    assert layer["born-batch"]["decompose.slsqp.calls"] == 0
    assert layer["search-enumerate"]["decompose.search.cases"] > 0
    search = layer["search-enumerate"]
    assert search["decompose.slsqp.busy_ms"] < 0.05 * search["decompose.certify_quantumness.busy_ms"]
    assert layer["numeric-solve"]["decompose.slsqp.calls"] > 0
    assert layer["numeric-solve"]["rac.nelder_mead.nfev"] > 0
    assert layer["cli-cold"]["cli.sweep.stdout_bytes"] > 0
    assert layer["cli-cold"]["import.unsteer_ms"] > 0
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"selftest FAILED: {exc}")
        sys.exit(1)
