"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    human = "\n".join(lines[:-1])
    for m in listed:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, float) and value == value, m["name"]
        assert any(m["name"] in line and f" {m['unit']} " in line
                   for line in human.splitlines()), m["name"]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_inputs_depend_on_the_seed_only(workload):
    def inputs(seed):
        return json.dumps(workloads.build(workload, seed, {}).inputs)

    assert inputs(11) == inputs(11)
    assert inputs(11) != inputs(12)


def test_altered_golden_counts_as_failed():
    work = workloads.CliPanels(5, env={})
    panel, fmt = work.inputs[0]
    other_fmt = next(i for i, (p, f) in enumerate(work.inputs) if p == panel and f != fmt)
    lines = work.golden[panel].decode("utf-8").split("\n")
    lines[2] = lines[2][:-1] + "7"  # the last digit of a data row
    mutated = "\n".join(lines).encode("utf-8")
    work.golden = dict(work.golden, **{panel: mutated})
    work._golden_rows = dict(work._golden_rows, **{panel: work._parse_golden(mutated)})
    loop = worker.closed_loop(work, work.traced_op, indices=[0, other_fmt])
    assert loop.attempted == 2 and loop.failed == 2


def test_altered_reference_counts_as_failed_in_point_queries():
    work = workloads.PointQueries(5)
    k = next(i for i, (_, _, overall) in enumerate(work.expected) if overall is None)
    header, rows, overall = work.expected[k]
    altered = [list(rows[0])]
    altered[0][0] += 1e-3  # gamma_t of an eval row, v11 of a stationary one
    work.expected = list(work.expected)
    work.expected[k] = (header, altered, overall)
    loop = worker.closed_loop(work, work.op, indices=[k, k + 1])
    assert loop.attempted == 2 and loop.failed == 1


def test_altered_reference_counts_as_failed_in_sweep_refine():
    work = workloads.SweepRefine(5)
    work.inputs = list(work.inputs)
    work.inputs[1] = dict(work.inputs[1], nth1=work.inputs[1]["nth1"] + 0.01)
    loop = worker.closed_loop(work, work.op, indices=[0, 1])
    assert loop.attempted == 2 and loop.failed == 1


def test_loop_memory_stays_fixed_and_samples_stay_uniform():
    loop = worker.Loop()
    arrays = (loop.latencies, loop.cal_ratios, loop.kind, loop.ok)
    ops = 3 * worker.SAMPLE_CAPACITY + 5
    for op in range(ops):
        loop.add(float(op), 1.0, "k", True)
    assert all(a is b for a, b in zip(arrays, (loop.latencies, loop.cal_ratios,
                                                loop.kind, loop.ok)))
    assert loop.attempted == ops and loop.stride == 4
    kept = loop.latencies[:loop.n]
    assert list(kept) == [float(op) for op in range(0, ops, 4)]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "point-queries", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
