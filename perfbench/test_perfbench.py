"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

Not part of the library's test suite (its ``testpaths`` is ``tests``): they
check the benchmark's own arithmetic, that a smoke run of every workload
emits every metric of ``BENCHMARK.json`` with its unit, and that tracing
leaves effkit as it found it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

run.prepare()

import tracing  # noqa: E402
from effkit.model import model_plan  # noqa: E402
import workloads as wk  # noqa: E402
from tracing import END, PARENT, START, Tracer  # noqa: E402

ROOT = run.HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent, step=0):
    return [name, None, start, end, parent, step, 1]


def test_self_time_of_nested_spans():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("child", 1.0, 4.0, 0),
        _span("grandchild", 2.0, 3.0, 1),
        _span("child", 5.0, 6.5, 0),
        _span("other root", 11.0, 12.0, None),
    ]
    assert tracing.self_times(spans) == [5.5, 2.0, 1.0, 1.5, 1.0]
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] is None)
    assert math.isclose(sum(tracing.self_times(spans)), roots)


def test_tail_keeps_ten_samples_beyond():
    value, pct = tracing.tail(list(range(100)))
    assert (value, pct) == (89, 90.0)
    assert sum(v > value for v in range(100)) == 10
    assert tracing.tail([3.0, 1.0]) == (3.0, 100.0)


def test_traced_run_restores_every_patch_and_accounts_for_the_step(tmp_path):
    targets = tracing.targets()
    before = {(owner, attr): vars(owner)[attr] for owner, attr in targets}
    with Tracer() as tracer:
        assert all(vars(o)[a] is not before[(o, a)] for o, a in targets)
        ep = wk.run_episode(wk.WORKLOADS["tiny_train"], 0, tmp_path, None, tracer, short=True)
    assert all(vars(o)[a] is before[(o, a)] for o, a in targets)
    assert not ep.failures

    metrics, rows = tracing.layer_metrics([ep.trace], wk.ModelConfig.tiny(), 32)
    steps = metrics["train.traced_steps"]
    accounted = sum(metrics[k] for k in tracing.STEP_TIME_METRICS)
    accounted += metrics["train.ema_ms"] / steps + metrics["trace.unattributed_ms"]
    assert math.isclose(accounted, metrics["trace.step_ms"], rel_tol=1e-9)
    plan = {e.name for e in model_plan(wk.ModelConfig.tiny(), 32)}
    assert plan <= {row["layer"] for row in rows}


def test_patches_are_restored_when_the_traced_code_raises():
    targets = tracing.targets()
    before = {(owner, attr): vars(owner)[attr] for owner, attr in targets}
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert all(vars(o)[a] is before[(o, a)] for o, a in targets)


def test_anchor_gate_passes_rounding_and_fails_a_change():
    wl = wk.WORKLOADS["b0g16_train"]
    ref = {"relative_tolerance": 1e-5, wl.name: {"final_loss": 0.2, "eval_loss": 0.03}}
    ep = wk.Episode(0.0, 0.0, 0.0, [], [], 0, final_loss=0.2 * (1 + 1e-12), eval_loss=0.03)
    assert wk.anchor_failures(wl, ep, ref) == []
    ep.eval_loss = 0.03 * (1 + 2e-5)
    assert len(wk.anchor_failures(wl, ep, ref)) == 1
    ep.final_loss = math.nan
    assert len(wk.anchor_failures(wl, ep, ref)) == 2
    stored = wk.reference()
    assert all(set(wk.ANCHOR_LOSSES) <= set(stored[name]) for name in wk.WORKLOADS)


def _result_line(args, cwd):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(wk.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload):
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        args = ["--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--smoke"]
        line = _result_line(args, ROOT)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[table]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(math.isfinite(v["value"]) for v in line["metrics"].values())


def test_benchmark_json_lists_known_workloads():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == [name for name in wk.WORKLOADS if name in listed]


def test_exits_nonzero_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny_train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
