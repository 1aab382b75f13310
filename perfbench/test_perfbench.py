"""Checks of the benchmark's own machinery: config, probes, per-layer metrics.

Run from the repository root (under a minute; not part of the tier-1
suite, whose ``testpaths`` is ``tests``)::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracing import SpanRecorder  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED_ZERO,
    FAILURE_COUNTS,
    PER_LAYER,
    WORKLOADS,
    check_config,
)


def test_benchmark_json_matches_the_catalogue() -> None:
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert check_config(config) == []


def test_probes_patch_every_caller_binding_and_restore() -> None:
    import repro.core.pap as pap
    import repro.core.ranges as ranges
    import repro.exec.backend as backend
    import repro.lint.registry as registry
    import repro.sim.runner as runner
    from repro.core.scheduler import SegmentScheduler

    bindings = [
        (pap, "choose_partition_symbol"),
        (pap, "partition_input"),
        (pap, "enumeration_range"),
        (pap, "build_units"),
        (pap, "pack_flows"),
        (ranges, "enumeration_range"),
        (registry, "enumeration_range"),
        (backend, "compose_segment"),
        (runner, "run_sequential"),
    ]
    before = {(m.__name__, a): getattr(m, a) for m, a in bindings}
    run_segment = SegmentScheduler.run_segment
    recorder = SpanRecorder()
    recorder.install("probe")
    try:
        for module, attr in bindings:
            assert getattr(module, attr).__wrapped__ is before[
                (module.__name__, attr)
            ]
        assert SegmentScheduler.run_segment.__wrapped__ is run_segment
    finally:
        recorder.uninstall()
    for module, attr in bindings:
        assert getattr(module, attr) is before[(module.__name__, attr)]
    assert SegmentScheduler.run_segment is run_segment


def test_traced_pass_matches_untraced() -> None:
    from repro.sim import run_benchmark
    from repro.workloads import build_benchmark

    bench = build_benchmark("Snort", scale=0.1, seed=0)
    kwargs = dict(trace_bytes=65_536, modeled_bytes=1_048_576, trace_seed=1)
    plain = run_benchmark(bench, **kwargs)
    recorder = SpanRecorder()
    traced = recorder.traced(
        "pass",
        "sim.pass",
        run_benchmark,
        bench,
        extra=((bench, "trace", "workloads.trace"),),
        **kwargs,
    )
    assert traced.to_dict()["cycles"] == plain.to_dict()["cycles"]
    assert traced.pap.reports == plain.pap.reports
    names = {span.name for span in recorder.spans}
    assert {"sim.pass", "workloads.trace", "core.plan", "core.segment"} <= names
    assert not hasattr(bench.trace, "__wrapped__")  # instance probe removed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_layer_metric_is_measured(name: str) -> None:
    workload = dataclasses.replace(WORKLOADS[name], instances=1)
    recorder = SpanRecorder()
    m = run.measure(workload, seed=0, seconds=0, recorder=recorder)
    assert m.failures == [] and all(p.ok for p in m.passes)
    values, _ = run.per_layer(m, recorder)
    assert set(values) == {metric.name for metric in PER_LAYER}
    zero = EXPECTED_ZERO[name]
    for metric, value in values.items():
        if metric in FAILURE_COUNTS:
            assert value == 0, metric
        elif metric in zero:
            assert value == 0, f"{metric} measured on {name}: {zero[metric]}"
        else:
            assert value > 0, f"{metric} reads zero on {name}"


def test_a_pool_run_leaves_no_process_behind() -> None:
    done = subprocess.Popen(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "forest-pool",
            "--seed", "0", "--seconds", "1", "--trace", "0",
        ],
        cwd=run.ROOT,
        start_new_session=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    out, _ = done.communicate(timeout=180)
    assert done.returncode == 0
    assert json.loads(out.strip().splitlines()[-1])["correct"]

    def in_session(pid: str) -> bool:
        try:
            return os.getsid(int(pid)) == done.pid
        except ProcessLookupError:
            return False

    left = [pid for pid in os.listdir("/proc") if pid.isdigit() and in_session(pid)]
    assert left == []
