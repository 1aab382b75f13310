"""Repository benchmark: end-to-end and per-layer host-time metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload regex-snort --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload forest-pool --trace 1
    python3 perfbench/run.py --check-config

One run is one benchmark process making closed-loop passes, one after
another, through ``build_benchmark`` -> ``resolve_backend`` ->
``run_benchmark``.  Set-up builds the run's panel of workload instances
(see :mod:`workloads`), opening a backend per build.  The measured
window then runs groups of passes, rotating through the panel: each
group opens a fresh backend, makes one cold pass on it (for the process
pool that spawns new workers) and one warm pass (two with tracing, one
of them untraced), and closes it.  Every group after the first is
preceded by one more set-up sample (a rebuild and a backend open), so
``setup_s``, the median of all set-up samples, spans the window as the
pass metrics do.  Every pass is checked: its reports must equal the
sequential baseline's and its cycle payload
(``BenchmarkRun.to_dict()["cycles"]``) must equal the reference, which
is ``BENCH_seed.json`` for the seed-0 build and the instance's first
pass otherwise.

The end-to-end timings are in reference seconds: median walls scaled
by a host-speed reference timed in the same run (see ``REFERENCE_S``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a
separate run that wraps each layer's public functions
(:mod:`tracing`) and reports per-layer metrics, the unattributed
residual and the tracing overhead.  Human-readable lines go first; the
last line of standard output is the JSON result.  Any failed pass makes
the run print ``FAILED`` lines on standard error and exit with code 1.

The run writes only below this directory: bytecode goes to
``.pycache/`` and traced runs leave their spans in ``out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Before any further import: cache bytecode, as an installed package
# does, but inside the benchmark's own directory, for this process and
# the pool workers it spawns.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
os.environ["PYTHONPYCACHEPREFIX"] = str(HERE / ".pycache")
sys.dont_write_bytecode = False
sys.pycache_prefix = str(HERE / ".pycache")

from tracing import SpanRecorder, self_times  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    EXPECTED_ZERO,
    FAILURE_COUNTS,
    MODELED_BYTES,
    PASS_LAYERS,
    PER_LAYER,
    RANKS,
    SCALE,
    TRACE_BYTES,
    WORKLOADS,
    Workload,
    check_config,
)

OUT = HERE / "out"
TAIL_PERCENTILES = (99, 95, 90, 75)

#: Nominal duration of :func:`_reference_work`: about what it takes on
#: a quiet 2-vCPU Xeon virtual machine.  A shared host's speed drifts by
#: about 2x between periods of minutes (and flips within seconds), so
#: the end-to-end timings are reported in reference seconds: median wall
#: times scaled by ``REFERENCE_S / median(reference samples of the run)``.
#: A change to the program moves them; a change in host speed moves them
#: only as far as the reference fails to track it.
REFERENCE_S = 0.03


@dataclass
class Pass:
    index: int
    instance: int
    cold: bool
    traced: bool
    wall_s: float = 0.0
    ok: bool = False
    planned_flows: int = 0
    segments: int = 0
    health: dict = field(default_factory=dict)

    @property
    def pass_id(self) -> str:
        return f"pass-{self.index}"


@dataclass
class Measurement:
    workload: Workload
    setup_s: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    builds: list[str] = field(default_factory=list)
    passes: list[Pass] = field(default_factory=list)
    speedups: dict[int, float] = field(default_factory=dict)
    worker_hwm_kb: int = 0
    failures: list[str] = field(default_factory=list)


def _reference_work() -> int:
    """A fixed pure-Python set walk, independent of the program.

    Like a pass, it walks frozensets over a successor table, so it slows
    with the host much as the program does.  It allocates under 1 MB,
    so it does not raise ``peak_rss_mb``.
    """
    n = 1 << 12
    succ = [((i * 7919) % n, (i * 104729) % n) for i in range(n)]
    active = frozenset(range(0, n, 7))
    total = 0
    for step in range(200):
        reached: set[int] = set()
        for sid in active:
            reached.update(succ[sid])
        active = frozenset(s for s in reached if (s ^ step) & 3)
        total += len(active)
    return total


def _reference_sample() -> float:
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def _hwm_kb(pid: int | str) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _worker_hwm_kb() -> int:
    """Summed VmHWM of this process's live multiprocessing children."""
    import multiprocessing

    children = multiprocessing.active_children()
    return sum(_hwm_kb(child.pid) for child in children)


def _stop_processes() -> None:
    """End every process this run started, and wait for each.

    ``backend.close()`` joins the pool's workers, but a pool torn down
    without waiting (after a timeout) may leave some, and the
    ``multiprocessing`` resource tracker a spawning pool starts would
    otherwise outlive this process.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def _peak_rss_mb(measurement: Measurement) -> float:
    parent = _hwm_kb("self")
    if not parent:
        import resource

        parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (parent + measurement.worker_hwm_kb) / 1024


def _references(benchmark: str) -> dict:
    """Cycle payload of the seed-0 build, from the committed anchor."""
    anchor = json.loads((ROOT / "BENCH_seed.json").read_text())
    return anchor["benchmarks"][f"{benchmark}@r{RANKS}"]["cycles"]


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    recorder: SpanRecorder | None,
) -> Measurement:
    """Set up, then make passes until ``seconds`` of passes are spent.

    Every instance gets at least one group of passes, so the simulated
    speedup always covers the whole instance panel.
    """
    from repro.exec import resolve_backend
    from repro.sim import run_benchmark
    from repro.workloads import build_benchmark

    m = Measurement(workload)
    seed_zero_cycles = _references(workload.benchmark)
    references: dict[int, dict] = {}
    instances: list[Any] = []
    backend = None

    def open_backend() -> Any:
        return resolve_backend(workload.backend, workers=workload.workers)

    def close_backend() -> None:
        nonlocal backend
        if backend is not None:
            m.worker_hwm_kb = max(m.worker_hwm_kb, _worker_hwm_kb())
            backend.close()
            backend = None

    def one_pass(p: Pass) -> None:
        bench = instances[p.instance]
        kwargs = dict(
            ranks=RANKS,
            trace_bytes=TRACE_BYTES,
            modeled_bytes=MODELED_BYTES,
            trace_seed=seed + p.instance + 1,
            backend=backend,
        )
        m.reference_s.append(_reference_sample())
        gc.collect()
        start = time.perf_counter()
        try:
            if p.traced:
                assert recorder is not None
                run = recorder.traced(
                    p.pass_id,
                    "sim.pass",
                    run_benchmark,
                    bench,
                    extra=((bench, "trace", "workloads.trace"),),
                    **kwargs,
                )
            else:
                run = run_benchmark(bench, **kwargs)
        except Exception:  # a failed pass is counted and reported
            p.wall_s = time.perf_counter() - start
            m.failures.append(f"{p.pass_id}: {traceback.format_exc()}")
            return
        p.wall_s = time.perf_counter() - start
        # Keep only what the metrics need: holding whole runs would grow
        # the heap, and with it collection cost, pass after pass.
        p.planned_flows = sum(len(plan.flows) for plan in run.pap.plans)
        p.segments = run.pap.num_segments
        p.health = run.pap.extra["health"]
        cycles = run.to_dict()["cycles"]
        if seed + p.instance == 0:
            # The anchor predates later payload keys; it pins the ones
            # it carries.
            expected = seed_zero_cycles
            cycles = {key: cycles.get(key) for key in expected}
        else:
            expected = references.setdefault(p.instance, cycles)
        p.ok = run.reports_match and cycles == expected
        if not p.ok:
            diff = sorted(
                key
                for key in set(cycles) | set(expected)
                if cycles.get(key) != expected.get(key)
            )
            m.failures.append(f"{p.pass_id}: cycle payload differs in {diff}")
            return
        m.speedups.setdefault(p.instance, run.speedup)

    def set_up(i: int) -> Any:
        """One timed set-up sample: build instance ``i``, open a backend."""
        nonlocal backend
        build_id = f"build-{len(m.builds)}"
        build_kwargs = dict(scale=SCALE, seed=seed + i)
        m.reference_s.append(_reference_sample())
        start = time.perf_counter()
        if recorder is not None:
            bench = recorder.traced(
                build_id,
                "workloads.build",
                build_benchmark,
                workload.benchmark,
                **build_kwargs,
            )
        else:
            bench = build_benchmark(workload.benchmark, **build_kwargs)
        opened = open_backend()
        m.setup_s.append(time.perf_counter() - start)
        m.builds.append(build_id)
        if backend is None:
            backend = opened
        else:
            opened.close()
        return bench

    try:
        instances = [set_up(i) for i in range(workload.instances)]
        group_size = 3 if recorder is not None else 2
        window_start = time.perf_counter()
        group = 0
        while True:
            elapsed = time.perf_counter() - window_start
            if (
                group >= workload.instances
                and elapsed * (group + 1) / group > seconds
            ):
                break
            instance = group % workload.instances
            if backend is None:
                # A further set-up sample, taken between groups so the
                # samples span the window as the passes do.  The rebuilt
                # automaton is dropped: passes keep the panel's, so a
                # cold pass differs from a warm one by the backend only.
                set_up(instance)
            for position in range(group_size):
                p = Pass(
                    index=len(m.passes),
                    instance=instance,
                    cold=position == 0,
                    traced=recorder is not None and position != 1,
                )
                m.passes.append(p)
                one_pass(p)
            close_backend()
            group += 1
    finally:
        close_backend()
    return m


# -- metrics ---------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            return ordered[min(n - 1, math.ceil(n * pct / 100) - 1)], f"p{pct}"
    return _median(ordered), "p50 (fewer than 20 samples)"


def host_scale(m: Measurement) -> float:
    """Reference seconds per wall second on this run's host."""
    return REFERENCE_S / _median(m.reference_s)


def end_to_end(m: Measurement) -> tuple[dict[str, float], dict[str, str]]:
    warm = [p.wall_s for p in m.passes if p.ok and not p.cold]
    cold = [p.wall_s for p in m.passes if p.ok and p.cold]
    speedups = [m.speedups[i] for i in sorted(m.speedups)]
    attempted = len(m.passes)
    failed = attempted - sum(p.ok for p in m.passes)
    scale = host_scale(m)
    raw = {
        "setup_s": _median(m.setup_s),
        "pass_s": _median(warm),
        "cold_pass_s": _median(cold),
    }
    values = {
        **{name: wall * scale for name, wall in raw.items()},
        "peak_rss_mb": _peak_rss_mb(m),
        "sim_speedup": (
            math.exp(statistics.fmean(math.log(s) for s in speedups))
            if speedups
            else 0.0
        ),
        "success_rate": (attempted - failed) / attempted,
    }
    counts = {
        "setup_s": f"{len(m.setup_s)} builds + backend opens",
        "pass_s": f"{len(warm)} warm passes",
        "cold_pass_s": f"{len(cold)} passes on fresh backends",
    }
    notes = {
        name: f"median of {counts[name]}; wall {raw[name]:.4g} s"
        for name in raw
    }
    notes.update(
        {
            "peak_rss_mb": "own VmHWM + summed worker VmHWM",
            "sim_speedup": "geomean over instances: "
            + ", ".join(f"{s!r}" for s in speedups),
            "success_rate": f"error_rate {failed / attempted:g} "
            f"({failed} failed of {attempted})",
        }
    )
    return values, notes


def per_layer(
    m: Measurement, recorder: SpanRecorder
) -> tuple[dict[str, float], dict[str, str]]:
    spans = recorder.spans
    own = self_times(spans)
    by_pass: dict[str, list] = {}
    for span in spans:
        by_pass.setdefault(span.pass_id, []).append(span)

    def named(pass_id: str, name: str) -> list:
        return [s for s in by_pass.get(pass_id, []) if s.name == name]

    def total(pass_id: str, name: str) -> float:
        return sum(s.duration_ns for s in named(pass_id, name)) / 1e9

    def count(pass_id: str, name: str) -> int:
        return len(named(pass_id, name))

    def self_total(pass_id: str, predicate: Any) -> float:
        spans = by_pass.get(pass_id, [])
        return sum(own[s.id] for s in spans if predicate(s.name)) / 1e9

    builds = m.builds
    ok = [p for p in m.passes if p.ok]
    warm = [p for p in ok if p.traced and not p.cold]
    cold = [p for p in ok if p.traced and p.cold]
    untraced = [p.wall_s for p in ok if not p.traced and not p.cold]
    ids = [p.pass_id for p in warm]

    values: dict[str, float] = {}
    for name in ("workloads.build", "automata.merge", "regex.compile"):
        values[f"{name}_s"] = _median([total(b, name) for b in builds])
    values["automata.union_calls"] = _median(
        [count(b, "automata.union") for b in builds]
    )
    for name in (
        "workloads.trace", "core.processor_init", "lint.gate",
        "automata.compile", "automata.vector_tables",
        "core.plan", "core.choose_symbol", "core.enumeration_range",
        "core.partition", "core.build_units", "core.pack_flows",
        "ap.sequential", "core.compose", "exec.execute",
    ):
        values[f"{name}_s"] = _median([total(i, name) for i in ids])
    values["automata.vector_tables_builds"] = _median(
        [count(i, "automata.vector_tables") for i in ids]
    )
    values["core.enumeration_range_calls"] = _median(
        [count(i, "core.enumeration_range") for i in ids]
    )
    values["core.planned_flows"] = _median([p.planned_flows for p in warm])

    sequential = [s for i in ids for s in named(i, "ap.sequential")]
    transitions = sum(s.size or 0 for s in sequential)
    values["ap.sequential_ns_per_transition"] = (
        sum(s.duration_ns for s in sequential) / transitions
        if transitions
        else 0.0
    )
    segments = [s for i in ids for s in named(i, "core.segment")]
    segment_s = [s.duration_ns / 1e9 for s in segments]
    symbols = sum(s.size or 0 for s in segments)
    tail, tail_label = _tail(segment_s)
    values["core.segment_s_p50"] = _median(segment_s)
    values["core.segment_s_tail"] = tail
    values["core.segment_ns_per_symbol"] = (
        sum(s.duration_ns for s in segments) / symbols if symbols else 0.0
    )

    values["exec.overhead_s"] = _median(
        [self_total(i, lambda n: n == "exec.execute") for i in ids]
    )
    values["exec.cold_execute_s"] = _median(
        [total(p.pass_id, "exec.execute") for p in cold]
    )
    health = [p.health for p in ok]
    attempts = [sum(h["attempts"].values()) for h in health]
    segments_run = sum(p.segments for p in ok)
    values["exec.attempts"] = _median(attempts)
    values["exec.retries"] = sum(h["retries"] for h in health)
    values["exec.timeouts"] = sum(h["timeouts"] for h in health)
    values["exec.downgrades"] = sum(1 for h in health if h["downgraded"])
    values["exec.useful_ratio"] = (
        segments_run / sum(attempts) if sum(attempts) else 0.0
    )
    for layer in PASS_LAYERS:
        values[f"self.{layer}_s"] = _median(
            [self_total(i, lambda n: n.split(".")[0] == layer) for i in ids]
        )
    values["sim.unattributed_s"] = _median(
        [self_total(i, lambda n: n == "sim.pass") for i in ids]
    )
    traced_walls = [p.wall_s for p in warm]
    values["trace.overhead_ratio"] = (
        _median(traced_walls) / _median(untraced) if untraced else 0.0
    )

    notes = {
        "core.segment_s_tail": f"{tail_label} of {len(segment_s)} segments",
        "trace.overhead_ratio": f"traced {len(traced_walls)} / untraced "
        f"{len(untraced)} warm passes",
        "workloads.build_s": f"median of {len(builds)} traced builds",
        "core.plan_s": f"median of {len(ids)} traced warm passes",
    }
    for name, reason in EXPECTED_ZERO[m.workload.name].items():
        notes[name] = f"{reason} (reported as 0)"
    return values, notes


# -- entry point -----------------------------------------------------------


def _print_table(
    title: str, catalogue: tuple, values: dict, notes: dict
) -> None:
    print(title)
    for metric in catalogue:
        note = notes.get(metric.name, "")
        print(
            f"  {metric.name:34s} {values[metric.name]:>14.6g} "
            f"{metric.unit:6s} {note}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--check-config",
        action="store_true",
        help="validate BENCHMARK.json against this catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.check_config:
        config = json.loads((ROOT / "BENCHMARK.json").read_text())
        problems = check_config(config)
        for problem in problems:
            print(f"BENCHMARK.json: {problem}", file=sys.stderr)
        print("BENCHMARK.json ok" if not problems else "BENCHMARK.json invalid")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    # A terminated run still unwinds, so every pool it opened is closed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    recorder = SpanRecorder() if args.trace else None
    try:
        m = measure(workload, args.seed, args.seconds, recorder)
    finally:
        _stop_processes()
        if recorder is not None:
            recorder.dump(OUT / f"spans-{workload.name}-seed{args.seed}.json")

    print(
        f"{workload.name}: {workload.benchmark} on the {workload.backend} "
        f"backend, seed {args.seed}, {workload.instances} instances, "
        f"{len(m.passes)} passes"
    )
    print(
        f"  host reference: median {_median(m.reference_s) * 1e3:.2f} ms "
        f"of {len(m.reference_s)} samples; timings x {host_scale(m):.4f}"
    )
    for cold in (False, True):
        for traced in (False, True):
            walls = [
                f"{p.wall_s:.3f}"
                for p in m.passes
                if p.cold == cold and p.traced == traced
            ]
            if walls:
                kind = "cold" if cold else "warm"
                kind += " traced" if traced else ""
                print(f"  {kind} pass walls (s): {' '.join(walls)}")
    if recorder is None:
        values, notes = end_to_end(m)
        _print_table("end-to-end", END_TO_END, values, notes)
        units = {metric.name: metric.unit for metric in END_TO_END}
    else:
        values, notes = per_layer(m, recorder)
        _print_table("per-layer (traced run)", PER_LAYER, values, notes)
        units = {metric.name: metric.unit for metric in PER_LAYER}
        unexpected = sorted(
            name
            for name, value in values.items()
            if value == 0
            and name not in FAILURE_COUNTS
            and name not in EXPECTED_ZERO[workload.name]
        )
        if unexpected:
            print(f"  UNEXPECTED zero: {', '.join(unexpected)}")

    failed = sum(not p.ok for p in m.passes)
    for failure in m.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(m.passes),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
