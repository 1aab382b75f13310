"""Workload and metric catalogue of the repository benchmark.

Every workload runs one evaluation benchmark at the parameters behind
``BENCH_seed.json`` (scale 0.1, a 64 KiB trace modelled as the paper's
1 MB input, one rank) through the same public entry points as
``repro run`` and ``repro bench run``: ``build_benchmark``,
``resolve_backend`` and ``run_benchmark``.

A run at seed ``s`` builds a panel of ``Workload.instances`` workload
instances, the ``i``-th from build seed ``s + i`` with trace seed
``s + i + 1``, and rotates its passes over them.  Generated rule sets
differ from seed to seed (Snort's simulated speedup alone moves between
about 1.2 and 1.65, its pass time by about 30%), so one instance per run
would make every figure a property of that one seed; a panel of
consecutive seeds keeps run-to-run figures comparable.  Instance 0 of
seed 0 is exactly the ``BENCH_seed.json`` configuration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

SCALE = 0.1
TRACE_BYTES = 65_536
MODELED_BYTES = 1_048_576
RANKS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str
    backend: str
    workers: int | None
    instances: int
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "regex-snort",
            "Snort",
            "serial",
            None,
            9,
            "Snort rules, serial set walk: pass split between trace "
            "generation and partition-symbol choice, latched-heavy set "
            "walk; setup is regex compile",
        ),
        Workload(
            "dna-vector",
            "Levenshtein",
            "vector",
            None,
            3,
            "Levenshtein on the vector backend: transition-bound, the "
            "sequential baseline dominates; build, trace and plan are "
            "negligible",
        ),
        Workload(
            "forest-pool",
            "RandomForest",
            "process",
            2,
            4,
            "RandomForest on a 2-worker process pool: setup is merge_all, "
            "the pass is pool dispatch; the only workload that runs "
            "ProcessPoolBackend",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


#: Reported with ``--trace 0``.  ``bound`` lives in BENCHMARK.json.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower"),
    Metric("pass_s", "s", "lower"),
    Metric("cold_pass_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("sim_speedup", "ratio", "higher"),
    Metric("success_rate", "ratio", "higher"),
)

#: Layers whose pass-time self time is reported as ``self.<layer>_s``.
PASS_LAYERS = ("workloads", "automata", "lint", "core", "ap", "exec")

#: Reported with ``--trace 1``.
PER_LAYER: tuple[Metric, ...] = (
    Metric("workloads.build_s", "s", "lower"),
    Metric("automata.merge_s", "s", "lower"),
    Metric("automata.union_calls", "count", "lower"),
    Metric("regex.compile_s", "s", "lower"),
    Metric("workloads.trace_s", "s", "lower"),
    Metric("core.processor_init_s", "s", "lower"),
    Metric("lint.gate_s", "s", "lower"),
    Metric("automata.compile_s", "s", "lower"),
    Metric("automata.vector_tables_s", "s", "lower"),
    Metric("automata.vector_tables_builds", "count", "lower"),
    Metric("core.plan_s", "s", "lower"),
    Metric("core.choose_symbol_s", "s", "lower"),
    Metric("core.enumeration_range_s", "s", "lower"),
    Metric("core.enumeration_range_calls", "count", "lower"),
    Metric("core.partition_s", "s", "lower"),
    Metric("core.build_units_s", "s", "lower"),
    Metric("core.pack_flows_s", "s", "lower"),
    Metric("core.planned_flows", "count", "lower"),
    Metric("ap.sequential_s", "s", "lower"),
    Metric("ap.sequential_ns_per_transition", "ns", "lower"),
    Metric("core.segment_s_p50", "s", "lower"),
    Metric("core.segment_s_tail", "s", "lower"),
    Metric("core.segment_ns_per_symbol", "ns", "lower"),
    Metric("core.compose_s", "s", "lower"),
    Metric("exec.execute_s", "s", "lower"),
    Metric("exec.overhead_s", "s", "lower"),
    Metric("exec.cold_execute_s", "s", "lower"),
    Metric("exec.attempts", "count", "lower"),
    Metric("exec.retries", "count", "lower"),
    Metric("exec.timeouts", "count", "lower"),
    Metric("exec.downgrades", "count", "lower"),
    Metric("exec.useful_ratio", "ratio", "higher"),
    *(Metric(f"self.{layer}_s", "s", "lower") for layer in PASS_LAYERS),
    Metric("sim.unattributed_s", "s", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)

#: Per-layer metrics that count failures: zero on a clean run is the
#: measured value, not a missing probe.
FAILURE_COUNTS = frozenset(
    {"exec.retries", "exec.timeouts", "exec.downgrades"}
)

#: Metrics measured only where ``SegmentScheduler.run_segment`` runs in
#: the benchmark's own process; on the process pool it runs in workers.
IN_PROCESS_ONLY = frozenset(
    {"core.segment_s_p50", "core.segment_s_tail", "core.segment_ns_per_symbol"}
)

_NO_REGEX = "the automaton is generated without the regex compiler"
_NO_VECTOR = "the set walk builds no vector tables"

#: Per-layer metrics that read zero on a workload, and why.  Every other
#: per-layer metric (failure counts aside) is non-zero on every workload.
EXPECTED_ZERO: dict[str, dict[str, str]] = {
    "regex-snort": {
        "automata.vector_tables_s": _NO_VECTOR,
        "automata.vector_tables_builds": _NO_VECTOR,
    },
    "dna-vector": {"regex.compile_s": _NO_REGEX},
    "forest-pool": {
        "regex.compile_s": _NO_REGEX,
        "automata.vector_tables_s": _NO_VECTOR,
        "automata.vector_tables_builds": _NO_VECTOR,
        "core.planned_flows": "the partition symbol (record separator) has "
        "an empty enumeration range; only the always-active group runs",
        **{
            name: "not visible: run_segment executes in pool workers"
            for name in IN_PROCESS_ONLY
        },
    },
}

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
LIMITS = {"workloads": 8, "end_to_end": 16, "per_layer": 128}


def check_config(config: dict) -> list[str]:
    """Problems with a parsed ``BENCHMARK.json`` (empty when it is valid).

    Checks the name and unit grammar, the count limits, and that the
    workload and metric lists are exactly the ones run.py emits.
    """
    problems: list[str] = []
    names: list[str] = []
    for section, limit in LIMITS.items():
        entries = config.get(section, [])
        if not 1 <= len(entries) <= limit:
            problems.append(f"{section}: {len(entries)} entries, limit {limit}")
        for entry in entries:
            names.append(entry.get("name", ""))
            if "unit" in entry and not UNIT_RE.fullmatch(entry["unit"]):
                problems.append(f"{entry['name']}: bad unit {entry['unit']!r}")
    for name in names:
        if not NAME_RE.fullmatch(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    expected = {
        "workloads": [(w.name, w.why) for w in WORKLOADS.values()],
        "end_to_end": [(m.name, m.unit, m.better) for m in END_TO_END],
        "per_layer": [(m.name, m.unit, m.better) for m in PER_LAYER],
    }
    actual = {
        "workloads": [
            (e.get("name"), e.get("why")) for e in config.get("workloads", [])
        ],
        **{
            section: [
                (e.get("name"), e.get("unit"), e.get("better"))
                for e in config.get(section, [])
            ]
            for section in ("end_to_end", "per_layer")
        },
    }
    for section, rows in expected.items():
        if rows != actual[section]:
            problems.append(f"{section} differs from the catalogue in workloads.py")
    bounds = {e.get("name"): e.get("bound", 0) for e in config.get("end_to_end", [])}
    if any(not 0 < bound <= 0.25 for bound in bounds.values()):
        problems.append("an end-to-end bound is outside (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values(), default=None):
        problems.append("setup_s must carry the largest bound")
    return problems
