"""Run-level results and aggregate metrics for PAP executions."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.automata.execution import Report
from repro.core.composition import ComposedSegment
from repro.core.ranges import PartitionSymbolChoice
from repro.core.scheduler import SegmentPlan, SegmentResult


@dataclass(frozen=True)
class PAPRunResult:
    """Everything produced by one Parallel Automata Processor run."""

    reports: frozenset[Report]
    plans: tuple[SegmentPlan, ...]
    segment_results: tuple[SegmentResult, ...]
    composed: tuple[ComposedSegment, ...]
    partition_choice: PartitionSymbolChoice | None
    truth_times: tuple[int, ...]
    """Cumulative wall-clock cycles at which each segment's true results
    became available (the ``T_M`` chain of Section 3.4)."""
    tcpu_cycles: tuple[int, ...]
    """Per-segment host decode cost (Figure 11's quantity)."""
    enumeration_cycles: int
    """End-to-end cycles of the enumerated execution path."""
    golden_cycles: int
    """Cycles the golden (sequential-fallback) execution would take."""
    svc_overflow: bool
    input_bytes: int = 0
    extra: dict = field(default_factory=dict)

    # -- headline numbers ----------------------------------------------------

    @property
    def total_cycles(self) -> int:
        """PAP completion time: the enumerated path, bounded by the
        golden execution (Section 5.1 — never worse than sequential)."""
        return min(self.enumeration_cycles, self.golden_cycles)

    @property
    def golden_fallback(self) -> bool:
        """True when the golden execution finished first."""
        return self.golden_cycles < self.enumeration_cycles

    @property
    def num_segments(self) -> int:
        return len(self.plans)

    @property
    def health(self) -> dict:
        """Recovery record for this run (``extra["health"]``): attempt
        counts, retries, timeouts, crashes, injected faults, and any
        serial downgrade.  Empty when the run predates health tracking."""
        return self.extra.get("health", {})

    @property
    def phases(self) -> dict:
        """Phase-attribution summary (``extra["phases"]``): per-phase
        cycle totals that provably sum to the run's totals, plus wall
        phases when a tracer recorded the run — see
        :mod:`repro.obs.phases`.  Empty when the run predates phase
        accounting."""
        return self.extra.get("phases", {})

    # -- aggregates across segments ----------------------------------------

    @property
    def raw_events(self) -> int:
        return sum(r.metrics.raw_events for r in self.segment_results)

    @property
    def true_events(self) -> int:
        return sum(c.true_events for c in self.composed)

    @property
    def event_amplification(self) -> float:
        """Output-report increase due to false paths (Figure 12).

        Edge cases: with zero true events the ratio is undefined — zero
        raw events means *no* amplification (exactly ``1.0``, e.g. an
        empty input or a matchless trace), while raw events with no true
        ones report the raw count itself (every event was a false-path
        artifact).
        """
        if self.true_events == 0:
            if self.raw_events == 0:
                return 1.0
            return float(self.raw_events)
        return self.raw_events / self.true_events

    @property
    def transitions(self) -> int:
        return sum(r.metrics.transitions for r in self.segment_results)

    @property
    def average_active_flows(self) -> float:
        """Mean live flows per TDM step across enumerated segments
        (Figure 9's 'Avg. active flows')."""
        samples = [
            sample
            for result in self.segment_results
            if not result.plan.is_golden
            for sample in result.metrics.active_flow_samples
        ]
        if not samples:
            return 0.0
        return sum(samples) / len(samples)

    @property
    def switching_overhead(self) -> float:
        """Context-switch cycles over total segment cycles (Figure 10)."""
        switch = sum(
            r.metrics.context_switch_cycles for r in self.segment_results
        )
        total = sum(r.metrics.finish_cycles for r in self.segment_results)
        if total == 0:
            return 0.0
        return switch / total

    @property
    def convergence_check_cycles(self) -> int:
        """Cycles charged for in-line convergence comparisons across all
        segments (zero under the default overlapped-checks timing)."""
        return sum(
            r.metrics.convergence_check_cycles for r in self.segment_results
        )

    @property
    def average_tcpu(self) -> float:
        """Mean per-segment false-path decode cost (Figure 11)."""
        if not self.tcpu_cycles:
            return 0.0
        return sum(self.tcpu_cycles) / len(self.tcpu_cycles)

    @property
    def deactivations(self) -> int:
        return sum(r.metrics.deactivations for r in self.segment_results)

    @property
    def convergence_merges(self) -> int:
        return sum(r.metrics.convergence_merges for r in self.segment_results)

    @property
    def fiv_invalidations(self) -> int:
        return sum(r.metrics.fiv_invalidations for r in self.segment_results)

    def transitions_per_symbol(self) -> float:
        """Mean state activations per input symbol (the Section 5.3
        dynamic-energy proxy; the paper reports 2.4x the baseline's)."""
        if self.input_bytes == 0:
            return 0.0
        return self.transitions / self.input_bytes
