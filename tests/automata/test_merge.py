"""``merge_all`` and variadic ``Automaton.union`` against the pairwise fold.

``_fold_union`` is the previous ``Automaton.union``: copy the left side,
then append the right side's states and edges one call at a time.
Folding it over the parts is quadratic but plainly right, so it is the
oracle for the one-copy merge.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workloads
from repro.automata import builder
from repro.automata.anml import Automaton
from repro.automata.random_gen import random_automaton, random_ruleset_automaton
from repro.workloads import BENCHMARK_NAMES, build_benchmark


def _fold_union(
    left: Automaton, right: Automaton, name: str | None = None
) -> Automaton:
    out = left.copy(name=name or f"{left.name}+{right.name}")
    offset = len(left)
    for ste in right.states():
        out.add_state(
            ste.label,
            start=ste.start,
            reporting=ste.reporting,
            report_code=ste.report_code,
            name=ste.name,
        )
    for src, dst in right.edges():
        out.add_edge(src + offset, dst + offset)
    return out


def _fold_merge(automata, name: str = "union") -> Automaton:
    result = Automaton(name=name)
    for automaton in automata:
        result = _fold_union(result, automaton, name=name)
    return result


def _snapshot(automaton: Automaton):
    """Name, version, every Ste (sid, label, start kind, reporting,
    report_code, name) and every successor tuple in order."""
    return (
        automaton.name,
        automaton.version,
        list(automaton.states()),
        [automaton.successors(sid) for sid in range(len(automaton))],
    )


def _part(kind: str, seed: int) -> Automaton:
    if kind == "random":
        return random_automaton(seed, num_states=1 + seed % 9)
    return random_ruleset_automaton(
        seed, num_patterns=1 + seed % 4, shared_hub=seed % 2 == 0
    )


parts_strategy = st.lists(
    st.tuples(st.sampled_from(["random", "ruleset"]), st.integers(0, 10_000)),
    max_size=6,
)


class TestMergeMatchesFold:
    @settings(max_examples=60, deadline=None)
    @given(specs=parts_strategy, name=st.sampled_from(["union", "Suite", ""]))
    def test_merge_all_equals_fold(self, specs, name):
        parts = [_part(kind, seed) for kind, seed in specs]
        merged = builder.merge_all(parts, name=name)
        assert _snapshot(merged) == _snapshot(_fold_merge(parts, name=name))
        assert merged.version == merged.num_states + merged.num_edges

    @settings(max_examples=40, deadline=None)
    @given(specs=parts_strategy.filter(bool))
    def test_variadic_union_equals_fold(self, specs):
        first, *rest = [_part(kind, seed) for kind, seed in specs]
        expected = first
        for other in rest:
            expected = _fold_union(expected, other)
        merged = first.union(*rest)
        assert _snapshot(merged) == _snapshot(expected)
        assert merged.name == "+".join(a.name for a in (first, *rest))

    @settings(max_examples=30, deadline=None)
    @given(specs=parts_strategy.filter(bool))
    def test_result_shares_no_mutable_state(self, specs):
        parts = [_part(kind, seed) for kind, seed in specs]
        inputs = [_snapshot(part) for part in parts]
        merged = builder.merge_all(parts)
        last = len(merged) - 1
        for sid in range(len(merged)):
            merged.add_edge(sid, last)
            merged.add_edge(last, sid)
        merged.add_state(parts[0].state(0).label)
        assert [_snapshot(part) for part in parts] == inputs

        result = _snapshot(merged)
        for part in parts:
            part.add_edge(0, len(part) - 1)
            part.add_state(part.state(0).label)
        assert _snapshot(merged) == result


class TestUnionEdgeCases:
    def test_self_union(self):
        automaton = random_ruleset_automaton(3, num_patterns=3)
        assert _snapshot(automaton.union(automaton)) == _snapshot(
            _fold_union(automaton, automaton)
        )

    def test_empty_union_is_an_independent_copy(self):
        automaton = random_automaton(5)
        copy = automaton.union()
        assert _snapshot(copy) == _snapshot(automaton.copy())
        copy.add_edge(0, 0)
        copy.add_state(automaton.state(0).label)
        assert _snapshot(automaton) == _snapshot(automaton.copy())
        assert automaton.num_states == copy.num_states - 1

    def test_explicit_name_wins(self):
        left, right = random_automaton(1), random_automaton(2)
        assert left.union(right, name="both").name == "both"
        assert left.union(right).name == f"{left.name}+{right.name}"

    def test_merge_nothing_is_empty(self):
        merged = builder.merge_all([])
        assert merged.num_states == 0
        assert merged.num_edges == 0
        assert merged.version == 0
        assert merged.name == "union"

    def test_merge_accepts_a_generator(self):
        parts = [random_automaton(seed) for seed in range(4)]
        merged = builder.merge_all(part for part in parts)
        assert _snapshot(merged) == _snapshot(_fold_merge(parts))


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_suite_workload_merge_equals_fold(name, monkeypatch):
    """Every generator's ``merge_all`` call gives what the fold gives."""
    real = builder.merge_all

    def checked(automata, name="union"):
        parts = list(automata)
        merged = real(parts, name=name)
        assert _snapshot(merged) == _snapshot(_fold_merge(parts, name=name))
        return merged

    for info in pkgutil.iter_modules(repro.workloads.__path__):
        module = importlib.import_module(f"repro.workloads.{info.name}")
        if getattr(module, "merge_all", None) is real:
            monkeypatch.setattr(module, "merge_all", checked)
    build_benchmark(name, scale=0.05, seed=0)
