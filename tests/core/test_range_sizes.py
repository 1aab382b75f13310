"""Mask-based enumeration ranges against the per-state loop they replace.

``_oracle_range`` is the previous ``enumeration_range``: walk the states,
keep the enterable ones whose label holds the symbol, and drop excluded
states and parentless states that are not all-input starts (unless the
boundary sits at offset zero and the state is a start-of-data start).
It reads only the automaton, never the analysis caches.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.analysis import AutomatonAnalysis
from repro.automata.anml import Automaton, StartKind
from repro.automata.random_gen import random_automaton, random_ruleset_automaton
from repro.core.ranges import (
    PartitionSymbolChoice,
    choose_partition_symbol,
    enumeration_range,
    enumeration_range_sizes,
)
from repro.errors import AutomatonError


def _oracle_range(
    automaton: Automaton,
    symbol: int,
    *,
    exclude: frozenset[int] = frozenset(),
    boundary_at_offset_zero: bool = False,
) -> frozenset[int]:
    enterable = set(automaton.start_states())
    enterable.update(dst for _, dst in automaton.edges())
    all_input = frozenset(automaton.all_input_states())
    start_of_data = frozenset(automaton.start_of_data_states())
    result = set()
    for sid in sorted(enterable):
        if symbol not in automaton.state(sid).label or sid in exclude:
            continue
        if not automaton.predecessors(sid):
            persistently = sid in all_input
            at_zero = boundary_at_offset_zero and sid in start_of_data
            if not (persistently or at_zero):
                continue
        result.add(sid)
    return frozenset(result)


def _oracle_choice(
    automaton: Automaton,
    data: bytes,
    *,
    num_segments: int,
    exclude: frozenset[int] = frozenset(),
) -> PartitionSymbolChoice:
    counts = Counter(data)
    needed = max(1, num_segments - 1)
    best = None
    for symbol, occurrences in counts.items():
        if occurrences < needed:
            continue
        size = len(_oracle_range(automaton, symbol, exclude=exclude))
        if (
            best is None
            or size < best.range_size
            or (size == best.range_size and occurrences > best.occurrences)
        ):
            best = PartitionSymbolChoice(symbol, size, occurrences)
    if best is None:
        symbol, occurrences = counts.most_common(1)[0]
        size = len(_oracle_range(automaton, symbol, exclude=exclude))
        best = PartitionSymbolChoice(symbol, size, occurrences)
    return best


def _automaton(kind: str, seed: int) -> Automaton:
    if kind == "random":
        return random_automaton(seed, num_states=1 + seed % 16)
    return random_ruleset_automaton(
        seed, num_patterns=1 + seed % 6, shared_hub=seed % 2 == 0
    )


def _exclude(automaton: Automaton, rng: random.Random) -> frozenset[int]:
    return frozenset(
        sid for sid in range(len(automaton)) if rng.random() < 0.3
    )


automata = st.tuples(
    st.sampled_from(["random", "ruleset"]), st.integers(0, 10_000)
)


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(spec=automata, exclude_seed=st.integers(0, 10_000))
    def test_sizes_match_oracle_for_every_symbol(self, spec, exclude_seed):
        automaton = _automaton(*spec)
        analysis = AutomatonAnalysis(automaton)
        for exclude in (
            frozenset(),
            _exclude(automaton, random.Random(exclude_seed)),
            analysis.path_independent_states(),
        ):
            sizes = enumeration_range_sizes(analysis, exclude=exclude)
            assert sizes.shape == (256,)
            assert sizes.tolist() == [
                len(_oracle_range(automaton, symbol, exclude=exclude))
                for symbol in range(256)
            ]

    @settings(max_examples=60, deadline=None)
    @given(
        spec=automata,
        exclude_seed=st.integers(0, 10_000),
        at_zero=st.booleans(),
    )
    def test_enumeration_range_matches_oracle(self, spec, exclude_seed, at_zero):
        automaton = _automaton(*spec)
        analysis = AutomatonAnalysis(automaton)
        exclude = _exclude(automaton, random.Random(exclude_seed))
        for symbol in range(256):
            got = enumeration_range(
                analysis,
                symbol,
                exclude=exclude,
                boundary_at_offset_zero=at_zero,
            )
            assert type(got) is frozenset
            assert got == _oracle_range(
                automaton,
                symbol,
                exclude=exclude,
                boundary_at_offset_zero=at_zero,
            )

    @settings(max_examples=60, deadline=None)
    @given(
        spec=automata,
        data=st.binary(min_size=1, max_size=64)
        | st.lists(st.sampled_from(b"abcdefxyz"), min_size=1, max_size=200).map(
            bytes
        ),
        num_segments=st.integers(1, 80),
        use_exclude=st.booleans(),
    )
    def test_choice_matches_oracle(self, spec, data, num_segments, use_exclude):
        automaton = _automaton(*spec)
        analysis = AutomatonAnalysis(automaton)
        exclude = (
            analysis.path_independent_states() if use_exclude else frozenset()
        )
        assert choose_partition_symbol(
            analysis, data, num_segments=num_segments, exclude=exclude
        ) == _oracle_choice(
            automaton, data, num_segments=num_segments, exclude=exclude
        )

    @settings(max_examples=40, deadline=None)
    @given(spec=automata)
    def test_figure3_sizes_and_enterable_states(self, spec):
        automaton = _automaton(*spec)
        analysis = AutomatonAnalysis(automaton)
        enterable = set(automaton.start_states())
        enterable.update(dst for _, dst in automaton.edges())
        assert analysis.enterable_states() == frozenset(enterable)
        assert analysis.range_sizes().tolist() == [
            sum(1 for sid in enterable if symbol in automaton.state(sid).label)
            for symbol in range(256)
        ]


class TestChoicePaths:
    @pytest.fixture
    def automaton(self):
        """Labels are subsets of a-d or full, so x, y and z tie on size."""
        return random_automaton(7, num_states=10, edge_probability=0.4)

    def test_tie_on_size_goes_to_the_more_frequent_symbol(self, automaton):
        analysis = AutomatonAnalysis(automaton)
        data = b"xyyzzz" * 4
        choice = choose_partition_symbol(analysis, data, num_segments=2)
        assert choice == _oracle_choice(automaton, data, num_segments=2)
        assert choice.symbol == ord("z")

    def test_full_tie_keeps_first_seen_symbol(self, automaton):
        analysis = AutomatonAnalysis(automaton)
        data = b"yxzxyz"
        choice = choose_partition_symbol(analysis, data, num_segments=2)
        assert choice == _oracle_choice(automaton, data, num_segments=2)
        assert choice.symbol == ord("y")

    def test_fallback_reports_the_range_of_the_most_frequent(self, automaton):
        analysis = AutomatonAnalysis(automaton)
        data = b"abcaad"
        choice = choose_partition_symbol(analysis, data, num_segments=64)
        assert choice == _oracle_choice(automaton, data, num_segments=64)
        assert choice.symbol == ord("a")
        assert choice.range_size == len(_oracle_range(automaton, ord("a")))


class TestCaching:
    def test_masks_are_read_only(self):
        analysis = AutomatonAnalysis(random_ruleset_automaton(1))
        with pytest.raises(ValueError):
            analysis.enterable_mask()[0] = False
        with pytest.raises(ValueError):
            analysis.boundary_mask()[0] = False

    def test_exclude_does_not_leak_into_the_cache(self):
        automaton = random_ruleset_automaton(2)
        analysis = AutomatonAnalysis(automaton)
        everything = frozenset(range(len(automaton)))
        assert not enumeration_range_sizes(analysis, exclude=everything).any()
        assert enumeration_range_sizes(analysis).tolist() == [
            len(_oracle_range(automaton, symbol)) for symbol in range(256)
        ]

    def test_mutation_invalidates(self):
        automaton = random_ruleset_automaton(3)
        analysis = AutomatonAnalysis(automaton)
        enumeration_range_sizes(analysis)
        automaton.add_state(automaton.state(0).label, start=StartKind.ALL_INPUT)
        with pytest.raises(AutomatonError):
            enumeration_range(analysis, ord("a"))
        with pytest.raises(AutomatonError):
            enumeration_range_sizes(analysis)
