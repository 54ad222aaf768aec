import random

import pytest
from hypothesis import given, settings, strategies as st

from suitesearch.archive import Archive, ScoredTest, _worst_key
from suitesearch.core import EmptyArchiveError, TestCase


def vec(k, h):
    """Heuristics that are zero everywhere except target k."""
    return {k: h} if h > 0.0 else {}


def stored(archive, k):
    return [e.test.inputs for e in archive.populations[k].entries]


class TestSaveRules:
    def test_admission_into_empty_population(self):
        archive = Archive(1)
        archive.populations[0].counter = 3
        archive.save(TestCase(0, (1,)), vec(0, 0.4), capacity=10)
        assert stored(archive, 0) == [(1,)]
        assert archive.populations[0].counter == 0

    def test_zero_heuristic_never_admitted(self):
        archive = Archive(2)
        archive.populations[0].counter = 3
        archive.save(TestCase(0, (1,)), {1: 0.3}, capacity=10)
        assert not archive.populations[0].entries
        assert archive.populations[0].counter == 3
        assert stored(archive, 1) == [(1,)]

    def test_covering_test_shrinks_population_for_good(self):
        archive = Archive(1)
        for x in range(5):
            archive.save(TestCase(0, (x,)), vec(0, 0.1 * (x + 1)), capacity=10)
        assert len(archive.populations[0].entries) == 5
        assert archive.covered_targets() == []
        archive.save(TestCase(0, (99,)), vec(0, 1.0), capacity=10)
        pop = archive.populations[0]
        assert pop.covered
        assert archive.covered_targets() == [0]
        assert stored(archive, 0) == [(99,)]
        assert archive.covered_count == 1

    def test_covered_equal_size_needs_strictly_better_coverage_sum(self):
        archive = Archive(2)
        archive.save(TestCase(0, (1,)), {0: 1.0, 1: 0.2}, capacity=10)
        archive.save(TestCase(0, (2,)), {0: 1.0, 1: 0.2}, capacity=10)
        assert stored(archive, 0) == [(1,)]
        archive.save(TestCase(0, (3,)), {0: 1.0, 1: 0.9}, capacity=10)
        assert stored(archive, 0) == [(3,)]

    def test_full_population_tie_replaces_worst_without_reset(self):
        archive = Archive(1)
        archive.save(TestCase(0, (1,)), vec(0, 0.5), capacity=2)
        archive.save(TestCase(0, (2,)), vec(0, 0.7), capacity=2)
        archive.populations[0].counter = 7
        candidate = TestCase(0, (3,))
        archive.save(candidate, vec(0, 0.5), capacity=2)
        assert archive.populations[0].counter == 7
        assert set(stored(archive, 0)) == {(2,), (3,)}

    def test_full_population_rejects_strictly_worse(self):
        archive = Archive(1)
        archive.save(TestCase(0, (1,)), vec(0, 0.5), capacity=1)
        archive.populations[0].counter = 4
        archive.save(TestCase(0, (2,)), vec(0, 0.4), capacity=1)
        assert stored(archive, 0) == [(1,)]
        assert archive.populations[0].counter == 4

    def test_strict_improvement_resets_counter(self):
        archive = Archive(1)
        archive.save(TestCase(0, (1,)), vec(0, 0.5), capacity=1)
        archive.populations[0].counter = 4
        archive.save(TestCase(0, (2,)), vec(0, 0.6), capacity=1)
        assert stored(archive, 0) == [(2,)]
        assert archive.populations[0].counter == 0

    def test_one_save_feeds_many_populations(self):
        archive = Archive(3)
        h = {0: 0.2, 2: 1.0}
        archive.save(TestCase(1, (5,)), h, capacity=10)
        assert [stored(archive, k) for k in range(3)] == [[(5,)], [], [(5,)]]
        assert archive.covered_targets() == [2]


class TestSampling:
    def _populated(self, counters):
        archive = Archive(len(counters))
        for k, c in enumerate(counters):
            archive.save(TestCase(k, (k,)), vec(k, 0.5), capacity=10)
            archive.populations[k].counter = c
        return archive

    def test_fds_picks_lowest_counter_and_increments(self):
        archive = self._populated([3, 0, 7])
        test = archive.sample_with_target(random.Random(1))[1]
        assert test.id == 1
        assert [p.counter for p in archive.populations] == [3, 1, 7]

    def test_fds_breaks_ties_among_minima(self):
        seen = {
            self._populated([0, 5, 0]).sample_with_target(random.Random(s))[0]
            for s in range(40)
        }
        assert seen == {0, 2}

    def test_single_population_sampled(self):
        archive = Archive(3)
        archive.save(TestCase(2, (9,)), vec(2, 0.3), capacity=10)
        assert archive.sample_with_target(random.Random(0))[1].id == 2

    def test_uniform_sampling_when_fds_disabled(self):
        seen = {
            self._populated([5, 0]).sample_with_target(random.Random(s), fds=False)[0]
            for s in range(40)
        }
        assert seen == {0, 1}
        # FDS never picks the stale target.
        seen_fds = {
            self._populated([5, 0]).sample_with_target(random.Random(s))[0]
            for s in range(10)
        }
        assert seen_fds == {1}

    def test_all_covered_fallback_leaves_counters_alone(self):
        archive = Archive(2)
        archive.save(TestCase(0, (1,)), vec(0, 1.0), capacity=10)
        archive.save(TestCase(1, (2,)), vec(1, 1.0), capacity=10)
        before = [p.counter for p in archive.populations]
        ids = {archive.sample_with_target(random.Random(s))[1].id for s in range(20)}
        assert ids == {0, 1}
        assert [p.counter for p in archive.populations] == before

    def test_empty_archive_raises(self):
        with pytest.raises(EmptyArchiveError):
            Archive(2).sample_with_target(random.Random(0))


class TestShrinkAndExtract:
    def test_shrink_drops_lowest_h(self):
        archive = Archive(1)
        for x, h in enumerate([0.9, 0.5, 0.7]):
            archive.save(TestCase(0, (x,)), vec(0, h), capacity=10)
        archive.shrink_to(2)
        kept = sorted(e.h for e in archive.populations[0].entries)
        assert kept == [0.7, 0.9]

    def test_shrink_tie_drops_oldest(self):
        archive = Archive(1)
        archive.save(TestCase(0, (1,)), vec(0, 0.5), capacity=10)
        archive.save(TestCase(0, (2,)), vec(0, 0.5), capacity=10)
        archive.shrink_to(1)
        assert archive.populations[0].entries[0].test.inputs == (2,)

    def test_shrink_leaves_covered_and_small_populations(self):
        archive = Archive(2)
        archive.save(TestCase(0, (1,)), vec(0, 1.0), capacity=10)
        archive.save(TestCase(1, (2,)), vec(1, 0.4), capacity=10)
        archive.save(TestCase(1, (3,)), vec(1, 0.6), capacity=10)
        archive.shrink_to(5)
        assert len(archive.populations[1].entries) == 2
        archive.shrink_to(1)
        assert len(archive.populations[0].entries) == 1
        assert len(archive.populations[1].entries) == 1

    def test_extract_empty(self):
        assert Archive(3).extract_suite() == []

    def test_extract_deduplicates_shared_test(self):
        archive = Archive(6)
        shared = TestCase(0, (7,))
        archive.save(shared, {2: 1.0, 5: 1.0}, capacity=10)
        suite = archive.extract_suite()
        assert suite == [shared]

    def test_extract_one_test_per_covered_target(self):
        archive = Archive(3)
        for k in range(3):
            archive.save(TestCase(k, (k,)), vec(k, 1.0), capacity=10)
        assert len(archive.extract_suite()) == 3

    def test_uncovered_targets_contribute_nothing(self):
        archive = Archive(2)
        archive.save(TestCase(0, (1,)), vec(0, 0.9), capacity=10)
        assert archive.extract_suite() == []


# Property-style checks over random operation sequences.

save_op = st.tuples(
    st.integers(0, 3),                      # target
    st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75, 1.0]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(save_op, max_size=60), st.integers(1, 5))
def test_archive_invariants_hold_under_any_save_sequence(ops, capacity):
    archive = Archive(4)
    covered_seen = set()
    for i, (k, h) in enumerate(ops):
        archive.save(TestCase(k, (i,)), vec(k, h), capacity=capacity)
        total = 0
        for j, pop in enumerate(archive.populations):
            if j in covered_seen:
                assert pop.covered, "covered population can never become uncovered"
            if pop.covered:
                covered_seen.add(j)
                assert len(pop.entries) == 1
                assert pop.entries[0].h == 1.0
            else:
                assert len(pop.entries) <= capacity
            for entry in pop.entries:
                assert entry.h > 0.0, "zero-heuristic tests must never be stored"
            total += len(pop.entries)
        assert total <= capacity * 4
        assert archive.is_empty() == (total == 0)
        assert archive.covered_count == sum(p.covered for p in archive.populations)


# A full-population save offers heuristics that tie on h, with the capacity
# changing between calls; shrink_to interleaves, one call in three.
full_save_op = st.tuples(
    st.just("save"),
    st.dictionaries(st.integers(0, 2), st.sampled_from([0.25, 0.5, 0.75]), min_size=1).map(
        lambda hs: dict(sorted(hs.items()))  # ascending targets, as evaluate returns them
    ),
    st.integers(1, 3),                      # capacity
)
shrink_op = st.tuples(st.just("shrink"), st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(full_save_op, full_save_op, shrink_op), max_size=80))
def test_full_population_victim_matches_min_worst_key_model(ops):
    # The model rescans every population on every save; the archive may not.
    archive = Archive(3)
    model = [[], [], []]
    seq = 0
    for i, op in enumerate(ops):
        if op[0] == "shrink":
            archive.shrink_to(op[1])
            for entries in model:
                if len(entries) > op[1]:
                    entries.sort(key=_worst_key)
                    del entries[: len(entries) - op[1]]
        else:
            _, hs, capacity = op
            test = TestCase(0, (i,))
            archive.save(test, hs, capacity=capacity)
            for k, h in hs.items():
                entries = model[k]
                if len(entries) < capacity:
                    seq += 1
                    entries.append(ScoredTest(test, h, 0.0, seq))
                    continue
                victim = min(entries, key=_worst_key)
                if h >= victim.h:
                    seq += 1
                    entries[entries.index(victim)] = ScoredTest(test, h, 0.0, seq)
        for pop, entries in zip(archive.populations, model):
            assert [(e.test, e.h, e.seq) for e in pop.entries] == [
                (e.test, e.h, e.seq) for e in entries
            ]


def test_stagnant_target_counter_never_resets():
    # One improving target and one stuck at a constant heuristic: the stuck
    # counter is non-decreasing, so sampling starves it.
    archive = Archive(2)
    rng = random.Random(0)
    archive.save(TestCase(0, (0,)), vec(0, 0.5), capacity=1)
    archive.save(TestCase(1, (0,)), vec(1, 0.5), capacity=1)
    best = 0.5
    stuck_history = []
    for step in range(1, 200):
        archive.sample_with_target(rng)
        stuck_history.append(archive.populations[1].counter)
        if step % 10 == 0:
            best = min(1.0 - 1e-9, best + 0.002)  # improvement script for target 0
            archive.save(TestCase(0, (step,)), vec(0, best), capacity=1)
    assert all(b >= a for a, b in zip(stuck_history, stuck_history[1:]))
    # Improving target keeps getting resets, so it is sampled at least as often.
    assert archive.populations[1].counter >= archive.populations[0].counter


def test_resaving_resident_best_never_degrades_population():
    archive = Archive(1)
    best = TestCase(0, (1,))
    archive.save(best, vec(0, 0.8), capacity=2)
    archive.save(TestCase(0, (2,)), vec(0, 0.8), capacity=2)
    for _ in range(5):
        archive.save(best, vec(0, 0.8), capacity=2)
        assert max(e.h for e in archive.populations[0].entries) == 0.8
        assert len(archive.populations[0].entries) == 2
