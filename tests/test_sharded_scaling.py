"""Tests for the scale-out layer: scheduler, merge tree, schedules.

Three invariants keep the scheduler/merge rework honest:

* **Assignment is policy, output is not** -- all three schedules
  (static round-robin, balanced LPT, work stealing), on either
  executor, produce output digest-identical to the batch correlator:
  components are causally closed, so *where* one runs can never change
  *what* it produces.
* **Merge order independence** -- the gather is an associative pairwise
  merge over canonicalised parts, so ``merge_results`` (and the ranked
  latency report computed from its output) gives byte-identical results
  for any permutation of shard results -- the property that makes
  completion-order-driven gathering (and work stealing) safe at all.
* **The scheduler schedules** -- LPT packs no worse than round-robin,
  stealing drains every queue exactly once, and the cost model's
  makespan accounting adds up.
"""

from __future__ import annotations

import random

import pytest

from repro.core.correlator import Correlator
from repro.core.interning import ActivityTable
from repro.experiments.figures import _scaling_parts, _scaling_trace
from repro.pipeline import (
    BackendSpec,
    ranked_latency_report,
    result_digest,
)
from repro.stream import (
    MergeTree,
    ShardedCorrelator,
    canonical_part,
    merge_pair,
    merge_results,
    partition_components,
)
from repro.stream.scheduler import (
    SCHEDULE_KINDS,
    WorkStealingDispatcher,
    make_plan,
    plan_balanced,
    plan_static,
)
from repro.topology.library import run_scenario


# ---------------------------------------------------------------------------
# Scheduler unit tests (pure planning, no correlation)
# ---------------------------------------------------------------------------

class TestPlans:
    WEIGHTS = [100, 700, 120, 130, 50, 650]
    ORDER = list(range(6))

    def test_static_plan_is_the_round_robin_fold(self):
        plan = plan_static(self.WEIGHTS, self.ORDER, 4)
        assert plan.assignments == [[0, 4], [1, 5], [2], [3]]
        # Round-robin stacks both heavies (1 and 5) on one slot.
        assert plan.makespan() == 700 + 650

    def test_balanced_plan_is_lpt(self):
        plan = plan_balanced(self.WEIGHTS, self.ORDER, 4)
        # Heaviest first onto the lightest slot: 700 and 650 land on
        # different slots, and no slot exceeds the heaviest component.
        slot_of = {
            index: slot
            for slot, members in enumerate(plan.assignments)
            for index in members
        }
        assert slot_of[1] != slot_of[5]
        assert plan.makespan() == 700

    def test_lpt_stays_within_its_approximation_bound(self):
        # Graham's guarantee: LPT makespan <= (4/3 - 1/(3m)) * OPT, and
        # OPT >= max(heaviest component, total/m).  (LPT is not pointwise
        # better than round-robin -- RR can luck into a good packing on a
        # friendly instance -- but it can never blow the bound, while RR
        # can stack every heavy on one slot.)
        rng = random.Random(20260807)
        for _ in range(50):
            weights = [rng.randint(1, 1000) for _ in range(rng.randint(1, 12))]
            order = list(range(len(weights)))
            rng.shuffle(order)
            for slots in (1, 2, 3, 4):
                static = plan_static(weights, order, slots)
                balanced = plan_balanced(weights, order, slots)
                lower_bound = max(max(weights), sum(weights) / slots)
                assert balanced.makespan() <= (4 / 3) * lower_bound
                # Both plans assign every component exactly once.
                for plan in (static, balanced):
                    flat = sorted(i for slot in plan.assignments for i in slot)
                    assert flat == sorted(order)

    def test_make_plan_validates(self):
        with pytest.raises(ValueError):
            make_plan("round-robin", [1], [0], 1)
        with pytest.raises(ValueError):
            make_plan("static", [1], [0], 0)
        for schedule in SCHEDULE_KINDS:
            assert make_plan(schedule, [1, 2], [0, 1], 2).schedule == schedule


class TestWorkStealing:
    def test_idle_slot_steals_from_the_tail_of_the_most_loaded_queue(self):
        plan = make_plan("stealing", [10, 10, 500, 20, 30], [0, 1, 2, 3, 4], 2)
        dispatcher = WorkStealingDispatcher(plan, allow_steal=True)
        # Drain slot 0's home queue, then ask again: the next component
        # must come from the *tail* of slot 1's remaining queue.
        drained = []
        while True:
            index = dispatcher.next_component(0)
            if index is None:
                break
            drained.append(index)
            dispatcher.record(0, index, 0.0)
            if index not in plan.assignments[0]:
                victim_queue = plan.assignments[1]
                assert index == [i for i in victim_queue if i in drained][-1]
                break
        assert dispatcher.steals >= 1

    def test_every_component_runs_exactly_once_under_stealing(self):
        rng = random.Random(7)
        weights = [rng.randint(1, 100) for _ in range(20)]
        plan = make_plan("stealing", weights, list(range(20)), 4)
        dispatcher = WorkStealingDispatcher(plan, allow_steal=True)
        executed = []
        # Simulate 4 slots taking turns; slot 0 is "fast" and asks twice
        # as often, which forces steals once its home queue drains.
        slots = [0, 0, 1, 2, 3]
        progress = True
        while progress:
            progress = False
            for slot in slots:
                index = dispatcher.next_component(slot)
                if index is not None:
                    executed.append(index)
                    dispatcher.record(slot, index, weights[index] * 0.001)
                    progress = True
        assert sorted(executed) == list(range(20))
        assert dispatcher.makespan_seconds() == max(dispatcher.busy_seconds())
        assert sum(slot.activities for slot in dispatcher.slots) == sum(weights)

    def test_no_steals_when_disabled(self):
        plan = make_plan("balanced", [5, 5, 5, 5], [0, 1, 2, 3], 2)
        dispatcher = WorkStealingDispatcher(plan, allow_steal=False)
        while dispatcher.next_component(0) is not None:
            pass
        assert dispatcher.next_component(0) is None
        assert dispatcher.steals == 0


# ---------------------------------------------------------------------------
# Merge-order independence (satellite: merge_results re-ranking)
# ---------------------------------------------------------------------------

def _component_parts(window=0.010):
    """Per-component correlation results of one multi-component trace."""
    activities = run_scenario("replicated_lb", seed=7).activities()
    components = partition_components(activities)
    assert len(components) >= 3, "scenario must shard for the test to bite"
    parts = [
        Correlator(window=window).correlate(component) for component in components
    ]
    return activities, parts


class TestMergeOrderIndependence:
    def test_merge_results_is_independent_of_part_order(self):
        activities, parts = _component_parts()
        total = len(activities)
        reference = merge_results(parts, 0.010, 1.0, total)
        reference_report = ranked_latency_report(reference.cags)
        rng = random.Random(99)
        orders = [list(reversed(parts))] + [
            rng.sample(parts, len(parts)) for _ in range(5)
        ]
        for permuted in orders:
            merged = merge_results(permuted, 0.010, 1.0, total)
            assert result_digest(merged) == result_digest(reference)
            # The ranked latency report -- the paper's end product -- is
            # computed from the merged CAG list, so permutation
            # invariance of the merge makes the *report* completion-
            # order independent too.
            assert ranked_latency_report(merged.cags) == reference_report
            assert [c.begin_timestamp for c in merged.cags] == [
                c.begin_timestamp for c in reference.cags
            ]

    def test_merge_pair_is_associative_over_canonical_parts(self):
        _activities, parts = _component_parts()
        a, b, c = (canonical_part(part) for part in parts[:3])
        left = merge_pair(merge_pair(a, b), c)
        right = merge_pair(a, merge_pair(b, c))
        assert result_digest(left) == result_digest(right)
        assert left.total_activities == right.total_activities
        assert left.correlation_time == pytest.approx(right.correlation_time)

    def test_merge_tree_equals_flat_fold(self):
        _activities, parts = _component_parts()
        tree = MergeTree()
        for part in parts:
            tree.push(canonical_part(part))
        flat = canonical_part(parts[0])
        for part in parts[1:]:
            flat = merge_pair(flat, canonical_part(part))
        assert result_digest(tree.result()) == result_digest(flat)

    def test_empty_merge_produces_an_empty_result(self):
        merged = merge_results([], 0.010, 0.5, 0)
        assert merged.cags == [] and merged.incomplete_cags == []
        assert merged.correlation_time == 0.5
        assert merged.window == 0.010


# ---------------------------------------------------------------------------
# Schedules vs batch: identical output, on both executors
# ---------------------------------------------------------------------------

class TestSchedulesMatchBatch:
    def test_all_schedules_match_batch_digest(self):
        table = ActivityTable.from_activities(
            run_scenario("replicated_lb", seed=7).activities()
        )
        batch = result_digest(
            Correlator(window=0.010).correlate(table.iter_fresh())
        )
        for schedule in SCHEDULE_KINDS:
            correlator = ShardedCorrelator(
                window=0.010, max_shards=4, schedule=schedule
            )
            digest = result_digest(correlator.correlate(table.iter_fresh()))
            assert digest == batch, schedule
            assert sum(correlator.last_shard_sizes) == len(table)

    def test_process_pool_seed_sweep_matches_batch(self):
        # Completion order on a process pool is scheduler- and load-
        # dependent; sweeping seeds exercises different component shapes
        # (and with them different completion interleavings) against the
        # same merge path.
        for seed in (3, 7, 11):
            table = ActivityTable.from_activities(
                run_scenario("replicated_lb", seed=seed).activities()
            )
            batch = result_digest(
                Correlator(window=0.010).correlate(table.iter_fresh())
            )
            stolen = result_digest(
                ShardedCorrelator(
                    window=0.010,
                    max_shards=4,
                    executor="process",
                    schedule="stealing",
                ).correlate(table.iter_fresh())
            )
            assert stolen == batch, seed

    def test_balanced_spreads_what_static_stacks(self):
        # Skewed weights: under round-robin at 2 slots, components 0 and
        # 2 (the heavies) can share a slot; LPT must not let the largest
        # slot exceed static's.
        table = ActivityTable.from_activities(
            run_scenario("replicated_lb", seed=7).activities()
        )
        static = ShardedCorrelator(window=0.010, max_shards=2, schedule="static")
        static.correlate(table.iter_fresh())
        balanced = ShardedCorrelator(
            window=0.010, max_shards=2, schedule="balanced"
        )
        balanced.correlate(table.iter_fresh())
        assert max(balanced.last_shard_sizes) <= max(static.last_shard_sizes)
        assert balanced.last_plan is not None
        assert balanced.last_plan.makespan() == max(balanced.last_shard_sizes)

    def test_backend_spec_wires_the_schedule_through(self):
        spec = BackendSpec.sharded(max_shards=4, schedule="stealing")
        assert "schedule=stealing" in spec.describe()
        with pytest.raises(ValueError):
            BackendSpec.sharded(schedule="round-robin")
        with pytest.raises(ValueError):
            ShardedCorrelator(schedule="round-robin")


# ---------------------------------------------------------------------------
# The scale-out figure's composite trace
# ---------------------------------------------------------------------------


class TestScalingComposite:
    def test_parts_have_disjoint_hosts(self):
        # replicated_lb and rubis both run a host named "db"; merged
        # unrenamed, two machines would share one node.
        hosts = [{a.context.hostname for a in part} for part in _scaling_parts()]
        assert sum(map(len, hosts)) == len(set().union(*hosts))

    def test_batch_digest_equals_sharded_digest(self):
        table = _scaling_trace()
        batch = result_digest(Correlator(window=0.010).correlate(table.iter_fresh()))
        sharded = ShardedCorrelator(window=0.010, max_shards=4, schedule="stealing")
        assert result_digest(sharded.correlate(table.iter_fresh())) == batch
