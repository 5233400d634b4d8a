"""Fault plans, profiles and configs: validation, round-trips, determinism.

The fault subsystem's reproducibility contract is the load-bearing part:
the same :class:`FaultConfig` must yield a bit-identical
:class:`FaultPlan` in any process, under any ``PYTHONHASHSEED`` — that
is what makes a faulted experiment cell a pure function of its spec.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster.events import Event, EventKind, EventQueue
from repro.faults.config import FaultConfig
from repro.faults.plan import FaultInjection, FaultKind, FaultPlan, Outage, assemble_plan
from repro.faults.profiles import UnknownFaultProfileError, available_profiles, profile_table

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestFaultInjection:
    def test_round_trip(self):
        injection = FaultInjection(12.5, FaultKind.GPU_DEGRADED, 3, factor=0.5)
        assert FaultInjection.from_dict(injection.to_dict()) == injection

    def test_kind_coercion_from_string(self):
        injection = FaultInjection(1.0, "node_down", 0)
        assert injection.kind is FaultKind.NODE_DOWN

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FaultInjection(-1.0, FaultKind.NODE_DOWN, 0)
        with pytest.raises(ValueError):
            FaultInjection(0.0, FaultKind.NODE_DOWN, -1)
        with pytest.raises(ValueError):
            FaultInjection(0.0, FaultKind.GPU_DEGRADED, 0, factor=0.0)
        with pytest.raises(ValueError):
            FaultInjection(0.0, FaultKind.GPU_DEGRADED, 0, factor=1.5)


class TestFaultPlan:
    def _plan(self):
        return FaultPlan(
            (
                FaultInjection(100.0, FaultKind.NODE_DOWN, 1),
                FaultInjection(400.0, FaultKind.NODE_UP, 1),
                FaultInjection(50.0, FaultKind.GPU_DEGRADED, 0, factor=0.5),
            )
        )

    def test_canonical_time_ordering(self):
        plan = self._plan()
        assert [inj.time for inj in plan] == [50.0, 100.0, 400.0]

    def test_same_instant_down_before_up(self):
        plan = FaultPlan(
            (
                FaultInjection(10.0, FaultKind.NODE_UP, 0),
                FaultInjection(10.0, FaultKind.NODE_DOWN, 1),
            )
        )
        assert [inj.kind for inj in plan] == [FaultKind.NODE_DOWN, FaultKind.NODE_UP]

    def test_json_round_trip_and_key(self):
        plan = self._plan()
        restored = FaultPlan.from_json(json.dumps(plan.to_dict()))
        assert restored == plan
        assert restored.plan_key() == plan.plan_key()
        assert FaultPlan().plan_key() != plan.plan_key()

    def test_save_load(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(self._plan().to_dict()))
        assert FaultPlan.load(path) == self._plan()

    def test_counts(self):
        counts = self._plan().counts()
        assert counts == {"node_down": 1, "node_up": 1, "gpu_degraded": 1}

    def test_validate_rejects_out_of_range_node(self):
        with pytest.raises(ValueError, match="outside the cluster"):
            self._plan().validate(num_nodes=1)

    def test_validate_rejects_double_down(self):
        plan = FaultPlan(
            (
                FaultInjection(1.0, FaultKind.NODE_DOWN, 0),
                FaultInjection(2.0, FaultKind.NODE_DOWN, 0),
            )
        )
        with pytest.raises(ValueError, match="already down"):
            plan.validate(num_nodes=4)

    def test_validate_rejects_orphan_up(self):
        plan = FaultPlan((FaultInjection(1.0, FaultKind.NODE_UP, 0),))
        with pytest.raises(ValueError, match="without being down"):
            plan.validate(num_nodes=4)

    def test_validate_rejects_blackout(self):
        plan = FaultPlan(
            (
                FaultInjection(1.0, FaultKind.NODE_DOWN, 0),
                FaultInjection(2.0, FaultKind.NODE_DOWN, 1),
            )
        )
        with pytest.raises(ValueError, match="every node"):
            plan.validate(num_nodes=2)
        plan.validate(num_nodes=3)  # one survivor: fine


class TestAssemblePlan:
    def test_pairs_downs_with_ups(self):
        plan = assemble_plan(
            [Outage(0, 10.0, 20.0), Outage(1, 30.0, 45.0)], num_nodes=4
        )
        assert plan.counts() == {"node_down": 2, "node_up": 2, "gpu_degraded": 0}
        plan.validate(4)

    def test_capacity_floor_drops_excess_overlap(self):
        # Three overlapping outages on a 4-node cluster with a 50% cap:
        # only two may be down at once, the third outage is dropped.
        outages = [Outage(n, 10.0, 100.0) for n in range(3)]
        plan = assemble_plan(outages, num_nodes=4, max_down_fraction=0.5)
        assert plan.counts()["node_down"] == 2

    def test_always_leaves_one_node(self):
        outages = [Outage(n, 10.0, 100.0) for n in range(2)]
        plan = assemble_plan(outages, num_nodes=2, max_down_fraction=1.0)
        assert plan.counts()["node_down"] == 1

    def test_touching_handoff_counts_as_overlap(self):
        # NODE_DOWN sorts before NODE_UP at the same instant, so an
        # outage starting exactly when another ends transiently overlaps
        # it; admitting both on a 2-node cluster would be a blackout.
        outages = [Outage(0, 10.0, 100.0), Outage(1, 100.0, 200.0)]
        plan = assemble_plan(outages, num_nodes=2, max_down_fraction=0.5)
        assert plan.counts()["node_down"] == 1
        plan.validate(2)


class TestProfiles:
    HORIZON = 6 * 3600.0

    @pytest.mark.parametrize("profile", sorted(available_profiles()))
    def test_profiles_generate_valid_plans(self, profile):
        config = FaultConfig(profile=profile, seed=7, mtbf_hours=0.5, repair_minutes=10)
        plan = config.build_plan(num_nodes=4, horizon=self.HORIZON)
        plan.validate(4)
        assert len(plan) > 0

    @pytest.mark.parametrize("profile", sorted(available_profiles()))
    def test_same_seed_same_plan(self, profile):
        config = FaultConfig(profile=profile, seed=11, mtbf_hours=0.5, repair_minutes=10)
        first = config.build_plan(4, self.HORIZON)
        second = config.build_plan(4, self.HORIZON)
        assert first == second
        assert first.plan_key() == second.plan_key()

    def test_different_seeds_differ(self):
        base = FaultConfig(profile="mtbf", seed=1, mtbf_hours=0.5, repair_minutes=10)
        other = replace(base, seed=2)
        assert base.build_plan(4, self.HORIZON) != other.build_plan(4, self.HORIZON)

    def test_stragglers_only_degrade(self):
        config = FaultConfig(profile="stragglers", seed=3, mtbf_hours=0.5)
        counts = config.build_plan(4, self.HORIZON).counts()
        assert counts["node_down"] == 0 and counts["node_up"] == 0
        assert counts["gpu_degraded"] > 0

    def test_maintenance_rolls_through_a_two_node_cluster(self):
        # Regression: a drain window as long as the interval used to
        # produce touching hand-offs, which the blackout validation
        # rejected on 2-node clusters.  The window is clamped below the
        # interval, so the rotation keeps rolling.
        config = FaultConfig(
            profile="maintenance",
            seed=7,
            maintenance_interval_hours=6.0,
            repair_minutes=360.0,
        )
        plan = config.build_plan(num_nodes=2, horizon=48 * 3600.0)
        plan.validate(2)
        assert plan.counts()["node_down"] >= 4

    def test_unknown_profile_raises(self):
        with pytest.raises(UnknownFaultProfileError):
            FaultConfig(profile="volcano").build_plan(4, self.HORIZON)

    def test_profile_table_lists_all(self):
        rows = profile_table()
        assert {row["profile"] for row in rows} == set(available_profiles())
        assert all(row["description"] for row in rows)


class TestFaultConfig:
    def test_disabled_detection(self):
        assert not FaultConfig().enabled
        assert not FaultConfig(profile="none").enabled
        assert FaultConfig(profile="mtbf").enabled
        assert FaultConfig(
            injections=(FaultInjection(1.0, FaultKind.NODE_DOWN, 0),)
        ).enabled

    def test_round_trip(self):
        config = FaultConfig(
            profile="rack",
            seed=9,
            rack_size=3,
            injections=(
                FaultInjection(5.0, FaultKind.NODE_DOWN, 1),
                FaultInjection(50.0, FaultKind.NODE_UP, 1),
            ),
        )
        assert FaultConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_explicit_injections_override_profile(self):
        config = FaultConfig(
            profile="mtbf",
            injections=(
                FaultInjection(5.0, FaultKind.NODE_DOWN, 1),
                FaultInjection(50.0, FaultKind.NODE_UP, 1),
            ),
        )
        plan = config.build_plan(4, 3600.0)
        assert len(plan) == 2

    def test_from_plan_file(self, tmp_path):
        plan = FaultPlan(
            (
                FaultInjection(5.0, FaultKind.NODE_DOWN, 0),
                FaultInjection(50.0, FaultKind.NODE_UP, 0),
            )
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        config = FaultConfig.from_plan_file(path)
        assert config.enabled
        assert config.build_plan(2, 3600.0) == plan

    def test_config_key_changes_with_content(self):
        assert (
            FaultConfig(profile="mtbf", seed=1).config_key()
            != FaultConfig(profile="mtbf", seed=2).config_key()
        )

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(mtbf_hours=0.0)
        with pytest.raises(ValueError):
            FaultConfig(degrade_factor=0.0)
        with pytest.raises(ValueError):
            FaultConfig(max_down_fraction=1.5)
        with pytest.raises(ValueError):
            FaultConfig(lost_work_fraction=-0.1)


_PLAN_SNIPPET = """
import json
from repro.faults.config import FaultConfig
config = FaultConfig(profile={profile!r}, seed=13, mtbf_hours=0.5, repair_minutes=10)
plan = config.build_plan(8, 4 * 3600.0)
print(json.dumps(plan.to_dict(), sort_keys=True))
"""


class TestCrossProcessDeterminism:
    """Same config -> byte-identical plan regardless of PYTHONHASHSEED."""

    def _generate(self, profile: str, hash_seed: str) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
        result = subprocess.run(
            [sys.executable, "-c", _PLAN_SNIPPET.format(profile=profile)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return result.stdout

    @pytest.mark.parametrize("profile", ["mtbf", "rack"])
    def test_plan_identical_across_hash_seeds(self, profile):
        assert self._generate(profile, "0") == self._generate(profile, "31337")

    def test_in_process_matches_subprocess(self):
        config = FaultConfig(profile="mtbf", seed=13, mtbf_hours=0.5, repair_minutes=10)
        local = json.dumps(config.build_plan(8, 4 * 3600.0).to_dict(), sort_keys=True)
        assert self._generate("mtbf", "7").strip() == local


class TestEventQueueTieBreaks:
    """Deterministic ordering across the expanded EventKind enum."""

    def test_fault_kinds_appended_after_historical_kinds(self):
        # Appending (not renumbering) is what keeps every pre-fault
        # same-timestamp ordering — and hence every pinned trajectory —
        # bit-identical.
        assert [k.value for k in EventKind] == list(range(8))
        assert EventKind.TIMER < EventKind.NODE_DOWN
        assert EventKind.NODE_DOWN < EventKind.NODE_UP < EventKind.GPU_DEGRADED

    def test_same_timestamp_priority_order(self):
        queue = EventQueue()
        kinds = [
            EventKind.GPU_DEGRADED,
            EventKind.NODE_UP,
            EventKind.TIMER,
            EventKind.NODE_DOWN,
            EventKind.EPOCH_END,
            EventKind.JOB_ARRIVAL,
            EventKind.JOB_COMPLETION,
            EventKind.RECONFIG_DONE,
        ]
        for kind in kinds:
            queue.push(Event(time=42.0, kind=kind))
        popped = [queue.pop().kind for _ in range(len(kinds))]
        assert popped == sorted(kinds, key=int)

    def test_insertion_order_breaks_equal_kind_ties(self):
        queue = EventQueue()
        first = Event(time=1.0, kind=EventKind.NODE_DOWN, payload="first")
        second = Event(time=1.0, kind=EventKind.NODE_DOWN, payload="second")
        queue.push(first)
        queue.push(second)
        assert queue.pop().payload == "first"
        assert queue.pop().payload == "second"

    def test_fault_before_timer_ordering_is_stable(self):
        # A NODE_DOWN and a TIMER at the same instant: the timer fires
        # first (lower tie-break value), so interval schedulers observe
        # the pre-fault cluster one last time — pinned here so a future
        # renumbering cannot silently flip it.
        queue = EventQueue()
        queue.push(Event(time=5.0, kind=EventKind.NODE_DOWN))
        queue.push(Event(time=5.0, kind=EventKind.TIMER))
        assert queue.pop().kind is EventKind.TIMER
