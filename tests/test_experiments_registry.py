"""Tests for the scheduler registry (repro.experiments.registry)."""

import pytest

from repro.baselines.base import SchedulerCapabilities
from repro.baselines.fifo import FIFOScheduler
from repro.core.ones_scheduler import ONESScheduler
from repro.core.partitioned import HierarchicalONESScheduler
from repro.experiments import registry
from repro.experiments.registry import (
    UnknownSchedulerError,
    available_schedulers,
    capabilities_table,
    create_scheduler,
    paper_schedulers,
    register_scheduler,
    resolve,
)

DUMMY_CAPS = SchedulerCapabilities(
    strategy="greedy",
    allows_preemption=False,
    elastic_job_size=False,
    elastic_batch_size=False,
)


@pytest.fixture
def scratch_registration(monkeypatch):
    """Register into copies of the registry that the test's end restores."""
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    monkeypatch.setattr(registry, "_LOOKUP", dict(registry._LOOKUP))
    return lambda name: name


class TestBuiltins:
    def test_all_schedulers_registered(self):
        assert set(available_schedulers()) == {
            "ONES", "ONES-hier", "DRL", "Tiresias", "Optimus", "Gandiva",
            "FIFO", "SRTF",
        }

    def test_paper_schedulers_are_the_fig15_four(self):
        assert paper_schedulers() == ("ONES", "DRL", "Tiresias", "Optimus")

    def test_lookup_is_case_insensitive(self):
        assert resolve("ones").name == "ONES"
        assert resolve("TIRESIAS").name == "Tiresias"

    def test_alias_lookup(self):
        assert resolve("srtf-oracle").name == "SRTF"

    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownSchedulerError) as excinfo:
            resolve("SLAQ")
        assert "ONES" in str(excinfo.value)

    def test_create_scheduler_fresh_instances(self):
        a = create_scheduler("FIFO", 1)
        b = create_scheduler("FIFO", 1)
        assert isinstance(a, FIFOScheduler)
        assert a is not b

    def test_create_ones_with_options(self):
        scheduler = create_scheduler("ONES", 3, population_size=4, mutation_rate=0.5)
        assert isinstance(scheduler, ONESScheduler)
        assert scheduler.config.evolution.population_size == 4
        assert scheduler.config.evolution.mutation_rate == 0.5

    def test_create_ones_hier_options(self):
        # perfbench's hier-faults-256 passes parallel_workers=0; shards
        # evolve in-process, so no other worker count is accepted, and
        # the shard size is the only shard-count knob.
        scheduler = create_scheduler("ONES-hier", 2021, partition_size=8, parallel_workers=0)
        assert isinstance(scheduler, HierarchicalONESScheduler)
        assert scheduler.config.partition_size == 8
        with pytest.raises(ValueError, match="in-process"):
            create_scheduler("ONES-hier", 2021, partition_size=8, parallel_workers=2)
        with pytest.raises(TypeError):
            create_scheduler("ONES-hier", 2021, partitions=2)

    @pytest.mark.parametrize(
        "name", ["ONES", "ONES-hier", "DRL", "Tiresias", "Optimus", "Gandiva", "FIFO", "SRTF"]
    )
    def test_registry_row_is_the_created_schedulers_row(self, name):
        scheduler = create_scheduler(name, 0)
        assert resolve(name).capabilities.as_row() == scheduler.capabilities.as_row()

    def test_capabilities_table_matches_table3(self):
        rows = {row["Scheduler"]: row for row in capabilities_table()}
        assert rows["ONES"]["Greedy/Dynamic Strategy"] == "Dynamic"
        assert rows["ONES"]["Elastic Batch Size"] == "Y"
        assert rows["Tiresias"]["Allow Preemption"] == "Y"
        assert rows["FIFO"]["Elastic Job Size"] == "N"


class TestRegistrationRoundTrip:
    def test_register_lookup_capabilities_row(self, scratch_registration):
        name = scratch_registration("TestPolicy")

        @register_scheduler(name, capabilities=DUMMY_CAPS, description="a test policy")
        def make(seed):
            return FIFOScheduler()

        entry = resolve("testpolicy")
        assert entry.name == name
        assert entry.description == "a test policy"
        assert entry.as_row()["Scheduler"] == name
        assert entry.as_row()["Greedy/Dynamic Strategy"] == "Greedy"
        assert isinstance(create_scheduler(name, 1), FIFOScheduler)
        assert name in available_schedulers()
        assert name not in paper_schedulers()

    def test_duplicate_registration_rejected(self, scratch_registration):
        name = scratch_registration("Duped")
        register_scheduler(name, capabilities=DUMMY_CAPS)(lambda seed: FIFOScheduler())
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler(name, capabilities=DUMMY_CAPS)(lambda seed: FIFOScheduler())
        # ... including via an alias colliding with an existing name.
        other = scratch_registration("Other")
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler(other, capabilities=DUMMY_CAPS, aliases=("duped",))(
                lambda seed: FIFOScheduler()
            )

    def test_replace_allows_override(self, scratch_registration):
        name = scratch_registration("Replaceable")
        register_scheduler(name, capabilities=DUMMY_CAPS)(lambda seed: FIFOScheduler())
        marker = []
        register_scheduler(name, capabilities=DUMMY_CAPS, replace=True)(
            lambda seed: (marker.append(seed), FIFOScheduler())[1]
        )
        create_scheduler(name, 5)
        assert marker == [5]

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_scheduler("  ", capabilities=DUMMY_CAPS)

    def test_registry_state_is_consistent(self):
        # Every lookup key resolves to a registered canonical entry.
        for key, canonical in registry._LOOKUP.items():
            assert canonical in registry._REGISTRY
            assert resolve(key).name == canonical
