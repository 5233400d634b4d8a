"""Scheduler registry: string names -> factories + capabilities.

Every scheduler that can take part in an experiment registers itself
here under a canonical name (``"ONES"``, ``"Tiresias"``, ...), together
with its Table-3 :class:`~repro.baselines.base.SchedulerCapabilities`
row and a factory.  The registry is what makes experiments *declarative*:
a :class:`~repro.experiments.spec.RunSpec` references its scheduler by
name (a plain string that serializes to JSON and crosses process
boundaries), and whichever worker executes the cell resolves the name
back to a fresh scheduler instance via :func:`create_scheduler`.

Factories take the run seed plus optional keyword *options* (e.g.
``population_size`` for ONES, ``time_quantum`` for Gandiva) so scaled-down
test grids and ablations can be expressed in a spec without code.

Registering a new scheduler::

    @register_scheduler(
        "MyPolicy",
        capabilities=MyScheduler.capabilities,
        description="one-line summary for the CLI listing",
    )
    def _make_my_policy(seed, **options):
        return MyScheduler(seed=seed, **options)

Lookups are case-insensitive and accept aliases; unknown names raise
:class:`UnknownSchedulerError` listing what is available.

The built-in factories import their scheduler's module when they are
called, and register the row of
:data:`~repro.baselines.base.CAPABILITIES`: listing the registry or
creating FIFO loads neither ONES's search and predictor nor scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.baselines.base import CAPABILITIES, SchedulerBase, SchedulerCapabilities

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.drl import DRLScheduler
    from repro.baselines.fifo import FIFOScheduler
    from repro.baselines.gandiva import GandivaScheduler
    from repro.baselines.optimus import OptimusScheduler
    from repro.baselines.srtf import SRTFScheduler
    from repro.baselines.tiresias import TiresiasScheduler
    from repro.core.evolution import EvolutionConfig
    from repro.core.ones_scheduler import ONESConfig, ONESScheduler
    from repro.core.partitioned import HierarchicalConfig, HierarchicalONESScheduler

#: Factory signature: ``(seed, **options) -> SchedulerBase``.
SchedulerFactory = Callable[..., SchedulerBase]


class UnknownSchedulerError(KeyError):
    """Raised when a scheduler name does not resolve to a registry entry."""

    def __init__(self, name: str, available: Tuple[str, ...]) -> None:
        super().__init__(
            f"unknown scheduler {name!r}; available: {', '.join(available)}"
        )
        self.name = name
        self.available = available

    def __str__(self) -> str:  # KeyError quotes its repr by default
        return self.args[0]


@dataclass(frozen=True)
class SchedulerEntry:
    """One registered scheduler: name, factory and Table-3 capabilities."""

    name: str
    factory: SchedulerFactory
    capabilities: SchedulerCapabilities
    description: str = ""
    aliases: Tuple[str, ...] = ()
    #: Part of the paper's four-way Fig. 15 / Table 4 comparison.
    paper_baseline: bool = False

    def create(self, seed: int, **options) -> SchedulerBase:
        """Instantiate a fresh scheduler for one run."""
        return self.factory(seed, **options)

    def as_row(self) -> Dict[str, str]:
        """Scheduler name plus its Table-3 capability row (for listings)."""
        row: Dict[str, str] = {"Scheduler": self.name}
        row.update(self.capabilities.as_row())
        return row


_REGISTRY: Dict[str, SchedulerEntry] = {}
#: lowercase name/alias -> canonical name
_LOOKUP: Dict[str, str] = {}


def register_scheduler(
    name: str,
    *,
    capabilities: SchedulerCapabilities,
    description: str = "",
    aliases: Tuple[str, ...] = (),
    paper_baseline: bool = False,
    replace: bool = False,
) -> Callable[[SchedulerFactory], SchedulerFactory]:
    """Decorator registering a factory under ``name`` (and ``aliases``).

    The decorated callable must accept ``(seed, **options)`` and return a
    fresh :class:`~repro.baselines.base.SchedulerBase`.  Re-registering a
    taken name (or alias) raises unless ``replace=True``.
    """
    if not name or not name.strip():
        raise ValueError("scheduler name must be a non-empty string")

    def decorator(factory: SchedulerFactory) -> SchedulerFactory:
        entry = SchedulerEntry(
            name=name,
            factory=factory,
            capabilities=capabilities,
            description=description,
            aliases=tuple(aliases),
            paper_baseline=paper_baseline,
        )
        keys = [name.lower()] + [alias.lower() for alias in entry.aliases]
        if not replace:
            for key in keys:
                if key in _LOOKUP:
                    raise ValueError(
                        f"scheduler name/alias {key!r} is already registered "
                        f"(to {_LOOKUP[key]!r}); pass replace=True to override"
                    )
        _REGISTRY[name] = entry
        for key in keys:
            _LOOKUP[key] = name
        return factory

    return decorator


def unregister_scheduler(name: str) -> None:
    """Remove a registered scheduler (and its aliases) by name or alias.

    Accepts the same case-insensitive names/aliases as every other
    lookup.  Mostly useful for tests and interactive experimentation;
    the built-in schedulers are registered at import time and normally
    stay put.
    """
    canonical = _LOOKUP.get(str(name).lower())
    if canonical is None:
        raise UnknownSchedulerError(str(name), available_schedulers())
    entry = _REGISTRY.pop(canonical)
    for key in [entry.name.lower()] + [alias.lower() for alias in entry.aliases]:
        _LOOKUP.pop(key, None)


def resolve(name: str) -> SchedulerEntry:
    """Look up a registry entry by canonical name or alias (case-insensitive)."""
    canonical = _LOOKUP.get(str(name).lower())
    if canonical is None:
        raise UnknownSchedulerError(str(name), available_schedulers())
    return _REGISTRY[canonical]


def is_registered(name: str) -> bool:
    """Whether ``name`` resolves to a registered scheduler."""
    return str(name).lower() in _LOOKUP


def create_scheduler(name: str, seed: int, **options) -> SchedulerBase:
    """Instantiate a fresh scheduler by registry name."""
    return resolve(name).create(seed, **options)


def available_schedulers() -> Tuple[str, ...]:
    """Canonical names of every registered scheduler, in registration order."""
    return tuple(_REGISTRY)


def paper_schedulers() -> Tuple[str, ...]:
    """The schedulers of the paper's main comparison (Fig. 15 / Table 4)."""
    return tuple(name for name, entry in _REGISTRY.items() if entry.paper_baseline)


def capabilities_table() -> List[Dict[str, str]]:
    """Table-3 capability rows for every registered scheduler."""
    return [entry.as_row() for entry in _REGISTRY.values()]


# --- built-in registrations --------------------------------------------------------------
#
# ONES and the three paper baselines are flagged ``paper_baseline`` (the
# Fig. 15 four-way comparison); FIFO/SRTF/Gandiva are the extra reference
# policies the CLI exposes.


@register_scheduler(
    "ONES",
    capabilities=CAPABILITIES["ONES"],
    description="online evolutionary batch-size orchestration (the paper's scheduler)",
    paper_baseline=True,
)
def _make_ones(
    seed: int,
    *,
    config: Optional[ONESConfig] = None,
    evolution: Optional[EvolutionConfig] = None,
    population_size: Optional[int] = None,
    mutation_rate: Optional[float] = None,
    crossover_pairs: Optional[int] = None,
    iterations_per_invocation: Optional[int] = None,
) -> ONESScheduler:
    """ONES factory.

    ``config``/``evolution`` take full configuration objects (programmatic
    use); the scalar options are JSON-friendly shortcuts for the common
    evolution knobs so declarative specs can scale the search down.
    """
    from repro.core.evolution import EvolutionConfig
    from repro.core.ones_scheduler import ONESConfig, ONESScheduler

    if config is None:
        if evolution is None:
            overrides: Dict[str, object] = {}
            if population_size is not None:
                overrides["population_size"] = int(population_size)
            if mutation_rate is not None:
                overrides["mutation_rate"] = float(mutation_rate)
            if crossover_pairs is not None:
                overrides["crossover_pairs"] = int(crossover_pairs)
            if iterations_per_invocation is not None:
                overrides["iterations_per_invocation"] = int(iterations_per_invocation)
            evolution = EvolutionConfig(**overrides)
        config = ONESConfig(evolution=evolution)
    return ONESScheduler(config, seed=seed)


@register_scheduler(
    "ONES-hier",
    capabilities=CAPABILITIES["ONES-hier"],
    description="hierarchical partitioned ONES: one search per shard + global reconciler",
    aliases=("ones-hierarchical",),
)
def _make_ones_hier(
    seed: int,
    *,
    config: Optional[HierarchicalConfig] = None,
    partition_size: Optional[int] = None,
    partitions: Optional[int] = None,
    parallel_workers: Optional[int] = None,
    evolution: Optional[EvolutionConfig] = None,
    population_size: Optional[int] = None,
    mutation_rate: Optional[float] = None,
    crossover_pairs: Optional[int] = None,
    iterations_per_invocation: Optional[int] = None,
) -> HierarchicalONESScheduler:
    """Hierarchical ONES factory.

    Mirrors the flat ONES scalar knobs (they configure every per-partition
    search) plus the hierarchy's own: ``partition_size`` in GPUs (default
    64, the paper scale), ``partitions`` as an explicit shard-count
    override (``partitions=1`` is the flat-parity mode), and
    ``parallel_workers`` for the process-pool evolve burst.
    """
    from repro.core.partitioned import HierarchicalConfig, HierarchicalONESScheduler

    if config is None:
        inner = _make_ones(
            seed,
            evolution=evolution,
            population_size=population_size,
            mutation_rate=mutation_rate,
            crossover_pairs=crossover_pairs,
            iterations_per_invocation=iterations_per_invocation,
        ).config
        overrides: Dict[str, object] = {"ones": inner}
        if partition_size is not None:
            overrides["partition_size"] = int(partition_size)
        if partitions is not None:
            overrides["partitions"] = int(partitions)
        if parallel_workers is not None:
            overrides["parallel_workers"] = int(parallel_workers)
        config = HierarchicalConfig(**overrides)
    return HierarchicalONESScheduler(config, seed=seed)


@register_scheduler(
    "DRL",
    capabilities=CAPABILITIES["DRL"],
    description="deep-RL scheduler in the style of Chic (greedy policy rollout)",
    paper_baseline=True,
)
def _make_drl(seed: int, *, greedy: bool = True) -> DRLScheduler:
    from repro.baselines.drl import DRLScheduler

    return DRLScheduler(seed=seed, greedy=bool(greedy))


@register_scheduler(
    "Tiresias",
    capabilities=CAPABILITIES["Tiresias"],
    description="discretised least-attained-service multi-level feedback queue",
    paper_baseline=True,
)
def _make_tiresias(seed: int) -> TiresiasScheduler:
    from repro.baselines.tiresias import TiresiasScheduler

    return TiresiasScheduler()


@register_scheduler(
    "Optimus",
    capabilities=CAPABILITIES["Optimus"],
    description="greedy marginal-gain allocation, reschedules every 10 minutes",
    paper_baseline=True,
)
def _make_optimus(seed: int, *, scheduling_interval: Optional[float] = None) -> OptimusScheduler:
    from repro.baselines.optimus import OptimusScheduler

    if scheduling_interval is None:
        return OptimusScheduler()
    return OptimusScheduler(scheduling_interval=float(scheduling_interval))


@register_scheduler(
    "Gandiva",
    capabilities=CAPABILITIES["Gandiva"],
    description="time-slicing with locality-driven migration",
)
def _make_gandiva(seed: int, *, time_quantum: Optional[float] = None) -> GandivaScheduler:
    from repro.baselines.gandiva import GandivaScheduler

    if time_quantum is None:
        return GandivaScheduler()
    return GandivaScheduler(time_quantum=float(time_quantum))


@register_scheduler(
    "FIFO",
    capabilities=CAPABILITIES["FIFO"],
    description="first-in-first-out gang scheduling at the requested size",
)
def _make_fifo(seed: int) -> FIFOScheduler:
    from repro.baselines.fifo import FIFOScheduler

    return FIFOScheduler()


@register_scheduler(
    "SRTF",
    capabilities=CAPABILITIES["SRTF"],
    description="shortest-remaining-time-first with oracle remaining-time knowledge",
    aliases=("srtf-oracle",),
)
def _make_srtf(seed: int) -> SRTFScheduler:
    from repro.baselines.srtf import SRTFScheduler

    scheduler = SRTFScheduler()
    # Align the report label with the registry name so a single run never
    # shows up as "SRTF" in one table and "SRTF-oracle" in another.
    scheduler.name = "SRTF"
    return scheduler
