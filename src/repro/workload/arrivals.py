"""Arrival-process models beyond the basic Poisson stream.

The paper's evaluation uses a single trace-driven workload, but real
cluster traces (e.g. the Philly trace analysed in related work) show
pronounced diurnal patterns and bursts.  To support sensitivity studies,
this module provides three arrival processes with a common interface:

* :class:`PoissonArrivals` — homogeneous Poisson (the default generator).
* :class:`DiurnalArrivals` — an inhomogeneous Poisson process whose rate
  follows a day/night sinusoid.
* :class:`BurstyArrivals` — a Markov-modulated Poisson process that
  alternates between a quiet and a bursty regime.

Each process produces arrival *timestamps*; the trace generator pairs
them with workload templates.

On top of the raw processes sits a *declarative* layer in the style of
the fault-profile registry (:mod:`repro.faults.profiles`): an
:class:`ArrivalConfig` names a registered profile plus its scalar
parameters and a seed.  Determinism
contract: generating from a config uses **only** a ``numpy`` generator
seeded from the config — no wall clock, no ``hash()`` — so the same
config produces a bit-identical arrival stream in any process regardless
of ``PYTHONHASHSEED``.  The scheduler service uses these configs as its
load driver (``repro-ones submit --arrival-profile ...``).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.units import HOUR
from repro.utils.validation import check_positive, check_positive_int, check_probability


class ArrivalProcess(abc.ABC):
    """Common interface: generate ``n`` arrival timestamps (sorted, >= 0)."""

    @abc.abstractmethod
    def generate(self, num_jobs: int, rng: SeedLike = None) -> np.ndarray:
        """Return ``num_jobs`` sorted arrival times starting at 0."""

    def _finalize(self, times: Sequence[float], num_jobs: int) -> np.ndarray:
        arr = np.asarray(list(times)[:num_jobs], dtype=float)
        arr.sort()
        if arr.size:
            arr -= arr[0]
        return arr


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals with rate λ (jobs/second)."""

    rate: float = 1.0 / 30.0

    def __post_init__(self) -> None:
        check_positive(self.rate, "rate")

    def generate(self, num_jobs: int, rng: SeedLike = None) -> np.ndarray:
        check_positive_int(num_jobs, "num_jobs")
        rng = as_generator(rng)
        gaps = rng.exponential(1.0 / self.rate, size=num_jobs)
        times = np.concatenate([[0.0], np.cumsum(gaps)[:-1]])
        return self._finalize(times, num_jobs)


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Sinusoidally-modulated Poisson arrivals (busy days, quiet nights).

    The instantaneous rate is
    ``λ(t) = base_rate · (1 + amplitude · sin(2πt / period + phase))``
    and arrivals are drawn by thinning a homogeneous process at the peak
    rate.
    """

    base_rate: float = 1.0 / 30.0
    amplitude: float = 0.8
    period: float = 24.0 * HOUR
    phase: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.base_rate, "base_rate")
        check_probability(self.amplitude, "amplitude")
        check_positive(self.period, "period")

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t``."""
        return self.base_rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period + self.phase)
        )

    def generate(self, num_jobs: int, rng: SeedLike = None) -> np.ndarray:
        check_positive_int(num_jobs, "num_jobs")
        rng = as_generator(rng)
        peak = self.base_rate * (1.0 + self.amplitude)
        times: List[float] = []
        t = 0.0
        # Thinning: propose at the peak rate, accept with probability λ(t)/peak.
        while len(times) < num_jobs:
            t += float(rng.exponential(1.0 / peak))
            if rng.random() <= self.rate_at(t) / peak:
                times.append(t)
        return self._finalize(times, num_jobs)


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (quiet / burst)."""

    quiet_rate: float = 1.0 / 60.0
    burst_rate: float = 1.0 / 5.0
    mean_quiet_duration: float = 600.0
    mean_burst_duration: float = 120.0

    def __post_init__(self) -> None:
        check_positive(self.quiet_rate, "quiet_rate")
        check_positive(self.burst_rate, "burst_rate")
        check_positive(self.mean_quiet_duration, "mean_quiet_duration")
        check_positive(self.mean_burst_duration, "mean_burst_duration")
        if self.burst_rate <= self.quiet_rate:
            raise ValueError("burst_rate must exceed quiet_rate")

    def generate(self, num_jobs: int, rng: SeedLike = None) -> np.ndarray:
        check_positive_int(num_jobs, "num_jobs")
        rng = as_generator(rng)
        times: List[float] = []
        t = 0.0
        bursting = False
        phase_end = float(rng.exponential(self.mean_quiet_duration))
        while len(times) < num_jobs:
            rate = self.burst_rate if bursting else self.quiet_rate
            gap = float(rng.exponential(1.0 / rate))
            if t + gap >= phase_end:
                # Switch regime at the phase boundary and continue from there.
                t = phase_end
                bursting = not bursting
                mean = self.mean_burst_duration if bursting else self.mean_quiet_duration
                phase_end = t + float(rng.exponential(mean))
                continue
            t += gap
            times.append(t)
        return self._finalize(times, num_jobs)


# --- the declarative profile registry -------------------------------------------------

#: Profile signature: ``(config) -> ArrivalProcess``.
ArrivalProfileFn = Callable[["ArrivalConfig"], ArrivalProcess]

_ARRIVAL_PROFILES: Dict[str, Tuple[ArrivalProfileFn, str]] = {}


class UnknownArrivalProfileError(KeyError):
    """Raised when a profile name does not resolve to a generator."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown arrival profile {name!r}; available: {', '.join(_ARRIVAL_PROFILES)}"
        )

    def __str__(self) -> str:  # KeyError quotes its repr by default
        return self.args[0]


def register_arrival_profile(
    name: str, description: str = ""
) -> Callable[[ArrivalProfileFn], ArrivalProfileFn]:
    """Decorator registering an arrival-profile factory under ``name``."""
    key = str(name).lower()
    if not key:
        raise ValueError("profile name must be a non-empty string")

    def decorator(fn: ArrivalProfileFn) -> ArrivalProfileFn:
        if key in _ARRIVAL_PROFILES:
            raise ValueError(f"arrival profile {key!r} is already registered")
        _ARRIVAL_PROFILES[key] = (fn, description)
        return fn

    return decorator


@dataclass(frozen=True)
class ArrivalConfig:
    """Declarative, seeded description of an arrival stream.

    Parameters
    ----------
    profile:
        A registered profile name (``poisson``, ``diurnal``, ``bursty``).
    rate:
        Base arrival rate in jobs/second (the Poisson rate, the diurnal
        mean rate, or the bursty quiet-phase rate).
    seed:
        Seed of the stream's own RNG; the generated timestamps are a pure
        function of ``(config)`` including this seed.
    amplitude / period_hours / phase:
        Diurnal modulation (day/night sinusoid).
    burst_factor / mean_quiet_s / mean_burst_s:
        Bursty regime: the burst-phase rate is ``rate * burst_factor``.
    """

    profile: str = "poisson"
    rate: float = 1.0 / 30.0
    seed: int = 2021
    amplitude: float = 0.8
    period_hours: float = 24.0
    phase: float = 0.0
    burst_factor: float = 10.0
    mean_quiet_s: float = 600.0
    mean_burst_s: float = 120.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "profile", str(self.profile).lower())
        check_positive(self.rate, "rate")
        check_probability(self.amplitude, "amplitude")
        check_positive(self.period_hours, "period_hours")
        check_positive(self.mean_quiet_s, "mean_quiet_s")
        check_positive(self.mean_burst_s, "mean_burst_s")
        if self.burst_factor <= 1.0:
            raise ValueError("burst_factor must exceed 1.0")

    # -- generation ---------------------------------------------------------------------

    def build_process(self) -> ArrivalProcess:
        """Instantiate the registered :class:`ArrivalProcess` of this config."""
        entry = _ARRIVAL_PROFILES.get(self.profile)
        if entry is None:
            raise UnknownArrivalProfileError(self.profile)
        return entry[0](self)

    def generate(self, num_jobs: int) -> np.ndarray:
        """``num_jobs`` sorted arrival timestamps, deterministic in the config."""
        rng = np.random.Generator(np.random.PCG64(int(self.seed)))
        return self.build_process().generate(num_jobs, rng)


@register_arrival_profile("poisson", "homogeneous Poisson stream (rate jobs/s)")
def _poisson_arrival_profile(config: ArrivalConfig) -> ArrivalProcess:
    return PoissonArrivals(rate=config.rate)


@register_arrival_profile("diurnal", "sinusoidal day/night modulated Poisson stream")
def _diurnal_arrival_profile(config: ArrivalConfig) -> ArrivalProcess:
    return DiurnalArrivals(
        base_rate=config.rate,
        amplitude=config.amplitude,
        period=config.period_hours * HOUR,
        phase=config.phase,
    )


@register_arrival_profile("bursty", "Markov-modulated quiet/burst regime stream")
def _bursty_arrival_profile(config: ArrivalConfig) -> ArrivalProcess:
    return BurstyArrivals(
        quiet_rate=config.rate,
        burst_rate=config.rate * config.burst_factor,
        mean_quiet_duration=config.mean_quiet_s,
        mean_burst_duration=config.mean_burst_s,
    )
