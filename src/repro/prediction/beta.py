"""Beta distributions for modelling training-progress uncertainty.

The paper chooses Beta distributions because progress lives in (0, 1),
the shape is flexible, and ``Be(α, β)`` is unimodal when ``α, β > 1``
(which the threshold functions in Eq. 6 guarantee).

Quantiles invert the regularized incomplete beta function with
``scipy.special.betaincinv``, imported where it is called: the
simulation never needs it, and ``import repro.cli`` loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.rng import SeedLike, as_generator

#: Clip samples away from exactly 0 and 1 so downstream uses of
#: ``1/ρ - 1`` (Eq. 7) stay finite.
SAMPLE_EPS = 1e-9


@dataclass(frozen=True)
class BetaDistribution:
    """A Beta distribution with shape parameters clamped to ``>= 1``.

    Eq. 6 applies a threshold so that ``α, β >= 1``; we enforce the same
    guard at construction.  It answers the queries the predictor and
    Fig. 6 make: moments, quantiles and sampling.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        beta = float(self.beta)
        if not np.isfinite(alpha) or not np.isfinite(beta):
            raise ValueError(f"Beta parameters must be finite, got ({alpha}, {beta})")
        object.__setattr__(self, "alpha", max(1.0, alpha))
        object.__setattr__(self, "beta", max(1.0, beta))

    # -- moments ------------------------------------------------------------------

    @property
    def mean(self) -> float:
        """Expected progress ``α / (α + β)``."""
        return self.alpha / (self.alpha + self.beta)

    @property
    def variance(self) -> float:
        """Variance of the distribution."""
        a, b = self.alpha, self.beta
        return (a * b) / ((a + b) ** 2 * (a + b + 1.0))

    @property
    def std(self) -> float:
        """Standard deviation."""
        return float(np.sqrt(self.variance))

    @property
    def mode(self) -> Optional[float]:
        """Mode of the distribution (None when it is not unique)."""
        a, b = self.alpha, self.beta
        if a > 1.0 and b > 1.0:
            return (a - 1.0) / (a + b - 2.0)
        if a == 1.0 and b == 1.0:
            return None  # uniform: every point is a mode
        if a <= 1.0 < b:
            return 0.0
        if b <= 1.0 < a:
            return 1.0
        return None

    # -- quantiles / intervals ---------------------------------------------------------

    def quantile(self, q: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Inverse CDF at probability ``q``."""
        from scipy.special import betaincinv

        result = betaincinv(self.alpha, self.beta, q)
        if np.isscalar(q):
            return float(result)
        return np.asarray(result)

    def confidence_interval(self, level: float = 0.9) -> Tuple[float, float]:
        """Central credible interval at the given level (Fig. 6's band)."""
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
        tail = (1.0 - level) / 2.0
        return (float(self.quantile(tail)), float(self.quantile(1.0 - tail)))

    # -- sampling -----------------------------------------------------------------

    def sample(self, rng: SeedLike = None, size: Optional[int] = None):
        """Draw one sample (or ``size`` samples) of the progress ρ.

        Samples are clipped away from exactly 0 and 1 so downstream uses
        of ``1/ρ - 1`` (Eq. 7) stay finite.
        """
        rng = as_generator(rng)
        draw = rng.beta(self.alpha, self.beta, size=size)
        draw = np.clip(draw, SAMPLE_EPS, 1.0 - SAMPLE_EPS)
        if size is None:
            return float(draw)
        return draw

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BetaDistribution(alpha={self.alpha:.3f}, beta={self.beta:.3f})"


#: The uniform ``Be(1, 1)`` prior used for jobs without a fitted
#: distribution.  Hoisted to module level so hot paths do not allocate a
#: fresh distribution per unseen job per call.
UNIFORM_PRIOR = BetaDistribution(1.0, 1.0)


def sample_many(
    distributions: Sequence[BetaDistribution], rng: SeedLike = None
) -> np.ndarray:
    """Draw one sample from each distribution with a single RNG call.

    ``rng.beta`` with array parameters consumes the underlying bit
    stream element by element, so the result is bit-identical to calling
    :meth:`BetaDistribution.sample` sequentially on the same generator —
    just without the per-call Python overhead.
    """
    rng = as_generator(rng)
    n = len(distributions)
    if n == 0:
        return np.empty(0, dtype=float)
    alphas = np.fromiter((d.alpha for d in distributions), dtype=float, count=n)
    betas = np.fromiter((d.beta for d in distributions), dtype=float, count=n)
    draws = rng.beta(alphas, betas)
    return np.clip(draws, SAMPLE_EPS, 1.0 - SAMPLE_EPS)
