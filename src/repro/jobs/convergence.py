"""Convergence model: how batch size affects training progress.

The scheduler-visible consequences of batch-size choices are:

1. **Large batches converge slower per epoch** (Fig. 3): with a fixed
   local batch per GPU, adding GPUs inflates the global batch and the
   same number of epochs yields lower accuracy.  With the linear
   learning-rate scaling rule the penalty shrinks but does not vanish
   beyond a critical batch size (Hoffer et al., Keskar et al.).
2. **Abrupt batch-size jumps spike the loss** (Fig. 13): jumping the
   batch from 256 to 4096 in one re-configuration injects noise into the
   gradient/momentum state and costs several epochs of progress.
   Gradual (≤ one doubling per epoch) growth avoids this (Fig. 14),
   which is why ONES bounds each scale-up to a doubling of ``R_j``.

We model a job's learning state with a scalar *effective epoch* count
``e``.  Training for one real epoch at global batch ``B`` advances
``e`` by ``1 / penalty(B)`` where ``penalty(B) ≥ 1`` grows with
``log2(B / B_crit)`` above a critical batch size (and much faster when
the learning rate is *not* re-scaled).  Validation accuracy and training
loss are smooth saturating functions of ``e``; an abrupt batch jump adds
a transient loss bump and sets ``e`` back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_in_range, check_non_negative, check_positive


@dataclass(frozen=True)
class ConvergenceProfile:
    """Per-job convergence characteristics.

    Parameters
    ----------
    base_epochs_to_target:
        Effective epochs needed to reach the target validation accuracy
        when trained at the reference batch size.
    target_accuracy:
        Validation accuracy at which the job's stopping criterion starts
        counting (§4.1: 10 consecutive epochs above target).
    max_accuracy:
        Asymptotic accuracy of the model/dataset pair; must exceed
        ``target_accuracy``.
    initial_loss / final_loss:
        End points of the training-loss curve.
    reference_batch:
        Batch size the job was tuned for (``b_j`` submitted by the user).
    critical_batch:
        Batch size beyond which convergence degrades even with LR scaling.
    penalty_per_doubling:
        Additional epochs (fractional) per doubling beyond the critical
        batch when the LR is linearly re-scaled.
    unscaled_penalty_per_doubling:
        The (much larger) penalty when the LR is left at its base value —
        this is the regime of Fig. 3.
    loss_spike_per_doubling:
        Loss increase injected per doubling beyond a safe 2× jump when the
        batch size changes abruptly (Fig. 13).
    spike_recovery_epochs:
        Epochs over which an injected loss spike decays.
    """

    base_epochs_to_target: float
    target_accuracy: float
    max_accuracy: float
    initial_loss: float
    final_loss: float
    reference_batch: int
    critical_batch: int
    penalty_per_doubling: float = 0.12
    unscaled_penalty_per_doubling: float = 0.55
    loss_spike_per_doubling: float = 0.35
    spike_recovery_epochs: float = 8.0

    def __post_init__(self) -> None:
        check_positive(self.base_epochs_to_target, "base_epochs_to_target")
        check_in_range(self.target_accuracy, "target_accuracy", 0.0, 1.0, inclusive=False)
        check_in_range(self.max_accuracy, "max_accuracy", 0.0, 1.0)
        if self.max_accuracy <= self.target_accuracy:
            raise ValueError(
                f"max_accuracy ({self.max_accuracy}) must exceed "
                f"target_accuracy ({self.target_accuracy})"
            )
        check_positive(self.initial_loss, "initial_loss")
        check_non_negative(self.final_loss, "final_loss")
        if self.initial_loss <= self.final_loss:
            raise ValueError("initial_loss must exceed final_loss")
        check_positive(self.reference_batch, "reference_batch")
        check_positive(self.critical_batch, "critical_batch")
        check_non_negative(self.penalty_per_doubling, "penalty_per_doubling")
        check_non_negative(
            self.unscaled_penalty_per_doubling, "unscaled_penalty_per_doubling"
        )
        check_non_negative(self.loss_spike_per_doubling, "loss_spike_per_doubling")
        check_positive(self.spike_recovery_epochs, "spike_recovery_epochs")
        # Time constants of the saturating curves, computed once: every
        # epoch reads both.  Plain attributes, not fields, so equality,
        # hashing and repr still see the parameters only.
        ratio = self.max_accuracy / (self.max_accuracy - self.target_accuracy)
        # Exponential time constant so accuracy hits target at base epochs.
        accuracy_tau = self.base_epochs_to_target / math.log(ratio)
        object.__setattr__(self, "_accuracy_tau", accuracy_tau)
        # Loss decays a little faster than accuracy rises.
        object.__setattr__(self, "_loss_tau", accuracy_tau * 0.8)

    # -- core model ----------------------------------------------------------------------

    def epoch_penalty(self, global_batch: int, lr_scaled: bool = True) -> float:
        """Multiplier (≥ 1) on the epochs needed when training at ``global_batch``.

        With the linear LR-scaling rule, batches up to the critical batch
        size converge in the same number of epochs; beyond it every
        doubling costs ``penalty_per_doubling`` extra epochs.  Without LR
        re-scaling (the fixed-local-batch regime of Fig. 3), any growth
        beyond the batch size the job was tuned for degrades convergence,
        and much faster.
        """
        if global_batch <= 0:
            raise ValueError(f"global_batch must be >= 1, got {global_batch}")
        if lr_scaled:
            threshold = self.critical_batch
            rate = self.penalty_per_doubling
        else:
            threshold = self.reference_batch
            rate = self.unscaled_penalty_per_doubling
        excess_doublings = max(0.0, math.log2(global_batch / threshold))
        return 1.0 + rate * excess_doublings

    def epoch_progress(self, global_batch: int, lr_scaled: bool = True) -> float:
        """Effective-epoch gain from one real epoch at ``global_batch`` (≤ 1)."""
        return 1.0 / self.epoch_penalty(global_batch, lr_scaled)

    def accuracy_at(self, effective_epochs: float) -> float:
        """Validation accuracy after ``effective_epochs`` of progress."""
        check_non_negative(effective_epochs, "effective_epochs")
        return self.max_accuracy * (1.0 - math.exp(-effective_epochs / self._accuracy_tau))

    def loss_at(self, effective_epochs: float, spike: float = 0.0) -> float:
        """Training loss after ``effective_epochs``, plus any active spike."""
        check_non_negative(effective_epochs, "effective_epochs")
        base = self.final_loss + (self.initial_loss - self.final_loss) * math.exp(
            -effective_epochs / self._loss_tau
        )
        return base + max(0.0, spike)

    def abrupt_scaling_spike(self, old_batch: int, new_batch: int) -> float:
        """Loss spike injected by scaling ``old_batch`` → ``new_batch`` at once.

        Increases of up to 4× in one step are tolerated — Fig. 14 shows
        256 → 1024 → 4096 staying smooth — while larger one-shot jumps
        (Fig. 13 jumps 16×) inject a spike that grows with every extra
        doubling.  Scaling *down* never spikes.
        """
        if old_batch <= 0 or new_batch <= 0:
            raise ValueError("batch sizes must be >= 1")
        if new_batch <= old_batch:
            return 0.0
        doublings = math.log2(new_batch / old_batch)
        excess = max(0.0, doublings - 2.0)
        return self.loss_spike_per_doubling * excess

    def spike_setback_epochs(self, spike: float) -> float:
        """Effective-epoch loss caused by a spike of the given magnitude."""
        check_non_negative(spike, "spike")
        if spike <= 0:
            return 0.0
        return self.spike_recovery_epochs * spike / (spike + self.loss_spike_per_doubling)

    def epochs_to_target(self, global_batch: int, lr_scaled: bool = True) -> float:
        """Real epochs needed to first reach the target at a constant batch."""
        return self.base_epochs_to_target * self.epoch_penalty(global_batch, lr_scaled)

    # -- figure generators ------------------------------------------------------------------

    def accuracy_curve(
        self,
        epochs: int,
        global_batch: int,
        lr_scaled: bool = True,
    ) -> np.ndarray:
        """Accuracy after each of ``epochs`` real epochs at a constant batch.

        Fig. 3 uses this with ``lr_scaled=False`` and global batches of
        256 × {1, 2, 4, 8}.
        """
        if epochs < 0:
            raise ValueError("epochs must be >= 0")
        gain = self.epoch_progress(global_batch, lr_scaled)
        effective = gain * np.arange(1, epochs + 1, dtype=float)
        return self.max_accuracy * (1.0 - np.exp(-effective / self._accuracy_tau))


@dataclass
class LossCurveSimulator:
    """Epoch-by-epoch loss/accuracy trajectory under a batch-size schedule.

    This is the engine behind Figs. 13 and 14: it tracks effective
    progress, injects spikes on abrupt batch-size jumps and decays them
    over subsequent epochs.
    """

    profile: ConvergenceProfile
    lr_scaled: bool = True
    effective_epochs: float = 0.0
    _spike: float = field(default=0.0, repr=False)
    _current_batch: Optional[int] = field(default=None, repr=False)
    losses: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)

    def set_batch(self, global_batch: int) -> float:
        """Switch the global batch size; returns the injected loss spike."""
        if global_batch <= 0:
            raise ValueError("global_batch must be >= 1")
        spike = 0.0
        if self._current_batch is not None:
            spike = self.profile.abrupt_scaling_spike(self._current_batch, global_batch)
            if spike > 0:
                self._spike += spike
                self.effective_epochs = max(
                    0.0,
                    self.effective_epochs - self.profile.spike_setback_epochs(spike),
                )
        self._current_batch = int(global_batch)
        return spike

    def run_epoch(self) -> Tuple[float, float]:
        """Advance one real epoch; returns ``(loss, accuracy)`` at its end."""
        if self._current_batch is None:
            raise RuntimeError("set_batch() must be called before run_epoch()")
        self.effective_epochs += self.profile.epoch_progress(
            self._current_batch, self.lr_scaled
        )
        # Spikes decay exponentially over the recovery window.
        self._spike *= math.exp(-1.0 / self.profile.spike_recovery_epochs)
        loss = self.profile.loss_at(self.effective_epochs, self._spike)
        accuracy = self.profile.accuracy_at(self.effective_epochs)
        self.losses.append(loss)
        self.accuracies.append(accuracy)
        return loss, accuracy

    def run_schedule(self, schedule: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Run ``[(batch, epochs), ...]`` segments; returns the loss curve."""
        for batch, epochs in schedule:
            self.set_batch(int(batch))
            for _ in range(int(epochs)):
                self.run_epoch()
        return np.asarray(self.losses, dtype=float)
