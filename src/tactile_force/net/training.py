"""Training loop: Adam with the warm-up/decay schedule and best-validation
parameter keeping."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    ConfigError, Count, DataIntegrityError, Fraction, NumericalError, Positive, PositiveCount,
    check_fields,
)
from ..voxel import VoxelInputs
from .losses import (
    MAGNITUDE_FLOOR_N, LossConfig, LossTargets, batch_loss_and_grad, loss_targets,
)
from .network import Model

# Adam's moment decay rates and denominator offset (Kingma & Ba)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# the learning-rate schedule's shape: epochs of warm-up, iterations per
# doubling during it, and the floor of the decay after it
WARMUP_EPOCHS, WARMUP_DOUBLING_ITERS, LR_FLOOR = 2, 50, 1e-8
# samples per pass of a forward-only run of a model: a loss evaluation or
# eval's predictions
FORWARD_BATCH_SIZE = 512
# the error of a sample set whose every sample is below the floor
BELOW_FLOOR = f"no sample above the magnitude floor of {MAGNITUDE_FLOOR_N} N"


@dataclass(frozen=True)
class TrainingConfig:
    max_epochs: int = PositiveCount(200)
    batch_size: int = PositiveCount(512)
    base_lr: float = Positive(1e-4)
    decay_factor: float = Fraction(0.95)
    seed: int = Count(0)

    __post_init__ = check_fields


class LearningRateSchedule:
    """Warm-up then geometric decay.

    While epoch < WARMUP_EPOCHS the rate is base_lr * 2^ceil(i /
    WARMUP_DOUBLING_ITERS) with i the global iteration count; afterwards the
    rate is multiplied by decay_factor every iteration, floored at LR_FLOOR.
    """

    def __init__(self, config: TrainingConfig):
        self.config = config
        self._iteration = 0
        self._rate = config.base_lr

    def step(self, epoch: int) -> float:
        """Advance one iteration and return the rate to use for it."""
        self._iteration += 1
        cfg = self.config
        if epoch < WARMUP_EPOCHS:
            self._rate = cfg.base_lr * 2.0 ** math.ceil(self._iteration / WARMUP_DOUBLING_ITERS)
        else:
            self._rate = max(self._rate * cfg.decay_factor, LR_FLOOR)
        return self._rate

    @property
    def rate(self) -> float:
        return self._rate


class AdamOptimizer:
    """Adam over a model's flat buffers. Each step runs in place in
    preallocated arrays (parameter-sized temporaries would slow it), in the
    per-tensor formula's operation order, which keeps it bit-equal to that."""

    def __init__(self, model: Model):
        self.model = model
        self.t = 0
        self.m, self.v = np.zeros_like(model.values), np.zeros_like(model.values)
        self._a, self._b = np.empty_like(model.values), np.empty_like(model.values)

    def step(self, lr: float) -> None:
        self.t += 1
        g, m, v, a, b = self.model.grads, self.m, self.v, self._a, self._b
        m *= BETA1
        m += np.multiply(g, 1 - BETA1, out=a)
        v *= BETA2
        v += np.multiply(np.multiply(g, g, out=a), 1 - BETA2, out=a)
        np.sqrt(np.divide(v, 1 - BETA2**self.t, out=a), out=a)
        a += EPS
        np.divide(m, 1 - BETA1**self.t, out=b)
        b *= lr
        self.model.values -= np.divide(b, a, out=b)


@dataclass
class ArraySamples:
    """Featurized samples ready for the model: inputs plus the ground truth
    and loss context, which a set of inputs alone leaves None. A slice of
    them is a view; an index array gathers copies of what they hold."""

    inputs: np.ndarray | VoxelInputs
    f_3d: np.ndarray | None = None
    s_n: np.ndarray | None = None
    r_wb: np.ndarray | None = None
    source_tags: np.ndarray | None = None

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def take(self, idx) -> "ArraySamples":
        return ArraySamples(*(None if a is None else a[idx] for a in (
            self.inputs, self.f_3d, self.s_n, self.r_wb, self.source_tags)))

    def loss_targets(self, config: LossConfig) -> LossTargets:
        return loss_targets(self.f_3d, self.s_n, self.r_wb, self.source_tags, config)


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = math.inf
    skipped_train: int = 0
    skipped_val: int = 0
    iterations: int = 0


def evaluate_loss(
    model: Model, samples: ArraySamples, loss_config: LossConfig,
    batch_size: int = FORWARD_BATCH_SIZE, targets: LossTargets | None = None,
) -> tuple[float, int]:
    """Mean loss over the samples of a set above the magnitude floor,
    batched; returns (loss, n_skipped). A set with none is a
    DataIntegrityError. `targets` are the set's loss targets under
    loss_config, built here if not given."""
    if targets is None:
        targets = samples.loss_targets(loss_config)
    total, count, skipped = 0.0, 0, 0
    for start in range(0, len(samples), batch_size):
        rows = slice(start, start + batch_size)
        batch = samples.take(rows)
        pred = model.forward(batch.inputs)
        loss, _, n_skip = batch_loss_and_grad(pred, targets.take(rows))
        included = len(batch) - n_skip
        total += loss * included
        count += included
        skipped += n_skip
    if count == 0:
        raise DataIntegrityError(BELOW_FLOOR)
    return total / count, skipped


def train(
    model: Model,
    train_samples: ArraySamples,
    val_samples: ArraySamples,
    loss_config: LossConfig,
    config: TrainingConfig,
    log_every: int = 0,
) -> TrainReport:
    """Optimize the model, keeping the parameters with the best validation loss.

    The model is left holding the best-validation parameters. A batch
    whose every sample is below the magnitude floor is skipped: its samples
    are counted in skipped_train, and it takes no optimizer step, so
    `iterations` counts the steps taken. Raises NumericalError if the
    validation loss or, prefixed "epoch E iteration I:" (from 0, I within
    the epoch), a training step goes non-finite, and DataIntegrityError
    naming the set if the training or validation set has no sample above
    the floor. Both sets' loss targets are built before the first step,
    so a sample with an unknown source tag fails there; each epoch gathers
    its shuffle of the training inputs and targets once, and each batch is
    a slice of it.
    """
    if len(val_samples) == 0:
        raise ConfigError("validation set is empty")
    if len(train_samples) == 0:
        raise ConfigError("training set is empty")
    train_targets = train_samples.loss_targets(loss_config)
    val_targets = val_samples.loss_targets(loss_config)
    rng = np.random.default_rng(config.seed)
    optimizer = AdamOptimizer(model)
    schedule = LearningRateSchedule(config)
    report = TrainReport()
    best = model.values.copy()

    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_samples))
        batch = shuffled = shuffled_targets = None  # one epoch's copy at a time
        # a step reads the inputs and the loss targets alone
        shuffled = ArraySamples(train_samples.inputs).take(order)
        shuffled_targets = train_targets.take(order)
        epoch_loss, epoch_count = 0.0, 0
        for i, start in enumerate(range(0, len(order), config.batch_size)):
            rows = slice(start, start + config.batch_size)
            batch = shuffled.take(rows)
            model.zero_grad()
            try:
                pred = model.forward(batch.inputs)
                loss, grad, n_skip = batch_loss_and_grad(pred, shuffled_targets.take(rows))
                report.skipped_train += n_skip
                if n_skip == len(batch):
                    continue
                model.backward(grad)
            except NumericalError as exc:
                raise NumericalError(f"epoch {epoch} iteration {i}: {exc}") from exc
            optimizer.step(schedule.step(epoch))
            included = len(batch) - n_skip
            epoch_loss += loss * included
            epoch_count += included
            report.iterations += 1
        if epoch_count == 0:
            raise DataIntegrityError(f"training set: {BELOW_FLOOR}")
        report.train_losses.append(epoch_loss / epoch_count)

        try:
            val_loss, val_skip = evaluate_loss(
                model, val_samples, loss_config, config.batch_size, val_targets
            )
        except DataIntegrityError as exc:
            raise DataIntegrityError(f"validation set: {exc}") from exc
        report.skipped_val = val_skip
        if not math.isfinite(val_loss):
            raise NumericalError(
                f"validation loss became non-finite at epoch {epoch} "
                f"(train loss {report.train_losses[-1]:.6g})"
            )
        report.val_losses.append(val_loss)
        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            best = model.values.copy()
        if log_every and (epoch + 1) % log_every == 0:
            print(
                f"epoch {epoch + 1}/{config.max_epochs} "
                f"train {report.train_losses[-1]:.5f} val {val_loss:.5f} "
                f"lr {schedule.rate:.2e}", file=sys.stderr
            )

    model.values[...] = best
    return report
