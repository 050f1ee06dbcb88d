"""Per-example clipped, noised gradient releases, and the non-private
warm start.

One release: clip every per-sequence gradient to L2 norm C, average the
clipped gradients over the batch, then add i.i.d. Gaussian noise per
coordinate. ``noise_override`` alone sets the noise. Unset, sigma comes
from the mean's sensitivity, C/B when adjacent batches differ by one
added or removed sequence, at the configured per-step (epsilon, delta),
and a config whose sigma would round to 0 at B is refused. At 0 the
release has no noise and charges nothing; above 0, that sigma is used.
Either way, a config is refused if C + 8.21 sigma is not finite, with
sigma the override or the calibrated sigma at a batch of one: a clipped
mean's coordinates lie within C and every normal within 8.21, so no
accepted release can overflow after its charge. A noisy release is charged its step
(epsilon, delta), both positive, since Gaussian noise never gives a
pure-epsilon guarantee. The charge is made before any noise is drawn; a
refused charge emits nothing.

A short batch is undercharged under a pinned sigma. The last batch of an
epoch holds len < B sequences, so its mean has sensitivity C/len, not
C/B, yet it is charged the same configured step (epsilon, delta). In the
membership experiment's private session, 68 of 600 releases are batches
of 2 at B = 4. A ledger that charges from sigma and the actual batch
size would bound them truly.

The release is a ``wire.Grad``: step, vector and spend, and nothing more.
Clip bound and noise are the worker's own settings, and the batch size
would tell the coordinator how many sequences the worker holds, so none
of them leaves the worker. (The calibrated sigma still depends on
the actual batch size; that side channel is left to a fixed denominator.)

``warm_start`` trains with no clipping and no noise: plain mini-batch
gradient descent on the mean per-example gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidValue
from .network import Network, apply_update, per_example_gradients
from .privacy import ZERO_SPEND, AccountLedger, PrivacyParams, compose, gaussian_sigma
from .rng import RandomSource
from .wire import Grad


# |z| <= 8.2095 for every normal: ``rng.normals`` is ndtri of doubles in [2^-53, 1 - 2^-53]
_NORMAL_BOUND = 8.21


@dataclass(frozen=True)
class DpSgdConfig:
    """Knobs for one worker's release pipeline."""

    clip_bound: float
    step_params: PrivacyParams
    learning_rate: float
    batch_size: int
    noise_override: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.clip_bound) and self.clip_bound > 0.0):
            raise InvalidValue(f"clip bound must be finite and positive, got {self.clip_bound}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise InvalidValue(f"learning rate must be finite and positive, got {self.learning_rate}")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise InvalidValue(f"batch size must be a positive integer, got {self.batch_size}")
        if self.noise_override is not None and not 0.0 <= self.noise_override < math.inf:
            raise InvalidValue(f"noise override must be finite and >= 0, got {self.noise_override}")
        if self.noise_override != 0.0 and not (self.step_params.epsilon > 0.0 and self.step_params.delta > 0.0):
            raise InvalidValue("Gaussian noise needs step epsilon > 0 and delta > 0")
        sigma = self.noise_override
        if sigma is None:
            # sigma only grows as a batch falls short of B: the smallest is at B, the largest at 1
            if gaussian_sigma(self.clip_bound / self.batch_size, self.step_params) == 0.0:
                raise InvalidValue(f"calibrated noise sigma at clip bound {self.clip_bound} rounds to 0")
            sigma = gaussian_sigma(self.clip_bound, self.step_params)
        if not math.isfinite(self.clip_bound + _NORMAL_BOUND * sigma):
            raise InvalidValue(f"noise sigma {sigma} at clip bound {self.clip_bound} overflows a release")


def fixed_order_mean(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Mean of equal-length vectors, summed in the order given; the fixed
    order is what keeps the result bit-reproducible."""
    acc = np.zeros(len(vectors[0]))
    for v in vectors:
        acc += v
    return acc / len(vectors)


def l2_clip(grad: np.ndarray, clip_bound: float) -> np.ndarray:
    """Scale grad down to L2 norm clip_bound if it exceeds it, else return it as is."""
    if not (math.isfinite(clip_bound) and clip_bound > 0.0):
        raise InvalidValue(f"clip bound must be finite and positive, got {clip_bound}")
    g = np.asarray(grad, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise InvalidValue("gradient contains NaN or infinite entries")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(g))
    if math.isinf(norm):  # the squares overflowed; those of g / max|g| cannot
        g = g / np.abs(g).max()
        norm = float(np.linalg.norm(g))
    elif norm <= clip_bound:
        return g
    return g * (clip_bound / norm)


def noise_sigma(cfg: DpSgdConfig, batch_size: int) -> float:
    """The Gaussian sigma a release with this config and batch size will use."""
    if cfg.noise_override is not None:
        return cfg.noise_override
    return gaussian_sigma(cfg.clip_bound / batch_size, cfg.step_params)


def dp_gradient_release(
    per_example: Sequence[np.ndarray],
    cfg: DpSgdConfig,
    ledger: AccountLedger,
    rng: RandomSource,
    step_id: int,
) -> tuple[Grad, AccountLedger]:
    """Clip, average, account, noise: one private release from raw gradients.

    The budget is charged before noise is sampled, so a BudgetExceeded
    leaves both the ledger and the rng stream untouched and no release
    escapes.
    """
    if len(per_example) == 0:
        raise InvalidValue("release needs at least one gradient")
    n = len(per_example[0])
    clipped = []
    for g in per_example:
        c = l2_clip(g, cfg.clip_bound)
        if len(c) != n:
            raise InvalidValue("per-example gradients must all have the same length")
        clipped.append(c)
    acc = fixed_order_mean(clipped)

    if cfg.noise_override == 0.0:
        return Grad(step_id, acc, ZERO_SPEND), ledger
    new_ledger = compose(ledger, f"release step {step_id}", cfg.step_params)
    acc = acc + rng.normals(n) * noise_sigma(cfg, len(clipped))
    return Grad(step_id, acc, cfg.step_params), new_ledger


class BatchSampler:
    """Cycles through sequences in shuffled epochs, one batch at a time.

    Reshuffles from the given stream whenever an epoch is exhausted; the
    final batch of an epoch may be smaller than batch_size.
    """

    def __init__(self, sequences: Sequence, batch_size: int, rng: RandomSource):
        if len(sequences) == 0:
            raise InvalidValue("sampler needs at least one sequence")
        if batch_size < 1:
            raise InvalidValue("batch size must be positive")
        self._sequences = list(sequences)
        self._batch_size = batch_size
        self._rng = rng
        self._queue: list[int] = []

    def next_batch(self) -> list:
        if not self._queue:
            self._queue = list(self._rng.permutation(len(self._sequences)))
        take, self._queue = self._queue[: self._batch_size], self._queue[self._batch_size :]
        return [self._sequences[i] for i in take]


def warm_start(
    net: Network,
    sequences: Sequence,
    epochs: int,
    learning_rate: float,
    batch_size: int,
    rng: RandomSource,
) -> Network:
    """Non-private mini-batch gradient descent, used to pre-train on public data.

    ``BatchSampler`` walks each epoch in shuffled batches; the update is
    the unclipped, unnoised mean of per-example gradients. epochs = 0
    returns the network unchanged.
    """
    if epochs < 0:
        raise InvalidValue("epochs must be >= 0")
    sampler = BatchSampler(sequences, batch_size, rng)
    for _ in range(epochs * math.ceil(len(sequences) / batch_size)):
        grads = per_example_gradients(net, sampler.next_batch())
        net = apply_update(net, fixed_order_mean(grads), learning_rate)
    return net
