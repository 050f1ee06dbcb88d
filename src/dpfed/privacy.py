"""Differential privacy core: clamping, sensitivity, noise mechanisms,
the Laplace mean release, linear composition accounting, and an empirical
distinguishability probe.

The guarantee tracked throughout is (epsilon, delta)-DP: for datasets D,
D' that differ in one record and any outcome set S,

    Pr[M(D) in S] <= exp(epsilon) * Pr[M(D') in S] + delta.

Accounting is linear: running steps (e1, d1) and (e2, d2) costs
(e1 + e2, d1 + d2). A ledger is charged only through ``compose``, and it
keeps each total as an integer count of 2**-1074, of which every finite
double is a whole number. A charge is then one exact integer add, and
the reported spend is the correctly rounded sum, which does not depend
on how steps were grouped.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceeded, InvalidValue
from .rng import RandomSource


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) pair.

    epsilon = 0 is allowed only so that zero spend (0, 0) is representable;
    every mechanism requires a strictly positive epsilon at its boundary.
    """

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise InvalidValue(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not (0.0 <= self.delta < 1.0):
            raise InvalidValue(f"delta must lie in [0, 1), got {self.delta}")


ZERO_SPEND = PrivacyParams(0.0, 0.0)


@dataclass(frozen=True)
class ClampBounds:
    """Closed interval [lower, upper] that inputs are clamped into."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise InvalidValue("clamp bounds must be finite")
        if not self.lower < self.upper:
            raise InvalidValue(f"need lower < upper, got [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def mean_sensitivity(bounds: ClampBounds, n: int) -> float:
    """Global sensitivity of the clamped mean of n records.

    Removing, adding, or replacing one clamped record moves the mean of n
    records by at most (upper - lower) / n.
    """
    if n < 1:
        raise InvalidValue("mean sensitivity needs n >= 1")
    return bounds.width / n


def laplace_sample(scale: float, rng: RandomSource) -> float:
    """One draw from Laplace(0, scale) by inverting the CDF.

    With u uniform on (0, 1):  x = -scale * sgn(u - 1/2) * ln(1 - 2|u - 1/2|).
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise InvalidValue(f"Laplace scale must be finite and positive, got {scale}")
    c = rng.open_uniform() - 0.5
    return -scale * math.copysign(1.0, c) * math.log1p(-2.0 * abs(c))


def gaussian_sigma(sensitivity: float, params: PrivacyParams) -> float:
    """Noise level for the Gaussian mechanism at the given (epsilon, delta).

    sigma = sensitivity * sqrt(2 * ln(1.25 / delta)) / epsilon, the classic
    calibration. It is only valid for epsilon <= 1: above that this sigma
    can be too small for the (epsilon, delta) claimed.
    """
    if not (math.isfinite(sensitivity) and sensitivity >= 0.0):
        raise InvalidValue(f"sensitivity must be finite and >= 0, got {sensitivity}")
    if not (params.epsilon > 0.0 and params.delta > 0.0):
        raise InvalidValue(f"Gaussian mechanism needs epsilon > 0 and delta > 0, got ({params.epsilon}, {params.delta})")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / params.delta)) / params.epsilon


def dp_mean(values: Sequence[float], bounds: ClampBounds, epsilon: float, rng: RandomSource) -> float:
    """Laplace release of the clamped mean.

    release = (sum of clamped x_i) / n + Lap((upper - lower) / (n * epsilon)).
    Each x_i is clamped into [lower, upper]; NaN is refused, not clamped.
    """
    n = len(values)
    if n == 0:
        raise InvalidValue("dp_mean needs at least one value")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise InvalidValue(f"epsilon must be finite and positive, got {epsilon}")
    lo, hi = bounds.lower, bounds.upper
    total = 0.0
    for x in map(float, values):
        if lo <= x <= hi:
            total += x
        elif x < lo:
            total += lo
        elif x > hi:
            total += hi
        else:
            raise InvalidValue("dp_mean input contains NaN")
    return total / n + laplace_sample((hi - lo) / (n * epsilon), rng)


_UNIT = 2**1074  # every finite double is an integer count of 2**-1074


def _units(x: float) -> int:
    """x as an exact count of 2**-1074: x = n / 2**k with k <= 1074."""
    n, d = x.as_integer_ratio()
    return n << 1075 - d.bit_length()


@dataclass(frozen=True, eq=False)
class AccountLedger:
    """Immutable privacy ledger: a budget plus the steps charged so far.

    ``AccountLedger(budget)`` is empty; only ``compose`` charges it. The
    entries are a chain of (previous, entry) pairs that ledgers charged
    one from another share, so a charge copies nothing and ``entries`` is
    built when it is read. Each total is an int that counts 2**-1074, so
    a charge is one int add and ``spent`` is the correctly rounded sum,
    ``math.fsum`` over the entries bit for bit.
    """

    budget: PrivacyParams
    _chain: tuple | None = field(default=None, kw_only=True, repr=False)
    _epsilon_units: int = field(default=0, kw_only=True, repr=False)
    _delta_units: int = field(default=0, kw_only=True, repr=False)

    @property
    def entries(self) -> tuple[tuple[str, PrivacyParams], ...]:
        newest_first, chain = [], self._chain
        while chain is not None:
            chain, entry = chain
            newest_first.append(entry)
        return tuple(reversed(newest_first))

    @property
    def spent(self) -> PrivacyParams:
        return PrivacyParams(self._epsilon_units / _UNIT, self._delta_units / _UNIT)

    def report(self) -> str:
        """Human-readable table of entries and totals."""
        rows = [*self.entries, ("spent", self.spent), ("budget", self.budget)]
        lines = [f"{label:<28}{p.epsilon:>14.6g}{p.delta:>14.6g}" for label, p in rows]
        return "\n".join([f"{'label':<28}{'epsilon':>14}{'delta':>14}", *lines])


def compose(ledger: AccountLedger, label: str, step: PrivacyParams) -> AccountLedger:
    """Charge one step to the ledger under linear composition.

    Returns a new ledger; the input is never mutated. If the new total
    would exceed the budget in either coordinate the step is refused with
    BudgetExceeded; a total past the largest double exceeds every budget.
    Spending exactly up to the budget is allowed.
    """
    eps_units = ledger._epsilon_units + _units(step.epsilon)
    delta_units = ledger._delta_units + _units(step.delta)
    try:
        eps = eps_units / _UNIT
    except OverflowError:  # past the largest double
        eps = math.inf
    delta = delta_units / _UNIT  # below 2: a total within budget is below 1, and so is a step
    if eps > ledger.budget.epsilon or delta > ledger.budget.delta:
        raise BudgetExceeded(
            f"step {label!r} ({step.epsilon}, {step.delta}) would raise spend to "
            f"({eps}, {delta}) over budget ({ledger.budget.epsilon}, {ledger.budget.delta})"
        )
    return AccountLedger(
        ledger.budget, _chain=(ledger._chain, (label, step)), _epsilon_units=eps_units, _delta_units=delta_units
    )


@dataclass(frozen=True)
class ProbeReport:
    """Result of the empirical distinguishability probe."""

    max_ratio: float
    violated_mass: float


def _check_adjacent(d: Sequence[float], d_adj: Sequence[float]) -> None:
    """Datasets must differ by one added/removed record or one replacement."""
    a, b = Counter(d), Counter(d_adj)
    diff = sum(((a - b) + (b - a)).values())
    if abs(len(d) - len(d_adj)) > 1:
        raise InvalidValue("datasets differ in size by more than one record")
    if len(d) != len(d_adj):
        if diff != 1:
            raise InvalidValue("datasets of unequal size must differ in exactly one record")
    elif diff > 2:
        raise InvalidValue("equal-size datasets may differ in at most one replaced record")


def distinguishability_probe(
    mechanism: Callable[[Sequence[float], RandomSource], float],
    d: Sequence[float],
    d_adjacent: Sequence[float],
    params: PrivacyParams,
    n_samples: int,
    n_bins: int,
    rng: RandomSource,
) -> ProbeReport:
    """Estimate how distinguishable M(D) and M(D') are from samples.

    Draws n_samples from the mechanism on each dataset (D first, then D',
    one stream), histograms both over shared equal-width bins spanning the
    union of supports, and checks the per-bin DP inequality with the delta
    mass split evenly across bins. ``max_ratio`` is the largest observed
    p_hat / (q_hat + delta / n_bins) over bins holding at least
    n_samples // 100 numerator samples, which keeps the relative sampling
    error of the ratio under roughly ten percent; in sparser bins the
    ratio estimate is dominated by noise, so they are screened instead by
    ``violated_mass``, the total p-mass of bins violating the per-bin
    inequality. A NaN or infinite sample
    has no bin and is refused with InvalidValue.
    """
    if n_samples < 100_000:
        raise InvalidValue("probe needs at least 1e5 samples per dataset")
    if n_bins < 2:
        raise InvalidValue("probe needs at least 2 bins")
    _check_adjacent(d, d_adjacent)

    n = n_samples
    samples_d = np.fromiter(map(mechanism, repeat(d, n), repeat(rng, n)), np.float64, n)
    samples_a = np.fromiter(map(mechanism, repeat(d_adjacent, n), repeat(rng, n)), np.float64, n)
    if not (np.isfinite(samples_d).all() and np.isfinite(samples_a).all()):
        raise InvalidValue("mechanism returned a non-finite sample")

    lo = min(samples_d.min(), samples_a.min())
    hi = max(samples_d.max(), samples_a.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts_d, _ = np.histogram(samples_d, bins=n_bins, range=(lo, hi))
    counts_a, _ = np.histogram(samples_a, bins=n_bins, range=(lo, hi))
    p = counts_d / n_samples
    q = counts_a / n_samples
    floor = params.delta / n_bins

    dense = counts_d >= n_samples // 100
    # a dense numerator bin with an empty (and unfloored) denominator is an
    # honest violation, not a numeric accident: its ratio is infinite
    ratios = np.zeros(n_bins)
    np.divide(p, q + floor, out=ratios, where=dense & (q + floor > 0.0))
    ratios[dense & (q + floor == 0.0) & (p > 0.0)] = np.inf
    max_ratio = float(ratios.max()) if dense.any() else 0.0

    violated = p > math.exp(params.epsilon) * q + floor
    violated_mass = float(p[violated].sum())
    return ProbeReport(max_ratio=max_ratio, violated_mass=violated_mass)
