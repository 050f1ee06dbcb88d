"""
Private means, the budget ledger, and an empirical distinguishability check
===========================================================================

A walk through the low-level pieces: clamp-and-noise a mean at a few
epsilon values, watch the ledger fill up, then sample the mechanism on
two adjacent datasets and look at the worst likelihood ratio.
"""

import math

from dpfed.privacy import (
    AccountLedger,
    ClampBounds,
    PrivacyParams,
    compose,
    distinguishability_probe,
    dp_mean,
    mean_sensitivity,
)
from dpfed.rng import RandomSource

rng = RandomSource(2024)
bounds = ClampBounds(0.0, 100.0)
ages = [31.0, 44.0, 29.0, 52.0, 61.0, 38.0, 47.0, 55.0, 26.0, 34.0]
true_mean = sum(ages) / len(ages)

print(f"true mean {true_mean:.2f}, sensitivity {mean_sensitivity(bounds, len(ages)):g}")
for eps in (0.1, 0.5, 1.0, 5.0):
    draws = [dp_mean(ages, bounds, eps, rng.derive("demo", i)) for i in range(5)]
    shown = ", ".join(f"{d:7.2f}" for d in draws)
    print(f"eps {eps:>4}: {shown}")

# every release costs budget; the ledger refuses the first unaffordable one
ledger = AccountLedger(PrivacyParams(2.0, 0.0))
step = PrivacyParams(0.5, 0.0)
spent_all = False
try:
    for i in range(10):
        ledger = compose(ledger, f"mean query {i}", step)
except Exception as exc:
    spent_all = True
    print(f"\nrefused after {len(ledger.entries)} queries: {exc}")
assert spent_all
print(ledger.report())

# adjacent datasets: one person's record edited to the clamp ceiling
neighbor = list(ages)
neighbor[0] = 100.0
eps = 1.0
probe = distinguishability_probe(
    lambda data, r: dp_mean(data, bounds, eps, r),
    ages,
    neighbor,
    PrivacyParams(eps, 0.0),
    n_samples=200_000,
    n_bins=20,
    rng=rng.derive("probe"),
)
print(f"\nworst observed ratio {probe.max_ratio:.3f} against the bound e^eps = {math.exp(eps):.3f}")
