import math
import time

import numpy as np
import pytest

from dpfed.errors import (
    BudgetExceeded,
    EmptyDataset,
    GaussianRequiresDelta,
    InvalidScale,
    InvalidValue,
    NotAdjacent,
)
from dpfed.privacy import (
    AccountLedger,
    ClampBounds,
    PrivacyParams,
    compose,
    distinguishability_probe,
    dp_mean,
    gaussian_sigma,
    laplace_sample,
    mean_sensitivity,
)
from dpfed.rng import RandomSource


class FixedUniform:
    """Stand-in source that returns a chosen uniform, for transform oracles."""

    def __init__(self, u):
        self.u = u

    def open_uniform(self):
        return self.u


def test_privacy_params_validation():
    PrivacyParams(0.5, 1e-6)
    PrivacyParams(0.0, 0.0)  # zero spend is representable
    with pytest.raises(InvalidValue):
        PrivacyParams(-0.1, 0.0)
    with pytest.raises(InvalidValue):
        PrivacyParams(math.inf, 0.0)
    with pytest.raises(InvalidValue):
        PrivacyParams(1.0, 1.0)
    with pytest.raises(InvalidValue):
        PrivacyParams(1.0, -1e-9)


def test_clamp_bounds_validation():
    with pytest.raises(InvalidValue):
        ClampBounds(1.0, 1.0)
    with pytest.raises(InvalidValue):
        ClampBounds(2.0, 1.0)
    with pytest.raises(InvalidValue):
        ClampBounds(0.0, math.inf)


def test_mean_sensitivity_value():
    b = ClampBounds(0.0, 100.0)
    assert mean_sensitivity(b, 10) == 10.0
    assert mean_sensitivity(ClampBounds(-1.0, 1.0), 4) == 0.5
    with pytest.raises(EmptyDataset):
        mean_sensitivity(b, 0)


def test_laplace_transform_oracle():
    # inverse CDF at u = 0.75 with scale 2 is 2 * ln 2
    x = laplace_sample(2.0, FixedUniform(0.75))
    assert x == pytest.approx(1.3862943611198906, abs=0.0)
    assert x == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
    # symmetric tail
    assert laplace_sample(2.0, FixedUniform(0.25)) == pytest.approx(-x, abs=0.0)
    # median maps to zero
    assert laplace_sample(3.0, FixedUniform(0.5)) == 0.0


def test_laplace_scale_validation():
    rng = RandomSource(0)
    with pytest.raises(InvalidScale):
        laplace_sample(0.0, rng)
    with pytest.raises(InvalidScale):
        laplace_sample(-1.0, rng)
    with pytest.raises(InvalidScale):
        laplace_sample(math.inf, rng)


def test_laplace_moments():
    rng = RandomSource(314)
    xs = np.array([laplace_sample(1.0, rng) for _ in range(200_000)])
    assert abs(xs.mean()) < 0.02
    assert xs.var() == pytest.approx(2.0, abs=0.05)  # Var = 2 * scale^2


def test_gaussian_sigma_oracle():
    sigma = gaussian_sigma(1.0, PrivacyParams(100.0, 1e-6))
    assert sigma == pytest.approx(0.052992, abs=1e-5)
    # direct recomputation of the calibration formula
    assert sigma == pytest.approx(math.sqrt(2.0 * math.log(1.25e6)) / 100.0, rel=1e-14)
    with pytest.raises(GaussianRequiresDelta):
        gaussian_sigma(1.0, PrivacyParams(1.0, 0.0))
    with pytest.raises(InvalidValue):
        gaussian_sigma(1.0, PrivacyParams(0.0, 1e-6))
    assert gaussian_sigma(0.0, PrivacyParams(1.0, 1e-6)) == 0.0
    for sens in (-1e-12, math.nan, math.inf):
        with pytest.raises(InvalidValue):
            gaussian_sigma(sens, PrivacyParams(1.0, 1e-6))


def test_dp_mean_noise_scale_and_determinism():
    b = ClampBounds(0.0, 100.0)
    values = [10.0] * 10
    # noise scale is (U - L) / (n * eps) = 10 exactly; pin it via the
    # identity release = clamped_mean + laplace(scale)
    r1 = dp_mean(values, b, 1.0, RandomSource(5))
    lap = laplace_sample(10.0, RandomSource(5))
    assert r1 == 10.0 + lap
    # same seed, same release
    assert dp_mean(values, b, 1.0, RandomSource(5)) == r1


def test_dp_mean_clamps_before_averaging():
    b = ClampBounds(0.0, 1.0)
    rng1 = RandomSource(8)
    rng2 = RandomSource(8)
    out_of_range = dp_mean([5.0, -5.0], b, 1.0, rng1)
    clamped = dp_mean([1.0, 0.0], b, 1.0, rng2)
    assert out_of_range == clamped


def test_dp_mean_errors():
    b = ClampBounds(0.0, 1.0)
    rng = RandomSource(0)
    with pytest.raises(EmptyDataset):
        dp_mean([], b, 1.0, rng)
    with pytest.raises(InvalidValue):
        dp_mean([0.5], b, 0.0, rng)
    with pytest.raises(InvalidValue):
        dp_mean([0.5, math.nan], b, 1.0, rng)


def test_ledger_exact_composition():
    budget = PrivacyParams(500.0, 1e-3)
    ledger = AccountLedger(budget)
    step = PrivacyParams(0.5, 1e-6)
    for i in range(1000):
        ledger = compose(ledger, f"step {i}", step)
    # fsum makes the totals exact, not merely close
    assert ledger.spent.epsilon == 500.0
    assert ledger.spent.delta == 1e-3
    assert len(ledger.entries) == 1000
    with pytest.raises(BudgetExceeded):
        compose(ledger, "step 1000", step)
    # refused step leaves the ledger unchanged
    assert len(ledger.entries) == 1000
    assert ledger.spent.epsilon == 500.0


def test_ledger_grouping_invariance():
    budget = PrivacyParams(10.0, 1e-2)
    steps = [PrivacyParams(0.1, 1e-6)] * 30 + [PrivacyParams(0.025, 3e-7)] * 40
    fwd = AccountLedger(budget)
    for i, s in enumerate(steps):
        fwd = compose(fwd, str(i), s)
    rev = AccountLedger(budget)
    for i, s in enumerate(reversed(steps)):
        rev = compose(rev, str(i), s)
    assert fwd.spent == rev.spent


def test_ledger_spend_to_exact_budget_allowed():
    ledger = AccountLedger(PrivacyParams(1.0, 0.0))
    ledger = compose(ledger, "a", PrivacyParams(0.6, 0.0))
    ledger = compose(ledger, "b", PrivacyParams(0.4, 0.0))
    assert ledger.spent.epsilon == 1.0
    with pytest.raises(BudgetExceeded):
        compose(ledger, "c", PrivacyParams(1e-12, 0.0))


def test_ledger_remaining_and_report():
    ledger = AccountLedger(PrivacyParams(2.0, 1e-4))
    ledger = compose(ledger, "warmup probe", PrivacyParams(0.5, 1e-6))
    text = ledger.report()
    assert "warmup probe" in text
    assert "spent" in text and "budget" in text


def _random_steps(seed, n):
    # magnitudes from subnormal to 1e12, with repeats, so rounding matters
    rng = np.random.default_rng(seed)
    eps = rng.choice([0.0, 5e-324, 1e-300, 1e-12, 0.1, 1.0, 3e5, 1e12], n) * rng.random(n)
    delta = rng.choice([0.0, 5e-324, 1e-9, 1e-6], n) * rng.random(n)
    return [PrivacyParams(float(e), float(d)) for e, d in zip(eps, delta)]


@pytest.mark.parametrize(
    "steps",
    [_random_steps(seed, 300) for seed in range(8)] + [[PrivacyParams(0.5, 1e-6)] * 1000],
    ids=[f"random-{seed}" for seed in range(8)] + ["1000x(0.5,1e-6)"],
)
def test_ledger_spent_equals_fsum_over_entries(steps):
    ledger = AccountLedger(PrivacyParams(1e300, 0.5))
    for i, s in enumerate(steps):
        ledger = compose(ledger, str(i), s)
        if i % 37 == 0 or i == len(steps) - 1:
            assert ledger.spent.epsilon == math.fsum(p.epsilon for _, p in ledger.entries)
            assert ledger.spent.delta == math.fsum(p.delta for _, p in ledger.entries)
    # a ledger built from the same entries reports the same totals
    assert AccountLedger(ledger.budget, ledger.entries).spent == ledger.spent


def test_refused_charge_leaves_ledger_unchanged():
    ledger = AccountLedger(PrivacyParams(1.0, 1e-5))
    for i in range(7):
        ledger = compose(ledger, str(i), PrivacyParams(0.1, 1e-6))
    entries, spent = ledger.entries, ledger.spent
    for step in (PrivacyParams(0.5, 0.0), PrivacyParams(0.0, 5e-6)):
        with pytest.raises(BudgetExceeded):
            compose(ledger, "over", step)
        assert ledger.entries == entries and ledger.spent == spent
    # later charges still add to the untouched totals exactly
    ledger = compose(ledger, "fits", PrivacyParams(0.3, 3e-6))
    assert ledger.spent == PrivacyParams(math.fsum([0.1] * 7 + [0.3]), math.fsum([1e-6] * 7 + [3e-6]))


def test_ledger_charges_on_one_ledger_stay_independent():
    base = AccountLedger(PrivacyParams(10.0, 1e-3))
    for i in range(3):
        base = compose(base, str(i), PrivacyParams(0.5, 1e-6))
    a = compose(base, "a", PrivacyParams(1.0, 0.0))
    b = compose(base, "b", PrivacyParams(2.0, 1e-5))
    a2 = compose(a, "a2", PrivacyParams(0.25, 0.0))
    assert [label for label, _ in base.entries] == ["0", "1", "2"]
    assert [label for label, _ in a.entries] == ["0", "1", "2", "a"]
    assert [label for label, _ in b.entries] == ["0", "1", "2", "b"]
    assert [label for label, _ in a2.entries] == ["0", "1", "2", "a", "a2"]
    assert base.spent == PrivacyParams(1.5, 3e-6)
    assert b.spent == PrivacyParams(3.5, math.fsum([1e-6] * 3 + [1e-5]))
    assert a2.spent == PrivacyParams(2.75, 3e-6)
    with pytest.raises(AttributeError):
        a.budget = PrivacyParams(1e6, 0.5)


def _seconds_for_charges(ledger, n):
    step = PrivacyParams(1e-6, 0.0)
    t0 = time.perf_counter()
    for _ in range(n):
        ledger = compose(ledger, "charge", step)
    return time.perf_counter() - t0


def test_ledger_charge_cost_does_not_grow_with_entries():
    budget = PrivacyParams(1e6, 0.5)
    long = AccountLedger(budget, (("old", PrivacyParams(1e-6, 0.0)),) * 50_000)
    # best of three, so a scheduler hiccup on a shared host does not decide it
    empty_s = min(_seconds_for_charges(AccountLedger(budget), 2000) for _ in range(3))
    long_s = min(_seconds_for_charges(long, 2000) for _ in range(3))
    assert long_s <= 4.0 * empty_s, (long_s, empty_s)


def test_ledger_epsilon_overflow_is_over_budget():
    ledger = compose(AccountLedger(PrivacyParams(1.7e308, 0.5)), "a", PrivacyParams(1e308))
    with pytest.raises(BudgetExceeded):
        compose(ledger, "b", PrivacyParams(1e308))
    assert ledger.spent == PrivacyParams(1e308)


def test_probe_rejects_non_adjacent():
    rng = RandomSource(1)
    b = ClampBounds(0.0, 10.0)
    mech = lambda data, r: dp_mean(data, b, 1.0, r)
    with pytest.raises(NotAdjacent):
        distinguishability_probe(mech, [1.0, 2.0, 3.0], [1.0], PrivacyParams(1.0), 100_000, 10, rng)
    with pytest.raises(NotAdjacent):
        distinguishability_probe(
            mech, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0], PrivacyParams(1.0), 100_000, 10, rng
        )


def test_probe_sample_floor():
    b = ClampBounds(0.0, 10.0)
    mech = lambda data, r: dp_mean(data, b, 1.0, r)
    with pytest.raises(InvalidValue):
        distinguishability_probe(mech, [1.0], [2.0], PrivacyParams(1.0), 99_999, 10, RandomSource(1))


def test_probe_identical_datasets_ratio_near_one():
    b = ClampBounds(0.0, 10.0)
    d = [float(i) for i in range(10)]
    mech = lambda data, r: dp_mean(data, b, 1.0, r)
    rep = distinguishability_probe(mech, d, list(d), PrivacyParams(1.0), 100_000, 20, RandomSource(3))
    assert 0.8 < rep.max_ratio < 1.2
    # sparse tail bins can show tiny sampling-noise violations
    assert rep.violated_mass < 1e-3


def test_probe_bounds_ratio_for_dp_mean():
    b = ClampBounds(0.0, 10.0)
    d = [float(i) for i in range(10)]
    d_adj = d[:-1]  # remove one record
    eps = 1.0
    mech = lambda data, r: dp_mean(data, b, eps, r)
    rep = distinguishability_probe(mech, d, d_adj, PrivacyParams(eps), 150_000, 20, RandomSource(9))
    assert rep.max_ratio <= math.exp(eps) * 1.15
    assert rep.violated_mass < 1e-3


def test_probe_flags_laplace_scale_five_times_too_small():
    # negative control for gate 04's oracle: on the worst-case pair (one
    # record moves across the whole clamp range) a release whose Laplace
    # scale is 5x too small must exceed the bound at every epsilon
    b = ClampBounds(0.0, 100.0)
    d = [float(x) for x in range(0, 100, 10)]
    d_adj = [100.0] + d[1:]
    for eps in (0.5, 1.0, 2.0):
        mech = lambda data, r, e=eps: dp_mean(data, b, 5.0 * e, r)  # scale / 5
        rep = distinguishability_probe(mech, d, d_adj, PrivacyParams(eps), 100_000, 20, RandomSource(4))
        assert rep.max_ratio > math.exp(eps) * 1.15, (eps, rep.max_ratio)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_probe_refuses_non_finite_samples(bad):
    # one bad sample among the 2e5, drawn on the adjacent dataset
    calls = iter(range(200_000))
    mech = lambda data, r: bad if next(calls) == 123_456 else r.uniform()
    with pytest.raises(InvalidValue, match="non-finite"):
        distinguishability_probe(mech, [1.0, 2.0], [1.0], PrivacyParams(1.0), 100_000, 10, RandomSource(6))
