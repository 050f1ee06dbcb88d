import math

import numpy as np
import pytest

from dpfed.errors import BudgetExceeded, EmptyDataset, InvalidGradient, InvalidValue, ShapeError
from dpfed.dpsgd import (
    BatchSampler,
    DpSgdConfig,
    dp_gradient_release,
    l2_clip,
    noise_sigma,
    train_step,
    warm_start,
)
from dpfed.network import NetworkDims, apply_update, forward, init_network, loss, per_example_gradients
from dpfed.privacy import AccountLedger, PrivacyParams
from dpfed.rng import RandomSource


def make_cfg(**over):
    base = dict(
        clip_bound=1.0,
        step_params=PrivacyParams(1.0, 1e-6),
        learning_rate=0.1,
        batch_size=4,
    )
    base.update(over)
    return DpSgdConfig(**base)


def test_l2_clip_behaviour():
    g = np.array([3.0, 4.0])
    clipped = l2_clip(g, 1.0)
    assert np.allclose(clipped, [0.6, 0.8])
    assert np.linalg.norm(clipped) == pytest.approx(1.0, rel=1e-15)
    small = np.array([0.1, 0.2])
    assert np.array_equal(l2_clip(small, 1.0), small)
    with pytest.raises(InvalidGradient):
        l2_clip(np.array([1.0, math.nan]), 1.0)
    with pytest.raises(InvalidValue):
        l2_clip(g, 0.0)


def test_config_validation():
    with pytest.raises(InvalidValue):
        make_cfg(clip_bound=-1.0)
    with pytest.raises(InvalidValue):
        make_cfg(batch_size=0)
    with pytest.raises(InvalidValue):
        make_cfg(learning_rate=0.0)
    with pytest.raises(InvalidValue):
        make_cfg(step_params=PrivacyParams(1.0, 0.0))  # calibrated noise needs delta
    with pytest.raises(InvalidValue):
        # so does an override: Gaussian noise never gives a pure-epsilon guarantee
        make_cfg(step_params=PrivacyParams(1.0, 0.0), noise_override=0.5)
    with pytest.raises(InvalidValue):
        make_cfg(step_params=PrivacyParams(0.0, 1e-6), noise_override=0.5)
    make_cfg(step_params=PrivacyParams(1.0, 0.0), noisy=False)
    for override in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(InvalidValue):
            make_cfg(noise_override=override)  # a noisy release never has sigma 0


def test_noise_sigma_override_and_calibration():
    cfg = make_cfg(noise_override=0.098)
    assert noise_sigma(cfg, 10) == 0.098
    cfg = make_cfg(step_params=PrivacyParams(2.0, 1e-5))
    expected = (1.0 / 10) * math.sqrt(2.0 * math.log(1.25 / 1e-5)) / 2.0
    assert noise_sigma(cfg, 10) == pytest.approx(expected, rel=1e-14)
    assert noise_sigma(make_cfg(noisy=False), 10) == 0.0


def test_release_deterministic_with_zero_override():
    # a zero override is refused (it would release the exact clipped mean at
    # a noisy charge), so the deterministic release is the noiseless one:
    # clip [3,4] to norm 1 -> [0.6, 0.8]; average with zero gradient -> [0.3, 0.4]
    with pytest.raises(InvalidValue):
        make_cfg(noise_override=0.0)
    cfg = make_cfg(noisy=False)
    ledger = AccountLedger(PrivacyParams(10.0, 1e-3))
    release, new_ledger = dp_gradient_release(
        [np.array([3.0, 4.0]), np.zeros(2)], cfg, ledger, RandomSource(0), step_id=0
    )
    assert np.allclose(release.vector, [0.3, 0.4])
    assert release.spent == PrivacyParams(0.0, 0.0)
    assert new_ledger is ledger and len(ledger.entries) == 0


def test_release_charges_ledger_once_per_step():
    cfg = make_cfg(noise_override=0.1)
    ledger = AccountLedger(PrivacyParams(5.0, 1e-3))
    rng = RandomSource(3)
    for step in range(5):
        _, ledger = dp_gradient_release([np.ones(3)], cfg, ledger, rng, step)
    assert len(ledger.entries) == 5
    assert ledger.spent.epsilon == 5.0
    with pytest.raises(BudgetExceeded):
        dp_gradient_release([np.ones(3)], cfg, ledger, rng, 5)


def test_refused_release_leaves_rng_untouched():
    cfg = make_cfg()
    empty_budget = AccountLedger(PrivacyParams(0.5, 1e-9))
    rng = RandomSource(17)
    with pytest.raises(BudgetExceeded):
        dp_gradient_release([np.ones(4)], cfg, empty_budget, rng, 0)
    # stream identical to a fresh source: no noise was drawn
    assert rng.uniforms(5).tolist() == RandomSource(17).uniforms(5).tolist()


def test_non_noisy_release_spends_nothing():
    cfg = make_cfg(noisy=False, clip_bound=1e9)
    ledger = AccountLedger(PrivacyParams(1.0, 1e-6))
    grads = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    release, new_ledger = dp_gradient_release(grads, cfg, ledger, RandomSource(0), 0)
    assert new_ledger is ledger
    assert release.spent == PrivacyParams(0.0, 0.0)
    assert np.array_equal(release.vector, np.array([2.0, 3.0]))  # plain mean


def test_release_noise_level():
    cfg = make_cfg(noise_override=0.5)
    ledger = AccountLedger(PrivacyParams(10.0, 1e-2))
    release, _ = dp_gradient_release([np.zeros(20000)], cfg, ledger, RandomSource(11), 0)
    assert release.vector.std() == pytest.approx(0.5, abs=0.02)
    assert abs(release.vector.mean()) < 0.02


def test_release_errors():
    cfg = make_cfg()
    ledger = AccountLedger(PrivacyParams(10.0, 1e-3))
    rng = RandomSource(0)
    with pytest.raises(EmptyDataset):
        dp_gradient_release([], cfg, ledger, rng, 0)
    with pytest.raises(ShapeError):
        dp_gradient_release([np.ones(3), np.ones(4)], cfg, ledger, rng, 0)


def test_train_step_matches_manual_pipeline():
    rng = RandomSource(40)
    net = init_network(NetworkDims(3, 4, 5), rng.derive("net"))
    batch = [(rng.derive("x", i).normals((5, 3)), np.arange(5) % 5) for i in range(3)]
    cfg = make_cfg(noisy=False, batch_size=3)
    ledger = AccountLedger(PrivacyParams(10.0, 1e-3))
    release, _ = train_step(net, batch, cfg, ledger, RandomSource(1), 7)
    grads = per_example_gradients(net, batch)
    manual, _ = dp_gradient_release(grads, cfg, ledger, RandomSource(1), 7)
    assert release == manual
    assert release.step_id == 7


def test_batch_sampler_covers_each_epoch():
    seqs = list(range(7))
    sampler = BatchSampler(seqs, batch_size=3, rng=RandomSource(2))
    epoch = [sampler.next_batch() for _ in range(3)]
    sizes = [len(b) for b in epoch]
    assert sizes == [3, 3, 1]
    seen = [x for b in epoch for x in b]
    assert sorted(seen) == seqs
    # next epoch reshuffles but still covers everything
    seen2 = [x for _ in range(3) for x in sampler.next_batch()]
    assert sorted(seen2) == seqs


def test_batch_sampler_validation():
    with pytest.raises(EmptyDataset):
        BatchSampler([], 2, RandomSource(0))
    with pytest.raises(InvalidValue):
        BatchSampler([1], 0, RandomSource(0))


def test_warm_start_zero_epochs_is_identity():
    rng = RandomSource(9)
    net = init_network(NetworkDims(2, 3, 4), rng)
    out = warm_start(net, [(np.zeros((2, 2)), np.array([0, 1]))], 0, 0.1, 2, rng)
    assert np.array_equal(out.flatten(), net.flatten())


def test_warm_start_learns():
    rng = RandomSource(101)
    net = init_network(NetworkDims(4, 6, 3), rng.derive("net"))
    seqs = [(rng.derive("x", i).normals((6, 4)) + 2.0 * (i % 3), np.full(6, i % 3, dtype=np.int64)) for i in range(9)]
    before = float(np.mean([loss(forward(net, f)[0], l) for f, l in seqs]))
    trained = warm_start(net, seqs, epochs=30, learning_rate=0.3, batch_size=3, rng=rng.derive("order"))
    after = float(np.mean([loss(forward(trained, f)[0], l) for f, l in seqs]))
    assert after < before * 0.5


def test_warm_start_deterministic():
    def run():
        rng = RandomSource(55)
        net = init_network(NetworkDims(2, 3, 4), rng.derive("net"))
        seqs = [(rng.derive("x", i).normals((4, 2)), np.arange(4) % 4) for i in range(5)]
        return warm_start(net, seqs, 3, 0.2, 2, rng.derive("order")).flatten()

    assert np.array_equal(run(), run())


@pytest.mark.parametrize("n, batch_size, epochs", [(72, 4, 3), (7, 3, 5), (10, 4, 2), (1, 4, 3)])
def test_warm_start_equals_per_epoch_shuffle_loop(n, batch_size, epochs):
    # reference: one permutation per epoch, walked in batches, each update
    # the mean of the batch's per-example gradients summed in batch order
    rng = RandomSource(77)
    net = init_network(NetworkDims(2, 3, 4), rng.derive("net"))
    seqs = [(rng.derive("x", i).normals((3, 2)), np.arange(3) % 4) for i in range(n)]
    order_rng = rng.derive("order")
    expected = net
    for _ in range(epochs):
        order = order_rng.permutation(n)
        for start in range(0, n, batch_size):
            grads = per_example_gradients(expected, [seqs[i] for i in order[start : start + batch_size]])
            acc = np.zeros(len(grads[0]))
            for g in grads:
                acc += g
            expected = apply_update(expected, acc / len(grads), 0.2)
    got = warm_start(net, seqs, epochs, 0.2, batch_size, rng.derive("order"))
    assert np.array_equal(got.flatten(), expected.flatten())


def test_warm_start_validation():
    net = init_network(NetworkDims(2, 3, 4), RandomSource(1))
    seq = (np.zeros((2, 2)), np.array([0, 1]))
    with pytest.raises(EmptyDataset):
        warm_start(net, [], 1, 0.1, 2, RandomSource(2))
    with pytest.raises(InvalidValue):
        warm_start(net, [seq], -1, 0.1, 2, RandomSource(2))
    with pytest.raises(InvalidValue):
        warm_start(net, [seq], 1, 0.1, 0, RandomSource(2))
