"""Release gates.

Each test here is one end-to-end gate on the toolkit and prints a single
PASS/FAIL line with its measured margin, so a full run reads as a
checklist. Tolerances are pinned; loosening them is a release decision,
not a test fix.
"""

import hashlib
import math
import re
import threading
import time

import numpy as np
import pytest

from dpfed.data import SynthSpec, read_dataset, synth_generate, write_dataset
from dpfed.dpsgd import BatchSampler, DpSgdConfig, noise_sigma, per_example_gradients
from dpfed.errors import BudgetExceeded
from dpfed.experiments import MembershipConfig, run_membership_experiment
from dpfed.federation import (
    Coordinator,
    SessionConfig,
    WorkerSpec,
    inproc_session,
    worker_run,
)
from dpfed.network import (
    Network,
    NetworkDims,
    apply_update,
    finite_difference_gradient,
    init_network,
    sequence_gradient,
)
from dpfed.privacy import (
    AccountLedger,
    ClampBounds,
    PrivacyParams,
    compose,
    dp_mean,
    distinguishability_probe,
    gaussian_sigma,
    laplace_sample,
    mean_sensitivity,
)
from dpfed.rng import RandomSource
from dpfed.wire import (
    ABORT_BUDGET,
    Abort,
    Avg,
    Done,
    Grad,
    Hello,
    Init,
    decode,
    encode,
)

FD_TOLERANCE = 1e-5
DEGENERACY_TOLERANCE = 1e-10
SIGMA_TOLERANCE = 1e-5
PROBE_SLACK = 1.15
GAP_LEAK_MIN_POINTS = 10.0
GAP_SUPPRESSED_BAND_POINTS = 5.0
INDIST_MAX_DROP = 0.01
SEEDS = (1, 2, 3)


@pytest.fixture
def report(capsys):
    def emit(line):
        with capsys.disabled():
            print(line)

    return emit


def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(1e-12, np.linalg.norm(a) + np.linalg.norm(b))


def test_gate_01_backward_matches_finite_differences(report):
    t0 = time.monotonic()
    rng = RandomSource(20240817)
    worst = 0.0
    for trial in range(20):
        pick = rng.derive("shape", trial)
        d, h, o = (int(pick.uniform() * 8) + 1 for _ in range(3))
        t_len = int(pick.uniform() * 10) + 1
        net = init_network(NetworkDims(d, h, o), rng.derive("net", trial))
        data = rng.derive("data", trial)
        frames = data.normals((t_len, d))
        labels = (data.uniforms(t_len) * o).astype(np.int64)
        grad = sequence_gradient(net, frames, labels)
        oracle = finite_difference_gradient(net, frames, labels, h=1e-6)
        worst = max(worst, _rel_err(grad, oracle))
    elapsed = time.monotonic() - t0
    ok = worst < FD_TOLERANCE and elapsed < 30.0
    report(
        f"[gate 01] backward vs central differences, 20 random nets: "
        f"{'PASS' if ok else 'FAIL'} (max rel err {worst:.2e}, {elapsed:.1f}s)"
    )
    assert ok


def test_gate_02_noiseless_release_degenerates_to_plain_sgd(report):
    t0 = time.monotonic()
    dims = NetworkDims(3, 4, 5)
    data = synth_generate(
        SynthSpec(feature_dim=3, num_classes=5, n_speakers=2,
                  sequences_per_speaker=4, frames_per_sequence=6),
        RandomSource(5),
    )
    steps, lr, batch = 10, 0.05, 2
    cfg = SessionConfig(
        n_workers=1, total_steps=steps, learning_rate=lr, dims=dims, init_seed=77
    )
    spec = WorkerSpec(
        worker_id=0,
        dp_config=DpSgdConfig(
            clip_bound=1e9,
            step_params=PrivacyParams(1.0, 0.0),
            learning_rate=lr,
            batch_size=batch,
            noisy=False,
        ),
        dataset=data,
        budget=PrivacyParams(1.0, 0.5),
        seed=4242,
    )
    session_net = inproc_session(cfg, [spec]).networks[0]

    # plain SGD with the same batch order and the same mean arithmetic
    net = init_network(dims, RandomSource(77))
    sampler = BatchSampler(data.sequences, batch, RandomSource(4242).derive("batches"))
    for _ in range(steps):
        grads = per_example_gradients(net, sampler.next_batch())
        total = np.zeros(net.parameter_count)
        for g in grads:
            total += g
        net = apply_update(net, total / len(grads), lr)

    diff = float(np.max(np.abs(session_net.flatten() - net.flatten())))
    elapsed = time.monotonic() - t0
    ok = diff < DEGENERACY_TOLERANCE and elapsed < 10.0
    report(
        f"[gate 02] noiseless federated run equals plain SGD: "
        f"{'PASS' if ok else 'FAIL'} (max param diff {diff:.2e}, {elapsed:.1f}s)"
    )
    assert ok


def test_gate_03_noise_calibration_values(report):
    bounds = ClampBounds(0.0, 100.0)
    scale = mean_sensitivity(bounds, 10) / 1.0
    scale_exact = scale == 10.0

    # behavioral cross-check: dp_mean must add exactly that Laplace draw
    values = [float(x) for x in range(0, 100, 10)]
    released = dp_mean(values, bounds, 1.0, RandomSource(31))
    replayed = sum(values) / 10.0 + laplace_sample(10.0, RandomSource(31))
    behave_exact = released == replayed

    sigma = gaussian_sigma(1.0, PrivacyParams(100.0, 1e-6))
    sigma_close = abs(sigma - 0.052992) < SIGMA_TOLERANCE

    dp_cfg = DpSgdConfig(
        clip_bound=1.0,
        step_params=PrivacyParams(100.0, 1e-6),
        learning_rate=1e-4,
        batch_size=4,
        noise_override=0.098,
    )
    override_exact = noise_sigma(dp_cfg, dp_cfg.batch_size) == 0.098

    ok = scale_exact and behave_exact and sigma_close and override_exact
    report(
        f"[gate 03] noise calibration: {'PASS' if ok else 'FAIL'} "
        f"(laplace scale {scale:g}, gaussian sigma {sigma:.6f}, override 0.098 "
        f"{'exact' if override_exact else 'NOT exact'})"
    )
    assert ok


def test_gate_04_empirical_ratio_respects_epsilon(report):
    t0 = time.monotonic()
    bounds = ClampBounds(0.0, 100.0)
    d = [float(x) for x in range(0, 100, 10)]
    d_adj = list(d)
    d_adj[0] = 100.0  # worst case: one record moves across the whole clamp range
    rng = RandomSource(2718281828)
    margins = []
    ok = True
    for eps in (0.5, 1.0, 2.0):
        probe = distinguishability_probe(
            lambda data, r, e=eps: dp_mean(data, bounds, e, r),
            d,
            d_adj,
            PrivacyParams(eps, 0.0),
            n_samples=1_000_000,
            n_bins=20,
            rng=rng.derive("probe", f"eps {eps}"),
        )
        bound = math.exp(eps) * PROBE_SLACK
        margins.append(f"eps={eps:g}: {probe.max_ratio:.3f}<={bound:.3f}")
        ok = ok and probe.max_ratio <= bound
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    report(
        f"[gate 04] empirical likelihood ratios under the epsilon bound: "
        f"{'PASS' if ok else 'FAIL'} ({'; '.join(margins)}; {elapsed:.1f}s)"
    )
    assert ok


def test_gate_05_ledger_composition_is_exact(report):
    t0 = time.monotonic()
    ledger = AccountLedger(PrivacyParams(500.0, 1e-3))
    step = PrivacyParams(0.5, 1e-6)
    for i in range(1000):
        ledger = compose(ledger, f"step {i}", step)
    spent_exact = ledger.spent.epsilon == 500.0 and ledger.spent.delta == 1e-3
    overran = False
    try:
        compose(ledger, "step 1000", step)
    except BudgetExceeded:
        overran = True
    elapsed = time.monotonic() - t0
    ok = spent_exact and overran and elapsed < 1.0
    report(
        f"[gate 05] 1000-step ledger totals exact and step 1001 refused: "
        f"{'PASS' if ok else 'FAIL'} (spent=({ledger.spent.epsilon!r}, "
        f"{ledger.spent.delta!r}), {elapsed:.2f}s)"
    )
    assert ok


def _mixed_specs(data, lr):
    configs = [
        DpSgdConfig(clip_bound=1e9, step_params=PrivacyParams(1.0, 0.0),
                    learning_rate=lr, batch_size=2, noisy=False),
        DpSgdConfig(clip_bound=1.0, step_params=PrivacyParams(100.0, 1e-6),
                    learning_rate=lr, batch_size=2, noise_override=0.098),
        DpSgdConfig(clip_bound=1.0, step_params=PrivacyParams(50.0, 1e-6),
                    learning_rate=lr, batch_size=2),
    ]
    return [
        WorkerSpec(worker_id=wid, dp_config=cfg, dataset=data,
                   budget=PrivacyParams(1e6, 0.5), seed=1000 + wid)
        for wid, cfg in enumerate(configs)
    ]


def test_gate_06_replicas_stay_synchronized(report):
    t0 = time.monotonic()
    dims = NetworkDims(3, 4, 5)
    data = synth_generate(
        SynthSpec(feature_dim=3, num_classes=5, n_speakers=3,
                  sequences_per_speaker=3, frames_per_sequence=5),
        RandomSource(8),
    )
    steps = 20
    cfg = SessionConfig(n_workers=3, total_steps=steps, learning_rate=0.05,
                        dims=dims, init_seed=21)
    rounds_in_sync = []

    def on_round(step, nets):
        digests = {
            hashlib.sha256(nets[wid].flatten().tobytes()).hexdigest() for wid in nets
        }
        rounds_in_sync.append(len(digests) == 1)

    result = inproc_session(cfg, _mixed_specs(data, 0.05), on_round=on_round)
    letters = "".join(entry.kind[0] for entry in result.transcript)
    shape_ok = re.fullmatch(r"H{3}I{3}(?:G{3}A{3}){20}D{3}", letters) is not None
    elapsed = time.monotonic() - t0
    ok = len(rounds_in_sync) == steps and all(rounds_in_sync) and shape_ok and elapsed < 60.0
    report(
        f"[gate 06] 3 replicas hash-identical after every one of {steps} rounds, "
        f"transcript well-formed: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
    )
    assert ok


def test_gate_07_tcp_matches_inproc_bitwise(report):
    t0 = time.monotonic()
    dims = NetworkDims(3, 4, 5)
    data = synth_generate(
        SynthSpec(feature_dim=3, num_classes=5, n_speakers=3,
                  sequences_per_speaker=3, frames_per_sequence=5),
        RandomSource(8),
    )
    cfg = SessionConfig(n_workers=3, total_steps=5, learning_rate=0.05,
                        dims=dims, init_seed=21, timeout=30.0)
    inproc = inproc_session(cfg, _mixed_specs(data, 0.05))

    coordinator = Coordinator(cfg)
    address = coordinator.bind()
    summary_box = {}
    results = {}

    def run_coord():
        summary_box["summary"] = coordinator.run()

    threads = [threading.Thread(target=run_coord)]
    threads += [
        threading.Thread(
            target=lambda s=s: results.update({s.worker_id: worker_run(address, s, 30.0)})
        )
        for s in _mixed_specs(data, 0.05)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    hung = any(t.is_alive() for t in threads)

    same = not hung and all(
        np.array_equal(results[wid].network.flatten(), inproc.networks[wid].flatten())
        for wid in inproc.networks
    )
    elapsed = time.monotonic() - t0
    ok = same and summary_box["summary"].clean and elapsed < 120.0
    report(
        f"[gate 07] TCP session reproduces the in-process session bitwise: "
        f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
    )
    assert ok


def test_gate_08_membership_gap_pattern(report):
    t0 = time.monotonic()
    lines = []
    passes = 0
    for seed in SEEDS:
        r = run_membership_experiment(MembershipConfig(seed=seed))
        open_ok = r.open_gap.gap_points >= GAP_LEAK_MIN_POINTS
        dp_ok = abs(r.dp_gap.gap_points) <= GAP_SUPPRESSED_BAND_POINTS
        indist_ok = r.dp_indist >= r.baseline_indist - INDIST_MAX_DROP
        seed_ok = open_ok and dp_ok and indist_ok
        passes += seed_ok
        lines.append(
            f"seed {seed}: open {r.open_gap.gap_points:+.1f}, "
            f"private {r.dp_gap.gap_points:+.1f}, "
            f"in-dist drop {r.indist_drop_points:+.2f} "
            f"-> {'ok' if seed_ok else 'no'}"
        )
    elapsed = time.monotonic() - t0
    ok = passes >= 2 and elapsed < 600.0
    report(
        f"[gate 08] outlier exposed by open training, hidden by private training "
        f"({passes}/3 seeds): {'PASS' if ok else 'FAIL'} "
        f"({'; '.join(lines)}; {elapsed:.0f}s)"
    )
    assert ok


def test_gate_09_codec_and_file_round_trips(report, tmp_path):
    t0 = time.monotonic()
    rng = RandomSource(909)
    cases = 0
    ok = True

    def rand_message(i):
        pick = rng.derive("msg", i)
        kind = i % 7
        if kind == 0:
            return Hello(worker_id=int(pick.uniform() * 2**32))
        if kind == 1:
            dims = NetworkDims(int(pick.uniform() * 4) + 1,
                               int(pick.uniform() * 4) + 1,
                               int(pick.uniform() * 4) + 1)
            return Init(dims=dims, total_steps=int(pick.uniform() * 100),
                        learning_rate=pick.uniform() + 1e-6,
                        seed=pick.derive_seed("seed"))
        if kind == 2:
            dims = NetworkDims(2, int(pick.uniform() * 3) + 1, 3)
            return Init(dims=dims, total_steps=int(pick.uniform() * 100),
                        learning_rate=pick.uniform() + 1e-6,
                        parameters=pick.normals(dims.parameter_count))
        if kind == 3:
            return Grad(
                step_id=int(pick.uniform() * 1000),
                vector=pick.normals(int(pick.uniform() * 30) + 1),
                spent=PrivacyParams(pick.uniform() * 10, pick.uniform() * 1e-3),
            )
        if kind == 4:
            return Avg(step_id=int(pick.uniform() * 1000),
                       vector=pick.normals(int(pick.uniform() * 30) + 1))
        if kind == 5:
            return Done(steps_completed=int(pick.uniform() * 1000))
        return Abort(code=int(pick.uniform() * 4) + 1, reason=f"reason ✓ {i}")

    for i in range(880):
        msg = rand_message(i)
        ok = ok and decode(encode(msg)) == msg
        cases += 1

    for i in range(60):
        pick = rng.derive("seno", i)
        spec = SynthSpec(
            feature_dim=int(pick.uniform() * 5) + 1,
            num_classes=int(pick.uniform() * 6) + 2,
            n_speakers=int(pick.uniform() * 3) + 1,
            sequences_per_speaker=int(pick.uniform() * 3) + 1,
            frames_per_sequence=int(pick.uniform() * 6) + 1,
        )
        path = tmp_path / f"case_{i}.seno"
        write_dataset(synth_generate(spec, pick.derive("gen")), path)
        first = path.read_bytes()
        write_dataset(read_dataset(path), path)
        ok = ok and path.read_bytes() == first
        cases += 1

    for i in range(60):
        pick = rng.derive("net", i)
        dims = NetworkDims(int(pick.uniform() * 4) + 1,
                           int(pick.uniform() * 4) + 1,
                           int(pick.uniform() * 4) + 1)
        net = init_network(dims, pick.derive("init"))
        path = tmp_path / f"case_{i}.net"
        net.save(path)
        first = path.read_bytes()
        Network.load(path).save(path)
        ok = ok and path.read_bytes() == first
        cases += 1

    elapsed = time.monotonic() - t0
    ok = ok and cases == 1000 and elapsed < 30.0
    report(
        f"[gate 09] {cases} randomized codec and file round trips bit-exact: "
        f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
    )
    assert ok


def test_gate_10_budget_exhaustion_stops_cleanly(report):
    t0 = time.monotonic()
    k = 3
    dims = NetworkDims(3, 4, 5)
    data = synth_generate(
        SynthSpec(feature_dim=3, num_classes=5, n_speakers=2,
                  sequences_per_speaker=3, frames_per_sequence=5),
        RandomSource(9),
    )
    cfg = SessionConfig(n_workers=1, total_steps=6, learning_rate=0.05,
                        dims=dims, init_seed=3, timeout=20.0)
    spec = WorkerSpec(
        worker_id=0,
        dp_config=DpSgdConfig(clip_bound=1.0, step_params=PrivacyParams(100.0, 1e-6),
                              learning_rate=0.05, batch_size=2, noise_override=0.098),
        dataset=data,
        budget=PrivacyParams(math.fsum([100.0] * k), math.fsum([1e-6] * k)),
        seed=55,
    )
    coordinator = Coordinator(cfg)
    address = coordinator.bind()
    summary_box = {}
    coord_thread = threading.Thread(target=lambda: summary_box.update(s=coordinator.run()))
    coord_thread.start()
    result = worker_run(address, spec, timeout=20.0)
    coord_thread.join(timeout=30)

    summary = summary_box.get("s")
    ok = (
        not coord_thread.is_alive()
        and result.steps_completed == k
        and result.aborted == ABORT_BUDGET
        and len(result.ledger.entries) == k
        and summary is not None
        and summary.aborted == ABORT_BUDGET
        and summary.steps_completed == k
    )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    report(
        f"[gate 10] budget for {k} steps: {k} rounds, then refusal and a clean stop: "
        f"{'PASS' if ok else 'FAIL'} (ledger entries {len(result.ledger.entries)}, "
        f"{elapsed:.1f}s)"
    )
    assert ok
