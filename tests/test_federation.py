import dataclasses
import random
import re
import socket
import struct
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from dpfed import dpsgd, federation
from dpfed.data import SynthSpec, synth_generate
from dpfed.dpsgd import BatchSampler, DpSgdConfig, per_example_gradients
from dpfed.errors import DecodeError, DpFedError, InvalidValue, ProtocolError, TimedOut
from dpfed.federation import (
    Coordinator,
    MessageStream,
    SessionConfig,
    WorkerSpec,
    average_releases,
    inproc_session,
    worker_run,
    write_transcript,
)
from dpfed.network import NetworkDims, apply_update, init_network
from dpfed.privacy import PrivacyParams
from dpfed.rng import RandomSource
from dpfed.wire import (
    ABORT_BUDGET,
    ABORT_DECODE,
    ABORT_PROTOCOL,
    ABORT_TIMEOUT,
    GRAD_HEADER_LEN,
    HEADER_LEN,
    MAGIC,
    TAG_AVG,
    TAG_GRAD,
    TAG_INIT,
    Abort,
    Avg,
    Grad,
    Hello,
    Init,
    abort_name,
    encode,
)
from test_wire import mutate_frame

DIMS = NetworkDims(3, 4, 5)


def worker_dataset(seed, frames=5, classes=5):
    spec = SynthSpec(
        feature_dim=3,
        num_classes=classes,
        n_speakers=1,
        sequences_per_speaker=4,
        frames_per_sequence=frames,
    )
    return synth_generate(spec, RandomSource(seed))


def make_spec(worker_id, noise_override=0.01, budget_eps=1000.0, clip=1.0, frames=5, classes=5):
    cfg = DpSgdConfig(
        clip_bound=clip,
        step_params=PrivacyParams(0.5, 1e-6),
        learning_rate=0.05,
        batch_size=2,
        noise_override=noise_override,
    )
    return WorkerSpec(
        worker_id=worker_id,
        dp_config=cfg,
        dataset=worker_dataset(100 + worker_id, frames, classes),
        budget=PrivacyParams(budget_eps, 1e-2),
        seed=200 + worker_id,
    )


def session_cfg(n_workers, steps, **over):
    base = dict(
        n_workers=n_workers,
        total_steps=steps,
        learning_rate=0.05,
        dims=DIMS,
        init_seed=7,
        timeout=20.0,
    )
    base.update(over)
    return SessionConfig(**base)


def run_tcp(cfg, specs):
    coord = Coordinator(cfg)
    address = coord.bind()
    box = {}

    def coord_main():
        box["summary"] = coord.run()

    threads = [threading.Thread(target=coord_main)]
    results = {}

    def worker_main(spec):
        results[spec.worker_id] = worker_run(address, spec, timeout=cfg.timeout)

    threads += [threading.Thread(target=worker_main, args=(s,)) for s in specs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive(), "session deadlocked"
    return box["summary"], results, coord.transcript


def test_average_releases_order_and_checks():
    # _charge_grad checks step and length: the wrong-step and short bad-frame cases
    mk = lambda step, vec: Grad(step, np.array(vec), PrivacyParams(0.0, 0.0))
    avg = average_releases([mk(0, [1.0, 2.0]), mk(0, [3.0, 4.0])])
    assert np.array_equal(avg, np.array([2.0, 3.0]))


def test_session_config_validation():
    with pytest.raises(InvalidValue):
        session_cfg(0, 1)
    with pytest.raises(InvalidValue):
        session_cfg(1, 1, init_seed=None)
    with pytest.raises(InvalidValue):
        session_cfg(1, 1, init_parameters=np.zeros(DIMS.parameter_count))  # both sources
    for timeout in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidValue):
            session_cfg(1, 1, timeout=timeout)
    for port in (-1, 65536, 70000):
        with pytest.raises(InvalidValue):
            session_cfg(1, 1, port=port)
    # everything INIT refuses is refused before any socket exists
    for seed in (2**64, -1):
        with pytest.raises(InvalidValue):
            session_cfg(1, 1, init_seed=seed)
    with pytest.raises(InvalidValue):
        session_cfg(1, 1, init_seed=None, init_parameters=np.zeros(DIMS.parameter_count - 1))
    for steps in (-1, 2**32):
        with pytest.raises(InvalidValue):
            session_cfg(1, steps)
    with pytest.raises(InvalidValue):
        session_cfg(1, 1, dims=NetworkDims(2**32, 1, 1))
    for lr in (0.0, float("nan")):
        with pytest.raises(InvalidValue):
            session_cfg(1, 1, learning_rate=lr)
    # no more workers than distinct u32 ids
    session_cfg(2**32, 1)
    for n in (2**32 + 1, 2**40):
        with pytest.raises(InvalidValue):
            session_cfg(n, 1)


def test_bind_caps_listen_backlog():
    # listen() takes a C int; a backlog past SOMAXCONN buys nothing, so the
    # largest session binds like any other (and no worker is started)
    coord = Coordinator(session_cfg(2**32, 1))
    try:
        assert coord.bind()[1] > 0
    finally:
        if coord._listener is not None:
            coord._listener.close()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_session_config_refuses_non_finite_init_parameters(bad):
    # a one-worker session from a model with inf at wx[0, 0] used to run
    # every round, charge every release and end with the inf still there
    params = init_network(DIMS, RandomSource(7)).flatten().copy()
    params[0] = bad
    with pytest.raises(InvalidValue, match="model parameters must be finite"):
        session_cfg(1, 2, init_seed=None, init_parameters=params)


def test_session_config_keeps_its_own_copy_of_init_parameters():
    # the config used to build INIT from the caller's array on every use, so
    # inf written there after construction reached the round driver as an
    # uncaught InvalidValue
    params = init_network(DIMS, RandomSource(7)).flatten().copy()
    cfg = session_cfg(1, 2, init_seed=None, init_parameters=params)
    params[0] = np.inf
    assert np.isfinite(cfg.init_parameters).all()
    result = inproc_session(cfg, [make_spec(0)])
    from_seed = inproc_session(session_cfg(1, 2), [make_spec(0)])
    assert result.summary.clean
    assert np.array_equal(result.networks[0].flatten(), from_seed.networks[0].flatten())


def test_second_bind_is_refused_and_leaks_no_socket():
    # a second listening socket used to replace the first, left open
    coord = Coordinator(session_cfg(1, 1))
    coord.bind()
    try:
        with pytest.raises(InvalidValue, match="serves one session"):
            coord.bind()
    finally:
        coord._listener.close()


def test_run_after_a_timed_out_run_is_refused():
    # the second run used to reach the closed listener: a raw OSError
    coord = Coordinator(session_cfg(1, 1, timeout=0.2))
    with pytest.raises(TimedOut):
        coord.run()  # no worker ever connects
    for again in (coord.run, coord.bind):
        with pytest.raises(InvalidValue, match="serves one session"):
            again()


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
def test_worker_run_rejects_bad_timeout(timeout):
    # refused before any socket is opened, so the address is never tried
    with pytest.raises(InvalidValue):
        worker_run(("127.0.0.1", 1), make_spec(0), timeout=timeout)


@pytest.mark.parametrize("port", [-1, 65536, 70000])
def test_worker_run_rejects_bad_port(port):
    # 70000 used to wrap to 4464 and connect there
    with pytest.raises(InvalidValue):
        worker_run(("127.0.0.1", port), make_spec(0), timeout=0.5)


def test_zero_steps_returns_init_model():
    cfg = session_cfg(1, 0)
    result = inproc_session(cfg, [make_spec(0)])
    expected = init_network(DIMS, RandomSource(7))
    assert np.array_equal(result.networks[0].flatten(), expected.flatten())
    assert result.summary.clean
    assert result.summary.steps_completed == 0


def test_single_worker_plain_session_equals_local_sgd():
    # no noise and a clip far above any norm: federated averaging over one
    # worker must reproduce plain mini-batch SGD bit for bit
    steps, lr = 10, 0.05
    spec = make_spec(0, noise_override=0.0, clip=1e9)
    cfg = session_cfg(1, steps, learning_rate=lr)
    result = inproc_session(cfg, [spec])

    net = init_network(DIMS, RandomSource(7))
    sampler = BatchSampler(spec.dataset.sequences, spec.dp_config.batch_size, RandomSource(spec.seed).derive("batches"))
    for _ in range(steps):
        batch = sampler.next_batch()
        grads = per_example_gradients(net, batch)
        acc = np.zeros_like(grads[0])
        for g in grads:
            acc += g
        acc /= len(grads)
        net = apply_update(net, acc, lr)

    diff = np.abs(result.networks[0].flatten() - net.flatten()).max()
    assert diff == 0.0


def test_inproc_replicas_stay_identical():
    specs = [make_spec(0), make_spec(1, noise_override=0.0), make_spec(2)]
    cfg = session_cfg(3, 6)
    seen = []

    def check(step, nets):
        flats = [nets[w].flatten() for w in sorted(nets)]
        assert all(np.array_equal(flats[0], f) for f in flats[1:])
        seen.append(step)

    result = inproc_session(cfg, specs, on_round=check)
    assert seen == list(range(6))
    assert result.summary.clean
    # every worker ends with the same bits
    flats = [result.networks[w].flatten() for w in sorted(result.networks)]
    assert all(np.array_equal(flats[0], f) for f in flats[1:])


def test_inproc_round_makes_one_gradient_call(monkeypatch):
    # the replicas hold byte-equal models, so each round's batches share one
    # call, counted by rebinding dpsgd's name as a profiler would
    calls = []
    original = dpsgd.per_example_gradients

    def counting(net, batch):
        grads = original(net, batch)
        calls.append(len(grads))
        return grads

    monkeypatch.setattr(dpsgd, "per_example_gradients", counting)
    specs = [make_spec(w) for w in range(3)]
    specs[1].dp_config = dataclasses.replace(specs[1].dp_config, batch_size=3)  # 3, 1, 3, ... of its 4 sequences
    steps = 5
    result = inproc_session(session_cfg(3, steps), specs)
    assert result.summary.clean
    per_round = np.zeros(steps, dtype=int)
    for spec in specs:
        sampler = BatchSampler(spec.dataset.sequences, spec.dp_config.batch_size, RandomSource(spec.seed).derive("batches"))
        per_round += [len(sampler.next_batch()) for _ in range(steps)]
    assert calls == list(per_round) == [7, 5, 7, 5, 7]


@pytest.mark.parametrize(
    "classes, steps, calls_each", [((5, 5, 5), 5, 5), ((5, 6, 5), 0, 1)], ids=["clean", "worker1-labels-past-classes"]
)
def test_tcp_worker_makes_one_gradient_call_per_round(monkeypatch, classes, steps, calls_each):
    # a TCP worker is a group of one: one call per round it releases, and
    # worker 1's failing step-0 call is not made a second time
    specs = [make_spec(w, noise_override=0.0 if w == 2 else 0.01, classes=o) for w, o in enumerate(classes)]
    owner = {id(seq): spec.worker_id for spec in specs for seq in spec.dataset.sequences}
    calls = Counter()
    lock = threading.Lock()
    original = dpsgd.per_example_gradients

    def counting(net, batch):
        with lock:
            calls[owner[id(batch[0])]] += 1
        return original(net, batch)

    monkeypatch.setattr(dpsgd, "per_example_gradients", counting)
    summary, _, _ = run_tcp(session_cfg(3, 5), specs)
    assert summary.steps_completed == steps
    assert dict(calls) == {0: calls_each, 1: calls_each, 2: calls_each}


def test_inproc_transcript_shape():
    specs = [make_spec(i) for i in range(3)]
    result = inproc_session(session_cfg(3, 4), specs)
    kinds = "".join(e.kind[0] for e in result.transcript)  # H, I, G, A, D
    assert re.fullmatch(r"H{3}I{3}(G{3}A{3}){4}D{3}", kinds)
    lines = [e.line() for e in result.transcript]
    assert all(len(l.split("\t")) == 5 for l in lines)


def test_inproc_ledger_accounting():
    specs = [make_spec(0), make_spec(1, noise_override=0.0)]
    result = inproc_session(session_cfg(2, 5), specs)
    assert len(result.ledgers[0].entries) == 5
    # the correctly rounded sum of five copies of the double 1e-6
    exact_delta = float(Fraction(1e-6) * 5)
    assert result.ledgers[0].spent == PrivacyParams(2.5, exact_delta)
    assert len(result.ledgers[1].entries) == 0
    assert result.summary.per_worker_spent[0] == PrivacyParams(2.5, exact_delta)
    assert result.summary.per_worker_spent[1] == PrivacyParams(0.0, 0.0)


def test_inproc_budget_abort_after_exact_steps():
    # budget admits exactly 3 noisy steps of (0.5, 1e-6)
    spec = make_spec(0, budget_eps=1.5)
    cfg = session_cfg(1, 10)
    result = inproc_session(cfg, [spec])
    assert result.summary.aborted == ABORT_BUDGET
    assert result.summary.steps_completed == 3
    assert len(result.ledgers[0].entries) == 3
    assert result.ledgers[0].spent.epsilon == 1.5
    kinds = [e.kind for e in result.transcript]
    assert kinds.count("ABORT") == 2  # one received, one broadcast back
    assert kinds[-1] == "ABORT"


def test_inproc_epsilon_total_overflow_aborts_on_budget():
    # a budget near the largest double: the second step's total overflows
    spec = make_spec(0)
    spec.dp_config = DpSgdConfig(
        clip_bound=1.0,
        step_params=PrivacyParams(1e308, 1e-6),
        learning_rate=0.05,
        batch_size=2,
        noise_override=0.01,
    )
    spec.budget = PrivacyParams(1.7e308, 1e-2)
    result = inproc_session(session_cfg(1, 3), [spec])
    assert result.summary.aborted == ABORT_BUDGET
    assert result.summary.steps_completed == 1
    assert result.summary.per_worker_spent[0] == PrivacyParams(1e308, 1e-6)
    assert len(result.ledgers[0].entries) == 1


def test_write_transcript(tmp_path):
    result = inproc_session(session_cfg(1, 1), [make_spec(0)])
    path = tmp_path / "transcript.tsv"
    write_transcript(result.transcript, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(result.transcript)
    first = lines[0].split("\t")
    assert first[0] == "recv" and first[2] == "HELLO"


_ROOMY = (1000.0, 1000.0, 1000.0)


@pytest.mark.parametrize(
    "budgets, frames, classes, aborted, steps",
    [
        (_ROOMY, (5, 5, 5), (5, 5, 5), None, 5),
        # a budget of 1.0 affords exactly 2 noisy releases of 0.5
        ((1.0, 1000.0, 1000.0), (5, 5, 5), (5, 5, 5), ABORT_BUDGET, 2),
        ((1000.0, 1.0, 1000.0), (5, 5, 5), (5, 5, 5), ABORT_BUDGET, 2),
        # in process, one merged gradient call holds sequences of two lengths
        (_ROOMY, (5, 7, 5), (5, 5, 5), None, 5),
        # worker 1's labels reach past the model's 5 classes, so the merged
        # call fails and worker 1 alone refuses its step-0 release
        (_ROOMY, (5, 5, 5), (5, 6, 5), ABORT_PROTOCOL, 0),
    ],
    ids=["clean", "worker0-out-of-budget", "worker1-out-of-budget", "mixed-lengths", "worker1-labels-past-classes"],
)
def test_tcp_session_matches_inproc_bit_for_bit(budgets, frames, classes, aborted, steps):
    specs = [
        make_spec(w, noise_override=0.0 if w == 2 else 0.01, budget_eps=eps, frames=t, classes=o)
        for w, (eps, t, o) in enumerate(zip(budgets, frames, classes))
    ]
    cfg = session_cfg(3, 5)
    local = inproc_session(cfg, specs)
    summary, results, transcript = run_tcp(cfg, specs)

    assert summary == local.summary
    assert summary.aborted == aborted
    assert summary.steps_completed == steps
    for wid in (0, 1, 2):
        assert results[wid].aborted == summary.aborted
        assert results[wid].steps_completed == summary.steps_completed
        assert np.array_equal(results[wid].network.flatten(), local.networks[wid].flatten())
        assert len(results[wid].ledger.entries) == len(local.ledgers[wid].entries)
        assert results[wid].ledger.spent == local.ledgers[wid].spent
    # TCP records HELLOs in accept order; everything after is in a fixed order
    tcp_lines = [e.line() for e in transcript]
    local_lines = [e.line() for e in local.transcript]
    assert set(tcp_lines[:3]) == set(local_lines[:3])
    assert tcp_lines[3:] == local_lines[3:]


def test_tcp_budget_abort_propagates():
    # worker 1 can afford exactly 2 steps; everyone must stop at step 2
    specs = [make_spec(0), make_spec(1, budget_eps=1.0)]
    cfg = session_cfg(2, 8)
    summary, results, _ = run_tcp(cfg, specs)
    assert summary.aborted == ABORT_BUDGET
    assert summary.steps_completed == 2
    assert results[1].aborted == ABORT_BUDGET
    assert results[1].steps_completed == 2
    assert len(results[1].ledger.entries) == 2
    assert results[0].aborted == ABORT_BUDGET  # relayed
    # the completed rounds were still applied identically on both workers
    assert np.array_equal(results[0].network.flatten(), results[1].network.flatten())


def test_duplicate_worker_ids_rejected():
    cfg = session_cfg(2, 3)
    with pytest.raises(InvalidValue):
        inproc_session(cfg, [make_spec(0), make_spec(0)])


def _grad_frame(step=0, length=DIMS.parameter_count, fill=0.0, spent=(0.0, 0.0)):
    return encode(Grad(step, np.full(length, fill), PrivacyParams(*spent)))


@pytest.mark.parametrize(
    "frames, code, recorded",
    [
        ([_grad_frame(fill=float("nan"))], ABORT_PROTOCOL, True),
        ([_grad_frame(length=DIMS.parameter_count - 1)], ABORT_PROTOCOL, True),
        ([_grad_frame(step=1)], ABORT_PROTOCOL, True),
        ([_grad_frame(length=DIMS.parameter_count + 1)], ABORT_DECODE, False),
        ([MAGIC + struct.pack("<BI", TAG_GRAD, 0xFFFFFFFF)], ABORT_DECODE, False),
        ([_grad_frame(spent=(1.0, 0.6)), _grad_frame(step=1, spent=(1.0, 0.6))], ABORT_PROTOCOL, True),
        ([_grad_frame(spent=(1.7e308, 0.0)), _grad_frame(step=1, spent=(1.7e308, 0.0))], ABORT_PROTOCOL, True),
    ],
    ids=["nan", "short", "wrong-step", "over-long", "huge-header",
         "delta-total-past-1", "epsilon-total-overflows"],
)
def test_bad_worker_frame_aborts_session_cleanly(frames, code, recorded):
    # worker 1 is a script that says HELLO, then answers INIT and each AVG
    # with the next frame; every frame but the last is a valid GRAD
    cfg = session_cfg(2, 3, timeout=10.0)
    coord = Coordinator(cfg)
    address = coord.bind()
    box = {}
    steps = len(frames) - 1

    def fake_worker():
        with socket.create_connection(address, timeout=10.0) as sock:
            stream = MessageStream(sock)
            sock.sendall(encode(Hello(1)))
            for frame in frames:
                stream.recv()  # INIT, then the AVG of the step before
                sock.sendall(frame)
            try:
                box["reply"] = sock.recv(1 << 20)
            except OSError:
                pass  # the coordinator may reset a connection it stopped reading

    threads = [
        threading.Thread(target=lambda: box.update(summary=coord.run())),
        threading.Thread(target=lambda: box.update(honest=worker_run(address, make_spec(0), 10.0))),
        threading.Thread(target=fake_worker),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive(), "session hung"

    assert box["summary"].aborted == code
    assert box["summary"].steps_completed == steps
    assert box["honest"].aborted == code
    assert box["honest"].steps_completed == steps
    assert len(box["honest"].ledger.entries) == steps + 1  # with the release for the aborted step
    recv = [(e.worker_id, e.kind) for e in coord.transcript if e.direction == "recv"]
    assert ((1, "GRAD") in recv) == recorded
    assert [e.kind for e in coord.transcript][-2:] == ["ABORT", "ABORT"]


@pytest.mark.parametrize(
    "bad_frame, code, raised",
    [(encode(Hello(1, protocol_version=9)), ABORT_PROTOCOL, ProtocolError),
     (encode(Hello(1, protocol_version=1)), ABORT_PROTOCOL, ProtocolError),
     (b"XXXX" + encode(Hello(1))[4:], ABORT_DECODE, DecodeError),
     (None, ABORT_TIMEOUT, TimedOut)],
    ids=["bad-hello", "v1-hello", "bad-magic", "accept-timeout"],
)
def test_failed_admission_aborts_admitted_workers(bad_frame, code, raised):
    # an honest worker is admitted; then a raw socket says HELLO for protocol
    # version 9 or 1 (whose GRAD carried a batch size), or sends a frame
    # with a bad magic, or nobody else connects before the coordinator's timeout
    bad_peer = bad_frame is not None
    cfg = session_cfg(2, 3, timeout=10.0 if bad_peer else 0.5)
    coord = Coordinator(cfg)
    address = coord.bind()
    box = {}

    def run(name, fn):
        try:
            fn()
        except DpFedError as exc:
            box[name] = exc

    threads = [
        threading.Thread(target=run, args=("coordinator", coord.run)),
        threading.Thread(target=run, args=("honest", lambda: worker_run(address, make_spec(0), 10.0))),
    ]
    for t in threads:
        t.start()
    if bad_peer:
        deadline = time.monotonic() + 10.0
        while not coord.transcript and time.monotonic() < deadline:
            time.sleep(0.01)  # until the honest HELLO is in
        with socket.create_connection(address, timeout=10.0) as sock:
            sock.sendall(bad_frame)
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive(), "session hung"

    assert isinstance(box["coordinator"], raised)
    assert isinstance(box["honest"], ProtocolError)
    assert f"ABORT ({abort_name(code)})" in str(box["honest"])
    assert [(e.direction, e.worker_id, e.kind) for e in coord.transcript] == [
        ("recv", 0, "HELLO"), ("send", 0, "ABORT"),
    ]


def _trickle(sock, data, stop, gap=0.1):
    # send one byte per gap, well inside any single recv's timeout
    for i in range(len(data)):
        if stop.wait(gap):
            return
        try:
            sock.sendall(data[i : i + 1])
        except OSError:
            return  # the reader gave up and closed


def test_trickled_frame_times_out_within_one_timeout():
    # 17 HELLO bytes at 0.1 s each take 1.7 s; the frame has 0.3 s in all
    reader, writer = socket.socketpair()
    reader.settimeout(0.3)
    stop = threading.Event()
    sender = threading.Thread(target=_trickle, args=(writer, encode(Hello(1)), stop))
    sender.start()
    try:
        t0 = time.monotonic()
        with pytest.raises(TimedOut):
            MessageStream(reader).recv()
        assert time.monotonic() - t0 < 1.0
    finally:
        stop.set()
        sender.join(timeout=10)
        reader.close()
        writer.close()
    assert not sender.is_alive()


def test_trickling_worker_ends_session_in_timeout_abort():
    # a scripted worker says HELLO, then trickles its first GRAD
    cfg = session_cfg(1, 3, timeout=0.5)
    coord = Coordinator(cfg)
    address = coord.bind()
    box = {}
    stop = threading.Event()

    def fake_worker():
        with socket.create_connection(address, timeout=10.0) as sock:
            sock.sendall(encode(Hello(0)))
            MessageStream(sock).recv()  # INIT
            box["init_at"] = time.monotonic()
            _trickle(sock, _grad_frame(), stop)

    worker = threading.Thread(target=fake_worker)
    worker.start()
    try:
        box["summary"] = coord.run()
        box["ended_at"] = time.monotonic()
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert box["summary"].aborted == ABORT_TIMEOUT
    assert box["summary"].steps_completed == 0
    assert box["ended_at"] - box["init_at"] < 1.5


def test_admission_has_one_deadline():
    # each worker connects and says HELLO 0.3 s after the one before: every
    # wait is inside the 0.5 s timeout, but admitting both takes 0.6 s
    cfg = session_cfg(2, 3, timeout=0.5)
    coord = Coordinator(cfg)
    address = coord.bind()
    stop = threading.Event()

    def late_workers():
        socks = []
        try:
            for wid in range(2):
                if stop.wait(0.3):
                    return
                socks.append(socket.create_connection(address, timeout=10.0))
                socks[-1].sendall(encode(Hello(wid)))
            stop.wait(10.0)
        finally:
            for sock in socks:
                sock.close()

    peers = threading.Thread(target=late_workers)
    peers.start()
    t0 = time.monotonic()
    try:
        with pytest.raises(TimedOut, match="only 1 of 2"):
            coord.run()
        assert time.monotonic() - t0 < 1.0
    finally:
        stop.set()
        peers.join(timeout=10)
    assert not peers.is_alive()
    assert [(e.direction, e.worker_id, e.kind) for e in coord.transcript] == [
        ("recv", 0, "HELLO"), ("send", 0, "ABORT"),
    ]


def test_worker_aborts_on_non_finite_average():
    # a scripted coordinator answers the first release with a NaN average
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)
    box = {}

    def fake_coordinator():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(10.0)
            stream = MessageStream(conn)
            box["hello"], _ = stream.recv()
            stream.send(Init(DIMS, total_steps=3, learning_rate=0.05, seed=7))
            box["grad"], _ = stream.recv()
            stream.send(Avg(0, np.full(DIMS.parameter_count, np.nan)))
            box["reply"], _ = stream.recv()

    thread = threading.Thread(target=fake_coordinator)
    thread.start()
    try:
        result = worker_run(listener.getsockname()[:2], make_spec(0), timeout=10.0)
    finally:
        thread.join(timeout=30)
        listener.close()
    assert not thread.is_alive()

    assert result.aborted == ABORT_PROTOCOL
    assert result.steps_completed == 0
    assert np.array_equal(result.network.flatten(), init_network(DIMS, RandomSource(7)).flatten())
    assert isinstance(box["grad"], Grad)
    assert isinstance(box["reply"], Abort) and box["reply"].code == ABORT_PROTOCOL


def _init_frame(learning_rate):
    # an INIT no Init object can hold: the rate is patched into a valid frame
    frame = bytearray(encode(Init(DIMS, total_steps=3, learning_rate=0.05, seed=7)))
    struct.pack_into("<d", frame, HEADER_LEN + 16, learning_rate)
    return bytes(frame)


def _nan_parameter_init_frame():
    # a parameters-kind INIT with a NaN patched over its first parameter
    params = init_network(DIMS, RandomSource(7)).flatten()
    frame = bytearray(encode(Init(DIMS, total_steps=3, learning_rate=0.05, parameters=params)))
    struct.pack_into("<d", frame, HEADER_LEN + 25, float("nan"))
    return bytes(frame)


# a 42-byte seed INIT whose dims are each 2**31: no GRAD could carry its
# gradient, and numpy could not allocate one
_HUGE_DIMS_INIT = MAGIC + struct.pack("<BI", TAG_INIT, 33) + struct.pack("<IIIIdBQ", *[2**31] * 3, 3, 0.05, 0, 7)


@pytest.mark.parametrize(
    "frame",
    [_init_frame(float("nan")), _init_frame(-1.0), _init_frame(0.0), _nan_parameter_init_frame(), _HUGE_DIMS_INIT],
    ids=["nan", "-1.0", "0.0", "nan-parameter", "huge-dims"],
)
def test_worker_refuses_bad_init_before_releasing(frame):
    # a scripted coordinator sends an INIT that a SessionConfig refuses
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)
    box = {}

    def fake_coordinator():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(10.0)
            box["hello"], _ = MessageStream(conn).recv()
            conn.sendall(frame)
            box["after"] = conn.recv(1 << 16)  # empty once the worker hangs up

    thread = threading.Thread(target=fake_coordinator)
    thread.start()
    try:
        with pytest.raises(DecodeError):
            worker_run(listener.getsockname()[:2], make_spec(0), timeout=10.0)
    finally:
        thread.join(timeout=30)
        listener.close()
    assert not thread.is_alive()
    assert isinstance(box["hello"], Hello)
    assert box["after"] == b""  # no GRAD was sent


def test_worker_refuses_oversized_frame_after_init():
    # a scripted coordinator declares a 2 GiB AVG after the first release and
    # streams 8 MiB of it; the worker must refuse the frame from its header
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)
    body = memoryview(bytes(8 << 20))  # allocated before tracing starts
    box = {}

    def fake_coordinator():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(10.0)
            stream = MessageStream(conn)
            stream.recv()  # HELLO
            stream.send(Init(DIMS, total_steps=3, learning_rate=0.05, seed=7))
            box["grad"], _ = stream.recv()
            try:
                conn.sendall(MAGIC + struct.pack("<BI", TAG_AVG, 2**31))
                conn.sendall(body)
            except OSError:
                pass  # the worker hung up on the header

    spec = make_spec(0)
    "127.0.0.1".encode("idna")  # the codec a first connect imports is not the worker's memory
    thread = threading.Thread(target=fake_coordinator)
    thread.start()
    tracemalloc.start()
    try:
        result = worker_run(listener.getsockname()[:2], spec, timeout=10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        thread.join(timeout=30)
        listener.close()
    assert not thread.is_alive()
    assert isinstance(box["grad"], Grad)
    assert result.aborted == ABORT_DECODE
    assert result.steps_completed == 0
    assert peak < 4 * MessageStream._CHUNK, peak


class _MutatingLink(federation._LocalLink):
    """An in-memory worker link whose GRAD for step ``k`` reaches the
    coordinator mutated by ``rng``, read by a MessageStream with the
    coordinator's cap from a socket that closes after those bytes.
    ``delivered`` is what that read gave the coordinator, None if it raised."""

    def __init__(self, replica, owed, k, rng):
        super().__init__(replica, owed)
        self._k, self._rng = k, rng
        self.delivered = None

    def recv(self):
        msg, size = super().recv()
        if not (isinstance(msg, Grad) and msg.step_id == self._k):
            return msg, size
        writer, reader = socket.socketpair()
        with writer:
            writer.sendall(mutate_frame(encode(msg), self._rng))
        reader.settimeout(5.0)
        stream = MessageStream(reader, GRAD_HEADER_LEN + 8 * DIMS.parameter_count)
        try:
            self.delivered, size = stream.recv()
            return self.delivered, size
        finally:
            stream.close()


def test_one_mutated_grad_ends_session_cleanly_or_in_abort(monkeypatch):
    # worker 1 of 3 sends one corrupted GRAD at a random step k, the last:
    # the session ends cleanly, or at step k with the code that fits what
    # arrived (a later step would only show what an accepted GRAD does to
    # the model)
    specs = [make_spec(w) for w in range(3)]
    rng = random.Random(77)
    local_link = federation._LocalLink
    case = {}

    def link(replica, owed):
        if replica.worker_id != 1:
            return local_link(replica, owed)
        case["link"] = _MutatingLink(replica, owed, case["k"], rng)
        return case["link"]

    monkeypatch.setattr(federation, "_LocalLink", link)
    outcomes = Counter()
    for _ in range(300):
        case["k"] = k = rng.randrange(4)
        result = inproc_session(session_cfg(3, k + 1), specs)
        summary, delivered = result.summary, case["link"].delivered
        outcomes[summary.aborted] += 1
        assert [len(result.ledgers[wid].entries) for wid in (0, 2)] == [k + 1, k + 1]
        if summary.clean:
            assert summary.steps_completed == k + 1
            assert isinstance(delivered, Grad) and delivered.step_id == k
            continue
        assert summary.steps_completed == k
        if delivered is None:
            assert summary.aborted == ABORT_DECODE
        elif isinstance(delivered, Abort):
            assert summary.aborted == delivered.code
        else:
            assert summary.aborted == ABORT_PROTOCOL
    assert {None, ABORT_DECODE, ABORT_PROTOCOL} <= set(outcomes), outcomes
