import ast
import math
import socket
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import dpfed.cli
from dpfed.cli import main
from dpfed.federation import Coordinator, MessageStream, SessionConfig
from dpfed.network import Network, NetworkDims, init_network
from dpfed.privacy import PrivacyParams
from dpfed.rng import RandomSource
from dpfed.wire import MAGIC, TAG_AVG, Grad, Hello, Init, encode

SPEC = """\
feature_dim=5
num_classes=6
n_speakers=4
sequences_per_speaker=6
frames_per_sequence=12
outlier.speaker=3
outlier.multiplier=10
"""


@pytest.fixture
def corpus(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC)
    out = tmp_path / "corpus.seno"
    assert main(["synth", "--spec", str(spec), "--out", str(out), "--seed", "42"]) == 0
    return out


def test_synth_deterministic_and_summary(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC)
    a, b = tmp_path / "a.seno", tmp_path / "b.seno"
    assert main(["synth", "--spec", str(spec), "--out", str(a), "--seed", "7"]) == 0
    summary = capsys.readouterr().out
    assert "speakers   4" in summary
    assert "sequences  24" in summary
    assert "outlier    speaker 3 offset x10" in summary
    assert main(["synth", "--spec", str(spec), "--out", str(b), "--seed", "7"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_usage_errors(tmp_path, capsys):
    out = tmp_path / "x.seno"
    assert main(["synth", "--out", str(out)]) == 2  # no seed
    bad = tmp_path / "bad.txt"
    bad.write_text("feature_dim=5\nwhatever=3\n")
    assert main(["synth", "--spec", str(bad), "--out", str(out), "--seed", "1"]) == 2
    assert "whatever" in capsys.readouterr().err
    half = tmp_path / "half.txt"
    half.write_text("outlier.speaker=2\n")
    assert main(["synth", "--spec", str(half), "--out", str(out), "--seed", "1"]) == 2


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["inspect", "--data", "x", "--frobnicate"])
    assert exc.value.code == 2
    assert "--frobnicate" in capsys.readouterr().err


def test_inspect_lists_speakers(corpus, capsys):
    assert main(["inspect", "--data", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "sequences    24" in out
    assert "speaker    3  6 sequences, 72 frames" in out


def test_warm_start_zero_epochs_writes_fresh_init(corpus, tmp_path):
    model = tmp_path / "warm.net"
    code = main([
        "warm-start", "--data", str(corpus), "--epochs", "0", "--hidden", "6",
        "--out", str(model), "--seed", "33",
    ])
    assert code == 0
    saved = Network.load(model)
    want = init_network(NetworkDims(5, 6, 6), RandomSource(33).derive("init"))
    assert np.array_equal(saved.flatten(), want.flatten())


def test_config_file_supplies_values_and_flags_override(corpus, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data.path={corpus}\ntrain.epochs=2\nmodel.hidden=6\nseed=33\n")
    model = tmp_path / "warm.net"
    # --epochs 0 overrides train.epochs=2, so the output is the fresh init
    assert main(["warm-start", "--config", str(cfg), "--epochs", "0", "--out", str(model)]) == 0
    saved = Network.load(model)
    want = init_network(NetworkDims(5, 6, 6), RandomSource(33).derive("init"))
    assert np.array_equal(saved.flatten(), want.flatten())


def test_config_rejects_unknown_key(corpus, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train.momentum=0.9\n")
    model = tmp_path / "warm.net"
    assert main(["warm-start", "--config", str(cfg), "--data", str(corpus),
                 "--out", str(model), "--seed", "1"]) == 2


def _write_worker_cfgs(tmp_path, corpus):
    w0 = tmp_path / "w0.cfg"
    w0.write_text(
        f"data.path={corpus}\ndp.noise_override=0\ndp.clip=1e9\nseed=1234\n"
        "budget.eps=1000\nbudget.delta=0.001\n"
    )
    w1 = tmp_path / "w1.cfg"
    w1.write_text(
        f"data.path={corpus}\ndp.noise_override=0.098\nseed=5678\n"
        "budget.eps=1000\nbudget.delta=0.001\n"
    )
    return w0, w1


def test_simulate_zero_steps_writes_init_model(corpus, tmp_path):
    warm = tmp_path / "warm.net"
    assert main(["warm-start", "--data", str(corpus), "--epochs", "0", "--hidden", "6",
                 "--out", str(warm), "--seed", "3"]) == 0
    w0, w1 = _write_worker_cfgs(tmp_path, corpus)
    out_dir = tmp_path / "sim"
    code = main([
        "simulate", "--workers-config", str(w0), str(w1), "--steps", "0",
        "--seed", "9", "--init-model", str(warm), "--out-dir", str(out_dir),
        "--report", str(tmp_path / "report.tsv"),
    ])
    assert code == 0
    assert (out_dir / "worker_0.net").read_bytes() == warm.read_bytes()
    header = (tmp_path / "report.tsv").read_text().splitlines()[0]
    assert header == "model\ttestset\taccuracy"


def _simulate_one(tmp_path, corpus, steps, dp_lines):
    cfg = tmp_path / "w.cfg"
    cfg.write_text(f"data.path={corpus}\nseed=11\n{dp_lines}")
    return main(["simulate", "--workers-config", str(cfg), "--steps", str(steps),
                 "--seed", "9", "--hidden", "4"])


@pytest.mark.parametrize("steps", [1, 3, 10])
def test_simulate_default_budget_is_the_ledger_sum(corpus, tmp_path, monkeypatch, steps):
    # with no budget set, each worker may spend exactly its steps, summed
    # exactly as the ledger sums them; the last step then still fits
    seen = []
    real = dpfed.cli.inproc_session

    def recording(cfg, specs):
        seen.extend(specs)
        return real(cfg, specs)

    monkeypatch.setattr(dpfed.cli, "inproc_session", recording)
    code = _simulate_one(tmp_path, corpus, steps,
                         "dp.epsilon_step=0.1\ndp.delta_step=1e-7\ndp.noise_override=0.05\n")
    assert code == 0
    assert seen[0].budget == PrivacyParams(math.fsum([0.1] * steps), math.fsum([1e-7] * steps))


def test_simulate_default_budget_overflow_is_usage_error(corpus, tmp_path):
    # 2 x 1e308 is no finite epsilon: refused as a bad value, not a traceback
    assert _simulate_one(tmp_path, corpus, 2, "dp.epsilon_step=1e308\n") == 2


def _spawn(*argv):
    return subprocess.Popen(
        [sys.executable, "-m", "dpfed.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def test_tcp_session_matches_simulate(corpus, tmp_path):
    warm = tmp_path / "warm.net"
    assert main(["warm-start", "--data", str(corpus), "--epochs", "1", "--hidden", "6",
                 "--lr", "0.05", "--out", str(warm), "--seed", "3"]) == 0
    w0, w1 = _write_worker_cfgs(tmp_path, corpus)
    sim_dir = tmp_path / "sim"
    assert main([
        "simulate", "--workers-config", str(w0), str(w1), "--steps", "3",
        "--seed", "9", "--lr", "0.01", "--init-model", str(warm),
        "--out-dir", str(sim_dir),
    ]) == 0

    coord = _spawn("coordinator", "--listen", "127.0.0.1:0", "--workers", "2",
                   "--steps", "3", "--lr", "0.01", "--init-model", str(warm),
                   "--timeout", "30")
    addr = "127.0.0.1:" + coord.stdout.readline().strip().rsplit(":", 1)[1]
    workers = []
    for wid, cfg in ((0, w0), (1, w1)):
        out = tmp_path / f"tcp_w{wid}.net"
        workers.append((out, _spawn(
            "worker", "--connect", addr, "--config", str(cfg),
            "--worker-id", str(wid), "--out", str(out),
            "--ledger", str(tmp_path / f"tcp_w{wid}.ledger"), "--timeout", "30",
        )))
    for _, proc in workers:
        proc.communicate(timeout=60)
        assert proc.returncode == 0
    coord.communicate(timeout=60)
    assert coord.returncode == 0
    for wid, (out, _) in enumerate(workers):
        assert out.read_bytes() == (sim_dir / f"worker_{wid}.net").read_bytes()


def test_worker_budget_abort_exit_code(corpus, tmp_path):
    warm = tmp_path / "warm.net"
    assert main(["warm-start", "--data", str(corpus), "--epochs", "0", "--hidden", "6",
                 "--out", str(warm), "--seed", "3"]) == 0
    coord = _spawn("coordinator", "--listen", "127.0.0.1:0", "--workers", "1",
                   "--steps", "3", "--lr", "0.01", "--init-model", str(warm),
                   "--timeout", "30")
    addr = "127.0.0.1:" + coord.stdout.readline().strip().rsplit(":", 1)[1]
    ledger = tmp_path / "w.ledger"
    worker = _spawn("worker", "--connect", addr, "--data", str(corpus),
                    "--worker-id", "0", "--budget-eps", "150", "--budget-delta", "0.001",
                    "--noise-override", "0.098", "--ledger", str(ledger),
                    "--seed", "100", "--timeout", "30")
    worker.communicate(timeout=60)
    coord.communicate(timeout=60)
    assert worker.returncode == 5
    assert coord.returncode == 5
    # exactly the one affordable release is on the ledger
    assert "release step 0" in ledger.read_text()
    assert "release step 1" not in ledger.read_text()


def test_worker_connect_failure_is_transport_error(corpus, tmp_path):
    code = main(["worker", "--connect", "127.0.0.1:1", "--data", str(corpus),
                 "--worker-id", "0", "--budget-eps", "10", "--budget-delta", "0.1",
                 "--seed", "1", "--timeout", "0.2"])
    assert code == 3


def test_coordinator_bind_failure_is_transport_error(tmp_path, corpus):
    warm = tmp_path / "warm.net"
    assert main(["warm-start", "--data", str(corpus), "--epochs", "0", "--hidden", "6",
                 "--out", str(warm), "--seed", "3"]) == 0
    blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        code = main(["coordinator", "--listen", f"127.0.0.1:{port}", "--workers", "1",
                     "--steps", "1", "--init-model", str(warm)])
    finally:
        blocker.close()
    assert code == 3


def _exit_codes(*procs):
    """Each process's exit code. One that outlives its 30 s is killed and
    fails the test, so no process outlives a case."""
    try:
        for proc in procs:
            proc.communicate(timeout=30)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return [proc.returncode for proc in procs]


def _spawn_coordinator(workers):
    coord = _spawn("coordinator", "--listen", "127.0.0.1:0", "--workers", str(workers), "--steps", "3",
                   "--seed", "3", "--input-dim", "5", "--hidden", "6", "--classes", "6", "--timeout", "2")
    host, port = coord.stdout.readline().strip().rsplit(" ", 1)[1].rsplit(":", 1)
    return coord, (host, int(port))


def _spawn_worker(corpus, host, port):
    return _spawn("worker", "--connect", f"{host}:{port}", "--data", str(corpus), "--worker-id", "0",
                  "--budget-eps", "10", "--budget-delta", "0.1", "--noise-override", "0",
                  "--seed", "1", "--timeout", "2")


def test_worker_gone_after_init_is_protocol_exit_on_both_sides(corpus):
    # a raw socket says HELLO and hangs up after INIT, as a killed worker would
    coord, address = _spawn_coordinator(2)
    procs = [coord]
    try:
        procs.append(_spawn_worker(corpus, *address))
        with socket.create_connection(address, timeout=10.0) as sock:
            sock.sendall(encode(Hello(1)))
            assert isinstance(MessageStream(sock).recv()[0], Init)
    finally:
        codes = _exit_codes(*procs)
    assert codes == [4, 4]


def test_peer_without_hello_is_transport_exit():
    coord, address = _spawn_coordinator(1)
    try:
        with socket.create_connection(address, timeout=10.0):  # connected, never speaks
            coord.wait(timeout=30)
    finally:
        codes = _exit_codes(coord)
    assert codes == [3]


@pytest.mark.parametrize("last_words", [b"", MAGIC + struct.pack("<BI", TAG_AVG, 2**31)],
                         ids=["vanishes", "oversized-avg"])
def test_coordinator_gone_after_first_release_is_protocol_exit(corpus, last_words):
    # a scripted coordinator sends INIT, reads GRAD 0, then hangs up, or
    # first declares an AVG far larger than the model
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)
    box = {}

    def fake_coordinator():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(10.0)
            stream = MessageStream(conn)
            stream.recv()  # HELLO
            stream.send(Init(NetworkDims(5, 6, 6), total_steps=3, learning_rate=0.05, seed=7))
            box["grad"], _ = stream.recv()
            conn.sendall(last_words)

    thread = threading.Thread(target=fake_coordinator)
    thread.start()
    try:
        codes = _exit_codes(_spawn_worker(corpus, *listener.getsockname()[:2]))
    finally:
        thread.join(timeout=30)
        listener.close()
    assert not thread.is_alive()
    assert isinstance(box["grad"], Grad)
    assert codes == [4]


def test_eval_self_gap_is_zero(corpus, tmp_path, capsys):
    model = tmp_path / "m.net"
    assert main(["warm-start", "--data", str(corpus), "--epochs", "1", "--hidden", "6",
                 "--lr", "0.05", "--out", str(model), "--seed", "4"]) == 0
    capsys.readouterr()
    code = main(["eval", "--model", str(model), "--data", str(corpus),
                 "--baseline", str(model), "--probe-speaker", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "overall" in out
    assert "gap +0.0 points" in out
    assert "NO-LEAK" in out


def test_eval_probe_flags_go_together(corpus, tmp_path, capsys):
    model = tmp_path / "m.net"
    assert main(["warm-start", "--data", str(corpus), "--epochs", "0", "--hidden", "6",
                 "--out", str(model), "--seed", "4"]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(corpus),
                 "--baseline", str(model)]) == 2
    assert capsys.readouterr().out == ""  # refused before any report


def test_eval_shape_mismatch_is_usage_error(corpus, tmp_path):
    model = tmp_path / "m.net"
    assert main(["warm-start", "--data", str(corpus), "--epochs", "0", "--hidden", "4",
                 "--out", str(model), "--seed", "4"]) == 0
    other = tmp_path / "other.seno"
    assert main(["synth", "--out", str(other), "--seed", "5"]) == 0  # 13-dim default
    assert main(["eval", "--model", str(model), "--data", str(other)]) == 2


def test_synth_refuses_frames_past_float32_and_writes_nothing(tmp_path, capsys):
    # frames finite as float64 overflow when narrowed; read_dataset would refuse the file
    spec = tmp_path / "spec.txt"
    spec.write_text("feature_dim=2\nnum_classes=3\nn_speakers=1\nsequences_per_speaker=1\n"
                    "frames_per_sequence=2\nspeaker_offset_scale=1e39\n")
    out = tmp_path / "huge.seno"
    assert main(["synth", "--spec", str(spec), "--out", str(out), "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dpfed: sequence 0 has frames outside the float32 range\n"
    assert not out.exists()


def _patched(data: bytes, offset: int, value: int) -> bytes:
    return data[:offset] + struct.pack("<I", value) + data[offset + 4 :]


def _empty(corpus: bytes, model: bytes) -> bytes:
    return _patched(corpus[:20], 16, 0)  # the corpus header with no sequences


def _inf_model(corpus: bytes, model: bytes) -> bytes:
    return model[:20] + struct.pack("<d", math.inf) + model[28:]  # +inf at wx[0, 0]


def _four_class_model(corpus: bytes, model: bytes) -> bytes:
    return init_network(NetworkDims(5, 6, 4), RandomSource(1)).to_bytes()  # the corpus has 6 classes


EVAL_BAD_MODEL = ["eval", "--model", "{bad}", "--data", "{corpus}"]
INSPECT_BAD = ["inspect", "--data", "{bad}"]


@pytest.mark.parametrize(
    "make, argv, message",
    [
        (lambda c, m: m[:-8], EVAL_BAD_MODEL, "bytes for dims 5x6x6"),
        (lambda c, m: b"NOTMAGIC" + m[8:], EVAL_BAD_MODEL, "bad model magic"),
        (lambda c, m: c[:-3], INSPECT_BAD, "truncated inside sequence 23"),
        (lambda c, m: _patched(c, len(c) - 4, 6), INSPECT_BAD, "sequence 23 has a label out of range"),
        (lambda c, m: _patched(c, 24, 0), INSPECT_BAD, "sequence 0: frames must be (T >= 1, dim)"),
        (lambda c, m: _patched(c, 8, 0), INSPECT_BAD, "header dims must be positive"),
        (_empty, ["warm-start", "--data", "{bad}", "--out", "{out}", "--seed", "1"], "no sequences to train on"),
        (_empty, ["eval", "--model", "{model}", "--data", "{bad}"], "cannot evaluate on an empty dataset"),
        (None, ["simulate", "--workers-config", "{bad}", "--steps", "1", "--seed", "1"], "cannot read config"),
        (_inf_model, EVAL_BAD_MODEL, "model parameters must be finite"),
        (_inf_model, ["coordinator", "--listen", "127.0.0.1:0", "--workers", "1", "--steps", "1",
                      "--init-model", "{bad}", "--timeout", "0.2"], "model parameters must be finite"),
        (_four_class_model, EVAL_BAD_MODEL, "dataset has 6 classes, model outputs 4"),
    ],
    ids=["eval-truncated-model", "eval-bad-magic-model", "inspect-truncated", "inspect-label-out-of-range",
         "inspect-zero-frames", "inspect-zero-dims", "warm-start-empty", "eval-empty", "simulate-missing-config",
         "eval-inf-model", "coordinator-inf-init-model", "eval-too-few-classes"],
)
def test_bad_input_file_is_usage_exit(make, argv, message, corpus, tmp_path, capsys):
    # each bad file ends in exit 2, one dpfed: line on stderr, no stdout and no output file
    model, bad, out = tmp_path / "m.net", tmp_path / "bad", tmp_path / "out"
    init_network(NetworkDims(5, 6, 6), RandomSource(1)).save(model)
    if make is not None:
        bad.write_bytes(make(corpus.read_bytes(), model.read_bytes()))
    capsys.readouterr()
    assert main([arg.format(bad=bad, model=model, corpus=corpus, out=out) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.startswith("dpfed: ") and message in last
    assert not out.exists()


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses the flag itself
        return exc.code


@pytest.mark.parametrize(
    "command, extra, config",
    [
        ("coordinator", ["--listen", "127.0.0.1:70000"], None),
        ("coordinator", ["--timeout", "nan"], None),
        ("worker", ["--timeout", "-1"], None),
        ("worker", ["--timeout", "inf"], None),
        ("worker", [], "dp.clip = nan\n"),
        ("worker", ["--lr", "0.1"], None),
        ("coordinator", ["--seed", "18446744073709551616"], None),
        ("coordinator", ["--workers", "1099511627776"], None),
        ("worker", [], "dp.noise_override = -1\n"),
        ("worker", [], "dp.noise_override = 0.098\ndp.delta_step = 0\n"),
    ],
    ids=["port-out-of-range", "timeout-nan", "timeout-negative", "timeout-inf",
         "config-clip-nan", "worker-lr-gone", "init-seed-past-u64", "workers-past-u32",
         "negative-noise-override", "override-zero-delta"],
)
def test_bad_values_are_usage_errors(command, extra, config, corpus, tmp_path):
    # every other setting is valid, so the one bad value decides the outcome
    base = {
        "coordinator": ["--workers", "1", "--steps", "1", "--seed", "1", "--input-dim", "5",
                        "--hidden", "6", "--classes", "6", "--timeout", "0.2"],
        "worker": ["--connect", "127.0.0.1:1", "--data", str(corpus), "--worker-id", "0",
                   "--budget-eps", "10", "--budget-delta", "0.1", "--seed", "1", "--timeout", "0.2"],
    }[command]
    if config is not None:
        cfg = tmp_path / "w.cfg"
        cfg.write_text(config)
        extra = [*extra, "--config", str(cfg)]
    assert _exit_code([command, *base, *extra]) == 2


def _worker_model(tmp_path, corpus, name, *argv):
    # a one-worker session: library coordinator, CLI worker
    coord = Coordinator(SessionConfig(1, 2, 0.05, NetworkDims(5, 6, 6), init_seed=3, timeout=30.0))
    host, port = coord.bind()
    thread = threading.Thread(target=coord.run)
    thread.start()
    out = tmp_path / f"{name}.net"
    code = main(["worker", "--connect", f"{host}:{port}", "--data", str(corpus), "--worker-id", "0",
                 "--budget-eps", "1000", "--budget-delta", "0.001", "--seed", "5",
                 "--out", str(out), "--timeout", "30", *argv])
    thread.join(timeout=30)
    assert code == 0
    return out.read_bytes()


def test_flag_and_file_value_parse_alike(corpus, tmp_path):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("dp.noise_override = 0\n")
    by_flag = _worker_model(tmp_path, corpus, "flag", "--noise-override", "0")
    by_file = _worker_model(tmp_path, corpus, "file", "--config", str(cfg))
    assert by_flag == by_file
    assert by_flag != _worker_model(tmp_path, corpus, "calibrated")  # the setting took effect


def unread_settings(source: str, dests: list[str]) -> list[str]:
    """The dests that no attribute read in ``source`` names, leaving out
    ``_settings`` and ``_flag``, which handle every setting alike."""
    tree = ast.parse(source)
    plumbing = {
        id(node)
        for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in ("_settings", "_flag")
        for node in ast.walk(f)
    }
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in plumbing
    }
    return [dest for dest in dests if dest not in read]


def test_checker_flags_an_unread_setting():
    source = (
        "def _settings(ns):\n    return ns.unread\n\ndef _flag(p):\n    p.also_unread\n\n"
        "def cmd(args):\n    args.stored = 1\n    return args.kept\n"
    )
    assert unread_settings(source, ["kept", "unread", "also_unread", "stored"]) == ["unread", "also_unread", "stored"]


def test_every_setting_is_read():
    source = Path(dpfed.cli.__file__).read_text()
    assert unread_settings(source, [s.dest for s in dpfed.cli.SETTINGS.values()]) == []


def test_coordinator_seed_without_hidden_uses_default(capsys):
    # gets past the settings and listens; then no worker comes (exit 3)
    code = main(["coordinator", "--workers", "1", "--steps", "1", "--seed", "1",
                 "--input-dim", "2", "--classes", "2", "--timeout", "0.2"])
    assert code == 3
    assert "listening on" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command", ["", "synth", "inspect", "warm-start", "coordinator", "worker", "simulate", "eval"]
)
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dpfed")
