"""Synchronous federated averaging over private gradient releases.

One coordinator, n workers. Per round every worker sends one release,
the coordinator averages them unweighted and broadcasts the average,
and every worker applies it with the shared learning rate. Workers and
coordinator advance in lockstep; a budget refusal or protocol fault on
any side aborts the whole session.

One round driver plays the coordinator and ``WorkerReplica.reply`` plays
each worker, over a per-worker link with ``send(msg) -> payload bytes``
and ``recv() -> (msg, payload bytes)``: in memory for ``inproc_session``,
a TCP :class:`MessageStream` for the ``Coordinator`` / ``worker_run``
pair. Averages are summed in ascending worker id order and releases
travel as exact float64 bytes, so both transports produce bit-identical
models, ledgers and transcripts for the same seeds.
"""

from __future__ import annotations

import math
import socket
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .dpsgd import BatchSampler, DpSgdConfig, fixed_order_mean, train_step
from .errors import (
    BudgetExceeded,
    DecodeError,
    DpFedError,
    InvalidValue,
    ProtocolError,
    TimedOut,
    TransportError,
)
from .network import Network, NetworkDims, apply_update, init_network
from .privacy import AccountLedger, PrivacyParams, compose
from .rng import RandomSource
from .wire import (
    ABORT_BUDGET,
    ABORT_DECODE,
    ABORT_PROTOCOL,
    ABORT_TIMEOUT,
    GRAD_HEADER_LEN,
    HEADER_LEN,
    PROTOCOL_VERSION,
    Abort,
    Avg,
    Done,
    Grad,
    Hello,
    Init,
    Message,
    abort_name,
    decode,
    encode,
    payload_length,
)


def _check_endpoint(port: int, timeout: float) -> None:
    if not 0 <= port <= 65535:
        raise InvalidValue(f"port must be in 0-65535, got {port}")
    if not (math.isfinite(timeout) and timeout > 0.0):
        raise InvalidValue(f"timeout must be finite and positive, got {timeout}")


@dataclass
class SessionConfig:
    """Shared session parameters; the coordinator hands them out via INIT,
    and a config is refused unless its INIT can be built."""

    n_workers: int
    total_steps: int
    learning_rate: float
    dims: NetworkDims
    init_seed: int | None = None
    init_parameters: np.ndarray | None = None
    host: str = "127.0.0.1"
    port: int = 0
    timeout: float = 60.0

    def __post_init__(self):
        if not 1 <= self.n_workers <= 2**32:  # each worker needs its own u32 id
            raise InvalidValue(f"session needs 1 to 2**32 workers, got {self.n_workers}")
        _check_endpoint(self.port, self.timeout)
        self.init_message()

    def init_message(self) -> Init:
        return Init(
            dims=self.dims,
            total_steps=self.total_steps,
            learning_rate=self.learning_rate,
            seed=self.init_seed,
            parameters=self.init_parameters,
        )


@dataclass
class WorkerSpec:
    """Everything one worker needs besides the session config."""

    worker_id: int
    dp_config: DpSgdConfig
    dataset: Dataset
    budget: PrivacyParams
    seed: int

    def __post_init__(self):
        if not 0 <= self.worker_id < 2**32:
            raise InvalidValue("worker id must fit in u32")


class WorkerReplica:
    """One worker's training state, transport-agnostic.

    Batch order and noise come from streams derived from the worker seed
    by fixed keys, so a replica's behaviour depends only on (spec, INIT),
    never on transport timing.
    """

    def __init__(self, spec: WorkerSpec):
        self.worker_id = spec.worker_id
        self.dp_config = spec.dp_config
        self.ledger = AccountLedger(spec.budget)
        root = RandomSource(spec.seed)
        self._sampler = BatchSampler(
            spec.dataset.sequences, spec.dp_config.batch_size, root.derive("batches")
        )
        self._noise_rng = root.derive("noise")
        self.net: Network | None = None
        self.learning_rate: float | None = None
        self.total_steps = 0
        self.steps_completed = 0

    def make_release(self, step_id: int) -> Grad:
        """One private release; BudgetExceeded propagates with state intact."""
        batch = self._sampler.next_batch()
        release, self.ledger = train_step(
            self.net, batch, self.dp_config, self.ledger, self._noise_rng, step_id
        )
        return release

    def apply_average(self, avg: Avg) -> None:
        if not np.all(np.isfinite(avg.vector)):
            raise ProtocolError(f"AVG {avg.step_id} holds non-finite values")
        self.net = apply_update(self.net, avg.vector, self.learning_rate)

    def reply(self, msg: Message) -> Message | None:
        """The worker's answer to INIT or the current step's AVG: the next
        GRAD, or nothing after the last step. Any other message, and any
        fault while applying or releasing, is answered with an ABORT.
        """
        try:
            if isinstance(msg, Init) and self.net is None:
                if msg.seed is not None:
                    self.net = init_network(msg.dims, RandomSource(msg.seed))
                else:
                    self.net = Network.from_flat(msg.dims, msg.parameters)
                self.learning_rate, self.total_steps = msg.learning_rate, msg.total_steps
            elif isinstance(msg, Avg) and msg.step_id == self.steps_completed < self.total_steps:
                self.apply_average(msg)
                self.steps_completed += 1
            else:
                name = type(msg).__name__.upper()
                return Abort(ABORT_PROTOCOL, f"unexpected {name} after {self.steps_completed} steps")
            if self.steps_completed == self.total_steps:
                return None
            return self.make_release(self.steps_completed)
        except BudgetExceeded as exc:
            return Abort(ABORT_BUDGET, str(exc))
        except DpFedError as exc:
            return Abort(ABORT_PROTOCOL, str(exc))


def average_releases(releases: Sequence[Grad]) -> np.ndarray:
    """Unweighted mean of one round's releases, summed in ascending worker
    id order; ``_charge_grad`` has checked each one's step and length."""
    return fixed_order_mean([r.vector for r in releases])


@dataclass(frozen=True)
class TranscriptEntry:
    """One protocol message as seen from the coordinator."""

    direction: str  # "recv" or "send"
    worker_id: int
    kind: str
    step_id: int | None
    payload_bytes: int

    def line(self) -> str:
        step = "-" if self.step_id is None else str(self.step_id)
        return f"{self.direction}\t{self.worker_id}\t{self.kind}\t{step}\t{self.payload_bytes}"


def _entry(direction: str, worker_id: int, msg: Message, payload_bytes: int) -> TranscriptEntry:
    step = getattr(msg, "step_id", getattr(msg, "steps_completed", None))  # GRAD, AVG, DONE
    return TranscriptEntry(direction, worker_id, type(msg).__name__.upper(), step, payload_bytes)


def write_transcript(entries: Sequence[TranscriptEntry], path) -> None:
    Path(path).write_text("".join(e.line() + "\n" for e in entries))


@dataclass
class SessionSummary:
    steps_completed: int
    aborted: int | None  # abort code, None for a clean finish
    per_worker_spent: dict[int, PrivacyParams]

    @property
    def clean(self) -> bool:
        return self.aborted is None


@dataclass
class SessionResult:
    """In-process session outcome: everything lives in one address space."""

    networks: dict[int, Network]
    ledgers: dict[int, AccountLedger]
    transcript: list[TranscriptEntry]
    summary: SessionSummary


# the widest budget: every total within it is a valid (epsilon, delta)
_ANY_VALID_SPEND = PrivacyParams(sys.float_info.max, math.nextafter(1.0, 0.0))


def _charge_grad(msg: Message, step: int, dims: NetworkDims, ledger: AccountLedger) -> AccountLedger:
    """``ledger`` charged with the spend ``msg`` declares, if ``msg`` is an
    acceptable release for ``step``; a ProtocolError says why it is not."""
    if not isinstance(msg, Grad):
        raise ProtocolError(f"sent {type(msg).__name__.upper()} at step {step}")
    if msg.step_id != step:
        raise ProtocolError(f"sent GRAD for step {msg.step_id} at step {step}")
    if len(msg.vector) != dims.parameter_count:
        raise ProtocolError(f"sent {len(msg.vector)} values, expected {dims.parameter_count}")
    if not np.all(np.isfinite(msg.vector)):
        raise ProtocolError(f"sent non-finite values at step {step}")
    try:
        return compose(ledger, f"release step {step}", msg.spent)
    except BudgetExceeded:
        raise ProtocolError(f"declared a total spend past any valid (epsilon, delta) at step {step}") from None


def _admit(link, received: tuple[Message, int], links: dict, transcript: list[TranscriptEntry]) -> None:
    """Register ``link`` under the id its (HELLO, payload length) announces."""
    hello, size = received
    if not isinstance(hello, Hello):
        raise ProtocolError(f"expected HELLO, got {type(hello).__name__}")
    if hello.protocol_version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {hello.protocol_version}")
    if hello.worker_id in links:
        raise ProtocolError(f"duplicate worker id {hello.worker_id}")
    links[hello.worker_id] = link
    transcript.append(_entry("recv", hello.worker_id, hello, size))


def _broadcast(links: dict, msg: Message, transcript: list[TranscriptEntry]) -> None:
    for wid in sorted(links):
        try:
            transcript.append(_entry("send", wid, msg, links[wid].send(msg)))
        except TransportError:
            pass  # peers may already be gone during an abort


def _run_rounds(
    cfg: SessionConfig,
    links: dict,
    transcript: list[TranscriptEntry],
    on_round: Callable[[int], None] | None = None,
) -> SessionSummary:
    """The coordinator's side of a session, over one link per admitted worker.

    A worker's ABORT is relayed to everyone; a message that cannot be read
    or is not a valid GRAD for the round aborts the session with the
    matching code. Every message read is recorded, rejected ones included.
    Each GRAD's declared spend is staged with ``compose`` on the
    coordinator's ledger of its worker, which refuses a total past any
    valid (epsilon, delta); the round's charges are committed only once
    its AVG is out, so the summary counts completed rounds only.
    """
    wids = sorted(links)
    ledgers = {wid: AccountLedger(_ANY_VALID_SPEND) for wid in wids}
    steps_completed = 0

    def finish(aborted: int | None, reason: str = "") -> SessionSummary:
        msg = Done(steps_completed) if aborted is None else Abort(aborted, reason)
        _broadcast(links, msg, transcript)
        return SessionSummary(steps_completed, aborted, {wid: l.spent for wid, l in ledgers.items()})

    _broadcast(links, cfg.init_message(), transcript)
    for step in range(cfg.total_steps):
        releases: list[Grad] = []
        staged: dict[int, AccountLedger] = {}
        for wid in wids:
            try:
                msg, size = links[wid].recv()
            except TimedOut:
                return finish(ABORT_TIMEOUT, f"worker {wid} timed out")
            except (DecodeError, TransportError) as exc:
                return finish(ABORT_DECODE, f"worker {wid}: {exc}")
            transcript.append(_entry("recv", wid, msg, size))
            if isinstance(msg, Abort):
                return finish(msg.code, f"relayed from worker {wid}")
            try:
                staged[wid] = _charge_grad(msg, step, cfg.dims, ledgers[wid])
            except ProtocolError as exc:
                return finish(ABORT_PROTOCOL, f"worker {wid} {exc}")
            releases.append(msg)
        _broadcast(links, Avg(step, average_releases(releases)), transcript)
        ledgers.update(staged)
        steps_completed += 1
        if on_round is not None:
            on_round(step)
    return finish(None)


class _LocalLink:
    """In-memory link to a replica that answers each INIT or AVG at once,
    just as a TCP worker does, so replies queue up in the same order."""

    def __init__(self, replica: WorkerReplica):
        self._replica = replica
        self._outbox: list[Message] = [Hello(replica.worker_id)]

    def send(self, msg: Message) -> int:
        if isinstance(msg, (Init, Avg)):
            reply = self._replica.reply(msg)
            if reply is not None:
                self._outbox.append(reply)
        return len(encode(msg)) - HEADER_LEN

    def recv(self) -> tuple[Message, int]:
        msg = self._outbox.pop(0)
        return msg, len(encode(msg)) - HEADER_LEN


def inproc_session(
    cfg: SessionConfig,
    specs: Sequence[WorkerSpec],
    on_round: Callable[[int, dict[int, Network]], None] | None = None,
) -> SessionResult:
    """Deterministic single-thread simulation of a full session.

    Runs the round driver and replica code the TCP path uses, over
    in-memory links, and records the same coordinator-side transcript.
    ``on_round`` sees the per-worker networks after every applied average.
    """
    if len(specs) != cfg.n_workers:
        raise InvalidValue(f"config says {cfg.n_workers} workers, got {len(specs)} specs")
    ids = [s.worker_id for s in specs]
    if len(set(ids)) != len(ids):
        raise InvalidValue("worker ids must be unique")

    replicas = {s.worker_id: WorkerReplica(s) for s in specs}
    wids = sorted(replicas)
    links: dict[int, _LocalLink] = {}
    transcript: list[TranscriptEntry] = []
    for wid in wids:
        link = _LocalLink(replicas[wid])
        _admit(link, link.recv(), links, transcript)

    def networks() -> dict[int, Network]:
        return {wid: replicas[wid].net for wid in wids}

    summary = _run_rounds(
        cfg, links, transcript, on_round and (lambda step: on_round(step, networks()))
    )
    return SessionResult(
        networks=networks(),
        ledgers={wid: replicas[wid].ledger for wid in wids},
        transcript=transcript,
        summary=summary,
    )


def _time_left(deadline: float) -> float:
    """Seconds to the ``time.monotonic()`` ``deadline``; socket.timeout past it."""
    left = deadline - time.monotonic()
    if left <= 0.0:
        raise socket.timeout
    return left


class MessageStream:
    """Length-prefixed framing over a connected socket; a declared payload
    above ``max_payload`` (None: no cap) is refused with DecodeError before
    any of it is read. The socket needs a timeout; it bounds each whole
    frame, not each ``recv``, so a peer cannot hold a reader by trickling
    bytes."""

    _CHUNK = 1 << 16  # largest single recv, whatever length a peer declares

    def __init__(self, sock: socket.socket, max_payload: int | None = None):
        self._sock = sock
        self.max_payload = max_payload
        self._timeout = sock.gettimeout()

    def send(self, msg: Message) -> int:
        """Send one frame; returns its payload length."""
        frame = encode(msg)
        try:
            self._sock.settimeout(self._timeout)
            self._sock.sendall(frame)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        return len(frame) - HEADER_LEN

    def _read_exact(self, n: int, deadline: float) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            try:
                self._sock.settimeout(_time_left(deadline))
                chunk = self._sock.recv(min(remaining, self._CHUNK))
            except socket.timeout as exc:
                raise TimedOut("peer did not respond within the timeout") from exc
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
            if not chunk:
                raise TransportError("connection closed mid-stream")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self, deadline: float | None = None) -> tuple[Message, int]:
        """Read one frame, whole by ``deadline`` (a ``time.monotonic()``
        instant, by default one timeout from now) or TimedOut; returns the
        message and its payload length."""
        if deadline is None:
            deadline = time.monotonic() + self._timeout
        header = self._read_exact(HEADER_LEN, deadline)
        payload_len = payload_length(header)
        if self.max_payload is not None and payload_len > self.max_payload:
            raise DecodeError(f"declared payload of {payload_len} bytes exceeds {self.max_payload}")
        return decode(header + self._read_exact(payload_len, deadline)), payload_len

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class Coordinator:
    """TCP coordinator. ``bind`` first (port 0 picks a free port), then ``run``."""

    def __init__(self, cfg: SessionConfig):
        self.cfg = cfg
        self.transcript: list[TranscriptEntry] = []
        self._listener: socket.socket | None = None
        self.address: tuple[str, int] | None = None

    def bind(self) -> tuple[str, int]:
        try:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                listener.bind((self.cfg.host, self.cfg.port))
                listener.listen(min(self.cfg.n_workers, socket.SOMAXCONN))
                listener.settimeout(self.cfg.timeout)
            except BaseException:
                listener.close()
                raise
        except OSError as exc:
            raise TransportError(f"cannot listen on {self.cfg.host}:{self.cfg.port}: {exc}") from exc
        self._listener = listener
        self.address = listener.getsockname()[:2]
        return self.address

    def run(self) -> SessionSummary:
        """Admit ``n_workers`` connections, all with their HELLO within one
        timeout, then drive the session over them. If admission fails, the
        workers already admitted get an ABORT."""
        if self._listener is None:
            self.bind()
        cfg = self.cfg
        deadline = time.monotonic() + cfg.timeout
        streams: list[MessageStream] = []
        links: dict[int, MessageStream] = {}
        try:
            for _ in range(cfg.n_workers):
                try:
                    self._listener.settimeout(_time_left(deadline))
                    conn, _ = self._listener.accept()
                except socket.timeout as exc:
                    raise TimedOut(f"only {len(links)} of {cfg.n_workers} workers connected") from exc
                conn.settimeout(cfg.timeout)
                # no legal worker frame is larger than a full GRAD
                streams.append(MessageStream(conn, GRAD_HEADER_LEN + 8 * cfg.dims.parameter_count))
                _admit(streams[-1], streams[-1].recv(deadline), links, self.transcript)
        except DpFedError as exc:
            # tell the workers already admitted why no INIT will come
            code = ABORT_TIMEOUT if isinstance(exc, TimedOut) else ABORT_PROTOCOL
            _broadcast(links, Abort(code, str(exc)), self.transcript)
            raise
        else:
            return _run_rounds(cfg, links, self.transcript)
        finally:
            for stream in streams:
                stream.close()
            self._listener.close()


@dataclass
class WorkerResult:
    worker_id: int
    network: Network
    ledger: AccountLedger
    steps_completed: int
    aborted: int | None

    @property
    def clean(self) -> bool:
        return self.aborted is None


def _connect(host: str, port: int, timeout: float) -> socket.socket:
    deadline = time.monotonic() + timeout
    while True:
        try:
            return socket.create_connection((host, port), timeout=timeout)
        except ConnectionRefusedError:
            if time.monotonic() >= deadline:
                raise TransportError(f"coordinator at {host}:{port} never came up")
            time.sleep(0.05)
        except OSError as exc:
            raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc


def worker_run(
    address: tuple[str, int], spec: WorkerSpec, timeout: float = 60.0
) -> WorkerResult:
    """Run one worker over TCP against a coordinator at the given address.

    Everything the worker does not own (dims, step count, learning rate,
    initial parameters) arrives in INIT; an INIT that breaks a session rule
    raises DecodeError before the first release. After INIT, a frame that
    declares more payload than a full AVG (or 64 KiB, if that is more) is
    refused unread and ends the session in ABORT_DECODE. Returns the final
    network and ledger even when the session aborts; the ledger then
    reflects exactly the releases that were emitted.
    """
    host, port = address
    _check_endpoint(port, timeout)
    replica = WorkerReplica(spec)
    stream = MessageStream(_connect(host, port, timeout))
    try:
        stream.send(Hello(spec.worker_id))
        msg, _ = stream.recv()
        if not isinstance(msg, Init):
            got = f"ABORT ({abort_name(msg.code)})" if isinstance(msg, Abort) else type(msg).__name__
            raise ProtocolError(f"expected INIT, got {got}")
        # no later coordinator frame is larger than a full AVG; the floor
        # leaves room for any ABORT reason
        stream.max_payload = max(8 + 8 * msg.dims.parameter_count, MessageStream._CHUNK)
        total = msg.total_steps
        while not (isinstance(msg, Abort) or isinstance(msg, Done) and replica.steps_completed == total):
            answer = replica.reply(msg)
            if answer is not None:
                stream.send(answer)
            if isinstance(answer, Abort):
                msg = answer
                continue
            try:
                msg, _ = stream.recv()
            except TimedOut:
                msg = Abort(ABORT_TIMEOUT)
            except (DecodeError, TransportError):
                msg = Abort(ABORT_DECODE)
        return WorkerResult(
            worker_id=spec.worker_id,
            network=replica.net,
            ledger=replica.ledger,
            steps_completed=replica.steps_completed,
            aborted=msg.code if isinstance(msg, Abort) else None,
        )
    finally:
        stream.close()
