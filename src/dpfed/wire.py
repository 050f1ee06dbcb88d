"""Binary message codec for the federation protocol.

Every frame is the 4-byte magic ``FDP1``, a one-byte message tag, a u32
little-endian payload length, then the payload. Integers are u32 little
endian, reals are f64 little endian. Tags: HELLO=1, INIT=2, GRAD=3,
AVG=4, DONE=5, ABORT=6. INIT carries either an init seed or the full
flat parameter vector, so replicas can be seeded or cloned.

A GRAD (protocol version 2) is the one release record: step, epsilon,
delta and vector length (``<IddI``, 24 bytes), then the P values, so
24 + 8P payload bytes. It carries nothing else computed from a worker's
data: a batch size would reveal how many sequences the worker holds (the
last batch of an epoch has n mod B of them), and the coordinator needs
only the vector and the declared spend.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DecodeError, InvalidValue
from .network import NetworkDims
from .privacy import PrivacyParams

MAGIC = b"FDP1"
PROTOCOL_VERSION = 2
HEADER_LEN = 9  # magic + tag + payload length
_GRAD_HEAD = "<IddI"  # step, epsilon, delta, length
GRAD_HEADER_LEN = struct.calcsize(_GRAD_HEAD)

TAG_HELLO = 1
TAG_INIT = 2
TAG_GRAD = 3
TAG_AVG = 4
TAG_DONE = 5
TAG_ABORT = 6

# abort reason codes carried in ABORT frames
ABORT_BUDGET = 1
ABORT_TIMEOUT = 2
ABORT_DECODE = 3
ABORT_PROTOCOL = 4

_ABORT_NAMES = {
    ABORT_BUDGET: "budget",
    ABORT_TIMEOUT: "timeout",
    ABORT_DECODE: "decode",
    ABORT_PROTOCOL: "protocol",
}


def abort_name(code: int) -> str:
    return _ABORT_NAMES.get(code, f"code{code}")


@dataclass(frozen=True)
class Hello:
    worker_id: int
    protocol_version: int = PROTOCOL_VERSION


class _Framed:
    """A message that holds an array. Two are equal when they are of one
    type and encode to the same frame, so equality is bitwise: a zero's
    sign counts, and NaN payloads compare by their bits."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return encode(self) == encode(other)


@dataclass(eq=False)
class Init(_Framed):
    """Session start: model shape, step count, learning rate, and either
    an init seed or explicit parameters. Holds every rule a session must
    meet, so both ends refuse the same sessions."""

    dims: NetworkDims
    total_steps: int
    learning_rate: float
    seed: int | None = None
    parameters: np.ndarray | None = None

    def __post_init__(self):
        if max(self.dims.input_dim, self.dims.hidden_dim, self.dims.output_dim) >= 2**32:
            raise InvalidValue("INIT dims must fit in u32")
        if (self.seed is None) == (self.parameters is None):
            raise InvalidValue("INIT needs exactly one of seed or parameters")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise InvalidValue("INIT seed must fit in u64")
        if self.parameters is not None:
            self.parameters = np.asarray(self.parameters, dtype=np.float64)
            if self.parameters.shape != (self.dims.parameter_count,):
                raise InvalidValue(
                    f"INIT parameter vector must have length {self.dims.parameter_count}"
                )
        if not 0 <= self.total_steps < 2**32:
            raise InvalidValue("total_steps must be >= 0 and fit in u32")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise InvalidValue("learning rate must be finite and positive")


@dataclass(eq=False)
class Grad(_Framed):
    """One worker's private release for one step, and what it spent."""

    step_id: int
    vector: np.ndarray
    spent: PrivacyParams

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)


@dataclass(eq=False)
class Avg(_Framed):
    step_id: int
    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)


@dataclass(frozen=True)
class Done:
    steps_completed: int


@dataclass(frozen=True)
class Abort:
    code: int
    reason: str = ""


Message = Union[Hello, Init, Grad, Avg, Done, Abort]


def _frame(tag: int, payload: bytes) -> bytes:
    return MAGIC + struct.pack("<BI", tag, len(payload)) + payload


def encode(msg: Message) -> bytes:
    """Message to one wire frame."""
    if isinstance(msg, Hello):
        return _frame(TAG_HELLO, struct.pack("<II", msg.worker_id, msg.protocol_version))
    if isinstance(msg, Init):
        head = struct.pack(
            "<IIIId",
            msg.dims.input_dim,
            msg.dims.hidden_dim,
            msg.dims.output_dim,
            msg.total_steps,
            msg.learning_rate,
        )
        if msg.seed is not None:
            body = struct.pack("<BQ", 0, msg.seed)
        else:
            body = struct.pack("<B", 1) + msg.parameters.astype("<f8").tobytes()
        return _frame(TAG_INIT, head + body)
    if isinstance(msg, Grad):
        head = struct.pack(
            _GRAD_HEAD, msg.step_id, msg.spent.epsilon, msg.spent.delta, len(msg.vector)
        )
        return _frame(TAG_GRAD, head + np.asarray(msg.vector, dtype="<f8").tobytes())
    if isinstance(msg, Avg):
        head = struct.pack("<II", msg.step_id, len(msg.vector))
        return _frame(TAG_AVG, head + msg.vector.astype("<f8").tobytes())
    if isinstance(msg, Done):
        return _frame(TAG_DONE, struct.pack("<I", msg.steps_completed))
    if isinstance(msg, Abort):
        reason = msg.reason.encode("utf-8")
        return _frame(TAG_ABORT, struct.pack("<II", msg.code, len(reason)) + reason)
    raise InvalidValue(f"cannot encode {type(msg).__name__}")


def _need(payload: bytes, offset: int, n: int, what: str) -> None:
    if offset + n > len(payload):
        raise DecodeError(f"payload too short for {what}")


def _decode_hello(payload: bytes) -> tuple[Hello, int]:
    _need(payload, 0, 8, "HELLO")
    worker_id, version = struct.unpack_from("<II", payload, 0)
    return Hello(worker_id, version), 8


def _decode_init(payload: bytes) -> tuple[Init, int]:
    _need(payload, 0, 25, "INIT header")
    d, h, o, steps, lr = struct.unpack_from("<IIIId", payload, 0)
    kind = payload[24]
    try:
        dims = NetworkDims(d, h, o)
        if kind == 0:
            _need(payload, 25, 8, "INIT seed")
            (seed,) = struct.unpack_from("<Q", payload, 25)
            return Init(dims, steps, lr, seed=seed), 33
        if kind == 1:
            n = dims.parameter_count
            _need(payload, 25, 8 * n, "INIT parameters")
            params = np.frombuffer(payload, dtype="<f8", offset=25, count=n).astype(np.float64)
            return Init(dims, steps, lr, parameters=params), 25 + 8 * n
    except InvalidValue as exc:
        raise DecodeError(f"bad INIT fields: {exc}") from exc
    raise DecodeError(f"unknown INIT payload kind {kind}")


def _decode_grad(payload: bytes) -> tuple[Grad, int]:
    head = GRAD_HEADER_LEN
    _need(payload, 0, head, "GRAD header")
    step, eps, delta, n = struct.unpack_from(_GRAD_HEAD, payload, 0)
    _need(payload, head, 8 * n, "GRAD vector")
    vec = np.frombuffer(payload, dtype="<f8", offset=head, count=n).astype(np.float64)
    try:
        spent = PrivacyParams(eps, delta)
    except InvalidValue as exc:
        raise DecodeError(f"bad GRAD fields: {exc}") from exc
    return Grad(step, vec, spent), head + 8 * n


def _decode_avg(payload: bytes) -> tuple[Avg, int]:
    _need(payload, 0, 8, "AVG header")
    step, n = struct.unpack_from("<II", payload, 0)
    _need(payload, 8, 8 * n, "AVG vector")
    vec = np.frombuffer(payload, dtype="<f8", offset=8, count=n).astype(np.float64)
    return Avg(step, vec), 8 + 8 * n


def _decode_done(payload: bytes) -> tuple[Done, int]:
    _need(payload, 0, 4, "DONE")
    (steps,) = struct.unpack_from("<I", payload, 0)
    return Done(steps), 4


def _decode_abort(payload: bytes) -> tuple[Abort, int]:
    _need(payload, 0, 8, "ABORT header")
    code, n = struct.unpack_from("<II", payload, 0)
    _need(payload, 8, n, "ABORT reason")
    try:
        reason = payload[8 : 8 + n].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError("ABORT reason is not valid UTF-8") from exc
    return Abort(code, reason), 8 + n


_DECODERS = {
    TAG_HELLO: _decode_hello,
    TAG_INIT: _decode_init,
    TAG_GRAD: _decode_grad,
    TAG_AVG: _decode_avg,
    TAG_DONE: _decode_done,
    TAG_ABORT: _decode_abort,
}


def payload_length(header: bytes) -> int:
    """Payload length declared by a frame's first ``HEADER_LEN`` bytes (or
    more); a short header or a bad magic is DecodeError."""
    if len(header) < HEADER_LEN:
        raise DecodeError(f"frame of {len(header)} bytes is shorter than the header")
    if header[:4] != MAGIC:
        raise DecodeError(f"bad magic {header[:4]!r}")
    return struct.unpack_from("<I", header, 5)[0]


def decode(frame: bytes) -> Message:
    """One full wire frame back to a message. Any deviation is DecodeError."""
    declared = payload_length(frame)
    tag = frame[4]
    payload = frame[HEADER_LEN:]
    if len(payload) != declared:
        raise DecodeError(f"declared payload of {declared} bytes, got {len(payload)}")
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise DecodeError(f"unknown message tag {tag}")
    msg, consumed = decoder(payload)
    if consumed != len(payload):
        raise DecodeError(f"{len(payload) - consumed} trailing bytes in payload")
    return msg
