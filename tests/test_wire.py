import random
import struct
from collections import Counter

import numpy as np
import pytest

from dpfed.errors import DecodeError, InvalidValue
from dpfed.network import NetworkDims
from dpfed.privacy import PrivacyParams
from dpfed.rng import RandomSource
from dpfed.wire import (
    GRAD_HEADER_LEN,
    HEADER_LEN,
    MAGIC,
    PROTOCOL_VERSION,
    TAG_DONE,
    TAG_GRAD,
    TAG_HELLO,
    Abort,
    Avg,
    Done,
    Grad,
    Hello,
    Init,
    avg_payload_size,
    decode,
    encode,
    grad_payload_size,
)


def sample_release(rng, step=3):
    return Grad(step_id=step, vector=rng.normals(11), spent=PrivacyParams(0.5, 1e-6))


def test_hello_frame_layout():
    frame = encode(Hello(worker_id=7))
    assert frame[:4] == MAGIC
    assert frame[4] == TAG_HELLO
    assert int.from_bytes(frame[5:9], "little") == 8
    assert int.from_bytes(frame[9:13], "little") == 7
    assert int.from_bytes(frame[13:17], "little") == PROTOCOL_VERSION
    assert len(frame) == 17


def test_grad_frame_layout():
    # step, epsilon, delta, length, then the vector: nothing else about the batch
    vec = np.array([0.25, -1.5, 3.0])
    frame = encode(Grad(9, vec, PrivacyParams(0.5, 1e-6)))
    assert GRAD_HEADER_LEN == 24
    assert frame[4] == TAG_GRAD
    assert len(frame) - HEADER_LEN == 24 + 8 * len(vec)
    assert struct.unpack_from("<IddI", frame, HEADER_LEN) == (9, 0.5, 1e-6, 3)
    assert frame[HEADER_LEN + 24 :] == vec.astype("<f8").tobytes()


def test_payload_sizes_are_those_of_full_frames():
    # the frame caps both ends set come from these sizes
    dims = NetworkDims(3, 4, 5)
    zeros = np.zeros(dims.parameter_count)
    assert grad_payload_size(dims) == len(encode(Grad(1, zeros, PrivacyParams(0.5, 1e-6)))) - HEADER_LEN
    assert avg_payload_size(dims) == len(encode(Avg(1, zeros))) - HEADER_LEN


def test_done_frame_is_13_bytes():
    # header (4 magic + 1 tag + 4 length) plus one u32 step count
    frame = encode(Done(20))
    assert len(frame) == 13
    assert frame[4] == TAG_DONE


def test_roundtrip_each_type():
    rng = RandomSource(1)
    msgs = [
        Hello(0),
        Hello(2**32 - 1, 1),
        Init(NetworkDims(3, 4, 5), 10, 1e-4, seed=42),
        Init(NetworkDims(2, 2, 2), 0, 0.5, parameters=rng.normals(NetworkDims(2, 2, 2).parameter_count)),
        sample_release(rng),
        Avg(5, rng.normals(7)),
        Done(100),
        Abort(1, "budget exhausted"),
        Abort(2, ""),
    ]
    for msg in msgs:
        assert decode(encode(msg)) == msg


def test_roundtrip_randomized():
    rng = RandomSource(99)
    for trial in range(200):
        grad = Grad(
            step_id=trial,
            vector=rng.normals(1 + trial % 17),
            spent=PrivacyParams(float(trial % 5), 1e-7 * (trial % 3)),
        )
        assert decode(encode(grad)) == grad
        avg = Avg(trial, rng.normals(trial % 13))
        assert decode(encode(avg)) == avg


def test_decode_rejects_bad_magic():
    frame = bytearray(encode(Hello(1)))
    frame[0] = ord("X")
    with pytest.raises(DecodeError):
        decode(bytes(frame))


def test_decode_rejects_unknown_tag():
    frame = bytearray(encode(Hello(1)))
    frame[4] = 42
    with pytest.raises(DecodeError):
        decode(bytes(frame))


def test_decode_rejects_length_mismatch():
    frame = bytearray(encode(Hello(1)))
    frame[5] = 99  # declared length no longer matches
    with pytest.raises(DecodeError):
        decode(bytes(frame))


def test_decode_rejects_truncation_and_trailing():
    frame = encode(Avg(1, np.arange(4.0)))
    with pytest.raises(DecodeError):
        decode(frame[:-1])
    with pytest.raises(DecodeError):
        decode(frame + b"\x00")


def test_decode_rejects_short_header():
    with pytest.raises(DecodeError):
        decode(b"FDP1\x01")


def test_decode_rejects_bad_utf8_reason():
    frame = bytearray(encode(Abort(1, "ok")))
    frame[-2] = 0xFF
    frame[-1] = 0xFE
    with pytest.raises(DecodeError):
        decode(bytes(frame))


def test_init_validation():
    dims = NetworkDims(2, 2, 2)
    with pytest.raises(InvalidValue):
        Init(dims, 1, 0.1)  # neither seed nor parameters
    with pytest.raises(InvalidValue):
        Init(dims, 1, 0.1, seed=1, parameters=np.zeros(dims.parameter_count))
    with pytest.raises(InvalidValue):
        Init(dims, 1, 0.1, parameters=np.zeros(3))
    for seed in (-1, 2**64):
        with pytest.raises(InvalidValue):
            Init(dims, 1, 0.1, seed=seed)
    for steps in (-1, 2**32):
        with pytest.raises(InvalidValue):
            Init(dims, steps, 0.1, seed=1)
    with pytest.raises(InvalidValue):
        Init(NetworkDims(2**32, 1, 1), 1, 0.1, seed=1)
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidValue):
            Init(dims, 1, lr, seed=1)


def test_init_parameter_payload_length_checked():
    dims = NetworkDims(2, 2, 2)
    msg = Init(dims, 1, 0.1, parameters=np.zeros(dims.parameter_count))
    frame = encode(msg)
    with pytest.raises(DecodeError):
        decode(frame[:-8])  # drop one parameter
    # a rate no Init can hold, patched into the frame after the u32 dims and steps
    bad_rate = bytearray(frame)
    struct.pack_into("<d", bad_rate, HEADER_LEN + 16, float("nan"))
    with pytest.raises(DecodeError):
        decode(bytes(bad_rate))


def test_grad_preserves_exact_floats():
    vec = np.array([0.1, -1.0 / 3.0, 1e-300, 123456.789])
    back = decode(encode(Grad(2, vec, PrivacyParams(0.0, 0.0))))
    assert back.vector.tolist() == vec.tolist()


def test_messages_are_equal_when_their_frames_are():
    # 0.0 and -0.0 compare equal as floats but are different frames
    dims = NetworkDims(1, 1, 1)
    spent = PrivacyParams(0.5, 1e-6)
    for build in (
        lambda zero: Grad(0, [zero], spent),
        lambda zero: Avg(0, [zero]),
        lambda zero: Init(dims, 1, 0.1, parameters=np.full(dims.parameter_count, zero)),
    ):
        assert build(0.0) == build(0.0)
        assert build(0.0) != build(-0.0)
    assert Grad(0, [1.0], spent) != Avg(0, [1.0])


def mutate_frame(frame: bytes, rng: random.Random) -> bytes:
    """One to three seeded corruptions of a frame: flipped bits, a cut,
    appended bytes, a rewritten length field or overwritten bytes. Half
    the positions fall in the first 48 bytes, where the fixed fields are."""
    b = bytearray(frame)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        i = rng.randrange(min(len(b), 48) if rng.random() < 0.5 else len(b)) if b else 0
        if kind == 0 and b:
            b[i] ^= 1 << rng.randrange(8)
        elif kind == 1:
            del b[i:]
        elif kind == 2:
            b += rng.randbytes(rng.randint(1, 16))
        elif kind == 3 and len(b) >= HEADER_LEN:
            near = len(b) - HEADER_LEN + rng.randint(-9, 9)
            struct.pack_into("<I", b, 5, rng.choice([max(near, 0), 0, rng.getrandbits(32)]))
        elif kind == 4:
            b[i : i + 8] = rng.randbytes(len(b[i : i + 8]))
    return bytes(b)


def test_mutated_frames_decode_to_themselves_or_raise():
    # whatever a peer sends is refused or is exactly one message: a frame
    # that decodes re-encodes to its own bytes, so frame equality is sound
    r = RandomSource(12)
    dims = NetworkDims(2, 2, 2)
    frames = [encode(m) for m in (
        Hello(3),
        Init(dims, 10, 0.01, seed=7),
        Init(dims, 10, 0.01, parameters=r.normals(dims.parameter_count)),
        Grad(4, r.normals(5), PrivacyParams(0.5, 1e-6)),
        Avg(4, r.normals(5)),
        Done(9),
        Abort(2, "timed out ✓"),
    )]
    rng = random.Random(2026)
    outcomes = Counter()
    for _ in range(20_000):
        frame = mutate_frame(rng.choice(frames), rng)
        try:
            msg = decode(frame)
        except DecodeError:
            outcomes["refused"] += 1
            continue
        assert encode(msg) == frame
        outcomes[type(msg).__name__] += 1
    assert set(outcomes) == {"refused", "Hello", "Init", "Grad", "Avg", "Done", "Abort"}, outcomes
