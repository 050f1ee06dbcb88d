import struct

import numpy as np
import pytest

from dpfed.dpsgd import GradientRelease
from dpfed.errors import DecodeError, InvalidValue
from dpfed.network import NetworkDims
from dpfed.privacy import PrivacyParams
from dpfed.rng import RandomSource
from dpfed.wire import (
    HEADER_LEN,
    MAGIC,
    PROTOCOL_VERSION,
    TAG_DONE,
    TAG_HELLO,
    Abort,
    Avg,
    Done,
    Grad,
    Hello,
    Init,
    decode,
    encode,
)


def sample_release(rng, step=3):
    return GradientRelease(
        step_id=step,
        vector=rng.normals(11),
        spent=PrivacyParams(0.5, 1e-6),
        clip_bound=1.0,
        batch_size=4,
        noisy=True,
    )


def test_hello_frame_layout():
    frame = encode(Hello(worker_id=7))
    assert frame[:4] == MAGIC
    assert frame[4] == TAG_HELLO
    assert int.from_bytes(frame[5:9], "little") == 8
    assert int.from_bytes(frame[9:13], "little") == 7
    assert int.from_bytes(frame[13:17], "little") == PROTOCOL_VERSION
    assert len(frame) == 17


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
        Grad(sample_release(rng)),
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
        r = GradientRelease(
            step_id=trial,
            vector=rng.normals(1 + trial % 17),
            spent=PrivacyParams(float(trial % 5), 1e-7 * (trial % 3)),
            clip_bound=0.1 + trial,
            batch_size=1 + trial % 9,
            noisy=bool(trial % 2),
        )
        assert decode(encode(Grad(r))) == Grad(r)
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
    release = GradientRelease(2, vec, PrivacyParams(0.0, 0.0), 1.0, 1, False)
    back = decode(encode(Grad(release)))
    assert back.release.vector.tolist() == vec.tolist()
