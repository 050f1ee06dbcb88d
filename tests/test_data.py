import math
import random
import struct
from collections import Counter

import numpy as np
import pytest

from dpfed.data import (
    DATA_MAGIC,
    Dataset,
    FeatureSequence,
    OutlierSpec,
    SynthSpec,
    filter_speakers,
    merge,
    read_dataset,
    split,
    synth_generate,
    write_dataset,
)
from dpfed.errors import InvalidValue
from dpfed.rng import RandomSource


def small_spec(**over):
    base = dict(
        feature_dim=3,
        num_classes=4,
        n_speakers=3,
        sequences_per_speaker=4,
        frames_per_sequence=6,
    )
    base.update(over)
    return SynthSpec(**base)


def test_sequence_validation():
    with pytest.raises(InvalidValue, match=r"frames must be \(T >= 1, dim\)"):
        FeatureSequence(0, np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
    with pytest.raises(InvalidValue, match="need exactly one label per frame"):
        FeatureSequence(0, np.zeros((2, 3)), np.zeros(3, dtype=np.int64))
    with pytest.raises(InvalidValue, match="labels must be integers"):
        FeatureSequence(0, np.zeros((2, 3)), np.array([0.5, 1.5]))
    with pytest.raises(InvalidValue):
        FeatureSequence(0, np.full((2, 3), np.nan), np.zeros(2, dtype=np.int64))


def test_dataset_validation():
    seq = FeatureSequence(0, np.zeros((2, 3)), np.array([0, 3]))
    Dataset(3, 4, (seq,))
    with pytest.raises(InvalidValue, match="label out of range for 3 classes"):
        Dataset(3, 3, (seq,))
    with pytest.raises(InvalidValue, match="sequence has dim 3, dataset has 4"):
        Dataset(4, 4, (seq,))


def test_synth_shape_and_determinism():
    spec = small_spec()
    ds = synth_generate(spec, RandomSource(10))
    assert ds.n_sequences == 12
    assert ds.feature_dim == 3
    assert ds.speaker_ids == [0, 1, 2]
    assert all(s.n_frames == 6 for s in ds.sequences)
    again = synth_generate(spec, RandomSource(10))
    for a, b in zip(ds.sequences, again.sequences):
        assert np.array_equal(a.frames, b.frames)
        assert np.array_equal(a.labels, b.labels)


def test_synth_labels_cycle():
    ds = synth_generate(small_spec(), RandomSource(1))
    assert ds.sequences[0].labels.tolist() == [0, 1, 2, 3, 0, 1]
    assert ds.sequences[1].labels.tolist() == [1, 2, 3, 0, 1, 2]


def test_synth_outlier_scales_only_that_speaker():
    spec_plain = small_spec()
    spec_out = small_spec(outlier=OutlierSpec(speaker_index=2, offset_multiplier=10.0))
    plain = synth_generate(spec_plain, RandomSource(3))
    out = synth_generate(spec_out, RandomSource(3))
    # same draws: non-outlier speakers are bit-identical
    for a, b in zip(plain.sequences, out.sequences):
        if a.speaker_id != 2:
            assert np.array_equal(a.frames, b.frames)
    # outlier frames are shifted by (multiplier - 1) * offset, a constant per speaker
    for a, b in zip(plain.sequences, out.sequences):
        if a.speaker_id == 2:
            diff = b.frames - a.frames
            assert np.allclose(diff, diff[0, :], atol=1e-12)
            assert np.linalg.norm(diff[0]) > 0


def test_synth_spec_validation():
    with pytest.raises(InvalidValue):
        small_spec(n_speakers=0)
    with pytest.raises(InvalidValue):
        small_spec(outlier=OutlierSpec(speaker_index=5, offset_multiplier=10.0))
    with pytest.raises(InvalidValue):
        OutlierSpec(speaker_index=0, offset_multiplier=0.5)


def test_file_roundtrip(tmp_path):
    ds = synth_generate(small_spec(), RandomSource(77))
    path = tmp_path / "corpus.seno"
    write_dataset(ds, path)
    raw = path.read_bytes()
    assert raw[:8] == DATA_MAGIC
    back = read_dataset(path)
    assert back.feature_dim == ds.feature_dim
    assert back.num_classes == ds.num_classes
    assert back.n_sequences == ds.n_sequences
    for a, b in zip(ds.sequences, back.sequences):
        assert b.speaker_id == a.speaker_id
        assert np.array_equal(b.labels, a.labels)
        # frames survive exactly up to the float32 narrowing
        assert np.array_equal(b.frames, a.frames.astype(np.float32).astype(np.float64))
    # a second write of the parsed dataset is byte-identical
    path2 = tmp_path / "again.seno"
    write_dataset(back, path2)
    assert path2.read_bytes() == raw


def test_file_format_errors(tmp_path):
    ds = synth_generate(small_spec(n_speakers=1, sequences_per_speaker=1), RandomSource(0))
    path = tmp_path / "corpus.seno"
    write_dataset(ds, path)
    raw = path.read_bytes()

    bad = tmp_path / "bad.seno"
    bad.write_bytes(b"WRONGMAG" + raw[8:])
    with pytest.raises(InvalidValue, match="bad dataset magic"):
        read_dataset(bad)
    bad.write_bytes(raw[:-3])
    with pytest.raises(InvalidValue, match="truncated inside sequence 0"):
        read_dataset(bad)
    bad.write_bytes(raw + b"\x00")
    with pytest.raises(InvalidValue, match="1 trailing bytes after last sequence"):
        read_dataset(bad)
    # label out of range: last 4 bytes are the final u32 label
    bad.write_bytes(raw[:-4] + (12345).to_bytes(4, "little"))
    with pytest.raises(InvalidValue, match="sequence 0 has a label out of range"):
        read_dataset(bad)


def test_write_refuses_frames_that_overflow_float32(tmp_path):
    # finite as float64 but inf once narrowed, so read_dataset would refuse the file
    top = float(np.finfo(np.float32).max)
    path = tmp_path / "corpus.seno"
    write_dataset(Dataset(2, 3, (FeatureSequence(0, np.array([[top, -top]]), np.array([2])),)), path)
    assert read_dataset(path).sequences[0].frames.tolist() == [[top, -top]]
    path.unlink()
    seqs = (
        FeatureSequence(0, np.zeros((1, 2)), np.array([0])),
        FeatureSequence(0, np.array([[1e39, 0.0]]), np.array([1])),
    )
    with pytest.raises(InvalidValue, match="sequence 1 has frames outside the float32 range"):
        write_dataset(Dataset(2, 3, seqs), path)
    assert not path.exists()


def test_read_refuses_signaling_nan_frame(tmp_path):
    # widening a float32 signaling NaN to float64 warns; the reader refuses it without a warning
    path = tmp_path / "snan.seno"
    path.write_bytes(DATA_MAGIC + struct.pack("<IIIIIII", 1, 1, 1, 0, 1, 0x7F800001, 0))
    with pytest.raises(InvalidValue, match="sequence 0: frames must be finite"):
        read_dataset(path)


F32_SPECIALS = [struct.pack("<f", v) for v in (math.nan, math.inf, -math.inf, -0.0)] + [
    struct.pack("<I", 0x7F800001),  # signaling NaNs
    struct.pack("<I", 0xFFA00000),
]


def mutate_file(
    data: bytes, rng: random.Random, u32_fields: list[int], values: list[int], specials: list[bytes]
) -> bytes:
    """One to three seeded corruptions of a file: a flipped bit, a cut,
    appended bytes, a rewritten u32 field at one of ``u32_fields``, or one
    of ``specials`` (NaN, signaling NaN, inf, -0.0) written over the value
    at one of ``values``."""
    b = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        if kind == 0 and b:
            b[rng.randrange(len(b))] ^= 1 << rng.randrange(8)
        elif kind == 1:
            del b[rng.randrange(len(b) + 1) :]
        elif kind == 2:
            b += rng.randbytes(rng.randint(1, 16))
        elif kind == 3:
            i = rng.choice(u32_fields)
            if i + 4 <= len(b):
                near = (struct.unpack_from("<I", b, i)[0] + rng.randint(-2, 2)) % 2**32
                struct.pack_into("<I", b, i, rng.choice([near, 0, 2**32 - 1, rng.getrandbits(32)]))
        else:
            i, special = rng.choice(values), rng.choice(specials)
            if i + len(special) <= len(b):
                b[i : i + len(special)] = special
    return bytes(b)


def test_mutated_dataset_files_parse_or_raise_invalid_value(tmp_path):
    # whatever bytes a dataset file holds, reading it ends in a Dataset or
    # InvalidValue (tier-1 turns any warning into a failure); a file that
    # parses writes back to its own bytes
    dim, t, n_seq = 2, 3, 4
    ds = synth_generate(small_spec(feature_dim=dim, num_classes=3, n_speakers=2, sequences_per_speaker=2,
                                   frames_per_sequence=t), RandomSource(4))
    path = tmp_path / "corpus.seno"
    write_dataset(ds, path)
    raw = path.read_bytes()
    seq_len = 8 + 4 * t * (dim + 1)
    starts = [20 + k * seq_len for k in range(n_seq)]
    u32_fields = [8, 12, 16] + [s + j for s in starts for j in (0, 4)]
    frames = [s + 8 + 4 * j for s in starts for j in range(t * dim)]
    rng = random.Random(2027)
    outcomes = Counter()
    for _ in range(5_000):
        data = mutate_file(raw, rng, u32_fields, frames, F32_SPECIALS)
        path.write_bytes(data)
        try:
            back = read_dataset(path)
        except InvalidValue:
            outcomes["refused"] += 1
            continue
        write_dataset(back, tmp_path / "again.seno")
        assert (tmp_path / "again.seno").read_bytes() == data
        outcomes["parsed"] += 1
    assert outcomes["refused"] > 2_500 and outcomes["parsed"] > 250, outcomes


def test_split_stratified():
    ds = synth_generate(small_spec(n_speakers=4, sequences_per_speaker=8), RandomSource(5))
    train, test = split(ds, 0.25, RandomSource(6))
    assert train.n_sequences + test.n_sequences == ds.n_sequences
    assert train.speaker_ids == ds.speaker_ids
    assert test.speaker_ids == ds.speaker_ids
    for speaker in ds.speaker_ids:
        n_test = sum(1 for s in test.sequences if s.speaker_id == speaker)
        assert n_test == 2  # round(8 * 0.25)
    # no sequence appears on both sides
    train_ids = {id(s) for s in train.sequences}
    test_ids = {id(s) for s in test.sequences}
    assert not train_ids & test_ids


def test_split_deterministic():
    ds = synth_generate(small_spec(), RandomSource(5))
    a = split(ds, 0.3, RandomSource(9))
    b = split(ds, 0.3, RandomSource(9))
    assert [s.speaker_id for s in a[1].sequences] == [s.speaker_id for s in b[1].sequences]
    assert all(np.array_equal(x.frames, y.frames) for x, y in zip(a[1].sequences, b[1].sequences))


def test_split_never_returns_empty_side():
    ds = synth_generate(small_spec(n_speakers=1, sequences_per_speaker=2), RandomSource(0))
    train, test = split(ds, 0.05, RandomSource(1))
    assert train.n_sequences == 1 and test.n_sequences == 1
    train, test = split(ds, 0.95, RandomSource(1))
    assert train.n_sequences == 1 and test.n_sequences == 1


def test_split_errors():
    ds = synth_generate(small_spec(), RandomSource(0))
    with pytest.raises(InvalidValue, match=r"test fraction must lie in \(0, 1\), got 0.0"):
        split(ds, 0.0, RandomSource(0))
    with pytest.raises(InvalidValue, match=r"test fraction must lie in \(0, 1\), got 1.0"):
        split(ds, 1.0, RandomSource(0))
    single = Dataset(3, 4, (ds.sequences[0],))
    with pytest.raises(InvalidValue, match="split needs at least 2 sequences"):
        split(single, 0.5, RandomSource(0))


def test_filter_and_merge():
    ds = synth_generate(small_spec(), RandomSource(2))
    only_one = filter_speakers(ds, [1])
    assert only_one.speaker_ids == [1]
    assert only_one.n_sequences == 4
    with pytest.raises(InvalidValue, match=r"no sequences for speakers \[99\]"):
        filter_speakers(ds, [99])
    back = merge([filter_speakers(ds, [0]), filter_speakers(ds, [1]), filter_speakers(ds, [2])])
    assert back.n_sequences == ds.n_sequences
    other = synth_generate(small_spec(feature_dim=5), RandomSource(2))
    with pytest.raises(InvalidValue, match="merged datasets must share dim and num_classes"):
        merge([ds, other])
    with pytest.raises(InvalidValue, match="merge needs at least one dataset"):
        merge([])


def test_outlier_frames_linearly_separable():
    # With the default corpus shape and multiplier 10, the outlier speaker
    # sits so far from everyone else that a two-centroid nearest-mean
    # classifier tells outlier frames from the rest almost perfectly.
    spec = SynthSpec(outlier=OutlierSpec(speaker_index=5, offset_multiplier=10.0))
    ds = synth_generate(spec, RandomSource(99))
    outlier = np.concatenate([s.frames for s in ds.sequences if s.speaker_id == 5])
    rest = np.concatenate([s.frames for s in ds.sequences if s.speaker_id != 5])
    c_out = outlier.mean(axis=0)
    c_rest = rest.mean(axis=0)

    def hits(frames, own, other):
        d_own = np.linalg.norm(frames - own, axis=1)
        d_other = np.linalg.norm(frames - other, axis=1)
        return int(np.sum(d_own < d_other))

    correct = hits(outlier, c_out, c_rest) + hits(rest, c_rest, c_out)
    assert correct / (len(outlier) + len(rest)) > 0.95
