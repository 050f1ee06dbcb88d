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
from dpfed.errors import EmptyDataset, FormatError, InvalidFraction, InvalidValue, LabelError, ShapeError
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
    with pytest.raises(ShapeError):
        FeatureSequence(0, np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ShapeError):
        FeatureSequence(0, np.zeros((2, 3)), np.zeros(3, dtype=np.int64))
    with pytest.raises(LabelError):
        FeatureSequence(0, np.zeros((2, 3)), np.array([0.5, 1.5]))
    with pytest.raises(InvalidValue):
        FeatureSequence(0, np.full((2, 3), np.nan), np.zeros(2, dtype=np.int64))


def test_dataset_validation():
    seq = FeatureSequence(0, np.zeros((2, 3)), np.array([0, 3]))
    Dataset(3, 4, (seq,))
    with pytest.raises(LabelError):
        Dataset(3, 3, (seq,))
    with pytest.raises(ShapeError):
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
    with pytest.raises(FormatError):
        read_dataset(bad)
    bad.write_bytes(raw[:-3])
    with pytest.raises(FormatError):
        read_dataset(bad)
    bad.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError):
        read_dataset(bad)
    # label out of range: last 4 bytes are the final u32 label
    bad.write_bytes(raw[:-4] + (12345).to_bytes(4, "little"))
    with pytest.raises(FormatError):
        read_dataset(bad)


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
    with pytest.raises(InvalidFraction):
        split(ds, 0.0, RandomSource(0))
    with pytest.raises(InvalidFraction):
        split(ds, 1.0, RandomSource(0))
    single = Dataset(3, 4, (ds.sequences[0],))
    with pytest.raises(EmptyDataset):
        split(single, 0.5, RandomSource(0))


def test_filter_and_merge():
    ds = synth_generate(small_spec(), RandomSource(2))
    only_one = filter_speakers(ds, [1])
    assert only_one.speaker_ids == [1]
    assert only_one.n_sequences == 4
    with pytest.raises(EmptyDataset):
        filter_speakers(ds, [99])
    back = merge([filter_speakers(ds, [0]), filter_speakers(ds, [1]), filter_speakers(ds, [2])])
    assert back.n_sequences == ds.n_sequences
    other = synth_generate(small_spec(feature_dim=5), RandomSource(2))
    with pytest.raises(ShapeError):
        merge([ds, other])
    with pytest.raises(EmptyDataset):
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
