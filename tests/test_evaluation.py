import numpy as np
import pytest

from dpfed.data import Dataset, FeatureSequence, synth_generate, SynthSpec
from dpfed.errors import EmptyDataset, ShapeError
from dpfed.evaluation import (
    EVAL_CHUNK,
    ExperimentReport,
    GapProbe,
    accuracy,
    cross_evaluate,
    membership_gap,
    predict_labels,
)
from dpfed.network import Network, NetworkDims, init_network
from dpfed.rng import RandomSource


def zero_network(dims):
    d, h, o = dims.input_dim, dims.hidden_dim, dims.output_dim
    return Network(
        dims=dims,
        wx=np.zeros((4 * h, d)),
        wh=np.zeros((4 * h, h)),
        b=np.zeros(4 * h),
        wo=np.zeros((o, h)),
        bo=np.zeros(o),
    )


def make_dataset(rng, dims, n_speakers=3, seqs=4, frames=5):
    seqs_out = []
    for spk in range(n_speakers):
        for _ in range(seqs):
            frames_arr = rng.normals((frames, dims.input_dim))
            labels = (rng.normals(frames) > 0).astype(np.int64) % dims.output_dim
            seqs_out.append(FeatureSequence(spk, frames_arr, labels))
    return Dataset(dims.input_dim, dims.output_dim, tuple(seqs_out))


def test_zero_network_predicts_class_zero():
    # All logits are zero, so the tie-break toward the lowest index
    # makes accuracy exactly the frequency of label 0.
    dims = NetworkDims(3, 4, 5)
    net = zero_network(dims)
    rng = RandomSource(11)
    labels_all = []
    seqs = []
    for spk in range(2):
        frames = rng.normals((20, 3))
        labels = np.arange(20, dtype=np.int64) % 5
        labels_all.extend(labels.tolist())
        seqs.append(FeatureSequence(spk, frames, labels))
    ds = Dataset(3, 5, tuple(seqs))
    report = accuracy(net, ds)
    want = sum(1 for y in labels_all if y == 0) / len(labels_all)
    assert report.overall == want


def test_constant_bias_oracle_model():
    # Huge bias on class 2 dominates every logit; labels all 2 give accuracy 1.
    dims = NetworkDims(3, 4, 5)
    net = zero_network(dims)
    bo = np.zeros(5)
    bo[2] = 1e6
    net = Network(dims=dims, wx=net.wx, wh=net.wh, b=net.b, wo=net.wo, bo=bo)
    seq = FeatureSequence(0, np.ones((6, 3)), np.full(6, 2, dtype=np.int64))
    report = accuracy(net, Dataset(3, 5, (seq,)))
    assert report.overall == 1.0


def test_accuracy_invariant_under_increasing_logit_transform():
    dims = NetworkDims(4, 6, 5)
    rng = RandomSource(7)
    net = init_network(dims, rng)
    ds = make_dataset(rng, dims)
    base = accuracy(net, ds)
    # logits' = 7*logits + 3 leaves every argmax unchanged
    scaled = Network(
        dims=dims, wx=net.wx, wh=net.wh, b=net.b, wo=7.0 * net.wo, bo=7.0 * net.bo + 3.0
    )
    assert accuracy(scaled, ds).overall == base.overall


def test_accuracy_permutation_invariant_and_deterministic():
    dims = NetworkDims(4, 5, 3)
    rng = RandomSource(13)
    net = init_network(dims, rng)
    ds = make_dataset(rng, dims)
    report = accuracy(net, ds)
    again = accuracy(net, ds)
    assert report == again
    shuffled = Dataset(ds.feature_dim, ds.num_classes, tuple(reversed(ds.sequences)))
    assert accuracy(net, shuffled).overall == report.overall


def test_report_speaker_counts_sum_to_total():
    dims = NetworkDims(3, 4, 4)
    rng = RandomSource(5)
    net = init_network(dims, rng)
    ds = make_dataset(rng, dims, n_speakers=4, seqs=3, frames=7)
    report = accuracy(net, ds)
    assert sum(s.n_frames for s in report.speakers) == report.n_frames
    assert sum(s.n_correct for s in report.speakers) == report.n_correct
    assert report.n_frames == ds.n_frames


def test_accuracy_errors():
    dims = NetworkDims(3, 4, 4)
    net = init_network(dims, RandomSource(1))
    with pytest.raises(EmptyDataset):
        accuracy(net, Dataset(3, 4, ()))
    bad = make_dataset(RandomSource(2), NetworkDims(5, 4, 4))
    with pytest.raises(ShapeError):
        accuracy(net, bad)


def test_accuracy_mixed_lengths_matches_per_sequence_predictions():
    dims = NetworkDims(3, 6, 4)
    net = init_network(dims, RandomSource(8))
    rng = RandomSource(9)
    # the second input holds one length group that spans three chunks
    for lengths in ((7, 3, 7, 1, 3, 7, 12), (4,) * (2 * EVAL_CHUNK + 3) + (2,)):
        seqs = []
        for i, t_len in enumerate(lengths):
            frames = rng.derive("x", i).normals((t_len, 3))
            labels = (rng.derive("y", i).uniforms(t_len) * 4).astype(np.int64)
            seqs.append(FeatureSequence(i % 3, frames, labels))
        report = accuracy(net, Dataset(3, 4, tuple(seqs)))
        hits = {spk: 0 for spk in range(3)}
        frames_seen = {spk: 0 for spk in range(3)}
        for seq in seqs:
            hits[seq.speaker_id] += int((predict_labels(net, seq.frames) == seq.labels).sum())
            frames_seen[seq.speaker_id] += seq.n_frames
        assert [(s.speaker_id, s.n_frames, s.n_correct) for s in report.speakers] == [
            (spk, frames_seen[spk], hits[spk]) for spk in range(3)
        ]
        assert (report.n_frames, report.n_correct) == (sum(frames_seen.values()), sum(hits.values()))


def test_predict_labels_tie_breaks_low():
    dims = NetworkDims(2, 3, 4)
    net = zero_network(dims)
    pred = predict_labels(net, np.ones((5, 2)))
    assert pred.tolist() == [0, 0, 0, 0, 0]


def test_membership_gap_identity_is_zero():
    dims = NetworkDims(3, 4, 4)
    rng = RandomSource(3)
    net = init_network(dims, rng)
    ds = make_dataset(rng, dims)
    probe = membership_gap(net, net, ds)
    assert probe.gap_points == 0.0
    assert not probe.leaky
    assert probe.verdict() == "NO-LEAK"


def test_gap_threshold_verdicts():
    assert GapProbe(0.20, 0.26).verdict() == "LEAK"
    # exactly +5 points is not flagged; the threshold is strict
    assert GapProbe(0.20, 0.25).verdict() == "NO-LEAK"
    assert GapProbe(0.26, 0.20).verdict() == "NO-LEAK"
    assert GapProbe(0.20, 0.26).gap_points == pytest.approx(6.0)


def test_cross_evaluate_shape_and_order():
    dims = NetworkDims(3, 4, 4)
    rng = RandomSource(17)
    nets = [(f"m{i}", init_network(dims, rng.derive("net", i))) for i in range(3)]
    sets = [(f"t{j}", make_dataset(rng.derive("data", j), dims)) for j in range(2)]
    report = cross_evaluate(nets, sets)
    assert [(m, t) for m, t, _ in report.rows] == [
        ("m0", "t0"), ("m0", "t1"),
        ("m1", "t0"), ("m1", "t1"),
        ("m2", "t0"), ("m2", "t1"),
    ]
    assert report.rows[3][2] == accuracy(nets[1][1], sets[1][1]).overall


def test_report_tsv_round_trip():
    # accuracies are written as repr floats, so a reader recovers them exactly
    report = ExperimentReport(rows=(("warm", "indist", 0.387), ("open", "outlier", 1 / 3)))
    assert report.render_tsv() == (
        "model\ttestset\taccuracy\n"
        "warm\tindist\t0.387\n"
        "open\toutlier\t0.3333333333333333\n"
    )


def test_report_text_has_header_and_rows():
    report = ExperimentReport(rows=(("warm", "indist", 0.5),))
    text = report.render_text()
    lines = text.splitlines()
    assert lines[0].split() == ["model", "testset", "accuracy"]
    assert len(lines) == 2
    assert "warm" in lines[1]
