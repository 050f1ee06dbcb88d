"""Frame accuracy scoring, per-speaker breakdowns, cross-evaluation tables,
and the membership gap probe.

Accuracy is per-frame argmax agreement with the label; argmax ties go to
the lowest class index. The membership probe compares a candidate model
against a baseline that never saw the probe speaker: a gap of more than
five percentage points on that speaker's held-out data is flagged as
leakage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import EmptyDataset, ShapeError
from .network import Network, forward

LEAK_THRESHOLD_POINTS = 5.0
EVAL_CHUNK = 16  # sequences per forward pass; bounds the forward cache accuracy holds


@dataclass(frozen=True)
class SpeakerScore:
    speaker_id: int
    n_frames: int
    n_correct: int

    @property
    def accuracy(self) -> float:
        return self.n_correct / self.n_frames


@dataclass(frozen=True)
class EvalReport:
    """Per-frame accuracy over a dataset, overall and per speaker."""

    n_frames: int
    n_correct: int
    speakers: tuple[SpeakerScore, ...]

    @property
    def overall(self) -> float:
        return self.n_correct / self.n_frames

    def render_text(self) -> str:
        lines = [f"overall    {self.overall:8.4f}  ({self.n_correct}/{self.n_frames} frames)"]
        for s in self.speakers:
            lines.append(f"speaker {s.speaker_id:>3}{s.accuracy:8.4f}  ({s.n_correct}/{s.n_frames} frames)")
        return "\n".join(lines)


def predict_labels(net: Network, frames: np.ndarray) -> np.ndarray:
    """Per-frame argmax class; ties resolve to the lowest index.

    ``frames`` is one sequence (T, d) or B equal-length sequences (T, B, d).
    """
    logits, _ = forward(net, frames)
    return np.argmax(logits, axis=-1)


def accuracy(net: Network, dataset: Dataset) -> EvalReport:
    """Score every frame of the dataset, in batches of up to EVAL_CHUNK equal-length sequences.

    The kernel's result for a sequence does not depend on what else is in
    its batch, so the chunk size changes memory and speed, never a count.
    """
    if dataset.n_sequences == 0:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    if dataset.feature_dim != net.dims.input_dim:
        raise ShapeError(
            f"dataset dim {dataset.feature_dim} does not match model input {net.dims.input_dim}"
        )
    by_length: dict[int, list] = {}
    for seq in dataset.sequences:
        by_length.setdefault(seq.n_frames, []).append(seq)
    per_speaker: dict[int, list[int]] = {}
    for group in by_length.values():
        for start in range(0, len(group), EVAL_CHUNK):
            chunk = group[start : start + EVAL_CHUNK]
            preds = predict_labels(net, np.stack([seq.frames for seq in chunk], axis=1))
            for seq, seq_preds in zip(chunk, preds.T):
                bucket = per_speaker.setdefault(seq.speaker_id, [0, 0])
                bucket[0] += seq.n_frames
                bucket[1] += int((seq_preds == seq.labels).sum())
    speakers = tuple(
        SpeakerScore(sid, frames, correct)
        for sid, (frames, correct) in sorted(per_speaker.items())
    )
    return EvalReport(
        n_frames=sum(s.n_frames for s in speakers),
        n_correct=sum(s.n_correct for s in speakers),
        speakers=speakers,
    )


@dataclass(frozen=True)
class GapProbe:
    """Candidate-vs-baseline accuracy on one speaker's held-out data."""

    baseline_accuracy: float
    candidate_accuracy: float

    @property
    def gap_points(self) -> float:
        return (self.candidate_accuracy - self.baseline_accuracy) * 100.0

    @property
    def leaky(self) -> bool:
        return self.gap_points > LEAK_THRESHOLD_POINTS

    def verdict(self) -> str:
        return "LEAK" if self.leaky else "NO-LEAK"


def membership_gap(candidate: Network, baseline: Network, probe_set: Dataset) -> GapProbe:
    """How much better the candidate does on data only it may have seen.

    A candidate that trained on the probe speaker tends to beat a baseline
    that never saw them; a gap above LEAK_THRESHOLD_POINTS points is the
    leakage signal.
    """
    return GapProbe(
        baseline_accuracy=accuracy(baseline, probe_set).overall,
        candidate_accuracy=accuracy(candidate, probe_set).overall,
    )


@dataclass(frozen=True)
class ExperimentReport:
    """Accuracy of every model on every test set, as a renderable table.

    The TSV form is written for other tools; dpfed never reads it back."""

    rows: tuple[tuple[str, str, float], ...]

    def render_text(self) -> str:
        model_w = max([len("model")] + [len(r[0]) for r in self.rows])
        test_w = max([len("testset")] + [len(r[1]) for r in self.rows])
        lines = [f"{'model':<{model_w}}  {'testset':<{test_w}}  accuracy"]
        for model, test, acc in self.rows:
            lines.append(f"{model:<{model_w}}  {test:<{test_w}}  {acc:8.4f}")
        return "\n".join(lines)

    def render_tsv(self) -> str:
        lines = ["model\ttestset\taccuracy"]
        for model, test, acc in self.rows:
            lines.append(f"{model}\t{test}\t{acc!r}")
        return "\n".join(lines) + "\n"


def cross_evaluate(
    models: Sequence[tuple[str, Network]], testsets: Sequence[tuple[str, Dataset]]
) -> ExperimentReport:
    """Evaluate every model on every test set."""
    rows = []
    for model_label, net in models:
        for test_label, ds in testsets:
            rows.append((model_label, test_label, accuracy(net, ds).overall))
    return ExperimentReport(rows=tuple(rows))
