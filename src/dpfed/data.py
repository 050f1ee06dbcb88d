"""Labelled frame-sequence datasets: in-memory model, synthetic generator,
and the SENO0001 binary file format.

On disk frames are float32 little-endian; in memory everything is float64.
A file is: the 8-byte magic ``SENO0001``, then u32 feature_dim, u32
num_classes, u32 n_sequences, then per sequence u32 speaker_id, u32
n_frames, the frames row-major as f32, and the labels as u32.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidValue
from .rng import RandomSource

DATA_MAGIC = b"SENO0001"


@dataclass(frozen=True)
class FeatureSequence:
    """One utterance: a speaker id, frames (T, dim), one label per frame."""

    speaker_id: int
    frames: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.speaker_id < 0:
            raise InvalidValue(f"speaker id must be >= 0, got {self.speaker_id}")
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise InvalidValue(f"frames must be (T >= 1, dim), got {self.frames.shape}")
        if not np.isfinite(self.frames).all():
            raise InvalidValue("frames must be finite")
        if self.labels.shape != (self.frames.shape[0],):
            raise InvalidValue("need exactly one label per frame")
        if self.labels.dtype.kind not in "iu":
            raise InvalidValue(f"labels must be integers, got {self.labels.dtype}")
        if self.labels.min() < 0:
            raise InvalidValue("labels must be >= 0")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class Dataset:
    """A bag of sequences sharing a feature dimension and label alphabet."""

    feature_dim: int
    num_classes: int
    sequences: tuple[FeatureSequence, ...]

    def __post_init__(self):
        if self.feature_dim < 1 or self.num_classes < 1:
            raise InvalidValue("feature_dim and num_classes must be positive")
        for i, seq in enumerate(self.sequences):
            if seq.frames.shape[1] != self.feature_dim:
                raise InvalidValue(
                    f"sequence has dim {seq.frames.shape[1]}, dataset has {self.feature_dim}"
                )
            if seq.labels.max() >= self.num_classes:
                raise InvalidValue(f"sequence {i} has a label out of range for {self.num_classes} classes")

    @property
    def n_sequences(self) -> int:
        return len(self.sequences)

    @property
    def n_frames(self) -> int:
        return sum(s.n_frames for s in self.sequences)

    @property
    def speaker_ids(self) -> list[int]:
        return sorted({s.speaker_id for s in self.sequences})


@dataclass(frozen=True)
class OutlierSpec:
    """Marks one speaker whose offset is stretched by a multiplier."""

    speaker_index: int
    offset_multiplier: float

    def __post_init__(self):
        if self.speaker_index < 0:
            raise InvalidValue("outlier speaker index must be >= 0")
        if not self.offset_multiplier >= 1.0:
            raise InvalidValue("outlier multiplier must be >= 1")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic corpus.

    Class centers are standard normal in feature space; each speaker gets
    a normal offset scaled by speaker_offset_scale (times the outlier
    multiplier for the outlier speaker); frames are their class center
    plus the speaker offset plus noise_scale * standard normal. Labels
    cycle deterministically through the classes.
    """

    feature_dim: int = 13
    num_classes: int = 32
    n_speakers: int = 6
    sequences_per_speaker: int = 10
    frames_per_sequence: int = 50
    speaker_offset_scale: float = 0.35
    noise_scale: float = 0.25
    outlier: OutlierSpec | None = None

    def __post_init__(self):
        for name in ("feature_dim", "num_classes", "n_speakers", "sequences_per_speaker", "frames_per_sequence"):
            if getattr(self, name) < 1:
                raise InvalidValue(f"{name} must be >= 1")
        if self.speaker_offset_scale < 0.0 or self.noise_scale < 0.0:
            raise InvalidValue("scales must be >= 0")
        if self.outlier is not None and self.outlier.speaker_index >= self.n_speakers:
            raise InvalidValue("outlier speaker index out of range")


def synth_generate(spec: SynthSpec, rng: RandomSource) -> Dataset:
    """Deterministic synthetic corpus for a given spec and seed.

    Draw order is fixed: class centers, then per speaker the offset, then
    per sequence the frame noise, so any (spec, seed) pair reproduces the
    same corpus bit for bit.
    """
    centers = rng.normals((spec.num_classes, spec.feature_dim))
    sequences: list[FeatureSequence] = []
    seq_counter = 0
    for s in range(spec.n_speakers):
        offset = rng.normals(spec.feature_dim) * spec.speaker_offset_scale
        if spec.outlier is not None and s == spec.outlier.speaker_index:
            offset = offset * spec.outlier.offset_multiplier
        for _ in range(spec.sequences_per_speaker):
            t = spec.frames_per_sequence
            labels = (seq_counter + np.arange(t)) % spec.num_classes
            noise = rng.normals((t, spec.feature_dim)) * spec.noise_scale
            frames = centers[labels] + offset + noise
            sequences.append(FeatureSequence(speaker_id=s, frames=frames, labels=labels.astype(np.int64)))
            seq_counter += 1
    return Dataset(feature_dim=spec.feature_dim, num_classes=spec.num_classes, sequences=tuple(sequences))


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Serialize to SENO0001. Frames are narrowed to float32; one that overflows
    float32, which ``read_dataset`` would refuse, is refused before any byte is written."""
    parts = [DATA_MAGIC, struct.pack("<III", dataset.feature_dim, dataset.num_classes, dataset.n_sequences)]
    for i, seq in enumerate(dataset.sequences):
        with np.errstate(over="ignore"):
            frames = seq.frames.astype("<f4")
        if not np.all(np.isfinite(frames)):
            raise InvalidValue(f"sequence {i} has frames outside the float32 range")
        parts.append(struct.pack("<II", seq.speaker_id, seq.n_frames))
        parts.append(frames.tobytes())
        parts.append(seq.labels.astype("<u4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_dataset(path: str | Path) -> Dataset:
    """Parse a SENO0001 file; frames come back as float64."""
    data = Path(path).read_bytes()
    if len(data) < 20:
        raise InvalidValue("dataset file truncated before header")
    if data[:8] != DATA_MAGIC:
        raise InvalidValue(f"bad dataset magic {data[:8]!r}")
    dim, classes, n_seq = struct.unpack("<III", data[8:20])
    if dim < 1 or classes < 1:
        raise InvalidValue("header dims must be positive")
    off = 20
    sequences: list[FeatureSequence] = []
    for i in range(n_seq):
        if off + 8 > len(data):
            raise InvalidValue(f"truncated at sequence {i} header")
        speaker, t = struct.unpack("<II", data[off : off + 8])
        off += 8
        frame_bytes = 4 * t * dim
        if off + frame_bytes + 4 * t > len(data):
            raise InvalidValue(f"truncated inside sequence {i}")
        # a signaling NaN warns as it widens; FeatureSequence then refuses it
        with np.errstate(invalid="ignore"):
            frames = np.frombuffer(data, dtype="<f4", offset=off, count=t * dim).astype(np.float64).reshape(t, dim)
        off += frame_bytes
        labels = np.frombuffer(data, dtype="<u4", offset=off, count=t).astype(np.int64)
        off += 4 * t
        try:
            sequences.append(FeatureSequence(speaker_id=speaker, frames=frames, labels=labels))
        except InvalidValue as exc:
            raise InvalidValue(f"sequence {i}: {exc}") from None
    if off != len(data):
        raise InvalidValue(f"{len(data) - off} trailing bytes after last sequence")
    return Dataset(feature_dim=dim, num_classes=classes, sequences=tuple(sequences))


def split(dataset: Dataset, test_fraction: float, rng: RandomSource) -> tuple[Dataset, Dataset]:
    """Sequence-level split, stratified by speaker.

    Each speaker's sequences are permuted and round(n * fraction) of them
    go to the test side, so no utterance straddles the boundary and every
    speaker appears in both sides when it has enough sequences. If
    rounding empties one side entirely, one sequence is moved over.
    """
    if not 0.0 < test_fraction < 1.0:
        raise InvalidValue(f"test fraction must lie in (0, 1), got {test_fraction}")
    if dataset.n_sequences < 2:
        raise InvalidValue("split needs at least 2 sequences")

    by_speaker: dict[int, list[int]] = {}
    for idx, seq in enumerate(dataset.sequences):
        by_speaker.setdefault(seq.speaker_id, []).append(idx)

    test_idx: set[int] = set()
    for speaker in sorted(by_speaker):
        idxs = by_speaker[speaker]
        n_test = round(len(idxs) * test_fraction)
        order = rng.permutation(len(idxs))
        test_idx.update(idxs[i] for i in order[:n_test])

    # rounding may have starved one side; move one sequence if so
    if not test_idx:
        test_idx.add(0)
    if len(test_idx) == dataset.n_sequences:
        test_idx.discard(min(test_idx))

    train_seqs = tuple(s for i, s in enumerate(dataset.sequences) if i not in test_idx)
    test_seqs = tuple(s for i, s in enumerate(dataset.sequences) if i in test_idx)
    return (
        Dataset(dataset.feature_dim, dataset.num_classes, train_seqs),
        Dataset(dataset.feature_dim, dataset.num_classes, test_seqs),
    )


def filter_speakers(dataset: Dataset, speaker_ids: Iterable[int]) -> Dataset:
    """Subset of the dataset holding only the given speakers, order preserved."""
    wanted = set(speaker_ids)
    seqs = tuple(s for s in dataset.sequences if s.speaker_id in wanted)
    if not seqs:
        raise InvalidValue(f"no sequences for speakers {sorted(wanted)}")
    return Dataset(dataset.feature_dim, dataset.num_classes, seqs)


def merge(datasets: Sequence[Dataset]) -> Dataset:
    """Concatenation of datasets with identical dim and class alphabet."""
    if not datasets:
        raise InvalidValue("merge needs at least one dataset")
    first = datasets[0]
    for d in datasets[1:]:
        if d.feature_dim != first.feature_dim or d.num_classes != first.num_classes:
            raise InvalidValue("merged datasets must share dim and num_classes")
    seqs = tuple(s for d in datasets for s in d.sequences)
    return Dataset(first.feature_dim, first.num_classes, seqs)
