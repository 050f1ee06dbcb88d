"""The end-to-end membership experiment: does federated DP training stop a
model from learning an outlier contributor's speaker?

Three corpora share one synthetic feature space: a public corpus for
warm-starting, two ordinary private corpora, and a single outlier speaker
whose offset sits far from everyone else. A baseline model trains on the
public corpus only. Two federated sessions then continue from it with the
private corpora plus the outlier as three workers: an open run (no
clipping, no noise) and a private run (clipped, noised releases). The
leakage measure is each final model's speaker gap against the baseline on
the outlier's held-out data, which shows whether it learned that speaker,
not whether it memorised a sequence: open training should show a large
gap, private training should not, and private training should hold the
baseline's in-distribution accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import Dataset, OutlierSpec, SynthSpec, filter_speakers, merge, split, synth_generate
from .dpsgd import DpSgdConfig, warm_start
from .errors import DpFedError
from .evaluation import GapProbe, accuracy
from .federation import SessionConfig, WorkerSpec, inproc_session
from .network import Network, NetworkDims, init_network
from .privacy import PrivacyParams
from .rng import RandomSource
from .wire import abort_name


@dataclass(frozen=True)
class MembershipConfig:
    """Knobs for one run; defaults are tuned for a few-minute desk run."""

    seed: int
    feature_dim: int = 13
    hidden_dim: int = 16
    num_classes: int = 32
    public_speakers: int = 4
    private1_speakers: int = 3
    private2_speakers: int = 3
    outlier_multiplier: float = 10.0
    speaker_offset_scale: float = 0.30
    frame_noise_scale: float = 0.45
    sequences_per_speaker: int = 24
    frames_per_sequence: int = 30
    test_fraction: float = 0.25
    warm_epochs: int = 51
    warm_lr: float = 0.2
    warm_batch: int = 4
    fed_steps: int = 200
    fed_lr: float = 0.002
    fed_batch: int = 4
    clip_bound: float = 1.0
    noise_sigma: float = 0.098
    step_epsilon: float = 100.0
    step_delta: float = 1e-6
    open_clip: float = 1e9

    @property
    def dims(self) -> NetworkDims:
        return NetworkDims(self.feature_dim, self.hidden_dim, self.num_classes)

    @property
    def n_speakers(self) -> int:
        return self.public_speakers + self.private1_speakers + self.private2_speakers + 1

    @property
    def outlier_speaker(self) -> int:
        return self.n_speakers - 1


@dataclass(frozen=True)
class MembershipResult:
    """Accuracies as fractions, gaps in percentage points."""

    baseline_indist: float
    baseline_outlier: float
    open_indist: float
    open_outlier: float
    dp_indist: float
    dp_outlier: float
    dp_ledger_steps: tuple[int, int, int]
    baseline_model: Network
    open_model: Network
    dp_model: Network
    indist_test: Dataset
    outlier_test: Dataset

    @property
    def open_gap(self) -> GapProbe:
        return GapProbe(self.baseline_outlier, self.open_outlier)

    @property
    def dp_gap(self) -> GapProbe:
        return GapProbe(self.baseline_outlier, self.dp_outlier)

    @property
    def indist_drop_points(self) -> float:
        return (self.baseline_indist - self.dp_indist) * 100.0

    def render_text(self) -> str:
        rows = [
            ("baseline", self.baseline_indist, self.baseline_outlier),
            ("open", self.open_indist, self.open_outlier),
            ("private", self.dp_indist, self.dp_outlier),
        ]
        lines = [f"{'model':<10}{'in-dist':>10}{'outlier':>10}"]
        for name, indist, outlier in rows:
            lines.append(f"{name:<10}{indist:>10.4f}{outlier:>10.4f}")
        lines.append(f"open outlier gap    {self.open_gap.gap_points:+7.1f} points ({self.open_gap.verdict()})")
        lines.append(f"private outlier gap {self.dp_gap.gap_points:+7.1f} points ({self.dp_gap.verdict()})")
        return "\n".join(lines)


def _session(
    cfg: MembershipConfig,
    label: str,
    start: Network,
    worker_data: list[Dataset],
    dp_cfg: DpSgdConfig,
    root: RandomSource,
) -> tuple[Network, tuple[int, ...]]:
    session_cfg = SessionConfig(
        n_workers=len(worker_data),
        total_steps=cfg.fed_steps,
        learning_rate=cfg.fed_lr,
        dims=cfg.dims,
        init_parameters=start.flatten(),
    )
    specs = [
        WorkerSpec(
            worker_id=wid,
            dp_config=dp_cfg,
            dataset=data,
            budget=PrivacyParams(
                cfg.step_epsilon * cfg.fed_steps, min(cfg.step_delta * cfg.fed_steps * 10, 0.5)
            ),
            seed=root.derive_seed(label, wid),
        )
        for wid, data in enumerate(worker_data)
    ]
    result = inproc_session(session_cfg, specs)
    if not result.summary.clean:
        raise DpFedError(f"{label} session aborted: {abort_name(result.summary.aborted)}")
    ledger_steps = tuple(len(result.ledgers[wid].entries) for wid in sorted(result.ledgers))
    return result.networks[0], ledger_steps


def run_membership_experiment(cfg: MembershipConfig) -> MembershipResult:
    """One full baseline / open / private comparison for a given seed."""
    root = RandomSource(cfg.seed)

    spec = SynthSpec(
        feature_dim=cfg.feature_dim,
        num_classes=cfg.num_classes,
        n_speakers=cfg.n_speakers,
        sequences_per_speaker=cfg.sequences_per_speaker,
        frames_per_sequence=cfg.frames_per_sequence,
        speaker_offset_scale=cfg.speaker_offset_scale,
        noise_scale=cfg.frame_noise_scale,
        outlier=OutlierSpec(cfg.outlier_speaker, cfg.outlier_multiplier),
    )
    corpus = synth_generate(spec, root.derive("data"))

    p = cfg.public_speakers
    q1 = p + cfg.private1_speakers
    q2 = q1 + cfg.private2_speakers
    groups = {
        "public": filter_speakers(corpus, range(p)),
        "private1": filter_speakers(corpus, range(p, q1)),
        "private2": filter_speakers(corpus, range(q1, q2)),
        "outlier": filter_speakers(corpus, [cfg.outlier_speaker]),
    }
    train: dict[str, Dataset] = {}
    test: dict[str, Dataset] = {}
    for name, ds in groups.items():
        train[name], test[name] = split(ds, cfg.test_fraction, root.derive("split", name))
    indist_test = merge([test["public"], test["private1"], test["private2"]])
    outlier_test = test["outlier"]

    net0 = init_network(cfg.dims, root.derive("init"))
    baseline = warm_start(
        net0,
        train["public"].sequences,
        cfg.warm_epochs,
        cfg.warm_lr,
        cfg.warm_batch,
        root.derive("warm"),
    )

    worker_data = [train["private1"], train["private2"], train["outlier"]]
    open_cfg = DpSgdConfig(
        clip_bound=cfg.open_clip,
        step_params=PrivacyParams(cfg.step_epsilon, cfg.step_delta),
        learning_rate=cfg.fed_lr,
        batch_size=cfg.fed_batch,
        noise_override=0.0,
    )
    dp_cfg = DpSgdConfig(
        clip_bound=cfg.clip_bound,
        step_params=PrivacyParams(cfg.step_epsilon, cfg.step_delta),
        learning_rate=cfg.fed_lr,
        batch_size=cfg.fed_batch,
        noise_override=cfg.noise_sigma,
    )
    open_model, _ = _session(cfg, "open", baseline, worker_data, open_cfg, root)
    dp_model, dp_steps = _session(cfg, "dp", baseline, worker_data, dp_cfg, root)

    return MembershipResult(
        baseline_indist=accuracy(baseline, indist_test).overall,
        baseline_outlier=accuracy(baseline, outlier_test).overall,
        open_indist=accuracy(open_model, indist_test).overall,
        open_outlier=accuracy(open_model, outlier_test).overall,
        dp_indist=accuracy(dp_model, indist_test).overall,
        dp_outlier=accuracy(dp_model, outlier_test).overall,
        dp_ledger_steps=dp_steps,
        baseline_model=baseline,
        open_model=open_model,
        dp_model=dp_model,
        indist_test=indist_test,
        outlier_test=outlier_test,
    )
