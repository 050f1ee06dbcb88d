import numpy as np
import pytest

from dpfed import experiments
from dpfed.errors import DpFedError
from dpfed.evaluation import accuracy
from dpfed.experiments import MembershipConfig, run_membership_experiment
from dpfed.wire import ABORT_BUDGET


def tiny_config(seed=1):
    return MembershipConfig(
        seed=seed,
        feature_dim=4,
        hidden_dim=3,
        num_classes=5,
        public_speakers=2,
        private1_speakers=1,
        private2_speakers=1,
        sequences_per_speaker=4,
        frames_per_sequence=8,
        warm_epochs=2,
        fed_steps=3,
    )


def test_experiment_structure():
    cfg = tiny_config()
    r = run_membership_experiment(cfg)
    # one ledger entry per federated step for each of the three dp workers
    assert r.dp_ledger_steps == (cfg.fed_steps,) * 3
    # probe set holds only the outlier speaker; eval sets are disjoint by speaker
    assert r.outlier_test.speaker_ids == [cfg.outlier_speaker]
    assert cfg.outlier_speaker not in r.indist_test.speaker_ids
    # stored accuracies agree with re-evaluating the stored models
    assert r.dp_indist == accuracy(r.dp_model, r.indist_test).overall
    assert r.open_outlier == accuracy(r.open_model, r.outlier_test).overall
    assert r.open_gap.baseline_accuracy == r.baseline_outlier


def test_experiment_deterministic():
    a = run_membership_experiment(tiny_config(seed=7))
    b = run_membership_experiment(tiny_config(seed=7))
    assert np.array_equal(a.dp_model.flatten(), b.dp_model.flatten())
    assert np.array_equal(a.open_model.flatten(), b.open_model.flatten())
    assert a.baseline_indist == b.baseline_indist


def test_experiment_report_renders():
    r = run_membership_experiment(tiny_config(seed=2))
    text = r.render_text()
    assert "outlier gap" in text
    assert "LEAK" in text  # verdict string present in one form or the other


def test_aborted_session_is_an_error(monkeypatch):
    # an aborted session's model must not be scored, under ``python -O`` too
    real = experiments.inproc_session

    def aborting(cfg, specs):
        result = real(cfg, specs)
        result.summary.aborted = ABORT_BUDGET
        return result

    monkeypatch.setattr(experiments, "inproc_session", aborting)
    with pytest.raises(DpFedError, match="open session aborted: budget"):
        run_membership_experiment(tiny_config())
