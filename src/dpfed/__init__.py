"""Federated differentially-private training for small frame classifiers.

The pieces compose bottom-up: ``privacy`` holds the mechanisms and the
budget ledger, ``network`` the from-scratch recurrent classifier,
``dpsgd`` the clipped-and-noised gradient releases, ``federation`` the
synchronous averaging protocol (in-process and over TCP), ``data`` the
corpus format and synthesizer, ``evaluation`` the accuracy and
membership-gap probes, and ``experiments`` the end-to-end leakage study.
"""

from .data import Dataset, FeatureSequence, OutlierSpec, SynthSpec, read_dataset, split, synth_generate, write_dataset
from .dpsgd import DpSgdConfig, dp_gradient_release, train_step, warm_start
from .evaluation import EvalReport, GapProbe, accuracy, cross_evaluate, membership_gap
from .experiments import MembershipConfig, MembershipResult, run_membership_experiment
from .federation import Coordinator, SessionConfig, WorkerSpec, inproc_session, worker_run
from .network import Network, NetworkDims, forward, init_network, loss, sequence_gradient
from .privacy import (
    AccountLedger,
    ClampBounds,
    PrivacyParams,
    compose,
    distinguishability_probe,
    dp_mean,
    gaussian_sigma,
    mean_sensitivity,
)
from .rng import RandomSource

__version__ = "0.1.0"

__all__ = [
    "AccountLedger",
    "ClampBounds",
    "Coordinator",
    "Dataset",
    "DpSgdConfig",
    "EvalReport",
    "FeatureSequence",
    "GapProbe",
    "MembershipConfig",
    "MembershipResult",
    "Network",
    "NetworkDims",
    "OutlierSpec",
    "PrivacyParams",
    "RandomSource",
    "SessionConfig",
    "SynthSpec",
    "WorkerSpec",
    "accuracy",
    "compose",
    "cross_evaluate",
    "distinguishability_probe",
    "dp_gradient_release",
    "dp_mean",
    "forward",
    "gaussian_sigma",
    "init_network",
    "inproc_session",
    "loss",
    "mean_sensitivity",
    "membership_gap",
    "read_dataset",
    "run_membership_experiment",
    "sequence_gradient",
    "split",
    "synth_generate",
    "train_step",
    "warm_start",
    "worker_run",
    "write_dataset",
]
