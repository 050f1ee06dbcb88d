"""
One private gradient release, step by step
==========================================

What a worker actually sends: per-example gradients are clipped to a
fixed L2 bound, averaged in a fixed order, charged to the ledger, and
only then noised. The clip bound is what makes the privacy claim about
the release independent of how wild any single sequence is.

``noise_override`` sets the noise: unset, sigma is calibrated to the
step (epsilon, delta); 0 releases the exact clipped mean and charges
nothing; any sigma > 0 is used as given and charges the step.
"""

import numpy as np

from dpfed.data import SynthSpec, synth_generate
from dpfed.dpsgd import DpSgdConfig, dp_gradient_release, l2_clip, noise_sigma
from dpfed.network import NetworkDims, init_network, per_example_gradients
from dpfed.privacy import AccountLedger, PrivacyParams
from dpfed.rng import RandomSource

rng = RandomSource(11)
dims = NetworkDims(input_dim=5, hidden_dim=6, output_dim=8)
net = init_network(dims, rng.derive("net"))
corpus = synth_generate(
    SynthSpec(feature_dim=5, num_classes=8, n_speakers=2,
              sequences_per_speaker=2, frames_per_sequence=20),
    rng.derive("data"),
)

batch = corpus.sequences
per_example = per_example_gradients(net, batch)
print("raw per-sequence gradient norms:",
      ", ".join(f"{np.linalg.norm(g):.3f}" for g in per_example))

# bound chosen below the raw norms on purpose, so the clamp is visible
cfg = DpSgdConfig(
    clip_bound=0.15,
    step_params=PrivacyParams(100.0, 1e-6),
    learning_rate=1e-4,
    batch_size=len(batch),
    noise_override=0.098,
)
print(f"clip bound {cfg.clip_bound}, noise sigma {noise_sigma(cfg, len(batch))}")

print("norms after clipping:   ",
      ", ".join(f"{np.linalg.norm(l2_clip(g, cfg.clip_bound)):.3f}" for g in per_example))
ledger = AccountLedger(PrivacyParams(1000.0, 1e-3))
release, ledger = dp_gradient_release(per_example, cfg, ledger, rng.derive("noise"), step_id=0)
print(f"released vector norm {np.linalg.norm(release.vector):.3f} "
      f"(mostly noise: sigma * sqrt({net.parameter_count}) = "
      f"{0.098 * np.sqrt(net.parameter_count):.3f})")
print(f"ledger after one release: spent eps={ledger.spent.epsilon:g} "
      f"delta={ledger.spent.delta:g}")

# the same batch without noise, for contrast: a zero override adds none
# and charges nothing, so it needs no step (epsilon, delta) either
open_cfg = DpSgdConfig(
    clip_bound=1e9,
    step_params=PrivacyParams(1.0, 0.0),
    learning_rate=1e-4,
    batch_size=len(batch),
    noise_override=0.0,
)
open_release, ledger = dp_gradient_release(
    per_example, open_cfg, ledger, rng.derive("noise2"), step_id=1
)
print(f"\nnoiseless release norm {np.linalg.norm(open_release.vector):.3f}, "
      f"spends ({open_release.spent.epsilon:g}, {open_release.spent.delta:g})")
