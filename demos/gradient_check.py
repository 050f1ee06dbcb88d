"""
Checking the hand-written backward pass against finite differences
==================================================================

The recurrent classifier's gradients are coded by hand, so the only
trustworthy referee is the loss itself: bump each parameter, re-run the
forward pass, and compare the slope against what per_example_gradients()
claims.
"""

import numpy as np

from dpfed.network import (
    NetworkDims,
    finite_difference_gradient,
    init_network,
    per_example_gradients,
)
from dpfed.rng import RandomSource

rng = RandomSource(7)

for trial in range(5):
    dims = NetworkDims(input_dim=3, hidden_dim=4, output_dim=5)
    net = init_network(dims, rng.derive("net", trial))
    frames = rng.derive("frames", trial).normals((6, 3))
    labels = (rng.derive("labels", trial).uniforms(6) * 5).astype(np.int64)

    analytic = per_example_gradients(net, [(frames, labels)])[0]
    numeric = finite_difference_gradient(net, frames, labels, h=1e-6)
    err = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
    print(f"trial {trial}: {net.parameter_count} parameters, relative error {err:.2e}")

print("\nanything above ~1e-6 here would mean a broken backward pass")
