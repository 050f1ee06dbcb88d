"""Single-layer LSTM frame classifier in plain numpy, float64 throughout.

Gate order inside every stacked (4h, .) array is input, forget, cell
candidate, output. A ``Network`` stores one read-only, finite float64
vector, the row-major concatenation

    wx (4h x d), wh (4h x h), b (4h), wo (o x h), bo (o)

of 4h(d + h + 1) + o(h + 1) parameters that gradients, updates, INIT and
model files share; ``NetworkDims.blocks`` cuts the blocks from it as views.
Loss is mean-per-frame softmax cross-entropy with max-subtraction. Model
files use the FDPNET01 format: the 8-byte magic, three u32 little-endian
dims, then the vector as float64 little-endian.

One kernel steps B equal-length sequences at once over time-major (T, B, .)
batches, the only shape it takes: ``forward`` returns their logits,
``per_example_gradients`` is the one way to their gradients (full
backpropagation through time), and ``finite_difference_gradient`` is its
oracle for one sequence. A sequence's bits never depend on its batch.
Two kinds of product keep that. The two recurrent products, wh h_{t-1}
forward and wh^T dz_t backward, are one gemv per row at every step.
Every product off the recurrence is one stacked ``matmul`` whose every
slice is one sequence: x wx^T, h wo^T and dlogits wo over the sequence's
(T, .) rows, and the weight gradients contracted over its own t. A
product that puts two sequences in one BLAS call, such as ``V @ W.T``
across the batch, is forbidden.

The time loops make as few numpy calls per step as they can: 8 forward,
6 backward. Gates and backward factors are stored gate-major,
(T, 4, B, h), so each per-gate operation reads contiguous (B, h) slabs,
and what does not depend on the recurrence is computed before the loop:
the bias joins the input projection, G = o (1 - tanh^2 c), and each
gate's BPTT factors multiply once, left to right, into F: g i (1 - i),
c_{t-1} f (1 - f), i (1 - g^2) and tanh(c) o (1 - o), so that
dz_t = [dc, dc, dc, dh] F_t is one multiply. Each two-term update is one
paired product and one add: c_t = [i, f] . [g, c_{t-1}] and
dc_t = [dc_{t+1}, dh_t] . [f_{t+1}, G_t].

The bit contract has a condition: the same seed, the same BLAS build and
the same BLAS kernel give the same bytes. Numpy's OpenBLAS picks its
kernel per CPU at run time (``OPENBLAS_CORETYPE`` forces one), and the
kernels sum in different orders, so two CPUs can give two models from
one seed. Within any one kernel, a sequence's bits still do not depend
on its batch or on the number of BLAS threads.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import expit

from .errors import InvalidValue
from .rng import RandomSource

MODEL_MAGIC = b"FDPNET01"


@dataclass(frozen=True)
class NetworkDims:
    input_dim: int
    hidden_dim: int
    output_dim: int

    def __post_init__(self):
        for name in ("input_dim", "hidden_dim", "output_dim"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise InvalidValue(f"{name} must be a positive integer, got {v!r}")

    @property
    def parameter_count(self) -> int:
        d, h, o = self.input_dim, self.hidden_dim, self.output_dim
        return 4 * h * (d + h + 1) + o * (h + 1)

    def blocks(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """The parameter blocks as views of ``flat``'s last axis, which holds
        the flat layout: the one place that layout is written down."""
        d, h, o = self.input_dim, self.hidden_dim, self.output_dim
        shapes = {"wx": (4 * h, d), "wh": (4 * h, h), "b": (4 * h,), "wo": (o, h), "bo": (o,)}
        views, start = {}, 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            views[name] = flat[..., start : start + size].reshape(flat.shape[:-1] + shape)
            start += size
        return views


@dataclass(frozen=True, eq=False)
class Network:
    """Dims and the flat parameter vector, copied, checked finite and made
    read-only; ``wx`` ... ``bo`` are views into it. Updates return a new one."""

    dims: NetworkDims
    parameters: np.ndarray

    def __post_init__(self):
        flat = np.array(self.parameters, dtype=np.float64)  # a copy no caller holds
        if flat.shape != (self.dims.parameter_count,):
            raise InvalidValue(f"expected {self.dims.parameter_count} parameters, got shape {flat.shape}")
        if not np.isfinite(flat).all():
            raise InvalidValue("model parameters must be finite")
        flat.flags.writeable = False
        object.__setattr__(self, "parameters", flat)
        for name, view in self.dims.blocks(flat).items():
            object.__setattr__(self, name, view)

    @property
    def parameter_count(self) -> int:
        return self.dims.parameter_count

    def flatten(self) -> np.ndarray:
        """The stored parameter vector itself, read-only."""
        return self.parameters

    def to_bytes(self) -> bytes:
        d, h, o = self.dims.input_dim, self.dims.hidden_dim, self.dims.output_dim
        header = MODEL_MAGIC + struct.pack("<III", d, h, o)
        return header + self.flatten().astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Network":
        if len(data) < 20:
            raise InvalidValue("model file truncated before header")
        if data[:8] != MODEL_MAGIC:
            raise InvalidValue(f"bad model magic {data[:8]!r}")
        d, h, o = struct.unpack("<III", data[8:20])
        dims = NetworkDims(d, h, o)
        n = dims.parameter_count
        if len(data) != 20 + 8 * n:
            raise InvalidValue(f"expected {20 + 8 * n} bytes for dims {d}x{h}x{o}, got {len(data)}")
        return cls(dims, np.frombuffer(data, dtype="<f8", offset=20, count=n))

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "Network":
        return cls.from_bytes(Path(path).read_bytes())


def init_network(dims: NetworkDims, rng: RandomSource) -> Network:
    """Uniform init in +-1/sqrt(fan_in) per weight block, forget-gate bias 1.

    Draw order is fixed (wx, wh, wo) so a seed pins every parameter.
    """
    flat = np.zeros(dims.parameter_count)
    blocks = dims.blocks(flat)
    for name, fan_in in (("wx", dims.input_dim), ("wh", dims.hidden_dim), ("wo", dims.hidden_dim)):
        w = blocks[name]
        w[...] = (rng.uniforms(w.size) * 2.0 - 1.0).reshape(w.shape) * (1.0 / np.sqrt(fan_in))
    blocks["b"][dims.hidden_dim : 2 * dims.hidden_dim] = 1.0  # forget gate
    return Network(dims, flat)


@dataclass
class ForwardCache:
    """Everything ``_backward`` needs, time-major, with the network that produced it.

    The gates are gate-major: step t's four gates are four contiguous (B, h)
    slabs in the order i, f, g, o. ``gates`` holds the sigmoid of each gate's
    input; its g slab is the sigmoid of the candidate's input, which nothing
    reads, since the candidate itself is tanh and lives in ``cand_cell``.
    There step t holds the pair [g_t, c_{t-1}] that [i_t, f_t] multiplies,
    so c_t is written to slot t + 1, and slot 0 holds c_{-1} = 0.
    """

    net: Network
    frames: np.ndarray  # (T, B, d), C order
    gates: np.ndarray  # (T, 4, B, h) sigmoid of i, f, (g), o inputs
    cand_cell: np.ndarray  # (T + 1, 2, B, h) [g_t, c_{t-1}] at t
    hidden: np.ndarray  # (T, B, h)
    tanh_cell: np.ndarray  # (T, B, h)
    probs: np.ndarray  # (T, B, o) softmax rows


def _gemv_rows(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``w @ v[k]`` for every row k of v (n, cols): one gemv per row, the bits of each alone."""
    return np.matmul(w, v[:, :, None])[:, :, 0]


def _check_frames(frames: np.ndarray, input_dim: int, ndim: int) -> np.ndarray:
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != ndim or x.shape[-1] != input_dim or 0 in x.shape:
        raise InvalidValue(f"frames must be a non-empty {ndim}-d array with last axis {input_dim}, got {x.shape}")
    return x


def forward(net: Network, frames: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run B equal-length sequences (T, B, d) through the LSTM; returns
    their per-frame logits (T, B, o) and a cache."""
    # C order: each sequence's (T, d) slice is then a matrix BLAS takes as it
    # is, where some numpy versions multiply other layouts in a loop of their own
    x = np.ascontiguousarray(_check_frames(frames, net.dims.input_dim, 3))
    t_len, batch, d = x.shape
    h, o = net.dims.hidden_dim, net.dims.output_dim

    # gates[t] starts as x_t wx^T + b; the loop adds wh h_{t-1}, then squashes it
    gates = np.empty((t_len, 4, batch, h))
    x_proj = np.matmul(x.swapaxes(0, 1), net.wx.T).reshape(batch, t_len, 4, h)
    np.add(x_proj.transpose(1, 2, 0, 3), net.b.reshape(4, 1, h), out=gates)
    cand_cell = np.empty((t_len + 1, 2, batch, h))
    cand_cell[0, 1] = 0.0
    hidden, tanh_c = np.empty((2, t_len, batch, h))
    terms = np.empty((2, batch, h))
    h_prev = np.zeros((batch, h))
    for t in range(t_len):
        z = gates[t]
        np.add(z, _gemv_rows(net.wh, h_prev).reshape(batch, 4, h).swapaxes(0, 1), out=z)
        np.tanh(z[2], out=cand_cell[t, 0])
        expit(z, out=z)
        np.multiply(z[:2], cand_cell[t], out=terms)  # [i g, f c_{t-1}]
        np.add(terms[0], terms[1], out=cand_cell[t + 1, 1])
        np.tanh(cand_cell[t + 1, 1], out=tanh_c[t])
        np.multiply(z[3], tanh_c[t], out=hidden[t])
        h_prev = hidden[t]
    logits = np.empty((t_len, batch, o))
    np.matmul(hidden.swapaxes(0, 1), net.wo.T, out=logits.swapaxes(0, 1))
    logits += net.bo
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    cache = ForwardCache(net, x, gates, cand_cell, hidden, tanh_c, e / e.sum(axis=-1, keepdims=True))
    return logits, cache


def _integer_labels(labels: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    lab = np.asarray(labels)
    if lab.shape != shape:
        raise InvalidValue(f"need one label per frame, got shape {lab.shape} for frames {shape}")
    if lab.dtype.kind not in "iu":
        raise InvalidValue(f"labels must be integers, got dtype {lab.dtype}")
    return lab


def _labels_in_range(lab: np.ndarray, num_classes: int) -> np.ndarray:
    if lab.min() < 0 or lab.max() >= num_classes:
        raise InvalidValue(f"labels must lie in [0, {num_classes})")
    return lab.astype(np.int64, copy=False)


def loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean over frames of softmax cross-entropy, computed with max-subtraction."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise InvalidValue(f"logits must be (T, classes), got {logits.shape}")
    t_len, o = logits.shape
    lab = _labels_in_range(_integer_labels(labels, (t_len,)), o)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(log_z - shifted[np.arange(t_len), lab]))


def _backward(cache: ForwardCache, lab: np.ndarray) -> np.ndarray:
    """Flat gradient of each sequence's mean-per-frame loss via BPTT, at
    the network that produced the cache. Labels are checked int64 (T, B);
    the result is one gradient per sequence, (B, P).
    """
    net = cache.net
    d, h, o = net.dims.input_dim, net.dims.hidden_dim, net.dims.output_dim
    t_len, batch = lab.shape

    d_logits = cache.probs.copy()
    d_logits.reshape(t_len * batch, o)[np.arange(t_len * batch), lab.ravel()] -= 1.0
    d_logits /= t_len

    dh_out = np.empty((t_len, batch, h))
    np.matmul(d_logits.swapaxes(0, 1), net.wo, out=dh_out.swapaxes(0, 1))
    dwo = np.matmul(d_logits.transpose(1, 2, 0), cache.hidden.transpose(1, 0, 2))
    dbo = d_logits.sum(axis=0)

    # Everything off the recurrence is hoisted, gate-major. Each gate's BPTT
    # factors multiply once into F: dz_t = [dc, dc, dc, dh] * F[t]. The cell
    # gradient is one paired product, dc_t = [dc_{t+1}, dh_t] . [f_{t+1}, G_t]
    # with G = o (1 - tanh^2 c), and dc_{T} f_{T} = 0 * 0. After the loop, dz
    # contracted over t with [x_t, h_{t-1}, 1] is dwx|dwh|db.
    gi, gf, _, go = cache.gates.swapaxes(0, 1)
    gg, c_prev = cache.cand_cell[:-1].swapaxes(0, 1)
    tc = cache.tanh_cell
    factors = np.empty((t_len, 4, batch, h))
    factors[:, 0] = gg * gi * (1.0 - gi)
    factors[:, 1] = c_prev * gf * (1.0 - gf)
    factors[:, 2] = gi * (1.0 - gg * gg)
    factors[:, 3] = tc * go * (1.0 - go)
    carry = np.empty((t_len, 2, batch, h))  # [f_{t+1}, G_t]
    carry[:-1, 0] = gf[1:]
    carry[-1, 0] = 0.0
    np.multiply(go, 1.0 - tc * tc, out=carry[:, 1])

    dz = np.empty((t_len, batch, 4 * h))
    dz_gates = dz.reshape(t_len, batch, 4, h).swapaxes(1, 2)  # the same memory, gate-major
    dcdh = np.zeros((4, batch, h))  # [dc, dc, dc, dh]; slot 2 brings dc_{t+1} into step t
    terms = np.empty((2, batch, h))
    dh_next = np.zeros((batch, h))
    for t in range(t_len - 1, -1, -1):
        np.add(dh_out[t], dh_next, out=dcdh[3])
        np.multiply(dcdh[2:], carry[t], out=terms)
        np.add(terms[0], terms[1], out=dcdh[0])
        dcdh[1:3] = dcdh[0]
        np.multiply(dcdh, factors[t], out=dz_gates[t])
        dh_next = _gemv_rows(net.wh.T, dz[t])
    h_prev = np.concatenate([np.zeros((1, batch, h)), cache.hidden[:-1]])
    inputs = np.concatenate([cache.frames, h_prev, np.ones((t_len, batch, 1))], axis=2)
    d_w = np.matmul(dz.transpose(1, 2, 0), inputs.transpose(1, 0, 2))

    grads = np.empty((batch, net.parameter_count))
    parts = {"wx": d_w[:, :, :d], "wh": d_w[:, :, d : d + h], "b": d_w[:, :, d + h], "wo": dwo, "bo": dbo}
    for name, block in net.dims.blocks(grads).items():
        block[...] = parts[name]
    return grads


def per_example_gradients(net: Network, batch: Sequence) -> list[np.ndarray]:
    """One flat gradient per sequence, in batch order.

    Accepts anything with ``frames`` and ``labels`` attributes, or
    (frames, labels) pairs. Every item is checked before any gradient is
    computed: shapes and dtypes item by item, the label range once per
    group of equal-length sequences, which then go through the kernel
    together.
    """
    if len(batch) == 0:
        raise InvalidValue("gradient batch must be non-empty")
    by_length: dict[int, list] = {}
    for i, item in enumerate(batch):
        frames, labels = (item.frames, item.labels) if hasattr(item, "frames") else item
        x = _check_frames(frames, net.dims.input_dim, 2)
        by_length.setdefault(len(x), []).append((i, x, _integer_labels(labels, (len(x),))))
    groups = []
    for group in by_length.values():
        rows, xs, labs = zip(*group)
        lab = _labels_in_range(np.array(labs, dtype=np.int64).T, net.dims.output_dim)
        groups.append((list(rows), np.stack(xs, axis=1), lab))
    grads = np.empty((len(batch), net.parameter_count))
    for rows, x, lab in groups:
        grads[rows] = _backward(forward(net, x)[1], lab)
    return list(grads)


def apply_update(net: Network, grad: np.ndarray, lr: float) -> Network:
    """Gradient descent step: returns a new network with params - lr * grad."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != (net.parameter_count,):
        raise InvalidValue(f"gradient length {grad.shape} does not match {net.parameter_count} parameters")
    if not (np.isfinite(lr) and lr >= 0.0):
        raise InvalidValue(f"learning rate must be finite and >= 0, got {lr}")
    return Network(net.dims, net.parameters - lr * grad)


def finite_difference_gradient(
    net: Network, frames: np.ndarray, labels: np.ndarray, h: float = 1e-6
) -> np.ndarray:
    """Central-difference loss gradient of one sequence (T, d), run as a
    batch of one: the oracle for ``per_example_gradients``."""
    if not (1e-8 <= h <= 1e-3):
        raise InvalidValue(f"step h must lie in [1e-8, 1e-3], got {h}")
    x = _check_frames(frames, net.dims.input_dim, 2)[:, None]
    flat = net.flatten()
    grad = np.empty_like(flat)
    for j in range(flat.size):
        bumped = flat.copy()
        bumped[j] = flat[j] + h
        hi_logits = forward(Network(net.dims, bumped), x)[0][:, 0]
        bumped[j] = flat[j] - h
        lo_logits = forward(Network(net.dims, bumped), x)[0][:, 0]
        grad[j] = (loss(hi_logits, labels) - loss(lo_logits, labels)) / (2.0 * h)
    return grad
