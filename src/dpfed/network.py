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
dc_t = [dc_{t+1}, dh_t] . [f_{t+1}, G_t]. The forward pass writes h_t
straight into the rows [x_t, h_{t-1}, 1] that the weight gradients
contract with, where each step's gemv also reads it, as (B, h, 1) columns.

The kernel keeps its working memory. Each thread has one workspace: every
array ``forward`` and BPTT use inside, for the (dims, T, B) of its last
call, cut from one flat arena. A call of another shape replaces the
arrays, cut from the same arena while it is large enough, so the arena
is as large as the thread's largest call, until the thread ends. Calls
then reuse memory instead of allocating it and faulting its pages in
again. Nothing returned aliases the workspace: ``forward`` returns a copy
of the logits, and ``per_example_gradients`` returns rows of a new array.
At membership's dims (13, 16, 32) and T = 30 the workspace is 1.4 MiB at
B = 12 and 1.8 MiB at B = 16; at (40, 256, 1000), T = 100, B = 8 it is
62.6 MiB, 18.6 MiB of it the (B, 4h, d + h + 1) weight-gradient sums.

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
import threading
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
        return _cut(flat, {"wx": (4 * h, d), "wh": (4 * h, h), "b": (4 * h,), "wo": (o, h), "bo": (o,)})


def _cut(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Consecutive views of ``flat``'s last axis, one per named shape, in order."""
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


class _Workspace:
    """One thread's kernel arrays for one (dims, T, B), time-major and C-ordered,
    cut from a flat arena: the forward pass writes here, and ``_backward``
    reads that and works here.

    The gates are gate-major: step t's four gates are four contiguous (B, h)
    slabs in the order i, f, g, o. ``gates`` holds the sigmoid of each gate's
    input; its g slab is the sigmoid of the candidate's input, which nothing
    reads, since the candidate itself is tanh and lives in ``cand_cell``.
    There step t holds the pair [g_t, c_{t-1}] that [i_t, f_t] multiplies,
    so c_t is written to slot t + 1, and slot 0 holds c_{-1} = 0. In the
    same way ``inputs`` holds the row [x_t, h_{t-1}, 1] at t, so h_t is
    written to slot t + 1, and slot 0 holds h_{-1} = 0. No pass writes those
    zeros and ones or the f_T = 0 in ``carry``: they are set here, and every
    other element is written before it is read.
    """

    @staticmethod
    def shapes(dims: NetworkDims, t_len: int, batch: int) -> dict[str, tuple[int, ...]]:
        d, h, o = dims.input_dim, dims.hidden_dim, dims.output_dim
        return {
            "inputs": (t_len + 1, batch, d + h + 1),
            "x_proj": (batch, t_len, 4 * h),  # x wx^T, one (T, 4h) matrix per sequence
            "gates": (t_len, 4, batch, h),
            "cand_cell": (t_len + 1, 2, batch, h),
            "tanh_cell": (t_len, batch, h),
            "rec": (batch, 4 * h, 1),  # wh h_{t-1}, one column per sequence
            "terms": (2, batch, h),  # a paired product before its add
            "logits": (t_len, batch, o),  # _backward turns them into dlogits in place
            "dh_out": (t_len, batch, h),  # dlogits wo
            "factors": (t_len, 4, batch, h),  # F
            "carry": (t_len, 2, batch, h),  # [f_{t+1}, G_t] at t
            "one_minus": (t_len, batch, h),  # 1 - a gate, or 1 - a square, while F is formed
            "dz": (t_len, batch, 4 * h),
            "dcdh": (4, batch, h),  # [dc, dc, dc, dh]
            "dh_next": (batch, h, 1),  # wh^T dz_{t+1}, one column per sequence
            "d_w": (batch, 4 * h, d + h + 1),  # dwx|dwh|db
        }

    def __init__(self, dims: NetworkDims, t_len: int, batch: int, arena: np.ndarray):
        self.key, self.arena = (dims, t_len, batch), arena
        for name, view in _cut(arena, self.shapes(dims, t_len, batch)).items():
            setattr(self, name, view)
        d, h = dims.input_dim, dims.hidden_dim
        self.inputs[0, :, d : d + h] = 0.0
        self.inputs[:, :, -1] = 1.0
        self.cand_cell[0, 1] = 0.0
        self.carry[-1, 0] = 0.0
        self.x = self.inputs[:-1, :, :d]  # (T, B, d)
        self.h_cols = self.inputs[:, :, d : d + h, None]  # h_{t-1} at t, as (B, h, 1) columns
        self.hidden = self.inputs[1:, :, d : d + h]  # (T, B, h), h_t at t
        self.rec_gates = self.rec.reshape(batch, 4, h).swapaxes(0, 1)  # the same memory, gate-major


_local = threading.local()


def _workspace(dims: NetworkDims, t_len: int, batch: int) -> _Workspace:
    """This thread's workspace for (dims, T, B). A call of another shape gets
    new arrays, cut from the same arena while that is large enough."""
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.key != (dims, t_len, batch):
        size = sum(math.prod(shape) for shape in _Workspace.shapes(dims, t_len, batch).values())
        arena = ws.arena if ws is not None and ws.arena.size >= size else None
        ws = _local.workspace = None  # an arena too small goes before a larger one is made
        ws = _local.workspace = _Workspace(dims, t_len, batch, np.empty(size) if arena is None else arena)
    return ws


def _check_frames(frames: np.ndarray, input_dim: int, ndim: int) -> np.ndarray:
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != ndim or x.shape[-1] != input_dim or 0 in x.shape:
        raise InvalidValue(f"frames must be a non-empty {ndim}-d array with last axis {input_dim}, got {x.shape}")
    return x


def _forward(net: Network, frames: np.ndarray) -> _Workspace:
    """Run B equal-length sequences (T, B, d) through the LSTM into this
    thread's workspace, which holds the pass until the thread's next call."""
    x = _check_frames(frames, net.dims.input_dim, 3)
    t_len, batch, _ = x.shape
    h = net.dims.hidden_dim
    ws = _workspace(net.dims, t_len, batch)
    # a copy whatever the caller's layout: each sequence's (T, d) rows are then a
    # matrix BLAS takes as it is, where some numpy versions multiply other layouts
    # in a loop of their own
    np.copyto(ws.x, x)

    # gates[t] starts as x_t wx^T + b; the loop adds wh h_{t-1}, then squashes it
    gates, cand_cell, terms, rec, rec_gates = ws.gates, ws.cand_cell, ws.terms, ws.rec, ws.rec_gates
    np.matmul(ws.x.swapaxes(0, 1), net.wx.T, out=ws.x_proj)
    np.add(ws.x_proj.reshape(batch, t_len, 4, h).transpose(1, 2, 0, 3), net.b.reshape(4, 1, h), out=gates)
    steps = zip(
        gates, gates[:, :2], gates[:, 2], gates[:, 3],
        ws.h_cols, cand_cell, cand_cell[:-1, 0], cand_cell[1:, 1], ws.tanh_cell, ws.hidden,
    )  # fmt: skip
    for z, z_if, z_g, z_o, h_col, g_c, g_out, c_out, tc_out, h_out in steps:
        np.matmul(net.wh, h_col, out=rec)
        np.add(z, rec_gates, out=z)
        np.tanh(z_g, out=g_out)
        expit(z, out=z)
        np.multiply(z_if, g_c, out=terms)  # [i g, f c_{t-1}]
        np.add(terms[0], terms[1], out=c_out)
        np.tanh(c_out, out=tc_out)
        np.multiply(z_o, tc_out, out=h_out)
    np.matmul(ws.hidden.swapaxes(0, 1), net.wo.T, out=ws.logits.swapaxes(0, 1))
    ws.logits += net.bo
    return ws


def forward(net: Network, frames: np.ndarray) -> np.ndarray:
    """Run B equal-length sequences (T, B, d) through the LSTM; returns
    their per-frame logits (T, B, o) in an array of the caller's own."""
    return _forward(net, frames).logits.copy()


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


def _backward(net: Network, ws: _Workspace, lab: np.ndarray) -> np.ndarray:
    """Flat gradient of each sequence's mean-per-frame loss via BPTT, from
    the forward pass of ``net`` that ``ws`` holds, whose logits it uses up.
    Labels are checked int64 (T, B); the result is a new array with one
    gradient per sequence, (B, P).
    """
    d, h, o = net.dims.input_dim, net.dims.hidden_dim, net.dims.output_dim
    t_len, batch = lab.shape

    d_logits = ws.logits  # (softmax - one-hot labels) / T, in place
    np.subtract(d_logits, d_logits.max(axis=-1, keepdims=True), out=d_logits)
    np.exp(d_logits, out=d_logits)
    d_logits /= d_logits.sum(axis=-1, keepdims=True)
    d_logits.reshape(t_len * batch, o)[np.arange(t_len * batch), lab.ravel()] -= 1.0
    d_logits /= t_len

    grads = np.empty((batch, net.parameter_count))
    blocks = net.dims.blocks(grads)
    np.matmul(d_logits.swapaxes(0, 1), net.wo, out=ws.dh_out.swapaxes(0, 1))
    np.matmul(d_logits.transpose(1, 2, 0), ws.hidden.transpose(1, 0, 2), out=blocks["wo"])
    blocks["bo"][...] = d_logits.sum(axis=0)

    # Everything off the recurrence is hoisted, gate-major. Each gate's BPTT
    # factors multiply once into F: dz_t = [dc, dc, dc, dh] * F[t]. The cell
    # gradient is one paired product, dc_t = [dc_{t+1}, dh_t] . [f_{t+1}, G_t]
    # with G = o (1 - tanh^2 c), and dc_{T} f_{T} = 0 * 0. After the loop, dz
    # contracted over t with [x_t, h_{t-1}, 1] is dwx|dwh|db. Each product is
    # formed left to right, as a * b * (1 - c) reads.
    gi, gf, _, go = ws.gates.swapaxes(0, 1)
    gg, c_prev = ws.cand_cell[:-1].swapaxes(0, 1)
    tc, one_minus = ws.tanh_cell, ws.one_minus
    fi, ff, fg, fo = ws.factors.swapaxes(0, 1)
    for out, a, b, c in ((fi, gg, gi, gi), (ff, c_prev, gf, gf), (fo, tc, go, go)):
        np.multiply(a, b, out=out)
        np.subtract(1.0, c, out=one_minus)
        np.multiply(out, one_minus, out=out)
    for out, a, c in ((fg, gi, gg), (ws.carry[:, 1], go, tc)):
        np.multiply(c, c, out=one_minus)
        np.subtract(1.0, one_minus, out=one_minus)
        np.multiply(a, one_minus, out=out)
    ws.carry[:-1, 0] = gf[1:]

    dz, dcdh, terms, dh_next = ws.dz, ws.dcdh, ws.terms, ws.dh_next
    dz_gates = dz.reshape(t_len, batch, 4, h).swapaxes(1, 2)  # the same memory, gate-major
    dc, dc_copies, dc_dh, dh = dcdh[0], dcdh[1:3], dcdh[2:], dcdh[3]  # [dc, dc, dc, dh]
    dcdh[2] = 0.0  # slot 2 brings dc_{t+1} into step t
    dh_next[...] = 0.0
    dh_next_rows, wh_t = dh_next[:, :, 0], net.wh.T
    steps = zip(ws.dh_out[::-1], ws.carry[::-1], ws.factors[::-1], dz_gates[::-1], dz[::-1, :, :, None])
    for dh_o, carry, factors, dz_g, dz_col in steps:
        np.add(dh_o, dh_next_rows, out=dh)
        np.multiply(dc_dh, carry, out=terms)
        np.add(terms[0], terms[1], out=dc)
        dc_copies[...] = dc
        np.multiply(dcdh, factors, out=dz_g)
        np.matmul(wh_t, dz_col, out=dh_next)
    np.matmul(dz.transpose(1, 2, 0), ws.inputs[:-1].transpose(1, 0, 2), out=ws.d_w)
    blocks["wx"][...] = ws.d_w[:, :, :d]
    blocks["wh"][...] = ws.d_w[:, :, d : d + h]
    blocks["b"][...] = ws.d_w[:, :, d + h]
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
    grads: list = [None] * len(batch)
    for rows, x, lab in groups:
        for row, grad in zip(rows, _backward(net, _forward(net, x), lab)):
            grads[row] = grad
    return grads


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
        hi_logits = forward(Network(net.dims, bumped), x)[:, 0]
        bumped[j] = flat[j] - h
        lo_logits = forward(Network(net.dims, bumped), x)[:, 0]
        grad[j] = (loss(hi_logits, labels) - loss(lo_logits, labels)) / (2.0 * h)
    return grad
