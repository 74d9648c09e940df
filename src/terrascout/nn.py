"""Minimal reverse-mode autodiff over float64 numpy arrays.

Covers exactly what the small actor/critic networks need: dense tensors,
2D cross-correlation, linear layers, relu, softmax-style compositions, and
a bias-corrected Adam optimizer. Every op builds its output through
``_op(data, *edges)``, where an edge pairs a parent with the map from the
output's gradient to that parent's. Outside ``no_grad`` the output keeps
the parents that need a gradient, in edge order, as its tape;
``Tensor.backward`` replays the tape in reverse topological order and runs
only those parents' maps. Everything is float64 for determinism and
finite-difference fidelity.

Checkpoint byte layout (versioned):
    bytes 0..7    magic ``NNCKPT01``
    bytes 8..11   uint32 little-endian header length L
    bytes 12..12+L  UTF-8 JSON: {"version": 1, "metadata": {...},
                   "layers": [{"name": str, "shape": [int, ...]}, ...]}
    afterwards     for each layer in manifest order, its values as raw
                   little-endian float64, C-contiguous row-major
"""

from __future__ import annotations

import json
import math
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ContractViolation,
    DataError,
    DimensionError,
    TrainingDivergenceError,
    UsageError,
)
from .gridmap import atomic_open


class Tensor:
    """A float64 array plus an optional gradient accumulator.

    Leaf tensors created with ``requires_grad=True`` accumulate into
    ``.grad`` across backward calls until ``zero_grad``. Tensors produced
    by ops carry the tape needed to reach their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_needs_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple = ()
        self._backward: Optional[Callable] = None
        self._needs_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self) -> None:
        """Populate gradients of every reachable ``requires_grad`` tensor.

        Repeated calls (without ``zero_grad``) keep accumulating into leaf
        gradients; intermediate gradients are rebuilt from scratch each
        call.
        """
        if self._backward is None:
            raise UsageError("backward() requires a recorded forward pass")
        if self.data.size != 1:
            raise UsageError("backward() expects a scalar loss node")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents)
        grads = _GradStore({id(self): np.ones_like(self.data)})
        for node in reversed(topo):
            g = grads.pop(id(node))
            if node.requires_grad:
                node.grad += g
            if node._backward is not None:
                node._backward(g, grads)

    # --- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


_recording: ContextVar[bool] = ContextVar("recording", default=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Run ops without recording a tape: outputs keep no parents and no closure.

    ``linear`` also switches to one vector-matrix product per row inside it,
    so a batch-N forward reproduces N batch-1 forwards bit for bit. The
    previous mode comes back on exit, exceptions included.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _op(data: np.ndarray, *edges: tuple[Tensor, Callable]) -> Tensor:
    """The one op constructor. An edge pairs a parent with the map from the
    output's gradient to that parent's gradient.

    Outside ``no_grad`` the output keeps the parents that need a gradient, in
    edge order, and its backward runs their maps on the output's gradient in
    that order. This is the only place that decides which parents get a
    gradient: a map never runs for a parent that needs none.
    """
    out = Tensor(data)
    needy = [edge for edge in edges if edge[0]._needs_grad] if _recording.get() else []
    if needy:
        out._parents = tuple(parent for parent, _ in needy)
        out._needs_grad = True

        def backward(g, grads):
            for parent, grad_map in needy:
                grads.add(parent, grad_map(g))

        out._backward = backward
    return out


class _GradStore(dict):
    """Upstream gradients by node id.

    A gradient map may hand over an array it does not own (or the same
    array to two parents), so a repeated gradient is added out of place,
    never into a stored array.
    """

    def add(self, node: Tensor, g: np.ndarray) -> None:
        key = id(node)
        self[key] = self[key] + g if key in self else g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and reduction ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _op(a.data + b.data, (a, lambda g: _unbroadcast(g, a.data.shape)),
               (b, lambda g: _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _op(a.data - b.data, (a, lambda g: _unbroadcast(g, a.data.shape)),
               (b, lambda g: _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _op(a.data * b.data, (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
               (b, lambda g: _unbroadcast(g * a.data, b.data.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _op(a.data / b.data, (a, lambda g: _unbroadcast(g / b.data, a.data.shape)),
               (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)
    return _op(data, (a, lambda g: g * data))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _op(np.log(a.data), (a, lambda g: g / a.data))


def relu(a) -> Tensor:
    a = as_tensor(a)
    keep = a.data > 0.0
    return _op(np.where(keep, a.data, 0.0), (a, lambda g: g * keep))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _op(a.data.reshape(shape), (a, lambda g: g.reshape(a.data.shape)))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def grad(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.data.shape).copy()

    return _op(a.data.sum(axis=axis, keepdims=keepdims), (a, grad))


def mean(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    return _op(a.data.mean(), (a, lambda g: np.full(a.data.shape, float(g) / n)))


def where_const(cond: np.ndarray, a, fill: float) -> Tensor:
    """Select ``a`` where cond else a constant; gradient passes only where cond."""
    a = as_tensor(a)
    cond = np.asarray(cond, dtype=bool)
    return _op(np.where(cond, a.data, fill), (a, lambda g: np.where(cond, g, 0.0)))


def gather_last(a, index: np.ndarray) -> Tensor:
    """Pick one entry per row along the last axis: out[i] = a[i, index[i]]."""
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.int64)
    if a.data.ndim != 2 or index.shape != (a.data.shape[0],):
        raise DimensionError("gather_last expects (B, K) data and (B,) indices")
    rows = np.arange(a.data.shape[0])

    def grad(g):
        full = np.zeros_like(a.data)
        full[rows, index] = g
        return full

    return _op(a.data[rows, index], (a, grad))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}"
        )
    return _op(a.data @ b.data, (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))


def linear(x: Tensor, weight, bias) -> Tensor:
    """Dense layer ``x @ weight + bias``: (B, in) rows, an (in, out) weight.

    Under ``no_grad`` it takes one vector-matrix product per row: a batch-N
    gemm sums in another order than batch 1, and this keeps every row's bits.
    """
    if _recording.get():
        return add(matmul(x, weight), bias)
    return Tensor(np.matmul(x.data[:, None, :], weight.data)[:, 0] + bias.data)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def conv2d(x, weight, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """Batched 2D cross-correlation: (B,C,H,W) * (O,C,kh,kw) -> (B,O,oh,ow).

    No im2col column array covers the batch. The forward builds one
    sample's columns at a time from a strided window view of the padded
    input and writes its gemm into the output. The backward is three edges,
    bias, weight and input, and keeps only that view: the weight map
    rebuilds each sample's columns and adds the samples' weight gradients in
    sample order, the order in which a batched einsum sums them, so every
    bit equals a whole-batch step. The exception is
    cout == cin*kh*kw == 1, where einsum folds samples and pixels into one
    dot; that case takes the batch in one step, on columns no larger than
    the input.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    bsz, cin, h, w = x.data.shape
    cout, cin_w, kh, kw = weight.data.shape
    if cin != cin_w:
        raise DimensionError(f"conv2d channels mismatch: input {cin} vs kernel {cin_w}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise DimensionError("conv2d kernel larger than the padded input")
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    k, p = cin * kh * kw, oh * ow

    xp = x.data
    if padding:
        xp = np.zeros((bsz, cin, hp, wp))
        xp[:, :, padding : padding + h, padding : padding + w] = x.data
    taps = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    taps = taps.transpose(0, 1, 4, 5, 2, 3)
    # cout == k == 1: einsum merges the sample and pixel axes into one dot,
    # whose sum order no per-sample split reproduces
    step = bsz if cout == k == 1 else 1
    blocks = [slice(start, start + step) for start in range(0, bsz, step)]

    def columns(rows: slice) -> np.ndarray:
        return np.ascontiguousarray(taps[rows]).reshape(-1, k, p)

    w2 = weight.data.reshape(cout, k)
    out = np.empty((bsz, cout, p))
    for rows in blocks:
        np.matmul(w2, columns(rows), out=out[rows])
    out = out.reshape(bsz, cout, oh, ow)
    out += bias.data.reshape(1, cout, 1, 1)

    def grad_weight(g):
        g2 = g.reshape(bsz, cout, p)
        gw = np.zeros((cout, k))
        for rows in blocks:
            gw += np.einsum("bop,bkp->ok", g2[rows], columns(rows))
        return gw.reshape(weight.data.shape)

    def grad_input(g):
        g2 = g.reshape(bsz, cout, p)
        gxp = np.zeros((bsz, cin, hp, wp))
        for rows in blocks:
            gcols = np.matmul(w2.T, g2[rows]).reshape(-1, cin, kh, kw, oh, ow)
            gxb = gxp[rows]
            for i in range(kh):
                for j in range(kw):
                    gxb[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += (
                        gcols[:, :, i, j]
                    )
        return gxp[:, :, padding : padding + h, padding : padding + w]

    return _op(out, (bias, lambda g: g.sum(axis=(0, 2, 3))), (weight, grad_weight), (x, grad_input))


# ---------------------------------------------------------------------------
# policy head
# ---------------------------------------------------------------------------


def masked_bounded_softmax(logits, mask: np.ndarray, epsilon) -> Tensor:
    """Softmax over valid entries mixed with a uniform floor of weight epsilon.

    Masked entries come out exactly zero; valid entries sum to one. The
    epsilon-uniform mixture is spread over valid entries only, so masking
    survives exploration. ``epsilon`` may be a scalar or a per-row column
    vector.
    """
    logits = as_tensor(logits)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != logits.data.shape:
        raise ContractViolation("mask shape must match logits")
    valid_counts = mask.sum(axis=-1, keepdims=True)
    if (valid_counts == 0).any():
        raise ContractViolation("masked softmax needs at least one valid entry per row")
    eps = np.asarray(epsilon, dtype=np.float64)
    if not ((0.0 <= eps) & (eps <= 1.0)).all():  # NaN fails both comparisons
        raise ContractViolation("epsilon must lie in [0, 1]")

    shift = np.max(np.where(mask, logits.data, -np.inf), axis=-1, keepdims=True)
    z = where_const(mask, sub(logits, Tensor(shift)), 0.0)
    e = mul(exp(z), Tensor(mask.astype(np.float64)))
    s = tsum(e, axis=-1, keepdims=True)
    soft = div(e, s)
    floor = eps / valid_counts * mask
    return add(mul(soft, Tensor(1.0 - eps)), Tensor(floor))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Bias-corrected Adam over a list of parameter tensors."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: Sequence[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None or not np.isfinite(g).all():
                raise TrainingDivergenceError("non-finite gradient in Adam step")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_grad_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"NNCKPT01"


def save_checkpoint(path, named_params: Sequence[tuple[str, np.ndarray]],
                    metadata: Optional[dict] = None) -> None:
    layers = []
    blobs = []
    for name, value in named_params:
        arr = np.asarray(value, dtype="<f8")
        layers.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps(
        {"version": 1, "metadata": metadata or {}, "layers": layers},
        sort_keys=True,
    ).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; a foreign, truncated or malformed file raises ``DataError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != _MAGIC:
        raise DataError(f"{path}: not a parameter checkpoint (bad magic)")
    if len(data) < 12:
        raise DataError(f"{path}: truncated checkpoint header")
    (hlen,) = struct.unpack_from("<I", data, 8)
    offset = 12 + hlen
    if len(data) < offset:
        raise DataError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(data[12:offset].decode("utf-8"))
        layers = [(layer["name"], tuple(int(n) for n in layer["shape"]))
                  for layer in header["layers"]]
        if any(n < 0 for _, shape in layers for n in shape):
            raise ValueError("negative layer dimension")
        if len({name for name, _ in layers}) != len(layers):
            raise ValueError("repeated layer name")
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: unreadable checkpoint header ({exc!r})") from exc
    if header.get("version") != 1:
        raise DataError(f"{path}: unsupported checkpoint version")
    params: dict[str, np.ndarray] = {}
    for name, shape in layers:
        end = offset + 8 * math.prod(shape)
        if len(data) < end:
            raise DataError(f"{path}: truncated parameter data for layer '{name}'")
        params[name] = np.frombuffer(data, dtype="<f8", count=math.prod(shape),
                                     offset=offset).reshape(shape).copy()
        offset = end
    return params, header.get("metadata", {})
