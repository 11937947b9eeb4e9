"""Dense float64 tensors with reverse-mode automatic differentiation.

Each differentiable operation returns a new :class:`Tensor` that records its
operands and a backward closure, so the executed-operation graph lives on the
result tensors themselves (no global tape, no shared state between independent
computations). :func:`backward` on a scalar loss walks that graph once, in
reverse topological order, and sums gradient contributions into every
tracked leaf, a tensor with ``requires_grad`` set that no operation made.
Op results pass their gradient on and keep ``grad`` at ``None``. A leaf's
gradients keep accumulating across repeated backward calls until explicitly
cleared, which is what a training loop wants and what makes accumulation
testable.

Everything is float64; speed at the intended problem sizes is irrelevant next
to being able to verify every gradient against finite differences.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "RankError",
    "OutOfVocabularyError",
    "DegenerateDirectionError",
    "backward",
    "zero_gradients",
    "matmul",
    "add",
    "mul",
    "scale",
    "relu",
    "sigmoid",
    "tanh",
    "log",
    "clamp_min",
    "softmax",
    "glu",
    "causal_conv1d",
    "weight_norm",
    "dropout",
    "embedding_lookup",
    "concat",
    "stack",
    "slice_cols",
    "tile_rows",
    "transpose",
    "sum_all",
    "pick",
    "as_generator",
]


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class RankError(ShapeError):
    """Operand has the wrong rank (e.g. a non-scalar loss in backward)."""


class OutOfVocabularyError(IndexError):
    """Token id outside the embedding table."""


class DegenerateDirectionError(ValueError):
    """Weight-normalization direction vector with zero norm."""


class Tensor:
    """A dense float64 array, optionally tracked for differentiation.

    ``grad`` is ``None`` until a backward pass deposits a contribution; a
    leaf that never participates in a loss, and every op result, simply
    keeps ``None``, which readers treat as zero.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_bw")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._bw = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def _node(data, parents, bw) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._bw = bw
    return out


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative post-order DFS over recorded parents; result lists every
    # tensor after all of its operands, so reversed() replays ops backward
    # exactly once each.
    order: list[Tensor] = []
    seen = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into the ``grad`` of every tracked leaf
    the loss depends on; op results store no gradient.

    Contributions from all uses of a tensor are summed; calling backward
    twice on the same graph therefore doubles the stored gradients.
    """
    if loss.data.size != 1:
        raise RankError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    # Per-call upstream gradients; kept separate from .grad so repeated
    # backward calls accumulate exactly once per call.
    pending: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}

    def emit(t: Tensor, contrib: np.ndarray) -> None:
        if not t.requires_grad:
            return
        cur = pending.get(t)
        pending[t] = np.asarray(contrib, dtype=np.float64) if cur is None else cur + contrib

    for t in reversed(_topo_order(loss)):
        g = pending.pop(t, None)
        if g is None:
            continue
        if t._bw is None:
            t.grad = np.array(g) if t.grad is None else t.grad + g
        else:
            t._bw(g, emit)


def zero_gradients(tensors) -> None:
    """Clear stored gradients on an iterable (or dict) of tensors."""
    if isinstance(tensors, dict):
        tensors = tensors.values()
    for t in tensors:
        t.grad = None


def as_generator(rng) -> np.random.Generator:
    """Accept an integer seed or an existing Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.Generator(np.random.PCG64(rng))


# ---------------------------------------------------------------------------
# operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a`` [T, C] or a batch [B, T, C] times a shared ``b`` [C, D], or a
    batched product [B, T, C] @ [B, C, D].

    A batch runs as one stacked ``np.matmul``, which issues one product per
    example at the shape that example alone would use. Each example's result
    rows, and in backward its ``a`` gradient, are therefore bit-identical to
    that example's own product, whatever its batch-mates. The gradient of a
    shared ``b`` is one product summed over the batch.
    """
    x, w = a.data, b.data
    if x.ndim in (2, 3) and w.ndim == 2 and x.shape[-1] == w.shape[0]:
        def bw(g, emit):
            if a.requires_grad:
                emit(a, g @ w.T)
            if b.requires_grad:
                emit(b, x.reshape(-1, w.shape[0]).T @ g.reshape(-1, w.shape[1]))

        return _node(x @ w, (a, b), bw)
    if x.ndim == 3 and w.ndim == 3 and x.shape[0] == w.shape[0] and x.shape[2] == w.shape[1]:
        def bw(g, emit):
            if a.requires_grad:
                emit(a, g @ w.swapaxes(1, 2))
            if b.requires_grad:
                emit(b, x.swapaxes(1, 2) @ g)

        return _node(x @ w, (a, b), bw)
    raise ShapeError(f"matmul: incompatible shapes {x.shape} and {w.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; a 1-d ``b`` broadcasts over the last axis of ``a``."""
    if a.data.shape == b.data.shape:
        def bw(g, emit):
            emit(a, g)
            emit(b, g)
        return _node(a.data + b.data, (a, b), bw)
    if a.data.ndim >= 2 and b.data.ndim == 1 and b.data.shape[0] == a.data.shape[-1]:
        def bw(g, emit):
            emit(a, g)
            if b.requires_grad:
                emit(b, g.sum(axis=tuple(range(g.ndim - 1))))
        return _node(a.data + b.data, (a, b), bw)
    raise ShapeError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")

    def bw(g, emit):
        emit(a, g * b.data)
        emit(b, g * a.data)

    return _node(a.data * b.data, (a, b), bw)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bw(g, emit):
        emit(a, g * s)

    return _node(a.data * s, (a,), bw)


def relu(a: Tensor) -> Tensor:
    def bw(g, emit):
        emit(a, g * (a.data > 0.0))

    return _node(np.maximum(a.data, 0.0), (a,), bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp
    # never overflows.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)

    def bw(g, emit):
        emit(a, g * y * (1.0 - y))

    return _node(y, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def bw(g, emit):
        emit(a, g * (1.0 - y * y))

    return _node(y, (a,), bw)


def log(a: Tensor) -> Tensor:
    def bw(g, emit):
        emit(a, g / a.data)

    return _node(np.log(a.data), (a,), bw)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); gradient is blocked where the floor is active."""
    keep = a.data > floor

    def bw(g, emit):
        emit(a, g * keep)

    return _node(np.maximum(a.data, floor), (a,), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g, emit):
        emit(a, y * (g - (g * y).sum(axis=axis, keepdims=True)))

    return _node(y, (a,), bw)


def glu(a: Tensor) -> Tensor:
    """Gated linear unit over the last axis: first half * sigmoid(second half)."""
    width = a.data.shape[-1]
    if width % 2 != 0:
        raise ShapeError(f"glu: last axis must be even, got shape {a.data.shape}")
    half = width // 2
    val = a.data[..., :half]
    gate = _sigmoid(a.data[..., half:])

    def bw(g, emit):
        da = np.concatenate([g * gate, g * val * gate * (1.0 - gate)], axis=-1)
        emit(a, da)

    return _node(val * gate, (a,), bw)


def causal_conv1d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """1-d convolution over the time axis that only looks backward.

    ``x`` is [T, Cin] or a batch [B, T, Cin], ``kernel`` is [K, Cin, Cout],
    ``bias`` is [Cout]. Each sequence is implicitly left-padded with K-1 zero
    rows, so output row t is a function of input rows t-K+1 .. t only.

    The output starts as the bias, and the taps are added in order k, each
    as a [T, Cin] @ [Cin, Cout] product per example (a stacked product for a
    batch). A batch's rows and input gradient are therefore bit-identical to
    each example's own; the kernel gradient is one product per tap summed
    over the batch.
    """
    if x.data.ndim not in (2, 3) or kernel.data.ndim != 3:
        raise ShapeError(
            f"causal_conv1d: expected [T,Cin] or [B,T,Cin] and [K,Cin,Cout], "
            f"got {x.data.shape} and {kernel.data.shape}"
        )
    K, cin, cout = kernel.data.shape
    if x.data.shape[-1] != cin:
        raise ShapeError(
            f"causal_conv1d: channel mismatch, input {x.data.shape} vs kernel {kernel.data.shape}"
        )
    if bias.data.shape != (cout,):
        raise ShapeError(f"causal_conv1d: bias shape {bias.data.shape}, expected ({cout},)")
    T = x.data.shape[-2]
    pad = np.zeros(x.data.shape[:-2] + (K - 1, cin))
    xp = np.concatenate([pad, x.data], axis=-2)
    out = np.empty(x.data.shape[:-1] + (cout,))
    out[...] = bias.data
    for k in range(K):
        out += xp[..., k:k + T, :] @ kernel.data[k]

    def bw(g, emit):
        g_rows = g.reshape(-1, cout)
        if bias.requires_grad:
            emit(bias, g_rows.sum(axis=0))
        if kernel.requires_grad:
            emit(kernel, np.stack([xp[..., k:k + T, :].reshape(-1, cin).T @ g_rows
                                   for k in range(K)]))
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for k in range(K):
                dxp[..., k:k + T, :] += g @ kernel.data[k].T
            emit(x, dxp[..., K - 1:, :])

    return _node(out, (x, kernel, bias), bw)


def weight_norm(v: Tensor, g: Tensor) -> Tensor:
    """Reparameterize a weight as direction * per-output-channel magnitude.

    The output channel is the last axis of ``v``; ``g`` holds one scale per
    channel. Returns g * v / ||v||_2 with the norm taken per channel.
    """
    cout = v.data.shape[-1]
    if g.data.shape != (cout,):
        raise ShapeError(f"weight_norm: g shape {g.data.shape}, expected ({cout},)")
    flat = v.data.reshape(-1, cout)
    norms = np.sqrt((flat * flat).sum(axis=0))
    if np.any(norms == 0.0):
        raise DegenerateDirectionError("weight_norm: direction vector has zero norm")
    w = v.data * (g.data / norms)

    def bw(gw, emit):
        # t_c = <dW, v> per channel
        t = (gw * v.data).reshape(-1, cout).sum(axis=0)
        emit(g, t / norms)
        emit(v, gw * (g.data / norms) - v.data * (g.data * t / norms**3))

    return _node(w, (v, g), bw)


def dropout(x: Tensor, p: float, rng, train_mode: bool) -> Tensor:
    """Inverted dropout: zero with probability p and scale survivors by 1/(1-p).

    Identity when not training or p == 0. ``rng`` is an integer seed or a
    numpy Generator; a fixed seed gives a bit-reproducible mask. For a batch,
    ``rng`` is a list with one seed or Generator per example (the leading
    axis of ``x``), and each example's mask is drawn from its own stream with
    the shape ``x.shape[1:]`` that the example alone would have.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not train_mode or p == 0.0:
        return x
    if isinstance(rng, list):
        if len(rng) != x.data.shape[0]:
            raise ShapeError(f"dropout: {len(rng)} generators for a batch of {x.data.shape[0]}")
        draws = np.stack([as_generator(r).random(x.data.shape[1:]) for r in rng])
    else:
        draws = as_generator(rng).random(x.data.shape)
    factor = (draws >= p) / (1.0 - p)

    def bw(g, emit):
        emit(x, g * factor)

    return _node(x.data * factor, (x,), bw)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of ``table`` selected by integer ids; equals one-hot @ table.

    ``table`` is [V, D], or a per-example table [B, V, D] with ids [B, ...],
    where example b reads ``table[b]``. Each example's rows and table
    gradient are then bit-identical to a lookup in its own [V, D] table.
    """
    ids = np.asarray(ids, dtype=np.int64)
    vocab, dim = table.data.shape[-2:]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        bad = int(ids[(ids < 0) | (ids >= vocab)][0])
        raise OutOfVocabularyError(f"token id {bad} outside table of size {vocab}")
    index = rows = ids
    if table.data.ndim == 3:
        if ids.shape[:1] != table.data.shape[:1]:
            raise ShapeError(f"embedding_lookup: ids {ids.shape} for a table {table.data.shape}")
        example = np.arange(ids.shape[0]).reshape((-1,) + (1,) * (ids.ndim - 1))
        index = (example, ids)
        rows = example * vocab + ids  # row of the table flattened to [B*V, D]

    def bw(g, emit):
        dt = np.zeros(table.data.shape)
        # A 1-d index takes numpy's fast path; the additions keep their order.
        np.add.at(dt.reshape(-1, dim), rows.ravel(), g.reshape(ids.size, dim))
        emit(table, dt)

    return _node(table.data[index], (table,), bw)


def concat(parts, axis: int = 1) -> Tensor:
    parts = tuple(parts)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g, emit):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            emit(p, g[tuple(idx)])

    return _node(np.concatenate([p.data for p in parts], axis=axis), parts, bw)


def stack(parts, axis: int = 0) -> Tensor:
    """Join equal-shape tensors along a new axis."""
    parts = tuple(parts)

    def bw(g, emit):
        for i, p in enumerate(parts):
            emit(p, np.take(g, i, axis=axis))

    return _node(np.stack([p.data for p in parts], axis=axis), parts, bw)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns start:stop of the last axis."""
    def bw(g, emit):
        dx = np.zeros_like(x.data)
        dx[..., start:stop] = g
        emit(x, dx)

    return _node(x.data[..., start:stop], (x,), bw)


def tile_rows(x: Tensor, n: int) -> Tensor:
    """Repeat a single row n times: [D] or [1, D] into [n, D], and a batch of
    rows [B, 1, D] into [B, n, D]."""
    row = x.data if x.data.ndim == 3 else x.data.reshape(1, -1)

    def bw(g, emit):
        emit(x, g.sum(axis=-2).reshape(x.data.shape))

    return _node(np.repeat(row, n, axis=-2), (x,), bw)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    def bw(g, emit):
        emit(x, g.swapaxes(-1, -2))

    return _node(x.data.swapaxes(-1, -2), (x,), bw)


def sum_all(x: Tensor) -> Tensor:
    def bw(g, emit):
        emit(x, np.ones_like(x.data) * g)

    return _node(x.data.sum(), (x,), bw)


def pick(probs: Tensor, col_ids) -> Tensor:
    """probs[i, col_ids[i]] for i over the first len(col_ids) rows; for a
    batch [B, T, V] with ids [B, T'], probs[b, i, col_ids[b, i]] over the
    first T' rows of each example."""
    col_ids = np.asarray(col_ids, dtype=np.int64)
    index = (np.arange(col_ids.shape[-1]), col_ids)
    if col_ids.ndim == 2:
        index = (np.arange(col_ids.shape[0])[:, None],) + index

    def bw(g, emit):
        dp = np.zeros_like(probs.data)
        dp[index] = g
        emit(probs, dp)

    return _node(probs.data[index], (probs,), bw)
