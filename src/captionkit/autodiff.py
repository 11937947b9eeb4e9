"""Dense float64 tensors with reverse-mode automatic differentiation.

Each differentiable operation returns a new :class:`Tensor` that records its
operands and a backward closure, so the executed-operation graph lives on the
result tensors themselves (no global tape, no shared state between independent
computations). :func:`backward` on a scalar loss walks that graph once, in
reverse topological order, and returns the summed gradient of every
tracked leaf it reaches, a tensor with ``requires_grad`` set that no
operation made. No tensor stores a gradient, so a call leaves nothing behind.

Gradients are summed in place in arrays that :func:`backward` allocated, and
a table lookup contributes only its rows, with the bits of a dense sum. A
node keeps only the arrays its backward reads, which is why a linear layer
(:func:`matmul` with a bias) and a layer's attention (:func:`attention`) are
one node each.

Everything is float64, and the tests check every op's gradient against
finite differences, alone or inside a model. A batched product is issued per example, so each example's bits
are those of its own computation (see :func:`matmul`). Speed is measured by
the benchmark under ``bench/``, not assumed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "RankError",
    "OutOfVocabularyError",
    "DegenerateDirectionError",
    "backward",
    "matmul",
    "add",
    "mul",
    "log",
    "clamp_min",
    "softmax",
    "attention",
    "glu",
    "lstm_cell",
    "causal_conv1d",
    "weight_norm",
    "dropout",
    "embedding_lookup",
    "concat",
    "slice_cols",
    "tile_rows",
    "sum_all",
    "pick",
    "view",
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
    """A dense float64 array, optionally tracked for differentiation."""

    __slots__ = ("data", "requires_grad", "_parents", "_bw")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
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


class _Rows(NamedTuple):
    """Sums ``grad`` [N, D], each from +0.0, of distinct rows ``rows`` [N] of a [-1, D] table."""
    rows: np.ndarray
    grad: np.ndarray


def _sum_rows(parts: list[_Rows], shape) -> np.ndarray:
    """The row contributions ``parts`` added in order into one zeroed array:
    every element gets the additions of a sum of dense tables, bar a
    ``0.0 +`` that changes nothing (no sum from +0.0 gives -0.0)."""
    out = np.zeros(shape)
    flat = out.reshape(-1, shape[-1])
    for part in parts:
        flat[part.rows] += part.grad
    return out


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """d(loss)/d(leaf) for every tracked leaf the loss depends on, keyed by
    the leaf; contributions from all uses of a tensor are summed. Each
    gradient is a fresh array.

    A tensor's second contribution makes a fresh array and later ones are
    added into it in place, so no emitted array (``add`` emits one ``g`` to
    both operands, ``concat`` emits views) or forward array is written to.
    Row contributions (``embedding_lookup``) are kept in arrival order and
    added into one zeroed array when the tensor is reached; once a dense
    contribution meets them, each is added as a dense table, so signed
    zeros come out as in a dense sum. Every element gets the additions of a
    sum of fresh dense arrays, in order, so the result is bit-identical."""
    if loss.data.size != 1:
        raise RankError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    grads: dict[Tensor, np.ndarray] = {}
    if not loss.requires_grad:
        return grads
    pending: dict[Tensor, np.ndarray | list[_Rows]] = {loss: np.ones_like(loss.data)}
    owned: set[Tensor] = set()  # tensors whose pending array this call allocated

    def emit(t: Tensor, contrib) -> None:
        if not t.requires_grad:
            return
        cur = pending.get(t)
        rows = isinstance(contrib, _Rows)
        if cur is None:
            pending[t] = [contrib] if rows else contrib
            return
        if isinstance(cur, list):
            if rows:
                cur.append(contrib)
                return
            cur = pending[t] = _sum_rows(cur, t.data.shape)
            owned.add(t)
        elif rows:
            contrib = _sum_rows([contrib], t.data.shape)
        if t in owned:
            cur += contrib
        else:
            pending[t] = np.asarray(cur + contrib)  # a 0-d sum is a numpy scalar
            owned.add(t)

    for t in reversed(_topo_order(loss)):
        g = pending.pop(t, None)
        if g is None:
            continue
        if isinstance(g, list):
            g = _sum_rows(g, t.data.shape)
            owned.add(t)
        if t._bw is None:
            grads[t] = g if t in owned else np.array(g)
        else:
            t._bw(g, emit)
    return grads


def view(params: dict[str, Tensor], tracked=(), batch: int = 1) -> dict[str, Tensor]:
    """Tensors over the same arrays as ``params`` that record no backward,
    except each name in ``tracked``: a tracked per-example copy ``[batch, ...]``
    (broadcast, nothing copied) whose gradient's row b is the gradient through copy b."""
    return {name: Tensor(np.broadcast_to(p.data, (batch,) + p.shape), requires_grad=True)
            if name in tracked else Tensor(p.data)
            for name, p in params.items()}


# ---------------------------------------------------------------------------
# operations


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a`` [T, C] or a batch [B, T, C] times a shared ``b`` [C, D], or a
    batched product [B, T, C] @ [B, C, D], plus ``bias`` [D] on every row
    when given.

    A batch runs as one stacked ``np.matmul``, which issues one product per
    example at the shape that example alone would use. Each example's result
    rows, and in backward its ``a`` gradient, are therefore bit-identical to
    that example's own product, whatever its batch-mates. The gradient of a
    shared ``b`` is one product summed over the batch, and that of ``bias``
    the upstream rows summed. The bias is added to the product in place, so
    the node holds one array where a product and a sum would hold two.
    """
    x, w = a.data, b.data
    shared = x.ndim in (2, 3) and w.ndim == 2 and x.shape[-1] == w.shape[0]
    if not shared and not (x.ndim == 3 and w.ndim == 3 and x.shape[0] == w.shape[0]
                           and x.shape[2] == w.shape[1]):
        raise ShapeError(f"matmul: incompatible shapes {x.shape} and {w.shape}")
    if bias is not None and bias.data.shape != w.shape[-1:]:
        raise ShapeError(f"matmul: bias shape {bias.data.shape}, expected ({w.shape[-1]},)")
    out = x @ w
    if bias is not None:
        out += bias.data

    def bw(g, emit):
        if a.requires_grad:
            emit(a, g @ w.swapaxes(-1, -2))
        if b.requires_grad:
            emit(b, x.reshape(-1, w.shape[0]).T @ g.reshape(-1, w.shape[1]) if shared
                 else x.swapaxes(1, 2) @ g)
        if bias is not None and bias.requires_grad:
            emit(bias, g.sum(axis=tuple(range(g.ndim - 1))))

    return _node(out, (a, b) if bias is None else (a, b, bias), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")

    def bw(g, emit):
        emit(a, g)
        emit(b, g)

    return _node(a.data + b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")

    def bw(g, emit):
        emit(a, g * b.data)
        emit(b, g * a.data)

    return _node(a.data * b.data, (a, b), bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp
    # never overflows.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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


def _softmax(x: np.ndarray):
    """Softmax over the last axis of an array, and its backward: the
    function from the upstream gradient to the gradient at ``x``."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return y, lambda g: y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    y, grad = _softmax(a.data)

    def bw(g, emit):
        emit(a, grad(g))

    return _node(y, (a,), bw)


def attention(d: Tensor, w: Tensor, spatial: Tensor):
    """``d`` plus its attention context over constant grids, as one node.

    ``d`` is [T, H] with one grid ``spatial`` [N, H], or a batch [B, T, H]
    with one grid per example [B, N, H]; ``w`` is [H, H]. Row j's scores over
    the N cells are (d_j w) . c_i, its weights their softmax, and its context
    the weighted sum of the cells. Returns (d + context, the weights
    [..., T, N] as an array); each row of weights sums to 1.

    The products and sums are those of the composed ops (``matmul`` twice,
    ``softmax``, ``matmul``, ``add`` of ``d``) in their order, so the result
    and gradients are bit-identical to that composition when ``d`` has no
    other use; ``d``'s two contributions are summed here, once. The node
    keeps the weights, not the projected rows, scores or context. The grids
    get no gradient.
    """
    x, wd, grid = d.data, w.data, spatial.data
    h = x.shape[-1]
    if (x.ndim not in (2, 3) or grid.ndim != x.ndim or grid.shape[:-2] != x.shape[:-2]
            or wd.shape != (h, h) or grid.shape[-1] != h):
        raise ShapeError(f"attention: rows {x.shape}, weight {wd.shape} and grids {grid.shape}")
    cells = grid.swapaxes(-1, -2)
    weights, softmax_grad = _softmax((x @ wd) @ cells)

    def bw(g, emit):
        g_dw = softmax_grad(g @ cells) @ grid
        if w.requires_grad:
            emit(w, x.reshape(-1, h).T @ g_dw.reshape(-1, h))
        emit(d, g + g_dw @ wd.T)

    return _node(x + weights @ grid, (d, w), bw), weights


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


def lstm_cell(z: Tensor, cell: Tensor) -> Tensor:
    """One LSTM cell update as one node.

    ``z`` [..., 4H] holds the gate pre-activations: the input, forget and
    output gates, then the candidate. ``cell`` [..., 2H] is the previous
    ``[memory | hidden]``, of which only the memory is read. Returns
    ``[memory' | hidden']`` as [..., 2H], where memory' = f * memory + i * c
    and hidden' = o * tanh(memory'), with i, f, o the sigmoids of their
    blocks and c the tanh of the candidate; the previous cell's gradient is
    ``[g_memory * f | 0]``.

    Forward and backward multiply in the same order as the cell written out in
    sigmoid, tanh, mul and add ops would, so every result and gradient is
    bit-identical to that composition.
    """
    hdim = cell.data.shape[-1] // 2
    if z.data.shape != cell.data.shape[:-1] + (4 * hdim,) or cell.data.shape[-1] % 2:
        raise ShapeError(f"lstm_cell: gates {z.data.shape} for a cell {cell.data.shape}")
    gates = _sigmoid(z.data[..., :3 * hdim])
    i, f, o = gates[..., :hdim], gates[..., hdim:2 * hdim], gates[..., 2 * hdim:]
    c = np.tanh(z.data[..., 3 * hdim:])
    m_prev = cell.data[..., :hdim]
    m = f * m_prev + i * c
    tanh_m = np.tanh(m)

    def bw(g, emit):
        gh = g[..., hdim:]
        gm = g[..., :hdim] + (gh * o) * (1.0 - tanh_m * tanh_m)
        emit(z, np.concatenate([((gm * c) * i) * (1.0 - i),
                                ((gm * m_prev) * f) * (1.0 - f),
                                ((gh * tanh_m) * o) * (1.0 - o),
                                (gm * i) * (1.0 - c * c)], axis=-1))
        if cell.requires_grad:
            emit(cell, np.concatenate([gm * f, np.zeros_like(gm)], axis=-1))

    return _node(np.concatenate([m, o * tanh_m], axis=-1), (z, cell), bw)


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

    def padded():  # x after its K-1 zero rows; backward rebuilds it rather than keep it
        return np.concatenate([np.zeros(x.data.shape[:-2] + (K - 1, cin)), x.data], axis=-2)

    xp = padded()
    out = np.empty(x.data.shape[:-1] + (cout,))
    out[...] = bias.data
    for k in range(K):
        out += xp[..., k:k + T, :] @ kernel.data[k]

    def bw(g, emit):
        g_rows = g.reshape(-1, cout)
        if bias.requires_grad:
            emit(bias, g_rows.sum(axis=0))
        if kernel.requires_grad:
            xp = padded()
            emit(kernel, np.stack([xp[..., k:k + T, :].reshape(-1, cin).T @ g_rows
                                   for k in range(K)]))
        if x.requires_grad:
            dxp = np.zeros(x.data.shape[:-2] + (K - 1 + T, cin))
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


def dropout(x: Tensor, p: float, rng, positions: int = 0) -> Tensor:
    """Inverted dropout: zero with probability p and scale survivors by 1/(1-p).

    Identity when ``rng`` is None or p == 0. Otherwise ``rng`` is a list with
    one integer seed or numpy Generator per example (the leading axis of
    ``x``), and each example's mask is drawn from its own stream; a fixed
    seed gives a bit-reproducible mask.

    An example's rows (its first axis) are drawn as ``max(rows, positions)``
    rows and the first ``rows`` kept, so the default draws the shape
    ``x.shape[1:]`` that the example alone has. With ``positions`` set to a
    sequence's length, a prefix of it gets the mask rows of the whole
    sequence, and the stream moves on by the same amount, so later draws
    from it do not depend on how many rows were kept.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x
    if not isinstance(rng, (list, tuple)):
        raise ShapeError(f"dropout: rng must be a list of one seed or Generator per example, "
                         f"got {type(rng).__name__}")
    if len(rng) != x.data.shape[0]:
        raise ShapeError(f"dropout: {len(rng)} generators for a batch of {x.data.shape[0]}")
    rows = x.data.shape[1]
    shape = (max(rows, positions),) + x.data.shape[2:]
    draws = np.stack([np.random.default_rng(r).random(shape)[:rows] for r in rng])
    keep = draws >= p  # the node keeps this mask, one byte per value

    def bw(g, emit):
        emit(x, g * (keep / (1.0 - p)))

    return _node(x.data * (keep / (1.0 - p)), (x,), bw)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of ``table`` selected by integer ids; equals one-hot @ table.

    ``table`` is [V, D], or a per-example table [B, V, D] with ids [B, ...],
    where example b reads ``table[b]``. Each example's rows and table
    gradient are then bit-identical to a lookup in its own [V, D] table.
    The backward sends each distinct row it read once, its upstream rows
    summed from +0.0 in arrival order (see :func:`backward`).
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
        distinct, where = np.unique(rows, return_inverse=True)
        sums = np.zeros((distinct.size, dim))
        # A 1-d index takes numpy's fast path; the additions keep their order.
        np.add.at(sums, where.ravel(), g.reshape(ids.size, dim))
        emit(table, _Rows(distinct, sums))

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


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns start:stop of the last axis."""
    def bw(g, emit):
        dx = np.zeros_like(x.data)
        dx[..., start:stop] = g
        emit(x, dx)

    return _node(x.data[..., start:stop], (x,), bw)


def tile_rows(x: Tensor, n: int) -> Tensor:
    """Repeat each example's single row n times: [B, 1, D] into [B, n, D]."""
    if x.data.ndim != 3 or x.data.shape[1] != 1:
        raise ShapeError(f"tile_rows: expected [B, 1, D], got {x.data.shape}")

    def bw(g, emit):
        emit(x, g.sum(axis=1, keepdims=True))

    return _node(np.repeat(x.data, n, axis=1), (x,), bw)


def sum_all(x: Tensor) -> Tensor:
    def bw(g, emit):
        emit(x, np.ones_like(x.data) * g)

    return _node(x.data.sum(), (x,), bw)


def pick(probs: Tensor, col_ids) -> Tensor:
    """probs[b, i, col_ids[b, i]] for a batch [B, T, V] with ids [B, T'],
    over the first T' rows of each example."""
    col_ids = np.asarray(col_ids, dtype=np.int64)
    if col_ids.ndim != 2:
        raise ShapeError(f"pick: expected ids [B, T'], got {col_ids.shape}")
    index = (np.arange(col_ids.shape[0])[:, None], np.arange(col_ids.shape[1]), col_ids)

    def bw(g, emit):
        dp = np.zeros_like(probs.data)
        dp[index] = g
        emit(probs, dp)

    return _node(probs.data[index], (probs,), bw)
