"""Dense float64 tensors with a reverse-mode gradient tape, SGD and
checkpoint serialization. Everything is 64-bit and CPU-only by design:
desk-scale problem sizes keep gradient checks reliable. At these sizes the
cost is per-op Python overhead, not FLOPs, so recurrent cells are fused
kernels (one tape entry per step, or per sequence) with closed-form backward
passes. Which tensors get a gradient is decided in two places: `_record`
builds every kernel's output, which needs a gradient when any input does and
only then goes on the tape, and `_accumulate` (with `_grad_buffer`) drops the
gradient of an input that needs none. The decoder's kernels are in `decoder`.
"""
from __future__ import annotations

import itertools
import json
import math
import zipfile

import numpy as np


class ShapeError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of differentiable operations.

    Execution order is the topological order; backward replays it in reverse.
    A tape is single-use: backward() consumes it.
    """

    def __init__(self):
        self._ops = []  # (output tensor, backward fn)
        self._consumed = False
        self._prev = None

    def __enter__(self):
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
        return False

    def __len__(self):
        return len(self._ops)


_ACTIVE_TAPE = None


def _record(data, inputs, backward) -> Tensor:
    """A kernel's output, a tensor of data: it needs a gradient when any of
    the kernel's input tensors does, and only then goes on the active tape
    with backward, which takes the output's gradient. Backward hands every
    input's gradient to `_accumulate` or `_grad_buffer`, which drop it for an
    input that needs none."""
    out = Tensor(data, any(t.requires_grad for t in inputs))
    if out.requires_grad and _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE._ops.append((out, backward))
    return out


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # a copy, never an alias: grad may be a view of another tensor's
        # gradient, and t.grad is added into in place later
        t.grad = np.array(grad, dtype=np.float64)
    else:
        t.grad += grad


def _grad_buffer(t: Tensor) -> np.ndarray:
    """t's gradient array, created as zeros, for kernels that add into a part
    of it; a throwaway array when t needs no gradient."""
    if not t.requires_grad:
        return np.zeros_like(t.data)
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate the grads of every tensor reachable from loss that needs one.

    Each entry is released once it has run: the tape drops its backward
    closure, with the arrays that the closure kept, and its output's
    gradient. Leaf gradients stay, and so does len(tape)."""
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
    if tape._consumed:
        raise RuntimeError("tape already consumed")
    tape._consumed = True
    loss.grad = np.ones_like(loss.data)
    ops = tape._ops
    for i in range(len(ops) - 1, -1, -1):
        out, fn = ops[i]
        ops[i] = None
        if out.grad is not None:
            fn(out.grad)
            out.grad = None
        del fn


# --------------------------------------------------------------------------
# Kernels


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def bwd(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _record(a.data @ b.data, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}") from None

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _record(data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul shape mismatch: {a.shape} * {b.shape}") from None

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _record(data, (a, b), bwd)


def scale(a: Tensor, factor: float) -> Tensor:
    return _record(a.data * factor, (a,), lambda g: _accumulate(a, g * factor))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]

    def bwd(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            _accumulate(t, g[tuple(index)])
            offset += size

    return _record(np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd)


def sum_rows(a: Tensor) -> Tensor:
    return _record(a.data.sum(axis=0, keepdims=True), (a,),
                   lambda g: _accumulate(a, np.broadcast_to(g, a.shape)))


def sum_all(a: Tensor) -> Tensor:
    return _record(a.data.sum().reshape(1, 1), (a,),
                   lambda g: _accumulate(a, np.full(a.shape, g.reshape(-1)[0])))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _relu_values(x):
    mask = x > 0
    return np.where(mask, x, 0.0), mask


def _tanh_slope(value):
    """tanh's slope at a point where tanh is value."""
    return 1.0 - value * value


def _sigmoid_slope(value):
    """sigmoid's slope at a point where sigmoid is value."""
    return value * (1.0 - value)


def _tanh_values(x):
    value = np.tanh(x)
    return value, _tanh_slope(value)


def _sigmoid_values(x):
    value = _sigmoid(x)
    return value, _sigmoid_slope(value)


# each activation's one definition, by name (the GCN's choices): x -> (act(x), act'(x))
ACTIVATIONS = {"relu": _relu_values, "tanh": _tanh_values, "sigmoid": _sigmoid_values}


def _activation_kernel(values):
    """The tape kernel of an ACTIVATIONS entry: act(a), and backward g act'(a)."""

    def kernel(a: Tensor) -> Tensor:
        value, slope = values(a.data)
        return _record(value, (a,), lambda g: _accumulate(a, g * slope))

    return kernel


tanh, sigmoid, relu = (_activation_kernel(ACTIVATIONS[k]) for k in ("tanh", "sigmoid", "relu"))


def _softmax(x):
    exp = np.exp(x - x.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True)


def _log_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _log_softmax_back(g, value):
    """The gradient of log-softmax rows' input from the gradient g of their values."""
    return g - np.exp(value) * g.sum(axis=-1, keepdims=True)


def softmax(a: Tensor) -> Tensor:
    value = _softmax(a.data)

    def bwd(g):
        dot = (g * value).sum(axis=-1, keepdims=True)
        _accumulate(a, value * (g - dot))

    return _record(value, (a,), bwd)


def log_softmax(a: Tensor) -> Tensor:
    value = _log_softmax(a.data)
    return _record(value, (a,), lambda g: _accumulate(a, _log_softmax_back(g, value)))


def dropout(a: Tensor, keep_prob: float, draws) -> Tensor:
    """Inverted dropout: an entry whose draw, from the array draws of a's
    shape of uniform draws in [0, 1), is keep_prob or more is zeroed, and
    the others are scaled by 1 / keep_prob. Without draws, or at keep_prob
    1, it is the identity."""
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep probability must be in (0, 1], got {keep_prob}")
    if draws is None or keep_prob == 1.0:
        return a
    if draws.shape != a.shape:
        raise ShapeError(f"dropout draws of shape {draws.shape} for {a.shape}")
    mask = (draws < keep_prob) / keep_prob
    return _record(a.data * mask, (a,), lambda g: _accumulate(a, g * mask))


def embedding_lookup(table: Tensor, indices) -> Tensor:
    """Gather rows of a 2-D tensor; backward scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.intp)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.shape}")
    return _record(table.data[idx], (table,), lambda g: np.add.at(_grad_buffer(table), idx, g))


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    def bwd(g):
        _grad_buffer(a)[:, start:stop] += g

    return _record(a.data[:, start:stop], (a,), bwd)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    def bwd(g):
        _grad_buffer(a)[start:stop, :] += g

    return _record(a.data[start:stop, :], (a,), bwd)


def transpose(a: Tensor) -> Tensor:
    return _record(a.data.T, (a,), lambda g: _accumulate(a, g.T))


def pick(a: Tensor, row: int, col: int) -> Tensor:
    """Select a single entry as a (1, 1) tensor."""

    def bwd(g):
        _grad_buffer(a)[row, col] += g.reshape(-1)[0]

    return _record(a.data[row, col].reshape(1, 1), (a,), bwd)


# --------------------------------------------------------------------------
# Fused LSTM kernels. Gate order i, f, o, g: with z = x W + h U + b,
# i, f, o = sigmoid(z blocks 0-2), g = tanh(z block 3),
# c' = f c + i g and h' = o tanh(c').


def _lstm_gates(z, n):
    """sigmoid of every n-wide block of z but the last, and tanh of the last."""
    return _sigmoid(z[..., :-n]), np.tanh(z[..., -n:])


def _lstm_cell(z, c):
    """One LSTM step from its pre-activations z and the cell c before it:
    the gates sig (i, f, o) and g, and the cell c' and hidden state h'."""
    n = c.shape[-1]
    sig, g = _lstm_gates(z, n)
    c = sig[..., n : 2 * n] * c + sig[..., :n] * g
    return sig, g, c, sig[..., 2 * n :] * np.tanh(c)


def _lstm_factors(sig, g, c, c_before):
    """What the backward of LSTM rows needs from their forward: their gates
    sig and g, cells c and cells before the step c_before give k, whose row
    blocks K_i, K_f, 0 and K_g become dZ = [dc K_i, dc K_f, dh K_o, dc K_g]
    in `_lstm_back`, then K_o, the hidden-to-cell factor o (1 - tanh(c)^2)
    and f."""
    n = g.shape[-1]
    dsig = _sigmoid_slope(sig)
    tc = np.tanh(c)
    k = np.empty(g.shape[:-1] + (4, n))
    k[..., 0, :] = g * dsig[..., :n]
    k[..., 1, :] = c_before * dsig[..., n : 2 * n]
    k[..., 2, :] = 0.0
    k[..., 3, :] = sig[..., :n] * _tanh_slope(g)
    return k, tc * dsig[..., 2 * n :], sig[..., 2 * n :] * _tanh_slope(tc), sig[..., n : 2 * n]


def _lstm_back(factors, rows, dh, dc_next):
    """One step back through the LSTM rows `rows` of `_lstm_factors`: from
    their hidden gradient dh and the cell gradient dc_next that the next step
    carries, their rows of k become dZ in place; returns the cell gradient
    carried to the step before."""
    k, k_o, h_to_c, f = factors
    dc = dc_next + dh * h_to_c[rows]
    dz = k[rows]
    dz *= dc[..., None, :]
    np.multiply(k_o[rows], dh, out=dz[..., 2, :])
    return dc * f[rows]


def _grow(m, carried):
    """The gradients carried back to a step of m rows: the sequences whose
    last step it is start from zero rows."""
    if m == len(carried[0]):
        return carried
    more = np.zeros((m - len(carried[0]),) + carried[0].shape[1:])
    return [np.concatenate([x, more]) for x in carried]


def lstm_step(x: Tensor, h: Tensor, c: Tensor, W: Tensor, U: Tensor, b: Tensor) -> Tensor:
    """One LSTM step as one tape entry, returning the (m, 2n) rows [h' ; c']."""
    n = h.shape[1]
    z = x.data @ W.data + h.data @ U.data + b.data
    sig, g, c_next, h_next = _lstm_cell(z, c.data)

    def bwd(d_out):
        factors = _lstm_factors(sig, g, c_next, c.data)
        dc = _lstm_back(factors, slice(None), d_out[:, :n], d_out[:, n:])
        dz = factors[0].reshape(-1, 4 * n)
        _accumulate(x, dz @ W.data.T)
        _accumulate(h, dz @ U.data.T)
        _accumulate(c, dc)
        _accumulate(W, x.data.T @ dz)
        _accumulate(U, h.data.T @ dz)
        _accumulate(b, dz.sum(axis=0, keepdims=True))

    return _record(np.concatenate([h_next, c_next], axis=1), (x, h, c, W, U, b), bwd)


class Packing:
    """The packed layout of sequences of the given lengths (Appleyard et al.
    2016). `order` lists the sequences longest first, stable, and a
    sequence's rank is its place there; `lengths` are theirs in rank order.
    `running[t]` counts the sequences still running at step t, the first
    running[t] ranks, and `steps[t]` is the slice of step t's packed rows,
    one per running rank in rank order. The input rows are the sequences'
    positions, one sequence after another in the given order: `rows` holds
    each input row's packed row, position t at step t, and `reversed_rows`
    its packed row when the sequence is read from its end, position t at step
    length - 1 - t. `previous` holds the packed row one step earlier of each
    row after step 0's. For one sequence these three are slices."""

    def __init__(self, lengths):
        self.order = sorted(range(len(lengths)), key=lambda j: -lengths[j])
        self.lengths = [lengths[j] for j in self.order]
        if len(lengths) == 1:
            self.running, self.previous = [1] * lengths[0], slice(0, lengths[0] - 1)
            self.steps = [slice(t, t + 1) for t in range(lengths[0])]
            self.rows, self.reversed_rows = slice(None), slice(None, None, -1)
            return
        running = len(lengths) - np.cumsum(np.bincount(lengths))[:-1]
        self.running = running.tolist()
        starts = [0, *itertools.accumulate(self.running)]
        self.steps = [slice(a, z) for a, z in zip(starts, starts[1:])]
        sizes = np.array(lengths)
        rank = np.empty(len(lengths), dtype=np.intp)
        rank[self.order] = np.arange(len(lengths))
        seq = np.repeat(np.arange(len(lengths)), sizes)
        pos = np.arange(starts[-1]) - (np.cumsum(sizes) - sizes)[seq]
        step_rows = np.array(starts)
        self.rows = step_rows[pos] + rank[seq]
        self.reversed_rows = step_rows[sizes[seq] - 1 - pos] + rank[seq]
        self.previous = np.arange(starts[1], starts[-1]) - np.repeat(running[:-1], running[1:])

    def before(self, a, first=0.0):
        """Each packed row's row of a one step earlier, and first at step 0."""
        out = np.empty_like(a)
        out[: self.running[0]] = first
        out[self.running[0] :] = a[self.previous]
        return out


def _block_matmul(x, w, lone):
    """x @ w for the rows of several blocks (sequences or trees) stacked in
    x, lone listing the rows of one-row blocks: a one-row product rounds
    differently from the rows of a GEMM, whatever its row count above one,
    so each row gets the bits of its own block's product."""
    out = x @ w
    if len(lone):
        out[lone] = np.matmul(x[lone, None], w)[:, 0]
    return out


def bilstm_batch(X: Tensor, lengths, W_f: Tensor, U_f: Tensor, b_f: Tensor, W_b: Tensor,
                 U_b: Tensor, b_b: Tensor) -> Tensor:
    """Both directions of a BiLSTM over a batch of sequences as one tape
    entry. X holds the sequences' rows, one sequence after another, lengths
    their row counts; W_f, U_f and b_f are the forward direction's weights,
    and W_b, U_b and b_b the reverse direction's. Row i of
    the (rows, 2 hidden) output is [forward ; reverse] at X's row i: the
    hidden state after reading its sequence's rows up to i, and from the
    last one back to i, each from a zero state.

    The sequences run over a `Packing`, forward by its `rows` and in reverse
    by its `reversed_rows`: step t advances the forward direction at row t
    and the reverse one at row N - 1 - t of every sequence still running,
    both as one (m, 2, 4 hidden) block. X W + b is a GEMM per direction
    before the loop, with one-row products for one-row sequences
    (`_block_matmul`), and the recurrent products h U are row-stacked one-row
    products, so each sequence's states have the bits of running it alone;
    for one sequence the layout is slices, which cost no gather. Without a
    tape nothing is kept for backward. Backward is one reverse loop over the
    steps that fills dZ, the gradient of the pre-activations; then per
    direction dX = dZ W^T, dW = X^T dZ and dU = H_prev^T dZ are GEMMs over
    X's rows in order, which gives a batch of one the bits of running each
    direction on its own.
    """
    rows, n = X.shape[0], U_f.shape[0]
    if (X.data.ndim != 2 or not lengths or min(lengths) < 1 or sum(lengths) != rows
            or any(w.shape != (X.shape[1], 4 * n) for w in (W_f, W_b))
            or any(t.shape != (n, 4 * n) for t in (U_f, U_b))):
        raise ShapeError(f"bilstm_batch shape mismatch: X {X.shape} in sequences of "
                         f"{list(lengths)}, W {W_f.shape} and {W_b.shape}, U {U_f.shape} "
                         f"and {U_b.shape}")
    pack = Packing(lengths)
    packed = (pack.rows, pack.reversed_rows)  # X's rows' packed rows in each direction
    sizes = np.array(lengths)
    firsts = np.cumsum(sizes) - sizes
    lone = firsts[sizes == 1] if rows > 1 else firsts[:0]
    x = X.data
    xw = np.empty((rows, 2, 4 * n))
    xw[packed[0], 0] = _block_matmul(x, W_f.data, lone) + b_f.data
    xw[packed[1], 1] = _block_matmul(x, W_b.data, lone) + b_b.data
    u = np.stack([U_f.data, U_b.data])
    taping = _ACTIVE_TAPE is not None  # else keep only the hidden states
    h_all = np.empty((rows, 2, n))
    if taping:
        sig, g, c_all = np.empty((rows, 2, 3 * n)), np.empty((rows, 2, n)), np.empty((rows, 2, n))
    h = c = np.zeros((len(lengths), 2, n))
    for r, m in zip(pack.steps, pack.running):
        if m < len(h):
            h, c = h[:m], c[:m]
        s, gt, c, h = _lstm_cell(xw[r] + np.matmul(h[:, :, None], u)[:, :, 0], c)
        h_all[r] = h
        if taping:
            sig[r], g[r], c_all[r] = s, gt, c

    def bwd(d_out):
        d_h = np.empty((rows, 2, n))
        d_h[packed[0], 0], d_h[packed[1], 1] = d_out[:, :n], d_out[:, n:]
        factors = _lstm_factors(sig, g, c_all, pack.before(c_all))
        u_t = np.ascontiguousarray(u.transpose(0, 2, 1))
        carried = [np.zeros((pack.running[-1], 2, n))] * 2  # dh and dc from the next step
        for r, m in zip(reversed(pack.steps), reversed(pack.running)):
            dh_next, dc_next = _grow(m, carried)
            dc_next = _lstm_back(factors, r, d_h[r] + dh_next, dc_next)
            carried = np.matmul(factors[0][r].reshape(m, 2, 1, 4 * n), u_t)[:, :, 0], dc_next
        dz = factors[0].reshape(rows, 2, 4 * n)
        h_prev = pack.before(h_all)
        d_x = None
        for d, (W, U, b) in enumerate(((W_f, U_f, b_f), (W_b, U_b, b_b))):
            dz_d = np.ascontiguousarray(dz[packed[d], d])
            d_x = dz_d @ W.data.T if d_x is None else d_x + dz_d @ W.data.T
            _accumulate(W, x.T @ dz_d)
            _accumulate(U, np.ascontiguousarray(h_prev[packed[d], d]).T @ dz_d)
            _accumulate(b, dz_d.sum(axis=0, keepdims=True))
        _accumulate(X, d_x)

    return _record(np.concatenate([h_all[packed[0], 0], h_all[packed[1], 1]], axis=1),
                   (X, W_f, U_f, b_f, W_b, U_b, b_b), bwd)


# --------------------------------------------------------------------------
# Fused Child-Sum TreeLSTM kernels (Tai et al. 2015). Bottom-up gate order
# i, o, u, f: with x W + b = [a_i, a_o, a_u, a_f] and s the sum of the
# children's hidden states, i, o = sigmoid(a_io + s U_io), u = tanh(a_u + s U_u),
# f_k = sigmoid(a_f + h_k Uf) for each child k, c = i u + sum_k f_k c_k and
# h = o tanh(c). Both passes run over a `transforms.Forest` level by level.


def _child_sums(x, level, acc=None):
    """Each of an up level's nodes' sum over its children's rows of x (one
    row per slot of the level), added child by child in child order, and
    onto the node's row of acc when given: the order in which numpy sums a
    node's rows, over axis 0, in a loop over the nodes one at a time."""
    first = x if not len(level.multi) else x[level.first]  # one child each: x itself
    acc = first if acc is None else acc + first
    for nodes, places in level.more:
        acc[nodes] += x[places]
    return acc


def _per_child(x, level):
    """Each slot's copy of its node's row of x, which has a row per node."""
    return x if not len(level.multi) else x[level.owner]


def _child_products(x, w, level):
    """x @ w for an up level's rows of x, one per slot: one-row products for
    a node's only child and GEMM rows for the children of a node with more,
    as in a loop over the nodes one at a time."""
    if not len(level.multi):
        return np.matmul(x[:, None], w)[:, 0]
    if not len(level.single):
        return x @ w
    out = np.empty((len(x), w.shape[1]))
    out[level.single] = np.matmul(x[level.single, None], w)[:, 0]
    out[level.multi] = x[level.multi] @ w
    return out


def tree_lstm_up(X: Tensor, W: Tensor, U: Tensor, Uf: Tensor, b: Tensor, forest) -> Tensor:
    """The bottom-up pass over the N rows of X as one tape entry: row j of the
    (N, hidden) output is node j's hidden state in forest, whose trees cover
    X's rows.

    X W + b is one GEMM before the loop over the forest's levels, leaves
    first, each level every node of one height at once. The products with
    U, and with Uf for a node with one child, are row-stacked one-row
    products, and the children are summed in their order, as a loop over
    the nodes one at a time computes them, so every tree's states have the
    bits of running it alone. Backward runs the levels from the roots down
    and fills dZ, the gradient of the pre-activations, then dX, dW, dU and
    dUf are GEMMs.
    """
    if X.data.ndim != 2 or X.shape[1] != W.shape[0] or X.shape[0] != sum(forest.sizes):
        raise ShapeError(f"tree_lstm_up shape mismatch: {X.shape} @ {W.shape}, forest of "
                         f"{forest.sizes} nodes")
    rows, n = X.shape[0], Uf.shape[0]
    xw = _block_matmul(X.data, W.data, forest.lone_rows) + b.data
    kids, u_mat, uf = forest.kids, U.data, Uf.data
    act = np.empty((rows, 3, n))  # i, o, u
    c_all = np.empty((rows, n))
    tc = np.empty((rows, n))
    h_all = np.empty((rows, n))
    h_sum = np.zeros((rows, n))
    f_all = np.empty((len(kids), n))  # one row per child, in forest.kids' order

    def states(nodes, pre, level=None, f=None):
        """The nodes' gates, cells and hidden states from their i, o, u
        pre-activations, and for parents from the children's forget gates f
        and cells."""
        io, u = _lstm_gates(pre, n)
        act[nodes, :2] = io.reshape(-1, 2, n)
        act[nodes, 2] = u
        c = io[:, :n] * u
        if level is not None:
            c = _child_sums(f * c_all[level.rows], level, c)
        c_all[nodes] = c
        tc[nodes] = t = np.tanh(c)
        h_all[nodes] = io[:, n:] * t

    states(forest.leaves, xw[forest.leaves, : 3 * n])
    for level in forest.up_levels:
        hk, a = h_all[level.rows], xw[level.nodes]
        h_sum[level.nodes] = s = _child_sums(hk, level)
        a_f = _per_child(a[:, 3 * n :], level)
        f_all[level.slots] = f = _sigmoid(a_f + _child_products(hk, uf, level))
        states(level.nodes, a[:, : 3 * n] + np.matmul(s[:, None], u_mat)[:, 0], level, f)

    def bwd(dH):
        i, o, u = act[:, 0], act[:, 1], act[:, 2]
        # dZ row j is [dc K_i, dh K_o, dc K_u, sum_k dc K_f,k] with dc, dh the
        # node's cell and hidden gradients; the K are fixed by the forward pass
        k = np.empty((rows, 3, n))
        k[:, 0] = u * i * (1.0 - i)
        k[:, 1] = tc * o * (1.0 - o)
        k[:, 2] = i * (1.0 - u * u)
        k_f = c_all[kids] * f_all * (1.0 - f_all)
        h_to_c = o * (1.0 - tc * tc)
        u_t = np.ascontiguousarray(u_mat.T)
        uf_t = np.ascontiguousarray(uf.T)
        dz = np.zeros((rows, 4 * n))
        dzf = np.empty((len(kids), n))
        dh_all = np.array(dH)  # the output's gradient, plus what parents send
        dc_all = np.zeros((rows, n))

        def gates(nodes):
            """The nodes' i, o, u columns of dZ, and their cell gradients."""
            dh = dh_all[nodes]
            dc = dc_all[nodes] + dh * h_to_c[nodes]
            d_iou = k[nodes] * dc[:, None]
            d_iou[:, 1] = k[nodes, 1] * dh
            dz[nodes, : 3 * n] = d_iou = d_iou.reshape(-1, 3 * n)
            return d_iou, dc

        for level in reversed(forest.up_levels):
            d_iou, dc = gates(level.nodes)
            slots, dc = level.slots, _per_child(dc, level)
            dzf[slots] = d_f = dc * k_f[slots]
            dz[level.nodes, 3 * n :] = _child_sums(d_f, level)
            dc_all[level.rows] = dc * f_all[slots]
            d_sum = _per_child(np.matmul(d_iou[:, None], u_t)[:, 0], level)
            dh_all[level.rows] += d_sum + _child_products(d_f, uf_t, level)
        gates(forest.leaves)
        _accumulate(X, dz @ W.data.T)
        _accumulate(W, X.data.T @ dz)
        _accumulate(U, h_sum.T @ dz[:, : 3 * n])
        _accumulate(Uf, h_all[kids].T @ dzf)
        _accumulate(b, dz.sum(axis=0, keepdims=True))

    return _record(h_all, (X, W, U, Uf, b), bwd)


def tree_lstm_down(H: Tensor, W: Tensor, U: Tensor, b: Tensor, Wr: Tensor, br: Tensor,
                   forest) -> Tensor:
    """The top-down pass over the (N, hidden) bottom-up states H as one tape
    entry, returning the (N, 2 hidden) rows [h_down ; H]. A root gets
    h_down = tanh(H_root Wr + br) and a zero cell, and every other node v
    one LSTM step (gate order i, f, o, g) with input H[v], hidden state
    H[parent[v]] and its parent's top-down cell.

    No hidden state feeds back, so all pre-activations are one pair of GEMMs
    before the loop over the forest's depths, which carries only the cells.
    Backward is one loop from the deepest level up over the cell gradients,
    then dH (the parents' share scattered with one add.at), dW and dU are
    GEMMs. As in `tree_lstm_up`, every tree's rows have the bits of running
    it alone.
    """
    rows, n = H.shape
    if rows != sum(forest.sizes) or W.shape != (n, 4 * n):
        raise ShapeError(f"tree_lstm_down shape mismatch: H {H.shape}, W {W.shape}, forest of "
                         f"{forest.sizes} nodes")
    kids, par, ups, unsort, levels, lone = forest.down_pass  # depth by depth
    roots, h = forest.roots, H.data
    z = _block_matmul(h[kids], W.data, lone) + _block_matmul(h[par], U.data, lone) + b.data
    sig, g = _lstm_gates(z, n)
    i, f, o = sig[:, :n], sig[:, n : 2 * n], sig[:, 2 * n :]
    ig = i * g
    c = np.zeros((len(kids) + 1, n))  # the last row is the roots' cell
    for start, stop, _ in levels:
        c[start:stop] = f[start:stop] * c[ups[start:stop]] + ig[start:stop]
    tc = np.tanh(c[:-1])
    down = np.empty((rows, n))
    down[kids] = o * tc
    root_h = np.tanh(np.matmul(h[roots, None], Wr.data)[:, 0] + br.data)
    down[roots] = root_h

    def bwd(d_out):
        d_kid = d_out[kids, :n]
        d_cell = d_kid * o * (1.0 - tc * tc)
        dc = np.zeros((len(kids) + 1, n))  # what each cell receives from its children
        for start, stop, shared in reversed(levels):
            d_cell[start:stop] += dc[start:stop]
            if shared:  # siblings add in order, as in a loop over the nodes
                np.add.at(dc, ups[start:stop], d_cell[start:stop] * f[start:stop])
            else:
                dc[ups[start:stop]] += d_cell[start:stop] * f[start:stop]
        dz = np.empty_like(z)
        dz[:, :n] = d_cell * g
        dz[:, n : 2 * n] = d_cell * c[ups]
        dz[:, 2 * n : 3 * n] = d_kid * tc
        dz[:, : 3 * n] *= sig * (1.0 - sig)
        dz[:, 3 * n :] = d_cell * i * (1.0 - g * g)
        dz = dz[unsort]  # in forest.down's order, as the weight gradients sum it
        d_root = d_out[roots, :n] * (1.0 - root_h * root_h)
        kid_h, par_h = h[forest.down], h[forest.down_parent]
        dh = np.array(d_out[:, n:])
        dh[forest.down] += dz @ W.data.T
        np.add.at(dh, forest.down_parent, dz @ U.data.T)
        dh[roots] += d_root @ Wr.data.T
        _accumulate(H, dh)
        _accumulate(W, kid_h.T @ dz)
        _accumulate(U, par_h.T @ dz)
        _accumulate(b, dz.sum(axis=0, keepdims=True))
        _accumulate(Wr, h[roots].T @ d_root)
        _accumulate(br, d_root.sum(axis=0, keepdims=True))

    return _record(np.concatenate([down, h], axis=1), (H, W, U, b, Wr, br), bwd)


# --------------------------------------------------------------------------
# Fused GCN layer


def gcn_layer(H: Tensor, a_in: np.ndarray, a_out: np.ndarray, W_in: Tensor, W_out: Tensor,
              b: Tensor, activation, W_t: Tensor, b_t: Tensor) -> Tensor:
    """One GCN layer over the (N, h) rows of H as one tape entry. a_in and
    a_out = a_in^T are constant (N, N) arrays, a_in[v, u] counting the edges
    u -> v, and activation is one of ACTIVATIONS' functions. The layer's
    messages are M = a_in H W_in + a_out H W_out + b, and it returns
    t tanh(act(M)) + (1 - t) H through the highway gate t = sigmoid(H W_t + b_t).

    The forward runs the composed kernels' operations in their order, so it
    gives their result to the bit; backward runs GEMMs of the same shapes as theirs.
    """
    h = H.data
    if h.ndim != 2 or h.shape[1] != W_in.shape[0] or a_in.shape != (len(h), len(h)):
        raise ShapeError(f"gcn_layer shape mismatch: {h.shape} @ {W_in.shape}, a_in {a_in.shape}")
    pre = a_in @ (h @ W_in.data) + a_out @ (h @ W_out.data) + b.data
    act, slope = activation(pre)
    gate, gate_slope = _sigmoid_values(h @ W_t.data + b_t.data)
    tanh_out = np.tanh(act)
    out = gate * tanh_out + (1.0 - gate) * h

    def bwd(g):
        d_gate = g * (tanh_out - h) * gate_slope
        _accumulate(W_t, h.T @ d_gate)
        _accumulate(b_t, d_gate.sum(axis=0, keepdims=True))
        d_h = g * (1.0 - gate) + d_gate @ W_t.data.T
        d_pre = g * gate * _tanh_slope(tanh_out) * slope
        _accumulate(b, d_pre.sum(axis=0, keepdims=True))
        d_in, d_out = a_out @ d_pre, a_in @ d_pre  # gradients of H W_in and H W_out
        _accumulate(W_in, h.T @ d_in)
        _accumulate(W_out, h.T @ d_out)
        _accumulate(H, d_h + (d_in @ W_in.data.T + d_out @ W_out.data.T))

    return _record(out, (H, W_in, W_out, b, W_t, b_t), bwd)


# --------------------------------------------------------------------------
# Optimization


class ParamStore:
    """Every trainable parameter of a model, by name in creation order.

    Initial values are drawn from rng in creation order or, given arrays (a
    saved model's name -> float64 ndarray), taken over from there without a
    copy, drawing nothing: each parameter's data is the given array, so a
    write to one shows in the other. A name or shape that arrays lacks is a
    ValueError. pack() moves all values into one flat vector theta and
    allocates one flat gradient vector grad, and each parameter's data and
    grad become views into them, so an SGD step, clipping and clearing are
    operations on two vectors. Only training packs: a model that only
    decodes needs no gradient storage.

    Parameters change through `sgd_step`, which counts its steps in
    `updates`; a model keys what it keeps of a decoded example on that
    count. Code that writes a parameter's data directly after the model has
    decoded or scored must build a new model from the changed arrays.
    """

    def __init__(self, rng, arrays=None):
        self.rng = rng
        self.arrays = None if arrays is None else dict(arrays)  # the arrays not yet taken
        self.params = {}
        self.theta = None
        self.grad = None
        self.updates = 0  # sgd_step calls

    def uniform(self, name: str, shape) -> Tensor:
        return self._add(name, shape, lambda: self.rng.uniform(-0.1, 0.1, size=shape))

    def zeros(self, name: str, shape) -> Tensor:
        return self._add(name, shape, lambda: np.zeros(shape))

    def _add(self, name, shape, draw) -> Tensor:
        if name in self.params:
            raise ValueError(f"parameter name {name!r} is already taken")
        if self.arrays is None:
            data = draw()
        elif name not in self.arrays:
            raise ValueError("checkpoint parameter names do not match the configuration")
        elif self.arrays[name].shape != tuple(shape):
            raise ValueError(f"shape mismatch for parameter {name!r}")
        else:
            data = self.arrays.pop(name)
        p = self.params[name] = Tensor(data, True)
        return p

    def views(self, flat: np.ndarray) -> dict:
        """name -> each parameter's array as a view into a flat vector laid
        out as theta is."""
        arrays, offset = {}, 0
        for name, p in self.params.items():
            arrays[name] = flat[offset : offset + p.data.size].reshape(p.data.shape)
            offset += p.data.size
        return arrays

    def pack(self) -> None:
        self.theta = np.concatenate([p.data.reshape(-1) for p in self.params.values()])
        self.grad = np.zeros_like(self.theta)
        data, grad = self.views(self.theta), self.views(self.grad)
        for name, p in self.params.items():
            p.data, p.grad = data[name], grad[name]


def sgd_step(store: ParamStore, lr: float) -> None:
    """theta <- theta - lr * grad on a packed store; the gradient is cleared
    and store.updates counts the step. This is the one way parameters
    change: code that writes a parameter's data directly after decoding
    must build a new model. The gradient is scaled in place, so no
    temporary of its size is made."""
    store.grad *= lr
    store.theta -= store.grad
    store.grad.fill(0.0)
    store.updates += 1


def clip_grad_norm(store: ParamStore, max_norm: float) -> float:
    """Scale a packed store's gradient so its global L2 norm is at most
    max_norm; returns the norm before scaling. The squares are summed per
    parameter in creation order: one grad @ grad would round differently."""
    norm = sum(float((p.grad * p.grad).sum()) for p in store.params.values()) ** 0.5
    if norm > max_norm and norm > 0.0:
        store.grad *= max_norm / norm
    return norm


# --------------------------------------------------------------------------
# Checkpoint archive: JSON manifest + raw little-endian float64 payloads


def save_arrays(path, manifest: dict, arrays: dict) -> None:
    manifest = dict(manifest)
    manifest["arrays"] = {name: list(a.shape) for name, a in arrays.items()}
    # fixed timestamps and no compression keep checkpoints byte-reproducible
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
        info = zipfile.ZipInfo("manifest.json", date_time=(1980, 1, 1, 0, 0, 0))
        archive.writestr(info, json.dumps(manifest, sort_keys=True, indent=1))
        for name in sorted(arrays):
            payload = np.ascontiguousarray(arrays[name], dtype="<f8").tobytes()
            info = zipfile.ZipInfo(f"data/{name}", date_time=(1980, 1, 1, 0, 0, 0))
            archive.writestr(info, payload)


def load_arrays(path):
    """Read an archive that save_arrays wrote, each payload straight into its
    float64 array, so that no second copy of it is made. A damaged archive
    raises zipfile.BadZipFile, KeyError or another ValueError."""
    with open(path, "rb") as handle:
        try:
            with zipfile.ZipFile(handle) as archive:
                manifest = json.loads(archive.read("manifest.json"))
                if not (isinstance(manifest, dict) and isinstance(manifest.get("arrays"), dict)):
                    raise ValueError("the manifest and its arrays must be objects")
                arrays = {}
                for name, shape in manifest["arrays"].items():
                    if type(shape) is not list or any(type(n) is not int or n < 0 for n in shape):
                        raise ValueError(f"array {name!r}: shape {shape!r} is not a list of sizes")
                    arrays[name] = _read_payload(archive, f"data/{name}", shape)
        except (NotImplementedError, RuntimeError, EOFError, OSError) as err:
            # zipfile's errors for damaged headers: a compression method or an
            # encryption flag that save_arrays never writes, a size past the
            # end of the file, an offset before its start
            raise zipfile.BadZipFile(f"{type(err).__name__}: {err}") from None
    return manifest, arrays


_CHUNK = 1 << 16  # bytes of a payload read at a time


def _read_payload(archive, member: str, shape) -> np.ndarray:
    """The archive member's little-endian float64 values as an array of
    shape, read in chunks into the array itself; a ValueError unless the
    member's size fits the shape, checked before anything is allocated.
    Reading to the member's end checks its CRC, as ZipFile.read does."""
    info = archive.getinfo(member)
    if info.file_size != 8 * math.prod(shape):
        raise ValueError(f"{member}: {info.file_size} bytes do not fit the shape {shape}")
    array = np.empty(shape, dtype="<f8")
    flat = array.reshape(-1).view(np.uint8)
    with archive.open(info) as payload:
        for start in range(0, len(flat), _CHUNK):
            chunk = flat[start : start + _CHUNK]
            if payload.readinto(chunk) != len(chunk):
                raise ValueError(f"{member}: the payload ends before its size")
    return array.astype(np.float64, copy=False)  # no copy on a little-endian host
