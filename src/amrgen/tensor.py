"""Dense float64 tensors with a reverse-mode gradient tape, SGD and
checkpoint serialization. Everything is 64-bit and CPU-only by design:
desk-scale problem sizes keep gradient checks reliable. At these sizes the
cost is per-op Python overhead, not FLOPs, so recurrent cells are fused
kernels (one tape entry per step, or per sequence) with closed-form backward
passes, and backward computes nothing for operands that need no gradient.
The decoder's kernels are in `decoder`.
"""
from __future__ import annotations

import json
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


def _record(out: Tensor, backward) -> None:
    """Put a kernel's output on the active tape with its backward function,
    which takes the output's gradient."""
    if out.requires_grad and _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE._ops.append((out, backward))


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
    """t's gradient array, created as zeros, for kernels that add into a part of it."""
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
    """Populate grads of every requires_grad tensor reachable from loss.

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
    out = Tensor(a.data @ b.data, requires_grad=a.requires_grad or b.requires_grad)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    _record(out, bwd)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}") from None
    out = Tensor(data, requires_grad=a.requires_grad or b.requires_grad)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    _record(out, bwd)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul shape mismatch: {a.shape} * {b.shape}") from None
    out = Tensor(data, requires_grad=a.requires_grad or b.requires_grad)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    _record(out, bwd)
    return out


def scale(a: Tensor, factor: float) -> Tensor:
    out = Tensor(a.data * factor, requires_grad=a.requires_grad)

    def bwd(g):
        _accumulate(a, g * factor)

    _record(out, bwd)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        requires_grad=any(t.requires_grad for t in tensors),
    )
    sizes = [t.shape[axis] for t in tensors]

    def bwd(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            _accumulate(t, g[tuple(index)])
            offset += size

    _record(out, bwd)
    return out


def sum_rows(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(axis=0, keepdims=True), requires_grad=a.requires_grad)

    def bwd(g):
        _accumulate(a, np.broadcast_to(g, a.shape))

    _record(out, bwd)
    return out


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum().reshape(1, 1), requires_grad=a.requires_grad)

    def bwd(g):
        _accumulate(a, np.full(a.shape, g.reshape(-1)[0]))

    _record(out, bwd)
    return out


def tanh(a: Tensor) -> Tensor:
    value = np.tanh(a.data)
    out = Tensor(value, requires_grad=a.requires_grad)

    def bwd(g):
        _accumulate(a, g * (1.0 - value * value))

    _record(out, bwd)
    return out


def sigmoid(a: Tensor) -> Tensor:
    value = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(value, requires_grad=a.requires_grad)

    def bwd(g):
        _accumulate(a, g * value * (1.0 - value))

    _record(out, bwd)
    return out


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0), requires_grad=a.requires_grad)

    def bwd(g):
        _accumulate(a, g * mask)

    _record(out, bwd)
    return out


def softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    value = exp / exp.sum(axis=-1, keepdims=True)
    out = Tensor(value, requires_grad=a.requires_grad)

    def bwd(g):
        dot = (g * value).sum(axis=-1, keepdims=True)
        _accumulate(a, value * (g - dot))

    _record(out, bwd)
    return out


def log_softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    value = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = Tensor(value, requires_grad=a.requires_grad)
    soft = np.exp(value)

    def bwd(g):
        _accumulate(a, g - soft * g.sum(axis=-1, keepdims=True))

    _record(out, bwd)
    return out


def dropout(a: Tensor, keep_prob: float, rng) -> Tensor:
    """Inverted dropout drawn from rng; the identity without one."""
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep probability must be in (0, 1], got {keep_prob}")
    if rng is None or keep_prob == 1.0:
        return a
    mask = (rng.random(a.shape) < keep_prob) / keep_prob
    out = Tensor(a.data * mask, requires_grad=a.requires_grad)

    def bwd(g):
        _accumulate(a, g * mask)

    _record(out, bwd)
    return out


def embedding_lookup(table: Tensor, indices) -> Tensor:
    """Gather rows of a 2-D tensor; backward scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.intp)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.shape}")
    out = Tensor(table.data[idx], requires_grad=table.requires_grad)

    def bwd(g):
        np.add.at(_grad_buffer(table), idx, g)

    _record(out, bwd)
    return out


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(a.data[:, start:stop], requires_grad=a.requires_grad)

    def bwd(g):
        _grad_buffer(a)[:, start:stop] += g

    _record(out, bwd)
    return out


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(a.data[start:stop, :], requires_grad=a.requires_grad)

    def bwd(g):
        _grad_buffer(a)[start:stop, :] += g

    _record(out, bwd)
    return out


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T, requires_grad=a.requires_grad)

    def bwd(g):
        _accumulate(a, g.T)

    _record(out, bwd)
    return out


def pick(a: Tensor, row: int, col: int) -> Tensor:
    """Select a single entry as a (1, 1) tensor."""
    out = Tensor(a.data[row, col].reshape(1, 1), requires_grad=a.requires_grad)

    def bwd(g):
        _grad_buffer(a)[row, col] += g.reshape(-1)[0]

    _record(out, bwd)
    return out


# --------------------------------------------------------------------------
# Fused LSTM kernels. Gate order i, f, o, g: with z = x W + h U + b,
# i, f, o = sigmoid(z blocks 0-2), g = tanh(z block 3),
# c' = f c + i g and h' = o tanh(c').


def _lstm_gates(z, n):
    """sigmoid of the i, f, o blocks and tanh of the g block of z."""
    return 1.0 / (1.0 + np.exp(-z[..., : 3 * n])), np.tanh(z[..., 3 * n :])


def lstm_step(x: Tensor, h: Tensor, c: Tensor, W: Tensor, U: Tensor, b: Tensor) -> Tensor:
    """One LSTM step as one tape entry, returning the (m, 2n) rows [h' ; c']."""
    n = h.shape[1]
    z = x.data @ W.data + h.data @ U.data + b.data
    sig, g = _lstm_gates(z, n)
    i, f, o = sig[:, :n], sig[:, n : 2 * n], sig[:, 2 * n :]
    c_next = f * c.data + i * g
    tc = np.tanh(c_next)
    out = Tensor(np.concatenate([o * tc, c_next], axis=1),
                 requires_grad=any(t.requires_grad for t in (x, h, c, W, U, b)))

    def bwd(d_out):
        dh = d_out[:, :n]
        dc = d_out[:, n:] + dh * o * (1.0 - tc * tc)
        dz = np.empty_like(z)
        dz[:, :n] = dc * g
        dz[:, n : 2 * n] = dc * c.data
        dz[:, 2 * n : 3 * n] = dh * tc
        dz[:, : 3 * n] *= sig * (1.0 - sig)
        dz[:, 3 * n :] = dc * i * (1.0 - g * g)
        if x.requires_grad:
            _accumulate(x, dz @ W.data.T)
        if h.requires_grad:
            _accumulate(h, dz @ U.data.T)
        if c.requires_grad:
            _accumulate(c, dc * f)
        if W.requires_grad:
            _accumulate(W, x.data.T @ dz)
        if U.requires_grad:
            _accumulate(U, h.data.T @ dz)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(dz, b.shape))

    _record(out, bwd)
    return out


def _previous_rows(a: np.ndarray, reverse: bool) -> np.ndarray:
    """Row t holds the state before step t: a zero row first in processing order."""
    out = np.zeros_like(a)
    if reverse:
        out[:-1] = a[1:]
    else:
        out[1:] = a[:-1]
    return out


def lstm_sequence(X: Tensor, W: Tensor, U: Tensor, b: Tensor, reverse: bool = False) -> Tensor:
    """One LSTM direction over the N rows of X from a zero state, as one tape
    entry. Row t of the (N, hidden) output is the hidden state after reading
    rows 0..t, or rows t..N-1 when reverse.

    The input projection X W + b is one (N, d) @ (d, 4 hidden) matmul before
    the recurrence. Backward is one BPTT loop over the rows that fills dZ, the
    gradient of the pre-activations, then dX = dZ W^T, dW = X^T dZ and
    dU = H_prev^T dZ as three GEMMs.
    """
    if X.data.ndim != 2 or X.shape[1] != W.shape[0]:
        raise ShapeError(f"lstm_sequence shape mismatch: {X.shape} @ {W.shape}")
    rows, n = X.shape[0], U.shape[0]
    xw = X.data @ W.data + b.data
    u = U.data
    sig = np.empty((rows, 3 * n))
    g = np.empty((rows, n))
    c_all = np.empty((rows, n))
    tc = np.empty((rows, n))
    h_all = np.empty((rows, n))
    h = np.zeros(n)
    c = np.zeros(n)
    steps = range(rows - 1, -1, -1) if reverse else range(rows)
    for t in steps:
        s, g[t] = _lstm_gates(xw[t] + h @ u, n)
        sig[t] = s
        c = s[n : 2 * n] * c + s[:n] * g[t]
        c_all[t] = c
        tc[t] = np.tanh(c)
        h = s[2 * n :] * tc[t]
        h_all[t] = h
    out = Tensor(h_all, requires_grad=any(t.requires_grad for t in (X, W, U, b)))

    def bwd(dH):
        dsig = sig * (1.0 - sig)
        # dZ row t is [dc K_i, dc K_f, dh K_o, dc K_g] with dc, dh the row's
        # cell and hidden gradients; the K are fixed by the forward pass
        k = np.empty((rows, 4, n))
        k[:, 0] = g * dsig[:, :n]
        k[:, 1] = _previous_rows(c_all, reverse) * dsig[:, n : 2 * n]
        k[:, 2] = tc * dsig[:, 2 * n :]
        k[:, 3] = sig[:, :n] * (1.0 - g * g)
        h_to_c = sig[:, 2 * n :] * (1.0 - tc * tc)
        f = sig[:, n : 2 * n]
        u_t = np.ascontiguousarray(u.T)
        dz = np.empty((rows, 4, n))
        dh_next = np.zeros(n)
        dc_next = np.zeros(n)
        for t in reversed(steps):
            dh = dH[t] + dh_next
            dc = dc_next + dh * h_to_c[t]
            np.multiply(k[t], dc, out=dz[t])
            np.multiply(k[t, 2], dh, out=dz[t, 2])
            dh_next = dz[t].reshape(-1) @ u_t
            dc_next = dc * f[t]
        dz = dz.reshape(rows, 4 * n)
        if X.requires_grad:
            _accumulate(X, dz @ W.data.T)
        if W.requires_grad:
            _accumulate(W, X.data.T @ dz)
        if U.requires_grad:
            _accumulate(U, _previous_rows(h_all, reverse).T @ dz)
        if b.requires_grad:
            _accumulate(b, dz.sum(axis=0, keepdims=True))

    _record(out, bwd)
    return out


# --------------------------------------------------------------------------
# Fused Child-Sum TreeLSTM kernels (Tai et al. 2015). Bottom-up gate order
# i, o, u, f: with x W + b = [a_i, a_o, a_u, a_f] and s the sum of the
# children's hidden states, i, o = sigmoid(a_io + s U_io), u = tanh(a_u + s U_u),
# f_k = sigmoid(a_f + h_k Uf) for each child k, c = i u + sum_k f_k c_k and
# h = o tanh(c).


def tree_lstm_up(X: Tensor, W: Tensor, U: Tensor, Uf: Tensor, b: Tensor, children,
                 order) -> Tensor:
    """The bottom-up pass over the N rows of X as one tape entry: row j of the
    (N, hidden) output is node j's hidden state. children[j] lists node j's
    children, and order lists every node once, each child before its parent.

    X W + b is one matmul before the loop over the nodes. Backward is one loop
    from parents to children that fills dZ, the gradient of the
    pre-activations, then dX, dW, dU and dUf are GEMMs.
    """
    if X.data.ndim != 2 or X.shape[1] != W.shape[0]:
        raise ShapeError(f"tree_lstm_up shape mismatch: {X.shape} @ {W.shape}")
    rows, n = X.shape[0], Uf.shape[0]
    xw = X.data @ W.data + b.data
    u_mat, uf = U.data, Uf.data
    act = np.empty((rows, 3, n))  # i, o, u
    c_all = np.empty((rows, n))
    tc = np.empty((rows, n))
    h_all = np.empty((rows, n))
    h_sum = np.zeros((rows, n))
    # one row per child, grouped by parent in processing order
    kids = [child for node in order for child in children[node]]
    first = {}  # node with children -> its first row in the child arrays
    f_all = np.empty((len(kids), n))
    start = 0
    for node in order:
        ch = children[node]
        a = xw[node]
        pre = a[: 3 * n]
        if ch:
            first[node] = start
            hk = h_all[ch]
            h_sum[node] = s = hk.sum(axis=0)
            pre = pre + s @ u_mat
            f = f_all[start : start + len(ch)] = 1.0 / (1.0 + np.exp(-(a[3 * n :] + hk @ uf)))
            start += len(ch)
        gates = act[node]
        gates[:2] = (1.0 / (1.0 + np.exp(-pre[: 2 * n]))).reshape(2, n)
        gates[2] = np.tanh(pre[2 * n :])
        c = gates[0] * gates[2]
        if ch:  # summed in child order after i u, as the composed ops add them
            c = np.vstack((c, f * c_all[ch])).sum(axis=0)
        c_all[node] = c
        tc[node] = np.tanh(c)
        h_all[node] = gates[1] * tc[node]
    out = Tensor(h_all, requires_grad=any(t.requires_grad for t in (X, W, U, Uf, b)))

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
        for node in reversed(order):
            dh = dh_all[node]
            dc = dc_all[node] + dh * h_to_c[node]
            dz_iou = dz[node, : 3 * n]
            np.multiply(k[node], dc, out=dz_iou.reshape(3, n))
            np.multiply(k[node, 1], dh, out=dz_iou[n : 2 * n])
            ch = children[node]
            if ch:
                rows_f = slice(first[node], first[node] + len(ch))
                d_f = dzf[rows_f] = dc * k_f[rows_f]
                dz[node, 3 * n :] = d_f.sum(axis=0)
                dc_all[ch] = dc * f_all[rows_f]
                dh_all[ch] += dz_iou @ u_t + d_f @ uf_t
        if X.requires_grad:
            _accumulate(X, dz @ W.data.T)
        if W.requires_grad:
            _accumulate(W, X.data.T @ dz)
        if U.requires_grad:
            _accumulate(U, h_sum.T @ dz[:, : 3 * n])
        if Uf.requires_grad:
            _accumulate(Uf, h_all[kids].T @ dzf)
        if b.requires_grad:
            _accumulate(b, dz.sum(axis=0, keepdims=True))

    _record(out, bwd)
    return out


def tree_lstm_down(H: Tensor, W: Tensor, U: Tensor, b: Tensor, Wr: Tensor, br: Tensor,
                   parent, order) -> Tensor:
    """The top-down pass over the (N, hidden) bottom-up states H as one tape
    entry, returning the (N, 2 hidden) rows [h_down ; H]. order is the
    bottom-up pass's order, so its last node is the root: the root gets
    h_down = tanh(H_root Wr + br) and a zero cell, and every other node v one
    LSTM step (gate order i, f, o, g) with input H[v], hidden state
    H[parent[v]] and its parent's top-down cell.

    No hidden state feeds back, so all pre-activations are one pair of GEMMs
    before the loop, which carries only the cells. Backward is one loop from
    children to parents over the cell gradients, then dH (the parents' share
    scattered with one add.at), dW and dU are GEMMs.
    """
    rows, n = H.shape
    root = order[-1]
    kids = np.array(order[-2::-1], dtype=np.intp)  # every parent before its children
    par = np.array([parent[v] for v in kids], dtype=np.intp)
    h = H.data
    z = h[kids] @ W.data + h[par] @ U.data + b.data
    sig, g = _lstm_gates(z, n)
    i, f, o = sig[:, :n], sig[:, n : 2 * n], sig[:, 2 * n :]
    ig = i * g
    kid_list, par_list = kids.tolist(), par.tolist()
    c = np.zeros((rows, n))
    for r, v in enumerate(kid_list):
        c[v] = f[r] * c[par_list[r]] + ig[r]
    tc = np.tanh(c[kids])
    down = np.empty((rows, n))
    down[kids] = o * tc
    root_h = np.tanh(h[root : root + 1] @ Wr.data + br.data)
    down[root] = root_h[0]
    out = Tensor(np.concatenate([down, h], axis=1),
                 requires_grad=any(t.requires_grad for t in (H, W, U, b, Wr, br)))

    def bwd(d_out):
        d_kid = d_out[kids, :n]
        d_cell = d_kid * o * (1.0 - tc * tc)
        dc = np.zeros((rows, n))  # what each node's cell receives from its children
        for r in range(len(kid_list) - 1, -1, -1):
            d_cell[r] += dc[kid_list[r]]
            dc[par_list[r]] += d_cell[r] * f[r]
        dz = np.empty_like(z)
        dz[:, :n] = d_cell * g
        dz[:, n : 2 * n] = d_cell * c[par]
        dz[:, 2 * n : 3 * n] = d_kid * tc
        dz[:, : 3 * n] *= sig * (1.0 - sig)
        dz[:, 3 * n :] = d_cell * i * (1.0 - g * g)
        d_root = d_out[root : root + 1, :n] * (1.0 - root_h * root_h)
        if H.requires_grad:
            dh = np.array(d_out[:, n:])
            dh[kids] += dz @ W.data.T
            np.add.at(dh, par, dz @ U.data.T)
            dh[root] += (d_root @ Wr.data.T)[0]
            _accumulate(H, dh)
        if W.requires_grad:
            _accumulate(W, h[kids].T @ dz)
        if U.requires_grad:
            _accumulate(U, h[par].T @ dz)
        if b.requires_grad:
            _accumulate(b, dz.sum(axis=0, keepdims=True))
        if Wr.requires_grad:
            _accumulate(Wr, h[root : root + 1].T @ d_root)
        if br.requires_grad:
            _accumulate(br, d_root)

    _record(out, bwd)
    return out


# --------------------------------------------------------------------------
# Fused GCN layer


def _relu_values(x):
    mask = x > 0
    return np.where(mask, x, 0.0), mask


def _tanh_values(x):
    value = np.tanh(x)
    return value, 1.0 - value * value


def _sigmoid_values(x):
    value = 1.0 / (1.0 + np.exp(-x))
    return value, value * (1.0 - value)


# the GCN's activations by name: each maps x to (act(x), act'(x))
ACTIVATIONS = {"relu": _relu_values, "tanh": _tanh_values, "sigmoid": _sigmoid_values}


def gcn_layer(H: Tensor, a_in: np.ndarray, a_out: np.ndarray, W_in: Tensor, W_out: Tensor,
              b: Tensor, activation, W_t: Tensor = None, b_t: Tensor = None) -> Tensor:
    """One GCN layer over the (N, h) rows of H as one tape entry. a_in and
    a_out = a_in^T are constant (N, N) arrays, a_in[v, u] counting the edges
    u -> v, and activation is one of ACTIVATIONS' functions. The layer's
    messages are M = a_in H W_in + a_out H W_out + b and out = act(M). With
    the highway weights W_t and b_t it returns t tanh(out) + (1 - t) H with
    the gate t = sigmoid(H W_t + b_t), and out without them.

    The forward runs the composed kernels' operations in their order, so it
    gives their result to the bit; backward runs GEMMs of the same shapes as theirs.
    """
    h = H.data
    if h.ndim != 2 or h.shape[1] != W_in.shape[0] or a_in.shape != (len(h), len(h)):
        raise ShapeError(f"gcn_layer shape mismatch: {h.shape} @ {W_in.shape}, a_in {a_in.shape}")
    pre = a_in @ (h @ W_in.data) + a_out @ (h @ W_out.data) + b.data
    out, slope = activation(pre)
    weights = (W_in, W_out, b)
    if W_t is not None:
        weights += (W_t, b_t)
        gate, gate_slope = _sigmoid_values(h @ W_t.data + b_t.data)
        tanh_out = np.tanh(out)
        out = gate * tanh_out + (1.0 - gate) * h
    result = Tensor(out, requires_grad=any(t.requires_grad for t in (H,) + weights))

    def bwd(g):
        d_h = None
        if W_t is not None:
            d_gate = g * (tanh_out - h) * gate_slope
            if W_t.requires_grad:
                _accumulate(W_t, h.T @ d_gate)
            if b_t.requires_grad:
                _accumulate(b_t, d_gate.sum(axis=0, keepdims=True))
            if H.requires_grad:
                d_h = g * (1.0 - gate) + d_gate @ W_t.data.T
            g = g * gate * (1.0 - tanh_out * tanh_out)
        d_pre = g * slope
        if b.requires_grad:
            _accumulate(b, d_pre.sum(axis=0, keepdims=True))
        d_in, d_out = a_out @ d_pre, a_in @ d_pre  # gradients of H W_in and H W_out
        if W_in.requires_grad:
            _accumulate(W_in, h.T @ d_in)
        if W_out.requires_grad:
            _accumulate(W_out, h.T @ d_out)
        if H.requires_grad:
            d_msg = d_in @ W_in.data.T + d_out @ W_out.data.T
            _accumulate(H, d_msg if d_h is None else d_h + d_msg)

    _record(result, bwd)
    return result


# --------------------------------------------------------------------------
# Optimization


class ParamStore:
    """Every trainable parameter of a model, by name in creation order.

    Initial values are drawn from rng in creation order or, given arrays (a
    saved model's name -> ndarray), copied from there, drawing nothing; a
    name or shape that arrays lacks is a ValueError, and the store keeps no
    reference to an array it has copied. pack() moves all
    values into one flat vector theta and allocates one flat gradient vector
    grad, and each parameter's data and grad become views into them, so an
    SGD step, clipping and clearing are operations on two vectors. Only
    training packs: a model that only decodes needs no gradient storage.
    """

    def __init__(self, rng, arrays=None):
        self.rng = rng
        self.arrays = None if arrays is None else dict(arrays)  # the arrays not yet copied
        self.params = {}
        self.theta = None
        self.grad = None

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
            data = self.arrays.pop(name).copy()
        p = self.params[name] = Tensor(data, requires_grad=True)
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
    """theta <- theta - lr * grad on a packed store; the gradient is cleared.
    The gradient is scaled in place, so no temporary of its size is made."""
    store.grad *= lr
    store.theta -= store.grad
    store.grad.fill(0.0)


def clip_grad_norm(store: ParamStore, max_norm: float) -> float:
    """Scale a packed store's gradient so its global L2 norm is at most
    max_norm; returns the norm before scaling. The squares are summed per
    parameter in creation order: one grad @ grad would round differently."""
    norm = sum(float((p.grad * p.grad).sum()) for p in store.params.values()) ** 0.5
    if norm > max_norm and norm > 0.0:
        store.grad *= max_norm / norm
    return norm


class LrSchedule:
    """Multiplicative decay whenever the dev metric fails to improve."""

    def __init__(self, initial_lr: float = 1.0, decay: float = 0.8):
        self.lr = float(initial_lr)
        self.decay = float(decay)
        self.best = None

    def update(self, dev_metric: float) -> float:
        if self.best is None or dev_metric > self.best:
            self.best = dev_metric
        else:
            self.lr *= self.decay
        return self.lr


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
    """Read an archive that save_arrays wrote. A damaged one raises
    zipfile.BadZipFile, KeyError or another ValueError."""
    with open(path, "rb") as handle:
        try:
            with zipfile.ZipFile(handle) as archive:
                manifest = json.loads(archive.read("manifest.json"))
                arrays = {}
                for name, shape in manifest["arrays"].items():
                    raw = archive.read(f"data/{name}")
                    arrays[name] = (np.frombuffer(raw, dtype="<f8").astype(np.float64)
                                    .reshape(shape))
        except (NotImplementedError, RuntimeError, EOFError, OSError) as err:
            # zipfile's errors for damaged headers: a compression method or an
            # encryption flag that save_arrays never writes, a size past the
            # end of the file, an offset before its start
            raise zipfile.BadZipFile(f"{type(err).__name__}: {err}") from None
    return manifest, arrays
