"""The attentional decoder in numpy, on the tape in `tensor`. Step t runs the
LSTM (gate order i, f, o, g) on [y_t ; ctx_{t-1}], y_t the embedding of its
input id, then attends with its hidden state s_t over the encoder rows, which
gives ctx_t (input feeding); the output layer gives the log-softmax of
tanh([s_t ; ctx_t] W_o + b_o) W_v + b_v. `decoder_step` runs a step and the
output layer for any number of rows, for decoding; `decoder_batch` runs a
batch's teacher-forced recurrence and `output_nll` its output layer and loss.
`initial_rows` and `initial_state` give the first hidden state.
"""
from __future__ import annotations

import itertools

import numpy as np

from . import tensor
from .tensor import (ShapeError, Tensor, _accumulate, _grad_buffer, _lstm_gates, _record,
                     packed_layout)


def _attend(q, enc, enc_proj, U, b, v):
    """Additive attention of the (m, h) query rows q over the (N, h) rows of
    enc in numpy. With E = tanh(enc_proj + q U + b) for every (query, row)
    pair, alpha is the softmax over rows of E v, and context row i is
    alpha_i enc; enc_proj is enc's projection, computed once per example.
    Returns the (m, h) context rows, the (m, N, h) activations E and the
    (m, N) weights alpha."""
    m, rows = q.shape[0], enc.shape[0]
    pre = enc_proj[None] + (q @ U)[:, None]
    pre += b
    e = np.tanh(pre)
    scores = (e.reshape(m * rows, -1) @ v).reshape(m, rows)
    exp = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = exp / exp.sum(axis=1, keepdims=True)
    return alpha @ enc, e, alpha


def _decoder_lstm(xw, ctx, s, c, W_ctx, U):
    """The decoder's LSTM for m rows in numpy. xw is the (m, 4h) embedding
    half of the input projection with the bias, y W[:d] + b, and ctx, s and c
    are the (m, h) context, hidden and cell rows before the step. Returns s
    and c after it and the gates sig and g."""
    n = s.shape[1]
    z = xw + ctx @ W_ctx + s @ U
    sig, g = _lstm_gates(z, n)
    c = sig[:, n : 2 * n] * c + sig[:, :n] * g
    return sig[:, 2 * n :] * np.tanh(c), c, sig, g


def decoder_step(ids, ctx, s, c, enc, enc_proj, emb, W, U, b, U_a, b_a, v_a, W_o, b_o, W_v, b_v):
    """One step in plain numpy for m rows over the same encoder rows, from
    their input ids and (m, h) ctx, s and c rows, with `decoder_batch`'s
    weights and then the output layer's. Returns the (m, V) log-probs of the
    next id and the (ctx, s, c) rows after the step."""
    d = emb.shape[1]
    s, c, _, _ = _decoder_lstm(emb[ids] @ W[:d] + b, ctx, s, c, W[d:], U)
    ctx = _attend(s, enc, enc_proj, U_a, b_a, v_a)[0]
    return output_rows(np.concatenate([s, ctx], axis=1), W_o, b_o, W_v, b_v), ctx, s, c


def _initial(enc, sizes, W_init, b_init):
    """Each example's mean encoder row, summed over the rows in order, and
    tanh(mean W_init + b_init), the latter a row-stacked one-row product."""
    ends = list(itertools.accumulate(sizes))
    mean = np.concatenate([enc[end - size : end].sum(axis=0, keepdims=True)
                           for size, end in zip(sizes, ends)])
    mean *= (1.0 / np.array(sizes, dtype=np.float64))[:, None]
    return mean, np.tanh(np.matmul(mean[:, None], W_init)[:, 0] + b_init)


def initial_rows(enc, sizes, W_init, b_init):
    """The decoder's first hidden state of each example in plain numpy, one
    (B, h) row per example: tanh(m W_init + b_init) with m the mean of the
    example's encoder rows. enc holds the examples' rows one example after
    another and sizes their row counts; the cell and the context start at
    zero."""
    return _initial(enc, sizes, W_init, b_init)[1]


def initial_state(enc: Tensor, sizes, W_init: Tensor, b_init: Tensor) -> Tensor:
    """`initial_rows` as one tape entry. Forward and backward run the
    composed kernels' operations (row sum, scale, matmul, add, tanh) in their
    order, so a batch of one gives their bits."""
    if enc.data.ndim != 2 or sum(sizes) != enc.shape[0] or min(sizes) < 1:
        raise ShapeError(f"initial_state shape mismatch: enc {enc.shape}, sizes {list(sizes)}")
    mean, state = _initial(enc.data, sizes, W_init.data, b_init.data)
    out = Tensor(state, requires_grad=any(t.requires_grad for t in (enc, W_init, b_init)))

    def bwd(g):
        d_pre = g * (1.0 - state * state)
        if b_init.requires_grad:
            _accumulate(b_init, d_pre.sum(axis=0, keepdims=True))
        if enc.requires_grad:
            d_mean = (d_pre @ W_init.data.T) * (1.0 / np.array(sizes, dtype=np.float64))[:, None]
            _accumulate(enc, np.repeat(d_mean, sizes, axis=0))
        if W_init.requires_grad:
            _accumulate(W_init, mean.T @ d_pre)

    _record(out, bwd)
    return out


def _output_layer(rows, W_o, b_o, W_v, b_v):
    """o = tanh(rows W_o + b_o) and the log-softmax rows of o W_v + b_v."""
    o = np.tanh(rows @ W_o + b_o)
    logits = o @ W_v + b_v
    shifted = logits - logits.max(axis=1, keepdims=True)
    return o, shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def output_rows(rows, W_o, b_o, W_v, b_v):
    """The (m, V) log-probs of the (m, 2h) rows [s ; ctx], in plain numpy."""
    return _output_layer(rows, W_o, b_o, W_v, b_v)[1]


def output_nll(rows: Tensor, ids, lengths, W_o: Tensor, b_o: Tensor, W_v: Tensor,
               b_v: Tensor) -> Tensor:
    """The output layer and the loss as one tape entry: the negative log-prob
    of ids[t] in row t of `output_rows`, averaged over each of the examples
    that lengths splits the rows into and summed over them in order. Forward
    and backward run the composed kernels' operations in their order, so
    they give those kernels' bits."""
    idx = np.asarray(ids, dtype=np.intp)
    if rows.shape != (len(idx), W_o.shape[0]) or sum(lengths) != len(idx):
        raise ShapeError(f"output_nll shape mismatch: rows {rows.shape}, W_o {W_o.shape}, "
                         f"{len(idx)} ids in examples of {list(lengths)}")
    o, log_probs = _output_layer(rows.data, W_o.data, b_o.data, W_v.data, b_v.data)
    picks = np.arange(len(idx)), idx
    factors = [-1.0 / length for length in lengths]
    total = 0.0
    for part, factor in zip(np.split(log_probs[picks], np.cumsum(lengths)[:-1]), factors):
        total += part.sum() * factor
    inputs = (rows, W_o, b_o, W_v, b_v)
    out = Tensor(np.array(total).reshape(1, 1), requires_grad=any(t.requires_grad for t in inputs))

    def bwd(g):
        d_logits = np.zeros_like(log_probs)
        d_logits[picks] += g.reshape(-1)[0] * np.repeat(factors, lengths)
        d_logits -= np.exp(log_probs) * d_logits.sum(axis=1, keepdims=True)
        if b_v.requires_grad:
            _accumulate(b_v, d_logits.sum(axis=0, keepdims=True))
        if W_v.requires_grad:
            _accumulate(W_v, o.T @ d_logits)
        d_pre = (d_logits @ W_v.data.T) * (1.0 - o * o)
        if b_o.requires_grad:
            _accumulate(b_o, d_pre.sum(axis=0, keepdims=True))
        if W_o.requires_grad:
            _accumulate(W_o, rows.data.T @ d_pre)
        if rows.requires_grad:
            _accumulate(rows, d_pre @ W_o.data.T)

    _record(out, bwd)
    return out


class _Packing:
    """The packed layout of a batch of sequences (Appleyard et al. 2016),
    from their lengths and their encoders' row counts. `order` lists the
    examples by length, longest first and stable, and an example's rank is
    its place there, so the examples still running at step t are the first
    m ranks. State arrays have one row per (step, example), step by step and
    in rank order within a step. `steps[t]` is (rows, m, r): rows is the
    slice of step t's m state rows, and the running examples' encoder rows
    are the first r rows of all encoder rows concatenated in rank order, rank
    k's from `enc_starts[k]`. `rows[k]` lists rank k's state rows, and with
    more than one example `perm` lists the state rows of every example, one
    example after another in the given order."""

    def __init__(self, lengths, sizes):
        batch = len(lengths)
        self.order, self.running, starts = packed_layout(lengths)
        self.lengths = [lengths[j] for j in self.order]
        self.sizes = [sizes[j] for j in self.order]
        self.width = max(sizes)
        self.enc_starts = [0, *itertools.accumulate(self.sizes)]
        self.steps = [(slice(a, a + m), m, self.enc_starts[m])
                      for a, m in zip(starts, self.running)]
        if batch == 1:  # the identity layout
            self.rows = [np.arange(self.lengths[0])]
            return
        starts = np.array(starts)
        self.rows = [starts[:length] + rank for rank, length in enumerate(self.lengths)]
        rank = np.empty(batch, dtype=np.intp)
        rank[self.order] = np.arange(batch)
        self.perm = np.concatenate([self.rows[k] for k in rank])
        # each encoder row's rank, and its place in a (ranks, width) block
        self.row_rank = np.repeat(np.arange(batch), self.sizes)
        self.pad = (self.row_rank * self.width + np.arange(self.enc_starts[-1])
                    - np.array(self.enc_starts)[self.row_rank])

    def previous_rows(self):
        """The previous step's row of every row after the first step's."""
        if len(self.order) == 1:
            return slice(0, self.lengths[0] - 1)
        running = np.array(self.running)
        return np.arange(running[0], running.sum()) - np.repeat(running[:-1], running[1:])

    def padded(self, scores, m, r):
        """The r scores of the running examples' encoder rows as an (m, width)
        block, -inf on the padding."""
        block = np.full(m * self.width, -np.inf)
        block[self.pad[:r]] = scores.reshape(-1)
        return block.reshape(m, self.width)


def decoder_batch(ids, s0, enc, enc_proj, sizes, emb: Tensor, W: Tensor, U: Tensor, b: Tensor,
                  U_a: Tensor, b_a: Tensor, v_a: Tensor) -> Tensor:
    """The decoder's recurrence over a batch of sentences as one tape entry.
    ids holds each example's input ids, s0 their (B, h) first hidden states,
    and enc and enc_proj the examples' encoder rows, one example after
    another, with sizes their row counts, and the rows' projection; the cell
    and the context start at zero. emb is the (V, d) table of the ids'
    embeddings, W, U and b are the LSTM's weights over [y ; ctx], and U_a,
    b_a and v_a those of the attention, as in `_attend`. The output has each
    example's rows, one after another in the given order: row t of an
    example is [s_t ; ctx_t], the output layer's input.

    The steps run over a `_Packing` of the batch. emb[ids] W[:d] + b is one
    GEMM over all rows before the loop. At each step the LSTM runs on the
    running examples' rows, and the attention's elementwise work on their
    encoder rows concatenated, without padding (cross-example operation
    batching, Neubig, Goldberg & Dyer 2017); what reduces over encoder rows,
    the softmax and the context, runs per example on blocks padded to the
    longest encoder, with -inf scores on the padding. On a tape the forward
    keeps every step's attention activations E, one row per (step, encoder
    row) cell, step after step in one (cells, h) array, and backward is one
    pass back over the steps that reads them: K = v (1 - E^2) per step, the
    enc_proj gradient summed per step over the running examples' rows, each
    example's query gradient a sum over its own cells, so that a step costs
    linearly in its cells at any batch size, and the weight gradients, v_a's
    among them, as GEMMs over all rows after the loop. A batch of one
    performs the one-sentence kernel's operations, so it gives that kernel's
    bits. Without a tape only the output rows are kept.
    """
    batch, d, n = len(ids), emb.shape[1], U.shape[0]
    if (not batch or len(sizes) != batch or min(sizes) < 1 or s0.shape != (batch, n)
            or enc.shape != (sum(sizes), n) or enc_proj.shape != enc.shape
            or W.shape != (d + n, 4 * n) or min(map(len, ids)) < 1):
        raise ShapeError(f"decoder_batch shape mismatch: {batch} id lists of lengths "
                         f"{[len(i) for i in ids]}, s0 {s0.shape}, enc {enc.shape}, enc_proj "
                         f"{enc_proj.shape} in examples of {list(sizes)}, W {W.shape}")
    pack = _Packing([len(i) for i in ids], sizes)
    order = pack.order
    ends = list(itertools.accumulate(sizes))
    enc_rows = [slice(ends[j] - sizes[j], ends[j]) for j in order]  # each rank's encoder rows
    if batch == 1:  # the identity layout
        idx = np.asarray(ids[0], dtype=np.intp)
        proj_cat, enc_block = enc_proj.data, enc.data[None]
    else:
        idx = np.empty(len(pack.perm), dtype=np.intp)
        idx[pack.perm] = np.concatenate([np.asarray(i, dtype=np.intp) for i in ids])
        proj_cat = np.concatenate([enc_proj.data[rows] for rows in enc_rows])
        enc_block = np.zeros((batch, pack.width, n))
        for rank, rows in enumerate(enc_rows):
            enc_block[rank, : pack.sizes[rank]] = enc.data[rows]
    w_emb, w_ctx = W.data[:d], W.data[d:]
    xw = emb.data[idx] @ w_emb + b.data
    u, u_a, v, bias_a = U.data, U_a.data, v_a.data, b_a.data
    s = s_first = s0.data[order]
    c = ctx = np.zeros((batch, n))
    inputs = (s0, enc, enc_proj, emb, W, U, b, U_a, b_a, v_a)
    needs_grad = any(t.requires_grad for t in inputs)
    taping = needs_grad and tensor._ACTIVE_TAPE is not None  # else keep only the output rows
    if taping:  # the attention activations, step t's r cells after step t - 1's
        e_all = np.empty((sum(r for _, _, r in pack.steps), u_a.shape[1]))
    saved, cell = [], 0
    for rows, m, r in pack.steps:
        if m < len(s):
            s, c, ctx = s[:m], c[:m], ctx[:m]
        s, c, sig, g = _decoder_lstm(xw[rows], ctx, s, c, w_ctx, u)
        q = s @ u_a
        pre = np.add(proj_cat[:r], q if m == 1 else q[pack.row_rank[:r]],
                     out=e_all[cell : cell + r] if taping else None)
        cell += r
        pre += bias_a
        scores = np.tanh(pre, out=pre) @ v
        scores = (scores.reshape(m, r // m) if r == m * pack.width
                  else pack.padded(scores, m, r))
        exp = np.exp(scores - scores.max(axis=1, keepdims=True))
        alpha = exp / exp.sum(axis=1, keepdims=True)
        if m == 1:  # a plain product, the same numbers as the stacked one
            ctx = alpha @ enc_block[0]
        else:
            ctx = np.matmul(alpha[:, None], enc_block[:m])[:, 0]
        saved.append((s, ctx, c, sig, g, alpha) if taping else (s, ctx))
    s_all, ctx_all, *kept = (np.concatenate(col) for col in zip(*saved))
    stacked = np.concatenate([s_all, ctx_all], axis=1)
    out = Tensor(stacked if batch == 1 else stacked[pack.perm], requires_grad=needs_grad)
    if not taping:
        return out
    c_all, sig, g, alpha = kept

    def bwd(d_out):
        if batch > 1:
            packed = np.empty_like(d_out)
            packed[pack.perm] = d_out
            d_out = packed
        zero = np.zeros((batch, n))  # the context and cell before the first step
        prev = pack.previous_rows()
        tc = np.tanh(c_all)
        dsig = sig * (1.0 - sig)
        # dZ row is [dc K_i, dc K_f, ds K_o, dc K_g] with dc, ds the row's
        # cell and hidden gradients; the K are fixed by the forward pass.
        # k holds K_i, K_f and K_g and becomes dZ in the loop, row by row
        k = np.empty((len(c_all), 4, n))
        k[:, 0] = g * dsig[:, :n]
        k[:, 1] = np.concatenate([zero, c_all[prev]]) * dsig[:, n : 2 * n]
        k[:, 2] = 0.0
        k[:, 3] = sig[:, :n] * (1.0 - g * g)
        k_o = tc * dsig[:, 2 * n :]
        s_to_c = sig[:, 2 * n :] * (1.0 - tc * tc)
        f = sig[:, n : 2 * n]
        del tc, dsig
        back = np.ascontiguousarray(np.concatenate([u, w_ctx]).T)  # dz -> [ds ; dctx] before
        u_a_t = np.ascontiguousarray(u_a.T)
        d_query = np.empty((len(c_all), u_a.shape[1]))  # gradient of s_t U_a
        d_ctx = np.empty((len(c_all), n))
        d_cells = np.empty(len(e_all))  # d score of each cell
        d_s, d_c = d_out[:, :n], d_out[:, n:]
        ds_next = dctx_next = dc_next = np.zeros((pack.running[-1], n))
        enc_first = enc_block[0]
        if batch == 1:  # d score / d pre-activation K = v (1 - E^2) at once
            k_att = e_all * e_all
            np.subtract(1.0, k_att, out=k_att)
            k_att *= v[:, 0]
        else:  # the enc_proj gradient over v of the encoder rows in rank order
            d_proj_cat = np.zeros(enc.shape)
            v_row, enc_starts = v[:, 0], np.asarray(pack.enc_starts)
        cell = len(e_all)
        for rows, m, r in reversed(pack.steps):
            if m > len(ds_next):  # the examples whose last step this is
                more = np.zeros((m - len(ds_next), n))
                ds_next, dctx_next, dc_next = (
                    np.concatenate([x, more]) for x in (ds_next, dctx_next, dc_next))
            cells = slice(cell - r, cell)
            cell -= r
            dctx = d_ctx[rows] = d_c[rows] + dctx_next
            al = alpha[rows]
            if m == 1:  # plain products, the same numbers as the stacked ones
                d_alpha = enc_first @ dctx[0]
                d_score = al * (d_alpha - d_alpha @ al[0])
            else:
                d_alpha = np.matmul(enc_block[:m], dctx[:, :, None])[:, :, 0]
                d_score = al * (d_alpha - np.matmul(d_alpha[:, None], al[:, :, None])[:, 0])
            if batch == 1:
                d_cells[cells] = d_score[0]
                dq = d_score @ k_att[cells]
            else:  # the cells' d score times K over v, summed per example for dq
                d_cell = d_cells[cells] = d_score.reshape(-1)[pack.pad[:r]]
                e = e_all[cells]
                grad = e * e
                np.subtract(1.0, grad, out=grad)
                grad *= d_cell[:, None]
                d_proj_cat[:r] += grad
                dq = np.add.reduceat(grad, enc_starts[:m], axis=0)
                dq *= v_row
            d_query[rows] = dq
            ds = d_s[rows] + ds_next + dq @ u_a_t
            dc = dc_next + ds * s_to_c[rows]
            dz_t = k[rows]
            dz_t *= dc[:, None]
            np.multiply(k_o[rows], ds, out=dz_t[:, 2])
            before = dz_t.reshape(m, 4 * n) @ back
            ds_next, dctx_next = before[:, :n], before[:, n:]
            dc_next = dc * f[rows]
        dz = k.reshape(-1, 4 * n)
        if s0.requires_grad:
            d_s0 = np.empty((batch, n))
            d_s0[order] = ds_next
            _accumulate(s0, d_s0)
        if enc.requires_grad:
            d_enc = np.empty(enc.shape)
            for rank, rows in enumerate(enc_rows):
                rows_k = pack.rows[rank]
                d_enc[rows] = alpha[rows_k, : pack.sizes[rank]].T @ d_ctx[rows_k]
            _accumulate(enc, d_enc)
        if enc_proj.requires_grad:
            if batch == 1:
                steps, size = len(pack.steps), sizes[0]
                d_proj = np.einsum("tr,trh->rh", d_cells.reshape(steps, size),
                                   k_att.reshape(steps, size, -1))
            else:
                d_proj = np.empty(enc.shape)
                for rank, rows in enumerate(enc_rows):
                    d_proj[rows] = d_proj_cat[pack.enc_starts[rank] : pack.enc_starts[rank + 1]]
                d_proj *= v_row
            _accumulate(enc_proj, d_proj)
        if v_a.requires_grad:
            _accumulate(v_a, e_all.T @ d_cells.reshape(-1, 1))
        if emb.requires_grad:
            np.add.at(_grad_buffer(emb), idx, dz @ w_emb.T)
        if W.requires_grad:
            ctx_prev = np.concatenate([zero, ctx_all[prev]])
            _accumulate(W, np.concatenate([emb.data[idx], ctx_prev], axis=1).T @ dz)
        if U.requires_grad:
            _accumulate(U, np.concatenate([s_first, s_all[prev]]).T @ dz)
        if b.requires_grad:
            _accumulate(b, dz.sum(axis=0, keepdims=True))
        if U_a.requires_grad:
            _accumulate(U_a, s_all.T @ d_query)
        if b_a.requires_grad:
            _accumulate(b_a, d_query.sum(axis=0, keepdims=True))

    _record(out, bwd)
    return out
