"""The attentional decoder in numpy, on the tape in `tensor`. Step t runs the
LSTM (gate order i, f, o, g) on [y_t ; ctx_{t-1}], y_t the embedding of its
input id, then attends with its hidden state s_t over the encoder rows, which
gives ctx_t (input feeding); the output layer gives the log-softmax of
tanh([s_t ; ctx_t] W_o + b_o) W_v + b_v. One attention, `_attend`, runs over
an `EncoderRows`, the layout of the encoder rows that each row attends over.
`decoder_step` runs a step and the output layer for any number of rows, for
decoding; `decoder_batch` runs a batch's teacher-forced recurrence and
`output_nll` its output layer and loss. `initial_state` gives the first
hidden state.
"""
from __future__ import annotations

import itertools

import numpy as np

from . import tensor
from .tensor import (ShapeError, Tensor, _accumulate, _grad_buffer, _grow, _log_softmax,
                     _log_softmax_back, _lstm_back, _lstm_cell, _lstm_factors, _record, _softmax,
                     _tanh_slope)


class EncoderRows:
    """The encoder rows that the decoder's rows attend over: rank k, row k of
    a step, attends over sizes[k] rows of enc from starts[k]. Its cells, one
    per (rank, row), run rank after rank from `cell_starts[k]`: `rows` holds
    each cell's row of enc, `row_rank` its rank, `pad` its place in a (ranks,
    width) block and `proj` its row of enc_proj; `block` holds each rank's
    rows of enc padded with zeros to (ranks, width, h). One rank is shared:
    every row of a step attends over it, as a search's paths all attend over
    one example's rows. Its `rows` and `pad` are slices, `proj` and `block`
    views, and it has no `row_rank`."""

    def __init__(self, enc, enc_proj, sizes, starts):
        self.width = max(sizes)
        self.cell_starts = [0, *itertools.accumulate(sizes)]
        if len(sizes) == 1:
            self.rows, self.pad = slice(starts[0], starts[0] + sizes[0]), slice(None)
            self.proj, self.block = enc_proj[self.rows], enc[self.rows][None]
            return
        self.row_rank = np.repeat(np.arange(len(sizes)), sizes)
        offset = np.arange(self.cell_starts[-1]) - np.array(self.cell_starts)[self.row_rank]
        self.rows = np.asarray(starts, dtype=np.intp)[self.row_rank] + offset
        self.pad = self.row_rank * self.width + offset
        self.proj = enc_proj[self.rows]
        self.block = np.zeros((len(sizes), self.width, enc.shape[1]))
        self.block.reshape(-1, enc.shape[1])[self.pad] = enc[self.rows]

    def padded(self, scores, m, r):
        """The scores of the first m ranks' r cells as an (m, width) block,
        -inf on the padding."""
        block = np.full(m * self.width, -np.inf)
        block[self.pad[:r]] = scores.reshape(-1)
        return block.reshape(m, self.width)


def _attend(att, m, s, U_a, b_a, v_a, out=None):
    """Additive attention (Bahdanau et al. 2015) in numpy of the (m, h) rows
    s over att, an `EncoderRows`: row k over rank k, or every row over the
    one rank of a shared att. Each cell's E = tanh(enc_proj + s U_a + b_a),
    written into out if given, and each row's softmax alpha of E v_a, padded
    to width with -inf scores, times its rank's rows of enc. Returns the
    (m, h) contexts, the (cells, h) E and the (m, width) alpha, zero on the
    padding."""
    q = s @ U_a
    if len(att.cell_starts) == 2:  # shared: the cells of row k are q_k + proj
        r = m * att.width
        cells = None if out is None else out.reshape(m, att.width, -1)
        e = np.add(att.proj, q[:, None], out=cells).reshape(r, -1)
    else:
        r = att.cell_starts[m]
        e = np.add(att.proj[:r], q if m == 1 else q[att.row_rank[:r]], out=out)
    e += b_a
    scores = np.tanh(e, out=e) @ v_a
    scores = scores.reshape(m, r // m) if r == m * att.width else att.padded(scores, m, r)
    alpha = _softmax(scores)
    if m == 1:  # a plain product, the same numbers as the stacked one
        return alpha @ att.block[0], e, alpha
    return np.matmul(alpha[:, None], att.block[:m])[:, 0], e, alpha


def decoder_step(ids, ctx, s, c, att, emb, W, U, b, U_a, b_a, v_a, W_o, b_o, W_v, b_v):
    """One step in plain numpy for m rows, each attending over its rank of
    att, an `EncoderRows`, from their input ids and (m, h) ctx, s and c rows,
    with `decoder_batch`'s weights and then the output layer's. Returns the
    (m, V) log-probs of the next id and the (ctx, s, c) rows after the step."""
    d = emb.shape[1]
    _, _, c, s = _lstm_cell(emb[ids] @ W[:d] + b + ctx @ W[d:] + s @ U, c)
    ctx = _attend(att, len(s), s, U_a, b_a, v_a)[0]
    return output_rows(np.concatenate([s, ctx], axis=1), W_o, b_o, W_v, b_v), ctx, s, c


def initial_state(enc: Tensor, sizes, W_init: Tensor, b_init: Tensor) -> Tensor:
    """The decoder's first hidden states as one tape entry, a (B, h) row per
    example: tanh(m W_init + b_init), m the mean of the example's encoder
    rows, which enc holds one example after another, sizes their counts; the
    cell and the context start at zero. Forward and backward run the
    composed kernels' operations (row sum, scale, row-stacked one-row
    matmul, add, tanh) in their order, so a batch of one gives their bits."""
    if enc.data.ndim != 2 or sum(sizes) != enc.shape[0] or min(sizes) < 1:
        raise ShapeError(f"initial_state shape mismatch: enc {enc.shape}, sizes {list(sizes)}")
    inverse = (1.0 / np.array(sizes, dtype=np.float64))[:, None]
    mean = inverse * np.concatenate([enc.data[end - size : end].sum(axis=0, keepdims=True)
                                     for size, end in zip(sizes, itertools.accumulate(sizes))])
    state = np.tanh(np.matmul(mean[:, None], W_init.data)[:, 0] + b_init.data)

    def bwd(g):
        d_pre = g * _tanh_slope(state)
        _accumulate(b_init, d_pre.sum(axis=0, keepdims=True))
        _accumulate(enc, np.repeat((d_pre @ W_init.data.T) * inverse, sizes, axis=0))
        _accumulate(W_init, mean.T @ d_pre)

    return _record(state, (enc, W_init, b_init), bwd)


def _output_layer(rows, W_o, b_o, W_v, b_v):
    """o = tanh(rows W_o + b_o) and the log-softmax rows of o W_v + b_v."""
    o = np.tanh(rows @ W_o + b_o)
    return o, _log_softmax(o @ W_v + b_v)


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

    def bwd(g):
        d_picks = np.zeros_like(log_probs)
        d_picks[picks] += g.reshape(-1)[0] * np.repeat(factors, lengths)
        d_logits = _log_softmax_back(d_picks, log_probs)
        _accumulate(b_v, d_logits.sum(axis=0, keepdims=True))
        _accumulate(W_v, o.T @ d_logits)
        d_pre = (d_logits @ W_v.data.T) * _tanh_slope(o)
        _accumulate(b_o, d_pre.sum(axis=0, keepdims=True))
        _accumulate(W_o, rows.data.T @ d_pre)
        _accumulate(rows, d_pre @ W_o.data.T)

    return _record(np.array(total).reshape(1, 1), (rows, W_o, b_o, W_v, b_v), bwd)


def decoder_batch(ids, s0, enc, enc_proj, sizes, emb: Tensor, W: Tensor, U: Tensor, b: Tensor,
                  U_a: Tensor, b_a: Tensor, v_a: Tensor) -> Tensor:
    """The decoder's recurrence over a batch of sentences as one tape entry.
    ids holds each example's input ids, s0 their (B, h) first hidden states,
    enc and enc_proj the examples' encoder rows, one example after another,
    and their projection, sizes their row counts; the cell and the context
    start at zero. emb is the (V, d) table of the ids' embeddings, W, U and
    b the LSTM's weights over [y ; ctx], and U_a, b_a and v_a `_attend`'s.
    The output has each example's rows, one after another in the given
    order: row t of an example is [s_t ; ctx_t], the output layer's input.

    The steps run over a `tensor.Packing` of the batch. emb[ids] W[:d] + b
    is one GEMM over all rows before the loop. At each step the LSTM runs on
    the running examples' rows, and `_attend` over an `EncoderRows` of the
    examples in rank order: elementwise on their encoder rows concatenated
    without padding (cross-example operation batching, Neubig, Goldberg &
    Dyer 2017), and per example, on blocks padded to the longest encoder,
    for the softmax and the context. On a tape the forward keeps every
    step's attention activations E, one row per (step, encoder row) cell, in
    one (cells, h) array, and backward is one pass back over the steps that
    reads them: K = v (1 - E^2) per step, the enc_proj gradient summed per
    step over the running examples' rows, each example's query gradient a
    sum over its own cells, so that a step costs linearly in its cells at
    any batch size, and the weight gradients, v_a's among them, as GEMMs
    over all rows after the loop. Without a tape only the output rows are
    kept. Every batch, one example included, runs this one backward. A step
    with one running example takes plain products: they are cheaper at one
    row, and a batch's longest example runs alone through its last steps.
    """
    batch, d, n = len(ids), emb.shape[1], U.shape[0]
    if (not batch or len(sizes) != batch or min(sizes) < 1 or s0.shape != (batch, n)
            or enc.shape != (sum(sizes), n) or enc_proj.shape != enc.shape
            or W.shape != (d + n, 4 * n) or min(map(len, ids)) < 1):
        raise ShapeError(f"decoder_batch shape mismatch: {batch} id lists of lengths "
                         f"{[len(i) for i in ids]}, s0 {s0.shape}, enc {enc.shape}, enc_proj "
                         f"{enc_proj.shape} in examples of {list(sizes)}, W {W.shape}")
    pack = tensor.Packing([len(i) for i in ids])
    starts = [0, *itertools.accumulate(sizes)]
    att = EncoderRows(enc.data, enc_proj.data, [sizes[j] for j in pack.order],
                      [starts[j] for j in pack.order])
    idx = np.empty(pack.steps[-1].stop, dtype=np.intp)
    idx[pack.rows] = np.concatenate(ids)
    w_emb, w_ctx = W.data[:d], W.data[d:]
    xw = emb.data[idx] @ w_emb + b.data
    u, u_a, v = U.data, U_a.data, v_a.data
    s = s_first = s0.data[pack.order]
    c = ctx = np.zeros((batch, n))
    taping = tensor._ACTIVE_TAPE is not None  # else keep only the output rows
    if taping:  # the attention activations, step t's r cells after step t - 1's
        e_all = np.empty((sum(att.cell_starts[m] for m in pack.running), u_a.shape[1]))
    saved, cell = [], 0
    for rows, m in zip(pack.steps, pack.running):
        r = att.cell_starts[m]
        if m < len(s):
            s, c, ctx = s[:m], c[:m], ctx[:m]
        sig, g, c, s = _lstm_cell(xw[rows] + ctx @ w_ctx + s @ u, c)
        ctx, _, alpha = _attend(att, m, s, u_a, b_a.data, v,
                                out=e_all[cell : cell + r] if taping else None)
        cell += r
        saved.append((s, ctx, c, sig, g, alpha) if taping else (s, ctx))
    s_all, ctx_all, *kept = (np.concatenate(col) for col in zip(*saved))

    def bwd(d_out):
        c_all, sig, g, alpha = kept
        packed = np.empty_like(d_out)
        packed[pack.rows] = d_out
        factors = _lstm_factors(sig, g, c_all, pack.before(c_all))
        back = np.ascontiguousarray(np.concatenate([u, w_ctx]).T)  # dz -> [ds ; dctx] before
        u_a_t = np.ascontiguousarray(u_a.T)
        d_query = np.empty((len(c_all), u_a.shape[1]))  # gradient of s_t U_a
        d_ctx = np.empty((len(c_all), n))
        d_cells = np.empty(len(e_all))  # d score of each cell
        d_s, d_c = packed[:, :n], packed[:, n:]
        carried = [np.zeros((pack.running[-1], n))] * 3  # ds, dctx and dc from the next step
        d_proj_cat = np.zeros(enc.shape)  # the enc_proj gradient over v, rows in rank order
        v_row, cell_starts = v[:, 0], np.asarray(att.cell_starts)
        cell = len(e_all)
        for rows, m in zip(reversed(pack.steps), reversed(pack.running)):
            ds_next, dctx_next, dc_next = _grow(m, carried)
            r = att.cell_starts[m]
            cells = slice(cell - r, cell)
            cell -= r
            dctx = d_ctx[rows] = d_c[rows] + dctx_next
            al = alpha[rows]
            if m == 1:  # plain products, the same numbers as the stacked ones
                d_alpha = att.block[0] @ dctx[0]
                d_score = al * (d_alpha - d_alpha @ al[0])
            else:
                d_alpha = np.matmul(att.block[:m], dctx[:, :, None])[:, :, 0]
                d_score = al * (d_alpha - np.matmul(d_alpha[:, None], al[:, :, None])[:, 0])
            # the cells' d score times K over v, summed per example for dq
            flat = d_score.reshape(-1)
            d_cell = d_cells[cells] = flat if r == m * att.width else flat[att.pad[:r]]
            e = e_all[cells]
            grad = e * e
            np.subtract(1.0, grad, out=grad)
            grad *= d_cell[:, None]
            d_proj_cat[:r] += grad
            dq = np.add.reduceat(grad, cell_starts[:m], axis=0)
            dq *= v_row
            d_query[rows] = dq
            dc_next = _lstm_back(factors, rows, d_s[rows] + ds_next + dq @ u_a_t, dc_next)
            before = factors[0][rows].reshape(m, 4 * n) @ back
            carried = before[:, :n], before[:, n:], dc_next
        dz = factors[0].reshape(-1, 4 * n)
        d_s0 = np.empty((batch, n))
        d_s0[pack.order] = carried[0]
        _accumulate(s0, d_s0)
        # enc's gradient per example, from its rows in the given order
        cuts = np.cumsum([len(i) for i in ids])[:-1]
        parts = zip(np.split(alpha[pack.rows], cuts), np.split(d_ctx[pack.rows], cuts), sizes)
        _accumulate(enc, np.concatenate([a[:, :size].T @ dc for a, dc, size in parts]))
        d_proj = np.empty(enc.shape)
        d_proj[att.rows] = d_proj_cat
        d_proj *= v_row
        _accumulate(enc_proj, d_proj)
        _accumulate(v_a, e_all.T @ d_cells.reshape(-1, 1))
        np.add.at(_grad_buffer(emb), idx, dz @ w_emb.T)
        _accumulate(W, np.concatenate([emb.data[idx], pack.before(ctx_all)], axis=1).T @ dz)
        _accumulate(U, pack.before(s_all, s_first).T @ dz)
        _accumulate(b, dz.sum(axis=0, keepdims=True))
        _accumulate(U_a, s_all.T @ d_query)
        _accumulate(b_a, d_query.sum(axis=0, keepdims=True))

    return _record(np.concatenate([s_all, ctx_all], axis=1)[pack.rows],
                   (s0, enc, enc_proj, emb, W, U, b, U_a, b_a, v_a), bwd)
