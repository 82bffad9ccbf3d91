"""References that the kernel tests compare the fused kernels with:
`decoder.decoder_batch` with the one-sentence decoder kernel that it replaced
and with that kernel composed from single-step kernels, `decoder.output_nll`
with the output layer and loss composed from single kernels, and
`tensor.gcn_layer` with its composed code."""
import numpy as np

from amrgen import decoder as D, tensor as T
from amrgen.tensor import Tensor

# the composed kernel of each GCN activation
COMPOSED_ACTIVATIONS = {"relu": T.relu, "tanh": T.tanh, "sigmoid": T.sigmoid}


def _composed_attention(q, enc, enc_proj, U, b, v):
    """Additive attention built from single kernels, one query row at a time."""
    rows = []
    for i in range(q.shape[0]):
        pre = T.add(T.add(enc_proj, T.matmul(T.slice_rows(q, i, i + 1), U)), b)
        alpha = T.softmax(T.transpose(T.matmul(T.tanh(pre), v)))
        rows.append(T.matmul(alpha, enc))
    return T.concat(rows, axis=0)


def composed_decoder_sequence(ids, s0, enc, enc_proj, emb, W, U, b, U_a, b_a, v_a):
    """The teacher-forced decoder one step at a time: per step an embedding
    lookup, a concat with the previous context, an LSTM step and attention."""
    n = U.shape[0]
    s, c, ctx = s0, Tensor(np.zeros((1, n))), Tensor(np.zeros((1, n)))
    s_rows, ctx_rows = [], []
    for prev in ids:
        x = T.concat([T.embedding_lookup(emb, [prev]), ctx], axis=1)
        state = T.lstm_step(x, s, c, W, U, b)
        s, c = T.slice_cols(state, 0, n), T.slice_cols(state, n, 2 * n)
        ctx = _composed_attention(s, enc, enc_proj, U_a, b_a, v_a)
        s_rows.append(s)
        ctx_rows.append(ctx)
    return T.concat([T.concat(s_rows), T.concat(ctx_rows)], axis=1)


def decoder_sequence(ids, s0, enc, enc_proj, emb, W, U, b, U_a, b_a, v_a):
    """The decoder's recurrence over one sentence as one tape entry: the
    per-example kernel that `decoder.decoder_batch` replaced. ids
    are the T input ids, emb the (V, d) table of their embeddings, s0 the
    (1, h) first hidden state; the cell and the context start at zero. W, U
    and b are the LSTM's weights over [y ; ctx], and U_a, b_a and v_a those
    of the attention over the (N, h) rows enc, as in `decoder._attend`. Row t of
    the (T, 2h) output is [s_t ; ctx_t], the output layer's input.

    emb[ids] W[:d] + b is one (T, d) @ (d, 4h) GEMM before the loop over the
    steps, each an LSTM step and attention over all encoder rows. Backward
    is one reverse loop through the attention and the LSTM gates that fills
    dZ, the gradient of the pre-activations, and the attention scores'
    gradients; the weight, encoder and embedding gradients then come from the
    stacked rows as GEMMs and one add.at.
    """
    idx = np.asarray(ids, dtype=np.intp)
    steps, d, n = len(idx), emb.shape[1], U.shape[0]
    if W.shape != (d + n, 4 * n) or s0.shape != (1, n) or enc_proj.shape != enc.shape:
        raise T.ShapeError(f"decoder_sequence shape mismatch: W {W.shape}, s0 {s0.shape}, "
                           f"enc {enc.shape}, enc_proj {enc_proj.shape}")
    x_emb = emb.data[idx]
    w_emb, w_ctx = W.data[:d], W.data[d:]
    xw = x_emb @ w_emb + b.data
    u, enc_d, u_a, v = U.data, enc.data, U_a.data, v_a.data
    s, c, ctx = s0.data, np.zeros((1, n)), np.zeros((1, n))
    rows = []
    for t in range(steps):
        s, c, sig, g = D._decoder_lstm(xw[t : t + 1], ctx, s, c, w_ctx, u)
        tc = np.tanh(c)
        ctx, e, alpha = D._attend(s, enc_d, enc_proj.data, u_a, b_a.data, v)
        rows.append((s, c, ctx, sig, g, tc, e, alpha))
    s_all, c_all, ctx_all, sig, g, tc, e, alpha = (np.concatenate(col) for col in zip(*rows))
    inputs = (s0, enc, enc_proj, emb, W, U, b, U_a, b_a, v_a)
    out = Tensor(np.concatenate([s_all, ctx_all], axis=1),
                 requires_grad=any(t.requires_grad for t in inputs))

    def bwd(d_out):
        zero = np.zeros((1, n))
        s_prev = np.concatenate([s0.data, s_all[:-1]])
        ctx_prev = np.concatenate([zero, ctx_all[:-1]])
        dsig = sig * (1.0 - sig)
        # dZ row t is [dc K_i, dc K_f, ds K_o, dc K_g] with dc, ds the step's
        # cell and hidden gradients; the K are fixed by the forward pass
        k = np.empty((steps, 4, n))
        k[:, 0] = g * dsig[:, :n]
        k[:, 1] = np.concatenate([zero, c_all[:-1]]) * dsig[:, n : 2 * n]
        k[:, 2] = tc * dsig[:, 2 * n :]
        k[:, 3] = sig[:, :n] * (1.0 - g * g)
        s_to_c = sig[:, 2 * n :] * (1.0 - tc * tc)
        f = sig[:, n : 2 * n]
        k_att = e * e  # becomes d score / d pre-activation = v (1 - e^2), (T, N, h)
        np.subtract(1.0, k_att, out=k_att)
        k_att *= v[:, 0]
        back = np.ascontiguousarray(np.concatenate([u, w_ctx]).T)  # dz -> [ds ; dctx] before
        u_a_t = np.ascontiguousarray(u_a.T)
        dz = np.empty((steps, 4, n))
        d_scores = np.empty(alpha.shape)
        d_query = np.empty((steps, u_a.shape[1]))  # gradient of s_t U_a
        d_ctx = np.empty((steps, n))
        d_s, d_c = d_out[:, :n], d_out[:, n:]
        ds_next, dctx_next, dc_next = np.zeros(n), np.zeros(n), np.zeros(n)
        for t in range(steps - 1, -1, -1):
            dctx = d_ctx[t] = d_c[t] + dctx_next
            a = alpha[t]
            d_alpha = enc_d @ dctx
            d_score = d_scores[t] = a * (d_alpha - d_alpha @ a)
            dq = d_query[t] = d_score @ k_att[t]
            ds = d_s[t] + ds_next + dq @ u_a_t
            dc = dc_next + ds * s_to_c[t]
            np.multiply(k[t], dc, out=dz[t])
            np.multiply(k[t, 2], ds, out=dz[t, 2])
            before = dz[t].reshape(-1) @ back
            ds_next, dctx_next = before[:n], before[n:]
            dc_next = dc * f[t]
        dz = dz.reshape(steps, 4 * n)
        if s0.requires_grad:
            T._accumulate(s0, ds_next[None])
        if enc.requires_grad:
            T._accumulate(enc, alpha.T @ d_ctx)
        if enc_proj.requires_grad:
            T._accumulate(enc_proj, np.einsum("tr,trh->rh", d_scores, k_att))
        if emb.requires_grad:
            np.add.at(T._grad_buffer(emb), idx, dz @ w_emb.T)
        if W.requires_grad:
            T._accumulate(W, np.concatenate([x_emb, ctx_prev], axis=1).T @ dz)
        if U.requires_grad:
            T._accumulate(U, s_prev.T @ dz)
        if b.requires_grad:
            T._accumulate(b, dz.sum(axis=0, keepdims=True))
        if U_a.requires_grad:
            T._accumulate(U_a, s_all.T @ d_query)
        if b_a.requires_grad:
            T._accumulate(b_a, d_query.sum(axis=0, keepdims=True))
        if v_a.requires_grad:
            T._accumulate(v_a, e.reshape(-1, e.shape[2]).T @ d_scores.reshape(-1, 1))

    T._record(out, bwd)
    return out


def output_nll(rows, ids, lengths, W_o, b_o, W_v, b_v):
    """The output layer, log-softmax and per-example mean NLL from single
    kernels: each example's picked log-probs summed as one column, scaled by
    -1 / its length, and the examples' losses added in order."""
    o = T.tanh(T.add(T.matmul(rows, W_o), b_o))
    log_probs = T.log_softmax(T.add(T.matmul(o, W_v), b_v))
    total, start = None, 0
    for length in lengths:
        picks = [T.pick(log_probs, t, ids[t]) for t in range(start, start + length)]
        loss = T.scale(T.sum_rows(T.concat(picks)), -1.0 / length)
        total = loss if total is None else T.add(total, loss)
        start += length
    return total


def gcn_layer(H, a_in, a_out, W_in, W_out, b, activation, W_t=None, b_t=None):
    """One GCN layer from single kernels; a_in and a_out are constant tensors
    and activation is a name in COMPOSED_ACTIVATIONS."""
    messages = T.add(
        T.add(T.matmul(a_in, T.matmul(H, W_in)), T.matmul(a_out, T.matmul(H, W_out))), b)
    out = COMPOSED_ACTIVATIONS[activation](messages)
    if W_t is None:
        return out
    t = T.sigmoid(T.add(T.matmul(H, W_t), b_t))
    one_minus = T.sub(Tensor(np.ones(t.shape)), t)
    return T.add(T.mul(t, T.tanh(out)), T.mul(one_minus, H))
