"""References that the kernel tests compare the fused kernels with:
`decoder.decoder_batch` with the one-sentence decoder kernel that it replaced
and with that kernel composed from single-step kernels, `decoder.output_nll`
with the output layer and loss composed from single kernels,
`tensor.gcn_layer` with its composed code, `tensor.bilstm_batch` with
`lstm_sequence`, one direction over one sequence, and the tree kernels with
the node-by-node kernels that they replaced."""
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
    att = D.EncoderRows(enc_d, enc_proj.data, [len(enc_d)], [0])
    e = np.empty((steps, len(enc_d), u_a.shape[1]))  # the attention activations
    rows = []
    for t in range(steps):
        sig, g, c, s = T._lstm_cell(xw[t : t + 1] + ctx @ w_ctx + s @ u, c)
        tc = np.tanh(c)
        ctx, _, alpha = D._attend(att, 1, s, u_a, b_a.data, v, out=e[t])
        rows.append((s, c, ctx, sig, g, tc, alpha))
    s_all, c_all, ctx_all, sig, g, tc, alpha = (np.concatenate(col) for col in zip(*rows))

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
        T._accumulate(s0, ds_next[None])
        T._accumulate(enc, alpha.T @ d_ctx)
        T._accumulate(enc_proj, np.einsum("tr,trh->rh", d_scores, k_att))
        np.add.at(T._grad_buffer(emb), idx, dz @ w_emb.T)
        T._accumulate(W, np.concatenate([x_emb, ctx_prev], axis=1).T @ dz)
        T._accumulate(U, s_prev.T @ dz)
        T._accumulate(b, dz.sum(axis=0, keepdims=True))
        T._accumulate(U_a, s_all.T @ d_query)
        T._accumulate(b_a, d_query.sum(axis=0, keepdims=True))
        T._accumulate(v_a, e.reshape(-1, e.shape[2]).T @ d_scores.reshape(-1, 1))

    return T._record(np.concatenate([s_all, ctx_all], axis=1),
                     (s0, enc, enc_proj, emb, W, U, b, U_a, b_a, v_a), bwd)


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


def gcn_layer(H, a_in, a_out, W_in, W_out, b, activation, W_t, b_t):
    """One GCN layer from single kernels; a_in and a_out are constant tensors
    and activation is a name in COMPOSED_ACTIVATIONS."""
    messages = T.add(
        T.add(T.matmul(a_in, T.matmul(H, W_in)), T.matmul(a_out, T.matmul(H, W_out))), b)
    out = COMPOSED_ACTIVATIONS[activation](messages)
    t = T.sigmoid(T.add(T.matmul(H, W_t), b_t))
    one_minus = T.sub(Tensor(np.ones(t.shape)), t)
    return T.add(T.mul(t, T.tanh(out)), T.mul(one_minus, H))


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
    entry: one direction of `tensor.bilstm_batch` over one sequence, the
    kernel that it replaced. Row t of the (N, hidden) output is the hidden state after reading
    rows 0..t, or rows t..N-1 when reverse.

    The input projection X W + b is one (N, d) @ (d, 4 hidden) matmul before
    the recurrence. Backward is one BPTT loop over the rows that fills dZ, the
    gradient of the pre-activations, then dX = dZ W^T, dW = X^T dZ and
    dU = H_prev^T dZ as three GEMMs.
    """
    if X.data.ndim != 2 or X.shape[1] != W.shape[0]:
        raise T.ShapeError(f"lstm_sequence shape mismatch: {X.shape} @ {W.shape}")
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
        s, g[t] = T._lstm_gates(xw[t] + h @ u, n)
        sig[t] = s
        c = s[n : 2 * n] * c + s[:n] * g[t]
        c_all[t] = c
        tc[t] = np.tanh(c)
        h = s[2 * n :] * tc[t]
        h_all[t] = h

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
        T._accumulate(X, dz @ W.data.T)
        T._accumulate(W, X.data.T @ dz)
        T._accumulate(U, _previous_rows(h_all, reverse).T @ dz)
        T._accumulate(b, dz.sum(axis=0, keepdims=True))

    return T._record(h_all, (X, W, U, b), bwd)


def tree_topology(node_count: int, edges, root: int):
    """children lists, parent indices and a post-order from root (every child
    before its parent); raises unless the edges form one tree rooted at root."""
    children = [[] for _ in range(node_count)]
    parent = [None] * node_count
    for u, v in edges:
        if parent[v] is not None:
            raise ValueError(
                "input is not a tree (a node has multiple parents); "
                "convert the graph with to_tree first"
            )
        parent[v] = u
        children[u].append(v)
    if parent[root] is not None:
        raise ValueError("input is not a tree (its root has a parent)")
    order = []
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            order.append(node)
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in children[node])
    if len(order) != node_count:
        raise ValueError("input is not a tree (some node is not below the root)")
    return children, parent, order


def tree_lstm_up_per_node(X: Tensor, W: Tensor, U: Tensor, Uf: Tensor, b: Tensor, children,
                          order) -> Tensor:
    """`tensor.tree_lstm_up` node by node over one tree, the kernel that the
    level-by-level one replaced. The bottom-up pass over the N rows of X as
    one tape entry: row j of the
    (N, hidden) output is node j's hidden state. children[j] lists node j's
    children, and order lists every node once, each child before its parent.

    X W + b is one matmul before the loop over the nodes. Backward is one loop
    from parents to children that fills dZ, the gradient of the
    pre-activations, then dX, dW, dU and dUf are GEMMs.
    """
    if X.data.ndim != 2 or X.shape[1] != W.shape[0]:
        raise T.ShapeError(f"tree_lstm_up shape mismatch: {X.shape} @ {W.shape}")
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
        T._accumulate(X, dz @ W.data.T)
        T._accumulate(W, X.data.T @ dz)
        T._accumulate(U, h_sum.T @ dz[:, : 3 * n])
        T._accumulate(Uf, h_all[kids].T @ dzf)
        T._accumulate(b, dz.sum(axis=0, keepdims=True))

    return T._record(h_all, (X, W, U, Uf, b), bwd)


def tree_lstm_down_per_node(H: Tensor, W: Tensor, U: Tensor, b: Tensor, Wr: Tensor, br: Tensor,
                            parent, order) -> Tensor:
    """`tensor.tree_lstm_down` node by node over one tree, the kernel that the
    level-by-level one replaced. The top-down pass over the (N, hidden)
    bottom-up states H as one tape entry, returning the (N, 2 hidden) rows
    [h_down ; H]. order is the bottom-up pass's order, so its last node is
    the root: the root gets h_down = tanh(H_root Wr + br) and a zero cell,
    and every other node v one LSTM step (gate order i, f, o, g) with input
    H[v], hidden state H[parent[v]] and its parent's top-down cell.

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
    sig, g = T._lstm_gates(z, n)
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
        dh = np.array(d_out[:, n:])
        dh[kids] += dz @ W.data.T
        np.add.at(dh, par, dz @ U.data.T)
        dh[root] += (d_root @ Wr.data.T)[0]
        T._accumulate(H, dh)
        T._accumulate(W, h[kids].T @ dz)
        T._accumulate(U, h[par].T @ dz)
        T._accumulate(b, dz.sum(axis=0, keepdims=True))
        T._accumulate(Wr, h[root : root + 1].T @ d_root)
        T._accumulate(br, d_root)

    return T._record(np.concatenate([down, h], axis=1), (H, W, U, b, Wr, br), bwd)
