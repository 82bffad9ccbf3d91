"""Fused kernels rebuilt from single-step kernels: the references that the
kernel tests compare `tensor.decoder_sequence` and `tensor.gcn_layer` with.
Each is the composed code that the fused kernel replaced."""
import numpy as np

from amrgen import tensor as T
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


def decoder_sequence(ids, s0, enc, enc_proj, emb, W, U, b, U_a, b_a, v_a):
    """The teacher-forced decoder one step at a time: per step an embedding
    lookup, a concat with the previous context, an LSTM step and attention."""
    n = U.shape[0]
    s, c, ctx = s0, Tensor(np.zeros((1, n))), Tensor(np.zeros((1, n)))
    s_rows, ctx_rows = [], []
    for prev in ids:
        x = T.concat([T.embedding_lookup(emb, [prev]), ctx], axis=1)
        s, c = T.lstm_step(x, s, c, W, U, b)
        ctx = _composed_attention(s, enc, enc_proj, U_a, b_a, v_a)
        s_rows.append(s)
        ctx_rows.append(ctx)
    return T.concat([T.concat(s_rows), T.concat(ctx_rows)], axis=1)


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
