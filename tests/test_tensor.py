"""Autodiff engine: kernels, tape semantics, optimizer, checkpoint archive.

Every differentiable kernel is checked against central finite differences on
random instances; the comparison itself is the oracle. relu inputs are kept
away from the kink, where finite differences are undefined.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amrgen import decoder as D, tensor as T
from amrgen.encoders import adjacency
from amrgen.tensor import ShapeError, Tensor
from amrgen.transforms import Forest

import reference_kernels


def _rand(rng, *shape):
    return rng.uniform(-1.0, 1.0, size=shape)


def _check(params, loss_fn, eps=1e-6, tol=1e-6):
    """Finite-difference check over every entry of every parameter."""
    with T.Tape() as tape:
        loss = loss_fn()
        T.backward(tape, loss)
    grads = [p.grad.copy() for p in params]
    for p in params:
        p.grad = None
    for p, g in zip(params, grads):
        it = np.nditer(p.data, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p.data[idx]
            p.data[idx] = orig + eps
            hi = loss_fn().data.item()
            p.data[idx] = orig - eps
            lo = loss_fn().data.item()
            p.data[idx] = orig
            fd = (hi - lo) / (2 * eps)
            assert abs(g[idx] - fd) <= tol * max(1.0, abs(fd)), (idx, g[idx], fd)
            it.iternext()


def _param(rng, *shape):
    return Tensor(_rand(rng, *shape), requires_grad=True)


# --------------------------------------------------------------------------
# Kernel gradients, 20 random instances each


@pytest.mark.parametrize("seed", range(20))
def test_matmul_grad(seed):
    rng = np.random.default_rng(seed)
    a, b = _param(rng, 3, 4), _param(rng, 4, 2)
    _check([a, b], lambda: T.sum_all(T.matmul(a, b)))


@pytest.mark.parametrize("seed", range(20))
def test_add_broadcast_grad(seed):
    rng = np.random.default_rng(seed)
    a, b = _param(rng, 3, 4), _param(rng, 1, 4)
    _check([a, b], lambda: T.sum_all(T.mul(T.add(a, b), T.add(a, b))))


@pytest.mark.parametrize("seed", range(20))
def test_mul_sub_scale_grad(seed):
    rng = np.random.default_rng(seed)
    a, b = _param(rng, 2, 5), _param(rng, 2, 5)
    _check([a, b], lambda: T.sum_all(T.scale(T.mul(a, T.sub(a, b)), 1.7)))


@pytest.mark.parametrize("seed", range(20))
def test_nonlinearity_grads(seed):
    rng = np.random.default_rng(seed)
    a = _param(rng, 3, 3)
    a.data += np.sign(a.data) * 0.05  # keep relu inputs off the kink
    _check([a], lambda: T.sum_all(T.tanh(a)))
    _check([a], lambda: T.sum_all(T.sigmoid(a)))
    _check([a], lambda: T.sum_all(T.mul(T.relu(a), T.relu(a))))


@pytest.mark.parametrize("seed", range(20))
def test_softmax_grads(seed):
    rng = np.random.default_rng(seed)
    a = _param(rng, 2, 5)
    w = Tensor(_rand(rng, 2, 5))
    _check([a], lambda: T.sum_all(T.mul(T.softmax(a), w)))
    _check([a], lambda: T.sum_all(T.mul(T.log_softmax(a), w)))


@pytest.mark.parametrize("seed", range(20))
def test_concat_slice_transpose_grads(seed):
    rng = np.random.default_rng(seed)
    a, b = _param(rng, 2, 3), _param(rng, 2, 3)

    def loss():
        joined = T.concat([a, b], axis=1)
        left = T.slice_cols(joined, 0, 4)
        rows = T.slice_rows(left, 0, 2)
        return T.sum_all(T.mul(T.transpose(rows), T.transpose(rows)))

    _check([a, b], loss)


@pytest.mark.parametrize("seed", range(20))
def test_concat_rows_sum_rows_pick_grads(seed):
    rng = np.random.default_rng(seed)
    a, b = _param(rng, 2, 4), _param(rng, 3, 4)

    def loss():
        joined = T.concat([a, b], axis=0)
        rowsum = T.sum_rows(joined)
        return T.add(T.pick(rowsum, 0, 1), T.sum_all(T.mul(joined, joined)))

    _check([a, b], loss)


@pytest.mark.parametrize("seed", range(20))
def test_embedding_lookup_grad(seed):
    rng = np.random.default_rng(seed)
    table = _param(rng, 6, 3)
    indices = [0, 2, 2, 5, 1]  # repeated index exercises scatter-add

    def loss():
        rows = T.embedding_lookup(table, indices)
        return T.sum_all(T.mul(rows, rows))

    _check([table], loss)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = Tensor(_rand(rng, 4, 7) * 10)
        out = T.softmax(a).data
        assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(out >= 0)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(1)
    a = Tensor(_rand(rng, 3, 5) * 5)
    assert np.allclose(T.log_softmax(a).data, np.log(T.softmax(a).data), atol=1e-12)


# --------------------------------------------------------------------------
# Dropout


def test_dropout_keep_one_is_identity():
    rng = np.random.default_rng(2)
    a = Tensor(_rand(rng, 4, 4))
    out = T.dropout(a, 1.0, rng.random(a.shape))
    assert np.array_equal(out.data, a.data)


def test_dropout_eval_mode_is_identity():
    a = Tensor(_rand(np.random.default_rng(3), 4, 4))
    out = T.dropout(a, 0.5, None)
    assert np.array_equal(out.data, a.data)


def test_dropout_scales_surviving_entries():
    rng = np.random.default_rng(4)
    a = Tensor(np.ones((50, 50)))
    out = T.dropout(a, 0.5, rng.random(a.shape)).data
    kept = out != 0.0
    assert np.allclose(out[kept], 2.0)  # inverted scaling by 1/keep
    rate = kept.mean()
    assert 0.4 < rate < 0.6


def test_dropout_invalid_keep():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        T.dropout(Tensor(np.ones((2, 2))), 0.0, rng.random((2, 2)))


def test_dropout_rejects_draws_of_another_shape():
    with pytest.raises(ShapeError):
        T.dropout(Tensor(np.ones((2, 2))), 0.5, np.full((2, 3), 0.1))


def test_dropout_grad_masks_match_forward():
    rng = np.random.default_rng(6)
    a = _param(rng, 5, 5)
    with T.Tape() as tape:
        out = T.dropout(a, 0.5, np.random.default_rng(7).random(a.shape))
        loss = T.sum_all(out)
        T.backward(tape, loss)
    # gradient is 1/keep where kept, 0 where dropped
    assert np.array_equal(a.grad != 0.0, out.data != 0.0)


# --------------------------------------------------------------------------
# Tape semantics


def test_backward_requires_scalar():
    a = _param(np.random.default_rng(0), 2, 2)
    with T.Tape() as tape:
        out = T.mul(a, a)
    with pytest.raises(ShapeError):
        T.backward(tape, out)


def test_tape_single_use():
    a = _param(np.random.default_rng(0), 2, 2)
    with T.Tape() as tape:
        loss = T.sum_all(a)
        T.backward(tape, loss)
    with pytest.raises(RuntimeError):
        T.backward(tape, loss)


def test_no_grad_outside_tape():
    a = _param(np.random.default_rng(0), 2, 2)
    out = T.sum_all(a)  # no active tape: forward only
    assert out.data.shape == (1, 1)


def test_grad_accumulates_across_tapes():
    a = _param(np.random.default_rng(0), 2, 2)
    for _ in range(2):
        with T.Tape() as tape:
            loss = T.sum_all(a)
            T.backward(tape, loss)
    assert np.allclose(a.grad, 2.0)


def test_shape_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError):
        T.matmul(_param(rng, 2, 3), _param(rng, 2, 3))
    with pytest.raises(ShapeError):
        T.add(_param(rng, 2, 3), _param(rng, 5, 4))


# --------------------------------------------------------------------------
# Parameter store and optimizer


def _packed(**shapes):
    """A packed store of zero parameters named and shaped as given."""
    store = T.ParamStore(np.random.default_rng(0))
    for name, shape in shapes.items():
        store.zeros(name, shape)
    store.pack()
    return store


def test_pack_makes_each_parameter_a_view_of_the_two_vectors():
    store = T.ParamStore(np.random.default_rng(8))
    store.uniform("a", (3, 4))
    store.zeros("b", (1, 4))
    store.uniform("c", (4, 1))
    before = {name: p.data.copy() for name, p in store.params.items()}
    store.pack()
    assert store.theta.shape == store.grad.shape == (20,)
    for name, p in store.params.items():
        assert np.shares_memory(p.data, store.theta), name
        assert np.shares_memory(p.grad, store.grad), name
        assert np.array_equal(p.data, before[name]), name
    # the views tile theta in creation order, without overlap
    assert np.array_equal(store.theta, np.concatenate([a.ravel() for a in before.values()]))


def test_backward_adds_into_the_packed_gradient():
    store = T.ParamStore(np.random.default_rng(1))
    w = store.uniform("w", (3, 2))
    store.pack()
    x = Tensor(_rand(np.random.default_rng(2), 4, 3))
    for _ in range(2):  # a second example's gradient adds to the first's
        with T.Tape() as tape:
            T.backward(tape, T.sum_all(T.matmul(x, w)))
    assert np.shares_memory(w.grad, store.grad)
    assert np.allclose(w.grad, 2.0 * x.data.T @ np.ones((4, 2)))


def test_store_rejects_a_name_that_is_taken():
    store = T.ParamStore(np.random.default_rng(0))
    store.uniform("decoder.W", (2, 2))
    with pytest.raises(ValueError, match="decoder.W"):
        store.zeros("decoder.W", (1, 2))


def test_uniform_param_range_and_zeros():
    # uniform draws come from the store's RNG in creation order
    store = T.ParamStore(np.random.default_rng(8))
    p = store.uniform("p", (50, 50))
    z = store.zeros("z", (3, 3))
    q = store.uniform("q", (2, 2))
    expected = np.random.default_rng(8)
    assert np.array_equal(p.data, expected.uniform(-0.1, 0.1, size=(50, 50)))
    assert np.array_equal(q.data, expected.uniform(-0.1, 0.1, size=(2, 2)))
    assert p.requires_grad and np.all(np.abs(p.data) <= 0.1) and p.data.std() > 0.01
    assert np.all(z.data == 0.0)


def test_sgd_step_applies_and_clears():
    store = _packed(a=(2, 2), b=(1, 3))
    a, b = store.params["a"], store.params["b"]
    a.grad[...] = 0.5
    b.grad[...] = -1.0
    T.sgd_step(store, lr=0.1)
    assert np.allclose(a.data, -0.05) and np.allclose(b.data, 0.1)
    assert not store.grad.any()
    assert np.shares_memory(a.grad, store.grad)  # cleared in place


def test_clip_grad_norm():
    store = _packed(a=(1, 3), b=(1, 1))
    a, b = store.params["a"], store.params["b"]
    a.grad[...] = [[3.0, 4.0, 0.0]]  # L2 norm 5
    b.grad[...] = 12.0
    total = T.clip_grad_norm(store, max_norm=5.0)
    assert abs(total - 13.0) < 1e-12  # sqrt(3^2 + 4^2 + 12^2)
    assert abs(np.linalg.norm(store.grad) - 5.0) < 1e-12
    assert np.allclose(a.grad, np.array([[3.0, 4.0, 0.0]]) * 5 / 13)


def test_clip_grad_norm_sums_per_parameter_in_creation_order():
    # the norm training logs, and the scale factor, keep the rounding of a
    # sum of per-parameter sums
    rng = np.random.default_rng(3)
    store = _packed(a=(7, 5), b=(1, 5), c=(5, 9))
    store.grad[...] = rng.normal(size=store.grad.shape) * 10.0 ** rng.integers(-8, 8, size=85)
    expected = sum(float((p.grad * p.grad).sum()) for p in store.params.values()) ** 0.5
    assert T.clip_grad_norm(store, max_norm=1e9) == expected


def test_clip_grad_norm_no_clip_below_threshold():
    store = _packed(a=(1, 2))
    store.grad[...] = [0.3, 0.4]
    T.clip_grad_norm(store, max_norm=5.0)
    assert np.allclose(store.grad, [0.3, 0.4])


# --------------------------------------------------------------------------
# Checkpoint archive


def test_save_load_arrays_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    arrays = {"w": _rand(rng, 3, 4), "b": _rand(rng, 1, 4)}
    manifest = {"note": "x", "count": 2}
    path = tmp_path / "ck.bin"
    T.save_arrays(path, manifest, arrays)
    got_manifest, got_arrays = T.load_arrays(path)
    assert got_manifest["note"] == "x"
    assert set(got_arrays) == {"w", "b"}
    for k in arrays:
        assert np.array_equal(got_arrays[k], arrays[k])


def test_save_arrays_byte_deterministic(tmp_path):
    rng = np.random.default_rng(10)
    arrays = {"w": _rand(rng, 5, 5)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    T.save_arrays(p1, {"k": 1}, arrays)
    T.save_arrays(p2, {"k": 1}, arrays)
    assert p1.read_bytes() == p2.read_bytes()


# --------------------------------------------------------------------------
# Fused LSTM kernels


def _composed_lstm_step(x, h, c, W, U, b):
    """The LSTM step built from single kernels: the reference for the fused ones."""
    z = T.add(T.add(T.matmul(x, W), T.matmul(h, U)), b)
    n = h.shape[1]
    i = T.sigmoid(T.slice_cols(z, 0, n))
    f = T.sigmoid(T.slice_cols(z, n, 2 * n))
    o = T.sigmoid(T.slice_cols(z, 2 * n, 3 * n))
    g = T.tanh(T.slice_cols(z, 3 * n, 4 * n))
    c_next = T.add(T.mul(f, c), T.mul(i, g))
    return T.mul(o, T.tanh(c_next)), c_next


def _composed_lstm_sequence(X, W, U, b, reverse):
    n = U.shape[0]
    order = range(X.shape[0] - 1, -1, -1) if reverse else range(X.shape[0])
    h, c = Tensor(np.zeros((1, n))), Tensor(np.zeros((1, n)))
    states = {}
    for t in order:
        h, c = _composed_lstm_step(T.slice_rows(X, t, t + 1), h, c, W, U, b)
        states[t] = h
    return T.concat([states[t] for t in range(X.shape[0])], axis=0)


def _lstm_params(rng, rows, d, n):
    return (_param(rng, rows, d), _param(rng, d, 4 * n), _param(rng, n, 4 * n),
            _param(rng, 1, 4 * n))


@pytest.mark.parametrize("outputs", ["both", "h", "c"])
@pytest.mark.parametrize("seed", range(5))
def test_lstm_step_grad(seed, outputs):
    rng = np.random.default_rng(seed)
    rows, d, n = (int(v) for v in rng.integers(1, 5, size=3))
    x, W, U, b = _lstm_params(rng, rows, d, n)
    h, c = _param(rng, rows, n), _param(rng, rows, n)
    wh, wc = Tensor(_rand(rng, rows, n)), Tensor(_rand(rng, rows, n))

    def loss():
        state = T.lstm_step(x, h, c, W, U, b)
        h_next, c_next = T.slice_cols(state, 0, n), T.slice_cols(state, n, 2 * n)
        if outputs == "h":
            return T.sum_all(T.mul(h_next, wh))
        if outputs == "c":
            return T.sum_all(T.mul(c_next, wc))
        return T.add(T.sum_all(T.mul(h_next, wh)), T.sum_all(T.mul(c_next, wc)))

    _check([x, h, c, W, U, b], loss)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 5), d=st.integers(1, 5), n=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_lstm_step_gradients_match_the_composed_step(rows, d, n, seed):
    """lstm_step's backward, the one that the packed kernels share, gives
    the composed kernels' gradients of all six inputs up to rounding."""
    rng = np.random.default_rng(seed)
    x, W, U, b = _lstm_params(rng, rows, d, n)
    h, c = _param(rng, rows, n), _param(rng, rows, n)
    inputs = (x, h, c, W, U, b)
    wh, wc = Tensor(_rand(rng, rows, n)), Tensor(_rand(rng, rows, n))

    def gradients(step):
        for t in inputs:
            t.grad = None
        with T.Tape() as tape:
            h_next, c_next = step()
            T.backward(tape, T.add(T.sum_all(T.mul(h_next, wh)), T.sum_all(T.mul(c_next, wc))))
        return [t.grad for t in inputs]

    def fused():
        state = T.lstm_step(*inputs)
        return T.slice_cols(state, 0, n), T.slice_cols(state, n, 2 * n)

    composed = gradients(lambda: _composed_lstm_step(*inputs))
    for got, want in zip(gradients(fused), composed):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("rows", [1, 2, 6])
def test_lstm_sequence_grad(rows, reverse):
    rng = np.random.default_rng(rows + 10 * reverse)
    d, n = (int(v) for v in rng.integers(1, 5, size=2))
    X, W, U, b = _lstm_params(rng, rows, d, n)
    w = Tensor(_rand(rng, rows, n))
    _check([X, W, U, b],
           lambda: T.sum_all(T.mul(reference_kernels.lstm_sequence(X, W, U, b, reverse), w)))


@pytest.mark.parametrize("seed", range(5))
def test_fused_lstm_forward_matches_composed(seed):
    rng = np.random.default_rng(seed)
    rows, d, n = 3, 5, 4
    x, W, U, b = _lstm_params(rng, rows, d, n)
    h, c = _param(rng, rows, n), _param(rng, rows, n)
    fused = T.lstm_step(x, h, c, W, U, b).data
    composed = _composed_lstm_step(x, h, c, W, U, b)
    assert fused.shape == (rows, 2 * n)
    for got, want in zip((fused[:, :n], fused[:, n:]), composed):
        assert np.abs(got - want.data).max() <= 1e-12
    X = _param(rng, 7, d)
    for reverse in (False, True):
        fused = reference_kernels.lstm_sequence(X, W, U, b, reverse).data
        composed = _composed_lstm_sequence(X, W, U, b, reverse).data
        assert fused.shape == (7, n)
        assert np.abs(fused - composed).max() <= 1e-12


def test_lstm_step_is_one_tape_entry():
    rng = np.random.default_rng(0)
    x, W, U, b = _lstm_params(rng, 1, 3, 2)
    zero = Tensor(np.zeros((1, 2)))
    with T.Tape() as tape:
        state = T.lstm_step(x, zero, zero, W, U, b)
        reference_kernels.lstm_sequence(x, W, U, b)
    assert len(tape) == 2
    assert state.shape == (1, 4) and state.requires_grad


def _bilstm_inputs(rng, lengths, d, n):
    """X over sequences of the given lengths, then each direction's W, U and b."""
    shapes = ((d, 4 * n), (n, 4 * n), (1, 4 * n)) * 2
    return _param(rng, sum(lengths), d), [_param(rng, *shape) for shape in shapes]


def _per_sequence_bilstm(X, lengths, weights):
    """The reference: lstm_sequence forward and in reverse over each
    sequence's rows."""
    W_f, U_f, b_f, W_b, U_b, b_b = weights
    rows, start = [], 0
    for length in lengths:
        x = T.slice_rows(X, start, start + length)
        rows.append(T.concat([reference_kernels.lstm_sequence(x, W_f, U_f, b_f),
                              reference_kernels.lstm_sequence(x, W_b, U_b, b_b, reverse=True)],
                             axis=1))
        start += length
    return T.concat(rows)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6),
       d=st.integers(1, 4), n=st.integers(1, 4))
def test_bilstm_batch_matches_the_per_sequence_kernels(seed, lengths, d, n):
    """bilstm_batch equals lstm_sequence run on each sequence in each
    direction: its output bit for bit in any batch, with or without a tape,
    and its gradients bit for bit for one sequence and within 1e-12 of the
    per-sequence ones summed for more."""
    rng = np.random.default_rng(seed)
    X, weights = _bilstm_inputs(rng, lengths, d, n)
    inputs = [X, *weights]
    w = Tensor(_rand(rng, sum(lengths), 2 * n))
    got, got_grads, entries = _values_and_grads(
        lambda: T.bilstm_batch(X, lengths, *weights), inputs, w)
    want, want_grads, _ = _values_and_grads(
        lambda: _per_sequence_bilstm(X, lengths, weights), inputs, w)
    assert entries == 3  # the kernel, mul and sum_all
    assert np.array_equal(got, want)
    assert np.array_equal(T.bilstm_batch(X, lengths, *weights).data, want)
    for got_grad, want_grad in zip(got_grads, want_grads):
        if len(lengths) == 1:
            assert np.array_equal(got_grad, want_grad)
        else:
            assert _relative_error(got_grad, want_grad) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_bilstm_batch_grad(seed):
    rng = np.random.default_rng(seed)
    lengths = [3, 1, 4]  # unequal, and one of a single row
    X, weights = _bilstm_inputs(rng, lengths, 3, 2)
    w = Tensor(_rand(rng, sum(lengths), 4))
    _check([X, *weights], lambda: T.sum_all(T.mul(T.bilstm_batch(X, lengths, *weights), w)))


def test_bilstm_batch_rejects_mismatched_inputs():
    rng = np.random.default_rng(0)
    X, weights = _bilstm_inputs(rng, [2, 3], 3, 2)
    for lengths in ([2, 2], [5, 0], []):
        with pytest.raises(ShapeError):
            T.bilstm_batch(X, lengths, *weights)
    with pytest.raises(ShapeError):
        T.bilstm_batch(X, [5], _param(rng, 2, 8), *weights[1:])
    with pytest.raises(ShapeError):
        T.bilstm_batch(X, [5], *weights[:4], _param(rng, 3, 8), weights[5])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=8))
def test_packing_puts_each_position_at_its_step(lengths):
    """Every position of every sequence lands at its step in its rank's
    place. The index arrays and the one-sequence slices are read through
    the same gathers, so both must select the rows checked here."""
    pack = T.Packing(lengths)
    total = sum(lengths)
    assert pack.order == sorted(range(len(lengths)), key=lambda j: (-lengths[j], j))
    assert pack.lengths == sorted(lengths, reverse=True)
    assert pack.running == [sum(length > t for length in lengths) for t in range(max(lengths))]
    assert [(s.start, s.stop - s.start) for s in pack.steps] == [
        (sum(pack.running[:t]), m) for t, m in enumerate(pack.running)]
    packed = np.arange(total)
    rows, reversed_rows = packed[pack.rows], packed[pack.reversed_rows]
    previous = packed[pack.previous]
    assert sorted(rows) == sorted(reversed_rows) == list(range(total))
    assert len(previous) == total - pack.running[0]
    for rank, j in enumerate(pack.order):
        start = sum(lengths[:j])
        for t in range(lengths[j]):
            assert rows[start + t] == pack.steps[t].start + rank
            assert reversed_rows[start + t] == pack.steps[lengths[j] - 1 - t].start + rank
            if t:
                assert previous[rows[start + t] - pack.running[0]] == rows[start + t - 1]
    earlier = pack.before(packed.astype(float), -1.0)
    assert (earlier[: pack.running[0]] == -1.0).all()
    assert np.array_equal(earlier[pack.running[0] :], previous)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spans=st.lists(st.tuples(st.integers(0, 9), st.integers(1, 8)), min_size=1, max_size=6))
def test_encoder_rows_put_each_cell_in_its_rank_place(spans):
    """Each rank's cells read its encoder rows in order, at its row of the
    padded block, and padded() puts -inf exactly on the padding. A rank
    alone gets slices, which must read the same rows as the index arrays
    of the rank among others."""
    starts, sizes = (list(col) for col in zip(*spans))
    rng = np.random.default_rng(len(spans))
    enc, enc_proj = (_rand(rng, max(a + n for a, n in spans), 3) for _ in range(2))
    att = D.EncoderRows(enc, enc_proj, sizes, starts)
    width, cells = max(sizes), sum(sizes)
    assert att.width == width and att.cell_starts == [0, *np.cumsum(sizes).tolist()]
    rows, pad = np.arange(len(enc))[att.rows], np.arange(len(sizes) * width)[att.pad]
    assert len(rows) == len(pad) == cells
    if len(sizes) > 1:
        assert att.row_rank.tolist() == [k for k, n in enumerate(sizes) for _ in range(n)]
    for k, (start, size) in enumerate(spans):
        here = slice(att.cell_starts[k], att.cell_starts[k + 1])
        assert rows[here].tolist() == list(range(start, start + size))
        assert pad[here].tolist() == list(range(k * width, k * width + size))
        assert np.array_equal(att.block[k, :size], enc[start : start + size])
        assert not att.block[k, size:].any()
        alone = D.EncoderRows(enc, enc_proj, [size], [start])
        assert np.array_equal(enc[alone.rows], enc[rows[here]])
        assert np.array_equal(alone.proj, att.proj[here])
        assert np.array_equal(np.arange(size)[alone.pad], pad[here] - k * width)
        assert np.array_equal(alone.block[0], att.block[k, :size])
    assert np.array_equal(att.proj, enc_proj[rows])
    for m in range(1, len(sizes) + 1):  # _attend pads a step's scores where it has padding
        r = att.cell_starts[m]
        if r == m * width:
            continue
        block = att.padded(np.arange(r, dtype=float), m, r)
        assert block.shape == (m, width)
        for k in range(m):
            here = np.arange(att.cell_starts[k], att.cell_starts[k + 1], dtype=float)
            assert np.array_equal(block[k, : sizes[k]], here)
            assert np.isneginf(block[k, sizes[k] :]).all()


def _composed_initial_state(enc, W, b):
    """The first decoder state of one example from single kernels."""
    mean = T.scale(T.sum_rows(enc), 1.0 / enc.shape[0])
    return T.tanh(T.add(T.matmul(mean, W), b))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), sizes=st.lists(st.integers(1, 8), min_size=1, max_size=5),
       h=st.integers(1, 5))
def test_initial_state_matches_composed(seed, sizes, h):
    """initial_state equals the composed kernels on each example's rows, bit
    for bit; so do its gradients for one example, and for more they are
    within 1e-12 of the per-example ones summed."""
    rng = np.random.default_rng(seed)
    enc, W, b = _param(rng, sum(sizes), h), _param(rng, h, h), _param(rng, 1, h)
    w = Tensor(_rand(rng, len(sizes), h))
    starts = np.cumsum(sizes) - sizes
    got, got_grads, entries = _values_and_grads(
        lambda: D.initial_state(enc, sizes, W, b), [enc, W, b], w)
    want, want_grads, _ = _values_and_grads(lambda: T.concat([
        _composed_initial_state(T.slice_rows(enc, a, a + size), W, b)
        for a, size in zip(starts, sizes)]), [enc, W, b], w)
    assert entries == 3
    assert np.array_equal(got, want)
    for got_grad, want_grad in zip(got_grads, want_grads):
        if len(sizes) == 1:
            assert np.array_equal(got_grad, want_grad)
        else:
            assert _relative_error(got_grad, want_grad) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_initial_state_grad(seed):
    rng = np.random.default_rng(seed)
    sizes = [2, 1, 3]
    enc, W, b = _param(rng, 6, 3), _param(rng, 3, 3), _param(rng, 1, 3)
    w = Tensor(_rand(rng, 3, 3))
    _check([enc, W, b], lambda: T.sum_all(T.mul(D.initial_state(enc, sizes, W, b), w)))


def test_initial_state_rejects_mismatched_sizes():
    rng = np.random.default_rng(0)
    enc, W, b = _param(rng, 4, 2), _param(rng, 2, 2), _param(rng, 1, 2)
    for sizes in ([2, 1], [4, 0], []):
        with pytest.raises(ShapeError):
            D.initial_state(enc, sizes, W, b)


def test_constant_operands_get_no_gradient():
    rng = np.random.default_rng(1)
    a, k, w = Tensor(_rand(rng, 3, 3)), Tensor(_rand(rng, 3, 2)), _param(rng, 3, 2)
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(k, T.add(T.matmul(a, w), k)))
        T.backward(tape, loss)
    assert a.grad is None and k.grad is None
    assert np.allclose(w.grad, a.data.T @ k.data)


def _fused_kernel_cases(rng):
    """name -> (the fused kernel as a function of its tensor operands, the operands)."""
    n = 3
    forest = Forest.join([Forest.tree(4, [(0, 1), (0, 2), (2, 3)], 0), Forest.tree(1, [], 0),
                          Forest.tree(3, [(1, 0), (1, 2)], 1)])
    x, W, U, b = _lstm_params(rng, 2, 3, n)
    X, bilstm = _bilstm_inputs(rng, [3, 1, 2], 2, n)
    tree = _tree_params(rng, 8, 2, n)
    a_in, a_out, gcn = _gcn_inputs(rng, 5, 7, n)
    examples, weights = _decoder_batch_inputs(rng, [3, 1, 2], [2, 3, 1], 4, 2, n)
    ids, s0, enc, enc_proj, sizes = _joined(examples)
    out_ids, out_lengths, output = _output_inputs(rng, 5, n, 4, 2)
    return {
        "matmul": (T.matmul, [_param(rng, 3, 4), _param(rng, 4, 2)]),
        "lstm_step": (T.lstm_step, [x, _param(rng, 2, n), _param(rng, 2, n), W, U, b]),
        "bilstm_batch": (lambda X, *w: T.bilstm_batch(X, [3, 1, 2], *w), [X, *bilstm]),
        "tree_lstm_up": (lambda *p: T.tree_lstm_up(*p, forest), [tree[k] for k in UP]),
        "tree_lstm_down": (lambda *p: T.tree_lstm_down(*p, forest), [tree[k] for k in DOWN]),
        "gcn_layer": (lambda H, *w: _fused_gcn(a_in, a_out, [H, *w], "tanh"), gcn),
        "initial_state": (lambda e, W, b: D.initial_state(e, [2, 1, 3], W, b),
                          [_param(rng, 6, n), _param(rng, n, n), _param(rng, 1, n)]),
        "decoder_batch": (lambda *t: D.decoder_batch(ids, t[0], t[1], t[2], sizes, *t[3:]),
                          [s0, enc, enc_proj, *weights]),
        "output_nll": (lambda *t: D.output_nll(t[0], out_ids, out_lengths, *t[1:]), list(output)),
    }


@pytest.mark.parametrize("name", ["matmul", "lstm_step", "bilstm_batch", "tree_lstm_up",
                                  "tree_lstm_down", "gcn_layer", "initial_state",
                                  "decoder_batch", "output_nll"])
def test_a_constant_operand_of_a_fused_kernel_gets_no_gradient(name):
    """Made constant, each operand in turn keeps no gradient, and every
    other operand gets the bits that it gets when all are trainable."""
    rng = np.random.default_rng(11)
    kernel, operands = _fused_kernel_cases(rng)[name]
    w = Tensor(_rand(rng, *kernel(*operands).shape))
    _, want, _ = _values_and_grads(lambda: kernel(*operands), operands, w)
    for constant in operands:
        constant.requires_grad = False
        _, got, _ = _values_and_grads(lambda: kernel(*operands), operands, w)
        constant.requires_grad = True
        for t, got_grad, want_grad in zip(operands, got, want):
            assert got_grad is None if t is constant else np.array_equal(got_grad, want_grad)


def test_first_gradient_is_a_copy_not_an_alias():
    # add hands x and y the same upstream array; if both stored it, the
    # gradient that x receives later from x * x would land in y.grad too
    rng = np.random.default_rng(2)
    x, y = _param(rng, 2, 3), _param(rng, 2, 3)
    with T.Tape() as tape:
        square = T.mul(x, x)
        loss = T.add(T.sum_all(square), T.sum_all(T.add(x, y)))
        T.backward(tape, loss)
    assert np.allclose(x.grad, 2.0 * x.data + 1.0)
    assert np.allclose(y.grad, 1.0)


def test_backward_releases_each_entry_once_it_has_run():
    import gc
    import weakref

    rng = np.random.default_rng(5)
    x = _param(rng, 2, 3)
    store = T.ParamStore(rng)
    W, U, b = store.uniform("W", (3, 8)), store.uniform("U", (2, 8)), store.zeros("b", (1, 8))
    output = (store.uniform("W_o", (2, 3)), store.zeros("b_o", (1, 3)),
              store.uniform("W_v", (3, 4)), store.zeros("b_v", (1, 4)))
    store.pack()
    gc.disable()
    try:
        with T.Tape() as tape:
            zero = Tensor(np.zeros((2, 2)))
            state = T.lstm_step(x, zero, zero, W, U, b)
            h = T.slice_cols(state, 0, 2)
            loss = D.output_nll(h, [1, 3], [2], *output)
        entries = len(tape)
        # arrays that only a kernel's backward closure holds: the LSTM's
        # sigmoid gates and the output layer's log-probs
        saved = {name: weakref.ref(cell.cell_contents)
                 for _, fn in tape._ops for name, cell in zip(fn.__code__.co_freevars,
                                                               fn.__closure__)
                 if name in ("sig", "log_probs")}
        assert sorted(saved) == ["log_probs", "sig"]
        assert all(ref() is not None for ref in saved.values())
        T.backward(tape, loss)
        assert len(tape) == entries
        assert all(ref() is None for ref in saved.values())
        for t in (state, h, loss):  # intermediate outputs
            assert t.grad is None
        assert x.grad is not None and np.isfinite(x.grad).all()
        for p in (W, U, b, *output):  # parameter gradients stay views of the packed vector
            assert np.shares_memory(p.grad, store.grad)
        assert store.grad.any()
    finally:
        gc.enable()


def test_tape_is_freed_without_the_cycle_collector():
    # no kernel's backward closure may capture the tape or anything that
    # refers to it: each training example's tape, with all its arrays, would
    # then live until the cyclic garbage collector ran
    import gc
    import weakref

    rng = np.random.default_rng(4)
    x = Tensor(_rand(rng, 1, 3))
    store = T.ParamStore(rng)
    W, U, b = store.uniform("W", (3, 8)), store.uniform("U", (2, 8)), store.zeros("b", (1, 8))
    gc.disable()
    try:
        with T.Tape() as tape:
            zero = Tensor(np.zeros((1, 2)))
            state = T.lstm_step(x, zero, zero, W, U, b)
            loss = T.sum_all(T.matmul(state, store.uniform("V", (4, 2))))
            T.backward(tape, loss)
        ref = weakref.ref(tape)
        del tape, state, loss
        assert ref() is None
    finally:
        gc.enable()


# --------------------------------------------------------------------------
# Output layer and loss kernel


def _output_inputs(rng, rows, h, vocab, examples):
    """rows split into examples of random lengths, their target ids, and the
    output layer's rows and weights."""
    cuts = sorted(rng.choice(np.arange(1, rows), size=examples - 1, replace=False).tolist())
    lengths = np.diff([0, *cuts, rows]).tolist()
    ids = rng.integers(0, vocab, size=rows).tolist()
    tensors = (_param(rng, rows, 2 * h), _param(rng, 2 * h, h), _param(rng, 1, h),
               _param(rng, h, vocab), _param(rng, 1, vocab))
    return ids, lengths, tensors


@pytest.mark.parametrize("seed", range(10))
def test_mean_nll_grad(seed):
    # the mean NLL as output_nll computes it, through the output layer
    rng = np.random.default_rng(seed)
    rows, h, vocab = (int(v) for v in rng.integers(1, 6, size=3))
    ids, lengths, tensors = _output_inputs(rng, rows, h, vocab, int(rng.integers(1, rows + 1)))
    _check(list(tensors), lambda: D.output_nll(tensors[0], ids, lengths, *tensors[1:]))


def _assert_output_nll_matches_composed(ids, lengths, tensors):
    """One entry with the composed kernels' loss and all five gradients, bit
    for bit."""
    results = []
    for kernel in (D.output_nll, reference_kernels.output_nll):
        for t in tensors:
            t.grad = None
        with T.Tape() as tape:
            loss = kernel(tensors[0], ids, lengths, *tensors[1:])
            T.backward(tape, loss)
        results.append((len(tape), loss.data, [t.grad for t in tensors]))
    (entries, loss, grads), (_, want_loss, want_grads) = results
    assert entries == 1 and loss.shape == (1, 1)
    assert np.array_equal(loss, want_loss)
    for got, want in zip(grads, want_grads):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(5))
def test_mean_nll_matches_composed(seed):
    # the mean NLL over one or more examples, as output_nll computes it
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 12))
    examples = int(rng.integers(1, min(rows, 4) + 1))
    _assert_output_nll_matches_composed(*_output_inputs(rng, rows, 3, 5, examples))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), rows=st.integers(1, 12), h=st.integers(1, 5),
       vocab=st.integers(1, 8), data=st.data())
def test_output_nll_matches_composed(seed, rows, h, vocab, data):
    examples = data.draw(st.integers(1, min(rows, 4)))
    _assert_output_nll_matches_composed(
        *_output_inputs(np.random.default_rng(seed), rows, h, vocab, examples))


def test_mean_nll_rejects_a_row_count_mismatch():
    rng = np.random.default_rng(0)
    ids, lengths, (rows, *weights) = _output_inputs(rng, 3, 2, 4, 1)
    with pytest.raises(ShapeError):
        D.output_nll(rows, ids[:2], [2], *weights)
    with pytest.raises(ShapeError):
        D.output_nll(rows, ids, [2], *weights)
    with pytest.raises(ShapeError):
        D.output_nll(rows, ids, lengths, weights[2], *weights[1:])


# --------------------------------------------------------------------------
# Fused Child-Sum TreeLSTM kernels


def _composed_tree_lstm_up(X, W, U, Uf, b, children, order):
    """The bottom-up pass built from single kernels, node by node: the
    reference for the fused kernel."""
    n = Uf.shape[0]
    projected = T.add(T.matmul(X, W), b)
    h, c = {}, {}
    for node in order:
        wx = T.slice_rows(projected, node, node + 1)
        gates = wx
        if children[node]:
            h_sum = T.sum_rows(T.concat([h[k] for k in children[node]], axis=0))
            gates = T.add(T.slice_cols(wx, 0, 3 * n), T.matmul(h_sum, U))
        i = T.sigmoid(T.slice_cols(gates, 0, n))
        o = T.sigmoid(T.slice_cols(gates, n, 2 * n))
        u = T.tanh(T.slice_cols(gates, 2 * n, 3 * n))
        cell = T.mul(i, u)
        fx = T.slice_cols(wx, 3 * n, 4 * n)
        for k in children[node]:
            f_k = T.sigmoid(T.add(fx, T.matmul(h[k], Uf)))
            cell = T.add(cell, T.mul(f_k, c[k]))
        h[node], c[node] = T.mul(o, T.tanh(cell)), cell
    return T.concat([h[j] for j in range(X.shape[0])], axis=0)


def _composed_tree_lstm_down(H, W, U, b, Wr, br, parent, order):
    root, n = order[-1], H.shape[1]
    rows = [T.slice_rows(H, j, j + 1) for j in range(H.shape[0])]
    down = {root: T.tanh(T.add(T.matmul(rows[root], Wr), br))}
    cells = {root: Tensor(np.zeros((1, n)))}
    for node in reversed(order[:-1]):
        down[node], cells[node] = _composed_lstm_step(
            rows[node], rows[parent[node]], cells[parent[node]], W, U, b)
    return T.concat([T.concat([down[j] for j in range(H.shape[0])], axis=0), H], axis=1)


@st.composite
def trees(draw):
    """(children, parent, order, forest) of a tree of 1 to 12 nodes: a random
    one, a chain or a star, with shuffled node numbers."""
    count = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["random", "chain", "star"]))
    if shape == "chain":
        parents = list(range(count - 1))
    elif shape == "star":
        parents = [0] * (count - 1)
    else:
        parents = [draw(st.integers(0, i)) for i in range(count - 1)]
    label = draw(st.permutations(range(count)))
    edges = [(label[p], label[i + 1]) for i, p in enumerate(parents)]
    return (*reference_kernels.tree_topology(count, edges, label[0]),
            Forest.tree(count, edges, label[0]))


def _tree_params(rng, rows, d, n):
    return {"X": _param(rng, rows, d), "W": _param(rng, d, 4 * n), "U": _param(rng, n, 3 * n),
            "Uf": _param(rng, n, n), "b": _param(rng, 1, 4 * n), "H": _param(rng, rows, n),
            "Wd": _param(rng, n, 4 * n), "Ud": _param(rng, n, 4 * n), "bd": _param(rng, 1, 4 * n),
            "Wr": _param(rng, n, n), "br": _param(rng, 1, n)}


def _up_args(p, *topology):
    return (p["X"], p["W"], p["U"], p["Uf"], p["b"], *topology)


def _down_args(p, *topology):
    return (p["H"], p["Wd"], p["Ud"], p["bd"], p["Wr"], p["br"], *topology)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(tree=trees(), seed=st.integers(0, 2**16), dims=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_tree_lstm_kernels_grad(tree, seed, dims):
    children, parent, order, forest = tree
    rng = np.random.default_rng(seed)
    p = _tree_params(rng, len(order), *dims)
    w_up = Tensor(_rand(rng, len(order), dims[1]))
    w_down = Tensor(_rand(rng, len(order), 2 * dims[1]))
    _check([p[k] for k in ("X", "W", "U", "Uf", "b")],
           lambda: T.sum_all(T.mul(T.tree_lstm_up(*_up_args(p, forest)), w_up)))
    _check([p[k] for k in ("H", "Wd", "Ud", "bd", "Wr", "br")],
           lambda: T.sum_all(T.mul(T.tree_lstm_down(*_down_args(p, forest)), w_down)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(tree=trees(), seed=st.integers(0, 2**16))
def test_tree_lstm_kernels_match_composed(tree, seed):
    children, parent, order, forest = tree
    p = _tree_params(np.random.default_rng(seed), len(order), 5, 4)
    with T.Tape() as tape:
        up = T.tree_lstm_up(*_up_args(p, forest))
        down = T.tree_lstm_down(*_down_args(p, forest))
    assert len(tape) == 2
    assert up.shape == (len(order), 4) and down.shape == (len(order), 8)
    want_up = _composed_tree_lstm_up(*_up_args(p, children, order))
    want_down = _composed_tree_lstm_down(*_down_args(p, parent, order))
    assert np.abs(up.data - want_up.data).max() <= 1e-12
    assert np.abs(down.data - want_down.data).max() <= 1e-12


@st.composite
def forests(draw):
    """1 to 5 trees of `trees` side by side: the trees and their Forest."""
    parts = draw(st.lists(trees(), min_size=1, max_size=5))
    return parts, Forest.join([tree[3] for tree in parts])


def _per_tree(kernel, p, names, parts, topology):
    """kernel, one of the node-by-node references, run on each tree's rows
    of p[names[0]] with the weights p[names[1:]] and the tree's topology."""
    outs, start = [], 0
    for part in parts:
        rows = T.slice_rows(p[names[0]], start, start + len(part[2]))
        outs.append(kernel(rows, *(p[k] for k in names[1:]), *topology(part)))
        start += len(part[2])
    return T.concat(outs)


UP, DOWN = ("X", "W", "U", "Uf", "b"), ("H", "Wd", "Ud", "bd", "Wr", "br")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(forest=forests(), seed=st.integers(0, 2**16), d=st.integers(1, 3), n=st.integers(2, 3))
def test_tree_lstm_kernels_over_a_forest_match_the_per_node_kernels(forest, seed, d, n):
    """Both passes over a forest equal the node-by-node kernels run on each
    tree: their output bit for bit (numpy sums a node's children in order
    for a pass width above 1), and their gradients bit for bit for one tree
    and within 1e-12 of the per-tree ones summed for more."""
    parts, joined = forest
    rows = sum(joined.sizes)
    rng = np.random.default_rng(seed)
    p = _tree_params(rng, rows, d, n)
    cases = [
        (lambda: T.tree_lstm_up(*_up_args(p, joined)), reference_kernels.tree_lstm_up_per_node,
         UP, lambda part: (part[0], part[2]), n),
        (lambda: T.tree_lstm_down(*_down_args(p, joined)),
         reference_kernels.tree_lstm_down_per_node, DOWN, lambda part: (part[1], part[2]), 2 * n),
    ]
    for kernel, reference, names, topology, width in cases:
        inputs = [p[k] for k in names]
        w = Tensor(_rand(rng, rows, width))
        got, got_grads, entries = _values_and_grads(kernel, inputs, w)
        want, want_grads, _ = _values_and_grads(
            lambda: _per_tree(reference, p, names, parts, topology), inputs, w)
        assert entries == 3
        assert np.array_equal(got, want)
        for got_grad, want_grad in zip(got_grads, want_grads):
            if len(parts) == 1:
                assert np.array_equal(got_grad, want_grad)
            else:
                assert _relative_error(got_grad, want_grad) <= 1e-12


@settings(max_examples=15, deadline=None, derandomize=True)
@given(forest=forests(), seed=st.integers(0, 2**16))
def test_tree_lstm_kernels_grad_over_a_forest(forest, seed):
    _, joined = forest
    rows = sum(joined.sizes)
    rng = np.random.default_rng(seed)
    p = _tree_params(rng, rows, 2, 2)
    w_up, w_down = Tensor(_rand(rng, rows, 2)), Tensor(_rand(rng, rows, 4))
    _check([p[k] for k in UP],
           lambda: T.sum_all(T.mul(T.tree_lstm_up(*_up_args(p, joined)), w_up)))
    _check([p[k] for k in DOWN],
           lambda: T.sum_all(T.mul(T.tree_lstm_down(*_down_args(p, joined)), w_down)))


def test_tree_lstm_kernels_reject_rows_that_do_not_fit_the_forest():
    forest = Forest.join([Forest.tree(3, [(0, 1), (0, 2)], 0), Forest.tree(1, [], 0)])
    p = _tree_params(np.random.default_rng(0), 5, 2, 2)
    with pytest.raises(ShapeError):
        T.tree_lstm_up(*_up_args(p, forest))
    with pytest.raises(ShapeError):
        T.tree_lstm_down(*_down_args(p, forest))


# --------------------------------------------------------------------------
# Fused decoder and GCN layer, against the composed kernels they replaced


def _decoder_inputs(rng, steps, rows, vocab, d, h):
    ids = rng.integers(0, vocab, size=steps).tolist()
    tensors = (_param(rng, 1, h), _param(rng, rows, h), _param(rng, rows, h),
               _param(rng, vocab, d), _param(rng, d + h, 4 * h), _param(rng, h, 4 * h),
               _param(rng, 1, 4 * h), _param(rng, h, h), _param(rng, 1, h), _param(rng, h, 1))
    return ids, tensors


def _batch_of_one(ids, tensors):
    s0, enc, enc_proj, *weights = tensors
    return D.decoder_batch([ids], s0, enc, enc_proj, [enc.shape[0]], *weights)


def _gcn_inputs(rng, nodes, edge_count, h):
    edges = rng.integers(0, nodes, size=(edge_count, 2))  # repeats and self-loops included
    a_in, a_out = adjacency(nodes, edges)
    weights = [_param(rng, nodes, h), _param(rng, h, h), _param(rng, h, h), _param(rng, 1, h),
               _param(rng, h, h), _param(rng, 1, h)]
    return a_in, a_out, weights


def _fused_gcn(a_in, a_out, weights, activation):
    H, W_in, W_out, b, W_t, b_t = weights
    return T.gcn_layer(H, a_in, a_out, W_in, W_out, b, T.ACTIVATIONS[activation], W_t, b_t)


def _composed_gcn(a_in, a_out, weights, activation):
    H, W_in, W_out, b, W_t, b_t = weights
    return reference_kernels.gcn_layer(H, Tensor(a_in), Tensor(a_out), W_in, W_out, b,
                                       activation, W_t, b_t)


def _values_and_grads(kernel, tensors, w):
    """The kernel's output and every input's gradient of sum(output * w)."""
    for t in tensors:
        t.grad = None
    with T.Tape() as tape:
        out = kernel()
        T.backward(tape, T.sum_all(T.mul(out, w)))
    return out.data, [t.grad for t in tensors], len(tape)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), steps=st.integers(1, 12), rows=st.integers(1, 10),
       vocab=st.integers(1, 6), d=st.integers(1, 5), h=st.integers(1, 5))
def test_decoder_sequence_matches_composed(seed, steps, rows, vocab, d, h):
    rng = np.random.default_rng(seed)
    ids, tensors = _decoder_inputs(rng, steps, rows, vocab, d, h)
    w = Tensor(_rand(rng, steps, 2 * h))
    fused, fused_grads, entries = _values_and_grads(
        lambda: _batch_of_one(ids, tensors), tensors, w)
    composed, composed_grads, _ = _values_and_grads(
        lambda: reference_kernels.composed_decoder_sequence(ids, *tensors), tensors, w)
    assert entries == 3  # the kernel, mul and sum_all
    assert fused.shape == (steps, 2 * h)
    assert np.abs(fused - composed).max() <= 1e-12
    for got, want in zip(fused_grads, composed_grads):
        assert np.abs(got - want).max() <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), nodes=st.integers(1, 10), edge_count=st.integers(0, 20),
       h=st.integers(1, 5), activation=st.sampled_from(sorted(T.ACTIVATIONS)))
def test_gcn_layer_matches_composed(seed, nodes, edge_count, h, activation):
    rng = np.random.default_rng(seed)
    a_in, a_out, weights = _gcn_inputs(rng, nodes, edge_count, h)
    w = Tensor(_rand(rng, nodes, h))
    fused, fused_grads, entries = _values_and_grads(
        lambda: _fused_gcn(a_in, a_out, weights, activation), weights, w)
    composed, composed_grads, _ = _values_and_grads(
        lambda: _composed_gcn(a_in, a_out, weights, activation), weights, w)
    assert entries == 3
    assert np.array_equal(fused, composed)  # the composed operations, in order
    for got, want in zip(fused_grads, composed_grads):
        assert np.abs(got - want).max() <= 1e-9


def _step_weights(rng, vocab, d, h):
    """decoder_step's weights, after the encoder layout."""
    return (_rand(rng, vocab, d), _rand(rng, d + h, 4 * h), _rand(rng, h, 4 * h),
            _rand(rng, 1, 4 * h), _rand(rng, h, h), _rand(rng, 1, h), _rand(rng, h, 1),
            _rand(rng, 2 * h, h), _rand(rng, 1, h), _rand(rng, h, vocab), _rand(rng, 1, vocab))


def _step_inputs(rng, m, rows, vocab, d, h):
    """decoder_step's arguments after the ids: m rows' ctx, s and c, an
    EncoderRows of one rank that all of them attend over, as a beam search's
    rows do, then the weights."""
    ctx, s, c, enc, enc_proj = (_rand(rng, *shape) for shape in [(m, h)] * 3 + [(rows, h)] * 2)
    return (ctx, s, c, D.EncoderRows(enc, enc_proj, [rows], [0]),
            *_step_weights(rng, vocab, d, h))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), m=st.integers(1, 5), rows=st.integers(1, 10),
       h=st.integers(1, 5))
def test_decoder_step_on_stacked_rows_matches_one_row_calls(seed, m, rows, h):
    # beam search steps all its hypotheses as m stacked rows at once
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 6, size=m).tolist()
    ctx, s, c, *weights = _step_inputs(rng, m, rows, 6, 3, h)
    stacked = D.decoder_step(ids, ctx, s, c, *weights)
    for i in range(m):
        one = slice(i, i + 1)
        single = D.decoder_step(ids[one], ctx[one], s[one], c[one], *weights)
        for got, want in zip(stacked, single):  # log-probs, ctx, s and c
            assert np.abs(got[one] - want).max() <= 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), m=st.integers(1, 7), rows=st.integers(1, 40),
       h=st.integers(1, 70))
def test_a_shared_rank_gives_the_bits_of_a_rank_per_row(seed, m, rows, h):
    """m rows over one shared rank step to the same bits as over m ranks
    that each copy the same encoder rows, the layout beam search used to
    build."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 6, size=m).tolist()
    ctx, s, c, shared, *weights = _step_inputs(rng, m, rows, 6, 3, h)
    enc, enc_proj = shared.block[0], shared.proj
    copied = D.EncoderRows(enc, enc_proj, [rows] * m, [0] * m)
    for got, want in zip(D.decoder_step(ids, ctx, s, c, shared, *weights),
                         D.decoder_step(ids, ctx, s, c, copied, *weights)):
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), spans=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 8)),
                                                  min_size=2, max_size=4),
       h=st.integers(1, 5))
def test_decoder_step_rows_of_different_examples_match_each_alone(seed, spans, h):
    """Rows of several examples stepped through one EncoderRows, each over
    its own encoder rows (start, size) of one array, match each row stepped
    alone over its example's rows."""
    rng = np.random.default_rng(seed)
    m = len(spans)
    starts, sizes = (list(col) for col in zip(*spans))
    enc, enc_proj = (_rand(rng, max(a + n for a, n in spans), h) for _ in range(2))
    ids = rng.integers(0, 6, size=m).tolist()
    ctx, s, c = (_rand(rng, m, h) for _ in range(3))
    weights = _step_weights(rng, 6, 3, h)
    stacked = D.decoder_step(ids, ctx, s, c, D.EncoderRows(enc, enc_proj, sizes, starts), *weights)
    for i, (start, size) in enumerate(spans):
        one = slice(i, i + 1)
        alone = D.decoder_step(ids[one], ctx[one], s[one], c[one],
                               D.EncoderRows(enc, enc_proj, [size], [start]), *weights)
        for got, want in zip(stacked, alone):  # log-probs, ctx, s and c
            assert np.abs(got[one] - want).max() <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), m=st.integers(1, 5), h=st.integers(1, 5))
def test_decoder_step_ends_in_the_output_layer(seed, m, h):
    rng = np.random.default_rng(seed)
    ctx, s, c, *weights = _step_inputs(rng, m, 4, 6, 3, h)
    log_probs, ctx, s, c = D.decoder_step(rng.integers(0, 6, size=m).tolist(), ctx, s, c, *weights)
    rows = np.concatenate([s, ctx], axis=1)
    assert np.array_equal(log_probs, D.output_rows(rows, *weights[-4:]))


@pytest.mark.parametrize("seed", range(4))
def test_decoder_sequence_grad(seed):
    rng = np.random.default_rng(seed)
    steps, rows, h = int(rng.integers(1, 6)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
    ids, tensors = _decoder_inputs(rng, steps, rows, 4, int(rng.integers(1, 4)), h)
    w = Tensor(_rand(rng, steps, 2 * h))
    _check(list(tensors), lambda: T.sum_all(T.mul(_batch_of_one(ids, tensors), w)))


def _decoder_batch_inputs(rng, lengths, sizes, vocab, d, h):
    """Per example: ids, s0, enc and enc_proj; then the shared weights."""
    examples = [(rng.integers(0, vocab, size=steps).tolist(), _param(rng, 1, h),
                 _param(rng, rows, h), _param(rng, rows, h))
                for steps, rows in zip(lengths, sizes)]
    weights = (_param(rng, vocab, d), _param(rng, d + h, 4 * h), _param(rng, h, 4 * h),
               _param(rng, 1, 4 * h), _param(rng, h, h), _param(rng, 1, h), _param(rng, h, 1))
    return examples, weights


def _joined(examples):
    """The batch's id lists, then its s0, enc and enc_proj as tensors of the
    examples' rows, one example after another, and its encoders' sizes."""
    ids, s0, enc, enc_proj = zip(*examples)

    def rows(tensors):
        return Tensor(np.concatenate([t.data for t in tensors]), requires_grad=True)

    return list(ids), rows(s0), rows(enc), rows(enc_proj), [t.shape[0] for t in enc]


def _relative_error(got, want) -> float:
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6),
       data=st.data(), d=st.integers(1, 4), h=st.integers(1, 5))
def test_decoder_batch_matches_the_per_example_kernel(seed, lengths, data, d, h):
    """A batch equals the one-sentence kernel run on each example: with one
    example the output bit for bit, and the output with more and every
    gradient within 1e-12 of the per-example values summed."""
    sizes = data.draw(st.lists(st.integers(1, 8), min_size=len(lengths), max_size=len(lengths)))
    rng = np.random.default_rng(seed)
    examples, weights = _decoder_batch_inputs(rng, lengths, sizes, 5, d, h)
    ids, s0, enc, enc_proj, enc_sizes = _joined(examples)
    inputs = [s0, enc, enc_proj, *weights]
    ws = [Tensor(_rand(rng, steps, 2 * h)) for steps in lengths]
    got, got_grads, entries = _values_and_grads(
        lambda: D.decoder_batch(ids, s0, enc, enc_proj, enc_sizes, *weights), inputs, T.concat(ws))
    assert entries == 3  # the kernel, mul and sum_all
    for t in weights:
        t.grad = None
    want = []
    for (ids, s0, enc, enc_proj), w in zip(examples, ws):  # gradients add up across tapes
        with T.Tape() as tape:
            out = reference_kernels.decoder_sequence(ids, s0, enc, enc_proj, *weights)
            T.backward(tape, T.sum_all(T.mul(out, w)))
        want.append(out.data)
    want_grads = [np.concatenate([t.grad for t in col]) for col in list(zip(*examples))[1:]]
    want_grads += [t.grad for t in weights]
    if len(lengths) == 1:
        assert np.array_equal(got, want[0])
    else:
        assert _relative_error(got, np.concatenate(want)) <= 1e-12
    for got_grad, want_grad in zip(got_grads, want_grads):
        assert _relative_error(got_grad, want_grad) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_decoder_batch_grad(seed):
    rng = np.random.default_rng(seed)
    lengths, sizes = [3, 1, 4], [2, 4, 1]  # unequal targets and encoders
    examples, weights = _decoder_batch_inputs(rng, lengths, sizes, 4, 2, 3)
    ids, s0, enc, enc_proj, enc_sizes = _joined(examples)
    w = Tensor(_rand(rng, sum(lengths), 6))
    _check([s0, enc, enc_proj, *weights], lambda: T.sum_all(T.mul(
        D.decoder_batch(ids, s0, enc, enc_proj, enc_sizes, *weights), w)))


def test_decoder_batch_keeps_its_attention_activations_only_for_backward():
    # on a tape the entry holds one (cells, h) array of attention
    # activations, a cell per (step, running example's encoder row), and
    # backward frees it once it has run the entry; without a tape nothing is
    # kept but the output rows
    import gc
    import tracemalloc

    rng = np.random.default_rng(6)
    lengths, sizes, h = [30, 12, 25], [40, 9, 33], 8
    examples, weights = _decoder_batch_inputs(rng, lengths, sizes, 6, 4, h)
    ids, s0, enc, enc_proj, enc_sizes = _joined(examples)
    activations = sum(steps * size for steps, size in zip(lengths, sizes)) * h * 8
    gc.disable()
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            out = D.decoder_batch(ids, s0, enc, enc_proj, enc_sizes, *weights)
            loss = T.sum_all(out)
        held = tracemalloc.get_traced_memory()[0]
        T.backward(tape, loss)
        assert held - tracemalloc.get_traced_memory()[0] >= activations
        del tape, out, loss
        before = tracemalloc.get_traced_memory()[0]
        out = D.decoder_batch(ids, s0, enc, enc_proj, enc_sizes, *weights)
        kept = tracemalloc.get_traced_memory()[0] - before
        assert out.data.nbytes <= kept < out.data.nbytes + activations // 4
    finally:
        tracemalloc.stop()
        gc.enable()


def test_decoder_batch_rejects_mismatched_inputs():
    rng = np.random.default_rng(0)
    examples, weights = _decoder_batch_inputs(rng, [2, 3], [2, 2], 4, 2, 3)
    ids, s0, enc, enc_proj, sizes = _joined(examples)
    with pytest.raises(ShapeError):
        D.decoder_batch(ids, Tensor(s0.data[:1]), enc, enc_proj, sizes, *weights)
    with pytest.raises(ShapeError):
        D.decoder_batch([ids[0], []], s0, enc, enc_proj, sizes, *weights)
    with pytest.raises(ShapeError):
        D.decoder_batch(ids, s0, enc, Tensor(np.zeros((3, 3))), sizes, *weights)
    with pytest.raises(ShapeError):
        D.decoder_batch(ids, s0, enc, enc_proj, [2, 3], *weights)


@pytest.mark.parametrize("activation", sorted(T.ACTIVATIONS))
@pytest.mark.parametrize("seed", range(2))
def test_gcn_layer_grad(seed, activation):
    rng = np.random.default_rng(seed)
    a_in, a_out, weights = _gcn_inputs(rng, 5, 7, 3)
    w = Tensor(_rand(rng, 5, 3))
    _check(weights, lambda: T.sum_all(T.mul(_fused_gcn(a_in, a_out, weights, activation), w)))
