"""Encoders: shape contracts, structural sensitivity, gradients, determinism."""
import numpy as np
import pytest

from amrgen import amr, tensor as T, transforms
from amrgen.vocab import Vocab
from amrgen.encoders import (
    KINDS,
    BiLstmEncoder,
    ChildSumTreeLstm,
    EncoderConfig,
    GcnEncoder,
    StackEncoder,
    adjacency,
    default_repr,
)

from conftest import (
    build_sequence_vocab,
    finite_difference_check,
    min_relu_margin,
    random_dag_graph,
    random_tree_graph,
)


def make_encoder(kind, vocab, seed=0, d=4, h=6, **over):
    """A StackEncoder and its parameters by checkpoint name."""
    cfg = EncoderConfig(
        kind=kind,
        embedding_dim=d,
        hidden_dim=h,
        dropout=over.pop("dropout", 0.0),
        edge_dropout=over.pop("edge_dropout", 0.0),
        **over,
    )
    store = T.ParamStore(np.random.default_rng(seed))
    return StackEncoder(cfg, vocab, store), store.params


# --------------------------------------------------------------------------
# Config validation


def test_config_rejects_bad_combinations():
    with pytest.raises(ValueError):
        EncoderConfig(kind="Seq", input_repr="graph")
    with pytest.raises(ValueError):
        EncoderConfig(kind="TreeLSTM", input_repr="graph")
    with pytest.raises(ValueError):
        EncoderConfig(kind="GCN", input_repr="sequence")
    with pytest.raises(ValueError):
        EncoderConfig(kind="Nope", input_repr="sequence")
    with pytest.raises(ValueError):
        EncoderConfig(kind="Seq", input_repr="sequence", hidden_dim=7)  # odd


@pytest.mark.parametrize("kind", KINDS)
def test_config_fills_in_the_kinds_default_repr(kind):
    cfg = EncoderConfig(kind=kind)
    assert cfg.input_repr == default_repr(kind)
    assert cfg.to_dict()["input_repr"] == default_repr(kind)  # saved resolved


def test_config_round_trips_through_dict():
    cfg = EncoderConfig(kind="SeqGCN", input_repr="graph", hidden_dim=32)
    assert EncoderConfig.from_dict(cfg.to_dict()) == cfg


# --------------------------------------------------------------------------
# Shape contract: output is always N x hidden in linearization order


def test_all_kinds_output_shape(figure_example):
    vocab = build_sequence_vocab(figure_example)
    n = len(figure_example.sequence.tokens)
    for kind in KINDS:
        enc, _ = make_encoder(kind, vocab)
        out = enc.encode([figure_example])
        assert out.shape == (n, 6), kind
        assert np.all(np.isfinite(out.data)), kind


# --------------------------------------------------------------------------
# BiLSTM structure


def test_bilstm_direction_symmetry():
    # reversing the input reverses the output with the two halves swapped,
    # when forward and backward cells share weights
    rng = np.random.default_rng(0)
    enc = BiLstmEncoder(3, 8, T.ParamStore(rng))
    for pname in ("W", "U", "b"):
        getattr(enc.bwd, pname).data[...] = getattr(enc.fwd, pname).data
    x = T.Tensor(np.random.default_rng(1).uniform(-1, 1, size=(5, 3)))
    out = enc.encode(x).data
    rev = enc.encode(T.Tensor(x.data[::-1].copy())).data
    half = 4
    assert np.allclose(out[:, :half], rev[::-1, half:], atol=1e-12)
    assert np.allclose(out[:, half:], rev[::-1, :half], atol=1e-12)


def test_bilstm_forward_half_ignores_future():
    # changing a later input must not affect earlier forward states
    rng = np.random.default_rng(2)
    enc = BiLstmEncoder(3, 8, T.ParamStore(rng))
    x = np.random.default_rng(3).uniform(-1, 1, size=(5, 3))
    base = enc.encode(T.Tensor(x.copy())).data
    x2 = x.copy()
    x2[4] += 1.0
    bumped = enc.encode(T.Tensor(x2)).data
    assert np.array_equal(base[:4, :4], bumped[:4, :4])  # forward half
    assert not np.array_equal(base[:4, 4:], bumped[:4, 4:])  # backward half sees it


# --------------------------------------------------------------------------
# TreeLSTM structure


def test_treelstm_rejects_reentrant_input(figure_example):
    vocab = build_sequence_vocab(figure_example)
    cfg = EncoderConfig(kind="TreeLSTM", input_repr="tree", embedding_dim=4, hidden_dim=6)
    enc = StackEncoder(cfg, vocab, T.ParamStore(np.random.default_rng(0)))
    levi = figure_example.structures["graph"].levi  # reentrant: 'he' has two incoming edges
    with pytest.raises(ValueError, match="not a tree"):
        enc.struct.encode([levi], T.Tensor(np.zeros((levi.node_count, 4))))


def bare_levi(count, edges, root=0):
    """A LeviGraph of count unlabeled nodes over the given (u, v) edges."""
    nodes = tuple((i, "x", "concept") for i in range(count))
    return transforms.LeviGraph(nodes=nodes, edges=tuple(edges), root=root)


@pytest.mark.parametrize(
    "edges, root",
    [(((0, 1), (1, 0)), 0),  # a cycle through the root
     (((0, 1), (2, 3), (3, 2)), 0),  # a cycle apart from the root's tree
     (((1, 0), (1, 2), (1, 3)), 0)],  # the root is a child
)
def test_treelstm_rejects_edges_that_are_not_one_rooted_tree(edges, root):
    cell = ChildSumTreeLstm(3, 8, T.ParamStore(np.random.default_rng(0)))
    count = 1 + max(max(edge) for edge in edges)
    with pytest.raises(ValueError, match="not a tree"):
        cell.encode([bare_levi(count, edges, root)], T.Tensor(np.zeros((count, 3))))


def test_treelstm_bottom_up_ignores_siblings():
    # the upward half of a leaf depends only on its own subtree
    rng = np.random.default_rng(4)
    cell = ChildSumTreeLstm(3, 8, T.ParamStore(rng))
    edges = ((0, 1), (0, 2))  # root 0 with two leaves
    x = np.random.default_rng(5).uniform(-1, 1, size=(3, 3))
    base = cell.encode([bare_levi(3, edges)], T.Tensor(x.copy())).data
    x2 = x.copy()
    x2[2] += 1.0  # perturb the second leaf
    bumped = cell.encode([bare_levi(3, edges)], T.Tensor(x2)).data
    # output layout: [down ; up] with half = 4
    assert np.array_equal(base[1, 4:], bumped[1, 4:])  # sibling's up half unchanged
    assert not np.array_equal(base[0, 4:], bumped[0, 4:])  # root's up half sees it


def test_treelstm_top_down_broadcasts_context():
    # the downward half of a leaf changes when a *sibling* changes, because
    # context flows through the root
    rng = np.random.default_rng(6)
    cell = ChildSumTreeLstm(3, 8, T.ParamStore(rng))
    edges = ((0, 1), (0, 2))
    x = np.random.default_rng(7).uniform(-1, 1, size=(3, 3))
    base = cell.encode([bare_levi(3, edges)], T.Tensor(x.copy())).data
    x2 = x.copy()
    x2[2] += 1.0
    bumped = cell.encode([bare_levi(3, edges)], T.Tensor(x2)).data
    # output layout: [down ; up]; the up half of node 1 is unchanged,
    # the down half is not
    assert np.array_equal(base[1, 4:], bumped[1, 4:])
    assert not np.array_equal(base[1, :4], bumped[1, :4])


# --------------------------------------------------------------------------
# GCN structure


def test_gcn_direction_weights_differ():
    # messages along an edge use W_in at the head and W_out at the tail:
    # zeroing W_out must still leave incoming messages intact
    rng = np.random.default_rng(8)
    gcn = GcnEncoder(4, 4, 1, T.ParamStore(rng), edge_dropout=0.0)
    levi = transforms.to_levi(amr.parse_penman("(a / a-01 :arg0 (b / b-01))"))
    x = T.Tensor(np.random.default_rng(9).uniform(-1, 1, size=(3, 4)))
    base = gcn.encode([levi], x).data.copy()
    gcn.layers[0]["W_out"].data[...] = 0.0
    no_out = gcn.encode([levi], x).data
    assert not np.array_equal(base, no_out)
    gcn.layers[0]["W_in"].data[...] = 0.0
    gate_only = gcn.encode([levi], x).data
    # relu(0 + 0 + 0 bias) = 0 everywhere once both directions are silenced,
    # so only the highway's carry path (1 - t) x is left
    layer = gcn.layers[0]
    t = 1.0 / (1.0 + np.exp(-(x.data @ layer["W_t"].data + layer["b_t"].data)))
    assert np.allclose(gate_only, (1.0 - t) * x.data, atol=1e-12)


def test_gcn_receptive_field_grows_with_layers():
    # with K layers, information travels K Levi hops; the chain
    # a -:r0-> b -:r1-> c puts c four hops from a
    g = amr.parse_penman("(a / a-01 :r0 (b / b-01 :r1 (c / c-01)))")
    levi = transforms.to_levi(g)
    x = np.random.default_rng(10).uniform(-1, 1, size=(5, 4))

    def delta_at_root(layers):
        gcn = GcnEncoder(4, 4, layers, T.ParamStore(np.random.default_rng(11)), edge_dropout=0.0)
        base = gcn.encode([levi], T.Tensor(x.copy())).data
        x2 = x.copy()
        x2[2] += 1.0  # concept node 'c'
        bumped = gcn.encode([levi], T.Tensor(x2)).data
        return np.abs(base[0] - bumped[0]).max()

    assert delta_at_root(2) == 0.0  # two hops cannot reach
    assert delta_at_root(4) > 0.0  # four hops can


def test_gcn_highway_keeps_input_path():
    # with all message weights zeroed the highway reduces to
    # t * tanh(0) + (1 - t) * h = h / 2 at zero-initialized gates
    rng = np.random.default_rng(12)
    gcn = GcnEncoder(4, 4, 1, T.ParamStore(rng), edge_dropout=0.0)
    levi = transforms.to_levi(amr.parse_penman("(a / a-01 :arg0 (b / b-01))"))
    for key in ("W_in", "W_out", "W_t"):
        gcn.layers[0][key].data[...] = 0.0
    x = T.Tensor(np.random.default_rng(13).uniform(-1, 1, size=(3, 4)))
    out = gcn.encode([levi], x).data
    assert np.allclose(out, x.data / 2.0, atol=1e-12)


def test_adjacency_matches_loop_with_repeated_edges():
    edges = [(0, 1), (1, 2), (0, 1), (2, 0), (3, 3), (0, 1), (2, 3)]
    a_in_ref, a_out_ref = np.zeros((4, 4)), np.zeros((4, 4))
    for u, v in edges:  # the reference: one increment per listed edge
        a_in_ref[v, u] += 1.0
        a_out_ref[u, v] += 1.0
    a_in, a_out = adjacency(4, np.array(edges))
    assert np.array_equal(a_in, a_in_ref)
    assert np.array_equal(a_out, a_out_ref)
    empty_in, empty_out = adjacency(3, np.zeros((0, 2), dtype=int))
    assert not empty_in.any() and not empty_out.any()


def test_gcn_edge_dropout_draws_once_per_layer():
    # one rng.random(len(edges)) per layer when given an rng, none without
    levi = transforms.to_levi(amr.parse_penman("(a / a-01 :arg0 (b / b-01))"))
    gcn = GcnEncoder(4, 4, 3, T.ParamStore(np.random.default_rng(0)), edge_dropout=0.5)
    x = T.Tensor(np.random.default_rng(1).uniform(-1, 1, size=(3, 4)))
    rng = np.random.default_rng(2)
    gcn.draw(levi, rng)
    expected = np.random.default_rng(2)
    for _ in range(3):
        expected.random(len(levi.edges))
    assert rng.random() == expected.random()


def test_gcn_edge_dropout_changes_messages():
    rng = np.random.default_rng(14)
    gcn = GcnEncoder(4, 4, 1, T.ParamStore(rng), edge_dropout=0.9)
    levi = transforms.to_levi(amr.parse_penman("(a / a-01 :arg0 (b / b-01))"))
    x = T.Tensor(np.random.default_rng(15).uniform(-1, 1, size=(3, 4)))
    eval_out = gcn.encode([levi], x).data
    train_out = gcn.encode([levi], x, [gcn.draw(levi, np.random.default_rng(16))]).data
    assert not np.array_equal(eval_out, train_out)


# --------------------------------------------------------------------------
# Sequence/structure agreement and permutation equivariance


def test_gcn_tree_graph_agree_without_reentrancies():
    rng = np.random.default_rng(17)
    for _ in range(30):
        g = random_tree_graph(rng)
        ex = transforms.prepare_example(g)
        vocab = build_sequence_vocab(ex)
        enc_graph, graph_params = make_encoder("GCN", vocab, seed=3, input_repr="graph")
        enc_tree, tree_params = make_encoder("GCN", vocab, seed=3, input_repr="tree")
        for (na, pa), (nb, pb) in zip(sorted(graph_params.items()), sorted(tree_params.items())):
            assert na == nb
            pb.data[...] = pa.data
        assert np.abs(enc_graph.encode([ex]).data - enc_tree.encode([ex]).data).max() <= 1e-12


def test_edge_order_permutation_equivariance(figure_graph):
    # GCN output is invariant to the order edges are listed in
    perm = amr.AmrGraph(
        nodes=figure_graph.nodes,
        edges=tuple(reversed(figure_graph.edges)),
        root=figure_graph.root,
    )
    ex1 = transforms.prepare_example(figure_graph)
    ex2 = transforms.prepare_example(perm)
    # same linearization, so the same vocab applies
    vocab = build_sequence_vocab(ex1)
    enc, _ = make_encoder("GCN", vocab, seed=5)
    out1 = enc.encode([ex1]).data
    out2 = enc.encode([ex2]).data
    tok1 = list(ex1.sequence.tokens)
    tok2 = list(ex2.sequence.tokens)
    # compare per concept token; positions shift but states must match
    for t in set(tok1):
        rows1 = sorted(map(tuple, out1[[i for i, x in enumerate(tok1) if x == t]]))
        rows2 = sorted(map(tuple, out2[[i for i, x in enumerate(tok2) if x == t]]))
        assert np.allclose(rows1, rows2, atol=1e-12), t


def test_reentrancy_sensitivity_graph_vs_tree(figure_example):
    """Perturbing the shared 'he' node reaches 'finger' only in graph mode."""
    vocab = build_sequence_vocab(figure_example)
    fpos = figure_example.sequence.tokens.index("finger")

    def probe(input_repr):
        enc, _ = make_encoder("GCN", vocab, seed=0, d=8, h=8, input_repr=input_repr, gcn_layers=2)
        levi = figure_example.structures[input_repr].levi
        ids = enc.vocab.indices([tok for _, tok, _ in levi.nodes])
        nodes = T.embedding_lookup(enc.embedding, ids).data
        bumped = nodes.copy()
        for i, (_, tok, _) in enumerate(levi.nodes):
            if tok == "he":
                bumped[i] += 1e-3
                break  # first copy only
        base = enc.encode([figure_example], node_embeddings=T.Tensor(nodes.copy())).data
        after = enc.encode([figure_example], node_embeddings=T.Tensor(bumped)).data
        return base[fpos], after[fpos]

    g_base, g_after = probe("graph")
    assert not np.array_equal(g_base, g_after)
    t_base, t_after = probe("tree")
    assert np.array_equal(t_base, t_after)  # bit-identical


# --------------------------------------------------------------------------
# Gradients through every stacking


@pytest.mark.parametrize("kind", KINDS)
def test_stack_gradients(kind, figure_example):
    vocab = build_sequence_vocab(figure_example)
    enc, params = make_encoder(kind, vocab, seed=0)
    for p in params.values():
        p.data *= 8.0  # move relu pre-activations away from the kink
    assert min_relu_margin(enc, figure_example) > 1e-3

    def loss():
        out = enc.encode([figure_example])
        return T.sum_all(T.mul(out, out))

    worst, where = finite_difference_check(params, loss)
    assert worst <= 1e-4, where


# --------------------------------------------------------------------------
# Batches


@pytest.mark.parametrize("kind", KINDS)
def test_a_batch_encodes_as_its_examples_do_one_by_one(kind):
    """A batch's rows are each example's rows encoded alone, with the same
    dropout and edge-dropout masks when the draws come from one rng."""
    rng = np.random.default_rng(21)
    graph_of = random_dag_graph if default_repr(kind) == "graph" else random_tree_graph
    examples = [transforms.prepare_example(graph_of(rng)) for _ in range(5)]
    vocab = Vocab.build(ex.sequence.tokens for ex in examples)
    enc, _ = make_encoder(kind, vocab, dropout=0.3, edge_dropout=0.2)
    for seed in (None, 3):
        batch = enc.encode(examples, rng=None if seed is None else np.random.default_rng(seed))
        one_rng = None if seed is None else np.random.default_rng(seed)
        alone = np.concatenate([enc.encode([ex], rng=one_rng).data for ex in examples])
        assert np.array_equal(batch.data, alone)


# --------------------------------------------------------------------------
# Determinism


def test_encode_deterministic(figure_example):
    vocab = build_sequence_vocab(figure_example)
    for kind in KINDS:
        a = make_encoder(kind, vocab, seed=9)[0].encode([figure_example]).data
        b = make_encoder(kind, vocab, seed=9)[0].encode([figure_example]).data
        assert np.array_equal(a, b), kind


def test_dropout_rng_controls_training_noise(figure_example):
    vocab = build_sequence_vocab(figure_example)
    enc, _ = make_encoder("Seq", vocab, dropout=0.5)
    a = enc.encode([figure_example], rng=np.random.default_rng(1)).data
    b = enc.encode([figure_example], rng=np.random.default_rng(1)).data
    c = enc.encode([figure_example], rng=np.random.default_rng(2)).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
