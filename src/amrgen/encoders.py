"""Sequential, tree and graph encoders plus their stackings.

Seven configurations: Seq, SeqGCN, GCNSeq, SeqTreeLSTM, TreeLSTMSeq, GCN,
TreeLSTM. The structural encoders operate over the Levi form of the input
(edge labels are first-class nodes), so every linearization position has a
structure node and the stacked output is always N rows in linearization
order, whatever the configuration.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .tensor import ACTIVATIONS as _ACTIVATIONS  # the GCN's activations by name
from .tensor import (
    Tensor,
    concat,
    dropout,
    embedding_lookup,
    gcn_layer,
    lstm_sequence,
    lstm_step,
    matmul,
    tree_lstm_down,
    tree_lstm_up,
)
from .transforms import ExampleRepr, LeviGraph

# The input representations each kind accepts, its default first. Tree-LSTMs
# need a tree; a GCN runs over the Levi form of the graph or of its tree.
INPUT_REPRS = {
    "Seq": ("sequence",),
    "SeqGCN": ("graph", "tree"),
    "GCNSeq": ("graph", "tree"),
    "SeqTreeLSTM": ("tree",),
    "TreeLSTMSeq": ("tree",),
    "GCN": ("graph", "tree"),
    "TreeLSTM": ("tree",),
}
KINDS = tuple(INPUT_REPRS)


@dataclass(frozen=True)
class EncoderConfig:
    kind: str = "Seq"
    input_repr: str = "sequence"
    embedding_dim: int = 64
    hidden_dim: int = 64
    gcn_layers: int = 2
    gcn_activation: str = "relu"
    highway: bool = True
    dropout: float = 0.3
    edge_dropout: float = 0.1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        allowed = INPUT_REPRS[self.kind]
        if self.input_repr not in allowed:
            raise ValueError(
                f"kind {self.kind} requires input_repr in {allowed}, got {self.input_repr!r}"
            )
        if self.embedding_dim < 1 or self.hidden_dim < 1:
            raise ValueError(
                f"embedding_dim and hidden_dim must be >= 1, got "
                f"{self.embedding_dim} and {self.hidden_dim}"
            )
        if self.gcn_layers < 1:
            raise ValueError(f"gcn_layers must be >= 1, got {self.gcn_layers}")
        if self.hidden_dim % 2:
            raise ValueError("hidden_dim must be even (split across directions)")
        for name in ("dropout", "edge_dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.gcn_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.gcn_activation!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EncoderConfig":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__ if k in data})


def default_repr(kind: str) -> str:
    """The input representation a kind uses unless another is asked for."""
    return INPUT_REPRS[kind][0]


class LstmCell:
    """Single LSTM step; gate order i, f, o, g."""

    def __init__(self, in_dim: int, hidden: int, store, name: str):
        self.name = name
        self.W = store.uniform(f"{name}.W", (in_dim, 4 * hidden))
        self.U = store.uniform(f"{name}.U", (hidden, 4 * hidden))
        self.b = store.zeros(f"{name}.b", (1, 4 * hidden))

    def step(self, x: Tensor, h: Tensor, c: Tensor) -> Tensor:
        return lstm_step(x, h, c, self.W, self.U, self.b)


class BiLstmEncoder:
    """Single-layer BiLSTM; each direction gets hidden_dim / 2."""

    def __init__(self, in_dim: int, hidden_dim: int, store, name: str = "bilstm"):
        half = hidden_dim // 2
        self.fwd = LstmCell(in_dim, half, store, f"{name}.fwd")
        self.bwd = LstmCell(in_dim, half, store, f"{name}.bwd")

    def encode(self, inputs: Tensor) -> Tensor:
        f, b = self.fwd, self.bwd
        forward = lstm_sequence(inputs, f.W, f.U, f.b)
        backward = lstm_sequence(inputs, b.W, b.U, b.b, reverse=True)
        return concat([forward, backward], axis=1)


def _tree_topology(node_count: int, edges, root: int):
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


class ChildSumTreeLstm:
    """Bidirectional Child-Sum TreeLSTM.

    Bottom-up pass sums the children's hidden states into the gates; the
    top-down pass is seeded at the root by a feed-forward transform and
    descends with an LSTM step that reads the parent's bottom-up state as its
    hidden input and the parent's top-down cell as its cell input. Output per
    node is [h_down ; h_up], so each pass gets hidden_dim / 2.
    """

    def __init__(self, in_dim: int, hidden_dim: int, store, name: str = "treelstm"):
        half = hidden_dim // 2
        self.W = store.uniform(f"{name}.W", (in_dim, 4 * half))  # x -> i,o,u,f blocks
        self.U = store.uniform(f"{name}.U", (half, 3 * half))  # child sum -> i,o,u
        self.Uf = store.uniform(f"{name}.Uf", (half, half))  # per-child forget
        self.b = store.zeros(f"{name}.b", (1, 4 * half))
        self.Wr = store.uniform(f"{name}.Wr", (half, half))
        self.br = store.zeros(f"{name}.br", (1, half))
        self.down = LstmCell(half, half, store, f"{name}.down")

    def encode(self, levi: LeviGraph, inputs: Tensor, rng=None) -> Tensor:
        """rng goes unused: a TreeLSTM draws no dropout of its own."""
        children, parent, order = _tree_topology(levi.node_count, levi.edges, levi.root)
        up = tree_lstm_up(inputs, self.W, self.U, self.Uf, self.b, children, order)
        d = self.down
        return tree_lstm_down(up, d.W, d.U, d.b, self.Wr, self.br, parent, order)


def adjacency(node_count: int, edges):
    """The (a_in, a_out) arrays for a (k, 2) array of (u, v) edges:
    a_in[v, u] and a_out[u, v] count the edges u -> v."""
    a_in = np.zeros((node_count, node_count))
    np.add.at(a_in, (edges[:, 1], edges[:, 0]), 1.0)
    return a_in, np.ascontiguousarray(a_in.T)


class GcnEncoder:
    """Direction-aware GCN with edge dropout and tanh highway gates.

    Layer rule: h_i' = act(sum_in W_in h_j + sum_out W_out h_j + b), then
    out = t * tanh(h') + (1 - t) * h with t = sigmoid(h W_t + b_t).
    Self-information flows only through the highway path. An input projection
    is added when the input width differs from hidden_dim. Each layer is one
    `gcn_layer` tape entry.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        layers: int,
        store,
        activation: str = "relu",
        highway: bool = True,
        edge_dropout: float = 0.1,
        name: str = "gcn",
    ):
        self.activation = _ACTIVATIONS[activation]
        self.edge_dropout = edge_dropout
        self.proj = None
        if in_dim != hidden_dim:
            self.proj = store.uniform(f"{name}.proj", (in_dim, hidden_dim))
        weight, bias = (store.uniform, (hidden_dim, hidden_dim)), (store.zeros, (1, hidden_dim))
        inits = {"W_in": weight, "W_out": weight, "b": bias}
        if highway:
            inits.update(W_t=weight, b_t=bias)
        self.layers = [
            {key: init(f"{name}.{k}.{key}", shape) for key, (init, shape) in inits.items()}
            for k in range(layers)
        ]

    def encode(self, levi: LeviGraph, inputs: Tensor, rng=None) -> Tensor:
        """Edges are dropped only when rng is given, which is when training."""
        n = levi.node_count
        h = matmul(inputs, self.proj) if self.proj is not None else inputs
        edges = np.asarray(levi.edges, dtype=np.intp).reshape(-1, 2)
        drop_edges = rng is not None and self.edge_dropout > 0.0 and len(edges) > 0
        if not drop_edges:
            a_in, a_out = adjacency(n, edges)
        for layer in self.layers:
            if drop_edges:  # a fresh draw per layer
                keep = rng.random(len(edges)) >= self.edge_dropout
                a_in, a_out = adjacency(n, edges[keep])
            h = gcn_layer(h, a_in, a_out, layer["W_in"], layer["W_out"], layer["b"],
                          self.activation, layer.get("W_t"), layer.get("b_t"))
        return h


class StackEncoder:
    """Dispatches one of the seven configurations over an ExampleRepr.

    Output is always an N x hidden matrix in linearization order.
    """

    def __init__(self, config: EncoderConfig, src_vocab, store):
        self.config = config
        self.vocab = src_vocab
        d, h = config.embedding_dim, config.hidden_dim
        self.embedding = store.uniform("embedding", (len(src_vocab), d))
        kind = config.kind
        self.seq_first = kind in ("Seq", "SeqGCN", "SeqTreeLSTM")
        self.bilstm = None
        self.struct = None
        if kind not in ("GCN", "TreeLSTM"):
            self.bilstm = BiLstmEncoder(d if self.seq_first else h, h, store)
        struct_in = h if self.seq_first else d
        if "GCN" in kind:
            self.struct = GcnEncoder(
                struct_in,
                h,
                config.gcn_layers,
                store,
                activation=config.gcn_activation,
                highway=config.highway,
                edge_dropout=config.edge_dropout,
            )
        elif "TreeLSTM" in kind:
            self.struct = ChildSumTreeLstm(struct_in, h, store)

    def encode(self, ex: ExampleRepr, rng=None, node_embeddings: Tensor = None) -> Tensor:
        """Dropout applies only when rng is given, which is when training.
        node_embeddings overrides the node lookup of a structure-first
        stacking, which lets callers probe sensitivity of outputs to
        individual input rows."""
        keep = 1.0 - self.config.dropout
        aligned = ex.structures.get(self.config.input_repr)  # None for a sequence
        if self.seq_first:
            ids = self.vocab.indices(ex.sequence.tokens)
            out = self.bilstm.encode(dropout(embedding_lookup(self.embedding, ids), keep, rng))
            if self.struct is not None:
                inputs = embedding_lookup(out, aligned.init_pos)
                out = embedding_lookup(self.struct.encode(aligned.levi, inputs, rng),
                                       aligned.pos_to_node)
        else:
            nodes = node_embeddings
            if nodes is None:
                ids = self.vocab.indices([tok for _, tok, _ in aligned.levi.nodes])
                nodes = embedding_lookup(self.embedding, ids)
            states = self.struct.encode(aligned.levi, dropout(nodes, keep, rng), rng)
            out = embedding_lookup(states, aligned.pos_to_node)
            if self.bilstm is not None:
                out = self.bilstm.encode(out)
        return dropout(out, keep, rng)
