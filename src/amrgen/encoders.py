"""Sequential, tree and graph encoders plus their stackings.

Seven configurations: Seq, SeqGCN, GCNSeq, SeqTreeLSTM, TreeLSTMSeq, GCN,
TreeLSTM. The structural encoders operate over the Levi form of the input
(edge labels are first-class nodes), so every linearization position has a
structure node and the stacked output is always N rows in linearization
order, whatever the configuration.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .tensor import ACTIVATIONS as _ACTIVATIONS  # read per GcnEncoder: perfbench's spans wrap it
from .tensor import (
    Tensor,
    bilstm_batch,
    concat,
    dropout,
    embedding_lookup,
    gcn_layer,
    lstm_step,
    matmul,
    slice_rows,
    tree_lstm_down,
    tree_lstm_up,
)
from .transforms import Forest, LeviGraph

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
    """An encoder's settings. input_repr is the kind's `default_repr` unless
    given, and the resolved value is what `to_dict` saves."""

    kind: str = "Seq"
    input_repr: str = ""
    embedding_dim: int = 64
    hidden_dim: int = 64
    gcn_layers: int = 2
    dropout: float = 0.3
    edge_dropout: float = 0.1

    def __post_init__(self):
        for f in fields(self):  # an int is a float too; a bool is no int
            value, wanted = getattr(self, f.name), type(f.default)
            if not (type(value) is wanted or wanted is float and type(value) is int):
                raise ValueError(f"{f.name} must be {wanted.__name__}, got {value!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        if not self.input_repr:
            object.__setattr__(self, "input_repr", default_repr(self.kind))
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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EncoderConfig":
        if not isinstance(data, dict):
            raise ValueError(f"an encoder config must be an object, got {data!r}")
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

    def encode(self, inputs: Tensor, lengths=None) -> Tensor:
        """[forward ; reverse] states of the rows of inputs, which hold
        sequences of the given lengths one after another (one sequence by
        default)."""
        f, b = self.fwd, self.bwd
        return bilstm_batch(inputs, lengths or [inputs.shape[0]], f.W, f.U, f.b, b.W, b.U, b.b)


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

    def draw(self, levi: LeviGraph, rng):
        """A TreeLSTM draws no dropout of its own."""
        return None

    def encode(self, levis, inputs: Tensor, draws=None) -> Tensor:
        """The states of the Levi graphs' nodes, whose rows of inputs come
        one graph after another; each graph must be a tree. draws goes
        unused."""
        forest = Forest.join([levi.forest for levi in levis])
        up = tree_lstm_up(inputs, self.W, self.U, self.Uf, self.b, forest)
        d = self.down
        return tree_lstm_down(up, d.W, d.U, d.b, self.Wr, self.br, forest)


def adjacency(node_count: int, edges):
    """The (a_in, a_out) arrays for a (k, 2) array of (u, v) edges:
    a_in[v, u] and a_out[u, v] count the edges u -> v."""
    a_in = np.zeros((node_count, node_count))
    np.add.at(a_in, (edges[:, 1], edges[:, 0]), 1.0)
    return a_in, np.ascontiguousarray(a_in.T)


class GcnEncoder:
    """Direction-aware GCN (Marcheggiani & Titov, 2017) with edge dropout and
    tanh highway gates (Srivastava et al., 2015).

    Layer rule: h_i' = relu(sum_in W_in h_j + sum_out W_out h_j + b), then
    out = t * tanh(h') + (1 - t) * h with t = sigmoid(h W_t + b_t).
    Self-information flows only through the highway path, since a Levi graph
    has no self-loops. An input projection is added when the input width
    differs from hidden_dim. Each layer is one `gcn_layer` tape entry.
    """

    def __init__(self, in_dim: int, hidden_dim: int, layers: int, store,
                 edge_dropout: float = 0.1, name: str = "gcn"):
        self.activation = _ACTIVATIONS["relu"]
        self.edge_dropout = edge_dropout
        self.proj = None
        if in_dim != hidden_dim:
            self.proj = store.uniform(f"{name}.proj", (in_dim, hidden_dim))
        weight, bias = (store.uniform, (hidden_dim, hidden_dim)), (store.zeros, (1, hidden_dim))
        inits = {"W_in": weight, "W_out": weight, "b": bias, "W_t": weight, "b_t": bias}
        self.layers = [
            {key: init(f"{name}.{k}.{key}", shape) for key, (init, shape) in inits.items()}
            for k in range(layers)
        ]

    def draw(self, levi: LeviGraph, rng):
        """Each layer's mask of the edges of levi that it keeps, drawn from
        rng (a fresh draw per layer), or None when none is dropped."""
        if rng is None or self.edge_dropout == 0.0 or not levi.edges:
            return None
        return [rng.random(len(levi.edges)) >= self.edge_dropout for _ in self.layers]

    def encode(self, levis, inputs: Tensor, draws=None) -> Tensor:
        """The states of the Levi graphs' nodes, whose rows of inputs come
        one graph after another. The layers run over each graph in turn, and
        draws holds each graph's edge masks from `draw`; without them no
        edge is dropped."""
        h = matmul(inputs, self.proj) if self.proj is not None else inputs
        outs, start = [], 0
        for levi, keeps in zip(levis, draws or [None] * len(levis)):
            n = levi.node_count
            rows = h if len(levis) == 1 else slice_rows(h, start, start + n)
            start += n
            edges = np.asarray(levi.edges, dtype=np.intp).reshape(-1, 2)
            if keeps is None:
                a_in, a_out = adjacency(n, edges)
            for k, layer in enumerate(self.layers):
                if keeps is not None:
                    a_in, a_out = adjacency(n, edges[keeps[k]])
                rows = gcn_layer(rows, a_in, a_out, layer["W_in"], layer["W_out"], layer["b"],
                                 self.activation, layer["W_t"], layer["b_t"])
            outs.append(rows)
        return outs[0] if len(outs) == 1 else concat(outs)


class StackEncoder:
    """Dispatches one of the seven configurations over a batch of
    ExampleReprs.

    Output is always N x hidden rows per example, in linearization order.
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
            self.struct = GcnEncoder(struct_in, h, config.gcn_layers, store,
                                     edge_dropout=config.edge_dropout)
        elif "TreeLSTM" in kind:
            self.struct = ChildSumTreeLstm(struct_in, h, store)

    def encode(self, reprs, rng=None, node_embeddings: Tensor = None) -> Tensor:
        """The rows of a batch of ExampleReprs, each one's N rows in order,
        one example after another. Dropout applies only when rng is given,
        which is when training; each example's masks are drawn in turn, in
        the order that encoding it alone draws them. node_embeddings
        overrides the node lookup of a structure-first stacking, which lets
        callers probe sensitivity of outputs to individual input rows."""
        keep = 1.0 - self.config.dropout
        lengths = [len(r.sequence) for r in reprs]
        aligned = [r.structures[self.config.input_repr] for r in reprs] if self.struct else []
        drop_in, drop_edges, drop_out = self._draws(lengths, aligned, rng)
        if self.seq_first:
            ids = [i for r in reprs for i in self.vocab.indices(r.sequence.tokens)]
            inputs = dropout(embedding_lookup(self.embedding, ids), keep, drop_in)
            out = self.bilstm.encode(inputs, lengths)
            if self.struct is not None:
                inputs = embedding_lookup(out, _offset([a.init_pos for a in aligned], lengths))
                out = self._structure(aligned, inputs, drop_edges)
        else:
            nodes = node_embeddings
            if nodes is None:
                ids = [i for a in aligned
                       for i in self.vocab.indices([tok for _, tok, _ in a.levi.nodes])]
                nodes = embedding_lookup(self.embedding, ids)
            out = self._structure(aligned, dropout(nodes, keep, drop_in), drop_edges)
            if self.bilstm is not None:
                out = self.bilstm.encode(out, lengths)
        return dropout(out, keep, drop_out)

    def _structure(self, aligned, inputs, draws):
        """The structural encoder's states of the aligned Levi graphs, whose
        rows of inputs come one graph after another, gathered into each
        example's linearization order."""
        levis = [a.levi for a in aligned]
        states = self.struct.encode(levis, inputs, draws)
        return embedding_lookup(states, _offset([a.pos_to_node for a in aligned],
                                                [levi.node_count for levi in levis]))

    def _draws(self, lengths, aligned, rng):
        """The draws of the input and the output dropout, each as one array
        over the batch's rows, and each example's draws of the structural
        encoder, taken from rng one example after another: its input
        dropout, the structural encoder's, then its output dropout."""
        if rng is None:
            return None, None, None
        d, h = self.config.embedding_dim, self.config.hidden_dim
        drop = self.config.dropout > 0.0
        ins, structs, outs = [], [], []
        for k, length in enumerate(lengths):
            if drop:
                ins.append(rng.random((length if self.seq_first else aligned[k].levi.node_count,
                                       d)))
            if self.struct is not None:
                structs.append(self.struct.draw(aligned[k].levi, rng))
            if drop:
                outs.append(rng.random((length, h)))
        if not drop:
            return None, structs, None
        return np.concatenate(ins), structs, np.concatenate(outs)


def _offset(index_lists, sizes):
    """The index lists, each shifted past the rows of the blocks before its
    own, as one list."""
    if len(index_lists) == 1:
        return index_lists[0]
    starts = np.cumsum(sizes) - np.asarray(sizes)
    return np.concatenate([np.asarray(idx) + start for idx, start in zip(index_lists, starts)])
