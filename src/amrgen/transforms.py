"""The three input representations derived from an AMR graph.

* Levi graph: every labeled edge becomes an unlabeled two-edge path through a
  fresh relation node, one relation node per edge instance.
* Tree: reentrant nodes are split into one copy per incoming edge; the subtree
  below a copy is duplicated, with nodes already on the current root path
  emitted as childless copies (cycle breaking).
* Token sequence: depth-first linearization interleaving concept and relation
  tokens; reentrant targets re-emit their concept token only (no re-descent).

All three come from one traversal, run once per graph object
(AmrGraph.traversal), so that token positions, tree copies and Levi nodes
stay aligned.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field

from .amr import AmrGraph


@dataclass(frozen=True)
class LeviGraph:
    """Unlabeled bipartite graph over concept nodes and relation nodes.

    nodes: tuple of (levi_id, token, kind) with kind in {"concept", "relation"};
    levi ids are dense integers: the source's nodes in order, then one
    relation node per source edge in edge order.
    """

    nodes: tuple
    edges: tuple  # (levi_id, levi_id) directed pairs
    root: int

    @property
    def node_count(self):
        return len(self.nodes)

    @property
    def edge_count(self):
        return len(self.edges)


@dataclass(frozen=True)
class AmrTree:
    """Reentrancy-free tree with the same shape as AmrGraph.

    copy_of maps every tree node id to its source node id; edge_origin maps
    every tree edge (by index) to its source edge index.
    """

    nodes: tuple
    edges: tuple
    root: str
    copy_of: tuple  # ((tree_id, source_id), ...)
    edge_origin: tuple

    @property
    def node_count(self):
        return len(self.nodes)

    @property
    def edge_count(self):
        return len(self.edges)


@dataclass(frozen=True)
class TokenSequence:
    """Linearized AMR: x_1..x_N with per-position provenance.

    alignment[i] is ("node", node_id) for concept tokens and
    ("edge", edge_index) for relation tokens.
    """

    tokens: tuple
    alignment: tuple

    def __len__(self):
        return len(self.tokens)


def _traverse(graph: AmrGraph):
    """The canonical depth-first traversal, which AmrGraph.traversal runs once
    per graph object: (sequence, tree, pos_tree, first_pos, edge_pos), where
    pos_tree holds per position its tree node index, or its tree edge index
    for a relation token, first_pos maps each node id to the position of its
    first mention, in mention order, and edge_pos each edge index to the
    position of its relation token."""
    labels, edges, out = graph.labels(), graph.edges, graph.out_index
    tokens, alignment = [], []
    tree_nodes, tree_edges, copy_of, edge_origin = [], [], [], []
    pos_tree = []
    first_pos, edge_pos = {}, {}
    path = set()  # the current root path, for cycle breaking
    copies = {}  # node id -> tree copies made so far

    def rec(nid, emit):
        count = copies.get(nid, 0)
        copies[nid] = count + 1
        tid = nid if count == 0 else f"{nid}#{count}"
        tree_nodes.append((tid, labels[nid]))
        copy_of.append((tid, nid))
        emit_children = False
        if emit:
            if nid not in first_pos:
                first_pos[nid] = len(tokens)
                emit_children = True
            tokens.append(labels[nid])
            alignment.append(("node", nid))
            pos_tree.append(len(tree_nodes) - 1)
        if nid not in path:
            path.add(nid)
            for eidx in out.get(nid, ()):
                _, rel, child = edges[eidx]
                slot = len(tree_edges)
                tree_edges.append(None)
                edge_origin.append(eidx)
                if emit_children:
                    edge_pos[eidx] = len(tokens)
                    tokens.append(rel)
                    alignment.append(("edge", eidx))
                    pos_tree.append(slot)
                tree_edges[slot] = (tid, rel, rec(child, emit_children))
            path.discard(nid)
        return tid

    root_tid = rec(graph.root, True)
    sequence = TokenSequence(tokens=tuple(tokens), alignment=tuple(alignment))
    tree = AmrTree(
        nodes=tuple(tree_nodes),
        edges=tuple(tree_edges),
        root=root_tid,
        copy_of=tuple(copy_of),
        edge_origin=tuple(edge_origin),
    )
    return sequence, tree, tuple(pos_tree), first_pos, edge_pos


def linearize(graph: AmrGraph) -> TokenSequence:
    return graph.traversal[0]


def to_tree(graph: AmrGraph) -> AmrTree:
    return graph.traversal[1]


def to_levi(graph) -> LeviGraph:
    """Levi transform of an AmrGraph or AmrTree.

    One relation node per edge instance; |V| = nodes + edges of the source,
    |E| = 2 * source edges.
    """
    nodes, edges = [], []
    index = {}
    for nid, label in graph.nodes:
        index[nid] = len(nodes)
        nodes.append((len(nodes), label, "concept"))
    for parent, rel, child in graph.edges:
        rid = len(nodes)
        nodes.append((rid, rel, "relation"))
        edges.append((index[parent], rid))
        edges.append((rid, index[child]))
    return LeviGraph(nodes=tuple(nodes), edges=tuple(edges), root=index[graph.root])


def max_dependency_length(graph: AmrGraph) -> int:
    """Longest edge in the linearization, measured over Levi-adjacent pairs.

    Concept endpoints use the node's canonical (first-occurrence) position,
    so a reentrant edge like finger->:part-of->he spans back to the first
    mention of ``he``.
    """
    _, _, _, first_pos, edge_pos = graph.traversal
    longest = 0
    for eidx, (parent, _, child) in enumerate(graph.edges):
        rpos = edge_pos[eidx]
        longest = max(longest, abs(rpos - first_pos[parent]), abs(first_pos[child] - rpos))
    return longest


# --------------------------------------------------------------------------
# Anonymization

_NAME_CATEGORY = {
    "person": "person_name",
    "family": "person_name",
    "organization": "organization_name",
    "company": "organization_name",
    "government-organization": "organization_name",
    "country": "location_name",
    "city": "location_name",
    "state": "location_name",
    "province": "location_name",
    "continent": "location_name",
    "location": "location_name",
    "world-region": "location_name",
}

_NUMBER = re.compile(r"[+-]?\d+(\.\d+)?$")
_PLACEHOLDER = re.compile(
    r"(person_name|organization_name|location_name|other_name|number|date|rare)_\d+$"
)


@dataclass(frozen=True)
class AnonymizationPolicy:
    """Frequency table plus threshold driving rare-word replacement."""

    frequencies: dict = field(default_factory=dict)
    threshold: int = 5


def anonymize(graph: AmrGraph, policy: AnonymizationPolicy):
    """Collapse :name subgraphs, dates and numbers, and rare concepts into
    indexed placeholders. Returns (new graph, map of (placeholder, surface)).
    """
    labels = graph.labels()
    indegree = graph.indegrees()
    traversal_order = list(graph.traversal[3])  # node ids in first-mention order

    counters = {}

    def placeholder(category):
        index = counters.get(category, 0)
        counters[category] = index + 1
        return f"{category}_{index}"

    removed = set()
    relabeled = {}
    mapping = []

    def constant_children(nid):
        children = []
        for _, rel, child in graph.out_edges(nid):
            if graph.out_edges(child) or indegree.get(child, 0) > 1:
                return None
            children.append((rel, child))
        return children

    # pass 1: named entities
    for nid in traversal_order:
        if nid in removed:
            continue
        for _, rel, child in graph.out_edges(nid):
            if rel != ":name" or labels.get(child) != "name":
                continue
            if indegree.get(child, 0) > 1:
                continue  # reentrant name node: leave it alone
            ops = constant_children(child)
            if ops is None or not ops:
                continue
            surface = " ".join(labels[c] for _, c in ops)
            category = _NAME_CATEGORY.get(labels[nid], "other_name")
            token = placeholder(category)
            relabeled[nid] = token
            removed.add(child)
            removed.update(c for _, c in ops)
            mapping.append((token, surface))
            break

    # pass 2: dates and numbers
    for nid in traversal_order:
        if nid in removed or nid in relabeled:
            continue
        label = labels[nid]
        if label == "date-entity":
            parts = constant_children(nid)
            if parts is None or not parts:
                continue
            surface = " ".join(labels[c] for _, c in parts)
            token = placeholder("date")
            relabeled[nid] = token
            removed.update(c for _, c in parts)
            mapping.append((token, surface))
        elif _NUMBER.match(label):
            token = placeholder("number")
            relabeled[nid] = token
            mapping.append((token, label))

    # pass 3: rare concepts
    for nid in traversal_order:
        if nid in removed or nid in relabeled:
            continue
        label = labels[nid]
        if _PLACEHOLDER.match(label):
            continue
        if policy.frequencies.get(label, 0) < policy.threshold:
            token = placeholder("rare")
            relabeled[nid] = token
            mapping.append((token, label))

    nodes = tuple(
        (nid, relabeled.get(nid, label)) for nid, label in graph.nodes if nid not in removed
    )
    edges = tuple(
        e for e in graph.edges if e[0] not in removed and e[2] not in removed
    )
    return AmrGraph(nodes=nodes, edges=edges, root=graph.root), tuple(mapping)


def deanonymize(tokens, mapping) -> list:
    """Replace placeholder tokens by their original surface strings.

    Multi-word surfaces expand to multiple tokens; unknown placeholders pass
    through unchanged.
    """
    table = dict(mapping)
    result = []
    for token in tokens:
        if token in table:
            result.extend(table[token].lower().split())
        else:
            result.append(token)
    return result


def anonymize_sentence(tokens, mapping) -> list:
    """Replace surface spans in a tokenized sentence with their placeholders.

    Matching is case-insensitive; the first unconsumed occurrence of each
    surface wins.
    """
    result = list(tokens)
    lowered = [t.lower() for t in result]
    for token, surface in mapping:
        span = surface.lower().split()
        if not span:
            continue
        for i in range(len(lowered) - len(span) + 1):
            if lowered[i] == span[0] and lowered[i : i + len(span)] == span:
                result[i : i + len(span)] = [token]
                lowered[i : i + len(span)] = [token.lower()]
                break
    return result


# --------------------------------------------------------------------------
# Full per-example bundle used by the encoders


@dataclass(frozen=True)
class AlignedLevi:
    """A Levi graph aligned with the linearization.

    pos_to_node: per linearization position, the index of its Levi node.
    init_pos: per Levi node, the linearization position supplying its initial
    state when stacking sequence-first (first mention for concepts, relation
    token for relations).
    """

    levi: LeviGraph
    pos_to_node: tuple
    init_pos: tuple


@dataclass(frozen=True)
class ExampleRepr:
    """Everything the encoders need for one AMR, alignment included.

    structures maps each structural input_repr to its AlignedLevi: "graph"
    keeps reentrancies, "tree" splits them.
    """

    graph: AmrGraph
    sequence: TokenSequence
    tree: AmrTree
    structures: Mapping


class _Structures(Mapping):
    """The AlignedLevi of "graph" and "tree" for one graph, each built the
    first time it is read: a model reads one of them, or none for Seq."""

    def __init__(self, graph: AmrGraph):
        self._graph = graph
        self._built = {}

    def __getitem__(self, key):
        if key not in self._built:
            self._built[key] = _ALIGNED[key](self._graph)
        return self._built[key]

    def __iter__(self):
        return iter(_ALIGNED)

    def __len__(self):
        return len(_ALIGNED)


def _aligned_graph(graph: AmrGraph) -> AlignedLevi:
    sequence, _, _, first_pos, edge_pos = graph.traversal
    node_index = {nid: i for i, (nid, _) in enumerate(graph.nodes)}
    relations = len(graph.nodes)  # the Levi id of the first relation node
    pos = [node_index[ref] if kind == "node" else relations + ref
           for kind, ref in sequence.alignment]
    init = [first_pos[nid] for nid, _ in graph.nodes]
    init += [edge_pos[eidx] for eidx in range(len(graph.edges))]
    return AlignedLevi(to_levi(graph), tuple(pos), tuple(init))


def _aligned_tree(graph: AmrGraph) -> AlignedLevi:
    sequence, tree, pos_tree, first_pos, edge_pos = graph.traversal
    relations = len(tree.nodes)
    pos = [ref if kind == "node" else relations + ref
           for (kind, _), ref in zip(sequence.alignment, pos_tree)]
    init = [first_pos[nid] for _, nid in tree.copy_of]
    init += [edge_pos[eidx] for eidx in tree.edge_origin]
    return AlignedLevi(to_levi(tree), tuple(pos), tuple(init))


_ALIGNED = {"graph": _aligned_graph, "tree": _aligned_tree}


def prepare_example(graph: AmrGraph) -> ExampleRepr:
    sequence, tree, _, _, _ = graph.traversal
    return ExampleRepr(graph=graph, sequence=sequence, tree=tree, structures=_Structures(graph))
