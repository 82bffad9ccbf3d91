"""The three input representations derived from an AMR graph.

* Levi graph: every labeled edge becomes an unlabeled two-edge path through a
  fresh relation node, one relation node per edge instance.
* Tree: reentrant nodes are split into one copy per incoming edge; the subtree
  below a copy is duplicated, with nodes already on the current root path
  emitted as childless copies (cycle breaking).
* Token sequence: depth-first linearization interleaving concept and relation
  tokens; reentrant targets re-emit their concept token only (no re-descent).

All three are produced by one traversal so that token positions, tree copies
and Levi nodes stay aligned.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .amr import AmrGraph


@dataclass(frozen=True)
class LeviGraph:
    """Unlabeled bipartite graph over concept nodes and relation nodes.

    nodes: tuple of (levi_id, token, kind) with kind in {"concept", "relation"};
    levi ids are dense integers. origin maps each levi id back to the source
    structure: ("node", node_id) or ("edge", edge_index).
    """

    nodes: tuple
    edges: tuple  # (levi_id, levi_id) directed pairs
    root: int
    origin: tuple

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


@dataclass(frozen=True)
class Traversal:
    """Joint result of the canonical depth-first traversal."""

    sequence: TokenSequence
    tree: AmrTree
    pos_tree_node: tuple  # per concept-token position: tree node id
    pos_tree_edge: tuple  # per relation-token position: tree edge index (None elsewhere)


def _traverse(graph: AmrGraph) -> Traversal:
    labels = graph.labels()
    out = {nid: [] for nid, _ in graph.nodes}
    for idx, (parent, rel, child) in enumerate(graph.edges):
        out[parent].append((idx, rel, child))

    tokens, alignment = [], []
    tree_nodes, tree_edges, copy_of, edge_origin = [], [], [], []
    pos_tree_node, pos_tree_edge = [], []
    visited = set()
    copies = {}

    def fresh_id(nid):
        count = copies.get(nid, 0)
        copies[nid] = count + 1
        return nid if count == 0 else f"{nid}#{count}"

    def rec(nid, path, emit):
        tid = fresh_id(nid)
        tree_nodes.append((tid, labels[nid]))
        copy_of.append((tid, nid))
        if emit:
            tokens.append(labels[nid])
            alignment.append(("node", nid))
            pos_tree_node.append(tid)
            pos_tree_edge.append(None)
        first = nid not in visited
        if emit and first:
            visited.add(nid)
        emit_children = emit and first
        if nid not in path:
            child_path = path | {nid}
            for eidx, rel, child in out[nid]:
                slot = len(tree_edges)
                tree_edges.append(None)
                edge_origin.append(eidx)
                if emit_children:
                    tokens.append(rel)
                    alignment.append(("edge", eidx))
                    pos_tree_node.append(None)
                    pos_tree_edge.append(slot)
                child_tid = rec(child, child_path, emit_children)
                tree_edges[slot] = (tid, rel, child_tid)
        return tid

    root_tid = rec(graph.root, frozenset(), True)
    sequence = TokenSequence(tokens=tuple(tokens), alignment=tuple(alignment))
    tree = AmrTree(
        nodes=tuple(tree_nodes),
        edges=tuple(tree_edges),
        root=root_tid,
        copy_of=tuple(copy_of),
        edge_origin=tuple(edge_origin),
    )
    return Traversal(
        sequence=sequence,
        tree=tree,
        pos_tree_node=tuple(pos_tree_node),
        pos_tree_edge=tuple(pos_tree_edge),
    )


def linearize(graph: AmrGraph) -> TokenSequence:
    return _traverse(graph).sequence


def to_tree(graph: AmrGraph) -> AmrTree:
    return _traverse(graph).tree


def to_levi(graph) -> LeviGraph:
    """Levi transform of an AmrGraph or AmrTree.

    One relation node per edge instance; |V| = nodes + edges of the source,
    |E| = 2 * source edges.
    """
    nodes, edges, origin = [], [], []
    index = {}
    for nid, label in graph.nodes:
        index[nid] = len(nodes)
        nodes.append((len(nodes), label, "concept"))
        origin.append(("node", nid))
    for eidx, (parent, rel, child) in enumerate(graph.edges):
        rid = len(nodes)
        nodes.append((rid, rel, "relation"))
        origin.append(("edge", eidx))
        edges.append((index[parent], rid))
        edges.append((rid, index[child]))
    return LeviGraph(
        nodes=tuple(nodes),
        edges=tuple(edges),
        root=index[graph.root],
        origin=tuple(origin),
    )


def max_dependency_length(graph: AmrGraph) -> int:
    """Longest edge in the linearization, measured over Levi-adjacent pairs.

    Concept endpoints use the node's canonical (first-occurrence) position,
    so a reentrant edge like finger->:part-of->he spans back to the first
    mention of ``he``.
    """
    sequence = linearize(graph)
    first_pos = {}
    rel_pos = {}
    for pos, (kind, ref) in enumerate(sequence.alignment):
        if kind == "node":
            first_pos.setdefault(ref, pos)
        else:
            rel_pos[ref] = pos
    longest = 0
    for eidx, (parent, _, child) in enumerate(graph.edges):
        rpos = rel_pos[eidx]
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
    order = [ref for kind, ref in linearize(graph).alignment if kind == "node"]
    seen = set()
    traversal_order = [n for n in order if not (n in seen or seen.add(n))]

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
    for token, surface in mapping:
        span = surface.lower().split()
        if not span:
            continue
        lowered = [t.lower() for t in result]
        for i in range(len(lowered) - len(span) + 1):
            if lowered[i : i + len(span)] == span:
                result[i : i + len(span)] = [token]
                break
    return result


# --------------------------------------------------------------------------
# Full per-example bundle used by the encoders


@dataclass(frozen=True)
class ExampleRepr:
    """Everything the encoders need for one AMR, alignment included.

    pos_to_levi / pos_to_tree_levi: per linearization position, the index of
    the corresponding Levi node (graph mode / tree mode).
    levi_init_pos / tree_levi_init_pos: per Levi node, the linearization
    position supplying its initial state when stacking sequence-first
    (first occurrence for concepts, relation token for relations).
    """

    graph: AmrGraph
    sequence: TokenSequence
    tree: AmrTree
    levi: LeviGraph
    tree_levi: LeviGraph
    pos_to_levi: tuple
    pos_to_tree_levi: tuple
    levi_init_pos: tuple
    tree_levi_init_pos: tuple


def prepare_example(graph: AmrGraph) -> ExampleRepr:
    trav = _traverse(graph)
    sequence, tree = trav.sequence, trav.tree
    levi = to_levi(graph)
    tree_levi = to_levi(tree)

    concept_idx = {}
    relation_idx = {}
    for lid, (kind, ref) in enumerate(levi.origin):
        (concept_idx if kind == "node" else relation_idx)[ref] = lid
    tree_concept_idx = {}
    tree_relation_idx = {}
    for lid, (kind, ref) in enumerate(tree_levi.origin):
        (tree_concept_idx if kind == "node" else tree_relation_idx)[ref] = lid

    pos_to_levi, pos_to_tree_levi = [], []
    first_pos, rel_pos = {}, {}
    for pos, (kind, ref) in enumerate(sequence.alignment):
        if kind == "node":
            first_pos.setdefault(ref, pos)
            pos_to_levi.append(concept_idx[ref])
            pos_to_tree_levi.append(tree_concept_idx[trav.pos_tree_node[pos]])
        else:
            rel_pos[ref] = pos
            pos_to_levi.append(relation_idx[ref])
            pos_to_tree_levi.append(tree_relation_idx[trav.pos_tree_edge[pos]])

    levi_init_pos = []
    for kind, ref in levi.origin:
        levi_init_pos.append(first_pos[ref] if kind == "node" else rel_pos[ref])
    source_of = dict(tree.copy_of)
    tree_levi_init_pos = []
    for kind, ref in tree_levi.origin:
        if kind == "node":
            tree_levi_init_pos.append(first_pos[source_of[ref]])
        else:
            tree_levi_init_pos.append(rel_pos[tree.edge_origin[ref]])

    return ExampleRepr(
        graph=graph,
        sequence=sequence,
        tree=tree,
        levi=levi,
        tree_levi=tree_levi,
        pos_to_levi=tuple(pos_to_levi),
        pos_to_tree_levi=tuple(pos_to_tree_levi),
        levi_init_pos=tuple(levi_init_pos),
        tree_levi_init_pos=tuple(tree_levi_init_pos),
    )
