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
import sys
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .amr import AmrGraph, GraphTooDeepError


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

    @cached_property
    def forest(self) -> "Forest":
        """The graph as a Forest of one tree, derived on first read; a
        ValueError unless the edges form one tree rooted at root."""
        return Forest.tree(self.node_count, self.edges, self.root)


UpLevel = namedtuple("UpLevel", "nodes slots rows first more owner single multi")
DownPass = namedtuple("DownPass", "kids parents ups unsort levels lone")


class Forest:
    """Trees over consecutive blocks of node rows, indexed for the TreeLSTM
    kernels, which run each pass level by level over all the trees at once
    (dynamic batching, as in TF Fold; Looks et al. 2017).

    `kids` lists every non-root node, grouped by parent in post-order of the
    parents (each child before its parent), children in edge order within a
    group, and `kid_parent` holds each one's parent. `up_levels[h - 1]` is
    the UpLevel of the parents of height h (1 + their highest child's): the
    nodes in post-order, their slots in `kids`, group by group, and the
    slots' rows; first, the place among the slots of each node's first
    child, and more, for each child index j > 0, the nodes with more than j
    children and the places of their j-th children; owner, each slot's
    node; single and multi, the slots of nodes with one child and with
    more. `leaves` lists the nodes of height 0. `down` lists
    the non-root nodes with every parent before its children (each tree's
    post-order reversed) and `down_parent` their parents. `down_pass` has
    them depth by depth, the latest place in `down` first within a depth:
    their rows (kids) and their parents' rows, the place of each one's
    parent in that order or, for a root's child, one past its end (ups),
    the places that put them back in `down`'s order (unsort), and per
    depth a (start, stop, shared) level: their span and whether two of
    them share a parent. `lone_rows` are the rows of one-node trees,
    and `down_pass.lone` the places of the one child of two-node trees,
    when other rows are beside them. The levels are derived on first read,
    so a tree that is only ever joined with others never derives its own.
    """

    def __init__(self, sizes, roots, kids, kid_parent, down, down_parent, height, depth):
        self.sizes, self.roots = list(sizes), roots
        self.kids, self.kid_parent = kids, kid_parent
        self.down, self.down_parent = down, down_parent
        self.height, self.depth = height, depth

    @cached_property
    def leaves(self):
        return np.flatnonzero(np.bincount(self.kid_parent, minlength=sum(self.sizes)) == 0)

    @cached_property
    def up_levels(self):
        counts = np.bincount(self.kid_parent, minlength=sum(self.sizes))
        slot_height = self.height[self.kid_parent]
        levels = []
        for level in range(1, int(self.height.max()) + 1):
            slots = np.flatnonzero(slot_height == level)
            owners = self.kid_parent[slots]
            first = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
            nodes = owners[first]
            per_node = counts[nodes]
            more = [(np.flatnonzero(per_node > j), first[per_node > j] + j)
                    for j in range(1, int(per_node.max()))]
            owner = np.repeat(np.arange(len(nodes)), per_node)
            one = per_node[owner] == 1
            levels.append(UpLevel(nodes, slots, self.kids[slots], first, more, owner,
                                  np.flatnonzero(one), np.flatnonzero(~one)))
        return levels

    @cached_property
    def down_pass(self):
        kid_depth = self.depth[self.down]
        order = np.concatenate([np.flatnonzero(kid_depth == level)[::-1]
                                for level in range(1, int(self.depth.max()) + 1)]
                               + [self.down[:0]])
        kids, parents = self.down[order], self.down_parent[order]
        place = np.full(sum(self.sizes), len(order))  # a root's: one past the end
        place[kids] = np.arange(len(order))
        ups = place[parents]
        levels, start = [], 0
        for stop in np.cumsum(np.bincount(kid_depth)[1:]).tolist():
            levels.append((start, stop, len(set(ups[start:stop].tolist())) < stop - start))
            start = stop
        sizes = np.array(self.sizes)
        two = np.repeat(sizes == 2, sizes - 1)[order]
        lone = np.flatnonzero(two) if len(order) > 1 else order[:0]
        return DownPass(kids, parents, ups, np.argsort(order), levels, lone)

    @cached_property
    def lone_rows(self):
        sizes = np.array(self.sizes)
        return self.roots[sizes == 1] if sizes.sum() > 1 else self.roots[:0]

    @classmethod
    def tree(cls, node_count: int, edges, root: int) -> "Forest":
        """One tree of node_count nodes; raises unless the (u, v) edges form
        one tree rooted at root."""
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
        order = []  # post-order: every child before its parent
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
        height, depth = [0] * node_count, [0] * node_count
        for node in order:
            if children[node]:
                height[node] = 1 + max(height[child] for child in children[node])
        for node in reversed(order):
            for child in children[node]:
                depth[child] = depth[node] + 1
        kids = [child for node in order for child in children[node]]
        down = order[-2::-1]
        index = partial(np.array, dtype=np.intp)
        return cls([node_count], index([root]), index(kids), index([parent[v] for v in kids]),
                   index(down), index([parent[v] for v in down]), index(height), index(depth))

    @classmethod
    def join(cls, forests) -> "Forest":
        """The forests side by side, each one's rows after the one before."""
        if len(forests) == 1:
            return forests[0]
        offsets = np.cumsum([0] + [sum(f.sizes) for f in forests[:-1]])

        def shifted(name):
            return np.concatenate([getattr(f, name) + off for f, off in zip(forests, offsets)])

        return cls([size for f in forests for size in f.sizes], shifted("roots"),
                   shifted("kids"), shifted("kid_parent"), shifted("down"),
                   shifted("down_parent"), np.concatenate([f.height for f in forests]),
                   np.concatenate([f.depth for f in forests]))


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


class _Traversal:
    """The lists and dicts that one canonical traversal fills in.

    visit recurses as a method. Do not make it a nested function that calls
    itself: the function would hold itself in its closure cell, a cycle that
    keeps all of the walk's lists and dicts alive until the cyclic collector
    runs, instead of freeing them when the walk returns."""

    def __init__(self, graph: AmrGraph):
        self.labels, self.edges, self.out = graph.labels(), graph.edges, graph.out_index
        self.tokens, self.alignment, self.pos_tree = [], [], []
        self.tree_nodes, self.tree_edges, self.copy_of, self.edge_origin = [], [], [], []
        self.first_pos, self.edge_pos = {}, {}
        self.path = set()  # the current root path, for cycle breaking
        self.copies = {}  # node id -> tree copies made so far

    def visit(self, nid, emit):
        """Add a tree copy of nid, and its concept token if emit, then the
        copies below it unless nid is on the root path; returns the copy's id."""
        count = self.copies.get(nid, 0)
        self.copies[nid] = count + 1
        tid = nid if count == 0 else f"{nid}#{count}"
        label, tokens, tree_nodes = self.labels[nid], self.tokens, self.tree_nodes
        tree_nodes.append((tid, label))
        self.copy_of.append((tid, nid))
        emit_children = False
        if emit:
            if nid not in self.first_pos:
                self.first_pos[nid] = len(tokens)
                emit_children = True
            tokens.append(label)
            self.alignment.append(("node", nid))
            self.pos_tree.append(len(tree_nodes) - 1)
        path = self.path
        if nid not in path:
            path.add(nid)
            edges, tree_edges = self.edges, self.tree_edges
            for eidx in self.out.get(nid, ()):
                _, rel, child = edges[eidx]
                slot = len(tree_edges)
                tree_edges.append(None)
                self.edge_origin.append(eidx)
                if emit_children:
                    self.edge_pos[eidx] = len(tokens)
                    tokens.append(rel)
                    self.alignment.append(("edge", eidx))
                    self.pos_tree.append(slot)
                tree_edges[slot] = (tid, rel, self.visit(child, emit_children))
            path.discard(nid)
        return tid


def _traverse(graph: AmrGraph):
    """The canonical depth-first traversal, which AmrGraph.traversal runs once
    per graph object: (sequence, tree, pos_tree, first_pos, edge_pos), where
    pos_tree holds per position its tree node index, or its tree edge index
    for a relation token, first_pos maps each node id to the position of its
    first mention, in mention order, and edge_pos each edge index to the
    position of its relation token. A GraphTooDeepError if a path from the
    root is longer than the interpreter's recursion limit allows."""
    walk = _Traversal(graph)
    try:
        root_tid = walk.visit(graph.root, True)
    except RecursionError:
        raise GraphTooDeepError(
            "graph too deep to traverse: a path from its root is longer than the "
            f"recursion limit ({sys.getrecursionlimit()}) allows") from None
    sequence = TokenSequence(tokens=tuple(walk.tokens), alignment=tuple(walk.alignment))
    tree = AmrTree(
        nodes=tuple(walk.tree_nodes),
        edges=tuple(walk.tree_edges),
        root=root_tid,
        copy_of=tuple(walk.copy_of),
        edge_origin=tuple(walk.edge_origin),
    )
    return sequence, tree, tuple(walk.pos_tree), walk.first_pos, walk.edge_pos


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
