"""PENMAN notation parsing, serialization, validation and graph statistics.

An AMR is a rooted, directed, edge-labeled graph. Nodes carry concept labels,
edges carry relation labels (``:arg0``, ``:mod``, ...). Reentrancies enter the
graph through variable re-mention in the PENMAN source.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice


class PenmanParseError(ValueError):
    """Raised on malformed PENMAN input; carries the offending position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


class GraphTooDeepError(ValueError):
    """Raised when a path from a graph's root is too long for the canonical
    traversal, which recurses once per node along it."""


@dataclass(frozen=True)
class AmrGraph:
    """Immutable rooted directed graph with labeled nodes and edges.

    nodes: tuple of (node_id, concept_label), in first-definition order.
    edges: tuple of (parent_id, relation_label, child_id), in source order.
    root:  node id of the designated root.
    """

    nodes: tuple
    edges: tuple
    root: str

    def labels(self) -> dict:
        return dict(self.nodes)

    @cached_property
    def out_index(self) -> dict:
        """parent id -> indices of its out-edges in source order, built once."""
        index = {}
        for idx, edge in enumerate(self.edges):
            index.setdefault(edge[0], []).append(idx)
        return index

    def out_edges(self, node_id: str) -> list:
        return [self.edges[idx] for idx in self.out_index.get(node_id, ())]

    @cached_property
    def traversal(self) -> tuple:
        """transforms._traverse of this graph, run once per graph object:
        (sequence, tree, pos_tree, first_pos, edge_pos), which every derived
        artifact reads; a GraphTooDeepError if a path from the root is longer
        than the interpreter's recursion limit allows."""
        from .transforms import _traverse  # deferred: transforms imports this module

        return _traverse(self)

    def indegrees(self) -> Counter:
        return Counter(child for _, _, child in self.edges)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class GraphStats:
    reentrancy_count: int
    max_dependency_length: int
    node_count: int
    edge_count: int

    def to_dict(self) -> dict:
        return {
            "reentrancies": self.reentrancy_count,
            "max_dep_len": self.max_dependency_length,
            "nodes": self.node_count,
            "edges": self.edge_count,
        }


@dataclass(frozen=True)
class Violation:
    kind: str  # missing-root | dangling-edge | unreachable-node | duplicate-id
    detail: str


# --------------------------------------------------------------------------
# Parsing

# A token is ( ) /, a quoted string, which cannot span a line (an opening
# quote with no closing one on its line matches alone or with the rest of its
# line, and is an unterminated string), or an atom: a run of characters that
# are neither whitespace (str.isspace, as \s is) nor ( ) / ".
_TOKEN = re.compile(r'[()/]|"[^"\n]*"?|[^\s()/"]+')


def _error_at(text: str, message: str, k: int) -> PenmanParseError:
    """The error for the k-th token of text, at the line and column where it starts."""
    start = next(islice(_TOKEN.finditer(text), k, None)).start()
    line = text.count("\n", 0, start) + 1
    return PenmanParseError(message, line, start - text.rfind("\n", 0, start))


def parse_penman(text: str) -> AmrGraph:
    """Parse a single PENMAN expression into an AmrGraph.

    Constants (numbers, quoted strings, bare symbols such as ``-``) become
    ordinary nodes, one per occurrence. Re-mentioned variables produce
    additional incoming edges on the existing node.

    The parser keeps a stack of the open nodes instead of recursing, so
    nesting has no depth limit. Do not make it a nested function that calls
    itself: the function would hold itself in its closure cell, a cycle that
    keeps the token list and dicts alive until the cyclic collector runs.
    """
    if not text or not text.strip():
        raise PenmanParseError("empty input", 1, 1)
    toks = _TOKEN.findall(text)
    if '"' in text:
        for k, tok in enumerate(toks):
            if tok[0] == '"' and (len(tok) == 1 or tok[-1] != '"'):
                raise _error_at(text, "unterminated string", k)
    n = len(toks)
    pos = 0  # cursor into toks

    def fail(message, k):
        raise _error_at(text, message, k)

    def value(tok):  # a quoted string without its quotes
        return tok[1:-1] if tok[0] == '"' else tok

    defs = {}  # var -> concept label, in definition order
    triples = []  # (parent_var, relation, target token or child var)
    stack = []  # per open node: its variable, the place of its '(' and the relation to it
    role, root = None, None  # role: the relation to the node whose '(' is at toks[pos]
    if toks[0] != "(":
        fail(f"expected '(', found {value(toks[0])!r}", 0)
    while root is None:
        var_k = pos + 1  # toks[pos] is '('
        if var_k >= n:
            fail("expected variable name, found end of input", n - 1)
        var = toks[var_k]
        if var[0] in '()/"':
            fail(f"expected variable name, found {value(var)!r}", var_k)
        if var_k + 1 >= n or toks[var_k + 1] != "/":
            fail(f"expected '/' after variable {var!r}", var_k)
        if var_k + 2 >= n or toks[var_k + 2] in "()/":
            fail("expected concept after '/'", min(var_k + 2, n - 1))
        if var in defs:
            fail(f"duplicate definition of variable {var!r}", var_k)
        defs[var] = value(toks[var_k + 2])
        stack.append((var, pos, role))
        pos = var_k + 3
        while True:  # the relations of the innermost open node, up to the next '('
            if pos >= n:
                fail("unbalanced parentheses: missing ')'", stack[-1][1])
            role = toks[pos]
            if role == ")":
                pos += 1
                child, _, led = stack.pop()
                if not stack:
                    root = child
                    break
                var = stack[-1][0]
                triples.append((var, led, child))
                continue
            if role[0] != ":":
                fail(f"expected relation starting with ':', found {value(role)!r}", pos)
            pos += 1
            if pos >= n:
                fail(f"expected target after relation {role!r}", pos - 1)
            target = toks[pos]
            if target == "(":
                break
            if target in ")/":
                fail(f"unexpected token {target!r} after relation {role!r}", pos)
            # resolved after parsing: an atom naming a defined variable is a
            # reference; other atoms and quoted strings are constants
            pos += 1
            triples.append((var, role, target))
    if pos < n:
        fail(f"unbalanced parentheses: unexpected {value(toks[pos])!r} after graph", pos)

    nodes, edges = list(defs.items()), []
    for parent, role, target in triples:
        if target not in defs:  # a constant: a fresh leaf node per occurrence
            node_id = f"_c{len(nodes) - len(defs)}"
            nodes.append((node_id, value(target)))
            target = node_id
        edges.append((parent, role, target))
    return AmrGraph(nodes=tuple(nodes), edges=tuple(edges), root=root)


# --------------------------------------------------------------------------
# Serialization

_BARE_ATOM = re.compile(r"[A-Za-z0-9+\-][A-Za-z0-9._+\-~]*$")
_VAR_NAME = re.compile(r"[a-zA-Z][a-zA-Z0-9\-]*$")


def serialize_penman(graph: AmrGraph, indent: bool = False) -> str:
    """Emit PENMAN text; parse(serialize(g)) is isomorphic to g.

    The first visit of a reentrant node prints its subtree; later visits print
    only the variable.

    The walk keeps a stack of its own instead of recursing, so nesting has no
    depth limit. Do not make it a nested function that calls itself: the
    function would hold itself in its closure cell, a cycle that keeps the
    graph, with its cached traversal, alive until the cyclic collector runs.
    """
    labels = graph.labels()
    # deterministic variable assignment: keep source ids when they are legal
    # and unique, otherwise generate fresh ones
    var_of = {}
    used = set()
    for nid, _ in graph.nodes:
        name = nid if _VAR_NAME.match(nid) else None
        if name is None or name in used:
            base = "v"
            k = len(used)
            name = f"{base}{k}"
            while name in used:
                k += 1
                name = f"{base}{k}"
        var_of[nid] = name
        used.add(name)

    def atom(label: str) -> str:
        if _BARE_ATOM.match(label) and label not in used:
            return label
        return '"' + label.replace('"', "") + '"'

    parts, visited = [], set()
    out, edges = graph.out_index, graph.edges
    stack = [(graph.root, 0)]  # (node id, depth), or a string to emit
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            parts.append(entry)
            continue
        nid, depth = entry
        if nid in visited:
            parts.append(var_of[nid])
            continue
        visited.add(nid)
        parts.append(f"({var_of[nid]} / {atom(labels[nid])}")
        stack.append(")")
        sep = "\n" + "    " * (depth + 1) if indent else " "
        for idx in reversed(out.get(nid, ())):
            _, rel, child = edges[idx]
            stack += ((child, depth + 1), f"{sep}{rel} ")
    return "".join(parts)


# --------------------------------------------------------------------------
# Validation and statistics


def validate(graph: AmrGraph) -> list:
    """Return one Violation per invariant failure; empty list iff valid."""
    violations = []
    ids = [n for n, _ in graph.nodes]
    id_set = set(ids)
    seen = set()
    for nid in ids:
        if nid in seen:
            violations.append(Violation("duplicate-id", f"node id {nid!r} defined twice"))
        seen.add(nid)
    if graph.root not in id_set:
        violations.append(Violation("missing-root", f"root {graph.root!r} is not a node"))
        return violations
    adjacency = {}
    for parent, rel, child in graph.edges:
        for endpoint in (parent, child):
            if endpoint not in id_set:
                violations.append(
                    Violation(
                        "dangling-edge",
                        f"edge ({parent!r}, {rel!r}, {child!r}) references unknown id {endpoint!r}",
                    )
                )
        if parent in id_set and child in id_set:
            adjacency.setdefault(parent, []).append(child)
    reachable = set()
    stack = [graph.root]
    while stack:
        nid = stack.pop()
        if nid in reachable:
            continue
        reachable.add(nid)
        stack.extend(adjacency.get(nid, ()))
    for nid in ids:
        if nid not in reachable:
            violations.append(
                Violation("unreachable-node", f"node {nid!r} is not reachable from the root")
            )
    return violations


def reentrancy_count(graph: AmrGraph) -> int:
    return sum(max(0, d - 1) for d in graph.indegrees().values())


def compute_stats(graph: AmrGraph) -> GraphStats:
    from . import transforms  # deferred: stats delegate to the linearizer

    return GraphStats(
        reentrancy_count=reentrancy_count(graph),
        max_dependency_length=transforms.max_dependency_length(graph),
        node_count=graph.node_count,
        edge_count=graph.edge_count,
    )


# --------------------------------------------------------------------------
# Corpus I/O: blank-line-separated PENMAN blocks with ``# ::key value`` lines


@dataclass(frozen=True)
class CorpusExample:
    id: str
    graph: AmrGraph
    sentence: tuple  # whitespace tokens of the ``::snt`` line, lowercased
    metadata: tuple = field(default_factory=tuple)


def iter_blocks(text: str):
    """The blank-line-separated blocks of a corpus text. A line ends only at
    "\n", as in parse_penman, so other Unicode line boundaries such as "\x85"
    or "\u2028" stay inside a sentence or a quoted constant."""
    block = []
    for line in text.split("\n"):
        if line.strip():
            block.append(line)
        elif block:
            yield "\n".join(block)
            block = []
    if block:
        yield "\n".join(block)


def parse_block(block: str, default_id: str) -> CorpusExample:
    meta = {}
    graph_lines = []
    for line in block.split("\n"):
        stripped = line.strip()
        if stripped.startswith("# ::"):
            body = stripped[4:]
            key, _, value = body.partition(" ")
            meta[key] = value.strip()
        elif stripped.startswith("#"):
            continue
        else:
            graph_lines.append(line)
    graph = parse_penman("\n".join(graph_lines))
    sentence = tuple(meta.get("snt", "").lower().split())
    example_id = meta.get("id", default_id)
    metadata = tuple((k, v) for k, v in meta.items() if k not in ("id",))
    return CorpusExample(id=example_id, graph=graph, sentence=sentence, metadata=metadata)


def read_corpus_text(text: str) -> list:
    examples = []
    for i, block in enumerate(iter_blocks(text)):
        examples.append(parse_block(block, default_id=f"example-{i}"))
    return examples
