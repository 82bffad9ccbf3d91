"""PENMAN notation parsing, serialization, validation and graph statistics.

An AMR is a rooted, directed, edge-labeled graph. Nodes carry concept labels,
edges carry relation labels (``:arg0``, ``:mod``, ...). Reentrancies enter the
graph through variable re-mention in the PENMAN source.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field


class PenmanParseError(ValueError):
    """Raised on malformed PENMAN input; carries the offending position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


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

    def out_edges(self, node_id: str) -> list:
        return [e for e in self.edges if e[0] == node_id]

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
# Tokenizer

_ATOM_BREAK = set('()/"')


def _tokenize(text):
    """Yield (kind, value, line, col); kinds: ( ) / atom str."""
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c.isspace():
            col += 1
            i += 1
        elif c in "()/":
            yield (c, c, line, col)
            col += 1
            i += 1
        elif c == '"':
            start_line, start_col = line, col
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise PenmanParseError("unterminated string", start_line, start_col)
                j += 1
            if j >= n:
                raise PenmanParseError("unterminated string", start_line, start_col)
            yield ("str", text[i + 1 : j], start_line, start_col)
            col += j - i + 1
            i = j + 1
        else:
            start_line, start_col = line, col
            j = i
            while j < n and not text[j].isspace() and text[j] not in _ATOM_BREAK:
                j += 1
            yield ("atom", text[i:j], start_line, start_col)
            col += j - i
            i = j


def parse_penman(text: str) -> AmrGraph:
    """Parse a single PENMAN expression into an AmrGraph.

    Constants (numbers, quoted strings, bare symbols such as ``-``) become
    ordinary nodes, one per occurrence. Re-mentioned variables produce
    additional incoming edges on the existing node.
    """
    if not text or not text.strip():
        raise PenmanParseError("empty input", 1, 1)
    toks = list(_tokenize(text))
    pos = 0  # cursor into toks

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        tok = peek()
        if tok is not None:
            pos += 1
        return tok

    defs = {}  # var -> concept label
    order = []  # vars in definition order
    triples = []  # (parent_var, relation, ('ref'|'const', value))
    last = toks[-1]

    def expect(kind, what):
        tok = take()
        if tok is None:
            raise PenmanParseError(f"expected {what}, found end of input", last[2], last[3])
        if tok[0] != kind:
            raise PenmanParseError(f"expected {what}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse_node():
        open_tok = expect("(", "'('")
        var_tok = expect("atom", "variable name")
        var = var_tok[1]
        slash = peek()
        if slash is None or slash[0] != "/":
            raise PenmanParseError(
                f"expected '/' after variable {var!r}", var_tok[2], var_tok[3]
            )
        take()
        concept_tok = take()
        if concept_tok is None or concept_tok[0] not in ("atom", "str"):
            tok = concept_tok or last
            raise PenmanParseError("expected concept after '/'", tok[2], tok[3])
        if var in defs:
            raise PenmanParseError(
                f"duplicate definition of variable {var!r}", var_tok[2], var_tok[3]
            )
        defs[var] = concept_tok[1]
        order.append(var)
        while True:
            tok = peek()
            if tok is None:
                raise PenmanParseError(
                    "unbalanced parentheses: missing ')'", open_tok[2], open_tok[3]
                )
            if tok[0] == ")":
                take()
                return var
            if tok[0] != "atom" or not tok[1].startswith(":"):
                raise PenmanParseError(
                    f"expected relation starting with ':', found {tok[1]!r}",
                    tok[2],
                    tok[3],
                )
            role = take()[1]
            target = peek()
            if target is None:
                raise PenmanParseError(
                    f"expected target after relation {role!r}", tok[2], tok[3]
                )
            if target[0] == "(":
                child = parse_node()
                triples.append((var, role, ("ref", child)))
            elif target[0] == "str":
                take()
                triples.append((var, role, ("const", target[1])))
            elif target[0] == "atom":
                take()
                # resolved after parsing: defined variables are references,
                # anything else is a constant
                triples.append((var, role, ("maybe", target[1])))
            else:
                raise PenmanParseError(
                    f"unexpected token {target[1]!r} after relation {role!r}",
                    target[2],
                    target[3],
                )

    root = parse_node()
    trailing = peek()
    if trailing is not None:
        raise PenmanParseError(
            f"unbalanced parentheses: unexpected {trailing[1]!r} after graph",
            trailing[2],
            trailing[3],
        )

    nodes = [(v, defs[v]) for v in order]
    edges = []
    const_index = 0
    for parent, role, (kind, value) in triples:
        if kind == "ref" or (kind == "maybe" and value in defs):
            edges.append((parent, role, value))
        else:
            # constant occurrence: a fresh leaf node per occurrence
            node_id = f"_c{const_index}"
            const_index += 1
            nodes.append((node_id, value))
            edges.append((parent, role, node_id))
    return AmrGraph(nodes=tuple(nodes), edges=tuple(edges), root=root)


# --------------------------------------------------------------------------
# Serialization

_BARE_ATOM = re.compile(r"[A-Za-z0-9+\-][A-Za-z0-9._+\-~]*$")
_VAR_NAME = re.compile(r"[a-zA-Z][a-zA-Z0-9\-]*$")


def serialize_penman(graph: AmrGraph, indent: bool = False) -> str:
    """Emit PENMAN text; parse(serialize(g)) is isomorphic to g.

    The first visit of a reentrant node prints its subtree; later visits print
    only the variable.
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

    visited = set()

    def emit(nid: str, depth: int) -> str:
        if nid in visited:
            return var_of[nid]
        visited.add(nid)
        parts = [f"({var_of[nid]} / {atom(labels[nid])}"]
        for _, rel, child in graph.out_edges(nid):
            if indent:
                parts.append("\n" + "    " * (depth + 1) + f"{rel} {emit(child, depth + 1)}")
            else:
                parts.append(f" {rel} {emit(child, depth + 1)}")
        return "".join(parts) + ")"

    return emit(graph.root, 0)


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
    block = []
    for line in text.splitlines():
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
    for line in block.splitlines():
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
