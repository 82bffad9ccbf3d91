"""PENMAN parsing, serialization, validation, statistics and corpus I/O.

Oracle notes:
* golden-file expectations are [DERIVED]: enumerated by hand from the input
  expressions (see golden/expected.json).
* structural assertions on tiny inline graphs are [TRIVIAL]: small enough to
  read off directly.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amrgen import amr
from amrgen.amr import PenmanParseError, parse_penman, serialize_penman, validate

import reference_penman
from conftest import assert_one_object_per_value, graph_strings, random_dag_graph


# --------------------------------------------------------------------------
# Parsing: golden corpus


def test_golden_structures(golden_cases):
    for name, text, fields in golden_cases:
        g = parse_penman(text)
        assert g.node_count == fields["nodes"], name
        assert g.edge_count == fields["edges"], name
        assert amr.reentrancy_count(g) == fields["reentrancies"], name
        assert not validate(g), name


def test_golden_stats_dict(golden_cases):
    for name, text, fields in golden_cases:
        stats = amr.compute_stats(parse_penman(text)).to_dict()
        assert stats == {
            "reentrancies": fields["reentrancies"],
            "max_dep_len": fields["maxdep"],
            "nodes": fields["nodes"],
            "edges": fields["edges"],
        }, name


# --------------------------------------------------------------------------
# Parsing: small structural facts ([TRIVIAL])


def test_parse_figure_graph(figure_graph):
    g = figure_graph
    assert g.node_count == 4
    assert g.edge_count == 4
    labels = g.labels()
    assert labels == {"e": "eat-01", "h": "he", "p": "pizza", "f": "finger"}
    assert ("f", ":part-of", "h") in g.edges
    assert amr.reentrancy_count(g) == 1


def test_constants_one_node_per_occurrence():
    g = parse_penman('(a / and :op1 (x / x-01 :quant 3) :op2 (y / y-01 :quant 3))')
    # the two "3" constants stay distinct nodes
    threes = [nid for nid, label in g.nodes if label == "3"]
    assert len(threes) == 2


def test_forward_reference():
    g = parse_penman("(a / a-01 :arg0 b :arg1 (b / boy))")
    assert ("a", ":arg0", "b") in g.edges
    assert g.labels()["b"] == "boy"
    assert amr.reentrancy_count(g) == 1


def test_quoted_string_with_spaces():
    g = parse_penman('(n / name :op1 "New York")')
    assert "New York" in [label for _, label in g.nodes]


def test_unquoted_atom_target_is_constant():
    g = parse_penman("(d / date-entity :year 2008)")
    assert g.edge_count == 1
    assert "2008" in [label for _, label in g.nodes]


# --------------------------------------------------------------------------
# Interning: graphs and sentences parsed separately share their strings


def test_separately_parsed_graphs_share_one_object_per_token():
    first = parse_penman('(sl / sleep-01 :arg0 (bo / boy :name (na / name :op1 "Paris"))'
                         ' :quant 42 :arg1-of (ha / have-03 :arg0 bo))')
    second = parse_penman('(bo / boy :arg0-of (sl / sleep-01 :quant 42)'
                          ' :name (na / name :op1 "Paris"))')
    assert_one_object_per_value([*graph_strings(first), *graph_strings(second)])
    shared = set(graph_strings(first)) & set(graph_strings(second))
    # a variable, a concept, a relation, both kinds of constant and a constant id
    assert {"sl", "sleep-01", ":quant", "42", "Paris", "_c0"} <= shared


def test_corpus_sentences_share_one_object_per_word():
    examples = amr.read_corpus_text("# ::snt The boy sleeps\n(s / sleep-01)\n\n"
                                    "# ::snt the BOY eats\n(e / eat-01)\n")
    assert_one_object_per_value(w for ex in examples for w in ex.sentence)


# --------------------------------------------------------------------------
# Parse errors carry positions


@pytest.mark.parametrize(
    "text, fragment, line, col",
    [
        ("", "empty input", 1, 1),
        ("   \n ", "empty input", 1, 1),
        ('(x / "abc', "unterminated string", 1, 6),
        ("(x y)", "expected '/'", 1, 2),
        ("(x / c :arg0 (x / d))", "duplicate definition", 1, 15),
        ("(x / c foo)", "expected relation starting with ':'", 1, 8),
        ("(x / c :arg0 (y / d)", "unbalanced parentheses", 1, 1),
        ("(x / c) extra", "unbalanced parentheses", 1, 9),
        ("(x / c :arg0)", "unexpected token ')'", 1, 13),
        ("(x /)", "expected concept", 1, 5),
        ("(x / c :arg0 (_c0 / d))", "variable name '_c0' is reserved", 1, 15),
        ("(x#1 / c)", "variable name 'x#1' is reserved", 1, 2),
    ],
)
def test_parse_errors(text, fragment, line, col):
    with pytest.raises(PenmanParseError) as err:
        parse_penman(text)
    assert fragment in str(err.value)
    assert err.value.line == line
    assert err.value.col == col


def test_parse_error_line_tracking():
    with pytest.raises(PenmanParseError) as err:
        parse_penman("(x / c\n  :arg0 (x / d))")
    assert err.value.line == 2


# --------------------------------------------------------------------------
# The regular-expression tokenizer against the character scanner


def _outcome(parse, text):
    try:
        g = parse(text)
    except PenmanParseError as err:
        return ("error", str(err), err.message, err.line, err.col)
    return ("graph", g.nodes, g.edges, g.root)


_BASES = (
    "(e / eat-01 :arg0 (h / he) :arg1 (p / pizza) :instrument (f / finger :part-of h))",
    '(w / want-01\n    :arg0 (b / boy)\n    :arg1 (g / go-02 :arg0 b :mod "a b"))',
    '(n / name :op1 "New York" :op2 "")',
    "(d / date-entity :year 2008 :polarity -)",
    "(a / a-01 :arg0 b :arg1 (b / boy))",
)
# whitespace the scanner treats as one column each (only "\n" starts a line),
# quotes, and pieces of PENMAN syntax
_PIECES = ("(", ")", "/", '"', ":", ":arg1", " ", "\t", "\n", "\r\n", "\r", "\x1c", "\x85",
           "\xa0", "\u2028", "\u3000", "x", "q-01", "7", " (z / zz) ", '"s t"', '"u\n')


@st.composite
def _mutated_penman(draw):
    text = draw(st.sampled_from(_BASES))
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))  # characters replaced; 0 inserts
        text = text[:i] + draw(st.sampled_from(_PIECES)) + text[i + cut:]
    return text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=_mutated_penman())
def test_parse_matches_the_character_scanner(text):
    assert _outcome(parse_penman, text) == _outcome(reference_penman.parse_penman, text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
def test_parse_matches_the_character_scanner_on_fragments(text):
    assert _outcome(parse_penman, text) == _outcome(reference_penman.parse_penman, text)


@pytest.mark.parametrize("text", [
    '"', '(x / "', '(x / c :op1 ")', '(x / c :op1 "a\n")', '(x / c :op1 "a\r\nb")',
    '(x / c)\n"', '(x\t/\tc\r\n\t:arg0\x85(y / "d"))', '(x / c\u2028:arg0 y) (', "\x1c\xa0(",
])
def test_parse_matches_the_character_scanner_on_quotes_and_whitespace(text):
    assert _outcome(parse_penman, text) == _outcome(reference_penman.parse_penman, text)


# --------------------------------------------------------------------------
# Serialization round trip


def _isomorphic(a: amr.AmrGraph, b: amr.AmrGraph) -> bool:
    """Graph equality up to node renaming, via canonical traversal signatures."""

    def signature(g, out, nid, seen):
        if nid in seen:
            return ("back", seen[nid])
        seen = dict(seen)
        seen[nid] = len(seen)
        children = tuple(
            (rel, signature(g, out, child, seen))
            for _, rel, child in sorted(
                (g.edges[idx] for idx in out.get(nid, ())), key=lambda e: (e[1], g.labels()[e[2]])
            )
        )
        return (g.labels()[nid], children)

    return signature(a, a.out_index(), a.root, {}) == signature(b, b.out_index(), b.root, {})


def test_round_trip_golden(golden_cases):
    for name, text, _ in golden_cases:
        g = parse_penman(text)
        again = parse_penman(serialize_penman(g))
        assert _isomorphic(g, again), name


def test_round_trip_random_dags():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = random_dag_graph(rng)
        again = parse_penman(serialize_penman(g))
        assert again.node_count == g.node_count
        assert again.edge_count == g.edge_count
        assert _isomorphic(g, again)


def _with_back_edges(graph, rng, count):
    """graph plus up to count edges from a node to itself or to an earlier
    node, each of which closes a cycle through the tree edges."""
    ids = [nid for nid, _ in graph.nodes]
    edges = list(graph.edges)
    existing = {(p, c) for p, _, c in edges}
    for _ in range(count):
        v = int(rng.integers(0, len(ids)))
        u = int(rng.integers(0, v + 1))
        if (ids[v], ids[u]) not in existing:
            existing.add((ids[v], ids[u]))
            edges.append((ids[v], f":y{int(rng.integers(0, 3))}", ids[u]))
    return amr.AmrGraph(nodes=graph.nodes, edges=tuple(edges), root=graph.root)


# random_tree_graph draws 2 to max_nodes - 1 nodes
@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), max_nodes=st.integers(3, 13),
       extra=st.integers(0, 4), back=st.integers(0, 3), indent=st.booleans())
def test_round_trip_random_graphs_with_cycles(seed, max_nodes, extra, back, indent):
    rng = np.random.default_rng(seed)
    g = _with_back_edges(random_dag_graph(rng, max_nodes=max_nodes, extra_edges=extra), rng, back)
    assert validate(g) == []
    again = parse_penman(serialize_penman(g, indent=indent))
    assert again.node_count == g.node_count
    assert again.edge_count == g.edge_count
    assert _isomorphic(g, again)
    assert serialize_penman(again, indent=indent) == serialize_penman(g, indent=indent)


def test_serialize_quotes_odd_labels():
    g = amr.AmrGraph(
        nodes=(("a", "thing"), ("b", "two words")), edges=(("a", ":op1", "b"),), root="a"
    )
    text = serialize_penman(g)
    assert '"two words"' in text
    assert _isomorphic(g, parse_penman(text))


def test_serialize_indent_round_trip(figure_graph):
    text = serialize_penman(figure_graph, indent=True)
    assert "\n" in text
    assert _isomorphic(figure_graph, parse_penman(text))


# --------------------------------------------------------------------------
# Validation


def test_validate_clean(figure_graph):
    assert validate(figure_graph) == []


def test_validate_duplicate_id():
    g = amr.AmrGraph(nodes=(("a", "x"), ("a", "y")), edges=(), root="a")
    kinds = [v.kind for v in validate(g)]
    assert "duplicate-id" in kinds


def test_validate_missing_root():
    g = amr.AmrGraph(nodes=(("a", "x"),), edges=(), root="zz")
    kinds = [v.kind for v in validate(g)]
    assert kinds == ["missing-root"]


def test_validate_dangling_edge():
    g = amr.AmrGraph(nodes=(("a", "x"),), edges=(("a", ":op1", "ghost"),), root="a")
    kinds = [v.kind for v in validate(g)]
    assert "dangling-edge" in kinds


def test_validate_unreachable():
    g = amr.AmrGraph(nodes=(("a", "x"), ("b", "y")), edges=(), root="a")
    kinds = [v.kind for v in validate(g)]
    assert "unreachable-node" in kinds


# --------------------------------------------------------------------------
# Corpus I/O


def test_read_corpus_block():
    text = (
        "# ::id ex-1\n"
        "# ::snt The boy wants to go\n"
        "(w / want-01 :arg0 (b / boy) :arg1 (g / go-02 :arg0 b))\n"
        "\n"
        "# ::snt Second\n"
        "(d / dog)\n"
    )
    examples = amr.read_corpus_text(text)
    assert len(examples) == 2
    assert examples[0].id == "ex-1"
    assert examples[0].sentence == ("the", "boy", "wants", "to", "go")
    assert examples[0].graph.node_count == 3
    assert examples[1].id == "example-1"  # fallback id
    assert examples[1].sentence == ("second",)


@pytest.mark.parametrize("char", ["\x1c", "\x85", "\u2028"])
def test_read_corpus_ends_a_line_only_at_newline(char):
    # str.splitlines() would also break these lines at char
    graph = f'(x / c{char}:op1 "a{char}b"\n   :op2 (y / d))'
    text = f"# ::id a\n# ::snt hello{char}world\n{graph}\n\n# ::snt next\n(z / e)\n"
    first, second = amr.read_corpus_text(text)
    assert first.id == "a"
    assert first.sentence == ("hello", "world")
    assert first.graph == reference_penman.parse_penman(graph)
    assert ("_c0", f"a{char}b") in first.graph.nodes
    assert second.sentence == ("next",)


def test_read_corpus_preserves_other_metadata():
    text = "# ::id x\n# ::snt a b\n# ::src test\n(d / dog)\n"
    ex = amr.read_corpus_text(text)[0]
    assert ("src", "test") in ex.metadata


def test_toy_corpus_loads(toy_corpus):
    assert len(toy_corpus) == 60
    assert all(ex.sentence for ex in toy_corpus)
    assert all(not validate(ex.graph) for ex in toy_corpus)
    ids = [ex.id for ex in toy_corpus]
    assert len(set(ids)) == 60


def test_round_trip_nesting_past_the_recursion_limit():
    # parsing and serializing walk with a stack of their own, at any depth
    depth = 5000
    text = "".join(f"(a{i} / x :arg0 " for i in range(depth)) + "(z / y)" + ")" * depth
    g = parse_penman(text)
    assert g.node_count == depth + 1 and g.edge_count == depth
    assert serialize_penman(g) == text
