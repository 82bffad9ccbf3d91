"""Levi graph, tree conversion, linearization, dependency length, anonymization.

Oracle notes:
* golden tokens / maxdep / Levi sizes are [DERIVED] (hand-enumerated, see
  golden/expected.json).
* Levi size laws and the brute-force dependency-length oracle recompute the
  expected values here, independently of the implementation.
"""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amrgen import amr, transforms
from amrgen.amr import parse_penman
from amrgen.transforms import (
    AnonymizationPolicy,
    anonymize,
    anonymize_sentence,
    deanonymize,
    linearize,
    max_dependency_length,
    prepare_example,
    to_levi,
    to_tree,
)

from conftest import random_dag_graph, random_tree_graph


# --------------------------------------------------------------------------
# Linearization


def test_golden_linearization(golden_cases):
    for name, text, fields in golden_cases:
        seq = linearize(parse_penman(text))
        assert list(seq.tokens) == fields["tokens"], name


def test_linearization_alignment(figure_graph):
    seq = linearize(figure_graph)
    kinds = [kind for kind, _ in seq.alignment]
    # alternating provenance: concept, relation, concept, ...
    assert kinds == ["node", "edge"] * 4 + ["node"]
    # the reentrant 'he' tokens map to the same source node
    he_positions = [i for i, t in enumerate(seq.tokens) if t == "he"]
    assert len(he_positions) == 2
    assert seq.alignment[he_positions[0]] == seq.alignment[he_positions[1]]


def test_linearization_length_on_trees():
    # a tree with E edges linearizes to exactly 1 + 2E tokens
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = random_tree_graph(rng)
        assert len(linearize(g)) == 1 + 2 * g.edge_count


# --------------------------------------------------------------------------
# Levi graph


def test_golden_levi_sizes(golden_cases):
    for name, text, fields in golden_cases:
        levi = to_levi(parse_penman(text))
        assert levi.node_count == fields["levi_nodes"], name
        assert levi.edge_count == fields["levi_edges"], name


def test_levi_size_laws_and_bipartite():
    rng = np.random.default_rng(4)
    for _ in range(100):
        g = random_dag_graph(rng)
        levi = to_levi(g)
        assert levi.node_count == g.node_count + g.edge_count
        assert levi.edge_count == 2 * g.edge_count
        kinds = {lid: kind for lid, _, kind in levi.nodes}
        for u, v in levi.edges:
            # every edge joins a concept node and a relation node
            assert {kinds[u], kinds[v]} == {"concept", "relation"}
        relation_ids = [lid for lid, _, kind in levi.nodes if kind == "relation"]
        assert len(relation_ids) == g.edge_count  # one per edge instance
        for rid in relation_ids:
            assert sum(1 for u, v in levi.edges if rid in (u, v)) == 2


def test_levi_paths_replace_labeled_edges(figure_graph):
    levi = to_levi(figure_graph)
    token = {lid: tok for lid, tok, _ in levi.nodes}
    adj = set(levi.edges)

    def has_path(a, rel, b):
        for u, v in adj:
            if token[u] == a and token[v] == rel:
                for u2, v2 in adj:
                    if u2 == v and token[v2] == b:
                        return True
        return False

    assert has_path("eat-01", ":arg0", "he")
    assert has_path("finger", ":part-of", "he")


# --------------------------------------------------------------------------
# Tree conversion


def test_tree_figure_duplicates_he(figure_graph):
    tree = to_tree(figure_graph)
    labels = [label for _, label in tree.nodes]
    assert labels.count("he") == 2
    copy_of = dict(tree.copy_of)
    he_ids = [tid for tid, label in tree.nodes if label == "he"]
    assert {copy_of[t] for t in he_ids} == {"h"}


def test_tree_indegree_at_most_one():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = random_dag_graph(rng)
        tree = to_tree(g)
        indeg = {}
        for parent, _, child in tree.edges:
            indeg[child] = indeg.get(child, 0) + 1
            assert indeg[child] == 1
        # connected: every non-root node has a parent
        parented = set(indeg)
        for tid, _ in tree.nodes:
            assert tid == tree.root or tid in parented


def test_tree_node_count_for_leaf_reentrancies():
    # when every reentrant node is a leaf, splitting adds exactly one copy
    # per extra incoming edge: |V_tree| = |V| + sum(max(0, indeg - 1))
    g = parse_penman(
        "(a / and :op1 (x / x-01 :arg0 (p / person)) :op2 (y / y-01 :arg0 p :arg1 p))"
    )
    extra = amr.reentrancy_count(g)
    assert extra == 2
    assert to_tree(g).node_count == g.node_count + extra


def test_tree_duplicates_whole_subtree():
    # the reentrant node carries a subtree; both copies carry it
    g = parse_penman(
        "(a / and :op1 (s / see-01 :arg0 (m / man :poss (h / he))) :op2 (t / talk-01 :arg0 m))"
    )
    tree = to_tree(g)
    labels = [label for _, label in tree.nodes]
    assert labels.count("man") == 2
    assert labels.count("he") == 2  # duplicated below the second 'man' copy


def test_tree_breaks_two_cycle():
    g = parse_penman("(f / fear-01 :arg0 (p / person :arg0-of f))")
    tree = to_tree(g)
    # terminates, splitting the cycle at the back-reference
    assert tree.node_count == 3
    labels = [label for _, label in tree.nodes]
    assert labels.count("fear-01") == 2
    indeg = {}
    for parent, _, child in tree.edges:
        indeg[child] = indeg.get(child, 0) + 1
    assert all(v == 1 for v in indeg.values())


def test_tree_levi_matches_tree(figure_example):
    ex = figure_example
    tree_levi = ex.structures["tree"].levi
    assert tree_levi.node_count == ex.tree.node_count + ex.tree.edge_count
    assert tree_levi.edge_count == 2 * ex.tree.edge_count


# --------------------------------------------------------------------------
# Dependency length


def test_golden_maxdep(golden_cases):
    for name, text, fields in golden_cases:
        assert max_dependency_length(parse_penman(text)) == fields["maxdep"], name


def brute_force_maxdep(graph):
    """Independent oracle: recompute positions from the token sequence and
    alignment, then maximize over both halves of every source edge."""
    seq = linearize(graph)
    first = {}
    rel = {}
    for pos, (kind, ref) in enumerate(seq.alignment):
        if kind == "node" and ref not in first:
            first[ref] = pos
        if kind == "edge":
            rel[ref] = pos
    best = 0
    for eidx, (parent, _, child) in enumerate(graph.edges):
        best = max(best, abs(rel[eidx] - first[parent]), abs(first[child] - rel[eidx]))
    return best


def test_maxdep_brute_force_agreement():
    rng = np.random.default_rng(6)
    for _ in range(100):
        g = random_dag_graph(rng)
        assert max_dependency_length(g) == brute_force_maxdep(g)


def test_maxdep_single_node():
    assert max_dependency_length(parse_penman("(d / dog)")) == 0


# --------------------------------------------------------------------------
# Anonymization


def _policy(**freq):
    return AnonymizationPolicy(frequencies=freq, threshold=5)


def test_anonymize_person_name():
    g = parse_penman('(p / person :name (n / name :op1 "John"))')
    out, mapping = anonymize(g, _policy(person=100))
    labels = [label for _, label in out.nodes]
    assert "person_name_0" in labels
    assert mapping == (("person_name_0", "John"),)
    # the name subtree is folded into the placeholder
    assert out.node_count == 1


def test_anonymize_location_and_date():
    g = parse_penman(
        '(v / visit-01 :arg1 (c / city :name (n / name :op1 "London"))'
        " :time (d / date-entity :year 2008))"
    )
    out, mapping = anonymize(g, _policy(**{"visit-01": 100, "city": 50}))
    labels = [label for _, label in out.nodes]
    assert "location_name_0" in labels
    assert "date_0" in labels
    assert dict(mapping)["location_name_0"] == "London"


def test_anonymize_number_and_rare():
    g = parse_penman("(b / buy-01 :arg1 (z / zylophone) :quant 3)")
    out, mapping = anonymize(g, _policy(**{"buy-01": 100, "zylophone": 1}))
    labels = [label for _, label in out.nodes]
    assert "number_0" in labels
    assert "rare_0" in labels
    assert dict(mapping)["rare_0"] == "zylophone"


def test_anonymize_threshold_boundary():
    g = parse_penman("(c / common :arg0 (r / rare-word))")
    out, _ = anonymize(g, _policy(common=5, **{"rare-word": 4}))
    labels = [label for _, label in out.nodes]
    assert "common" in labels  # frequency == threshold stays
    assert "rare-word" not in labels


def test_anonymize_multiword_name_roundtrip():
    g = parse_penman('(c / city :name (n / name :op1 "New" :op2 "York"))')
    out, mapping = anonymize(g, _policy(city=100))
    assert dict(mapping)["location_name_0"] == "New York"
    tokens = ["i", "like", "location_name_0"]
    assert deanonymize(tokens, mapping) == ["i", "like", "new", "york"]


def test_deanonymize_unknown_placeholder_passes_through():
    assert deanonymize(["person_7", "ran"], ()) == ["person_7", "ran"]


def test_anonymize_sentence_replaces_spans():
    mapping = (("location_name_0", "New York"),)
    out = anonymize_sentence(["i", "like", "new", "york", "a", "lot"], mapping)
    assert out == ["i", "like", "location_name_0", "a", "lot"]


def test_anonymize_sentence_no_match_is_identity():
    mapping = (("person_name_0", "John"),)
    assert anonymize_sentence(["nothing", "here"], mapping) == ["nothing", "here"]


def test_anonymize_deanonymize_sentence_roundtrip():
    sentence = ["john", "visited", "new", "york"]
    mapping = (("person_name_0", "John"), ("location_name_0", "New York"))
    anonymized = anonymize_sentence(sentence, mapping)
    assert anonymized == ["person_name_0", "visited", "location_name_0"]
    assert deanonymize(anonymized, mapping) == sentence


# --------------------------------------------------------------------------
# prepare_example alignment maps


def test_prepare_example_alignment(figure_example):
    ex = figure_example
    n = len(ex.sequence.tokens)
    assert set(ex.structures) == {"graph", "tree"}
    for aligned in ex.structures.values():
        assert len(aligned.pos_to_node) == n
        levi_tokens = {lid: tok for lid, tok, _ in aligned.levi.nodes}
        for pos, lid in enumerate(aligned.pos_to_node):
            assert levi_tokens[lid] == ex.sequence.tokens[pos]


def test_prepare_example_init_pos_first_occurrence(figure_example):
    aligned = figure_example.structures["graph"]
    # init positions invert the pos maps at each structure node's first mention
    for lid, pos in enumerate(aligned.init_pos):
        assert aligned.pos_to_node[pos] == lid
        earlier = [p for p in range(pos) if aligned.pos_to_node[p] == lid]
        assert not earlier


def _levi_sources(ex, input_repr):
    """Per Levi node, the ("node", id) or ("edge", index) of the source graph
    it stands for, from the documented layout: the structure's nodes in order,
    then one relation node per edge in edge order."""
    if input_repr == "graph":
        nodes = [nid for nid, _ in ex.graph.nodes]
        edges = list(range(len(ex.graph.edges)))
    else:
        nodes = [nid for _, nid in ex.tree.copy_of]
        edges = list(ex.tree.edge_origin)
    return [("node", nid) for nid in nodes] + [("edge", eidx) for eidx in edges]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), max_nodes=st.integers(3, 13), extra=st.integers(0, 4))
def test_prepare_example_alignment_properties(seed, max_nodes, extra):
    g = random_dag_graph(np.random.default_rng(seed), max_nodes=max_nodes, extra_edges=extra)
    ex = prepare_example(g)
    alignment = ex.sequence.alignment
    for input_repr, aligned in ex.structures.items():
        levi = aligned.levi
        sources = _levi_sources(ex, input_repr)
        assert len(sources) == levi.node_count == len(aligned.init_pos)
        # each position's Levi node carries that position's token and source
        for pos, lid in enumerate(aligned.pos_to_node):
            assert levi.nodes[lid][1] == ex.sequence.tokens[pos]
            assert sources[lid] == alignment[pos]
        for lid, pos in enumerate(aligned.init_pos):
            # a tree copy of a reentrant node starts from its source's first
            # mention, which the first copy holds
            assert sources[aligned.pos_to_node[pos]] == sources[lid]
            if input_repr == "graph":
                assert aligned.pos_to_node[pos] == lid
            if sources[lid][0] == "node":  # a concept starts at its first mention
                assert alignment.index(sources[lid]) == pos
        parents = Counter(v for _, v in levi.edges)
        if input_repr == "tree":
            assert max(parents.values(), default=0) <= 1
            assert parents[levi.root] == 0


def test_one_traversal_per_graph_object(monkeypatch):
    traversed = []
    real = transforms._traverse
    monkeypatch.setattr(transforms, "_traverse", lambda g: traversed.append(g) or real(g))
    text = "(e / eat-01 :arg0 (h / he) :arg1 (p / pizza) :instrument (f / finger :part-of h))"
    g = parse_penman(text)
    sequence, tree = transforms.linearize(g), transforms.to_tree(g)
    stats = amr.compute_stats(g)
    ex = transforms.prepare_example(g)
    assert [ex.structures[key].levi.node_count for key in ("graph", "tree")] == [8, 9]
    assert traversed == [g]
    assert (ex.sequence, ex.tree) == (sequence, tree)
    # the result lives on the graph object: an equal graph parsed again traverses again
    assert amr.compute_stats(parse_penman(text)) == stats
    assert len(traversed) == 2


def test_traversal_past_the_recursion_limit_is_graph_too_deep_error():
    depth = 5000
    g = parse_penman("".join(f"(a{i} / x :arg0 " for i in range(depth)) + "(z / y)"
                     + ")" * depth)
    for derive in (linearize, to_tree, prepare_example, amr.compute_stats):
        with pytest.raises(amr.GraphTooDeepError, match="graph too deep to traverse"):
            derive(g)
