"""Levi graph, tree conversion, linearization, dependency length, anonymization.

Oracle notes:
* golden tokens / maxdep / Levi sizes are [DERIVED] (hand-enumerated, see
  golden/expected.json).
* Levi size laws and the brute-force dependency-length oracle recompute the
  expected values here, independently of the implementation.
"""
import json
from collections import Counter
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amrgen import amr, cli, transforms
from amrgen.amr import parse_penman
from amrgen.encoders import EncoderConfig
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

from conftest import (assert_one_object_per_value, graph_strings, random_cyclic_graph,
                      random_dag_graph, random_tree_graph)

TOY = Path(__file__).parent.parent / "src" / "amrgen" / "data" / "toy_corpus.txt"


# --------------------------------------------------------------------------
# Linearization


def test_golden_linearization(golden_cases):
    for name, text, fields in golden_cases:
        seq = linearize(parse_penman(text))
        assert list(seq.tokens) == fields["tokens"], name


def _graph_sources(graph):
    """Per Levi id of graph, the ("node", id) or ("edge", index) it stands
    for: the graph's nodes in order, then its edges in order."""
    return ([("node", nid) for nid, _ in graph.nodes]
            + [("edge", eidx) for eidx in range(len(graph.edges))])


def _tagged(graph, alignment):
    """An alignment of Levi ids as ("node", id) and ("edge", index) tuples."""
    sources = _graph_sources(graph)
    return [sources[lid] for lid in alignment]


def test_linearization_alignment(figure_graph):
    seq = linearize(figure_graph)
    assert all(type(lid) is int for lid in seq.alignment)
    kinds = [kind for kind, _ in _tagged(figure_graph, seq.alignment)]
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
    for pos, (kind, ref) in enumerate(_tagged(graph, seq.alignment)):
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


def test_placeholders_and_tree_copy_ids_share_one_object_per_value():
    text = ('(w / want-01 :arg0 (p / person :name (n / name :op1 "John"))'
            ' :arg1 (g / go-01 :arg0 p :quant 12))')
    anonymized = [anonymize(parse_penman(text), _policy(person=100)) for _ in range(2)]
    assert_one_object_per_value(chain.from_iterable(
        (*graph_strings(graph), *chain(*mapping)) for graph, mapping in anonymized))
    assert {"person_name_0", "number_0", "rare_0"} <= set(dict(anonymized[0][1]))
    trees = [to_tree(parse_penman(text)) for _ in range(2)]
    assert_one_object_per_value(chain.from_iterable(
        (*graph_strings(tree), *chain(*tree.copy_of)) for tree in trees))
    assert "p#1" in dict(trees[0].copy_of)


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
        return _graph_sources(ex.graph)
    nodes = [nid for _, nid in ex.tree.copy_of]
    edges = list(ex.tree.edge_origin)
    return [("node", nid) for nid in nodes] + [("edge", eidx) for eidx in edges]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), max_nodes=st.integers(3, 13), extra=st.integers(0, 4))
def test_prepare_example_alignment_properties(seed, max_nodes, extra):
    g = random_dag_graph(np.random.default_rng(seed), max_nodes=max_nodes, extra_edges=extra)
    ex = prepare_example(g)
    alignment = _tagged(g, ex.sequence.alignment)
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


def test_one_sequence_walk_per_graph_object_and_a_tree_walk_only_when_read(monkeypatch,
                                                                           tmp_path):
    walked = {"sequence_walk": [], "tree_walk": []}  # the graphs each walk ran on
    for name, graphs in walked.items():
        real = getattr(transforms, name)
        monkeypatch.setattr(transforms, name,
                            lambda g, real=real, graphs=graphs: graphs.append(g) or real(g))
    # a corpus round, original, anonymized and loaded graphs, reads no tree
    records, _, _ = cli.preprocess_corpus(str(TOY), anonymize_flag=True)
    data = tmp_path / "toy.jsonl"
    data.write_text("".join(json.dumps(record) + "\n" for record in records))
    loaded = cli.load_examples(data)
    assert len(walked["sequence_walk"]) == 3 * len(loaded) == 180
    assert len({id(g) for g in walked["sequence_walk"]}) == 180
    assert walked["tree_walk"] == []
    # a loader that reads trees walks each graph's tree once, however often it is read
    loaded = cli.load_examples(data, EncoderConfig(kind="TreeLSTM"))
    for ex in loaded:
        assert ex.repr.tree is to_tree(ex.repr.graph)
        assert ex.repr.structures["tree"].levi.node_count >= ex.repr.tree.node_count
    assert walked["tree_walk"] == [ex.repr.graph for ex in loaded]
    assert len(walked["sequence_walk"]) == 240

    walked["sequence_walk"].clear(), walked["tree_walk"].clear()
    text = "(e / eat-01 :arg0 (h / he) :arg1 (p / pizza) :instrument (f / finger :part-of h))"
    g = parse_penman(text)
    sequence, stats = transforms.linearize(g), amr.compute_stats(g)
    ex = transforms.prepare_example(g)
    assert ex.structures["graph"].levi.node_count == 8
    assert (walked["sequence_walk"], walked["tree_walk"]) == ([g], [])
    assert ex.structures["tree"].levi.node_count == 9
    assert (ex.sequence, ex.tree) == (sequence, to_tree(g))
    assert (walked["sequence_walk"], walked["tree_walk"]) == ([g], [g])
    # the result lives on the graph object: an equal graph parsed again walks
    # again, and comparing examples builds no structure
    again = transforms.prepare_example(parse_penman(text))
    assert again == ex and amr.compute_stats(again.graph) == stats
    assert (len(walked["sequence_walk"]), len(walked["tree_walk"])) == (2, 1)


def test_a_loaded_graph_keeps_only_its_sequence_walk(tmp_path):
    records, _, _ = cli.preprocess_corpus(str(TOY), anonymize_flag=True)
    data = tmp_path / "toy.jsonl"
    data.write_text("".join(json.dumps(record) + "\n" for record in records))
    for ex in cli.load_examples(data):
        # the fields and the cached walk, and no out-edge index or tree
        assert set(vars(ex.repr.graph)) == {"nodes", "edges", "root", "traversal"}
        sequence, first = ex.repr.graph.traversal
        assert all(type(item) is tuple for item in (sequence.tokens, sequence.alignment, first))


def test_the_graph_structure_reads_the_walks_own_tuples(figure_example):
    aligned = figure_example.structures["graph"]
    sequence, first = figure_example.graph.traversal
    assert aligned.pos_to_node is sequence.alignment is figure_example.sequence.alignment
    assert aligned.init_pos is first


def reference_walk(graph):
    """The canonical walk as one pass, in the simplest form: (tokens,
    first_pos, edge_pos, tree nodes, tree edges, copy_of, edge_origin,
    pos_tree)."""
    labels, out = graph.labels(), graph.out_index()
    tokens, first_pos, edge_pos, pos_tree = [], {}, {}, []
    nodes, edges, copy_of, origin, path, copies = [], [], [], [], [], Counter()

    def visit(nid, emit):
        tid = f"{nid}#{copies[nid]}" if copies[nid] else nid
        copies[nid] += 1
        nodes.append((tid, labels[nid]))
        copy_of.append((tid, nid))
        first = emit and nid not in first_pos
        if emit:
            if first:
                first_pos[nid] = len(tokens)
            pos_tree.append(len(nodes) - 1)
            tokens.append(labels[nid])
        if nid in path:
            return tid
        path.append(nid)
        for eidx in out.get(nid, ()):
            _, rel, child = graph.edges[eidx]
            slot = len(edges)
            edges.append(None)
            origin.append(eidx)
            if first:
                edge_pos[eidx] = len(tokens)
                pos_tree.append(slot)
                tokens.append(rel)
            edges[slot] = (tid, rel, visit(child, first))
        path.pop()
        return tid

    visit(graph.root, True)
    return tokens, first_pos, edge_pos, nodes, edges, copy_of, origin, pos_tree


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), max_nodes=st.integers(3, 9), extra=st.integers(0, 8))
def test_sequence_walk_and_tree_walk_agree(seed, max_nodes, extra):
    g = random_cyclic_graph(np.random.default_rng(seed), max_nodes=max_nodes, extra_edges=extra)
    tokens, ref_first, ref_edge, nodes, edges, ref_copy_of, origin, ref_pos = reference_walk(g)
    sequence, first = g.traversal
    assert list(sequence.tokens) == tokens
    # each Levi id's first position: a node's first mention, an edge's
    # relation token, None for one the walk never reaches
    assert first == (tuple(ref_first.get(nid) for nid, _ in g.nodes)
                     + tuple(ref_edge.get(eidx) for eidx in range(g.edge_count)))
    if len(nodes) > transforms.TREE_GROWTH_LIMIT * (g.node_count + g.edge_count):
        with pytest.raises(amr.TreeTooLargeError):
            to_tree(g)
        return
    tree, pos_tree = g.tree_traversal
    copy_of = dict(tree.copy_of)
    for token, (kind, ref), place in zip(sequence.tokens, _tagged(g, sequence.alignment),
                                         pos_tree, strict=True):
        if kind == "node":  # a tree copy of the node, labelled with its concept
            assert tree.nodes[place][1] == token and copy_of[tree.nodes[place][0]] == ref
        else:  # a tree edge from the edge, labelled with its relation
            assert tree.edges[place][1] == token and tree.edge_origin[place] == ref
    assert (list(tree.nodes), list(tree.edges), list(tree.copy_of), list(tree.edge_origin),
            list(pos_tree)) == (nodes, edges, ref_copy_of, origin, ref_pos)


def test_a_tree_past_the_growth_limit_is_tree_too_large_error():
    # a re-mention path: each a_i re-mentions a_(i-1), so a_i's tree copy
    # holds copies of a_(i-1) ... a_0, about n * n / 2 tree nodes in all
    n = 900
    children = " ".join(f":arg{i} (a{i} / x :arg0 a{i - 1})" for i in range(1, n))
    g = parse_penman(f"(r / x :arg0 (a0 / x) {children})")
    assert len(linearize(g)) == 1 + 2 * g.edge_count
    assert amr.compute_stats(g).reentrancy_count == n - 1
    limit = transforms.TREE_GROWTH_LIMIT * (g.node_count + g.edge_count)
    for derive in (to_tree, lambda g: prepare_example(g).structures["tree"]):
        with pytest.raises(amr.TreeTooLargeError, match=f"more than {limit} nodes"):
            derive(g)


def test_traversal_past_the_recursion_limit_is_graph_too_deep_error():
    depth = 5000
    g = parse_penman("".join(f"(a{i} / x :arg0 " for i in range(depth)) + "(z / y)"
                     + ")" * depth)
    for derive in (linearize, to_tree, prepare_example, amr.compute_stats):
        with pytest.raises(amr.GraphTooDeepError, match="graph too deep to traverse"):
            derive(g)
