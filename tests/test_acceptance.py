"""Acceptance gate: the nine headline criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Tolerances are pinned in the assertions; see the test bodies for the exact
numbers.
"""
import time

import numpy as np
import pytest

from amrgen import amr, tensor as T, transforms
from amrgen.encoders import KINDS, EncoderConfig, StackEncoder
from amrgen.evaluation import (
    CATEGORIES,
    DEPENDENCY_BUCKETS,
    REENTRANCY_BUCKETS,
    ContrastivePair,
    bucket_report,
    contrastive_eval,
    corpus_bleu,
    make_contrastive_pairs,
)
from amrgen.seq2seq import (
    Seq2SeqModel,
    TrainExample,
    TrainSettings,
    build_vocabs,
    train,
    write_log,
)
from amrgen.vocab import Vocab

from bit_digests import MEMORIZE_SEED, MEMORIZE_SETTINGS, memorize_config
from conftest import (
    FIGURE_GRAPH,
    build_sequence_vocab,
    finite_difference_check,
    min_relu_margin,
    random_tree_graph,
    reference_beam_decode,
)


def verdict(number, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}")
    assert ok, f"criterion {number} ({name}) failed"


def make_train_examples(corpus, ids):
    wanted = set(ids)
    return [
        TrainExample(
            id=ex.id,
            repr=transforms.prepare_example(ex.graph),
            target=tuple(ex.sentence),
            reference=tuple(ex.sentence),
            anon_map=(),
        )
        for ex in corpus
        if ex.id in wanted
    ]


TOY10 = [f"toy-{i:03d}" for i in range(1, 11)]

@pytest.fixture(scope="module")
def memorized(toy_corpus):
    """Train the three stackings once; criteria 6 and 7 share the result."""
    examples = make_train_examples(toy_corpus, TOY10)
    started = time.monotonic()
    results = {}
    for kind in ("Seq", "GCNSeq", "TreeLSTMSeq"):
        ck, log = train(examples, examples, memorize_config(kind), seed=MEMORIZE_SEED,
                        settings=MEMORIZE_SETTINGS)
        results[kind] = (ck, log)
    return examples, results, time.monotonic() - started


def test_criterion_1_figure_fidelity():
    g = amr.parse_penman(FIGURE_GRAPH)
    ex = transforms.prepare_example(g)
    levi = ex.structures["graph"].levi
    ok = (
        g.node_count == 4
        and g.edge_count == 4
        and amr.reentrancy_count(g) == 1
        and list(ex.sequence.tokens)
        == ["eat-01", ":arg0", "he", ":arg1", "pizza", ":instrument", "finger", ":part-of", "he"]
        and levi.node_count == 8
        and levi.edge_count == 8
    )
    token = {lid: tok for lid, tok, _ in levi.nodes}
    adj = set(levi.edges)

    def levi_path(a, rel, b):
        return any(
            token[u] == a and token[v] == rel and (v, w) in adj and token[w] == b
            for u, v in adj
            for w in [x for y, x in adj if y == v]
        )

    ok = ok and levi_path("eat-01", ":arg0", "he") and levi_path("finger", ":part-of", "he")
    tree_labels = [label for _, label in ex.tree.nodes]
    ok = ok and tree_labels.count("he") == 2
    verdict(1, "Figure-1 fidelity (graph, tokens, Levi, tree)", ok)


def test_criterion_2_dependency_length():
    g = amr.parse_penman(FIGURE_GRAPH)
    ok = transforms.max_dependency_length(g) == 5
    # the length-5 edge is eat-01 <-> :instrument: positions 0 and 5
    seq = transforms.linearize(g)
    ok = ok and seq.tokens[0] == "eat-01" and seq.tokens[5] == ":instrument"
    verdict(2, "max dependency length includes a span of exactly 5", ok)


def test_criterion_3_gradient_checks(figure_example):
    vocab = build_sequence_vocab(figure_example)
    started = time.monotonic()
    ok = True
    worst_overall = 0.0
    for kind in KINDS:
        cfg = EncoderConfig(
            kind=kind, embedding_dim=4, hidden_dim=6,
            dropout=0.0, edge_dropout=0.0,
        )
        store = T.ParamStore(np.random.default_rng(0))
        enc = StackEncoder(cfg, vocab, store)
        for p in store.params.values():
            p.data *= 8.0  # scale pre-activations away from the relu kink
        assert min_relu_margin(enc, figure_example) > 1e-3

        def loss():
            out = enc.encode([figure_example])
            return T.sum_all(T.mul(out, out))

        worst, where = finite_difference_check(store.params, loss, eps=1e-5)
        worst_overall = max(worst_overall, worst)
        if worst > 1e-4:
            ok = False
            print(f"  {kind}: worst rel err {worst:.3e} at {where}")
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    verdict(3, f"gradient checks, 7 configs (worst {worst_overall:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_4_reentrancy_sensitivity(figure_example):
    vocab = build_sequence_vocab(figure_example)
    fpos = figure_example.sequence.tokens.index("finger")

    def probe(input_repr):
        cfg = EncoderConfig(
            kind="GCN", input_repr=input_repr, embedding_dim=8, hidden_dim=8,
            gcn_layers=2, dropout=0.0, edge_dropout=0.0,
        )
        enc = StackEncoder(cfg, vocab, T.ParamStore(np.random.default_rng(0)))
        levi = figure_example.structures[input_repr].levi
        ids = enc.vocab.indices([tok for _, tok, _ in levi.nodes])
        nodes = T.embedding_lookup(enc.embedding, ids).data
        bumped = nodes.copy()
        for i, (_, tok, _) in enumerate(levi.nodes):
            if tok == "he":
                bumped[i] += 1e-3
                break
        base = enc.encode([figure_example], node_embeddings=T.Tensor(nodes.copy())).data
        after = enc.encode([figure_example], node_embeddings=T.Tensor(bumped)).data
        return base[fpos], after[fpos]

    g_base, g_after = probe("graph")
    t_base, t_after = probe("tree")
    ok = (not np.array_equal(g_base, g_after)) and np.array_equal(t_base, t_after)
    verdict(4, "K=2 GCN: 'he' reaches 'finger' in graph mode, not in tree mode", ok)


def test_criterion_5_tree_graph_agreement():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        g = random_tree_graph(rng)
        ex = transforms.prepare_example(g)
        vocab = Vocab.build([ex.sequence.tokens])
        encoders, stores = {}, {}
        for repr_ in ("graph", "tree"):
            cfg = EncoderConfig(
                kind="GCN", input_repr=repr_, embedding_dim=6, hidden_dim=6,
                dropout=0.0, edge_dropout=0.0,
            )
            stores[repr_] = T.ParamStore(np.random.default_rng(3))
            encoders[repr_] = StackEncoder(cfg, vocab, stores[repr_])
        for (na, pa), (nb, pb) in zip(
            sorted(stores["graph"].params.items()), sorted(stores["tree"].params.items())
        ):
            assert na == nb
            pb.data[...] = pa.data
        delta = np.abs(
            encoders["graph"].encode([ex]).data - encoders["tree"].encode([ex]).data
        ).max()
        if delta > 1e-12:
            ok = False
            break
    verdict(5, "tree/graph GCN agreement on 100 reentrancy-free AMRs (<= 1e-12)", ok)


def test_criterion_6_memorization(memorized):
    examples, results, elapsed = memorized
    ok = elapsed < 15 * 60
    for kind, (ck, log) in results.items():
        bleu = ck.meta["dev_bleu"]
        epochs = len(log)
        if bleu < 95.0 or epochs > 500:
            ok = False
            print(f"  {kind}: BLEU {bleu:.2f} after {epochs} epochs")
    verdict(6, f"memorization: 3 stackings reach BLEU >= 95 ({elapsed:.0f}s)", ok)


def test_criterion_7_contrastive(memorized, toy_annotations):
    examples, results, _ = memorized
    sentences = {ex.id: list(ex.reference) for ex in examples}
    pairs = make_contrastive_pairs(sentences, toy_annotations)
    by_id = {ex.id: ex for ex in examples}
    model = results["Seq"][0].build_model()
    per_cat, skipped = contrastive_eval(
        lambda ex, toks: model.score_sentence(ex, toks), pairs, by_id.get
    )
    ok = skipped == 0
    for category in CATEGORIES:
        r = per_cat[category]
        if r.count == 0 or r.accuracy < 90.0:
            ok = False
            print(f"  {category}: {r.wins}/{r.count}")

    # random-weight model on 1000 symmetric pairs: 50% +/- 5
    src, tgt = build_vocabs(examples, 1)
    cfg = EncoderConfig(
        kind="Seq", input_repr="sequence", embedding_dim=16, hidden_dim=16,
        dropout=0.0, edge_dropout=0.0,
    )
    random_model = Seq2SeqModel(cfg, src, tgt, seed=0)
    rng = np.random.default_rng(100)
    words = [t for t in tgt.itos if not t.startswith("<")]
    symmetric = []
    for i in range(1000):
        n = int(rng.integers(3, 8))
        a = tuple(rng.choice(words, n))
        b = tuple(rng.choice(words, n))
        while b == a:
            b = tuple(rng.choice(words, n))
        symmetric.append(
            ContrastivePair(
                id=examples[i % len(examples)].id, reference=a, contrastive=b,
                category=CATEGORIES[i % len(CATEGORIES)],
            )
        )
    rand_results, _ = contrastive_eval(
        lambda ex, toks: random_model.score_sentence(ex, toks), symmetric, by_id.get
    )
    total = sum(r.count for r in rand_results.values())
    wins = sum(r.wins for r in rand_results.values())
    rate = 100.0 * wins / total
    ok = ok and total == 1000 and 45.0 <= rate <= 55.0
    verdict(7, f"contrastive: memorized >= 90%/category, random at {rate:.1f}%", ok)


@pytest.mark.parametrize("max_len", [None, 4])
def test_beam_search_matches_the_reference_on_memorized_models(memorized, max_len):
    """beam_decode against the reference search, which steps every prefix
    alone, on the memorized checkpoints: the same tokens and truncated flags,
    equal greedy log-probs, and the others within 1e-12, since a beam steps
    its greedy row in a larger product."""
    examples, results, _ = memorized
    for kind, (ck, _) in results.items():
        model = ck.build_model()
        for ex in examples:
            limit = max_len or 2 * len(ex.repr.sequence) + 10
            for beam in (1, 2, 5):
                tokens, logp, truncated = model.beam_decode(ex, beam=beam, max_len=max_len)
                ref_tokens, ref_logp, ref_truncated = reference_beam_decode(model, ex, beam, limit)
                where = (kind, ex.id, beam, max_len)
                assert (tokens, truncated) == (ref_tokens, ref_truncated), where
                assert abs(logp - ref_logp) <= (0.0 if beam == 1 else 1e-12), where


def test_criterion_8_bleu_and_buckets():
    # [DERIVED] hand-counted fixture (see test_evaluation.py for the tally):
    # totals 10/11, 7/9, 5/7, 3/5 with equal corpus lengths
    hyps = [
        ["the", "cat", "sat", "on", "the", "mat"],
        ["the", "dog", "ran", "fast", "home"],
    ]
    refs = [
        ["the", "cat", "sat", "on", "the", "mat"],
        ["the", "dog", "ran", "quickly", "home"],
    ]
    expected = 100.0 * (10 / 11 * 7 / 9 * 5 / 7 * 3 / 5) ** 0.25
    ok = round(corpus_bleu(hyps, refs), 4) == round(expected, 4)
    identical = [["a", "b", "c", "d", "e"]]
    ok = ok and corpus_bleu(identical, [list(identical[0])]) == 100.0
    ok = ok and REENTRANCY_BUCKETS == ((0, 0), (1, 5), (6, 20))
    ok = ok and DEPENDENCY_BUCKETS == ((0, 10), (11, 50), (51, 250))
    # bucket deltas are reported against the Seq baseline
    scores = {"Seq": [10.0, 30.0], "GCNSeq": [15.0, 33.0]}
    stats = [
        {"reentrancies": 0, "max_dep_len": 2},
        {"reentrancies": 2, "max_dep_len": 9},
    ]
    rows = bucket_report(scores, stats, bucketing="reentrancies", baseline="Seq")
    by_label = {r.label: r for r in rows}
    ok = ok and dict(by_label["0"].deltas)["GCNSeq"] == pytest.approx(5.0)
    ok = ok and dict(by_label["1-5"].deltas)["GCNSeq"] == pytest.approx(3.0)
    # the dependency-length analysis excludes reentrant examples
    dep_rows = bucket_report(scores, stats, bucketing="max_dep_len", baseline="Seq")
    ok = ok and {r.label: r.count for r in dep_rows}["0-10"] == 1
    verdict(8, "corpus BLEU fixture to 4 decimals, buckets and deltas", ok)


def test_criterion_9_determinism(toy_corpus, tmp_path):
    examples = make_train_examples(toy_corpus, TOY10)
    settings = TrainSettings(
        lr=1.0, batch_size=2, max_epochs=4, patience=10, unk_threshold=1,
    )
    cfg = EncoderConfig(
        kind="Seq", input_repr="sequence", embedding_dim=16, hidden_dim=16,
        dropout=0.3, edge_dropout=0.1,
    )
    blobs = []
    for run in range(2):
        ck, log = train(examples, examples, cfg, seed=5, settings=settings)
        ck_path = tmp_path / f"ck{run}.bin"
        log_path = tmp_path / f"log{run}.jsonl"
        ck.save(ck_path)
        write_log(log_path, log)
        blobs.append((ck_path.read_bytes(), log_path.read_bytes()))
    ok = blobs[0] == blobs[1]
    verdict(9, "same config + seed: byte-identical logs and checkpoints", ok)
