"""Decoder, scoring, decoding, training loop and checkpoints."""
import json
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amrgen import evaluation, tensor as T, transforms
from amrgen.encoders import KINDS, EncoderConfig, StackEncoder
from amrgen.evaluation import ContrastivePair, contrastive_eval
from amrgen.seq2seq import (
    Checkpoint,
    NumericError,
    Seq2SeqModel,
    TrainExample,
    TrainSettings,
    build_vocabs,
    generate,
    generate_all,
    train,
    write_log,
)
from amrgen.transforms import prepare_example
from amrgen.vocab import BOS, EOS, UNK, Vocab

from conftest import finite_difference_check, reference_beam_decode


def make_examples(corpus, ids):
    wanted = set(ids)
    return [
        TrainExample(
            id=ex.id,
            repr=prepare_example(ex.graph),
            target=tuple(ex.sentence),
            reference=tuple(ex.sentence),
            anon_map=(),
        )
        for ex in corpus
        if ex.id in wanted
    ]


TOY10 = [f"toy-{i:03d}" for i in range(1, 11)]


@pytest.fixture(scope="module")
def toy10(toy_corpus):
    return make_examples(toy_corpus, TOY10)


@pytest.fixture(scope="module")
def small_model(toy10):
    src, tgt = build_vocabs(toy10, unk_threshold=1)
    cfg = EncoderConfig(
        kind="Seq", input_repr="sequence", embedding_dim=16, hidden_dim=16,
        dropout=0.0, edge_dropout=0.0,
    )
    return Seq2SeqModel(cfg, src, tgt, seed=0)


# --------------------------------------------------------------------------
# Vocabulary


def test_build_vocabs_specials_and_threshold(toy10):
    src, tgt = build_vocabs(toy10, unk_threshold=1)
    assert src.token(0) == UNK
    assert tgt.itos[:3] == (UNK, BOS, EOS)
    # every source token is in-vocabulary at min_freq 1
    for ex in toy10:
        assert UNK not in [src.token(i) for i in src.indices(ex.repr.sequence.tokens)]


def test_build_vocabs_unk_threshold_drops_rare(toy10):
    _, tgt1 = build_vocabs(toy10, unk_threshold=1)
    _, tgt3 = build_vocabs(toy10, unk_threshold=3)
    assert len(tgt3) < len(tgt1)
    dropped = set(tgt1.itos) - set(tgt3.itos)
    assert dropped  # rare words map to UNK
    for word in dropped:
        assert tgt3.index(word) == tgt3.index(UNK)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(known=st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=8, unique=True),
       data=st.data())
def test_indices_maps_each_token_as_index_does(known, data):
    vocab = Vocab.build([known], specials=(UNK, BOS, EOS))
    tokens = data.draw(st.lists(st.sampled_from(known) | st.text(max_size=3), max_size=20))
    assert vocab.indices(tokens) == [vocab.index(t) for t in tokens]


# --------------------------------------------------------------------------
# Scoring


def test_score_sentence_is_pure(small_model, toy10):
    ex = toy10[0]
    before = {k: v.data.copy() for k, v in small_model.params().items()}
    s1 = small_model.score_sentence(ex, ex.target)
    s2 = small_model.score_sentence(ex, ex.target)
    assert s1 == s2
    for k, v in small_model.params().items():
        assert np.array_equal(before[k], v.data), k
        assert v.grad is None, k


def test_score_is_negative_log_prob(small_model, toy10):
    for ex in toy10[:3]:
        assert small_model.score_sentence(ex, ex.target) < 0.0


def test_score_equals_minus_loss_times_length(small_model, toy10):
    # sequence_loss is the mean NLL over len(target) + 1 steps (EOS included)
    for ex in toy10[:3]:
        loss = small_model.sequence_loss(ex).data.item()
        score = small_model.score_sentence(ex, ex.target)
        assert abs(score + loss * (len(ex.target) + 1)) < 1e-9


def test_appending_token_lowers_score(small_model, toy10):
    ex = toy10[0]
    base = small_model.score_sentence(ex, ex.target)
    longer = small_model.score_sentence(ex, tuple(ex.target) + ("the",))
    # an extra step adds a log-probability < 0 before EOS is re-scored;
    # the prefix probability can only shrink
    assert longer < base


def test_score_conditions_on_source(small_model, toy10):
    # the same sentence scores differently under different source graphs
    s1 = small_model.score_sentence(toy10[0], toy10[0].target)
    s2 = small_model.score_sentence(toy10[1], toy10[0].target)
    assert s1 != s2


# --------------------------------------------------------------------------
# The encoding a model keeps of the last example it decoded or scored

DECODE_KINDS = ("Seq", "GCNSeq", "TreeLSTMSeq", "GCN")


def decode_model(toy10, kind, seed=0):
    src, tgt = build_vocabs(toy10, unk_threshold=1)
    return Seq2SeqModel(EncoderConfig(kind=kind, embedding_dim=8, hidden_dim=8), src, tgt,
                        seed=seed)


def test_contrastive_eval_encodes_each_example_once(toy10, monkeypatch):
    model = decode_model(toy10, "Seq")
    examples = toy10[:3]
    # three rounds over the examples, so that consecutive pairs never share an id
    pairs = [ContrastivePair(id=ex.id, reference=ex.target, contrastive=ex.target + (word,),
                             category=category)
             for word, category in (("the", "number"), ("a", "gender"), ("it", "antecedent"))
             for ex in examples]
    calls = counted_encodes(monkeypatch)
    _, skipped = contrastive_eval(model.score_sentence, pairs, {ex.id: ex for ex in toy10}.get)
    assert skipped == 0
    assert len(calls) == len(examples)  # one per sentence, 2 * len(pairs), before


def test_the_kept_encoding_serves_decoding_then_scoring(toy10, monkeypatch):
    model = decode_model(toy10, "TreeLSTMSeq")
    calls = counted_encodes(monkeypatch)
    tokens, _, _ = model.beam_decode(toy10[0], beam=3)
    model.score_sentence(toy10[0], tokens)
    assert len(calls) == 1


def test_the_model_keeps_one_example(toy10, monkeypatch):
    model = decode_model(toy10, "GCNSeq")
    calls = counted_encodes(monkeypatch)
    for ex in (toy10[0], toy10[1], toy10[0]):
        model.greedy_decode(ex)
    assert len(calls) == 3


def test_batch_loss_neither_reads_nor_replaces_the_kept_encoding(toy10, monkeypatch):
    model = decode_model(toy10, "Seq")
    calls = counted_encodes(monkeypatch)
    ex = toy10[0]
    score = model.score_sentence(ex, ex.target)
    with T.Tape() as tape:
        T.backward(tape, model.batch_loss([ex, toy10[1]], np.random.default_rng(0)))
    assert len(calls) == 2
    assert model.score_sentence(ex, ex.target) == score
    assert len(calls) == 2


@pytest.mark.parametrize("kind", DECODE_KINDS)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(calls=st.lists(st.tuples(st.sampled_from(["score", "decode"]), st.integers(0, 3),
                                st.integers(0, 3), st.integers(1, 6), st.sampled_from([None, 3])),
                      min_size=1, max_size=8))
def test_a_kept_encoding_gives_the_bits_of_a_fresh_model(toy10, kind, calls):
    """Every call on one model returns what the same call returns on a
    model built afresh, which encodes its example itself."""
    model = decode_model(toy10, kind)

    def run(on, op, index, other, beam, max_len):
        ex = toy10[index]
        if op == "score":  # the example's own target or another example's
            return float(on.score_sentence(ex, toy10[other].target)).hex()
        tokens, log_prob, truncated = on.beam_decode(ex, beam=beam, max_len=max_len)
        return tokens, float(log_prob).hex(), truncated

    for call in calls:
        assert run(model, *call) == run(decode_model(toy10, kind), *call), call


def test_an_sgd_step_makes_the_kept_encoding_stale(toy10):
    model = decode_model(toy10, "GCNSeq")
    store = model.store
    store.pack()
    ex = toy10[0]
    before = model.score_sentence(ex, ex.target)
    with T.Tape() as tape:
        T.backward(tape, model.batch_loss([ex]))
    assert np.any(store.grad != 0.0)
    T.sgd_step(store, 0.5)
    rebuilt = Seq2SeqModel(model.config, model.src_vocab, model.tgt_vocab,
                           arrays=store.views(store.theta))
    after = model.score_sentence(ex, ex.target)
    assert after == rebuilt.score_sentence(ex, ex.target)
    assert after != before


# --------------------------------------------------------------------------
# Decoder gradients


def test_decoder_gradients(toy10):
    ex = toy10[0]
    src, tgt = build_vocabs([ex], unk_threshold=1)
    cfg = EncoderConfig(
        kind="Seq", input_repr="sequence", embedding_dim=3, hidden_dim=4,
        dropout=0.0, edge_dropout=0.0,
    )
    model = Seq2SeqModel(cfg, src, tgt, seed=0)
    params = model.params()
    for p in params.values():
        p.data *= 5.0  # larger weights make saturation and sign errors visible
    decoder = {name: p for name, p in params.items()
               if name.startswith("decoder.")
               or name in ("W_a", "v_a", "W_o", "W_v", "tgt_embedding")}
    assert len(decoder) == 8
    worst, where = finite_difference_check(decoder, lambda: model.sequence_loss(ex))
    assert worst <= 1e-4, where


@pytest.mark.parametrize("kind", ["Seq", "TreeLSTMSeq"])
def test_batch_loss_gradients(kind, toy10):
    # three examples whose targets and encoders differ in length
    by_length = {len(ex.repr.sequence.tokens): ex for ex in toy10}
    examples = [TrainExample(id=ex.id, repr=ex.repr, target=ex.target[:cut], reference=())
                for ex, cut in zip(list(by_length.values())[:3], (4, 1, 6))]
    assert len(examples) == 3
    src, tgt = build_vocabs(examples, unk_threshold=1)
    cfg = EncoderConfig(kind=kind, embedding_dim=3, hidden_dim=4, dropout=0.0, edge_dropout=0.0)
    model = Seq2SeqModel(cfg, src, tgt, seed=0)
    params = model.params()
    for p in params.values():
        p.data *= 5.0  # larger weights make saturation and sign errors visible
    checked = {name: p for name, p in params.items() if "embedding" not in name}
    worst, where = finite_difference_check(checked, lambda: model.batch_loss(examples))
    assert worst <= 1e-4, where


def test_batch_loss_sums_the_examples_losses(toy10):
    cfg = EncoderConfig(kind="GCNSeq", input_repr="graph", embedding_dim=8, hidden_dim=8,
                        dropout=0.0, edge_dropout=0.0)
    src, tgt = build_vocabs(toy10, unk_threshold=1)
    model = Seq2SeqModel(cfg, src, tgt, seed=0)
    total = 0.0
    for ex in toy10[:4]:
        total += model.sequence_loss(ex).item()
    assert abs(model.batch_loss(toy10[:4]).item() - total) <= 1e-12 * total


# --------------------------------------------------------------------------
# Tape size: the encoder, the decoder, the output layer and the loss run once
# per batch

# tape entries for one example: the encoder's (an embedding lookup and a
# dropout, the BiLSTM, a GCN layer each or the two tree passes, a row gather
# after a structural encoder, and the output dropout), the encoder
# projection, then one entry each for the first decoder state,
# decoder_batch and output_nll
TAPE_ENTRIES = {"Seq": 8, "GCNSeq": 11, "TreeLSTMSeq": 11, "GCN": 10}


@pytest.mark.parametrize("kind", sorted(TAPE_ENTRIES))
@pytest.mark.parametrize("graph", ["figure", "toy"])
def test_tape_size_is_pinned_and_independent_of_target_length(kind, graph, figure_example,
                                                               toy10):
    if graph == "figure":
        ex = TrainExample(id="figure", repr=figure_example,
                          target=tuple("he eats the pizza with his finger".split()), reference=())
    else:
        ex = toy10[0]
    longer = TrainExample(id=ex.id, repr=ex.repr, target=ex.target + ("the",) * 5, reference=())
    src, tgt = build_vocabs([ex], unk_threshold=1)
    cfg = EncoderConfig(kind=kind, embedding_dim=8, hidden_dim=8, dropout=0.3, edge_dropout=0.1)
    model = Seq2SeqModel(cfg, src, tgt, seed=0)
    sizes = []
    for example in (ex, longer):
        with T.Tape() as tape:
            model.sequence_loss(example, rng=np.random.default_rng(0))
        sizes.append(len(tape))
    assert sizes == [TAPE_ENTRIES[kind]] * 2


@pytest.mark.parametrize("kind", sorted(TAPE_ENTRIES))
def test_tape_size_of_a_batch(kind, toy10):
    """A batch of 4 records as many entries as one example, but for the GCN
    layers, which run per example: each example's layers and the slice of
    its rows, and the concat that joins their outputs."""
    src, tgt = build_vocabs(toy10, unk_threshold=1)
    cfg = EncoderConfig(kind=kind, embedding_dim=8, hidden_dim=8, dropout=0.3, edge_dropout=0.1)
    model = Seq2SeqModel(cfg, src, tgt, seed=0)
    sizes = []
    for batch in (toy10[:1], toy10[:4]):
        with T.Tape() as tape:
            model.batch_loss(batch, rng=np.random.default_rng(0))
        sizes.append(len(tape))
    layers = cfg.gcn_layers if "GCN" in kind else 0
    per_example_gcn = 4 * (layers + 1) + 1 - layers if layers else 0
    assert sizes == [TAPE_ENTRIES[kind], TAPE_ENTRIES[kind] + per_example_gcn]


# --------------------------------------------------------------------------
# Decoding


def test_greedy_decode_contract(small_model, toy10):
    tokens, score, truncated = small_model.greedy_decode(toy10[0])
    assert isinstance(tokens, list)
    assert all(isinstance(t, str) for t in tokens)
    assert score <= 0.0
    assert truncated in (True, False)
    specials = {UNK, BOS, EOS}
    assert not specials.intersection(tokens) - {UNK}  # BOS/EOS never emitted


def test_greedy_decode_truncation_flag(small_model, toy10):
    tokens, _, truncated = small_model.greedy_decode(toy10[0], max_len=1)
    assert truncated
    assert len(tokens) <= 1


def test_beam_at_least_greedy(small_model, toy10):
    for ex in toy10:
        g_tokens, g_score, _ = small_model.greedy_decode(ex)
        b_tokens, b_score, _ = small_model.beam_decode(ex, beam=4)
        g_norm = g_score / max(len(g_tokens) + 1, 1)
        b_norm = b_score / max(len(b_tokens) + 1, 1)
        assert b_norm >= g_norm - 1e-12


def test_beam_one_is_greedy(small_model, toy10):
    ex = toy10[2]
    assert small_model.beam_decode(ex, beam=1) == small_model.greedy_decode(ex)


@pytest.mark.parametrize("beam", [1, 4])
def test_truncated_means_the_result_hit_max_len(beam, small_model, toy10):
    # a finished hypothesis spends one step on EOS, so it is shorter than
    # max_len; one that hit max_len has exactly max_len tokens
    for ex in toy10:
        for max_len in (1, 2, 3, 4):
            tokens, _, truncated = small_model.beam_decode(ex, beam=beam, max_len=max_len)
            assert truncated == (len(tokens) == max_len), (ex.id, max_len, tokens)


def counted_encodes(monkeypatch):
    """A list that grows by one at each StackEncoder.encode call."""
    calls = []
    encode = StackEncoder.encode

    def counting(self, *args, **kwargs):
        calls.append(1)
        return encode(self, *args, **kwargs)

    monkeypatch.setattr(StackEncoder, "encode", counting)
    return calls


def test_beam_encodes_once(toy10, monkeypatch):
    calls = counted_encodes(monkeypatch)
    decode_model(toy10, "Seq").beam_decode(toy10[0], beam=4)
    assert len(calls) == 1


def test_beam_does_not_rerun_greedy(small_model, toy10, monkeypatch):
    expected = small_model.beam_decode(toy10[0], beam=4)

    def fail(*args, **kwargs):
        raise AssertionError("beam_decode called greedy_decode")

    monkeypatch.setattr(Seq2SeqModel, "greedy_decode", fail)
    assert small_model.beam_decode(toy10[0], beam=4) == expected


def test_beam_below_one_is_rejected(small_model, toy10):
    with pytest.raises(ValueError, match="beam"):
        small_model.beam_decode(toy10[0], beam=0)


@pytest.mark.parametrize("max_len", [0, -3])
@pytest.mark.parametrize("beam", [1, 4])
def test_max_len_below_one_is_rejected(small_model, toy10, beam, max_len):
    with pytest.raises(ValueError, match="max_len"):
        small_model.beam_decode(toy10[0], beam=beam, max_len=max_len)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**16),
    index=st.integers(0, len(TOY10) - 1),
    beam=st.integers(1, 6),
    max_len=st.integers(1, 25),
)
def test_decoder_properties(toy10, seed, index, beam, max_len):
    """Beam never scores below greedy under the normalized score, up to the
    rounding of stepping the greedy row inside the beam's larger product;
    truncated marks a result of max_len tokens, and scoring agrees with the
    loss."""
    ex = toy10[index]
    src, tgt = build_vocabs(toy10, unk_threshold=1)
    cfg = EncoderConfig(kind="Seq", input_repr="sequence", embedding_dim=8, hidden_dim=8,
                        dropout=0.0, edge_dropout=0.0)
    model = Seq2SeqModel(cfg, src, tgt, seed=seed)
    g_tokens, g_score, g_truncated = model.greedy_decode(ex, max_len=max_len)
    b_tokens, b_score, b_truncated = model.beam_decode(ex, beam=beam, max_len=max_len)
    assert b_score / (len(b_tokens) + 1) >= g_score / (len(g_tokens) + 1) - 1e-12
    assert g_truncated == (len(g_tokens) == max_len)
    assert b_truncated == (len(b_tokens) == max_len)
    score = model.score_sentence(ex, ex.target)
    loss = model.sequence_loss(ex).item()
    assert abs(score + loss * (len(ex.target) + 1)) <= 1e-12


BENCH_KINDS = ("Seq", "GCNSeq", "TreeLSTMSeq", "GCN")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(BENCH_KINDS),
    seed=st.integers(0, 2**16),
    index=st.integers(0, len(TOY10) - 1),
    eos_bias=st.sampled_from([0.0, 2.0, 3.0, 4.0]),
)
def test_score_sentence_agrees_with_greedy(toy10, kind, seed, index, eos_bias):
    """Decoding steps rows with Seq2SeqModel._step, and scoring runs the
    decoder_batch kernel over the whole sentence; both end in
    decoder.output_rows. A finished greedy result scores, under
    score_sentence, the log-prob that greedy decoding returned."""
    src, tgt = build_vocabs(toy10, unk_threshold=1)
    cfg = EncoderConfig(kind=kind, embedding_dim=8, hidden_dim=8, dropout=0.0, edge_dropout=0.0)
    model = Seq2SeqModel(cfg, src, tgt, seed=seed)
    model.b_v.data[0, tgt.index(EOS)] += eos_bias  # so that more greedy paths finish
    ex = toy10[index]
    tokens, logp, truncated = model.greedy_decode(ex)
    if not truncated:
        assert abs(model.score_sentence(ex, tokens) - logp) <= 1e-12


def eos_biased_model(toy10, seed, eos_bias, dim=8):
    """An untrained model whose every step favours EOS by eos_bias nats more,
    so that its greedy path and beam hypotheses finish early."""
    src, tgt = build_vocabs(toy10, unk_threshold=1)
    cfg = EncoderConfig(kind="Seq", input_repr="sequence", embedding_dim=dim, hidden_dim=dim,
                        dropout=0.0, edge_dropout=0.0)
    model = Seq2SeqModel(cfg, src, tgt, seed=seed)
    model.b_v.data[0, tgt.index(EOS)] += eos_bias
    return model


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**16),
    index=st.integers(0, len(TOY10) - 1),
    beam=st.integers(1, 6),
    max_len=st.integers(1, 25),
    eos_bias=st.sampled_from([0.0, 2.0, 3.0, 4.0, 6.0]),
)
def test_beam_matches_the_unpruned_search(toy10, seed, index, beam, max_len, eos_bias):
    """The early stop never changes the result, and batched rows agree with
    rows stepped alone."""
    model = eos_biased_model(toy10, seed, eos_bias)
    ex = toy10[index]
    tokens, logp, truncated = model.beam_decode(ex, beam=beam, max_len=max_len)
    ref_tokens, ref_logp, ref_truncated = reference_beam_decode(model, ex, beam, max_len)
    assert (tokens, truncated) == (ref_tokens, ref_truncated)
    assert abs(logp - ref_logp) <= 1e-9


def counted_steps(monkeypatch):
    """The row count of every Seq2SeqModel._step call from now on."""
    rows = []
    step = Seq2SeqModel._step

    def counting(self, token_ids, *args):
        rows.append(len(token_ids))
        return step(self, token_ids, *args)

    monkeypatch.setattr(Seq2SeqModel, "_step", counting)
    return rows


def test_beam_stops_early_and_batches_its_steps(toy10, monkeypatch):
    rows = counted_steps(monkeypatch)
    ex = toy10[0]
    max_len = 2 * len(ex.repr.sequence) + 10
    # with EOS made unlikely the greedy path never ends, so the search runs
    # all max_len steps, each one call over the greedy row and all the others
    model = eos_biased_model(toy10, 0, -20.0, dim=16)
    assert model.greedy_decode(ex)[2]
    rows.clear()
    model.beam_decode(ex, beam=5)
    assert len(rows) <= max_len
    assert max(rows) > 1
    # sure of EOS, the search stops once no live hypothesis can win; every
    # step it runs calls _step at least once
    model = eos_biased_model(toy10, 0, 3.0, dim=16)
    rows.clear()
    tokens, _, truncated = model.beam_decode(ex, beam=5)
    assert not truncated
    assert len(rows) <= max_len // 2, (len(rows), max_len)


@pytest.mark.parametrize("eos_bias", [-20.0, 0.0, 3.0])
def test_greedy_decode_steps_one_row_per_token(toy10, monkeypatch, eos_bias):
    rows = counted_steps(monkeypatch)
    model = eos_biased_model(toy10, 0, eos_bias)
    for ex in toy10:
        rows.clear()
        tokens, _, truncated = model.greedy_decode(ex)
        assert rows == [1] * (len(tokens) + (not truncated))


def test_generate_all_is_generate_per_example(small_model, toy10):
    for beam in (1, 3):
        assert list(generate_all(small_model, toy10[:4], beam=beam)) == [
            generate(small_model, ex, beam=beam) for ex in toy10[:4]]

    def first_only():  # so that amrgen generate warns about an example as it decodes it
        yield toy10[0]
        raise AssertionError("decoded past the first example")

    assert next(generate_all(small_model, first_only())) == generate(small_model, toy10[0])


def test_generate_deanonymizes(small_model, toy10):
    ex = toy10[0]
    decoded, _, _ = small_model.greedy_decode(ex)
    if decoded:  # map the first decoded token through an anonymization entry
        mapped = TrainExample(
            id=ex.id, repr=ex.repr, target=ex.target, reference=ex.reference,
            anon_map=((decoded[0], "multi word"),),
        )
        out, truncated = generate(small_model, mapped, beam=1)
        assert out[:2] == ["multi", "word"]
        assert isinstance(truncated, bool)


# --------------------------------------------------------------------------
# Training loop


def quick_settings(**over):
    base = dict(
        lr=0.5, lr_decay=0.8, batch_size=5, max_epochs=4, patience=10,
        unk_threshold=1, eval_every=1,
    )
    base.update(over)
    return TrainSettings(**base)


def seq_config(**over):
    base = dict(
        kind="Seq", input_repr="sequence", embedding_dim=16, hidden_dim=16,
        dropout=0.0, edge_dropout=0.0,
    )
    base.update(over)
    return EncoderConfig(**base)


def test_train_loss_decreases(toy10):
    ck, log = train(toy10, toy10, seq_config(), seed=0, settings=quick_settings())
    assert len(log) == 4
    assert log[-1]["train_loss"] < log[0]["train_loss"]
    assert list(log[0]) == ["epoch", "train_loss", "dev_bleu", "lr", "grad_norm_mean",
                            "grad_norm_max", "tgt_tokens", "tgt_unk_rate"]


def test_train_log_explains_training(toy10):
    tokens = sum(len(ex.target) for ex in toy10)
    _, tgt = build_vocabs(toy10, unk_threshold=2)
    unks = sum(tgt.indices(ex.target).count(tgt.index(UNK)) for ex in toy10)
    assert 0 < unks < tokens
    _, log = train(toy10, toy10, seq_config(), seed=0,
                   settings=quick_settings(max_epochs=2, unk_threshold=2, clip_norm=1e-3))
    for entry in log:
        assert entry["tgt_tokens"] == tokens
        assert entry["tgt_unk_rate"] == round(unks / tokens, 10)
        # the norm before clipping: every batch was clipped to 1e-3
        assert entry["grad_norm_max"] >= entry["grad_norm_mean"] > 1e-3


@pytest.mark.parametrize("name", ["lr", "clip_norm"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
def test_train_settings_reject_a_rate_or_norm_that_is_not_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=name):
        TrainSettings(**{name: value})


def test_train_empty_corpus_raises():
    with pytest.raises(ValueError):
        train([], [], seq_config(), seed=0, settings=quick_settings())


def test_train_negative_seed_raises(toy10):
    with pytest.raises(ValueError, match="seed"):
        train(toy10, toy10, seq_config(), seed=-1, settings=quick_settings())


def test_train_empty_dev_falls_back_to_train(toy10):
    ck, log = train(toy10, [], seq_config(), seed=0, settings=quick_settings(max_epochs=1))
    assert len(log) == 1
    assert "dev_bleu" in log[0]


def test_train_deterministic(toy10, tmp_path):
    blobs = []
    for run in range(2):
        ck, log = train(
            toy10, toy10, seq_config(dropout=0.3), seed=3,
            settings=quick_settings(max_epochs=3),
        )
        ck_path = tmp_path / f"ck{run}.bin"
        log_path = tmp_path / f"log{run}.jsonl"
        ck.save(ck_path)
        write_log(log_path, log)
        blobs.append((ck_path.read_bytes(), log_path.read_bytes()))
    assert blobs[0] == blobs[1]


def _per_example_batch_loss(batch_loss):
    """The reference for one tape per batch, built on the batch_loss it
    replaces: each example's loss on a tape of its own with backward on
    each, so gradients add up across tapes, and the losses summed in order.
    The constant it returns puts nothing on the batch's tape."""

    def accumulate(self, examples, rng=None):
        total = 0.0
        for ex in examples:
            with T.Tape() as tape:
                loss = batch_loss(self, [ex], rng)
                total += loss.item()
                T.backward(tape, loss)
        return T.Tensor(np.array([[total]]))

    return accumulate


@pytest.mark.parametrize("kind", KINDS)
def test_train_matches_the_per_example_loop(kind, toy10, monkeypatch, tmp_path):
    """Batch 1 gives the per-example loop's checkpoint bytes; batch 4 its
    per-epoch losses to 1e-9 relative, with the same dropout draws."""
    cfg = EncoderConfig(kind=kind, embedding_dim=8, hidden_dim=8, dropout=0.3, edge_dropout=0.1)
    runs = {}
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(Seq2SeqModel, "batch_loss",
                                _per_example_batch_loss(Seq2SeqModel.batch_loss))
        for batch_size in (1, 4):
            ck, log = train(toy10, toy10, cfg, seed=0,
                            settings=quick_settings(batch_size=batch_size, max_epochs=2))
            path = tmp_path / f"{reference}-{batch_size}.bin"
            ck.save(path)
            runs[reference, batch_size] = path.read_bytes(), log
    assert runs[False, 1] == runs[True, 1]
    for got, want in zip(runs[False, 4][1], runs[True, 4][1]):
        assert abs(got["train_loss"] - want["train_loss"]) <= 1e-9 * want["train_loss"]


def test_train_seed_changes_result(toy10):
    _, log_a = train(toy10, toy10, seq_config(), seed=0, settings=quick_settings(max_epochs=2))
    _, log_b = train(toy10, toy10, seq_config(), seed=1, settings=quick_settings(max_epochs=2))
    assert log_a != log_b


@pytest.mark.parametrize("patience, lrs", [(3, [1.0, 1.0, 1.0, 0.8, 0.64]),
                                           (2, [1.0, 1.0, 1.0, 0.8])],
                         ids=["patience 3", "patience 2"])
def test_train_decays_lr_when_dev_bleu_does_not_improve(patience, lrs, toy10, monkeypatch):
    # a tie is no improvement; the lr an epoch logs is the one it trained at,
    # and patience counts the same epochs that decay it
    bleus = [10.0, 12.0, 12.0, 11.0, 13.0]
    scripted = iter(bleus)
    monkeypatch.setattr(evaluation, "corpus_bleu", lambda hyps, refs: next(scripted))
    _, log = train(toy10[:4], toy10[:2], seq_config(embedding_dim=4, hidden_dim=4), seed=0,
                   settings=quick_settings(lr=1.0, max_epochs=5, patience=patience))
    assert [entry["lr"] for entry in log] == lrs
    assert [entry["dev_bleu"] for entry in log] == bleus[: len(lrs)]


def test_train_nonfinite_loss_raises(toy10, monkeypatch):
    def bad_loss(self, examples, rng=None):
        return T.Tensor(np.array([[float("nan")]]))

    monkeypatch.setattr(Seq2SeqModel, "batch_loss", bad_loss)
    with pytest.raises(NumericError):
        train(toy10, toy10, seq_config(), seed=0, settings=quick_settings(max_epochs=1))


def test_train_log_sink_receives_timing(toy10):
    lines = []
    train(
        toy10, toy10, seq_config(), seed=0,
        settings=quick_settings(max_epochs=1), log_sink=lines.append,
    )
    assert len(lines) == 1
    assert "epoch 1" in lines[0]
    # wall-clock timing stays out of the structured log
    assert "s)" in lines[0]


def test_write_log_format(toy10, tmp_path):
    _, log = train(toy10, toy10, seq_config(), seed=0, settings=quick_settings(max_epochs=2))
    path = tmp_path / "log.jsonl"
    write_log(path, log)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        entry = json.loads(line)
        assert list(entry) == sorted(entry)


# --------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_roundtrip(toy10, tmp_path):
    ck, _ = train(toy10, toy10, seq_config(), seed=0, settings=quick_settings(max_epochs=1))
    path = tmp_path / "ck.bin"
    ck.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.config == ck.config
    assert loaded.src_vocab.itos == ck.src_vocab.itos
    assert loaded.tgt_vocab.itos == ck.tgt_vocab.itos
    m1 = ck.build_model()
    m2 = loaded.build_model()
    ex = toy10[0]
    assert m1.score_sentence(ex, ex.target) == m2.score_sentence(ex, ex.target)


def test_build_model_draws_no_random_values(toy10, monkeypatch):
    ck, _ = train(toy10, toy10, seq_config(), seed=0, settings=quick_settings(max_epochs=1))

    def no_rng(*args, **kwargs):
        raise AssertionError("build_model made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    model = ck.build_model()
    for name, p in model.params().items():
        assert p.data is ck.arrays[name], name  # handed over, not copied


def test_checkpoint_rejects_shape_mismatch(toy10, tmp_path):
    ck, _ = train(toy10, toy10, seq_config(), seed=0, settings=quick_settings(max_epochs=1))
    ck.arrays["W_a"] = ck.arrays["W_a"][:, :-1]
    with pytest.raises(ValueError, match="shape mismatch"):
        ck.build_model()


def test_checkpoint_rejects_name_mismatch(toy10):
    ck, _ = train(toy10, toy10, seq_config(), seed=0, settings=quick_settings(max_epochs=1))
    del ck.arrays["W_a"]
    with pytest.raises(ValueError, match="parameter names"):
        ck.build_model()


def test_a_checkpoint_with_the_gcn_switches_decodes_as_one_without(toy10, tmp_path):
    # checkpoints once saved the GCN's activation and highway switch in
    # their config; the keys are ignored, and the same arrays decode the same
    config = seq_config(kind="GCNSeq", input_repr="graph", embedding_dim=8, hidden_dim=8)
    model = Seq2SeqModel(config, *build_vocabs(toy10), seed=0)
    model.b_v.data[0, model.tgt_vocab.index(EOS)] += 0.5  # so that hypotheses finish
    old, new = tmp_path / "old.bin", tmp_path / "new.bin"
    Checkpoint(config=config, src_vocab=model.src_vocab, tgt_vocab=model.tgt_vocab,
               arrays={name: p.data for name, p in model.params().items()}, meta={}).save(new)
    manifest, arrays = T.load_arrays(new)
    manifest["config"].update(gcn_activation="relu", highway=True)
    T.save_arrays(old, manifest, arrays)
    old_model, new_model = Checkpoint.load(old).build_model(), Checkpoint.load(new).build_model()
    assert old_model.config == new_model.config == config
    for ex in toy10[:4]:
        for beam in (1, 5):  # tokens, log-prob (compared exactly) and truncation
            assert old_model.beam_decode(ex, beam=beam) == new_model.beam_decode(ex, beam=beam)


# The name and shape of every parameter in creation order, at embedding_dim 4,
# hidden_dim 6 and 2 GCN layers, with 4 source and 5 target tokens: pinned from
# the checkpoints written before the parameter store, which must still load.
# The encoder's part is listed per stacking; the decoder's follows it.
ENCODER_PARAMS = {
    "Seq": (
        "embedding 4x4, bilstm.fwd.W 4x12, bilstm.fwd.U 3x12, bilstm.fwd.b 1x12, bilstm.bwd.W "
        "4x12, bilstm.bwd.U 3x12, bilstm.bwd.b 1x12"
    ),
    "SeqGCN": (
        "embedding 4x4, bilstm.fwd.W 4x12, bilstm.fwd.U 3x12, bilstm.fwd.b 1x12, bilstm.bwd.W "
        "4x12, bilstm.bwd.U 3x12, bilstm.bwd.b 1x12, gcn.0.W_in 6x6, gcn.0.W_out 6x6, gcn.0.b "
        "1x6, gcn.0.W_t 6x6, gcn.0.b_t 1x6, gcn.1.W_in 6x6, gcn.1.W_out 6x6, gcn.1.b 1x6, "
        "gcn.1.W_t 6x6, gcn.1.b_t 1x6"
    ),
    "GCNSeq": (
        "embedding 4x4, bilstm.fwd.W 6x12, bilstm.fwd.U 3x12, bilstm.fwd.b 1x12, bilstm.bwd.W "
        "6x12, bilstm.bwd.U 3x12, bilstm.bwd.b 1x12, gcn.proj 4x6, gcn.0.W_in 6x6, gcn.0.W_out "
        "6x6, gcn.0.b 1x6, gcn.0.W_t 6x6, gcn.0.b_t 1x6, gcn.1.W_in 6x6, gcn.1.W_out 6x6, gcn.1.b "
        "1x6, gcn.1.W_t 6x6, gcn.1.b_t 1x6"
    ),
    "SeqTreeLSTM": (
        "embedding 4x4, bilstm.fwd.W 4x12, bilstm.fwd.U 3x12, bilstm.fwd.b 1x12, bilstm.bwd.W "
        "4x12, bilstm.bwd.U 3x12, bilstm.bwd.b 1x12, treelstm.W 6x12, treelstm.U 3x9, treelstm.Uf "
        "3x3, treelstm.b 1x12, treelstm.Wr 3x3, treelstm.br 1x3, treelstm.down.W 3x12, "
        "treelstm.down.U 3x12, treelstm.down.b 1x12"
    ),
    "TreeLSTMSeq": (
        "embedding 4x4, bilstm.fwd.W 6x12, bilstm.fwd.U 3x12, bilstm.fwd.b 1x12, bilstm.bwd.W "
        "6x12, bilstm.bwd.U 3x12, bilstm.bwd.b 1x12, treelstm.W 4x12, treelstm.U 3x9, treelstm.Uf "
        "3x3, treelstm.b 1x12, treelstm.Wr 3x3, treelstm.br 1x3, treelstm.down.W 3x12, "
        "treelstm.down.U 3x12, treelstm.down.b 1x12"
    ),
    "GCN": (
        "embedding 4x4, gcn.proj 4x6, gcn.0.W_in 6x6, gcn.0.W_out 6x6, gcn.0.b 1x6, gcn.0.W_t "
        "6x6, gcn.0.b_t 1x6, gcn.1.W_in 6x6, gcn.1.W_out 6x6, gcn.1.b 1x6, gcn.1.W_t 6x6, "
        "gcn.1.b_t 1x6"
    ),
    "TreeLSTM": (
        "embedding 4x4, treelstm.W 4x12, treelstm.U 3x9, treelstm.Uf 3x3, treelstm.b 1x12, "
        "treelstm.Wr 3x3, treelstm.br 1x3, treelstm.down.W 3x12, treelstm.down.U 3x12, "
        "treelstm.down.b 1x12"
    ),
}
DECODER_PARAMS = (
    "tgt_embedding 5x4, decoder.W 10x24, decoder.U 6x24, decoder.b 1x24, W_a 6x6, U_a 6x6, "
    "b_a 1x6, v_a 6x1, W_init 6x6, b_init 1x6, W_o 12x6, b_o 1x6, W_v 6x5, b_v 1x5"
)


@pytest.mark.parametrize("kind", KINDS)
def test_parameter_names_shapes_and_order_are_pinned(kind):
    cfg = EncoderConfig(kind=kind, embedding_dim=4, hidden_dim=6, gcn_layers=2)
    src, tgt = Vocab(itos=(UNK, "a", "b", "c")), Vocab(itos=(UNK, BOS, EOS, "x", "y"))
    model = Seq2SeqModel(cfg, src, tgt, seed=0)
    got = [f"{name} {'x'.join(map(str, p.shape))}" for name, p in model.params().items()]
    assert got == f"{ENCODER_PARAMS[kind]}, {DECODER_PARAMS}".split(", ")


@pytest.fixture(scope="module")
def saved_checkpoint(toy10, tmp_path_factory):
    model = Seq2SeqModel(seq_config(embedding_dim=4, hidden_dim=4), *build_vocabs(toy10[:2]),
                         seed=0)
    ck = Checkpoint(config=model.config, src_vocab=model.src_vocab, tgt_vocab=model.tgt_vocab,
                    arrays={name: p.data for name, p in model.params().items()},
                    meta={"seed": 0, "epoch": 1, "dev_bleu": 0.0, "epochs_run": 1})
    path = tmp_path_factory.mktemp("checkpoint") / "ck.bin"
    ck.save(path)
    return path.read_bytes(), ck.arrays, path.with_name("damaged.bin")


def test_a_loaded_model_holds_each_parameter_once(toy10, tmp_path):
    model = Seq2SeqModel(seq_config(embedding_dim=64, hidden_dim=64), *build_vocabs(toy10),
                         seed=0)
    params = {name: p.data for name, p in model.params().items()}
    path = tmp_path / "ck.bin"
    Checkpoint(config=model.config, src_vocab=model.src_vocab, tgt_vocab=model.tgt_vocab,
               arrays=params, meta={}).save(path)
    tracemalloc.start()
    try:
        checkpoint = Checkpoint.load(path)
        loaded = checkpoint.build_model()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for name, p in loaded.params().items():
        assert np.shares_memory(p.data, checkpoint.arrays[name]), name
        assert np.array_equal(p.data, params[name]), name
    # a payload read whole and then copied, or a model that copies the
    # arrays, takes about twice the parameters' bytes
    assert peak < 1.3 * sum(a.nbytes for a in params.values())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_damaged_checkpoint_is_rejected_or_intact(saved_checkpoint, data):
    """A truncated archive or one with a flipped byte either fails with an
    error the CLI reports as a data error, or loads the original arrays
    (a flip in a zip timestamp, say, is harmless)."""
    blob, arrays, path = saved_checkpoint
    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[:offset]
    else:
        flip = data.draw(st.integers(1, 255), label="xor")
        damaged = blob[:offset] + bytes([blob[offset] ^ flip]) + blob[offset + 1:]
    path.write_bytes(damaged)
    try:
        model = Checkpoint.load(path).build_model()
    except (zipfile.BadZipFile, KeyError, ValueError):
        return
    for name, p in model.params().items():
        assert np.array_equal(p.data, arrays[name]), name


@pytest.mark.parametrize("kind, input_repr, built", [
    ("Seq", "sequence", []), ("GCN", "tree", ["tree"]), ("GCNSeq", "graph", ["graph"])])
def test_a_model_builds_only_the_structure_it_reads(kind, input_repr, built, toy_corpus,
                                                     monkeypatch):
    examples = make_examples(toy_corpus, TOY10[:3])  # structures not read yet
    levis = []
    real = transforms.to_levi

    def to_levi(source):
        levis.append("tree" if isinstance(source, transforms.AmrTree) else "graph")
        return real(source)

    monkeypatch.setattr(transforms, "to_levi", to_levi)
    config = seq_config(kind=kind, input_repr=input_repr, embedding_dim=8, hidden_dim=8)
    checkpoint, _ = train(examples, examples, config, seed=0,
                          settings=quick_settings(max_epochs=2))
    model = checkpoint.build_model()
    for ex in examples:
        generate(model, ex, beam=2)
        model.score_sentence(ex, ex.target)
    assert levis == built * len(examples)
