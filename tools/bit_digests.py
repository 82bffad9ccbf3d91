"""Digests of the bytes that fixed seeds give, for comparing two trees of
amrgen: a change that should keep the numbers prints the same lines on both.

    PYTHONPATH=src python tools/bit_digests.py [--memorize]

It prints:
- for every stacking at batch 1 and at batch 4, the sha256 of the
  checkpoint.bin and train_log.jsonl of 3 epochs on 14 toy graphs (dev: the
  next 7; dims 12/10, dropout 0.3, edge dropout 0.1, seed 3), and the last
  epoch's train loss;
- one sha256 over the greedy and beam decodes (beams 1, 2, 3, 5 and 6, at
  the default max_len and at 3) and the `score_sentence` of all 60 toy
  graphs, under untrained models of four stackings (dims 16, seed 5, +0.5
  on EOS's output bias so that hypotheses finish);
- with --memorize, criterion 6's memorization of the first 10 toy graphs
  for four stackings: the epochs run and the dev BLEU at each evaluation.
"""
import argparse
import glob
import hashlib
import json
import os
import tempfile
from importlib import resources

from amrgen import amr, cli, transforms
from amrgen.encoders import KINDS, EncoderConfig
from amrgen.seq2seq import Seq2SeqModel, TrainExample, TrainSettings, build_vocabs, train, write_log
from amrgen.vocab import EOS

TOY_CORPUS = resources.files("amrgen") / "data" / "toy_corpus.txt"
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests", "golden")
DECODE_KINDS = ("Seq", "GCNSeq", "TreeLSTMSeq", "GCN")
BEAMS = (1, 2, 3, 5, 6)
# criterion 6's fixture, which tests/test_acceptance.py imports: its seed,
# settings and each kind's encoder
MEMORIZE_SEED = 1
MEMORIZE_SETTINGS = TrainSettings(lr=1.0, lr_decay=0.8, batch_size=1, max_epochs=500,
                                  patience=10, unk_threshold=1, eval_every=50)


def memorize_config(kind):
    return EncoderConfig(kind=kind, embedding_dim=64, hidden_dim=64, dropout=0.0, edge_dropout=0.0)


def toy_examples():
    """The 60 toy graphs as training examples, their sentences the targets."""
    return [TrainExample(id=ex.id, repr=transforms.prepare_example(ex.graph),
                         target=tuple(ex.sentence), reference=tuple(ex.sentence))
            for ex in amr.read_corpus_text(TOY_CORPUS.read_text())]


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def train_digests(kind, batch_size, examples, epochs=3):
    """The sha256 of the checkpoint and the log of a short training run on
    examples[:14] with examples[14:21] as dev, and its last train loss."""
    config = EncoderConfig(kind=kind, embedding_dim=12,
                           hidden_dim=10, dropout=0.3, edge_dropout=0.1)
    settings = TrainSettings(batch_size=batch_size, max_epochs=epochs)
    checkpoint, log = train(examples[:14], examples[14:21], config, seed=3, settings=settings)
    with tempfile.TemporaryDirectory() as folder:
        checkpoint.save(os.path.join(folder, "checkpoint.bin"))
        write_log(os.path.join(folder, "train_log.jsonl"), log)
        return (_sha256(os.path.join(folder, "checkpoint.bin")),
                _sha256(os.path.join(folder, "train_log.jsonl")), log[-1]["train_loss"])


def decode_digest(examples, kinds=DECODE_KINDS):
    """One sha256 over every decode and sentence score of the examples under
    untrained models of the kinds."""
    src_vocab, tgt_vocab = build_vocabs(examples, unk_threshold=1)
    digest = hashlib.sha256()
    for kind in kinds:
        config = EncoderConfig(kind=kind, embedding_dim=16, hidden_dim=16)
        model = Seq2SeqModel(config, src_vocab, tgt_vocab, seed=5)
        model.b_v.data[0, tgt_vocab.index(EOS)] += 0.5
        for ex in examples:
            for beam in BEAMS:
                for max_len in (None, 3):
                    tokens, log_prob, truncated = model.beam_decode(ex, beam=beam, max_len=max_len)
                    digest.update(repr((tokens, float(log_prob).hex(), truncated)).encode())
            digest.update(float(model.score_sentence(ex, ex.target)).hex().encode())
    return digest.hexdigest()


def corpus_digest():
    """One sha256 over the anonymized preprocess records of the toy corpus,
    in sorted-key JSON, and over the derived artifacts and the PENMAN text of
    every toy and golden graph."""
    digest = hashlib.sha256()
    with resources.as_file(TOY_CORPUS) as path:
        records, _, _ = cli.preprocess_corpus(str(path), anonymize_flag=True)
    for record in records:
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    graphs = [ex.graph for ex in amr.read_corpus_text(TOY_CORPUS.read_text())]
    for path in sorted(glob.glob(os.path.join(GOLDEN, "*.amr"))):
        with open(path, encoding="utf-8") as handle:
            graphs.append(amr.parse_penman(handle.read()))
    for graph in graphs:
        example = transforms.prepare_example(graph)
        sequence, tree = example.sequence, example.tree
        parts = [sequence.tokens, sequence.alignment,
                 tree.nodes, tree.edges, tree.root, tree.copy_of, tree.edge_origin]
        for key in ("graph", "tree"):
            aligned = example.structures[key]
            parts += [aligned.levi.nodes, aligned.levi.edges, aligned.levi.root,
                      aligned.pos_to_node, aligned.init_pos]
        parts.append(amr.serialize_penman(graph))
        digest.update(repr(parts).encode())
    return digest.hexdigest()


def memorize(kind, examples):
    """Criterion 6's run for kind: the epochs run and (epoch, dev BLEU) at
    each evaluation."""
    _, log = train(examples, examples, memorize_config(kind), seed=MEMORIZE_SEED,
                   settings=MEMORIZE_SETTINGS)
    every = MEMORIZE_SETTINGS.eval_every
    return len(log), [(e["epoch"], e["dev_bleu"]) for e in log if e["epoch"] % every == 0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--memorize", action="store_true",
                        help="also run criterion 6's memorization (about a minute)")
    args = parser.parse_args(argv)
    examples = toy_examples()
    for batch_size in (1, 4):
        for kind in KINDS:
            checkpoint, log, loss = train_digests(kind, batch_size, examples)
            print(f"train {kind:<12} batch {batch_size}: checkpoint {checkpoint[:16]} "
                  f"log {log[:16]} loss {loss!r}", flush=True)
    print(f"decode {decode_digest(examples)}", flush=True)
    print(f"corpus {corpus_digest()}", flush=True)
    if args.memorize:
        for kind in DECODE_KINDS:
            epochs, evaluations = memorize(kind, examples[:10])
            bleus = " ".join(f"{epoch}:{bleu:.1f}" for epoch, bleu in evaluations)
            print(f"memorize {kind:<12} {epochs} epochs; dev BLEU {bleus}", flush=True)


if __name__ == "__main__":
    main()
