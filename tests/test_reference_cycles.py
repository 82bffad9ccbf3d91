"""The corpus path and decoding free their own garbage: with the cyclic
collector switched off, they leave no reference cycle behind for it."""
import gc
import json
from importlib import resources

from amrgen import amr, cli, evaluation
from amrgen.encoders import EncoderConfig
from amrgen.seq2seq import Seq2SeqModel, build_vocabs, generate

from bit_digests import DECODE_KINDS, TOY_CORPUS


def test_corpus_path_and_decoding_leave_no_reference_cycles(tmp_path):
    gc.collect()
    gc.disable()
    try:
        with resources.as_file(TOY_CORPUS) as path:
            records, _, _ = cli.preprocess_corpus(str(path), anonymize_flag=True)
        data = tmp_path / "toy.jsonl"
        data.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        examples = cli.load_examples(str(data))
        references = [list(ex.reference) for ex in examples]
        hypotheses = [reference[1:] for reference in references]
        stats = [amr.compute_stats(ex.repr.graph).to_dict() for ex in examples]
        assert evaluation.corpus_bleu(hypotheses, references) > 0
        scores = {"sys": [evaluation.sentence_metric(h, r)
                          for h, r in zip(hypotheses, references)]}
        for bucketing in ("reentrancies", "max_dep_len"):
            evaluation.bucket_report(scores, stats, bucketing=bucketing)
        assert gc.collect() == 0, "the corpus path left reference cycles"
        src_vocab, tgt_vocab = build_vocabs(examples, unk_threshold=1)
        for kind in DECODE_KINDS:
            config = EncoderConfig(kind=kind, embedding_dim=8, hidden_dim=8)
            model = Seq2SeqModel(config, src_vocab, tgt_vocab, seed=0)
            for ex in examples[:3]:
                for beam in (1, 3):
                    generate(model, ex, beam=beam)
            assert gc.collect() == 0, f"decoding under {kind} left reference cycles"
    finally:
        gc.enable()
