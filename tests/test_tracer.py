"""The benchmark's tracer still finds every name it wraps.

perfbench/spans.py patches amrgen's kernels, encoder methods and model
methods by name, so renaming or deleting one of them breaks `perfbench/run.py
--trace 1` alone. Installing the tracer in a fresh interpreter catches that
here; the tracer is read, never changed.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_tracer_installs_on_every_name_it_patches():
    assert _run("import spans; spans.install(spans.Tracer()); print('installed')") == "installed"


def test_traced_training_runs():
    # the tracer reads the example of every sequence_loss call, so training
    # must run under it: here one epoch at batch 3, one backward per batch
    out = _run("""
        import importlib.resources as resources
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.on = True
        from amrgen import amr, seq2seq, transforms
        from amrgen.encoders import EncoderConfig
        text = (resources.files("amrgen") / "data" / "toy_corpus.txt").read_text()
        examples = [seq2seq.TrainExample(id=ex.id, repr=transforms.prepare_example(ex.graph),
                                         target=tuple(ex.sentence), reference=tuple(ex.sentence))
                    for ex in amr.read_corpus_text(text)[:6]]
        tracer.kind = "GCNSeq"
        config = EncoderConfig(kind="GCNSeq", input_repr="graph", embedding_dim=8, hidden_dim=8)
        settings = seq2seq.TrainSettings(batch_size=3, max_epochs=1, unk_threshold=1)
        seq2seq.train(examples, examples, config, seed=0, settings=settings)
        print(tracer.calls["seq2seq.train"], tracer.calls["tensor.backward"])
    """)
    assert out == "1 2"


def test_traced_decoding_runs():
    # the tracer wraps the decode path's methods, so greedy and beam search,
    # scoring and a checkpoint round trip must run under it too
    out = _run("""
        import importlib.resources as resources
        import os
        import tempfile
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.on = True
        from amrgen import amr, seq2seq, transforms
        from amrgen.encoders import EncoderConfig
        text = (resources.files("amrgen") / "data" / "toy_corpus.txt").read_text()
        examples = [seq2seq.TrainExample(id=ex.id, repr=transforms.prepare_example(ex.graph),
                                         target=tuple(ex.sentence), reference=tuple(ex.sentence))
                    for ex in amr.read_corpus_text(text)[:2]]
        config = EncoderConfig(kind="TreeLSTMSeq", input_repr="tree", embedding_dim=8,
                               hidden_dim=8)
        src, tgt = seq2seq.build_vocabs(examples, unk_threshold=1)
        model = seq2seq.Seq2SeqModel(config, src, tgt, seed=0)
        for ex in examples:
            for beam in (1, 3):
                seq2seq.generate(model, ex, beam=beam)
            model.score_sentence(ex, ex.target)
        arrays = {name: p.data for name, p in model.params().items()}
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "checkpoint.bin")
            seq2seq.Checkpoint(config, src, tgt, arrays, meta={}).save(path)
            loaded = seq2seq.Checkpoint.load(path).build_model()
        seq2seq.generate(loaded, examples[0], beam=3)
        print(*(tracer.calls[f"seq2seq.{name}"] for name in
                ("beam_decode", "score_sentence", "Checkpoint.load")))
    """)
    assert out == "5 2 1"
