"""Span tracing from outside the program.

Wrappers are installed on amrgen's public functions and methods, at every
name they are reached through. Each call becomes a span: its duration, and
its self time, which is the duration minus the time covered by child spans.
Spans are folded into per-name totals as they end, so memory stays flat
however many kernel calls a run makes; per parent/child pair only the
inclusive time is kept.
"""
from __future__ import annotations

import time
from collections import defaultdict

TENSOR_KERNELS = (
    "matmul", "add", "mul", "scale", "concat", "slice_rows", "slice_cols",
    "sigmoid", "tanh", "relu", "softmax", "log_softmax", "dropout",
    "embedding_lookup", "pick", "sum_rows", "transpose",
)
KINDS = ("Seq", "GCNSeq", "TreeLSTMSeq", "GCN")


class Tracer:
    def __init__(self):
        self.on = False
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.pair_time = defaultdict(float)  # (parent, child) -> inclusive seconds
        self.counts = defaultdict(int)
        self.stack = []  # [name, seconds covered by children]
        self.kind = None  # stacking being trained or decoded, set by the workload
        self.example_id = None

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            frame = [name, 0.0]
            tracer.stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                tracer.stack.pop()
                tracer.calls[name] += 1
                tracer.total[name] += elapsed
                tracer.self_time[name] += elapsed - frame[1]
                if tracer.stack:
                    parent = tracer.stack[-1]
                    parent[1] += elapsed
                    tracer.pair_time[(parent[0], name)] += elapsed
                if after is not None:
                    after(elapsed)

        traced.__wrapped__ = fn
        return traced


def _patch(tracer, owner, attr, name, before=None, after=None):
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), before, after))


def _patch_method(tracer, cls, attr, name, before=None, after=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, before, after)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, before, after))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries. Call before any model is built: the GCN
    keeps a reference to its activation kernel."""
    from amrgen import amr, cli, encoders, evaluation, seq2seq, tensor, transforms

    for kernel in TENSOR_KERNELS:
        wrapped = tracer.wrap(f"tensor.{kernel}", getattr(tensor, kernel))
        setattr(tensor, kernel, wrapped)
        if hasattr(encoders, kernel):  # encoders binds kernels by name
            setattr(encoders, kernel, wrapped)
        for key, fn in list(encoders._ACTIVATIONS.items()):
            if fn is wrapped.__wrapped__:
                encoders._ACTIVATIONS[key] = wrapped

    def on_toy_example():  # per-stacking columns cover the toy graphs only
        return tracer.kind is not None and (tracer.example_id or "").startswith("toy-")

    def count_tape(args):
        tracer.counts["tape_ops"] += len(args[0])
        tracer.counts["backward_calls"] += 1
        if on_toy_example():
            tracer.counts[f"{tracer.kind}.toy_tape_ops"] += len(args[0])

    def time_toy_step(elapsed):
        if on_toy_example():
            tracer.total[f"{tracer.kind}.toy_train"] += elapsed

    _patch(tracer, tensor, "backward", "tensor.backward", count_tape, time_toy_step)
    _patch(tracer, tensor, "sgd_step", "tensor.sgd_step")
    _patch(tracer, tensor, "clip_grad_norm", "tensor.clip_grad_norm")

    def count_step(args):
        if args[0].name == "decoder":
            tracer.counts["decoder_steps"] += 1

    _patch_method(tracer, encoders.LstmCell, "step", "encoders.LstmCell.step", count_step)
    for cls in ("StackEncoder", "BiLstmEncoder", "GcnEncoder", "ChildSumTreeLstm"):
        _patch_method(tracer, getattr(encoders, cls), "encode", f"encoders.{cls}.encode")

    def note_example(args):
        tracer.example_id = args[1].id
        if on_toy_example():
            tracer.counts[f"{tracer.kind}.toy_examples"] += 1

    _patch_method(tracer, seq2seq.Seq2SeqModel, "sequence_loss", "seq2seq.sequence_loss",
                  note_example, time_toy_step)
    for method in ("greedy_decode", "beam_decode", "score_sentence"):
        _patch_method(tracer, seq2seq.Seq2SeqModel, method, f"seq2seq.{method}")
    for method in ("load", "build_model", "save"):
        _patch_method(tracer, seq2seq.Checkpoint, method, f"seq2seq.Checkpoint.{method}")
    _patch(tracer, seq2seq, "generate", "seq2seq.generate")
    _patch(tracer, seq2seq, "train", "seq2seq.train")

    for fn in ("parse_penman", "serialize_penman", "validate", "compute_stats"):
        _patch(tracer, amr, fn, f"amr.{fn}")
        if hasattr(cli, fn):
            setattr(cli, fn, getattr(amr, fn))
    for fn in ("prepare_example", "anonymize"):
        _patch(tracer, transforms, fn, f"transforms.{fn}")
        setattr(cli, fn, getattr(transforms, fn))
    for fn in ("preprocess_corpus", "load_examples"):
        _patch(tracer, cli, fn, f"cli.{fn}")
    for fn in ("corpus_bleu", "sentence_metric", "bucket_report", "contrastive_eval",
               "make_contrastive_pairs"):
        _patch(tracer, evaluation, fn, f"evaluation.{fn}")
        if hasattr(cli, fn):
            setattr(cli, fn, getattr(evaluation, fn))


def span_names():
    names = [f"amr.{f}" for f in ("parse_penman", "serialize_penman", "validate", "compute_stats")]
    names += ["transforms.prepare_example", "transforms.anonymize"]
    names += ["cli.preprocess_corpus", "cli.load_examples"]
    names += [f"tensor.{k}" for k in TENSOR_KERNELS]
    names += ["tensor.backward", "tensor.sgd_step", "tensor.clip_grad_norm"]
    names += [f"encoders.{c}.encode" for c in
              ("StackEncoder", "BiLstmEncoder", "GcnEncoder", "ChildSumTreeLstm")]
    names += ["encoders.LstmCell.step"]
    names += [f"seq2seq.{m}" for m in
              ("train", "sequence_loss", "greedy_decode", "beam_decode", "score_sentence")]
    names += [f"seq2seq.Checkpoint.{m}" for m in ("load", "build_model", "save")]
    names += [f"evaluation.{f}" for f in ("corpus_bleu", "sentence_metric", "bucket_report",
                                          "contrastive_eval", "make_contrastive_pairs")]
    return names


def per_layer_names():
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_s"]
    names += [
        "tensor.tape_ops_per_example",
        "seq2seq.decoder_steps",
        "seq2seq.decoder_steps_per_token",
        "seq2seq.beam_greedy_rerun_share",
    ]
    for kind in KINDS:
        names += [
            f"seq2seq.{kind}.train_ms_per_example",
            f"tensor.{kind}.tape_ops_per_example",
            f"seq2seq.{kind}.greedy_ms_per_sentence",
            f"seq2seq.{kind}.beam5_ms_per_sentence",
        ]
    names += ["trace.overhead_s", "trace.overhead_share"]
    return names


def span_metrics(tracer: Tracer) -> dict:
    """calls and self seconds per span, plus the ratios built from spans."""
    out = {}
    for span in span_names():
        out[f"{span}.calls"] = tracer.calls.get(span, 0)
        out[f"{span}.self_s"] = tracer.self_time.get(span, 0.0)
    backward = tracer.counts.get("backward_calls", 0)
    out["tensor.tape_ops_per_example"] = tracer.counts["tape_ops"] / backward if backward else 0.0
    out["seq2seq.decoder_steps"] = tracer.counts.get("decoder_steps", 0)
    beam = tracer.total.get("seq2seq.beam_decode", 0.0)
    rerun = tracer.pair_time.get(("seq2seq.beam_decode", "seq2seq.greedy_decode"), 0.0)
    out["seq2seq.beam_greedy_rerun_share"] = rerun / beam if beam else 0.0
    return out
