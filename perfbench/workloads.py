"""One workload in one process: set-up, timed rounds, output checks.

run.py starts this file as its own process, with the generated inputs, and
reads back the result file it writes. A round is the workload's fixed unit
of work; rounds repeat while another one should end within --seconds, and
at least as often as the workload's min_rounds. Rounds of one run are identical, so a traced
round gives exact counts.

    python3 perfbench/workloads.py --workload train --seed 1 --seconds 30 \
        --trace 0 --inputs DIR --checkpoints DIR --work DIR --out result.json \
        --spawned <time.monotonic() when the process was started>
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402

KINDS = spans.KINDS
SETUP_REPEATS = 9
TRAIN_EPOCHS = 2  # two, so that the last epoch's loss can be checked against the first
TRAIN_BATCH = 10
MEMORIZE_SEED = 1
BEAM = 5


def default_repr(kind):
    if kind == "Seq":
        return "sequence"
    return "tree" if "TreeLSTM" in kind else "graph"


def memorize_fixture():
    """Criterion 6's memorization settings, which the decode checkpoints are
    trained with: (settings, encoder config for a kind)."""
    from amrgen.encoders import EncoderConfig
    from amrgen.seq2seq import TrainSettings

    settings = TrainSettings(lr=1.0, lr_decay=0.8, batch_size=1, max_epochs=500, patience=10,
                             unk_threshold=1, eval_every=50)

    def config(kind):
        return EncoderConfig(kind=kind, input_repr=default_repr(kind), embedding_dim=64,
                             hidden_dim=64, dropout=0.0, edge_dropout=0.0)

    return settings, config


class Round:
    """What one round did: ops attempted and failed, units of work for
    ms_per_op, program seconds per stage, and outputs kept for checks.

    A stage's time is the sum of its items: a training epoch, one decoded
    sentence, one call. After each item the pacer runs its share of
    reference chunks, outside the item's time."""

    def __init__(self, pacer):
        self.pacer = pacer
        self.scale = 1.0  # to the reference speed, from the chunks run in the round
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.tokens = 0  # target tokens through the decoder: trained, emitted or scored
        self.stage_units = defaultdict(int)  # stage -> units of the stage's own rate
        self.stage_seconds = defaultdict(float)  # stage -> program seconds
        self.seconds = 0.0
        self.outputs = {}

    def time(self, stage, seconds, pace=True):
        """Count an item of the stage; pace=False where the chunks already ran."""
        self.stage_seconds[stage] += seconds
        if pace:
            self.pacer.after(seconds)

    def seconds_in(self, stage=None) -> float:
        """Program seconds of the round, or of a stage and its sub-stages
        ("greedy" takes "greedy.Seq")."""
        return sum(seconds for key, seconds in self.stage_seconds.items()
                   if stage is None or key == stage or key.startswith(stage + "."))


def estimate(rounds, stage=None) -> float:
    """Seconds one round, or one stage of it, takes at the reference speed:
    the median over rounds of its program seconds times the round's scale.
    Every item of a round counts, as timed."""
    return statistics.median(r.seconds_in(stage) * r.scale for r in rounds)


def raw_estimate(rounds) -> float:
    """The same median over rounds, as timed on this host."""
    return statistics.median(r.seconds_in() for r in rounds)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


class _Stamps:
    """log_sink for train, which calls it once at the end of every epoch: the
    length of each epoch, with the pacer's chunks run between epochs and
    left out. Epochs are items that every version of the program has,
    however it arranges the work inside one."""

    def __init__(self, pacer):
        self.pacer = pacer
        self.intervals = []
        self.mark = time.perf_counter()

    def __call__(self, message):
        elapsed = time.perf_counter() - self.mark
        self.intervals.append(elapsed)
        self.pacer.after(elapsed)
        self.mark = time.perf_counter()


# --------------------------------------------------------------------------
# train: teacher-forced training of four stackings on toy + generated graphs


class TrainWorkload:
    min_rounds = 2

    def __init__(self, args, tracer, pacer):
        self.args, self.tracer, self.pacer = args, tracer, pacer

    def config(self, kind):
        from amrgen.encoders import EncoderConfig

        return EncoderConfig(kind=kind, input_repr=default_repr(kind), dropout=0.3,
                             edge_dropout=0.1)

    def setup(self):
        from amrgen import cli, seq2seq

        examples = cli.load_examples(os.path.join(self.args.inputs, "train.jsonl"))
        src, tgt = seq2seq.build_vocabs(examples, seq2seq.TrainSettings().unk_threshold)
        for kind in KINDS:
            seq2seq.Seq2SeqModel(self.config(kind), src, tgt, seed=self.args.seed)
        return examples

    def round(self, examples):
        from amrgen import seq2seq

        settings = seq2seq.TrainSettings(batch_size=TRAIN_BATCH, max_epochs=TRAIN_EPOCHS,
                                         eval_every=TRAIN_EPOCHS + 1)  # no dev decode
        tokens = TRAIN_EPOCHS * sum(len(ex.target) + 1 for ex in examples)
        ops = TRAIN_EPOCHS * len(examples)
        r = Round(self.pacer)
        for kind in KINDS:
            self.tracer.kind = kind
            stamps = _Stamps(self.pacer)
            try:
                checkpoint, log = seq2seq.train(examples, examples, self.config(kind),
                                                seed=self.args.seed, settings=settings,
                                                log_sink=stamps)
                checkpoint.save(os.path.join(self.args.work, f"{kind}.bin"))
                losses = [entry["train_loss"] for entry in log]
                ok = (len(losses) == TRAIN_EPOCHS and all(map(_finite, losses))
                      and losses[-1] < losses[0])
            except (ArithmeticError, ValueError, RuntimeError) as err:  # NumericError too
                print(f"train {kind}: {err!r}", file=sys.stderr)
                ok = False
            stamps("saved")
            self.tracer.kind = None
            # items: each epoch (the first with the model build), then the save
            intervals = stamps.intervals
            if ok and len(intervals) != TRAIN_EPOCHS + 1:
                # not one log_sink call per epoch: the chunks did not run between epochs
                print(f"train {kind}: {len(intervals) - 1} log_sink calls in "
                      f"{TRAIN_EPOCHS} epochs", file=sys.stderr)
                ok = False
            r.time(f"train.{kind}", sum(intervals), pace=False)
            r.stage_units[f"train.{kind}"] = ops
            r.stage_units["train"] += tokens
            r.attempted += ops
            r.failed += 0 if ok else ops
            r.units += tokens
            r.tokens += tokens
        return r

    def check(self, state, first):
        return 0, 0

    def detail(self, rounds):
        out = {"train_tokens_per_s": rounds[0].stage_units["train"] / estimate(rounds, "train")}
        for kind in KINDS:
            out[f"{kind}.train_ms_per_example"] = (
                1000.0 * estimate(rounds, f"train.{kind}") / rounds[0].stage_units[f"train.{kind}"])
        return out


# --------------------------------------------------------------------------
# decode: greedy, beam-5 and contrastive scoring with memorized checkpoints


class DecodeWorkload:
    min_rounds = 2

    def __init__(self, args, tracer, pacer):
        self.args, self.tracer, self.pacer = args, tracer, pacer

    def setup(self):
        from amrgen import cli, evaluation, seq2seq

        examples = cli.load_examples(os.path.join(self.args.inputs, "toy.jsonl"))
        with open(os.path.join(self.args.inputs, "annotations.jsonl"), encoding="utf-8") as f:
            annotations = [evaluation.PronounAnnotation(**json.loads(line))
                           for line in f if line.strip()]
        sentences = {ex.id: list(ex.reference) for ex in examples}
        pairs = evaluation.make_contrastive_pairs(sentences, annotations)
        pairs += cli.load_pairs(os.path.join(self.args.inputs, "pairs.jsonl"))
        models = {}
        for kind in KINDS:
            checkpoint = seq2seq.Checkpoint.load(
                os.path.join(self.args.checkpoints, f"{kind}.bin"))
            models[kind] = checkpoint.build_model()
        return examples, pairs, models

    def round(self, state):
        from amrgen import evaluation, seq2seq

        examples, pairs, models = state
        by_id = {ex.id: ex for ex in examples}
        r = Round(self.pacer)
        for kind in KINDS:
            model = models[kind]
            for mode, beam in (("greedy", 1), ("beam5", BEAM)):
                outputs = []
                for ex in examples:
                    started = time.perf_counter()
                    try:
                        tokens, truncated = seq2seq.generate(model, ex, beam=beam)
                    except (ArithmeticError, ValueError, RuntimeError) as err:
                        print(f"decode {kind} {mode} {ex.id}: {err!r}", file=sys.stderr)
                        tokens, truncated = None, True
                    r.time(f"{mode}.{kind}", time.perf_counter() - started)
                    outputs.append((tokens, truncated))
                    emitted = len(tokens) + (0 if truncated else 1) if tokens is not None else 0
                    r.stage_units[mode] += emitted
                    r.units += emitted
                r.stage_units[f"{mode}.{kind}"] = len(examples)
                r.outputs[(kind, mode)] = outputs
                r.attempted += len(examples)
                r.failed += sum(1 for tokens, _ in outputs if not tokens)

            scores, scored = [], []

            def score(ex, tokens):
                started = time.perf_counter()
                value = model.score_sentence(ex, tokens)
                scored.append(time.perf_counter() - started)
                r.time(f"score.{kind}", scored[-1])
                scores.append(value)
                return value

            started, paced = time.perf_counter(), self.pacer.spent
            try:
                _, skipped = evaluation.contrastive_eval(score, pairs, by_id.get)
            except (ArithmeticError, ValueError, RuntimeError) as err:
                print(f"contrastive {kind}: {err!r}", file=sys.stderr)
                skipped = len(pairs)
            r.time(f"score.{kind}", time.perf_counter() - started - sum(scored)
                   - (self.pacer.spent - paced))
            r.stage_units["score"] += len(pairs)
            r.attempted += len(pairs)
            bad_pairs = sum(1 for k in range(0, len(scores), 2)
                            if not all(map(_finite, scores[k:k + 2])))
            r.failed += max(skipped, bad_pairs, len(pairs) - len(scores) // 2)
            r.units += sum(len(p.reference) + len(p.contrastive) + 2 for p in pairs)
        r.tokens = r.units
        return r

    def check(self, state, first):
        """Beam-5 never below greedy under the length-normalized score, and
        BLEU >= 95 on the memorized examples. Returns (checked, failed)."""
        from amrgen import evaluation
        from gen import TOY10

        examples, _, models = state
        checked = failed = 0
        for kind in KINDS:
            model = models[kind]
            greedy, beam = first.outputs[(kind, "greedy")], first.outputs[(kind, "beam5")]
            for ex, (g, g_trunc), (b, b_trunc) in zip(examples, greedy, beam):
                checked += 1
                if not g or not b:
                    failed += 1
                    continue
                g_score = model.score_sentence(ex, g)
                b_score = model.score_sentence(ex, b)
                if not (_finite(g_score) and _finite(b_score)):
                    failed += 1
                elif not (g_trunc or b_trunc) and (
                        b_score / (len(b) + 1) < g_score / (len(g) + 1) - 1e-9):
                    print(f"decode {kind} {ex.id}: beam below greedy", file=sys.stderr)
                    failed += 1
            for mode, outputs in (("greedy", greedy), ("beam5", beam)):
                memorized = [(out[0] or [], list(ex.reference))
                             for ex, out in zip(examples, outputs) if ex.id in TOY10]
                bleu = evaluation.corpus_bleu([h for h, _ in memorized], [r for _, r in memorized])
                checked += 1
                if not bleu >= 95.0:
                    print(f"decode {kind} {mode}: BLEU {bleu:.2f} on the memorized examples",
                          file=sys.stderr)
                    failed += 1
        return checked, failed

    def detail(self, rounds):
        first = rounds[0]
        out = {}
        for stage, metric in (("greedy", "greedy_tokens_per_s"), ("beam5", "beam5_tokens_per_s"),
                              ("score", "score_pairs_per_s")):
            out[metric] = first.stage_units[stage] / estimate(rounds, stage)
        for kind in KINDS:
            for mode in ("greedy", "beam5"):
                out[f"{kind}.{mode}_ms_per_sentence"] = (
                    1000.0 * estimate(rounds, f"{mode}.{kind}") / first.stage_units[f"{mode}.{kind}"])
        return out


# --------------------------------------------------------------------------
# corpus: preprocessing, loading and evaluation, no model


class CorpusWorkload:
    min_rounds = 3

    def __init__(self, args, tracer, pacer):
        self.args, self.tracer, self.pacer = args, tracer, pacer

    def setup(self):
        systems = {}
        for name in ("Seq", "GCNSeq"):
            with open(os.path.join(self.args.inputs, f"hyp.{name}.txt"), encoding="utf-8") as f:
                systems[name] = [line.strip().lower().split() for line in f.read().splitlines()]
        return systems

    def round(self, systems):
        from amrgen import amr, cli, evaluation

        r = Round(self.pacer)
        expected = len(next(iter(systems.values())))
        parts = sorted(name[:-4] for name in os.listdir(self.args.inputs)
                       if name.startswith("corpus-") and name.endswith(".txt"))

        records, skipped = [], 0
        for part in parts:
            started = time.perf_counter()
            part_records, part_skipped, _ = cli.preprocess_corpus(
                os.path.join(self.args.inputs, f"{part}.txt"), anonymize_flag=True)
            with open(os.path.join(self.args.work, f"{part}.jsonl"), "w",
                      encoding="utf-8") as handle:
                for record in part_records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
            r.time("preprocess", time.perf_counter() - started)
            records += part_records
            skipped += part_skipped

        examples = []
        for part in parts:
            started = time.perf_counter()
            examples += cli.load_examples(os.path.join(self.args.work, f"{part}.jsonl"))
            r.time("load", time.perf_counter() - started)

        references = [list(ex.reference) for ex in examples]
        stats = []
        for ex in examples:
            started = time.perf_counter()
            stats.append(amr.compute_stats(ex.repr.graph).to_dict())
            r.time("eval", time.perf_counter() - started)
        scores, bleus = {}, []
        for name, hyps in systems.items():
            started = time.perf_counter()
            bleus.append(evaluation.corpus_bleu(hyps, references))
            r.time("eval", time.perf_counter() - started)
            scores[name] = []
            for hyp, ref in zip(hyps, references):
                started = time.perf_counter()
                scores[name].append(evaluation.sentence_metric(hyp, ref))
                r.time("eval", time.perf_counter() - started)
        reports = {}
        for bucketing in ("reentrancies", "max_dep_len"):
            started = time.perf_counter()
            reports[bucketing] = evaluation.bucket_report(scores, stats, bucketing=bucketing)
            r.time("eval", time.perf_counter() - started)

        r.stage_units["preprocess"] = len(records)
        r.stage_units["load"] = len(examples)
        r.stage_units["eval"] = len(systems) * len(references)
        r.attempted = expected
        r.units = expected
        if skipped or len(records) != expected or len(examples) != expected:
            print(f"corpus: {len(records)} records, {len(examples)} examples, {skipped} "
                  f"skipped, {expected} generated", file=sys.stderr)
            r.failed = expected
            return r
        bad = {i for name in scores for i, s in enumerate(scores[name])
               if not (_finite(s) and 0.0 <= s <= 100.0)}
        reentrant_free = sum(1 for s in stats if s["reentrancies"] == 0)
        if (not all(_finite(b) and 0.0 < b <= 100.0 for b in bleus)
                or sum(row.count for row in reports["reentrancies"]) != expected
                or sum(row.count for row in reports["max_dep_len"]) != reentrant_free):
            print("corpus: BLEU out of range or buckets not covering the corpus",
                  file=sys.stderr)
            bad = set(range(expected))
        r.failed = len(bad)
        return r

    def check(self, systems, first):
        """parse and serialize round-trip every generated graph."""
        from amrgen import amr
        from gen import generate

        graphs = generate("corpus", self.args.seed, os.path.join(self.args.work, "regenerated"))
        failed = 0
        for text, nodes, edges in graphs:
            try:
                graph = amr.parse_penman(text)
                again = amr.parse_penman(amr.serialize_penman(graph))
                ok = ((graph.node_count, graph.edge_count) == (nodes, edges)
                      and _canonical(again) == _canonical(graph))
            except ValueError as err:
                print(f"corpus round trip: {err!r}", file=sys.stderr)
                ok = False
            failed += 0 if ok else 1
        return len(graphs), failed

    def detail(self, rounds):
        return {metric: rounds[0].stage_units[stage] / estimate(rounds, stage)
                for stage, metric in (("preprocess", "preprocess_graphs_per_s"),
                                      ("load", "load_graphs_per_s"),
                                      ("eval", "eval_sentences_per_s"))}


def _canonical(graph):
    """Graph shape up to node ids: labels in depth-first order, and each edge
    as its relation plus the visit index of its target."""
    out = {nid: [] for nid, _ in graph.nodes}
    for parent, rel, child in graph.edges:
        out[parent].append((rel, child))
    labels = dict(graph.nodes)
    index, shape = {}, []
    stack = [graph.root]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            rel, child = item
            if child in index:
                shape.append((rel, index[child]))
                continue
            shape.append(rel)
            item = child
        index[item] = len(index)
        shape.append(labels[item])
        stack.extend(reversed(out[item]))
    return shape, len(graph.nodes), len(graph.edges)


WORKLOADS = {
    "train": TrainWorkload,
    "decode": DecodeWorkload,
    "corpus": CorpusWorkload,
}


# --------------------------------------------------------------------------


def blas_info():
    """BLAS library and the thread count it actually runs with."""
    import ctypes
    import glob

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def import_program(spawned: float) -> float:
    """Import the package from the checkout's src/; returns the seconds since
    the process was spawned."""
    import amrgen

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(amrgen.__file__).startswith(src + os.sep):
        raise SystemExit(f"amrgen imported from {amrgen.__file__}, not from {src}")
    from amrgen import cli, seq2seq  # noqa: F401  (importing the whole package is set-up cost)

    return time.monotonic() - spawned


def run(args) -> dict:
    import numpy

    import_s = import_program(args.spawned)
    import probe  # after the program, whose import time includes its numpy import

    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer)
    # traced runs report span times as they are, and a chunk run from a
    # log_sink would land inside seq2seq.train's span
    pacer = probe.Pacer(on=not args.trace)
    workload = WORKLOADS[args.workload](args, tracer, pacer)

    setups = []
    for k in range(SETUP_REPEATS):
        tracer.on = args.trace and k == SETUP_REPEATS - 1
        started = time.monotonic()
        state = workload.setup()
        setups.append(time.monotonic() - started)
    tracer.on = False

    def timed_round():
        mark, chunks = time.perf_counter(), len(pacer.times)
        r = workload.round(state)
        r.seconds = time.perf_counter() - mark
        r.scale = pacer.scale(chunks)
        return r

    rounds = []
    started = time.perf_counter()
    if args.trace:
        # one round with the wrappers switched off, then the traced round:
        # identical work, so the difference is the tracing overhead
        rounds.append(timed_round())
        tracer.on = True
        rounds.append(timed_round())
        tracer.on = False
    else:
        # another round only when it should end within --seconds
        while len(rounds) < workload.min_rounds or (
                (time.perf_counter() - started) * (len(rounds) + 1) / len(rounds)
                <= args.seconds):
            rounds.append(timed_round())
            if len(rounds) > 1:
                rounds[-1].outputs.clear()  # the checks read the first round's

    checked, check_failed = workload.check(state, rounds[0])
    attempted = sum(r.attempted for r in rounds) + checked
    failed = sum(r.failed for r in rounds) + check_failed

    result = {
        "attempted": attempted,
        "failed": failed,
        "rounds": [r.seconds for r in rounds],
        "round_scales": [r.scale for r in rounds],
        "import_s": import_s,
        "setup_repeats_s": setups,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": blas_info(),
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if args.trace:
        result["metrics"] = trace_metrics(workload, tracer, *rounds)
    else:
        result["metrics"] = {
            "ms_per_op": 1000.0 * estimate(rounds) / rounds[0].units,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["detail"] = dict(workload.detail(rounds),
                                raw_ms_per_op=1000.0 * raw_estimate(rounds) / rounds[0].units)
    result["detail"] = dict(result.get("detail", {}), ops_failed_ratio=failed / attempted)
    return result


def trace_metrics(workload, tracer, untraced, traced) -> dict:
    """Every per-layer metric; zero where the workload does not run the layer."""
    metrics = dict.fromkeys(spans.per_layer_names(), 0)
    metrics.update(spans.span_metrics(tracer))
    steps = metrics["seq2seq.decoder_steps"]
    metrics["seq2seq.decoder_steps_per_token"] = steps / traced.tokens if traced.tokens else 0.0
    for kind in KINDS:
        toy = tracer.counts.get(f"{kind}.toy_examples", 0)
        if toy:
            metrics[f"seq2seq.{kind}.train_ms_per_example"] = (
                1000.0 * tracer.total[f"{kind}.toy_train"] / toy)
            metrics[f"tensor.{kind}.tape_ops_per_example"] = (
                tracer.counts[f"{kind}.toy_tape_ops"] / toy)
        for mode in ("greedy", "beam5"):
            sentences = traced.stage_units.get(f"{mode}.{kind}")
            if sentences:
                metrics[f"seq2seq.{kind}.{mode}_ms_per_sentence"] = (
                    1000.0 * estimate([traced], f"{mode}.{kind}") / sentences)
    plain = estimate([untraced])
    metrics["trace.overhead_s"] = estimate([traced]) - plain
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / plain
    return metrics


def prepare_checkpoints(folder, inputs) -> None:
    """Train the decode workload's checkpoints: criterion 6's fixture for
    each stacking, saved to folder/<kind>.bin."""
    from amrgen import cli, seq2seq

    settings, config = memorize_fixture()
    examples = cli.load_examples(os.path.join(inputs, "toy10.jsonl"))
    os.makedirs(folder, exist_ok=True)
    for kind in KINDS:
        checkpoint, log = seq2seq.train(examples, examples, config(kind), seed=MEMORIZE_SEED,
                                        settings=settings)
        path = os.path.join(folder, f"{kind}.bin")
        checkpoint.save(path + ".tmp")
        os.replace(path + ".tmp", path)
        print(f"{kind}: dev BLEU {checkpoint.meta['dev_bleu']:.2f} after {len(log)} epochs",
              file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--prepare", metavar="DIR",
                        help="train the decode checkpoints into DIR and exit")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs")
    parser.add_argument("--checkpoints")
    parser.add_argument("--work")
    parser.add_argument("--out")
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--import-only", action="store_true",
                        help="import the package, print the seconds since --spawned, exit")
    args = parser.parse_args(argv)
    if args.import_only:
        print(repr(import_program(args.spawned)))
        return
    if args.prepare:
        prepare_checkpoints(args.prepare, args.inputs)
        return
    needed = ("workload", "seed", "seconds", "inputs", "checkpoints", "work", "out", "spawned")
    missing = [name for name in needed if getattr(args, name) is None]
    if missing:
        parser.error(f"missing --{' --'.join(missing)}")
    os.makedirs(args.work, exist_ok=True)
    result = run(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
