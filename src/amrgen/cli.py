"""Command-line entry point: preprocess, train, generate, evaluate,
analyze, contrastive.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numeric failure.
train writes a manifest (config, seed, sha256 of each input file) next to
its checkpoint so results can be reproduced.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import zipfile
from collections import Counter
from contextlib import contextmanager

from . import __version__
from .amr import (GraphTooDeepError, PenmanParseError, compute_stats, iter_blocks, parse_block,
                  parse_penman, serialize_penman, validate)
from .encoders import INPUT_REPRS, KINDS, EncoderConfig
from .evaluation import (
    DEPENDENCY_BUCKETS,
    REENTRANCY_BUCKETS,
    ContrastivePair,
    bucket_report,
    bucket_spans,
    check_bucket_edges,
    contrastive_eval,
    corpus_bleu,
    format_bucket_table,
    sentence_metric,
)
from .seq2seq import (
    Checkpoint,
    NumericError,
    TrainExample,
    TrainSettings,
    check_seed,
    generate_all,
    train,
    write_log,
)
from .transforms import (
    AnonymizationPolicy,
    anonymize,
    anonymize_sentence,
    linearize,
    prepare_example,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors (a bad value, a missing required flag,
    an unknown command or flag) raise ConfigError, which main reports in one
    line, instead of printing the usage and exiting."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@contextmanager
def _text_input(path):
    """An open UTF-8 text file; text that is not UTF-8 is a DataError naming
    the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text ({err})") from None


def _hash_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir, command, config, seed, inputs):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {os.path.basename(p): _hash_file(p) for p in inputs if os.path.isfile(p)},
        "version": __version__,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


# --------------------------------------------------------------------------
# Preprocessing


def _collect_penman_files(path):
    if os.path.isfile(path):
        return [path]
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, name)
            for name in os.listdir(path)
            if name.endswith((".amr", ".txt", ".penman"))
        )
        if not files:
            raise DataError(f"no PENMAN files found in {path!r}")
        return files
    raise DataError(f"no such file or directory: {path!r}")


def preprocess_corpus(input_path, anonymize_flag=False, threshold=AnonymizationPolicy.threshold,
                      log=lambda m: None):
    """Parse, transform and serialize a PENMAN corpus into JSONL records.

    A block that does not parse, a graph that is invalid and one too deep to
    traverse are skipped, each with one logged line. With none left, the
    DataError names the first one skipped instead.

    Returns (records, skipped count, stats list).
    """
    files = _collect_penman_files(input_path)
    examples, skips = [], []  # skips: why each block left out was left out
    counter = 0
    for path in files:
        with _text_input(path) as handle:
            text = handle.read()
        for block in iter_blocks(text):
            counter += 1
            try:
                example = parse_block(block, default_id=f"example-{counter}")
            except PenmanParseError as err:
                skips.append(f"malformed block {counter}: {err}")
                continue
            problems = validate(example.graph)
            if problems:
                skips.append(f"invalid graph {example.id}: {problems[0].detail}")
                continue
            try:  # the traversal that every record reads, before any label counts
                linearize(example.graph)
            except GraphTooDeepError as err:
                skips.append(f"graph {example.id}: {err}")
                continue
            examples.append(example)
    if not examples:
        first = f"; skipped {len(skips)}, the first: {skips[0]}" if skips else ""
        raise DataError(f"no parseable examples in {input_path!r}{first}")
    for reason in skips:
        log(f"skipping {reason}")

    policy = None
    if anonymize_flag:
        frequencies = Counter()
        for example in examples:
            frequencies.update(label for _, label in example.graph.nodes)
        policy = AnonymizationPolicy(frequencies=dict(frequencies), threshold=threshold)

    records = []
    stats_list = []
    for example in examples:
        graph = example.graph
        anon_map = ()
        if policy is not None:
            graph, anon_map = anonymize(graph, policy)
        stats = compute_stats(graph)
        stats_list.append(stats)
        records.append(
            {
                "id": example.id,
                "penman": serialize_penman(graph),
                "tokens": list(linearize(graph).tokens),  # for the source vocabulary file
                "sentence": list(example.sentence),
                "anon_map": [list(m) for m in anon_map],
                "stats": stats.to_dict(),
            }
        )
    return records, len(skips), stats_list


def _jsonl_records(path):
    """The line number and record of each non-blank line of a JSONL file;
    invalid JSON, or a record that is not an object with a string id, is a
    DataError naming the file and line."""
    with _text_input(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataError(f"{path}:{line_no}: invalid JSON ({err})") from None
            if not (isinstance(record, dict) and isinstance(record.get("id"), str)):
                raise DataError(f"{path}:{line_no}: a record needs a string id")
            yield line_no, record


def load_examples(jsonl_path):
    """Rebuild TrainExamples from a preprocessed JSONL file."""
    examples = []
    for line_no, record in _jsonl_records(jsonl_path):
        if not isinstance(record.get("penman"), str):
            raise DataError(f"{jsonl_path}:{line_no}: a record needs a string penman")
        sentence, anon_map = record.get("sentence", []), record.get("anon_map", [])
        if not (isinstance(sentence, list) and all(isinstance(w, str) for w in sentence)):
            raise DataError(f"{jsonl_path}:{line_no}: sentence must be a list of strings")
        if not (isinstance(anon_map, list) and all(
                isinstance(m, list) and len(m) == 2 and all(isinstance(w, str) for w in m)
                for m in anon_map)):
            raise DataError(f"{jsonl_path}:{line_no}: anon_map must be a list of string pairs")
        try:
            example = prepare_example(parse_penman(record["penman"]))
        except (PenmanParseError, GraphTooDeepError) as err:
            raise DataError(f"{jsonl_path}:{line_no}: {err}") from None
        sentence, anon_map = tuple(sentence), tuple(tuple(m) for m in anon_map)
        examples.append(
            TrainExample(
                id=record["id"],
                repr=example,
                target=tuple(anonymize_sentence(sentence, anon_map)),
                reference=sentence,
                anon_map=anon_map,
            )
        )
    if not examples:
        raise DataError(f"no examples in {jsonl_path!r}")
    return examples


def _histogram(values, edges):
    """The count of values in each of bucket_report's rows, so the counts sum
    to the number of values."""
    rows = []
    for label, lo, hi, always in bucket_spans(edges):
        count = sum(1 for v in values if lo <= v <= hi)
        if count or always:
            rows.append({"bucket": label, "count": count})
    return rows


def cmd_preprocess(args):
    if args.rare_threshold < 0:
        raise ConfigError(f"--rare-threshold must be >= 0 (0 makes no concept rare), got "
                          f"{args.rare_threshold}")
    records, skipped, stats_list = preprocess_corpus(
        args.input, anonymize_flag=args.anonymize, threshold=args.rare_threshold,
        log=lambda m: print(m, file=sys.stderr),
    )
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    token_counts = Counter()
    word_counts = Counter()
    for record in records:
        token_counts.update(record["tokens"])
        word_counts.update(anonymize_sentence(record["sentence"], record["anon_map"]))
    base, _ = os.path.splitext(args.out)
    for suffix, counts in (("src", token_counts), ("tgt", word_counts)):
        with open(f"{base}.vocab.{suffix}", "w", encoding="utf-8") as handle:
            for token, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
                handle.write(f"{token}\t{count}\n")
    summary = {
        "examples": len(records),
        "skipped": skipped,
        "reentrancy_histogram": _histogram(
            [s.reentrancy_count for s in stats_list], REENTRANCY_BUCKETS
        ),
        "dependency_histogram": _histogram(
            [s.max_dependency_length for s in stats_list], DEPENDENCY_BUCKETS
        ),
    }
    with open(f"{base}.stats.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(records)} examples ({skipped} skipped) to {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# Model commands


def _encoder_config(args) -> EncoderConfig:
    try:
        return EncoderConfig(
            kind=args.model,
            input_repr=args.repr or "",
            embedding_dim=args.embedding_dim,
            hidden_dim=args.hidden_dim,
            gcn_layers=args.gcn_layers,
            dropout=args.dropout,
            edge_dropout=args.edge_dropout,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None


def cmd_train(args):
    config = _encoder_config(args)
    try:
        settings = TrainSettings(
            lr=args.lr,
            batch_size=args.batch_size,
            max_epochs=args.epochs,
            patience=args.patience,
        )
        check_seed(args.seed)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    examples = load_examples(args.data)
    dev = load_examples(args.dev) if args.dev else examples
    top = os.path.abspath(args.out)  # the nearest of --out and its ancestors that exists
    while not os.path.exists(top):
        top = os.path.dirname(top)
    if not (os.path.isdir(top) and os.access(top, os.W_OK)):  # then it fails, making nothing
        os.makedirs(args.out, exist_ok=True)
    checkpoint, log = train(
        examples,
        dev,
        config,
        seed=args.seed,
        settings=settings,
        log_sink=lambda m: print(m, file=sys.stderr),
    )
    os.makedirs(args.out, exist_ok=True)  # only now, so that a failed run leaves none
    checkpoint.save(os.path.join(args.out, "checkpoint.bin"))
    write_log(os.path.join(args.out, "train_log.jsonl"), log)
    _write_manifest(
        args.out,
        "train",
        {"encoder": config.to_dict(), "settings": settings.__dict__},
        args.seed,
        [args.data] + ([args.dev] if args.dev else []),
    )
    best = checkpoint.meta["dev_bleu"]
    print(f"best dev BLEU {best:.2f} at epoch {checkpoint.meta['epoch']}")
    return EXIT_OK


def _load_model(path):
    try:
        return Checkpoint.load(path).build_model()
    except (zipfile.BadZipFile, KeyError, ValueError) as err:
        raise DataError(f"{path}: not a valid checkpoint ({err})") from None


def _check_beam(beam):
    if beam < 1:
        raise ConfigError(f"--beam must be >= 1 (1 is greedy decoding), got {beam}")


def cmd_generate(args):
    _check_beam(args.beam)
    model = _load_model(args.ckpt)
    examples = load_examples(args.data)
    lines = []
    # generate_all yields as it decodes, so each warning prints between examples
    for ex, (tokens, truncated) in zip(examples, generate_all(model, examples, beam=args.beam)):
        if truncated:
            print(f"warning: {ex.id}: output truncated at length limit", file=sys.stderr)
        lines.append(" ".join(tokens))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _read_hypotheses(path):
    """One hypothesis per line. A line ends only at "\n", as in a corpus file:
    universal newlines have already folded "\r\n" and "\r"."""
    with _text_input(path) as handle:
        lines = handle.read().split("\n")
    if lines[-1] == "":  # the newline that ends the last line, or an empty file
        lines.pop()
    return [line.strip().lower().split() for line in lines]


def _references(examples):
    """Each example's reference tokens, which sentence-level scores need."""
    for ex in examples:
        if not ex.reference:
            raise DataError(f"example {ex.id!r} has an empty reference sentence")
    return [list(ex.reference) for ex in examples]


def cmd_evaluate(args):
    if bool(args.hyp) == bool(args.ckpt):
        raise ConfigError("evaluate needs --hyp or --ckpt, not both")
    _check_beam(args.beam)
    examples = load_examples(args.data)
    references = _references(examples)
    if args.hyp:
        hypotheses = _read_hypotheses(args.hyp)
    else:
        model = _load_model(args.ckpt)
        hypotheses = [tokens for tokens, _ in generate_all(model, examples, beam=args.beam)]
    if len(hypotheses) != len(references):
        raise DataError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    report = {
        "corpus_bleu": round(corpus_bleu(hypotheses, references), 4),
        "sentence_metric_mean": round(
            sum(sentence_metric(h, r) for h, r in zip(hypotheses, references))
            / len(references),
            4,
        ),
        "examples": len(references),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def _bucket_edges(spec):
    """The (lo, hi) edges of a --buckets spec such as 0-0,1-5,6-20, where a
    part that is one number n is the bucket n-n."""
    try:
        parts = [part.partition("-") for part in spec.split(",")]
        return check_bucket_edges((int(lo), int(hi if dash else lo)) for lo, dash, hi in parts)
    except ValueError as err:
        raise ConfigError(f"bad bucket spec {spec!r}: {err}") from None


def cmd_analyze(args):
    edges = _bucket_edges(args.buckets) if args.buckets else None
    systems = {}
    for spec in args.outputs:
        name, _, path = spec.partition("=")
        if not path:
            raise ConfigError(f"--outputs entries must be NAME=PATH, got {spec!r}")
        if name in systems:
            raise ConfigError(f"--outputs names the system {name!r} twice")
        systems[name] = path
    examples = load_examples(args.data)
    references = _references(examples)
    stats = [compute_stats(ex.repr.graph).to_dict() for ex in examples]
    scores = {}
    for name, path in systems.items():
        hyps = _read_hypotheses(path)
        if len(hyps) != len(references):
            raise DataError(f"{path}: {len(hyps)} hypotheses vs {len(references)} references")
        scores[name] = [sentence_metric(h, r) for h, r in zip(hyps, references)]
    rows = bucket_report(scores, stats, bucketing=args.bucket_by, edges=edges)
    print(format_bucket_table(rows, args.bucket_by, baseline=list(scores)[0]))
    return EXIT_OK


def load_pairs(path):
    pairs = []
    for line_no, record in _jsonl_records(path):
        try:
            reference, contrastive = record["reference"], record["contrastive"]
            if not all(isinstance(s, list) and all(isinstance(w, str) for w in s)
                       for s in (reference, contrastive)):
                raise ValueError("reference and contrastive must be lists of strings")
            pairs.append(
                ContrastivePair(
                    id=record["id"],
                    reference=tuple(reference),
                    contrastive=tuple(contrastive),
                    category=record["category"],
                )
            )
        except (KeyError, ValueError) as err:
            raise DataError(f"{path}:{line_no}: bad contrastive pair ({err})") from None
    return pairs


def cmd_contrastive(args):
    model = _load_model(args.ckpt)
    examples = {ex.id: ex for ex in load_examples(args.data)}
    pairs = load_pairs(args.pairs)
    results, skipped = contrastive_eval(model.score_sentence, pairs, examples.get)
    report = {
        category: {"count": r.count, "accuracy": round(r.accuracy, 2)}
        for category, r in results.items()
    }
    report["skipped"] = skipped
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing


def _apply_config_file(parser, argv):
    """JSON config file supplies defaults; explicit flags win.

    Defaults apply to the invoked subcommand, so the file can carry options
    like epochs or hidden_dim.
    """
    probe = _Parser(prog="amrgen", add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    try:
        with open(known.config, encoding="utf-8") as handle:
            defaults = json.load(handle)
    except (OSError, ValueError) as err:  # JSON and UTF-8 decoding errors are ValueErrors
        raise ConfigError(f"cannot read config file {known.config!r}: {err}") from None
    if not isinstance(defaults, dict):
        raise ConfigError(f"config file {known.config!r} must hold a JSON object")
    targets = [parser]
    subcommand = argv[0] if argv and not argv[0].startswith("-") else None
    if subcommand is not None and parser._subparsers is not None:
        for action in parser._subparsers._group_actions:
            if isinstance(action.choices, dict) and subcommand in action.choices:
                targets.append(action.choices[subcommand])
    actions = {action.dest: action for target in targets for action in target._actions
               if action.dest not in ("help", "command", "config")}
    unknown = set(defaults) - set(actions)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in defaults.items():
        _check_config_value(actions[key], value)
        actions[key].required = False  # the file's value satisfies a required flag
    for target in targets:
        dests = {action.dest for action in target._actions}
        target.set_defaults(**{k: v for k, v in defaults.items() if k in dests})


def _check_config_value(action, value):
    """Raise a ConfigError unless value has a JSON type that its flag takes
    and lies within the flag's choices; a flag that takes several values
    takes a non-empty list of them. null keeps a default of None, but does
    not satisfy a required flag."""
    if value is None and action.default is None and not action.required:
        return
    if isinstance(action, argparse._StoreTrueAction):
        types = (bool,)
    else:
        types = {int: (int,), float: (int, float)}.get(action.type, (str,))
    items = [value]
    if action.nargs == "+":
        if type(value) is not list or not value:
            raise ConfigError(f"config key {action.dest!r} must be a non-empty list, "
                              f"got {value!r}")
        items = value
    for item in items:
        if type(item) not in types or action.choices is not None and item not in action.choices:
            wanted = " or ".join(t.__name__ for t in types)
            if action.choices is not None:
                wanted += f" in {sorted(action.choices)}"
            raise ConfigError(f"config key {action.dest!r} must be {wanted}, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="amrgen",
        description="AMR-to-text structural encoding: preprocessing, training, "
        "generation and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", choices=KINDS, default=EncoderConfig.kind)
        reprs = sorted({r for kind_reprs in INPUT_REPRS.values() for r in kind_reprs})
        p.add_argument("--repr", choices=reprs, default=None)
        p.add_argument("--embedding-dim", type=int, default=EncoderConfig.embedding_dim)
        p.add_argument("--hidden-dim", type=int, default=EncoderConfig.hidden_dim)
        p.add_argument("--gcn-layers", type=int, default=EncoderConfig.gcn_layers)
        p.add_argument("--dropout", type=float, default=EncoderConfig.dropout)
        p.add_argument("--edge-dropout", type=float, default=EncoderConfig.edge_dropout)

    p = sub.add_parser("preprocess", help="PENMAN corpus -> JSONL + vocab + stats")
    p.add_argument("--input", required=True, help="PENMAN file or directory")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--anonymize", action="store_true")
    p.add_argument("--rare-threshold", type=int, default=AnonymizationPolicy.threshold)
    p.add_argument("--config")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model on preprocessed data")
    p.add_argument("--data", required=True)
    p.add_argument("--dev")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=TrainSettings.lr)
    p.add_argument("--batch-size", type=int, default=TrainSettings.batch_size)
    p.add_argument("--epochs", type=int, default=TrainSettings.max_epochs)
    p.add_argument("--patience", type=int, default=TrainSettings.patience)
    add_model_flags(p)
    p.add_argument("--config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode sentences from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="BLEU / sentence metric of outputs")
    p.add_argument("--data", required=True)
    p.add_argument("--hyp", help="hypothesis file, one sentence per line")
    p.add_argument("--ckpt", help="decode with this checkpoint instead of --hyp")
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--config")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="bucketed deltas across system outputs")
    p.add_argument("--data", required=True)
    p.add_argument("--outputs", nargs="+", required=True, metavar="NAME=PATH")
    p.add_argument("--bucket-by", choices=("reentrancies", "max_dep_len"),
                   default="reentrancies")
    p.add_argument("--buckets", help="comma-separated lo-hi ranges, e.g. 0-0,1-5,6-20")
    p.add_argument("--config")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("contrastive", help="contrastive-pair accuracy of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--pairs", required=True, help="JSONL contrastive pairs")
    p.add_argument("--config")
    p.set_defaults(func=cmd_contrastive)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit as done:  # after --help; argument errors raise ConfigError
            return done.code
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, PenmanParseError, OSError, UnicodeDecodeError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as err:  # the dims, --batch-size and --beam ask for the memory
        print(f"configuration error: out of memory ({err}); lower the dims, --batch-size "
              "or --beam", file=sys.stderr)
        return EXIT_CONFIG


def console_main():  # console_scripts entry point
    sys.exit(main())


if __name__ == "__main__":
    console_main()
