"""End-to-end CLI behavior: commands, artifacts, exit codes."""
import hashlib
import json
import os
import subprocess
import sys
import zipfile
from collections import Counter
from pathlib import Path

import pytest

import amrgen
from amrgen import cli
from amrgen.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, build_parser, load_examples, main
from amrgen.encoders import EncoderConfig
from amrgen.seq2seq import TrainSettings
from amrgen.tensor import load_arrays, save_arrays
from amrgen.transforms import AnonymizationPolicy

TOY = Path(__file__).parent.parent / "src" / "amrgen" / "data" / "toy_corpus.txt"

GOOD_BLOCK = "# ::id ok-1\n# ::snt the boy sleeps at night\n(s / sleep-01 :arg0 (b / boy))\n"
BAD_BLOCK = "# ::id bad-1\n# ::snt broken\n(s / sleep-01 :arg0 (b / boy)\n"


@pytest.fixture()
def toy_jsonl(tmp_path):
    out = tmp_path / "toy.jsonl"
    code = main(["preprocess", "--input", str(TOY), "--out", str(out)])
    assert code == EXIT_OK
    return out


@pytest.fixture()
def small_jsonl(tmp_path):
    src = tmp_path / "small.amr"
    src.write_text(GOOD_BLOCK + "\n" + "# ::id ok-2\n# ::snt a dog runs in paris\n(r / run-02 :arg0 (d / dog))\n")
    out = tmp_path / "small.jsonl"
    assert main(["preprocess", "--input", str(src), "--out", str(out)]) == EXIT_OK
    return out


def train_quick(jsonl, out_dir, seed="0", extra=()):
    return main(
        [
            "train", "--data", str(jsonl), "--out", str(out_dir),
            "--seed", seed, "--epochs", "2", "--batch-size", "4",
            "--embedding-dim", "8", "--hidden-dim", "8", "--dropout", "0.0",
            "--edge-dropout", "0.0", *extra,
        ]
    )


# --------------------------------------------------------------------------
# preprocess


def test_preprocess_artifacts(toy_jsonl, capsys):
    records = [json.loads(l) for l in toy_jsonl.read_text().splitlines()]
    assert len(records) == 60
    first = records[0]
    assert set(first) == {"id", "penman", "tokens", "sentence", "anon_map", "stats"}
    assert first["stats"].keys() == {"reentrancies", "max_dep_len", "nodes", "edges"}
    base = str(toy_jsonl)[: -len(".jsonl")]
    assert Path(base + ".vocab.src").exists()
    assert Path(base + ".vocab.tgt").exists()
    stats = json.loads(Path(base + ".stats.json").read_text())
    assert stats["examples"] == 60
    assert stats["skipped"] == 0
    assert {b["bucket"] for b in stats["reentrancy_histogram"]} == {"0", "1-5", "6-20"}


def test_preprocess_histograms_count_every_example(tmp_path, capsys):
    # x is reached through 23 edges, 22 reentrancies: above the last default edge
    edges = " ".join(f":op{i} x" for i in range(2, 24))
    src = tmp_path / "reentrant.amr"
    src.write_text(GOOD_BLOCK + f"\n# ::id r-1\n# ::snt many\n(a / and :op1 (x / thing) {edges})\n")
    out = tmp_path / "reentrant.jsonl"
    assert main(["preprocess", "--input", str(src), "--out", str(out)]) == EXIT_OK
    stats = json.loads((tmp_path / "reentrant.stats.json").read_text())
    assert stats["examples"] == 2
    assert stats["reentrancy_histogram"] == [
        {"bucket": "0", "count": 1}, {"bucket": "1-5", "count": 0},
        {"bucket": "6-20", "count": 0}, {"bucket": ">20", "count": 1}]
    assert sum(row["count"] for row in stats["dependency_histogram"]) == 2


def test_preprocess_skips_malformed(tmp_path, capsys):
    src = tmp_path / "mixed.amr"
    src.write_text(GOOD_BLOCK + "\n" + BAD_BLOCK)
    out = tmp_path / "mixed.jsonl"
    assert main(["preprocess", "--input", str(src), "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "skipping malformed block" in captured.err
    assert "1 skipped" in captured.out
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["id"] for r in records] == ["ok-1"]


def test_preprocess_anonymize_records_map(tmp_path):
    src = tmp_path / "names.amr"
    src.write_text(
        '# ::id n-1\n# ::snt john went to london\n'
        '(g / go-02 :arg0 (p / person :name (n / name :op1 "John"))'
        ' :arg4 (c / city :name (n2 / name :op1 "London")))\n'
    )
    out = tmp_path / "names.jsonl"
    assert main(["preprocess", "--input", str(src), "--out", str(out), "--anonymize", "--rare-threshold", "1"]) == EXIT_OK
    record = json.loads(out.read_text().splitlines()[0])
    mapping = dict(map(tuple, record["anon_map"]))
    assert set(mapping.values()) == {"John", "London"}
    assert any(k.startswith("person_name_") for k in mapping)
    assert any(k.startswith("location_name_") for k in mapping)


def _vocab_counts(path):
    with open(path, encoding="utf-8") as handle:
        return {token: int(count) for token, count in (line.rstrip("\n").split("\t")
                                                       for line in handle)}


@pytest.mark.parametrize("anonymize", [[], ["--anonymize", "--rare-threshold", "2"]],
                         ids=["plain", "anonymized"])
def test_preprocess_target_vocab_counts_the_targets_that_training_reads(tmp_path, anonymize):
    out = tmp_path / "toy.jsonl"
    assert main(["preprocess", "--input", str(TOY), "--out", str(out), *anonymize]) == EXIT_OK
    examples = load_examples(out)
    targets = Counter(token for ex in examples for token in ex.target)
    assert _vocab_counts(tmp_path / "toy.vocab.tgt") == targets
    # anonymized targets hold placeholders, which no reference holds
    assert bool(set(targets) - {w for ex in examples for w in ex.reference}) == bool(anonymize)


def test_preprocess_missing_input_is_data_error(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    assert main(["preprocess", "--input", str(tmp_path / "none.amr"), "--out", str(out)]) == EXIT_DATA


def test_preprocess_empty_dir_is_data_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["preprocess", "--input", str(empty), "--out", str(tmp_path / "x.jsonl")]) == EXIT_DATA


def test_load_examples_roundtrip(small_jsonl):
    examples = load_examples(small_jsonl)
    assert [ex.id for ex in examples] == ["ok-1", "ok-2"]
    assert examples[0].reference == ("the", "boy", "sleeps", "at", "night")
    assert examples[0].repr.sequence.tokens == ("sleep-01", ":arg0", "boy")


# --------------------------------------------------------------------------
# train


def test_train_writes_artifacts(small_jsonl, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert train_quick(small_jsonl, out_dir) == EXIT_OK
    assert (out_dir / "checkpoint.bin").exists()
    log_lines = (out_dir / "train_log.jsonl").read_text().splitlines()
    assert len(log_lines) == 2
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 0
    assert manifest["config"]["encoder"]["kind"] == "Seq"
    assert "small.jsonl" in manifest["inputs"]
    assert len(manifest["inputs"]["small.jsonl"]) == 64  # sha256 hex
    assert "best dev BLEU" in capsys.readouterr().out


def test_train_deterministic_across_runs(small_jsonl, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert train_quick(small_jsonl, a, seed="7") == EXIT_OK
    assert train_quick(small_jsonl, b, seed="7") == EXIT_OK
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
    assert (a / "train_log.jsonl").read_bytes() == (b / "train_log.jsonl").read_bytes()


def test_train_bad_model_flag_is_config_error(small_jsonl, tmp_path, capsys):
    code = main(
        ["train", "--data", str(small_jsonl), "--out", str(tmp_path / "x"),
         "--model", "Seq", "--repr", "graph"]
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--batch-size", "0"),
        ("--dropout", "1.0"),
        ("--hidden-dim", "0"),
        ("--embedding-dim", "0"),
        ("--edge-dropout", "-0.1"),
        ("--epochs", "0"),
        ("--patience", "0"),
        ("--lr", "0"),
        ("--lr", "inf"),
        ("--lr", "nan"),
        ("--gcn-layers", "0"),
        ("--gcn-layers", "-2"),
        ("--seed", "-1"),
    ],
)
def test_train_bad_setting_is_config_error(flag, value, small_jsonl, tmp_path, capsys):
    out_dir = tmp_path / "x"
    code = main(["train", "--data", str(small_jsonl), "--out", str(out_dir), flag, value])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:"), err
    assert not out_dir.exists()


def test_train_out_of_memory_is_config_error(toy_jsonl, tmp_path, capsys, monkeypatch):
    # numpy refuses a 225 TiB embedding table at once, allocating nothing
    out_dir = tmp_path / "x" / "y"
    code = main(["train", "--data", str(toy_jsonl), "--out", str(out_dir),
                 "--embedding-dim", "100000000000"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: out of memory"), err
    assert not (tmp_path / "x").exists()  # a failed run leaves no directory it made
    # an --out that is a file, or lies below one, fails before any training
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("training ran"))
    out_file = tmp_path / "file"
    out_file.write_text("kept")
    assert main(["train", "--data", str(toy_jsonl), "--out", str(out_file)]) == EXIT_DATA
    assert_one_line_error(capsys, f"data error: [Errno 17] File exists: {str(out_file)!r}")
    assert main(["train", "--data", str(toy_jsonl), "--out", str(out_file / "y")]) == EXIT_DATA
    assert_one_line_error(capsys, "data error: [Errno 20] Not a directory")
    assert out_file.read_text() == "kept"


@pytest.mark.parametrize("module", ["amrgen", "amrgen.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    path = [str(Path(amrgen.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out_dir = tmp_path / "y"
    done = subprocess.run(
        [sys.executable, "-m", module, "train", "--data", str(tmp_path / "x"),
         "--out", str(out_dir), "--seed", "-1"],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == EXIT_CONFIG
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:"), err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--data", "x", "--out", "y", "--epochs", "x"],
        ["train", "--data", "x", "--out", "y", "--dropout", "half"],
        ["train", "--data", "x"],
        ["analyze", "--data", "x"],
        ["train", "--data", "x", "--out", "y", "--no-such-flag", "1"],
        ["train", "--data", "x", "--out", "y", "--model", "LSTM"],
        ["frobnicate"],
        [],
        ["train", "--data", "x", "--out", "y", "--config"],
    ],
    ids=["bad-int", "bad-float", "missing-out", "missing-outputs", "unknown-flag", "bad-choice",
         "unknown-command", "no-command", "config-without-path"],
)
def test_argument_error_is_one_line_config_error(argv, tmp_path, capsys):
    assert main(argv) == EXIT_CONFIG
    assert_one_line_error(capsys, "configuration error: amrgen")
    assert not (tmp_path / "y").exists()


@pytest.mark.parametrize("argv", [["--help"], ["-h"]] + [
    [command, "--help"] for command in
    ("preprocess", "train", "generate", "evaluate", "analyze", "contrastive")], ids=" ".join)
def test_help_returns_exit_ok(argv, capsys):
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: amrgen") and captured.err == ""


def test_train_missing_data_is_data_error(tmp_path):
    code = main(["train", "--data", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "x")])
    assert code == EXIT_DATA


def assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err


@pytest.mark.parametrize(
    "record", [{"id": "x-1", "sentence": ["a", "dog"]}, {"id": "x-1", "penman": 5}, ["x-1"]]
)
def test_record_without_penman_is_data_error(record, tmp_path, capsys):
    data = tmp_path / "bad.jsonl"
    data.write_text(json.dumps(record) + "\n")
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "x")]) == EXIT_DATA
    assert_one_line_error(capsys, "data error:")


PENMAN = "(s / sleep-01 :arg0 (b / boy))"


@pytest.mark.parametrize(
    "fields",
    [
        {"sentence": 7},
        {"sentence": "the boy sleeps"},
        {"sentence": ["the", 7]},
        {"anon_map": 7},
        {"anon_map": [["boy"]]},
        {"anon_map": [["boy", 7]]},
        {"anon_map": ["bo"]},
        {"id": ["x-1"]},
        {"id": None},
    ],
)
def test_record_field_of_wrong_type_is_data_error(fields, tmp_path, capsys):
    data = tmp_path / "bad.jsonl"
    data.write_text(json.dumps({"id": "x-1", "penman": PENMAN, **fields}) + "\n")
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "x")]) == EXIT_DATA
    assert_one_line_error(capsys, "data error:")


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_unparsable_penman_names_its_file_and_line(command, small_jsonl, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    good = json.dumps({"id": "x-1", "penman": PENMAN, "sentence": ["the", "boy", "sleeps"]})
    bad.write_text(good + "\n" + json.dumps({"id": "x-2", "penman": "(s / sleep-01"}) + "\n")
    if command == "train":  # the training data loads, then the dev data fails
        argv = ["train", "--data", str(small_jsonl), "--dev", str(bad),
                "--out", str(tmp_path / "x")]
    else:
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("the boy sleeps\nthe boy sleeps\n")
        argv = ["evaluate", "--data", str(bad), "--hyp", str(hyp)]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: {bad}:2: unbalanced parentheses"), err


# Graphs too deep for the canonical traversal, which recurses once per node
# along a path from the root: 5000 is far past the recursion limit, wherever
# the walk starts.
DEEP = 5000


def nested_penman(depth):
    """A chain of depth + 1 nodes, each nested in the one before."""
    return "".join(f"(a{i} / x :arg0 " for i in range(depth)) + "(z / y)" + ")" * depth


def remention_penman(length):
    """A graph nested two deep whose re-mentions form a path of length nodes:
    each a_i re-mentions a_(i-1)."""
    children = " ".join(f":arg{i} (a{i} / x :arg0 a{i - 1})" for i in range(1, length))
    return f"(r / x :arg0 (a0 / x) {children})"


@pytest.mark.parametrize("penman", [nested_penman(DEEP), remention_penman(DEEP)],
                         ids=["nested", "remention-path"])
def test_graph_too_deep_to_traverse_names_its_file_and_line(penman, tmp_path, capsys):
    data = tmp_path / "deep.jsonl"
    good = json.dumps({"id": "x-1", "penman": PENMAN, "sentence": ["the", "boy", "sleeps"]})
    data.write_text(good + "\n" + json.dumps({"id": "x-2", "penman": penman}) + "\n")
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("the boy sleeps\nthe boy sleeps\n")
    assert main(["evaluate", "--data", str(data), "--hyp", str(hyp)]) == EXIT_DATA
    assert_one_line_error(capsys, f"data error: {data}:2: graph too deep to traverse")


DEEP_BLOCK = f"# ::id deep-1\n# ::snt deep\n{nested_penman(DEEP)}\n"


@pytest.mark.parametrize("block, reason", [(BAD_BLOCK, "malformed block 1: unbalanced"),
                                           (DEEP_BLOCK, "graph deep-1: graph too deep")],
                         ids=["malformed", "too-deep"])
def test_preprocess_with_every_block_skipped_is_one_line_data_error(block, reason, tmp_path,
                                                                   capsys):
    src, out = tmp_path / "bad.amr", tmp_path / "bad.jsonl"
    src.write_text(block)
    assert main(["preprocess", "--input", str(src), "--out", str(out)]) == EXIT_DATA
    assert_one_line_error(capsys, f"data error: no parseable examples in {str(src)!r}; "
                                  f"skipped 1, the first: {reason}")
    assert not out.exists()


def test_preprocess_skips_a_graph_too_deep_to_traverse(tmp_path, capsys):
    src, out = tmp_path / "mixed.amr", tmp_path / "mixed.jsonl"
    src.write_text(GOOD_BLOCK + "\n" + DEEP_BLOCK + "\n"
                   + "# ::id ok-2\n# ::snt a dog runs\n(r / run-02 :arg0 (d / dog))\n")
    assert main(["preprocess", "--input", str(src), "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("skipping graph deep-1: graph too deep"), err
    assert "wrote 2 examples (1 skipped)" in captured.out
    assert [json.loads(l)["id"] for l in out.read_text().splitlines()] == ["ok-1", "ok-2"]
    assert json.loads((tmp_path / "mixed.stats.json").read_text())["skipped"] == 1


def test_parser_defaults_are_the_dataclass_defaults():
    args = build_parser().parse_args(["train", "--data", "x", "--out", "y"])
    config, settings = EncoderConfig(), TrainSettings()
    assert (args.model, args.embedding_dim, args.hidden_dim, args.gcn_layers, args.dropout,
            args.edge_dropout) == (config.kind, config.embedding_dim, config.hidden_dim,
                                   config.gcn_layers, config.dropout, config.edge_dropout)
    assert (args.lr, args.batch_size, args.epochs, args.patience) == (
        settings.lr, settings.batch_size, settings.max_epochs, settings.patience)
    args = build_parser().parse_args(["preprocess", "--input", "x", "--out", "y"])
    assert args.rare_threshold == AnonymizationPolicy().threshold


# --------------------------------------------------------------------------
# generate / evaluate


@pytest.fixture()
def trained(small_jsonl, tmp_path):
    out_dir = tmp_path / "model"
    assert train_quick(small_jsonl, out_dir) == EXIT_OK
    return out_dir / "checkpoint.bin"


def test_generate_writes_hypotheses(trained, small_jsonl, tmp_path):
    hyp = tmp_path / "hyp.txt"
    code = main(
        ["generate", "--ckpt", str(trained), "--data", str(small_jsonl),
         "--beam", "1", "--out", str(hyp)]
    )
    assert code == EXIT_OK
    lines = hyp.read_text().splitlines()
    assert len(lines) == 2  # one line per example, possibly empty


def test_evaluate_with_hyp_file(small_jsonl, tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("the boy sleeps at night\na dog runs in paris\n")
    code = main(["evaluate", "--data", str(small_jsonl), "--hyp", str(hyp)])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["corpus_bleu"] == 100.0
    assert report["sentence_metric_mean"] == 100.0
    assert report["examples"] == 2


def test_evaluate_ends_a_hypothesis_line_only_at_newline(small_jsonl, tmp_path, capsys):
    # "\x85" and "\u2028" are whitespace inside a line, not line breaks
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("the boy\x85sleeps at night\na dog runs\u2028in paris\n", encoding="utf-8")
    assert main(["evaluate", "--data", str(small_jsonl), "--hyp", str(hyp)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["examples"] == 2
    assert report["corpus_bleu"] == 100.0


def test_evaluate_needs_hyp_or_ckpt(small_jsonl, capsys):
    assert main(["evaluate", "--data", str(small_jsonl)]) == EXIT_CONFIG
    assert "needs --hyp or --ckpt" in capsys.readouterr().err


def test_preprocess_negative_rare_threshold_is_config_error(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    argv = ["preprocess", "--input", str(TOY), "--out", str(out), "--anonymize"]
    assert main(argv + ["--rare-threshold", "-5"]) == EXIT_CONFIG
    assert_one_line_error(capsys, "configuration error:")
    assert not out.exists()
    assert main(argv + ["--rare-threshold", "0"]) == EXIT_OK  # 0: no concept is rare


def test_evaluate_takes_hyp_or_ckpt_not_both(small_jsonl, tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("the boy sleeps at night\na dog runs in paris\n")
    argv = ["evaluate", "--data", str(small_jsonl), "--hyp", str(hyp), "--ckpt", str(tmp_path)]
    assert main(argv) == EXIT_CONFIG
    assert_one_line_error(capsys, "configuration error:")


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_beam_below_one_is_config_error(command, trained, small_jsonl, capsys):
    code = main([command, "--ckpt", str(trained), "--data", str(small_jsonl), "--beam", "0"])
    assert code == EXIT_CONFIG
    assert_one_line_error(capsys, "configuration error:")


@pytest.mark.parametrize("damage", ["truncated", "tampered", "directory offset", "not a zip"])
@pytest.mark.parametrize("command", ["generate", "evaluate", "contrastive"])
def test_bad_checkpoint_is_data_error(command, damage, trained, small_jsonl, tmp_path, capsys):
    blob = trained.read_bytes()
    if damage == "truncated":
        blob = blob[: len(blob) // 2]
    elif damage == "tampered":
        middle = len(blob) // 2
        blob = blob[:middle] + bytes([blob[middle] ^ 0xFF]) + blob[middle + 1 :]
    elif damage == "directory offset":  # the central directory said to start one byte on
        offset = int.from_bytes(blob[-6:-2], "little") + 1
        blob = blob[:-6] + offset.to_bytes(4, "little") + blob[-2:]
    else:
        blob = b"not a checkpoint"
    trained.write_bytes(blob)
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("")
    extra = ["--pairs", str(pairs)] if command == "contrastive" else []
    code = main([command, "--ckpt", str(trained), "--data", str(small_jsonl), *extra])
    assert code == EXIT_DATA
    assert_one_line_error(capsys, "data error:")


def _rename_tgt_unk(manifest):
    manifest["tgt_vocab"][0] = "<oov>"


def _swap_bos_eos(manifest):
    vocab = manifest["tgt_vocab"]
    vocab[1], vocab[2] = vocab[2], vocab[1]


def _rename_src_unk(manifest):
    manifest["src_vocab"][0] = "<oov>"


def _repeat_a_token(manifest):
    manifest["tgt_vocab"][-1] = manifest["tgt_vocab"][-2]


@pytest.mark.parametrize(
    "damage", [_rename_tgt_unk, _swap_bos_eos, _rename_src_unk, _repeat_a_token],
    ids=["target unk renamed", "bos and eos swapped", "source unk renamed", "token repeated"],
)
@pytest.mark.parametrize("command", ["generate", "evaluate", "contrastive"])
def test_broken_checkpoint_vocabulary_is_data_error(command, damage, trained, small_jsonl,
                                                    tmp_path, capsys):
    # the arrays stay intact, so only the vocabulary check can catch these
    manifest, arrays = load_arrays(trained)
    damage(manifest)
    save_arrays(trained, manifest, arrays)
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("")
    extra = ["--pairs", str(pairs)] if command == "contrastive" else []
    code = main([command, "--ckpt", str(trained), "--data", str(small_jsonl), *extra])
    assert code == EXIT_DATA
    assert_one_line_error(capsys, "data error:")


def _config(key, value):
    return lambda manifest: {**manifest, "config": {**manifest["config"], key: value}}


@pytest.mark.parametrize(
    "damage, named",
    [(_config("embedding_dim", "4"), "embedding_dim"), (_config("dropout", "x"), "dropout"),
     (lambda manifest: {**manifest, "arrays": {**manifest["arrays"], "W_a": "ab"}}, "'W_a'"),
     (lambda manifest: [manifest], "manifest"),
     (lambda manifest: {**manifest, "arrays": list(manifest["arrays"])}, "arrays"),
     (lambda manifest: {**manifest, "config": [1]}, "config"),
     (_config("gcn_layers", 2.5), "gcn_layers"), (_config("highway", "yes"), "highway")],
    ids=["string dim", "string dropout", "string shape", "list manifest", "list arrays",
         "list config", "fractional gcn layers", "string highway"],
)
def test_damaged_checkpoint_manifest_is_data_error(damage, named, trained, small_jsonl, capsys):
    # save_arrays writes the arrays' shapes itself, so the manifest is rewritten in the zip
    with zipfile.ZipFile(trained) as archive:
        entries = {name: archive.read(name) for name in archive.namelist()}
    entries["manifest.json"] = json.dumps(damage(json.loads(entries["manifest.json"]))).encode()
    with zipfile.ZipFile(trained, "w") as archive:
        for name, payload in entries.items():
            archive.writestr(name, payload)
    assert main(["generate", "--ckpt", str(trained), "--data", str(small_jsonl)]) == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error:") and named in err[0], err


def test_evaluate_length_mismatch_is_data_error(small_jsonl, tmp_path):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("only one line\n")
    assert main(["evaluate", "--data", str(small_jsonl), "--hyp", str(hyp)]) == EXIT_DATA


@pytest.fixture()
def no_snt_jsonl(tmp_path):
    """A corpus whose second block has no # ::snt line, so its record's
    sentence is empty."""
    src = tmp_path / "no_snt.amr"
    src.write_text(GOOD_BLOCK + "\n# ::id no-snt\n(r / run-02 :arg0 (d / dog))\n")
    out = tmp_path / "no_snt.jsonl"
    assert main(["preprocess", "--input", str(src), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text().splitlines()[1])["sentence"] == []
    return out


@pytest.mark.parametrize("command", ["evaluate", "analyze"])
def test_empty_reference_is_data_error(command, no_snt_jsonl, tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("the boy sleeps at night\na dog runs\n")
    flag = ["--hyp", str(hyp)] if command == "evaluate" else ["--outputs", f"S={hyp}"]
    capsys.readouterr()
    assert main([command, "--data", str(no_snt_jsonl), *flag]) == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error:") and "no-snt" in err[0], err


def test_empty_reference_still_trains_and_generates(no_snt_jsonl, tmp_path, capsys):
    assert train_quick(no_snt_jsonl, tmp_path / "model") == EXIT_OK
    ckpt = tmp_path / "model" / "checkpoint.bin"
    assert main(["generate", "--ckpt", str(ckpt), "--data", str(no_snt_jsonl)]) == EXIT_OK


# --------------------------------------------------------------------------
# analyze


def _identity_outputs(toy_jsonl, tmp_path):
    refs = [json.loads(l)["sentence"] for l in toy_jsonl.read_text().splitlines()]
    hyp = tmp_path / "identity.txt"
    hyp.write_text("\n".join(" ".join(s) for s in refs) + "\n")
    return hyp


def test_analyze_bucket_table(toy_jsonl, tmp_path, capsys):
    hyp = _identity_outputs(toy_jsonl, tmp_path)
    code = main(
        ["analyze", "--data", str(toy_jsonl), "--outputs", f"identity={hyp}",
         "--bucket-by", "reentrancies"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "reentrancies" in out
    rows = [l.split("\t") for l in out.splitlines()[2:]]
    # identity output scores 100 in every non-empty bucket
    for cells in rows:
        if cells[1] != "0":
            assert cells[2] == "100.00"


def test_analyze_custom_buckets_and_dep_length(toy_jsonl, tmp_path, capsys):
    hyp = _identity_outputs(toy_jsonl, tmp_path)
    code = main(
        ["analyze", "--data", str(toy_jsonl), "--outputs", f"identity={hyp}",
         "--bucket-by", "max_dep_len", "--buckets", "0-3,4-250"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "max dependency length" in out
    labels = [l.split("\t")[0] for l in out.splitlines()[2:]]
    assert labels[:2] == ["0-3", "4-250"]


def test_analyze_bad_output_spec_is_config_error(toy_jsonl):
    assert main(["analyze", "--data", str(toy_jsonl), "--outputs", "nopath"]) == EXIT_CONFIG


def test_analyze_bad_buckets_is_config_error(toy_jsonl, tmp_path):
    hyp = tmp_path / "h.txt"
    hyp.write_text("\n".join(["x"] * 60) + "\n")
    code = main(
        ["analyze", "--data", str(toy_jsonl), "--outputs", f"h={hyp}", "--buckets", "a-b"]
    )
    assert code == EXIT_CONFIG


def test_analyze_values_below_the_first_bucket_get_their_own_row(toy_jsonl, tmp_path, capsys):
    hyp = _identity_outputs(toy_jsonl, tmp_path)
    code = main(["analyze", "--data", str(toy_jsonl), "--outputs", f"A={hyp}", "--buckets", "1-5"])
    assert code == EXIT_OK
    rows = [l.split("\t")[:2] for l in capsys.readouterr().out.splitlines()[2:]]
    assert rows == [["<1", "33"], ["1-5", "26"], [">5", "1"]]


@pytest.mark.parametrize("spec", ["0-3,2-8", "5-1", "1-2-3", "6-20,0-5", "0-3,3-8"])
def test_analyze_buckets_out_of_order_are_config_errors(spec, toy_jsonl, tmp_path, capsys):
    hyp = _identity_outputs(toy_jsonl, tmp_path)
    code = main(["analyze", "--data", str(toy_jsonl), "--outputs", f"A={hyp}", "--buckets", spec])
    assert code == EXIT_CONFIG
    assert_one_line_error(capsys, f"configuration error: bad bucket spec {spec!r}")


def test_analyze_repeated_system_name_is_config_error(toy_jsonl, tmp_path, capsys):
    hyp = _identity_outputs(toy_jsonl, tmp_path)
    code = main(["analyze", "--data", str(toy_jsonl), "--outputs", f"A={hyp}", f"A={hyp}"])
    assert code == EXIT_CONFIG
    assert_one_line_error(capsys, "configuration error: --outputs names the system 'A' twice")


# sha256 of the corpus path's outputs on the packaged toy corpus, so that a
# change to any of them is made on purpose: `preprocess --anonymize` files by
# suffix, and the `analyze` table of two outputs derived from the references
GOLDEN_SHA256 = {
    ".jsonl": "e5fc850726f922fc2fb82193c06aa58cdfd8032d8eac358642826e7a37fd94aa",
    ".vocab.src": "36655cdbc91136de42a65de5e53ead09324e17d895e8b5e545a0da206314bab2",
    ".vocab.tgt": "27e2f230119498eaf13fa8128c1c14dc9ab13578336419c09ef9a3d2baf74c68",
    ".stats.json": "2a87f2312a95edb6dcbcc1c7ba6586bc880c1e3481eeeae345f9173f0d2015d9",
    "analyze": "b8d54a77ca5298febbca9903b2e9dee1bf2cda6220d3fe5ece0feec81565e553",
}


def test_corpus_outputs_match_their_golden_hashes(tmp_path, capsys):
    out = tmp_path / "toy.jsonl"
    assert main(["preprocess", "--input", str(TOY), "--out", str(out), "--anonymize"]) == EXIT_OK
    for suffix in (".jsonl", ".vocab.src", ".vocab.tgt", ".stats.json"):
        digest = hashlib.sha256((tmp_path / f"toy{suffix}").read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[suffix], suffix
    refs = [json.loads(l)["sentence"] for l in out.read_text().splitlines()]
    dropped, reversed_ = tmp_path / "dropped.txt", tmp_path / "reversed.txt"
    dropped.write_text("".join(" ".join(w for i, w in enumerate(r) if i % 5 != 4) + "\n"
                               for r in refs))
    reversed_.write_text("".join(" ".join(reversed(r)) + "\n" for r in refs))
    capsys.readouterr()
    code = main(["analyze", "--data", str(out), "--outputs", f"A={dropped}", f"B={reversed_}"])
    assert code == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256["analyze"]


# --------------------------------------------------------------------------
# contrastive


def test_contrastive_command(trained, small_jsonl, tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        json.dumps(
            {"id": "ok-1", "reference": ["the", "boy", "sleeps", "at", "night"],
             "contrastive": ["the", "boys", "sleeps", "at", "night"], "category": "number"}
        )
        + "\n"
    )
    code = main(
        ["contrastive", "--ckpt", str(trained), "--data", str(small_jsonl),
         "--pairs", str(pairs)]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["number"]["count"] == 1
    assert report["skipped"] == 0


def test_contrastive_unknown_category_is_data_error(trained, small_jsonl, tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        json.dumps({"id": "ok-1", "reference": ["a"], "contrastive": ["b"], "category": "tense"})
        + "\n"
    )
    code = main(
        ["contrastive", "--ckpt", str(trained), "--data", str(small_jsonl), "--pairs", str(pairs)]
    )
    assert code == EXIT_DATA
    assert_one_line_error(capsys, "data error:")


@pytest.mark.parametrize(
    "fields",
    [
        {"reference": "the boy sleeps"},  # a string, not a list of words
        {"reference": ["the", 3]},
        {"contrastive": "the boys sleep"},
        {"contrastive": ["the", None, "sleep"]},
    ],
)
def test_contrastive_sentence_not_a_list_of_strings_is_data_error(fields, trained, small_jsonl,
                                                                  tmp_path, capsys):
    record = {"id": "ok-1", "reference": ["the", "boy", "sleeps"],
              "contrastive": ["the", "boys", "sleeps"], "category": "number", **fields}
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    code = main(
        ["contrastive", "--ckpt", str(trained), "--data", str(small_jsonl), "--pairs", str(pairs)]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error:") and "lists of strings" in err[0], err


@pytest.mark.parametrize("pair_id", [["toy-001"], None, 1])
def test_contrastive_pair_id_not_a_string_is_data_error(pair_id, trained, small_jsonl, tmp_path,
                                                        capsys):
    record = {"id": pair_id, "reference": ["a"], "contrastive": ["b"], "category": "number"}
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    code = main(
        ["contrastive", "--ckpt", str(trained), "--data", str(small_jsonl), "--pairs", str(pairs)]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error:") and "string id" in err[0], err


# --------------------------------------------------------------------------
# unreadable paths


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--data", "{dir}", "--out", "{tmp}/x"],
        ["generate", "--ckpt", "{dir}", "--data", "{data}"],
        ["evaluate", "--data", "{data}", "--hyp", "{dir}"],
        ["analyze", "--data", "{data}", "--outputs", "A={dir}"],
        ["contrastive", "--ckpt", "{ckpt}", "--data", "{data}", "--pairs", "{dir}"],
        ["train", "--data", "{latin1}", "--out", "{tmp}/x"],
        ["preprocess", "--input", "{latin1}", "--out", "{tmp}/x.jsonl"],
        ["evaluate", "--data", "{data}", "--hyp", "{latin1}"],
    ],
    ids=["train-dir", "generate-dir", "evaluate-dir", "analyze-dir", "contrastive-dir",
         "train-latin1", "preprocess-latin1", "evaluate-latin1"],
)
def test_unreadable_path_is_data_error(argv, trained, small_jsonl, tmp_path, capsys):
    # a directory where a file belongs, or a file that is not UTF-8
    (tmp_path / "a_dir").mkdir()
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("(c / caf\u00e9)\n".encode("latin-1"))
    paths = {"dir": tmp_path / "a_dir", "tmp": tmp_path, "data": small_jsonl, "ckpt": trained,
             "latin1": latin1}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == EXIT_DATA
    assert_one_line_error(capsys, "data error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["preprocess", "--input", "{latin1}", "--out", "{tmp}/x.jsonl"],
        ["train", "--data", "{latin1}", "--out", "{tmp}/x"],
        ["evaluate", "--data", "{data}", "--hyp", "{latin1}"],
        ["contrastive", "--ckpt", "{ckpt}", "--data", "{data}", "--pairs", "{latin1}"],
    ],
    ids=["penman-corpus", "examples-jsonl", "hypotheses", "contrastive-pairs"],
)
def test_non_utf8_input_is_named(argv, trained, small_jsonl, tmp_path, capsys):
    # every text reader names the file it could not decode
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes('{"id": "caf\u00e9"}\n'.encode("latin-1"))
    paths = {"tmp": tmp_path, "data": small_jsonl, "ckpt": trained, "latin1": latin1}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == EXIT_DATA
    assert_one_line_error(capsys, f"data error: {latin1}: not UTF-8 text")


# --------------------------------------------------------------------------
# config file handling


def test_config_file_supplies_defaults(small_jsonl, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "dropout": 0.0, "edge_dropout": 0.0,
                               "embedding_dim": 8, "hidden_dim": 8, "batch_size": 4}))
    out_dir = tmp_path / "run"
    code = main(
        ["train", "--data", str(small_jsonl), "--out", str(out_dir), "--config", str(cfg)]
    )
    assert code == EXIT_OK
    assert len((out_dir / "train_log.jsonl").read_text().splitlines()) == 1


def test_config_file_flag_overrides(small_jsonl, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 9, "dropout": 0.0, "edge_dropout": 0.0,
                               "embedding_dim": 8, "hidden_dim": 8, "batch_size": 4}))
    out_dir = tmp_path / "run"
    code = main(
        ["train", "--data", str(small_jsonl), "--out", str(out_dir),
         "--config", str(cfg), "--epochs", "1"]
    )
    assert code == EXIT_OK
    assert len((out_dir / "train_log.jsonl").read_text().splitlines()) == 1


def test_config_file_unknown_key_is_config_error(small_jsonl, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    code = main(["train", "--data", str(small_jsonl), "--out", str(tmp_path / "x"),
                 "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "unknown config keys" in capsys.readouterr().err


def test_config_file_bad_json_is_config_error(small_jsonl, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code = main(["train", "--data", str(small_jsonl), "--out", str(tmp_path / "x"),
                 "--config", str(cfg)])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("text", ["5", "[1, 2]", '"epochs"', "null"])
def test_config_file_not_an_object_is_config_error(text, small_jsonl, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code = main(["train", "--data", str(small_jsonl), "--out", str(tmp_path / "x"),
                 "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert_one_line_error(capsys, "configuration error:")


@pytest.mark.parametrize(
    "entry",
    [{"epochs": 2.5}, {"hidden_dim": 8.0}, {"batch_size": "4"}, {"dropout": "0.1"},
     {"seed": True}, {"dev": 5}],
    ids=lambda entry: next(iter(entry)),
)
def test_config_value_of_wrong_type_is_config_error(entry, small_jsonl, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"embedding_dim": 8, "hidden_dim": 8, "epochs": 1, **entry}))
    code = main(["train", "--data", str(small_jsonl), "--out", str(tmp_path / "x"),
                 "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert_one_line_error(capsys, f"configuration error: config key {next(iter(entry))!r}")


def test_config_file_not_utf8_is_config_error(small_jsonl, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes('{"model": "caf\u00e9"}'.encode("latin-1"))
    code = main(["train", "--data", str(small_jsonl), "--out", str(tmp_path / "x"),
                 "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert_one_line_error(capsys, f"configuration error: cannot read config file {str(cfg)!r}")


def test_config_value_outside_choices_is_config_error(toy_jsonl, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bucket_by": "length"}))
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("a\n" * 60)
    code = main(["analyze", "--data", str(toy_jsonl), "--outputs", f"A={hyp}",
                 "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert_one_line_error(capsys, "configuration error: config key 'bucket_by'")


@pytest.mark.parametrize("key", ["help", "command", "config"])
def test_config_key_that_is_not_a_flag_is_unknown(key, small_jsonl, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "train"}))
    code = main(["train", "--data", str(small_jsonl), "--out", str(tmp_path / "x"),
                 "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert_one_line_error(capsys, "configuration error: unknown config keys")


def test_config_value_satisfies_a_required_flag(toy_jsonl, tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("a\n" * 60)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"outputs": [f"A={hyp}"], "data": str(toy_jsonl)}))
    assert main(["analyze", "--config", str(cfg)]) == EXIT_OK
    assert "reentrancies" in capsys.readouterr().out


@pytest.mark.parametrize(
    "entry",
    [{"outputs": "A=hyp.txt"}, {"outputs": []}, {"outputs": None}, {"outputs": ["A=h", 3]},
     {"data": None}],
    ids=["string", "empty", "null", "non-string-item", "null-data"],
)
def test_config_value_that_cannot_satisfy_a_required_flag(entry, toy_jsonl, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    code = main(["analyze", "--data", str(toy_jsonl), "--outputs", "A=h.txt",
                 "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert_one_line_error(capsys, f"configuration error: config key {next(iter(entry))!r}")
