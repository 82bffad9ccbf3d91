"""The benchmark's own checks: seeded inputs repeat byte for byte, traced
counts repeat exactly, the toy tape-op counts match the ROADMAP Baseline,
BENCHMARK.json lists what the workloads report, and the benchmark refuses
to run without the program's sources.

    python3 -m pytest perfbench/test_bench.py

It runs every workload traced, twice; that takes about three minutes on two
cores, plus the one-off training of the decode checkpoints.
"""
import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SEED = 3
BASELINE_TAPE_OPS = {"Seq": 837, "GCNSeq": 870, "TreeLSTMSeq": 1392, "GCN": 420}


def is_count(name):
    return (name.endswith(".calls") or name.endswith("tape_ops_per_example")
            or name in ("seq2seq.decoder_steps", "seq2seq.decoder_steps_per_token"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def traced(workload):
    done = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (traced(w), traced(w)) for w in run.WORKLOADS}


def test_inputs_repeat_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    for workload in run.WORKLOADS:
        first, again, other = (tmp_path / f"{workload}-{k}" for k in ("a", "b", "c"))
        gen.generate(workload, SEED, first)
        gen.generate(workload, SEED, again)
        gen.generate(workload, SEED + 1, other)
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(again))
        _, mismatch, errors = filecmp.cmpfiles(first, again, names, shallow=False)
        assert not mismatch and not errors, workload
        _, mismatch, _ = filecmp.cmpfiles(first, other, names, shallow=False)
        assert mismatch, workload


def test_counts_repeat_exactly(traced_twice):
    for workload, (first, second) in traced_twice.items():
        counts = sorted(name for name in first if is_count(name))
        assert [first[n] for n in counts] == [second[n] for n in counts], workload


def test_toy_tape_ops_match_the_baseline(traced_twice):
    first, _ = traced_twice["train"]
    assert {kind: round(first[f"tensor.{kind}.tape_ops_per_example"])
            for kind in BASELINE_TAPE_OPS} == BASELINE_TAPE_OPS


def test_each_layer_is_reported_where_it_runs(traced_twice):
    runs = {workload: pair[0] for workload, pair in traced_twice.items()}
    assert runs["corpus"]["tensor.matmul.calls"] == 0
    assert runs["corpus"]["amr.parse_penman.calls"] > 0
    assert runs["train"]["tensor.backward.calls"] > 0
    assert runs["decode"]["tensor.backward.calls"] == 0
    assert runs["decode"]["seq2seq.beam_decode.calls"] > 0
    assert runs["train"]["tensor.sgd_step.calls"] > 0
    # on train the overhead, about a third of a round, stands above host noise
    assert runs["train"]["trace.overhead_s"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["per_layer"]] == spans.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
