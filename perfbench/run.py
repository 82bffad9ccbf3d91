"""amrgen benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The inputs are generated from the
seed, the workload runs in a process of its own with OpenBLAS capped at the
machine's core count, and the last line on stdout is the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.

Everything written goes under .bench_build/perfbench/: the generated inputs,
the memorized checkpoints the decode workload loads (trained once per source
tree, outside any timed process), and one JSON record per run with the
environment and the per-stage figures behind the metrics. Once a source tree
has an untraced train run, an untraced decode run and a traced train run,
each run also prints the per-stacking columns of the ROADMAP Baseline table
to stderr, from those records.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import spans  # noqa: E402

BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("train", "decode", "corpus")
WORKLOAD_TIMEOUT_S = 170
IMPORT_PROBES = 8
PREPARE_TIMEOUT_S = 700


def source_digest() -> str:
    """sha256 over the package sources, which names the program under test
    where there is no git sha."""
    digest = hashlib.sha256()
    root = os.path.join("src", "amrgen")
    for folder, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    return env


def ensure_checkpoints(digest: str) -> str:
    """Memorized checkpoints of the four stackings for the decode workload,
    trained once per source tree at criterion 6's settings."""
    folder = os.path.join(BUILD, "checkpoints", digest[:16])
    if all(os.path.isfile(os.path.join(folder, f"{k}.bin")) for k in spans.KINDS):
        return folder
    print(f"training the decode checkpoints into {folder}", file=sys.stderr)
    inputs = os.path.join(BUILD, "inputs", "fixture")
    gen.generate("fixture", 0, inputs)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), "--prepare", folder,
         "--inputs", inputs],
        env=child_env(), check=True, timeout=PREPARE_TIMEOUT_S)
    return folder


def baseline_table(digest: str):
    """The ROADMAP Baseline table's per-stacking columns, as markdown lines,
    from the latest records of this source tree: train ms per example and
    decode ms per sentence at the reference speed from untraced train and
    decode runs, tape ops per example from a traced train run. None until all
    three exist."""
    folder = os.path.join(BUILD, "results")
    latest = {}
    for name in os.listdir(folder):
        if not name.startswith(("train-", "decode-")):
            continue
        with open(os.path.join(folder, name), encoding="utf-8") as handle:
            record = json.load(handle)
        key = (record["workload"], record["trace"])
        if record["source_sha256"] == digest and (
                key not in latest or record["finished"] > latest[key]["finished"]):
            latest[key] = record
    if len(latest) < 3:
        return None
    train, decode = latest[("train", 0)]["detail"], latest[("decode", 0)]["detail"]
    traced = latest[("train", 1)]["metrics"]
    lines = ["| stacking | train ms/ex (whole epochs) | tape ops/ex (toy) "
             "| greedy ms/ex (toy) | beam-5 ms/ex (toy) |",
             "| --- | --- | --- | --- | --- |"]
    for kind in spans.KINDS:
        lines.append(f"| {kind} | {train[f'{kind}.train_ms_per_example']:.1f} "
                     f"| {traced[f'tensor.{kind}.tape_ops_per_example']:.0f} "
                     f"| {decode[f'{kind}.greedy_ms_per_sentence']:.1f} "
                     f"| {decode[f'{kind}.beam5_ms_per_sentence']:.1f} |")
    return lines


def import_probe() -> float:
    """Seconds from spawning a process to the program imported in it."""
    spawned = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), "--import-only",
         "--spawned", repr(spawned)],
        env=child_env(), capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S, check=True)
    return float(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "amrgen", "__init__.py")):
        print("run.py: no src/amrgen here; run it from the root of a source checkout",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    digest = source_digest()
    try:
        checkpoints = ensure_checkpoints(digest)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"run.py: training the decode checkpoints failed: {err}", file=sys.stderr)
        return 1
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = os.path.join(BUILD, "inputs", f"{args.workload}-seed{args.seed}")
    gen.generate(args.workload, args.seed, inputs)
    work = os.path.join(BUILD, "work", args.workload)
    out = os.path.join(BUILD, "work", f"{tag}.json")
    if os.path.exists(out):
        os.remove(out)

    command = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--inputs", inputs, "--checkpoints", checkpoints, "--work", work, "--out", out,
    ]
    # set-up time includes interpreter start and imports, which a process can
    # only measure once: more samples come from processes that just import,
    # half of them before the workload and half after, so that one burst of
    # host contention does not cover them all
    try:
        probes = [import_probe() for _ in range(IMPORT_PROBES // 2)]
        spawned = time.monotonic()
        done = subprocess.run(command + ["--spawned", repr(spawned)], env=child_env(),
                              timeout=WORKLOAD_TIMEOUT_S)
        probes += [import_probe() for _ in range(IMPORT_PROBES - len(probes))]
    except subprocess.CalledProcessError as err:
        print(f"run.py: importing the program failed:\n{err.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as err:
        print(f"run.py: a {args.workload} process did not finish in {err.timeout} s",
              file=sys.stderr)
        return 1
    if done.returncode != 0 or not os.path.isfile(out):
        print(f"run.py: the {args.workload} process exited with {done.returncode}",
              file=sys.stderr)
        return 1
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    result["import_probes_s"] = probes
    if not args.trace:
        # as timed: import times do not follow the reference chunks' speed
        result["metrics"]["setup_s"] = (statistics.median(probes + [result["import_s"]])
                                        + statistics.median(result["setup_repeats_s"]))

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"run.py: the workload did not report {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, git_sha=git_sha(), source_sha256=digest,
                  finished=time.time())
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{tag}-{time.time_ns()}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print(f"{tag}: rounds {['%.2f' % s for s in result['rounds']]} s, scales "
          f"{['%.3f' % s for s in result['round_scales']]}, "
          f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
    for name, value in sorted(result.get("detail", {}).items()):
        print(f"  {name} = {value:.6g}", file=sys.stderr)
    table = baseline_table(digest)
    if table:
        print("\n".join(["Baseline table, latest runs of this source tree:", *table]),
              file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
