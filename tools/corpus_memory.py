"""Memory that a loaded corpus holds: the tracemalloc peak of preprocessing a
PENMAN corpus (`cli.preprocess_corpus` alone, and with writing the records
and loading them back), the bytes the loaded examples hold per graph
(`cli.load_examples` alone, measured after `gc.collect()`), and the string
objects the records and the loaded examples keep against their distinct
values.

    PYTHONPATH=src python tools/corpus_memory.py [PATH] [--anonymize]

PATH is a PENMAN file or a directory of them, as `amrgen preprocess
--input` takes; by default the packaged toy corpus. The records are written
to a temporary JSONL file and read back with `cli.load_examples`, so the
figures cover what `amrgen preprocess` and a training run's loading keep in
memory. With every token interned, the string objects come close to the
distinct values: the rest are each record's id and PENMAN text and each
example's id.
"""
import argparse
import gc
import json
import os
import sys
import tempfile
import time
import tracemalloc
from importlib import resources

from amrgen import cli

TOY_CORPUS = str(resources.files("amrgen") / "data" / "toy_corpus.txt")


def count_strings(*roots):
    """(string objects, distinct values) reachable from roots through lists,
    tuples, sets, dicts and the attributes of amrgen's objects."""
    seen, objects, values = set(), 0, set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))  # every object stays alive through roots, so ids stay unique
        if type(obj) is str:
            objects += 1
            values.add(obj)
        elif isinstance(obj, dict):
            stack += obj.keys()
            stack += obj.values()
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack += obj
        elif type(obj).__module__.startswith("amrgen.") and hasattr(obj, "__dict__"):
            stack += vars(obj).values()
    return objects, len(values)


def measure(path, anonymize=False):
    """Preprocess path, write the records as JSONL, load them back; returns
    the records, the examples, the tracemalloc peaks in bytes of
    preprocessing alone and of the whole, the bytes that loading left
    allocated once the collector has run, and the seconds it took under
    tracemalloc."""
    with tempfile.TemporaryDirectory() as scratch:
        jsonl = os.path.join(scratch, "corpus.jsonl")
        tracemalloc.start()
        started = time.perf_counter()
        records, _, _ = cli.preprocess_corpus(path, anonymize_flag=anonymize)
        _, preprocess_peak = tracemalloc.get_traced_memory()
        with open(jsonl, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        examples = cli.load_examples(jsonl)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        seconds = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return records, examples, preprocess_peak, peak, held, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("path", nargs="?", default=TOY_CORPUS,
                        help="PENMAN file or directory (default: the packaged toy corpus)")
    parser.add_argument("--anonymize", action="store_true",
                        help="anonymize as `amrgen preprocess --anonymize` does")
    args = parser.parse_args(argv)
    try:
        records, examples, preprocess_peak, peak, held, seconds = measure(args.path,
                                                                         args.anonymize)
    except (cli.DataError, OSError) as err:
        print(f"corpus_memory: {err}", file=sys.stderr)
        return 3
    objects, distinct = count_strings(records, examples)
    print(f"examples: {len(examples)}")
    print(f"tracemalloc peak of preprocess_corpus: {preprocess_peak / 2**20:.2f} MB")
    print(f"tracemalloc peak: {peak / 2**20:.2f} MB ({seconds:.2f} s traced)")
    print(f"loaded examples hold: {held / 2**20:.2f} MB, {held / len(examples):.0f} bytes "
          "per graph")
    print(f"strings kept: {objects} objects for {distinct} distinct values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
