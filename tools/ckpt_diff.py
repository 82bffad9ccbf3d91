"""Which parts of two amrgen checkpoints differ: each array whose bits
differ, with its largest absolute difference, and each manifest key that
was added, removed or changed, by dotted path.

    PYTHONPATH=src python tools/ckpt_diff.py A B

A and B are two checkpoint files, or two directories compared file by file,
such as two `tools/bit_digests.py --save` directories; a file that is not a
checkpoint (a train_log.jsonl, say) is compared byte for byte. It exits 0
only when every array is bit-equal, no array or file is on one side alone,
and every other file is byte-equal; a manifest that differs alone is
reported and does not fail.
"""
import argparse
import json
import os
import sys
import zipfile

import numpy as np

from amrgen.tensor import load_arrays


def _show(value, width=60):
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= width else text[: width - 3] + "..."


_MISSING = object()


def manifest_changes(a, b, path=""):
    """(dotted path, what happened) for each key or list item of manifests a
    and b that was added, removed or changed."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = list(a) + [k for k in b if k not in a]
        pairs = [(k, a.get(k, _MISSING), b.get(k, _MISSING)) for k in keys]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(k, x, y) for k, (x, y) in enumerate(zip(a, b))]
    else:
        same = a == b and type(a) is type(b)
        return [] if same else [(path, f"changed {_show(a)} -> {_show(b)}")]
    changes = []
    for key, x, y in pairs:
        where = f"{path}.{key}" if path else str(key)
        if x is _MISSING:
            changes.append((where, f"added {_show(y)}"))
        elif y is _MISSING:
            changes.append((where, f"removed (was {_show(x)})"))
        else:
            changes += manifest_changes(x, y, where)
    return changes


def array_changes(a, b):
    """(name, what differs) for each array of the dicts a and b that is on
    one side alone or whose shape or bits differ."""
    changes = []
    for name in list(a) + [n for n in b if n not in a]:
        if name not in b or name not in a:
            changes.append((name, f"only in {'A' if name in a else 'B'}"))
        elif a[name].shape != b[name].shape:
            changes.append((name, f"shape {list(a[name].shape)} -> {list(b[name].shape)}"))
        else:
            differ = a[name].view(np.uint64) != b[name].view(np.uint64)
            if differ.any():
                delta = np.abs(a[name] - b[name]).max()
                changes.append((name, f"{int(differ.sum())} of {differ.size} values differ, "
                                      f"max |d| {delta:.3g}"))
    return changes


def compare(path_a, path_b, label):
    """Print how the files differ; True when they count as equal."""
    try:
        manifest_a, arrays_a = load_arrays(path_a)
        manifest_b, arrays_b = load_arrays(path_b)
    except (zipfile.BadZipFile, KeyError, ValueError):
        with open(path_a, "rb") as a, open(path_b, "rb") as b:
            same = a.read() == b.read()
        if not same:
            print(f"{label}: bytes differ")
        return same
    arrays = array_changes(arrays_a, arrays_b)
    for name, what in arrays:
        print(f"{label}: array {name}: {what}")
    del manifest_a["arrays"], manifest_b["arrays"]  # the array lines cover them
    for where, what in manifest_changes(manifest_a, manifest_b):
        print(f"{label}: manifest {where}: {what}")
    return not arrays


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    if os.path.isdir(args.a) and os.path.isdir(args.b):
        names_a, names_b = set(os.listdir(args.a)), set(os.listdir(args.b))
        for name in sorted(names_a ^ names_b):
            print(f"{name}: only in {'A' if name in names_a else 'B'}")
        pairs = [(os.path.join(args.a, name), os.path.join(args.b, name), name)
                 for name in sorted(names_a & names_b)]
        equal = names_a == names_b
    else:
        pairs, equal = [(args.a, args.b, os.path.basename(args.b))], True
    for path_a, path_b, label in pairs:
        equal &= compare(path_a, path_b, label)
    print(f"{len(pairs)} file pair(s) compared: "
          f"{'every array bit-equal' if equal else 'they differ'}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
