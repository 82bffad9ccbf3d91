"""tools/bit_digests.py, which is on the tests' path: its digest functions
run and repeat their bytes for a fixed seed, and this tree prints the lines
pinned in golden/bit_digests.txt."""
from pathlib import Path

import bit_digests

PINNED_DIGESTS = Path(__file__).parent / "golden" / "bit_digests.txt"


def test_bit_digests_repeat_for_a_fixed_seed():
    examples = bit_digests.toy_examples()
    assert len(examples) == 60
    first = bit_digests.train_digests("GCNSeq", 4, examples, epochs=1)
    assert first == bit_digests.train_digests("GCNSeq", 4, examples, epochs=1)
    checkpoint, log, loss = first
    assert len(checkpoint) == len(log) == 64 and loss > 0
    digest = bit_digests.decode_digest(examples[:3], kinds=("GCNSeq",))
    assert digest == bit_digests.decode_digest(examples[:3], kinds=("GCNSeq",))
    assert len(digest) == 64


def test_the_tree_prints_the_pinned_digests(digest_run):
    # a change that moves a line updates the file and says why in CHANGES.md
    printed, errors = digest_run.communicate(timeout=600)
    assert digest_run.returncode == 0, errors
    printed, pinned = printed.splitlines(), PINNED_DIGESTS.read_text().splitlines()
    moved = [(want, got) for want, got in zip(pinned, printed) if want != got]
    assert not moved, moved
    assert len(printed) == len(pinned), printed
