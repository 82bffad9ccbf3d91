"""Smoke test of tools/bit_digests.py, which is on the tests' path: its
digest functions run and repeat their bytes for a fixed seed."""
import bit_digests


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
