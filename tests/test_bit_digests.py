"""Smoke test of tools/bit_digests.py: its digest functions run and repeat
their bytes for a fixed seed."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).parent.parent / "tools" / "bit_digests.py"


@pytest.fixture(scope="module")
def bit_digests():
    spec = importlib.util.spec_from_file_location("bit_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bit_digests_repeat_for_a_fixed_seed(bit_digests):
    examples = bit_digests.toy_examples()
    assert len(examples) == 60
    first = bit_digests.train_digests("GCNSeq", 4, examples, epochs=1)
    assert first == bit_digests.train_digests("GCNSeq", 4, examples, epochs=1)
    checkpoint, log, loss = first
    assert len(checkpoint) == len(log) == 64 and loss > 0
    digest = bit_digests.decode_digest(examples[:3], kinds=("GCNSeq",))
    assert digest == bit_digests.decode_digest(examples[:3], kinds=("GCNSeq",))
    assert len(digest) == 64
