"""Shared fixtures and oracle helpers for the test suite."""
import importlib.resources as resources
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amrgen
import bit_digests
from amrgen import amr, tensor as T, transforms
from amrgen.decoder import EncoderRows, initial_state
from amrgen.encoders import GcnEncoder, StackEncoder
from amrgen.vocab import BOS, EOS, Vocab

GOLDEN_DIR = Path(__file__).parent / "golden"

FIGURE_GRAPH = (
    "(e / eat-01 :arg0 (h / he) :arg1 (p / pizza) "
    ":instrument (f / finger :part-of h))"
)


# --------------------------------------------------------------------------
# The pinned digests: tools/bit_digests.py run in a process of its own

_DIGEST_RUN = pytest.StashKey()


def start_digest_run():
    """tools/bit_digests.py at one BLAS thread, printing the lines that
    golden/bit_digests.txt pins."""
    tool = Path(bit_digests.__file__)
    path = [str(Path(amrgen.__file__).parent.parent), str(tool.parent)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.Popen([sys.executable, str(tool)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)


def pytest_collection_finish(session):
    """Start the digest run once the tests are chosen, if one of them reads
    it: the run takes several seconds of one core, and beside the other tests
    it adds little to the suite's wall time."""
    if any("digest_run" in getattr(item, "fixturenames", ()) for item in session.items):
        session.config.stash[_DIGEST_RUN] = start_digest_run()


def pytest_sessionfinish(session):
    run = session.config.stash.get(_DIGEST_RUN, None)
    if run is not None and run.poll() is None:  # the session ended before its test
        run.kill()
        run.communicate()


@pytest.fixture
def digest_run(request):
    """The session's digest run, or a new one."""
    return request.config.stash.get(_DIGEST_RUN, None) or start_digest_run()


@pytest.fixture(scope="session")
def figure_graph():
    return amr.parse_penman(FIGURE_GRAPH)


@pytest.fixture(scope="session")
def figure_example(figure_graph):
    return transforms.prepare_example(figure_graph)


@pytest.fixture(scope="session")
def toy_corpus():
    text = (resources.files("amrgen") / "data" / "toy_corpus.txt").read_text()
    return amr.read_corpus_text(text)


@pytest.fixture(scope="session")
def toy_annotations():
    text = (resources.files("amrgen") / "data" / "toy_annotations.jsonl").read_text()
    from amrgen.evaluation import PronounAnnotation

    return [PronounAnnotation(**json.loads(l)) for l in text.splitlines() if l.strip()]


@pytest.fixture(scope="session")
def golden_cases():
    expected = json.loads((GOLDEN_DIR / "expected.json").read_text())
    cases = []
    for name, fields in sorted(expected.items()):
        if name.startswith("_"):
            continue
        text = (GOLDEN_DIR / f"{name}.amr").read_text()
        cases.append((name, text, fields))
    return cases


# --------------------------------------------------------------------------
# Random graph generators used by property tests


def random_tree_graph(rng, max_nodes=8, label_pool=20, relation_pool=5):
    """Random reentrancy-free AMR: every non-root node has exactly one parent."""
    n = int(rng.integers(2, max_nodes))
    nodes = tuple((f"n{i}", f"c{int(rng.integers(0, label_pool))}") for i in range(n))
    edges = []
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        edges.append((f"n{parent}", f":r{int(rng.integers(0, relation_pool))}", f"n{i}"))
    return amr.AmrGraph(nodes=nodes, edges=tuple(edges), root="n0")


def random_dag_graph(rng, max_nodes=8, extra_edges=3):
    """Random rooted DAG (tree plus forward/cross edges), possibly reentrant."""
    g = random_tree_graph(rng, max_nodes=max_nodes)
    ids = [nid for nid, _ in g.nodes]
    edges = list(g.edges)
    existing = {(p, c) for p, _, c in edges}
    for _ in range(int(rng.integers(0, extra_edges + 1))):
        u = int(rng.integers(0, len(ids)))
        v = int(rng.integers(0, len(ids)))
        if u >= v:  # only forward edges keep the graph acyclic
            continue
        if (ids[u], ids[v]) in existing:
            continue
        existing.add((ids[u], ids[v]))
        edges.append((ids[u], f":x{int(rng.integers(0, 3))}", ids[v]))
    return amr.AmrGraph(nodes=g.nodes, edges=tuple(edges), root=g.root)


# --------------------------------------------------------------------------
# Gradient checking


def finite_difference_check(params, loss_fn, eps=1e-5, floor=1e-4):
    """Worst relative error between analytic gradients and central differences.

    loss_fn() must rebuild the forward pass from the current parameter values
    and return a scalar Tensor. Returns (worst, (name, index, analytic, fd)).
    """
    with T.Tape() as tape:
        loss = loss_fn()
        T.backward(tape, loss)
    grads = {}
    for name, p in params.items():
        assert p.grad is not None, f"no gradient reached parameter {name}"
        grads[name] = p.grad.copy()
        p.grad = None
    worst, where = 0.0, None
    for name, p in params.items():
        it = np.nditer(p.data, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p.data[idx]
            p.data[idx] = orig + eps
            hi = loss_fn().data.item()
            p.data[idx] = orig - eps
            lo = loss_fn().data.item()
            p.data[idx] = orig
            fd = (hi - lo) / (2.0 * eps)
            analytic = grads[name][idx]
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), floor)
            if rel > worst:
                worst, where = rel, (name, idx, analytic, fd)
            it.iternext()
    return worst, where


def min_relu_margin(encoder: StackEncoder, example) -> float:
    """Smallest |pre-activation| seen by any relu in the encoder's GCN.

    Central finite differences are only valid where the network is smooth, so
    gradient checks require this margin to clear the probe step by a wide
    factor. Returns +inf when the stack contains no relu.
    """
    struct = encoder.struct
    if not isinstance(struct, GcnEncoder) or struct.activation is not T.ACTIVATIONS["relu"]:
        return np.inf
    margins = []
    real = struct.activation

    def spy(x):
        margins.append(float(np.abs(x).min()))
        return real(x)

    struct.activation = spy
    try:
        encoder.encode([example])
    finally:
        struct.activation = real
    return min(margins) if margins else np.inf


def build_sequence_vocab(example) -> Vocab:
    return Vocab.build([example.sequence.tokens])


# --------------------------------------------------------------------------
# Decoding


def reference_beam_decode(model, ex, beam, max_len):
    """beam_decode without its early stop or batching: every prefix stepped
    alone for all max_len steps, one argsort per hypothesis."""
    enc, enc_proj, sizes = model._encode([ex])
    att = EncoderRows(enc.data, enc_proj.data, sizes, [0])
    eos = model.tgt_vocab.index(EOS)
    zero = np.zeros((1, enc.shape[1]))
    s0 = initial_state(enc, sizes, model.W_init, model.b_init).data
    greedy = ((model.tgt_vocab.index(BOS),), 0.0, (zero, s0, zero))
    hyps, done = [greedy], []
    for _ in range(max_len):
        live = hyps if greedy[0][-1] == eos else hyps + [greedy]
        if not live:
            break
        rows = {}
        for ids, _, state in live:
            if ids not in rows:
                log_probs, *after = model._step([ids[-1]], *state, att)
                rows[ids] = (log_probs[0], after)
        if greedy[0][-1] != eos:
            log_probs, after = rows[greedy[0]]
            idx = int(log_probs.argmax())
            greedy = (greedy[0] + (idx,), greedy[1] + float(log_probs[idx]), after)
        candidates = []
        for ids, logp, _ in hyps:
            log_probs, after = rows[ids]
            for idx in log_probs.argsort()[::-1][:beam].tolist():
                candidates.append((ids + (idx,), logp + float(log_probs[idx]), after))
        candidates.sort(key=lambda entry: entry[1], reverse=True)
        hyps = []
        for entry in candidates:
            if entry[0][-1] == eos:
                done.append((entry[0][1:-1], entry[1], False))
            else:
                hyps.append(entry)
            if len(hyps) >= beam:
                break
    finished = greedy[0][-1] == eos
    results = [(greedy[0][1:-1] if finished else greedy[0][1:], greedy[1], not finished)]
    results += done + [(ids[1:], logp, True) for ids, logp, _ in hyps]
    ids, logp, truncated = max(results, key=lambda r: r[1] / (len(r[0]) + 1))
    return [model.tgt_vocab.token(i) for i in ids], logp, truncated
