"""Seeded input generator for the benchmark.

Everything the workload process reads is written here, from the seed alone,
without importing amrgen: the program under test receives only files. The
same seed gives byte-identical files.

Graph sizes follow fixed schedules; the seed picks labels, shapes, relations
and reentrancy targets. That keeps the amount of work per run close across
seeds while the content differs.
"""
from __future__ import annotations

import json
import os
import random
import shutil

TOY_CORPUS = os.path.join("src", "amrgen", "data", "toy_corpus.txt")
TOY_ANNOTATIONS = os.path.join("src", "amrgen", "data", "toy_annotations.jsonl")
TOY10 = tuple(f"toy-{i:03d}" for i in range(1, 11))

TRAIN_GENERATED = 12  # extra graphs next to the 60 toy graphs
TRAIN_MIN_CONCEPTS, TRAIN_MAX_CONCEPTS = 6, 17  # about 1x to 4x the toy linearized length
CORPUS_GRAPHS = 1000
CORPUS_PARTS = 20  # PENMAN files, preprocessed one call each
RANDOM_PAIRS = 24  # criterion-7 style pairs next to the annotation pairs

# fixed word pools: the seed chooses among them, so vocabulary sizes match across seeds
_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _pool(prefix_index: int, size: int) -> list:
    words = []
    for k in range(size):
        k += prefix_index * size
        a, b, c, d = k % 14, (k // 14) % 5, (k // 70) % 14, (k // 980) % 5
        words.append(_ONSETS[a] + _VOWELS[b] + _ONSETS[c] + _VOWELS[d] + _ONSETS[(a + c) % 14])
    return words


PREDICATES = [w + "-01" for w in _pool(0, 160)]
NOUNS = _pool(1, 400)
MODIFIERS = _pool(2, 120)
NAMES = [w.capitalize() for w in _pool(3, 240)]
NAMED_KINDS = ("person", "city", "country", "organization")
LABELS = {"pred": PREDICATES, "noun": NOUNS, "mod": MODIFIERS, "named": NAMED_KINDS}
PRED_ROLES = (":arg0", ":arg1", ":arg2", ":time", ":location", ":manner", ":purpose")
NOUN_ROLES = (":poss", ":part-of", ":topic", ":consist-of")
FUNCTION_WORD = {
    ":arg0": "by", ":arg1": "on", ":arg2": "to", ":time": "when", ":location": "in",
    ":manner": "with", ":purpose": "for", ":poss": "of", ":part-of": "of",
    ":topic": "about", ":consist-of": "from", ":mod": "so",
}
# the kind of each concept after the root, so that node, edge and word counts
# depend on the graph's size and not on the seed
KIND_CYCLE = ("noun", "pred", "noun", "mod", "noun", "named", "noun", "pred", "mod", "date",
              "noun", "noun")


class _Node:
    __slots__ = ("var", "kind", "label", "children", "extra", "consts")

    def __init__(self, var, kind, label):
        self.var = var
        self.kind = kind  # pred | noun | mod | named | date
        self.label = label
        self.children = []  # (role, node) tree edges
        self.extra = []  # (role, node) reentrant re-mentions
        self.consts = []  # (role, [constant, ...]); a :name role gets a name node


def make_graph(rng: random.Random, concepts: int, reentrancies: int):
    """A rooted DAG with `concepts` variables and up to `reentrancies`
    re-mention edges. Returns (penman text, sentence tokens, node count,
    edge count) where the counts are those a PENMAN parser must produce."""
    nodes = [_Node("v0", "pred", rng.choice(PREDICATES))]
    parent_of = {0: None}
    for i in range(1, concepts):
        kind = KIND_CYCLE[(i - 1) % len(KIND_CYCLE)]
        if kind == "mod":
            host = rng.choice([j for j, n in enumerate(nodes) if n.kind == "noun"])
            role = ":mod"
        elif kind == "noun":
            host = rng.choice([j for j, n in enumerate(nodes) if n.kind in ("pred", "noun")])
            role = rng.choice(PRED_ROLES if nodes[host].kind == "pred" else NOUN_ROLES)
        else:
            host = rng.choice([j for j, n in enumerate(nodes) if n.kind == "pred"])
            role = rng.choice(PRED_ROLES)
        label = "date-entity" if kind == "date" else rng.choice(LABELS[kind])
        node = _Node(f"v{i}", kind, label)
        nodes.append(node)
        parent_of[i] = host
        nodes[host].children.append((role, node))
        if kind == "named":
            node.consts.append((":name", [rng.choice(NAMES) for _ in range(1 + i % 2)]))
        elif kind == "date":
            node.consts.append((":year", [str(rng.randrange(1950, 2030))]))
            node.consts.append((":month", [str(rng.randrange(1, 13))]))
        elif kind == "noun" and i % 7 == 3:
            node.consts.append((":quant", [str(rng.randrange(2, 999))]))

    # re-mentions point from inner nodes to childless nouns, which have no
    # outgoing edges of their own, so the graph stays acyclic
    targets = [j for j, n in enumerate(nodes) if n.kind == "noun" and not n.children]
    hosts = [j for j, n in enumerate(nodes) if n.kind in ("pred", "noun") and j not in targets]
    added = 0
    for _ in range(reentrancies * 20):
        if added == reentrancies or not targets:
            break
        v, u = rng.choice(targets), rng.choice(hosts)
        if u == parent_of[v] or any(node is nodes[v] for _, node in nodes[u].extra):
            continue
        role = rng.choice(PRED_ROLES if nodes[u].kind == "pred" else NOUN_ROLES)
        nodes[u].extra.append((role, nodes[v]))
        added += 1

    name_vars = 0
    node_count = len(nodes)
    edge_count = len(nodes) - 1 + added
    defined = set()
    words = []

    def emit(node) -> str:
        nonlocal name_vars, node_count, edge_count
        defined.add(node.var)
        parts = [f"({node.var} / {node.label}"]
        if node.kind == "pred":
            words.append(node.label[:-3])
        elif node.kind == "noun":
            words.extend(("the", node.label))
        elif node.kind == "mod":
            words.append(node.label)
        for role, constants in node.consts:
            if role == ":name":
                name_vars += 1
                ops = " ".join(f':op{k + 1} "{c}"' for k, c in enumerate(constants))
                parts.append(f" :name (n{name_vars} / name {ops})")
                node_count += 1
                edge_count += 1
            else:
                parts.append(f" {role} {constants[0]}")
            words.extend(c.lower() for c in constants)
            node_count += len(constants)
            edge_count += len(constants)
        for role, child in node.children + node.extra:
            words.append(FUNCTION_WORD[role])
            if child.var in defined:
                parts.append(f" {role} {child.var}")
                words.append("it")
            else:
                parts.append(f" {role} {emit(child)}")
        return "".join(parts) + ")"

    text = emit(nodes[0])
    return text, words, node_count, edge_count


def _hypothesis(rng: random.Random, reference, noise: float) -> list:
    out = []
    for word in reference:
        r = rng.random()
        if r < noise / 2:
            continue
        out.append(rng.choice(NOUNS) if r < noise else word)
    return out or list(reference[:1])


def _toy_blocks():
    """(id, sentence, graph text) for every toy corpus block, in file order."""
    with open(TOY_CORPUS, encoding="utf-8") as handle:
        text = handle.read()
    blocks = []
    for block in text.strip().split("\n\n"):
        meta, graph = {}, []
        for line in block.splitlines():
            if line.startswith("# ::"):
                key, _, value = line[4:].partition(" ")
                meta[key] = value.strip()
            elif line.strip():
                graph.append(line)
        blocks.append((meta["id"], meta["snt"].lower().split(), "\n".join(graph)))
    return blocks


def _record(ex_id, sentence, penman) -> dict:
    # the fields load_examples reads; preprocess would add derived fields it ignores
    return {"anon_map": [], "id": ex_id, "penman": penman, "sentence": sentence}


def _write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _write_text(path, text) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def generate(workload: str, seed: int, out_dir: str) -> list:
    """Write the inputs of one workload for one seed into out_dir. For the
    corpus, returns the generated graphs as [penman text, node count, edge
    count] for the round-trip check."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    rng = random.Random(f"{workload}:{seed}")
    toy = _toy_blocks()
    graphs = []

    if workload == "train":
        records = [_record(*block) for block in toy]
        for k in range(TRAIN_GENERATED):
            concepts = TRAIN_MIN_CONCEPTS + round(
                k * (TRAIN_MAX_CONCEPTS - TRAIN_MIN_CONCEPTS) / (TRAIN_GENERATED - 1))
            text, words, _, _ = make_graph(rng, concepts, k % 4)
            records.append(_record(f"gen-{k:03d}", words, text))
        rng.shuffle(records)
        _write_jsonl(os.path.join(out_dir, "train.jsonl"), records)

    elif workload == "fixture":
        # what the decode checkpoints are trained on: criterion 6's fixture,
        # the ten first toy graphs, whatever the seed
        records = [_record(*block) for block in toy if block[0] in TOY10]
        _write_jsonl(os.path.join(out_dir, "toy10.jsonl"), records)

    elif workload == "decode":
        records = [_record(*block) for block in toy]
        rng.shuffle(records)
        _write_jsonl(os.path.join(out_dir, "toy.jsonl"), records)
        with open(TOY_ANNOTATIONS, encoding="utf-8") as handle:
            annotations = [line for line in handle.read().splitlines() if line.strip()]
        rng.shuffle(annotations)
        _write_text(os.path.join(out_dir, "annotations.jsonl"), "\n".join(annotations) + "\n")
        memorized = [(i, s) for i, s, _ in toy if i in TOY10]
        words = sorted({w for _, s in memorized for w in s})
        categories = ("antecedent", "pronoun_type", "number", "gender")
        pairs = []
        for k in range(RANDOM_PAIRS):
            n = 3 + k % 6
            a = [rng.choice(words) for _ in range(n)]
            b = list(a)
            b[rng.randrange(n)] = rng.choice([w for w in words if w not in a])
            pairs.append({"category": categories[k % 4], "contrastive": b,
                          "id": memorized[k % len(memorized)][0], "reference": a})
        _write_jsonl(os.path.join(out_dir, "pairs.jsonl"), pairs)

    elif workload == "corpus":
        blocks, systems = [], {"Seq": [], "GCNSeq": []}
        for k in range(CORPUS_GRAPHS):
            concepts = 3 + (k * 7) % 12
            text, words, nodes, edges = make_graph(rng, concepts, (k * 3) % 8)
            blocks.append(f"# ::id gen-{k:05d}\n# ::snt {' '.join(words)}\n{text}\n")
            graphs.append([text, nodes, edges])
            systems["Seq"].append(_hypothesis(rng, words, 0.3))
            systems["GCNSeq"].append(_hypothesis(rng, words, 0.2))
        for part in range(CORPUS_PARTS):
            size = CORPUS_GRAPHS // CORPUS_PARTS
            _write_text(os.path.join(out_dir, f"corpus-{part:02d}.txt"),
                        "\n".join(blocks[part * size:(part + 1) * size]))
        for name, hyps in systems.items():
            _write_text(os.path.join(out_dir, f"hyp.{name}.txt"),
                        "".join(" ".join(h) + "\n" for h in hyps))

    else:
        raise ValueError(f"unknown workload {workload!r}")
    return graphs
