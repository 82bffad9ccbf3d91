"""Metrics and analyses: corpus BLEU, smoothed sentence BLEU, bucketed
deltas against a sequential baseline, and contrastive-pair accuracy.

The bucketed analyses use the sentence-level metric (labeled sBLEU in
reports) because a per-example score is required; bucket edges default to
0 / 1-5 / 6-20 reentrancies and 0-10 / 11-50 / 51-250 dependency lengths.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

CATEGORIES = ("antecedent", "pronoun_type", "number", "gender")

REENTRANCY_BUCKETS = ((0, 0), (1, 5), (6, 20))
DEPENDENCY_BUCKETS = ((0, 10), (11, 50), (51, 250))


def _clipped_matches(hyp, ref, max_n: int) -> list:
    """Per order n = 1..max_n, the count of hypothesis n-grams found in the
    reference, each n-gram clipped to its count there.

    One table counts the reference's n-grams of every order: unigrams as the
    tokens themselves, longer n-grams as tuples, so no two orders share a
    key. Each hypothesis n-gram that finds a count left in the table takes
    one, so an n-gram matches at most as often as the reference holds it."""
    table = Counter(ref)
    table.update(chain.from_iterable(zip(*[ref[k:] for k in range(n)])
                                     for n in range(2, max_n + 1)))
    left = table.get
    matches = []
    for n in range(1, max_n + 1):
        tally = 0
        for gram in hyp if n == 1 else zip(*[hyp[k:] for k in range(n)]):
            count = left(gram)
            if count:
                table[gram] = count - 1
                tally += 1
        matches.append(tally)
    return matches


def _pair_counts(hypotheses, references, max_n: int) -> list:
    """Per pair, (hypothesis length, reference length, clipped matches)."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference length mismatch: {len(hypotheses)} vs {len(references)}"
        )
    counts = []
    for hyp, ref in zip(hypotheses, references):
        hyp, ref = list(hyp), list(ref)
        counts.append((len(hyp), len(ref), _clipped_matches(hyp, ref, max_n)))
    return counts


def _corpus_score(counts, max_n: int) -> float:
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for length, ref_length, pair in counts:
        hyp_len += length
        ref_len += ref_length
        for k, match in enumerate(pair):
            totals[k] += max(length - k, 0)
            matches[k] += match
    if hyp_len == 0 or any(m == 0 for m in matches):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matches, totals)) / max_n
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision)


def _sentence_score(length, ref_length, matches, max_n: int) -> float:
    if matches[0] == 0:  # an empty hypothesis has no match either
        return 0.0
    log_sum = math.log(matches[0] / length)
    for k in range(1, max_n):
        log_sum += math.log((matches[k] + 1) / (max(length - k, 0) + 1))
    brevity = 1.0 if length > ref_length else math.exp(1.0 - ref_length / length)
    return 100.0 * brevity * math.exp(log_sum / max_n)


def corpus_bleu(hypotheses, references, max_n: int = 4) -> float:
    """Corpus-level BLEU: geometric mean of clipped n-gram precisions up to
    4-grams with brevity penalty, as a percentage."""
    return _corpus_score(_pair_counts(hypotheses, references, max_n), max_n)


def sentence_metric(hypothesis, reference, max_n: int = 4) -> float:
    """Sentence-level smoothed BLEU: raw unigram precision, add-one
    smoothing on higher-order precisions, with brevity penalty."""
    hyp = list(hypothesis)
    ref = list(reference)
    if not ref:
        raise ValueError("empty reference")
    if not hyp:
        return 0.0
    return _sentence_score(len(hyp), len(ref), _clipped_matches(hyp, ref, max_n), max_n)


def bleu_scores(hypotheses, references, max_n: int = 4):
    """corpus_bleu and each pair's sentence_metric, the same floats, from one
    count of clipped matches per pair."""
    if not all(references):
        raise ValueError("empty reference")
    counts = _pair_counts(hypotheses, references, max_n)
    return (_corpus_score(counts, max_n),
            [_sentence_score(*count, max_n) for count in counts])


# --------------------------------------------------------------------------
# Bucketed analysis


@dataclass(frozen=True)
class BucketRow:
    label: str
    count: int
    baseline_mean: float  # None when the bucket is empty
    deltas: tuple  # ((system, delta or None), ...)


def check_bucket_edges(edges) -> tuple:
    """The edges as a tuple of (lo, hi) pairs. Raises ValueError unless there
    is at least one and they are ascending, non-overlapping lo <= hi pairs."""
    edges = tuple((lo, hi) for lo, hi in edges)
    if not edges or any(lo > hi for lo, hi in edges) or any(
            lo <= below for (_, below), (lo, _) in zip(edges, edges[1:])):
        raise ValueError("buckets must be ascending, non-overlapping lo-hi ranges")
    return edges


def bucket_label(lo, hi) -> str:
    return str(lo) if lo == hi else f"{lo}-{hi}"


def bucket_spans(edges) -> list:
    """(label, lo, hi, always) for each row of checked edges: every edge,
    always shown, and the integer values that no edge covers, shown when a
    value falls there: "<lo" below the first edge, ">hi" above the last and
    the range of each gap between two edges."""
    top = edges[-1][1]
    spans = [(f"<{edges[0][0]}", -math.inf, edges[0][0] - 1, False)]
    for k, (lo, hi) in enumerate(edges):
        if k and lo > edges[k - 1][1] + 1:
            gap = (edges[k - 1][1] + 1, lo - 1)
            spans.append((bucket_label(*gap), *gap, False))
        spans.append((bucket_label(lo, hi), lo, hi, True))
    spans.append((f">{top}", top + 1, math.inf, False))
    return spans


def bucket_report(
    scores: dict,
    stats: list,
    bucketing: str = "reentrancies",
    edges=None,
    baseline: str = None,
) -> list:
    """Per-bucket mean score of the baseline system and deltas of the others.

    scores: system name -> per-example score list, all aligned with stats.
    stats: per-example dicts with reentrancies / max_dep_len keys.
    The dependency-length analysis excludes examples with reentrancies.
    The rows are those of `bucket_spans`.
    """
    if bucketing not in ("reentrancies", "max_dep_len"):
        raise ValueError(f"unknown bucketing {bucketing!r}")
    if edges is None:
        edges = REENTRANCY_BUCKETS if bucketing == "reentrancies" else DEPENDENCY_BUCKETS
    edges = check_bucket_edges(edges)
    systems = list(scores)
    if baseline is None:
        baseline = systems[0]
    lengths = {len(v) for v in scores.values()} | {len(stats)}
    if len(lengths) != 1:
        raise ValueError("per-system scores and stats must be aligned")

    indices = list(range(len(stats)))
    if bucketing == "max_dep_len":
        indices = [i for i in indices if stats[i]["reentrancies"] == 0]

    rows = []
    for label, lo, hi, always in bucket_spans(edges):
        members = [i for i in indices if lo <= stats[i][bucketing] <= hi]
        if members or always:
            rows.append(_bucket_row(label, members, scores, systems, baseline))
    return rows


def _bucket_row(label, members, scores, systems, baseline):
    def mean(system):  # None for an empty bucket
        return sum(scores[system][i] for i in members) / len(members) if members else None

    base = mean(baseline)
    deltas = tuple((s, None if base is None else mean(s) - base) for s in systems if s != baseline)
    return BucketRow(label=label, count=len(members), baseline_mean=base, deltas=deltas)


def format_bucket_table(rows, bucketing: str, baseline: str) -> str:
    header = "reentrancies" if bucketing == "reentrancies" else "max dependency length"
    lines = [f"# sBLEU by {header} (deltas vs {baseline})"]
    systems = [s for s, _ in rows[0].deltas] if rows else []
    lines.append("\t".join(["bucket", "count", baseline] + systems))
    for row in rows:
        cells = [row.label, str(row.count)]
        cells.append("-" if row.baseline_mean is None else f"{row.baseline_mean:.2f}")
        for _, delta in row.deltas:
            cells.append("-" if delta is None else f"{delta:+.2f}")
        lines.append("\t".join(cells))
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Contrastive pairs


@dataclass(frozen=True)
class ContrastivePair:
    id: str
    reference: tuple
    contrastive: tuple
    category: str

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if tuple(self.reference) == tuple(self.contrastive):
            raise ValueError("reference and contrastive sentence must differ")


@dataclass(frozen=True)
class CategoryResult:
    count: int
    wins: int

    @property
    def accuracy(self) -> float:
        return 100.0 * self.wins / self.count if self.count else 0.0


def contrastive_eval(score_fn, pairs, example_lookup):
    """Accuracy per category: a win needs the reference strictly more
    probable than the contrastive sentence; ties count as losses.

    score_fn(example, tokens) -> total log-probability. The pairs are scored
    grouped by example id, in the order of each id's first appearance, and
    each pair's reference before its contrastive sentence, so that a scorer
    that keeps its last example's encoding encodes each example once.
    Returns (per-category CategoryResult, skipped count).
    """
    counts = {c: 0 for c in CATEGORIES}
    wins = {c: 0 for c in CATEGORIES}
    skipped = 0
    by_id = {}
    for pair in pairs:
        by_id.setdefault(pair.id, []).append(pair)
    for pair_id, group in by_id.items():
        example = example_lookup(pair_id)
        if example is None:
            skipped += len(group)
            continue
        for pair in group:
            counts[pair.category] += 1
            if score_fn(example, pair.reference) > score_fn(example, pair.contrastive):
                wins[pair.category] += 1
    results = {c: CategoryResult(count=counts[c], wins=wins[c]) for c in CATEGORIES}
    return results, skipped


# --------------------------------------------------------------------------
# Mechanical contrastive-pair generation from pronoun annotations

# (person, number, gender) -> forms by case. Plural and non-third-person
# entries carry no gender.
_PRONOUNS = {
    ("3", "sing", "masc"): {"subj": "he", "obj": "him", "poss": "his", "refl": "himself"},
    ("3", "sing", "fem"): {"subj": "she", "obj": "her", "poss": "her", "refl": "herself"},
    ("3", "sing", "neut"): {"subj": "it", "obj": "it", "poss": "its", "refl": "itself"},
    ("3", "plur", None): {"subj": "they", "obj": "them", "poss": "their", "refl": "themselves"},
    ("1", "sing", None): {"subj": "i", "obj": "me", "poss": "my", "refl": "myself"},
    ("1", "plur", None): {"subj": "we", "obj": "us", "poss": "our", "refl": "ourselves"},
    ("2", "sing", None): {"subj": "you", "obj": "you", "poss": "your", "refl": "yourself"},
    ("2", "plur", None): {"subj": "you", "obj": "you", "poss": "your", "refl": "yourselves"},
}

_TYPE_SWAP = {"poss": "obj", "obj": "poss", "subj": "obj", "refl": "obj"}
_GENDER_SWAP = {"masc": "fem", "fem": "masc", "neut": "masc"}


@dataclass(frozen=True)
class PronounAnnotation:
    """One pronoun mention: token index, features, and its antecedent text."""

    id: str
    index: int
    person: str  # "1" | "2" | "3"
    number: str  # "sing" | "plur"
    gender: str  # "masc" | "fem" | "neut" | None
    case: str  # "subj" | "obj" | "poss" | "refl"
    antecedent: str = None


def _form(person, number, gender, case):
    key = (person, number, gender if person == "3" and number == "sing" else None)
    entry = _PRONOUNS.get(key)
    return entry[case] if entry else None


def make_contrastive_pairs(sentences: dict, annotations) -> list:
    """Apply the four replacement rules to each annotated pronoun mention.

    sentences: example id -> token list. Emits one pair per applicable rule;
    rules producing the original form are skipped.
    """
    pairs = []
    for ann in annotations:
        tokens = sentences.get(ann.id)
        if tokens is None:
            continue
        tokens = list(tokens)
        if not 0 <= ann.index < len(tokens):
            raise ValueError(
                f"annotation for {ann.id!r} references token {ann.index}, "
                f"sentence has {len(tokens)} tokens"
            )
        original = tokens[ann.index]

        def emit(category, replacement_tokens):
            contrastive = tokens[: ann.index] + replacement_tokens + tokens[ann.index + 1 :]
            if contrastive != tokens:
                pairs.append(ContrastivePair(id=ann.id, reference=tuple(tokens),
                                             contrastive=tuple(contrastive), category=category))

        if ann.antecedent:
            emit("antecedent", ann.antecedent.lower().split())
        swapped = _form(ann.person, ann.number, ann.gender, _TYPE_SWAP[ann.case])
        if swapped and swapped != original:
            emit("pronoun_type", [swapped])
        other_number = "plur" if ann.number == "sing" else "sing"
        # moving to singular third person needs a gender; default masculine
        gender = ann.gender or "masc"
        swapped = _form(ann.person, other_number, gender, ann.case)
        if swapped and swapped != original:
            emit("number", [swapped])
        if ann.person == "3" and ann.number == "sing" and ann.gender:
            swapped = _form(ann.person, ann.number, _GENDER_SWAP[ann.gender], ann.case)
            if swapped and swapped != original:
                emit("gender", [swapped])
    return pairs
