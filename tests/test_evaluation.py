"""BLEU, sentence metric, bucket reports, contrastive evaluation and pair
generation.

Oracle notes:
* the corpus BLEU fixture is [DERIVED]: n-gram match/total counts were
  enumerated by hand for the two sentence pairs below, then combined with the
  textbook formula written out explicitly here.
* bucket-report expectations use an independent group-by implemented inline.
"""
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from amrgen.evaluation import (
    CATEGORIES,
    DEPENDENCY_BUCKETS,
    REENTRANCY_BUCKETS,
    ContrastivePair,
    PronounAnnotation,
    _clipped_matches,
    bleu_scores,
    bucket_report,
    contrastive_eval,
    corpus_bleu,
    format_bucket_table,
    make_contrastive_pairs,
    sentence_metric,
)


# --------------------------------------------------------------------------
# Corpus BLEU


def test_corpus_bleu_hand_fixture():
    # [DERIVED] hand counts:
    #   pair 1: hyp == ref, 6 tokens -> 6/6 unigrams, 5/5 bigrams,
    #           4/4 trigrams, 3/3 4-grams
    #   pair 2: hyp  = the dog ran fast home (5 tokens)
    #           ref  = the dog ran quickly home
    #           unigrams 4/5, bigrams 2/4, trigrams 1/3, 4-grams 0/2
    # corpus totals: 10/11, 7/9, 5/7, 3/5; lengths 11 vs 11 -> no brevity
    hyps = [
        ["the", "cat", "sat", "on", "the", "mat"],
        ["the", "dog", "ran", "fast", "home"],
    ]
    refs = [
        ["the", "cat", "sat", "on", "the", "mat"],
        ["the", "dog", "ran", "quickly", "home"],
    ]
    expected = 100.0 * (10 / 11 * 7 / 9 * 5 / 7 * 3 / 5) ** 0.25
    assert abs(corpus_bleu(hyps, refs) - expected) < 1e-9
    assert round(corpus_bleu(hyps, refs), 4) == round(expected, 4)


def test_corpus_bleu_identical_is_100():
    sents = [["a", "b", "c", "d", "e"], ["the", "boy", "wants", "to", "go"]]
    assert corpus_bleu(sents, [list(s) for s in sents]) == 100.0


def test_corpus_bleu_brevity_penalty():
    # hyp is a strict prefix: precisions are perfect, only brevity bites
    hyps = [["a", "b", "c", "d"]]
    refs = [["a", "b", "c", "d", "e"]]
    expected = 100.0 * math.exp(1 - 5 / 4)
    assert abs(corpus_bleu(hyps, refs) - expected) < 1e-9


def test_corpus_bleu_zero_on_missing_ngram_level():
    # unigrams overlap, no bigram matches -> hard zero
    assert corpus_bleu([["a", "x", "b"]], [["a", "y", "b"]]) == 0.0


def test_corpus_bleu_length_mismatch_raises():
    with pytest.raises(ValueError):
        corpus_bleu([["a"]], [["a"], ["b"]])


def test_corpus_bleu_empty_hypotheses():
    assert corpus_bleu([[]], [["a", "b"]]) == 0.0


# --------------------------------------------------------------------------
# Sentence metric (smoothed, Meteor stand-in)


def test_sentence_metric_perfect():
    assert sentence_metric(["a", "b", "c"], ["a", "b", "c"]) == pytest.approx(100.0)


def test_sentence_metric_no_overlap_is_zero():
    assert sentence_metric(["x", "y"], ["a", "b"]) == 0.0


def test_sentence_metric_empty_hypothesis():
    assert sentence_metric([], ["a"]) == 0.0


def test_sentence_metric_empty_reference_raises():
    with pytest.raises(ValueError):
        sentence_metric(["a"], [])


def test_sentence_metric_smoothing_gives_partial_credit():
    # shares unigrams but no higher-order n-grams; smoothing keeps it positive
    score = sentence_metric(["b", "a"], ["a", "b", "c"])
    assert 0.0 < score < 100.0


def test_sentence_metric_monotone_in_overlap():
    ref = ["the", "boy", "eats", "the", "pizza"]
    worse = sentence_metric(["the", "boy", "sleeps", "a", "lot"], ref)
    better = sentence_metric(["the", "boy", "eats", "a", "lot"], ref)
    assert better > worse


# Reference metrics that count the n-grams of each order in a Counter of
# their own, one order at a time.


def _order_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _order_match(hyp, ref, n):
    ref_counts = _order_counts(ref, n)
    return sum(min(count, ref_counts[gram]) for gram, count in _order_counts(hyp, n).items())


def _reference_corpus_bleu(hypotheses, references, max_n):
    matches, totals = [0] * max_n, [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            totals[n - 1] += max(len(hyp) - n + 1, 0)
            matches[n - 1] += _order_match(hyp, ref, n)
    if hyp_len == 0 or any(m == 0 for m in matches):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matches, totals)) / max_n
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision)


def _reference_sentence_metric(hyp, ref, max_n):
    if not hyp:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        total = max(len(hyp) - n + 1, 0)
        match = _order_match(hyp, ref, n)
        if n == 1:
            if match == 0:
                return 0.0
            log_sum += math.log(match / total)
        else:
            log_sum += math.log((match + 1) / (total + 1))
    brevity = 1.0 if len(hyp) > len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    return 100.0 * brevity * math.exp(log_sum / max_n)


_SENTENCE = st.lists(st.sampled_from("abcd"), max_size=9)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(_SENTENCE, _SENTENCE.filter(bool)), min_size=1, max_size=4),
       max_n=st.integers(1, 5))
def test_metrics_equal_the_per_order_reference(pairs, max_n):
    hyps, refs = [h for h, _ in pairs], [r for _, r in pairs]
    assert corpus_bleu(hyps, refs, max_n) == _reference_corpus_bleu(hyps, refs, max_n)
    for hyp, ref in pairs:
        assert sentence_metric(hyp, ref, max_n) == _reference_sentence_metric(hyp, ref, max_n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(_SENTENCE, _SENTENCE.filter(bool)), min_size=1, max_size=4),
       max_n=st.integers(1, 5))
def test_bleu_scores_are_corpus_bleu_and_each_sentence_metric(pairs, max_n):
    hyps, refs = [h for h, _ in pairs], [r for _, r in pairs]
    bleu, sentences = bleu_scores(hyps, refs, max_n)
    assert bleu.hex() == corpus_bleu(hyps, refs, max_n).hex()
    assert [s.hex() for s in sentences] == [sentence_metric(h, r, max_n).hex() for h, r in pairs]


def test_bleu_scores_reject_what_the_two_metrics_reject():
    with pytest.raises(ValueError, match="empty reference"):
        bleu_scores([["a"]], [[]])
    with pytest.raises(ValueError, match="length mismatch"):
        bleu_scores([["a"]], [["a"], ["b"]])


@st.composite
def _repetitive_pair(draw):
    """A hypothesis and a reference of up to 40 tokens over one alphabet of
    1 to 30 symbols: the small alphabets repeat n-grams of every order."""
    sentence = st.lists(st.sampled_from(range(draw(st.integers(1, 30)))).map(str), max_size=40)
    return draw(sentence), draw(sentence)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(pair=_repetitive_pair(), max_n=st.integers(1, 5))
def test_clipped_matches_equal_the_per_order_counts(pair, max_n):
    hyp, ref = pair
    want = [_order_match(hyp, ref, n) for n in range(1, max_n + 1)]
    assert _clipped_matches(hyp, ref, max_n) == want


def test_clipped_matches_of_an_empty_hypothesis_are_zero():
    for ref in ([], ["a"], ["a", "a", "b", "a"]):
        assert _clipped_matches([], ref, 5) == [0] * 5


# --------------------------------------------------------------------------
# Bucket reports


def _example_scores():
    scores = {
        "Seq": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
        "GCNSeq": [12.0, 18.0, 33.0, 44.0, 55.0, 61.0],
    }
    stats = [
        {"reentrancies": 0, "max_dep_len": 4},
        {"reentrancies": 0, "max_dep_len": 15},
        {"reentrancies": 1, "max_dep_len": 7},
        {"reentrancies": 3, "max_dep_len": 60},
        {"reentrancies": 0, "max_dep_len": 55},
        {"reentrancies": 8, "max_dep_len": 9},
    ]
    return scores, stats


def test_bucket_report_reentrancies_grouping():
    scores, stats = _example_scores()
    rows = bucket_report(scores, stats, bucketing="reentrancies")
    by_label = {r.label: r for r in rows}
    # independent group-by: bucket 0 -> examples 0,1,4; 1-5 -> 2,3; 6-20 -> 5
    assert by_label["0"].count == 3
    assert by_label["0"].baseline_mean == pytest.approx((10 + 20 + 50) / 3)
    assert by_label["1-5"].count == 2
    assert by_label["1-5"].baseline_mean == pytest.approx((30 + 40) / 2)
    assert by_label["6-20"].count == 1
    delta = dict(by_label["1-5"].deltas)["GCNSeq"]
    assert delta == pytest.approx((33 + 44) / 2 - (30 + 40) / 2)


def test_bucket_report_dep_length_excludes_reentrant():
    scores, stats = _example_scores()
    rows = bucket_report(scores, stats, bucketing="max_dep_len")
    by_label = {r.label: r for r in rows}
    # only examples 0, 1, 4 qualify (reentrancies == 0)
    assert by_label["0-10"].count == 1
    assert by_label["11-50"].count == 1
    assert by_label["51-250"].count == 1
    assert by_label["51-250"].baseline_mean == pytest.approx(50.0)


def test_bucket_report_default_edges():
    assert REENTRANCY_BUCKETS == ((0, 0), (1, 5), (6, 20))
    assert DEPENDENCY_BUCKETS == ((0, 10), (11, 50), (51, 250))


def test_bucket_report_overflow_bucket():
    scores = {"Seq": [1.0, 2.0]}
    stats = [{"reentrancies": 0, "max_dep_len": 1}, {"reentrancies": 99, "max_dep_len": 1}]
    rows = bucket_report(scores, stats, bucketing="reentrancies")
    labels = [r.label for r in rows]
    assert ">20" in labels
    assert rows[-1].count == 1


def test_bucket_report_values_below_and_between_edges_get_their_own_rows():
    scores, stats = _example_scores()  # reentrancies 0, 0, 1, 3, 0, 8
    rows = bucket_report(scores, stats, bucketing="reentrancies", edges=((1, 2), (5, 6)))
    assert [(r.label, r.count) for r in rows] == [
        ("<1", 3), ("1-2", 1), ("3-4", 1), ("5-6", 0), (">6", 1)]
    assert rows[0].baseline_mean == pytest.approx((10 + 20 + 50) / 3)
    rows = bucket_report(scores, stats, bucketing="reentrancies", edges=((0, 0), (2, 2), (4, 8)))
    assert [(r.label, r.count) for r in rows] == [("0", 3), ("1", 1), ("2", 0), ("3", 1),
                                                  ("4-8", 1)]


@pytest.mark.parametrize("edges", [((5, 1),), ((0, 3), (2, 8)), ((0, 3), (3, 8)),
                                   ((6, 20), (0, 5)), ()])
def test_bucket_report_rejects_edges_out_of_order(edges):
    scores, stats = _example_scores()
    with pytest.raises(ValueError):
        bucket_report(scores, stats, edges=edges)


def test_bucket_report_empty_bucket_has_no_mean():
    scores = {"Seq": [1.0]}
    stats = [{"reentrancies": 0, "max_dep_len": 1}]
    rows = bucket_report(scores, stats, bucketing="reentrancies")
    by_label = {r.label: r for r in rows}
    assert by_label["1-5"].count == 0
    assert by_label["1-5"].baseline_mean is None


def test_bucket_report_alignment_check():
    with pytest.raises(ValueError):
        bucket_report({"Seq": [1.0, 2.0]}, [{"reentrancies": 0, "max_dep_len": 1}])


def test_format_bucket_table():
    scores, stats = _example_scores()
    rows = bucket_report(scores, stats, bucketing="reentrancies")
    text = format_bucket_table(rows, "reentrancies", "Seq")
    assert "reentrancies" in text
    assert "GCNSeq" in text
    assert len(text.splitlines()) == 2 + len(rows)


# --------------------------------------------------------------------------
# Contrastive evaluation


def _pair(category, ref, alt, pid="x"):
    return ContrastivePair(id=pid, reference=tuple(ref), contrastive=tuple(alt), category=category)


def test_contrastive_pair_validation():
    with pytest.raises(ValueError):
        _pair("nope", ["a"], ["b"])
    with pytest.raises(ValueError):
        _pair("gender", ["a"], ["a"])  # sentences must differ


def test_contrastive_eval_counts_and_ties():
    pairs = [
        _pair("gender", ["good"], ["bad"]),
        _pair("gender", ["tie"], ["breaker"]),
        _pair("number", ["worse"], ["better"]),
    ]
    fixed = {
        ("good",): 1.0, ("bad",): 0.0,
        ("tie",): 0.5, ("breaker",): 0.5,  # tie -> loss
        ("worse",): 0.1, ("better",): 0.9,
    }
    results, skipped = contrastive_eval(
        lambda ex, toks: fixed[tuple(toks)], pairs, lambda pid: object()
    )
    assert skipped == 0
    assert results["gender"].count == 2
    assert results["gender"].wins == 1
    assert results["gender"].accuracy == pytest.approx(50.0)
    assert results["number"].count == 1
    assert results["number"].wins == 0
    assert results["antecedent"].count == 0
    assert results["antecedent"].accuracy == 0.0


def test_contrastive_eval_skips_unknown_examples():
    pairs = [_pair("gender", ["a"], ["b"], pid="missing")]
    results, skipped = contrastive_eval(lambda ex, toks: 0.0, pairs, lambda pid: None)
    assert skipped == 1
    assert results["gender"].count == 0


def test_contrastive_eval_scores_each_example_s_pairs_together():
    pairs = [
        _pair("gender", ["a1"], ["b1"], pid="a"),
        _pair("number", ["x1"], ["y1"], pid="b"),
        _pair("number", ["a2"], ["b2"], pid="a"),
        _pair("gender", ["m1"], ["n1"], pid="missing"),
        _pair("antecedent", ["z1"], ["w1"], pid="c"),
        _pair("gender", ["x2"], ["y2"], pid="b"),
        _pair("gender", ["a3"], ["b3"], pid="a"),
    ]
    calls, looked_up = [], []

    def lookup(pid):
        looked_up.append(pid)
        return None if pid == "missing" else pid.upper()

    results, skipped = contrastive_eval(
        lambda ex, toks: calls.append((ex, toks[0])) or 0.0, pairs, lookup)
    assert calls == [("A", "a1"), ("A", "b1"), ("A", "a2"), ("A", "b2"), ("A", "a3"), ("A", "b3"),
                     ("B", "x1"), ("B", "y1"), ("B", "x2"), ("B", "y2"),
                     ("C", "z1"), ("C", "w1")]
    assert looked_up == ["a", "b", "missing", "c"]
    assert skipped == 1
    assert [results[c].count for c in CATEGORIES] == [1, 0, 2, 3]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    pairs=st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from(CATEGORIES),
                             st.integers(0, 3), st.integers(0, 3)).filter(lambda t: t[2] != t[3]),
                   max_size=12),
    data=st.data(),
)
def test_contrastive_eval_does_not_depend_on_the_pairs_order(pairs, data):
    # ids "d" are unknown; scores come from a fixed table, so ties occur
    scores = {("a", 0): -1.0, ("a", 1): -2.0, ("a", 2): -1.0, ("a", 3): -0.5,
              ("b", 0): -3.0, ("b", 1): -3.0, ("b", 2): -0.1, ("b", 3): -4.0,
              ("c", 0): -0.2, ("c", 1): -0.3, ("c", 2): -0.2, ("c", 3): -9.0}
    pairs = [_pair(category, [f"w{ref}"], [f"w{alt}"], pid=pid)
             for pid, category, ref, alt in pairs]
    shuffled = data.draw(st.permutations(pairs))

    def run(order):
        return contrastive_eval(lambda ex, toks: scores[ex, int(toks[0][1:])], order,
                                lambda pid: None if pid == "d" else pid)

    assert run(shuffled) == run(pairs)


def test_categories_partition():
    assert CATEGORIES == ("antecedent", "pronoun_type", "number", "gender")


# --------------------------------------------------------------------------
# Mechanical pair generation


def _sentence(tokens):
    return {"s1": list(tokens)}


def test_pairs_masculine_possessive():
    # 'his' with antecedent John: antecedent -> John, pronoun_type poss->obj
    # -> him, number -> their, gender -> her
    anns = [
        PronounAnnotation(
            id="s1", index=2, person="3", number="sing", gender="masc",
            case="poss", antecedent="John",
        )
    ]
    pairs = make_contrastive_pairs(_sentence(["john", "lost", "his", "hat"]), anns)
    got = {p.category: list(p.contrastive) for p in pairs}
    assert got["antecedent"] == ["john", "lost", "john", "hat"]  # lowercased
    assert got["pronoun_type"] == ["john", "lost", "him", "hat"]
    assert got["number"] == ["john", "lost", "their", "hat"]
    assert got["gender"] == ["john", "lost", "her", "hat"]


def test_pairs_plural_has_no_gender_rule():
    anns = [
        PronounAnnotation(
            id="s1", index=0, person="3", number="plur", gender=None,
            case="subj", antecedent="the boys",
        )
    ]
    pairs = make_contrastive_pairs(_sentence(["they", "ran"]), anns)
    categories = {p.category for p in pairs}
    assert "gender" not in categories
    got = {p.category: list(p.contrastive) for p in pairs}
    # number plur -> sing defaults to masculine third person
    assert got["number"] == ["he", "ran"]
    # subj -> obj swap
    assert got["pronoun_type"] == ["them", "ran"]


def test_pairs_neuter_gender_goes_masculine():
    anns = [
        PronounAnnotation(
            id="s1", index=3, person="3", number="sing", gender="neut",
            case="poss", antecedent="dog",
        )
    ]
    pairs = make_contrastive_pairs(_sentence(["the", "dog", "chased", "its", "tail"]), anns)
    got = {p.category: list(p.contrastive) for p in pairs}
    assert got["gender"][3] == "his"


def test_pairs_skip_noop_swaps():
    # feminine possessive 'her': the poss -> obj swap reproduces 'her' and
    # must be dropped
    anns = [
        PronounAnnotation(
            id="s1", index=2, person="3", number="sing", gender="fem",
            case="poss", antecedent="Mary",
        )
    ]
    pairs = make_contrastive_pairs(_sentence(["mary", "lost", "her", "hat"]), anns)
    categories = [p.category for p in pairs]
    assert "pronoun_type" not in categories
    assert set(categories) == {"antecedent", "number", "gender"}


def test_pairs_no_antecedent_rule_without_annotation():
    anns = [
        PronounAnnotation(
            id="s1", index=0, person="3", number="sing", gender="masc",
            case="subj", antecedent=None,
        )
    ]
    pairs = make_contrastive_pairs(_sentence(["he", "ran"]), anns)
    assert "antecedent" not in {p.category for p in pairs}


def test_pairs_multiword_antecedent():
    anns = [
        PronounAnnotation(
            id="s1", index=1, person="3", number="plur", gender=None,
            case="poss", antecedent="the boys",
        )
    ]
    pairs = make_contrastive_pairs(_sentence(["then", "their", "dog", "ran"]), anns)
    got = {p.category: list(p.contrastive) for p in pairs}
    assert got["antecedent"] == ["then", "the", "boys", "dog", "ran"]


def test_pairs_out_of_range_index_raises():
    anns = [
        PronounAnnotation(
            id="s1", index=9, person="3", number="sing", gender="masc",
            case="subj", antecedent=None,
        )
    ]
    with pytest.raises(ValueError):
        make_contrastive_pairs(_sentence(["he", "ran"]), anns)


def test_pairs_unknown_sentence_skipped():
    anns = [
        PronounAnnotation(
            id="other", index=0, person="3", number="sing", gender="masc",
            case="subj", antecedent=None,
        )
    ]
    assert make_contrastive_pairs(_sentence(["he", "ran"]), anns) == []


def test_toy_annotation_pairs(toy_corpus, toy_annotations):
    sentences = {ex.id: list(ex.sentence) for ex in toy_corpus}
    pairs = make_contrastive_pairs(sentences, toy_annotations)
    assert len(pairs) == 18
    per_category = {c: 0 for c in CATEGORIES}
    for p in pairs:
        per_category[p.category] += 1
    assert all(v > 0 for v in per_category.values())
