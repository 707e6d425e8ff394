"""Evaluation metrics: hand values, conventions, truncation protocol."""

import math

import numpy as np
import pytest

from sei.corpus import EntityLabel
from sei.errors import ValidationError
from sei.metrics import (
    CX5_INDICES,
    EvalPair,
    corpus_bleu,
    entity_f1,
    micro_f1,
    rouge_l,
    score_corpus,
    truncate_reference,
)

from conftest import VOCAB


def lcs_recursive(a, b, memo=None):
    """Oracle LCS: plain recursion with memoization."""
    if memo is None:
        memo = {}
    key = (len(a), len(b))
    if key in memo:
        return memo[key]
    if not a or not b:
        result = 0
    elif a[-1] == b[-1]:
        result = lcs_recursive(a[:-1], b[:-1], memo) + 1
    else:
        result = max(lcs_recursive(a[:-1], b, memo), lcs_recursive(a, b[:-1], memo))
    memo[key] = result
    return result


def pair(gen, ref):
    return EvalPair(generated=tuple(gen.split()), reference=tuple(ref.split()))


class TestTruncation:
    def test_long_reference(self):
        tokens = tuple(f"t{i}" for i in range(120))
        assert truncate_reference(tokens, 100) == tokens[:100]

    def test_short_reference(self):
        tokens = tuple(f"t{i}" for i in range(50))
        assert truncate_reference(tokens, 100) == tokens

    def test_infinite_is_identity(self):
        tokens = tuple(f"t{i}" for i in range(75))
        assert truncate_reference(tokens, math.inf) == tokens

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            truncate_reference(("a",), -1)

    @pytest.mark.parametrize("m_gt", [math.nan, 2.5, -math.inf])
    def test_invalid_rejected(self, m_gt):
        with pytest.raises(ValidationError, match="m_gt"):
            truncate_reference(("a",), m_gt)
        with pytest.raises(ValidationError, match="m_gt"):
            score_corpus([pair("a", "a")], m_gt=m_gt)


class TestBleu:
    def test_hand_value(self):
        # unigrams 3/3, bigrams 2/2, brevity exp(1 - 4/3)
        score = corpus_bleu([pair("the cat sat", "the cat sat down")], 2)
        assert score == pytest.approx(math.exp(-1.0 / 3.0), abs=1e-9)

    def test_perfect_corpus(self):
        pairs = [pair("lungs are clear", "lungs are clear"), pair("no effusion seen", "no effusion seen")]
        assert corpus_bleu(pairs, 2) == 1.0
        assert corpus_bleu(pairs, 4) == 0.0  # three-token strings have no 4-grams

    def test_perfect_long_corpus(self):
        text = " ".join(VOCAB)
        assert corpus_bleu([pair(text, text)], 4) == 1.0

    def test_no_common_fourgram(self):
        pairs = [pair("a b c d e", "a b c x e")]
        assert corpus_bleu(pairs, 4) == 0.0

    def test_empty_generated_corpus(self):
        assert corpus_bleu([pair("", "the reference")], 2) == 0.0

    def test_count_doubling_invariance(self, rng):
        pairs = []
        for _ in range(6):
            gen = " ".join(VOCAB[int(i)] for i in rng.integers(0, len(VOCAB), size=8))
            ref = " ".join(VOCAB[int(i)] for i in rng.integers(0, len(VOCAB), size=10))
            pairs.append(pair(gen, ref))
        once = corpus_bleu(pairs, 2)
        twice = corpus_bleu(pairs + pairs, 2)
        assert twice == pytest.approx(once, abs=1e-12)

    def test_requires_pairs(self):
        with pytest.raises(ValidationError):
            corpus_bleu([], 2)


class TestRougeL:
    def test_hand_value(self):
        # LCS=2, P=1, R=2/3, beta=1.2
        score = rouge_l([pair("the cat", "the cat sat")])
        assert score == pytest.approx(0.77215, abs=1e-5)

    def test_identical(self):
        assert rouge_l([pair("a b c", "a b c")]) == 1.0

    def test_disjoint(self):
        assert rouge_l([pair("a b", "c d")]) == 0.0

    def test_empty_reference_scores_zero(self):
        assert rouge_l([pair("a b", ""), pair("a", "a")]) == pytest.approx(0.5)

    def test_lcs_matches_recursive_oracle(self, rng):
        for _ in range(40):
            a = [VOCAB[int(i)] for i in rng.integers(0, 6, size=int(rng.integers(0, 10)))]
            b = [VOCAB[int(i)] for i in rng.integers(0, 6, size=int(rng.integers(0, 10)))]
            from sei.metrics import _lcs_prefix_lengths

            assert _lcs_prefix_lengths(a, b)[-1] == lcs_recursive(tuple(a), tuple(b))


class TestMicroF1:
    def test_perfect(self):
        vec = [1, 0] * 7
        assert micro_f1([vec], [vec]) == 1.0

    def test_constructed_counts(self):
        # TP=3, FP=1, FN=2 -> 6/9
        gold = [
            [1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ]
        pred = [
            [1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ]
        assert micro_f1(pred, gold) == pytest.approx(2 / 3, abs=1e-12)

    def test_all_zero_convention(self):
        zeros = [[0] * 14]
        assert micro_f1(zeros, zeros) == 0.0

    def test_subset(self):
        gold = [[0] * 14]
        pred = [[0] * 14]
        gold[0][CX5_INDICES[0]] = 1
        pred[0][CX5_INDICES[0]] = 1
        pred[0][0] = 1  # outside the subset, must not count
        assert micro_f1(pred, gold, subset=CX5_INDICES) == 1.0

    def test_order_invariance(self, rng):
        pred = [list(rng.integers(0, 2, size=14)) for _ in range(10)]
        gold = [list(rng.integers(0, 2, size=14)) for _ in range(10)]
        perm = list(rng.permutation(10))
        assert micro_f1(pred, gold) == micro_f1([pred[i] for i in perm], [gold[i] for i in perm])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="studies"):
            micro_f1([[0] * 14], [])

    @pytest.mark.parametrize("value", [0.7, 1.9])
    def test_fractional_label_rejected(self, value):
        """A fraction is not a label: it raises, rather than being truncated to 0 or 1 and scored."""
        fractions = [value] * 14
        with pytest.raises(ValidationError, match="^pred row 0 entries must be 0 or 1$"):
            micro_f1([fractions], [[0] * 14])
        with pytest.raises(ValidationError, match="^gold row 0 entries must be 0 or 1$"):
            score_corpus([EvalPair(("a",), ("a",))], labels=[([0] * 14, fractions)])


class TestEntityF1:
    def test_identical(self):
        ents = {("effusion", "OBS-DA"), ("lungs", "ANAT-DP")}
        assert entity_f1(ents, set(ents)) == 1.0

    def test_partial(self):
        gen = {("effusion", EntityLabel.OBS_DA)}
        ref = {("effusion", EntityLabel.OBS_DA), ("lungs", EntityLabel.ANAT_DP)}
        assert entity_f1(gen, ref) == pytest.approx(2 / 3, abs=1e-12)

    def test_both_empty(self):
        assert entity_f1(set(), set()) == 1.0

    def test_one_empty(self):
        assert entity_f1(set(), {("a", "OBS-DP")}) == 0.0
        assert entity_f1({("a", "OBS-DP")}, set()) == 0.0

    def test_case_insensitive_text(self):
        assert entity_f1({("Effusion", "OBS-DA")}, {("effusion", "OBS-DA")}) == 1.0


class TestScoreCorpus:
    def _pairs(self):
        return [
            pair("the cat sat", "the cat sat down"),
            pair("no pleural effusion", "no pleural effusion is seen"),
        ]

    def test_full_inputs_give_six_keys(self):
        labels = [([1] + [0] * 13, [1] + [0] * 13)] * 2
        entities = [({("a", "OBS-DP")}, {("a", "OBS-DP")})] * 2
        report = score_corpus(self._pairs(), labels=labels, entities=entities)
        assert sorted(report) == ["BL-2", "BL-4", "CX14", "CX5", "RG-F1", "R_L"]
        assert all(0.0 <= v <= 1.0 for v in report.values())

    def test_absent_labels_omitted(self):
        report = score_corpus(self._pairs())
        assert "CX14" not in report
        assert "CX5" not in report
        assert "RG-F1" not in report

    def test_truncation_changes_reference_only(self, rng):
        gen = tuple(VOCAB[int(i)] for i in rng.integers(0, len(VOCAB), size=30))
        ref = tuple(VOCAB[int(i)] for i in rng.integers(0, len(VOCAB), size=150))
        pairs = [EvalPair(generated=gen, reference=ref)]
        reports = {}
        for m_gt in (60, 80, 90, 100, math.inf):
            reports[m_gt] = score_corpus(pairs, m_gt=m_gt)
            # the input pair is untouched
            assert pairs[0].generated == gen
            assert pairs[0].reference == ref
        assert reports[60] != reports[math.inf]

    def test_hand_values_through_score_corpus(self):
        """The BLEU, ROUGE-L and micro-F1 hand values above, read from the scorer ``sei run`` uses."""
        gold = [[1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0], [1] + [0] * 13]
        pred = [[1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0], [0] * 14]
        bleu = score_corpus([pair("the cat sat", "the cat sat down")])
        assert bleu["BL-2"] == pytest.approx(math.exp(-1.0 / 3.0), abs=1e-9)
        assert score_corpus([pair("the cat", "the cat sat")])["R_L"] == pytest.approx(0.77215, abs=1e-5)
        labelled = score_corpus([pair("a", "a")] * 2, labels=list(zip(pred, gold)))
        assert labelled["CX14"] == pytest.approx(2 / 3, abs=1e-12)

    def test_misaligned_inputs(self):
        with pytest.raises(ValidationError, match="label"):
            score_corpus(self._pairs(), labels=[([0] * 14, [0] * 14)])
