"""Report evaluation: BLEU, ROUGE-L, micro-F1 label scoring, entity F1.

References may be truncated to a target length while generated reports stay
untouched, so corpora can be scored both against concise excerpts and
against complete reference reports.  BLEU is corpus-level and unsmoothed;
ROUGE-L is a per-pair LCS F-measure (beta = 1.2) averaged over pairs.

One pass over the pairs, ``_one_pass``, serves every BLEU and ROUGE-L
score: ``score_settings`` and ``score_corpus`` run it at each truncation
setting, and ``corpus_bleu`` and ``rouge_l`` at the complete reference, so
each metric has one implementation.  So does entity identity, lowercased
text plus label string, in ``_entity_key``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ValidationError, check_labels14

__all__ = [
    "LABELS14",
    "CX5_INDICES",
    "EvalPair",
    "truncate_reference",
    "corpus_bleu",
    "rouge_l",
    "micro_f1",
    "entity_f1",
    "score_corpus",
    "score_settings",
    "M_GT_CHOICES",
]

# CheXbert condition order; the five-label subset follows common usage.
LABELS14 = (
    "Enlarged Cardiomediastinum",
    "Cardiomegaly",
    "Lung Opacity",
    "Lung Lesion",
    "Edema",
    "Consolidation",
    "Pneumonia",
    "Atelectasis",
    "Pneumothorax",
    "Pleural Effusion",
    "Pleural Other",
    "Fracture",
    "Support Devices",
    "No Finding",
)
CX5_INDICES = (1, 4, 5, 7, 9)  # Cardiomegaly, Edema, Consolidation, Atelectasis, Pleural Effusion

M_GT_CHOICES = (60, 80, 90, 100, math.inf)
_ROUGE_BETA_SQ = 1.2 * 1.2  # ROUGE-L's beta, squared


@dataclass(frozen=True)
class EvalPair:
    """One generated/reference token-list pair; truncation hits the reference only."""

    generated: tuple[str, ...]
    reference: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "generated", tuple(self.generated))
        object.__setattr__(self, "reference", tuple(self.reference))


def truncate_reference(tokens: Sequence[str], m_gt: float) -> tuple[str, ...]:
    """First min(m_gt, len) tokens; infinity means the complete reference."""
    toks = tuple(tokens)
    if m_gt == math.inf:
        return toks
    if not m_gt >= 0 or m_gt != int(m_gt):  # NaN fails the first test
        raise ValidationError(f"m_gt must be a non-negative integer or infinity, got {m_gt}")
    return toks[: int(m_gt)]


def _ngram_counts(tokens: tuple[str, ...], max_n: int) -> Counter:
    """Every n-gram of orders 1..max_n in one Counter; a key's length is its order."""
    return Counter(
        tokens[i : i + n] for n in range(1, max_n + 1) for i in range(len(tokens) - n + 1)
    )


def _clipped_counts(gen_counts: Counter, ref_counts: Counter, max_n: int) -> list[int]:
    """Per order, the generated n-grams that the reference also holds, clipped to its count."""
    clipped = [0] * max_n
    for gram, count in gen_counts.items():
        ref_count = ref_counts.get(gram)
        if ref_count:
            clipped[len(gram) - 1] += min(count, ref_count)
    return clipped


class _BleuTally:
    """Corpus-level BLEU sums: clipped and total n-grams per order, and the lengths."""

    def __init__(self, max_n: int):
        self.clipped = [0] * max_n
        self.totals = [0] * max_n
        self.gen_len = 0
        self.ref_len = 0

    def add(self, clipped: list[int], gen_len: int, ref_len: int) -> None:
        self.gen_len += gen_len
        self.ref_len += ref_len
        for order, count in enumerate(clipped):
            self.clipped[order] += count
            self.totals[order] += max(0, gen_len - order)

    def bleu(self, n: int) -> float:
        """BLEU-n from the first ``n`` orders of the sums; 0 if an order has no match (clipped <= total)."""
        clipped, totals = self.clipped[:n], self.totals[:n]
        if not all(clipped):
            return 0.0
        log_precision = sum(math.log(c / t) for c, t in zip(clipped, totals)) / n
        brevity = 1.0 if self.gen_len > self.ref_len else math.exp(1.0 - self.ref_len / self.gen_len)
        return brevity * math.exp(log_precision)


def _lcs_prefix_lengths(a: Sequence[str], b: Sequence[str]) -> list[int]:
    """Entry ``j`` is the LCS length of ``a`` and ``b[:j]``, for every prefix of ``b``."""
    prev = [0] * (len(b) + 1)
    for tok_a in a:
        cur = [0]
        for j, tok_b in enumerate(b):
            if tok_a == tok_b:
                cur.append(prev[j] + 1)
            else:
                up, left = prev[j + 1], cur[j]
                cur.append(up if up > left else left)
        prev = cur
    return prev


def _rouge_f(lcs: int, gen_len: int, ref_len: int) -> float:
    """One pair's LCS F-measure; no common token, and so an empty side, scores 0."""
    if lcs == 0:
        return 0.0
    precision, recall = lcs / gen_len, lcs / ref_len
    return (1 + _ROUGE_BETA_SQ) * recall * precision / (recall + _ROUGE_BETA_SQ * precision)


def _one_pass(
    pairs: Sequence[EvalPair], settings: Sequence[float], max_n: int
) -> dict[float, tuple[_BleuTally, list[float]]]:
    """Per truncation setting, the BLEU sums up to ``max_n`` and each pair's ROUGE-L F-measure.

    Each pair's generated n-grams are counted once and clipped against each
    distinct truncated reference length, and one LCS row over the reference
    gives ROUGE-L at every prefix length.
    """
    tallies = {m_gt: _BleuTally(max_n) for m_gt in settings}
    rouge: dict[float, list[float]] = {m_gt: [] for m_gt in settings}
    for pair in pairs:
        gen, ref = pair.generated, pair.reference
        gen_counts = _ngram_counts(gen, max_n)
        lcs = _lcs_prefix_lengths(gen, ref)
        clipped_at: dict[int, list[int]] = {}
        for m_gt in settings:
            cut = len(truncate_reference(ref, m_gt))
            if cut not in clipped_at:
                clipped_at[cut] = _clipped_counts(gen_counts, _ngram_counts(ref[:cut], max_n), max_n)
            tallies[m_gt].add(clipped_at[cut], len(gen), cut)
            rouge[m_gt].append(_rouge_f(lcs[cut], len(gen), cut))
    return {m_gt: (tallies[m_gt], rouge[m_gt]) for m_gt in settings}


def corpus_bleu(pairs: Sequence[EvalPair], n: int) -> float:
    """Corpus-level BLEU-n: clipped precision geometric mean times brevity penalty.

    Uniform weights 1/n and no smoothing, so any empty n-gram precision
    zeroes the score.  An empty generated corpus scores 0.
    """
    if not pairs:
        raise ValidationError("corpus_bleu requires at least one pair")
    if n < 1:
        raise ValidationError(f"n-gram order must be >= 1, got {n}")
    return _one_pass(pairs, (math.inf,), n)[math.inf][0].bleu(n)


def rouge_l(pairs: Sequence[EvalPair]) -> float:
    """Mean per-pair LCS F-measure; a pair with an empty reference scores 0."""
    if not pairs:
        raise ValidationError("rouge_l requires at least one pair")
    _, scores = _one_pass(pairs, (math.inf,), 1)[math.inf]
    return sum(scores) / len(scores)


def micro_f1(
    pred: Sequence[Sequence[int]],
    gold: Sequence[Sequence[int]],
    subset: Sequence[int] | None = None,
) -> float:
    """Micro-averaged F1 over the selected label positions (all 14 by default).

    F1 = 2TP / (2TP + FP + FN), or 0 when that denominator is 0.
    """
    if len(pred) != len(gold):
        raise ValidationError(f"pred has {len(pred)} studies but gold has {len(gold)}")
    positions = tuple(range(14)) if subset is None else tuple(subset)
    if any(p < 0 or p >= 14 for p in positions):
        raise ValidationError(f"label subset {positions} out of range")
    return _micro_f1(_validated_label_rows(zip(pred, gold)), positions)


def _validated_label_rows(rows: Iterable[tuple[Sequence[int], Sequence[int]]]) -> list:
    """Each (pred, gold) row as validated 14-entry tuples, pred checked first."""
    return [
        (
            check_labels14(p_vec, f"pred row {row}"),
            check_labels14(g_vec, f"gold row {row}"),
        )
        for row, (p_vec, g_vec) in enumerate(rows)
    ]


def _micro_f1(rows: Sequence[tuple[tuple[int, ...], tuple[int, ...]]], positions: Sequence[int]) -> float:
    tp = fp = fn = 0
    for p, g in rows:
        for pos in positions:
            if p[pos] and g[pos]:
                tp += 1
            elif p[pos]:
                fp += 1
            elif g[pos]:
                fn += 1
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def _entity_key(entry) -> tuple[str, str]:
    """What makes two entities one: lowercased text and label string (an EntityLabel or its value)."""
    text, label = entry
    return str(text).lower(), str(getattr(label, "value", label))


def entity_f1(gen_entities: Iterable, ref_entities: Iterable) -> float:
    """Exact-match F1 on (lowercased text, label) pairs.

    Both sides empty count as perfect vacuous agreement (1.0); exactly one
    empty side scores 0.
    """
    gen = {_entity_key(e) for e in gen_entities}
    ref = {_entity_key(e) for e in ref_entities}
    if not gen and not ref:
        return 1.0
    tp = len(gen & ref)
    if tp == 0:  # also when exactly one side is empty
        return 0.0
    precision = tp / len(gen)
    recall = tp / len(ref)
    return 2 * precision * recall / (precision + recall)


def score_corpus(
    pairs: Sequence[EvalPair],
    labels: Sequence[tuple[Sequence[int], Sequence[int]]] | None = None,
    entities: Sequence[tuple[Iterable, Iterable]] | None = None,
    m_gt: float = math.inf,
) -> dict[str, float]:
    """Score a corpus at one reference-truncation setting.

    ``labels`` holds (predicted, gold) 14-label vectors per study and
    ``entities`` holds (generated, reference) entity sets; metrics whose
    inputs are absent are omitted from the report, never zeroed.
    """
    return score_settings(pairs, labels, entities, (m_gt,))[m_gt]


def score_settings(
    pairs: Sequence[EvalPair],
    labels: Sequence[tuple[Sequence[int], Sequence[int]]] | None = None,
    entities: Sequence[tuple[Iterable, Iterable]] | None = None,
    m_gt_values: Sequence[float] = (math.inf,),
) -> dict[float, dict[str, float]]:
    """``score_corpus`` at every setting in ``m_gt_values``, from one ``_one_pass`` over the pairs.

    The label and entity scores do not depend on truncation, so they are
    computed once and shared.
    """
    if not pairs:
        raise ValidationError("score_corpus requires at least one pair")
    if labels is not None and len(labels) != len(pairs):
        raise ValidationError(f"{len(labels)} label rows for {len(pairs)} pairs")
    if entities is not None and len(entities) != len(pairs):
        raise ValidationError(f"{len(entities)} entity rows for {len(pairs)} pairs")
    settings = tuple(dict.fromkeys(m_gt_values))
    passes = _one_pass(pairs, settings, 4)
    shared = {}
    if labels is not None:
        rows = _validated_label_rows(labels)
        shared["CX14"] = _micro_f1(rows, tuple(range(14)))
        shared["CX5"] = _micro_f1(rows, CX5_INDICES)
    if entities is not None:
        shared["RG-F1"] = sum(entity_f1(gen, ref) for gen, ref in entities) / len(entities)
    return {
        m_gt: {"BL-2": tally.bleu(2), "BL-4": tally.bleu(4), "R_L": sum(rouge) / len(rouge), **shared}
        for m_gt, (tally, rouge) in passes.items()
    }
